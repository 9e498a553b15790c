"""Core-speed calibration: scales measured times to one reference speed.

On a shared host the core a run gets changes speed by up to 2x, within
seconds and for stretches of half a minute, and CPU time slows with it.
A median over the passes of one run does not remove a stretch that lasts
the whole run, so raw times of the same code spread by ~25% between runs.

The end-to-end run therefore splits every pass into short segments (a
closed-loop run or a few, ~0.3-2 s) and times a fixed calibration block
between every two segments.  Each segment is scaled by
``REF_BLOCK_S / mean(block before, block after)``: the time it would have
taken at the speed where one block takes ``REF_BLOCK_S``.  The block is
the benchmark's own code and never changes, so the scaled times of two
commits compare the programs, not the host's load.  It imitates the mix of
pbrsim's rate kernel (small numpy expressions on 101 depth nodes and scalar
Python arithmetic) so that it slows the way pbrsim does.
"""

from __future__ import annotations

import math
import time

import numpy as np

# A block's time at the reference speed.  It is a fixed constant, near the
# fast end of the 2-vCPU host the benchmark was written on (0.08-0.28 s).
REF_BLOCK_S = 0.1
_ROUNDS = 8000  # kernel-like evaluations per block

_Z = np.linspace(0.0, 0.04, 101)
_W = np.ones(101)
_W[1:-1:2] = 4.0
_W[2:-1:2] = 2.0


def block() -> float:
    """Wall time of one calibration block, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        x = 0.5 + (i % 17) * 0.1
        d = math.sqrt(x * 151.0 * (x + 0.71))
        g = (
            1200.0
            * (1.71 * np.exp(-d * _Z) - 0.29 * np.exp(-d * (0.08 - _Z)))
            / (2.9 - 0.08 * math.exp(-0.08 * d))
        )
        r = (0.8 * 120.0 / (120.0 + g) * 1.12e-7 * g - 3.19e-4 * 6.0 / (6.0 + g)) * 3600.0
        acc += float(_W @ r) / 300.0
    dt = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise SystemExit("error: calibration block is not finite")
    return dt


def factor(before: float, after: float) -> float:
    """Scale for a span timed between two calibration blocks."""
    return REF_BLOCK_S / (0.5 * (before + after))


class Meter:
    """Clock of one pass, kept in segments.

    A pass adds the seconds of its inner spans (``add``) to the open
    segment and closes it with ``split``; the wall time of every segment is
    counted under "wall".  A calibrating meter times a block when it starts
    and at every split, and scales each segment by the blocks on either
    side of it; otherwise the scale is 1.  ``raw`` holds the seconds as
    measured and ``scaled`` the same at the reference speed.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.blocks = [block()] if calibrate else []
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self._open: dict[str, float] = {}
        self._start = time.perf_counter()

    def add(self, name: str, seconds: float) -> None:
        self._open[name] = self._open.get(name, 0.0) + seconds

    def split(self) -> None:
        """Close the open segment, calibrate, and open the next one."""
        self.add("wall", time.perf_counter() - self._start)
        scale = 1.0
        if self.calibrate:
            self.blocks.append(block())
            scale = factor(self.blocks[-2], self.blocks[-1])
        for name, seconds in self._open.items():
            self.raw[name] = self.raw.get(name, 0.0) + seconds
            self.scaled[name] = self.scaled.get(name, 0.0) + seconds * scale
        self._open = {}
        self._start = time.perf_counter()
