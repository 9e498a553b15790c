"""Steady-state analysis: equilibria and productivity-optimal setpoints.

At equilibrium the dilution rate equals the specific growth rate, and the
harvested biomass flux is D * X = r_X(X, q0).  The setpoint computation
maximizes that flux over X for a given incident light, by a coarse grid scan
followed by golden-section refinement of the bracketed maximum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kinetics import FullModelParams, growth_rate_full
from .radiative import Geometry

__all__ = [
    "OperatingPoint",
    "NoAdmissibleSetpointError",
    "NotUnimodalError",
    "optimal_setpoint",
    "setpoint_map",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Q0_VALID_RANGE = (100.0, 1000.0)  # umol/m2/s, range the optical correlations cover

# Bracket and tolerance of the productivity maximization.
X_MIN = 0.01  # kg/m3
X_MAX = 2.0  # kg/m3
GRID_POINTS = 200
X_TOL = 1e-5  # kg/m3


class NoAdmissibleSetpointError(ValueError):
    """Productivity is non-positive everywhere in the search bracket."""


class NotUnimodalError(RuntimeError):
    """The productivity scan found multiple interior maxima."""


@dataclass(frozen=True)
class OperatingPoint:
    """Steady state of the reactor at a given incident light."""

    q0: float  # umol/m2/s
    x_star: float  # biomass setpoint, kg/m3
    d_star: float  # dilution holding x_star, 1/h
    productivity: float  # harvested flux d_star * x_star, kg/m3/h


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_setpoint(
    q0: float,
    p: FullModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
) -> OperatingPoint:
    """Biomass setpoint maximizing steady-state productivity at light q0.

    A coarse scan brackets the maximum (and rejects non-unimodal scans
    instead of silently returning a local optimum); golden-section then
    refines the bracket down to X_TOL.  Ties on the coarse grid
    resolve to the smallest X.
    """
    lo_q0, hi_q0 = Q0_VALID_RANGE
    if not lo_q0 <= q0 <= hi_q0:
        raise ValueError(f"q0={q0} outside the supported range {Q0_VALID_RANGE}")

    def productivity(x: float) -> float:
        return growth_rate_full(x, q0, p, geom)

    grid = np.linspace(X_MIN, X_MAX, GRID_POINTS)
    values = np.array([productivity(x) for x in grid])
    if np.all(values <= 0):
        raise NoAdmissibleSetpointError(
            f"no positive productivity for q0={q0} in [{X_MIN}, {X_MAX}]"
        )

    interior_maxima = [
        i
        for i in range(1, len(grid) - 1)
        if values[i] >= values[i - 1] and values[i] > values[i + 1]
    ]
    if len(interior_maxima) > 1:
        xs = ", ".join(f"{grid[i]:.4g}" for i in interior_maxima)
        raise NotUnimodalError(
            f"productivity scan at q0={q0} has maxima near X in {{{xs}}}; "
            "refusing to pick one"
        )

    best = int(np.argmax(values))  # first index on ties: smallest X
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    x_star = _golden_max(productivity, lo, hi, X_TOL)
    prod = productivity(x_star)
    if prod <= 0:
        raise NoAdmissibleSetpointError(f"refined productivity non-positive at q0={q0}")
    return OperatingPoint(q0=q0, x_star=x_star, d_star=prod / x_star, productivity=prod)


def setpoint_map(
    q0_values: Sequence[float],
    p: FullModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
) -> list[OperatingPoint]:
    """Optimal operating points over a grid of light levels.

    The optimal setpoint is expected to rise with available light; a
    non-monotone map is reported as a warning (it usually means the model
    constants were overridden into odd territory).
    """
    points = [optimal_setpoint(q0, p, geom) for q0 in q0_values]
    xs = [op.x_star for op in points]
    qs = [op.q0 for op in points]
    for i in range(1, len(points)):
        rising_light = qs[i] > qs[i - 1]
        if rising_light and xs[i] < xs[i - 1] - X_TOL:
            warnings.warn(
                f"setpoint map not monotone: x*({qs[i]:.6g}) < x*({qs[i-1]:.6g})",
                stacklevel=2,
            )
    return points
