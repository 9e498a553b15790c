"""Stored per-cell outputs and the check behind ``failed`` / fail_ratio.

``reference.json`` maps a cell key (workload/controller/.../seedN) to the
summary that ``workloads.summarize`` produced for it at the commit that
generated the file.  A cell fails when it raised, when its key has no
reference, or when any value differs by more than the repository's pin
(relative 1e-9, absolute 1e-12, as pytest.approx(rel=1e-9)).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def load() -> dict[str, dict]:
    return json.loads(REFERENCE_PATH.read_text())["cells"]


def _close(value, ref) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(value, list)
            and len(value) == len(ref)
            and all(_close(v, r) for v, r in zip(value, ref))
        )
    if ref is None or value is None:
        return ref is value
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def matches(summary: dict | None, ref: dict | None) -> bool:
    """True when a cell ran and every reference value is reproduced."""
    if summary is None or ref is None or summary.keys() != ref.keys():
        return False
    return all(_close(summary[k], ref[k]) for k in ref)


def failed_cells(cells: dict[str, dict | None], refs: dict[str, dict]) -> list[str]:
    """Keys of the cells that raised or miss their stored reference."""
    return [key for key, summary in cells.items() if not matches(summary, refs.get(key))]
