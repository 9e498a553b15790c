"""Steady-state analysis: equilibria and productivity-optimal setpoints.

At equilibrium the dilution rate equals the specific growth rate, and the
harvested biomass flux is D * X = r_X(X, q0).  The setpoint maximizes that
flux over X at a given light: a coarse grid scan, certified at numpy's speed,
brackets the maximum, and golden-section on the scalar rate refines it.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kinetics import FullModelParams, SimplifiedModelParams
from .radiative import Geometry

__all__ = [
    "OperatingPoint",
    "NoAdmissibleSetpointError",
    "NotUnimodalError",
    "optimal_setpoint",
    "setpoint_map",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

Q0_VALID_RANGE = (100.0, 1000.0)  # umol/m2/s, light the setpoint search supports

# Bracket and tolerance of the productivity maximization.
X_MIN = 0.01  # kg/m3
X_MAX = 2.0  # kg/m3
GRID_POINTS = 200
X_TOL = 1e-5  # kg/m3
_GRID = np.linspace(X_MIN, X_MAX, GRID_POINTS)
SCAN_MARGIN = 1e-12  # of max|value|; numpy's scan values sat within 4.4e-15 of it of libm's


class NoAdmissibleSetpointError(ValueError):
    """No positive, finite productivity in the search bracket, or its peak on the bracket's edge."""


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


@np.errstate(all="ignore")  # a fast scan's value that is not finite fails the margin
def optimal_setpoint(
    q0: float,
    p: FullModelParams | SimplifiedModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
) -> OperatingPoint:
    """Biomass setpoint maximizing steady-state productivity at light q0.

    A coarse scan brackets the maximum (and rejects non-unimodal scans
    instead of silently returning a local optimum); golden-section then
    refines the bracket down to X_TOL, and refuses an X within X_TOL of the
    bracket's edge.  Ties on the coarse grid resolve to the smallest X.  A
    fast scan stands only if each comparison it decides by clears
    SCAN_MARGIN, as exact values then agree; else the bound rate rescans.
    """
    lo_q0, hi_q0 = Q0_VALID_RANGE
    if not lo_q0 <= q0 <= hi_q0:
        raise ValueError(f"q0={q0} outside the supported range [{lo_q0:.17g}, {hi_q0:.17g}]")

    productivity = p.rate_at(q0, geom)
    values = p._fast_rates(q0, geom, _GRID)
    top = values.max()
    tol = SCAN_MARGIN * max(top, -values.min())  # of max|value|, NaN if a value is
    if not min(top, abs(values[1:] - values[:-1]).min()) > tol or (values >= top - tol).sum() > 1:
        values = np.fromiter(map(productivity, _GRID.tolist()), float)
    if (values <= 0).all():
        raise NoAdmissibleSetpointError(
            f"no positive productivity for q0={q0} in [{X_MIN}, {X_MAX}]"
        )

    inner = values[1:-1]
    interior_maxima = ((inner >= values[:-2]) & (inner > values[2:])).nonzero()[0] + 1
    if len(interior_maxima) > 1:
        xs = ", ".join(f"{_GRID[i]:.4g}" for i in interior_maxima)
        raise NotUnimodalError(
            f"productivity scan at q0={q0} has maxima near X in {{{xs}}}; "
            "refusing to pick one"
        )

    best = int(values.argmax())  # first index on ties: smallest X
    lo = float(_GRID[max(best - 1, 0)])
    hi = float(_GRID[min(best + 1, GRID_POINTS - 1)])
    x_star = _golden_max(productivity, lo, hi, X_TOL)
    prod = productivity(x_star)
    if not 0 < prod < math.inf:
        raise NoAdmissibleSetpointError(f"refined productivity {prod} at q0={q0} not in (0, inf)")
    if not X_MIN + X_TOL < x_star < X_MAX - X_TOL:
        edge = X_MAX if x_star > X_MIN + X_TOL else X_MIN
        raise NoAdmissibleSetpointError(
            f"productivity at q0={q0} peaks at the bracket's edge X={edge} of "
            f"[{X_MIN}, {X_MAX}]: the optimum may lie beyond it"
        )
    return OperatingPoint(q0=q0, x_star=x_star, d_star=prod / x_star, productivity=prod)


def setpoint_map(
    q0_values: Sequence[float],
    p: FullModelParams | SimplifiedModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
) -> list[OperatingPoint]:
    """Optimal operating points over a grid of light levels.

    The optimal setpoint is expected to rise with available light; a
    non-monotone map is reported as a warning (it usually means the model
    constants were overridden into odd territory).
    """
    points = [optimal_setpoint(q0, p, geom) for q0 in q0_values]
    for prev, op in zip(points, points[1:]):
        if op.q0 > prev.q0 and op.x_star < prev.x_star - X_TOL:
            msg = f"setpoint map not monotone: x*({op.q0:.6g}) < x*({prev.q0:.6g})"
            warnings.warn(msg, stacklevel=2)
    return points
