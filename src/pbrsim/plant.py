"""Continuous plant, light schedules, and the measurement channel.

The reactor is a chemostat in biomass: dX/dt = r_X(X, q0) - D * X, where the
dilution rate D is the single manipulated input.  Integration uses a fixed
step Runge-Kutta 4 scheme with the control held constant over the sampling
period (zero-order hold) while the light schedule is evaluated at the actual
stage times, so intra-sample light changes are seen by the integrator.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import isfinite, pi, sin

import numpy as np

from .kinetics import FullModelParams, SimplifiedModelParams, growth_rate
from .radiative import Geometry

__all__ = [
    "PiecewiseConstant",
    "DayNightLight",
    "LightProfile",
    "LIGHT_STEP_PROFILE",
    "NoiseConfig",
    "SamplingConfig",
    "PlantState",
    "IntegrationError",
    "light_at",
    "plant_derivative",
    "step",
    "measure",
]


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function of time, used for light schedules and references; a
    constant is a one-point schedule.

    Each entry is (start_time_h, value).  A new value takes effect strictly
    after its start time, so the sample taken exactly at a switch still sees
    the previous value.
    """

    points: tuple[tuple[float, float], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(v)) for t, v in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("points must be non-empty")
        if pts[0][0] != 0.0:
            raise ValueError("first point must start at t = 0")
        starts = tuple(t for t, _ in pts)
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("start times must be strictly increasing")
        if any(v <= 0 for _, v in pts):
            raise ValueError("values must be positive")
        object.__setattr__(self, "_starts", starts)

    def __call__(self, t: float) -> float:
        idx = bisect_left(self._starts, t)  # first point starting at or after t
        return self.points[max(idx - 1, 0)][1]

    @property
    def value_range(self) -> tuple[float, float]:
        values = [v for _, v in self.points]
        return min(values), max(values)


@dataclass(frozen=True)
class DayNightLight:
    """Half-sine daylight over a fraction of the period, floor at night."""

    period_h: float = 24.0
    floor: float = 100.0  # umol/m2/s
    peak: float = 600.0  # umol/m2/s
    day_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.period_h <= 0:
            raise ValueError("period_h must be positive")
        if not 0 < self.day_fraction <= 1:
            raise ValueError("day_fraction must lie in (0, 1]")
        if self.floor <= 0 or self.peak < self.floor:
            raise ValueError("need 0 < floor <= peak")

    def __call__(self, t: float) -> float:
        phase = (t % self.period_h) / self.period_h
        if phase >= self.day_fraction:
            return self.floor
        lift = sin(pi * phase / self.day_fraction)
        return self.floor + (self.peak - self.floor) * max(lift, 0.0)

    @property
    def value_range(self) -> tuple[float, float]:
        return self.floor, self.peak


LightProfile = PiecewiseConstant | DayNightLight

# Benchmark schedule: strong light, then a step down to dim light at 30 h.
LIGHT_STEP_PROFILE = PiecewiseConstant(((0.0, 600.0), (30.0, 100.0)))


def light_at(t: float, profile: LightProfile) -> float:
    """Incident photon flux q0 at time t (hours)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return profile(t)


@dataclass(frozen=True)
class NoiseConfig:
    """Multiplicative Gaussian measurement noise."""

    relative_std: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.relative_std < 0:
            raise ValueError("relative_std must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SamplingConfig:
    """Controller sampling period and integrator resolution."""

    period_h: float = 0.1  # 6 min
    substeps: int = 10  # RK4 steps per sampling period

    def __post_init__(self) -> None:
        if self.period_h <= 0:
            raise ValueError("period_h must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


@dataclass(frozen=True)
class PlantState:
    X: float  # biomass concentration, kg/m3
    t: float  # time, h


class IntegrationError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""

    def __init__(self, message: str, *, t: float, X: float, D: float) -> None:
        super().__init__(f"{message} (t={t:.6g} h, X={X:.6g}, D={D:.6g})")
        self.t = t
        self.X = X
        self.D = D


def plant_derivative(
    X: float,
    D: float,
    q0: float,
    params: FullModelParams | SimplifiedModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
    n_nodes: int = 101,
) -> float:
    """dX/dt in kg/m3/h at dilution rate D (1/h)."""
    if D < 0:
        raise ValueError(f"D must be nonnegative, got {D}")
    return growth_rate(X, q0, params, geom, n_nodes) - D * X


def step(
    state: PlantState,
    D: float,
    profile: LightProfile,
    dt: float,
    params: FullModelParams | SimplifiedModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
    substeps: int = 10,
    n_nodes: int = 101,
) -> PlantState:
    """Advance the plant by dt hours under constant D (zero-order hold).

    Biomass is clamped at zero from below: the vessel cannot hold negative
    concentration, and RK4 stage excursions below zero are cut the same way.
    Raises IntegrationError if the state stops being finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    h = dt / substeps
    X = state.X

    def f(x: float, t: float) -> float:
        q0 = light_at(t, profile)
        return plant_derivative(max(x, 0.0), D, q0, params, geom, n_nodes)

    for i in range(substeps):
        t0 = state.t + i * h
        k1 = f(X, t0)
        k2 = f(X + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = f(X + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = f(X + h * k3, t0 + h)
        X = X + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not isfinite(X):
            raise IntegrationError("state became non-finite", t=t0 + h, X=X, D=D)
        X = max(X, 0.0)
    return PlantState(X=X, t=state.t + dt)


def measure(X: float, noise: NoiseConfig, rng: np.random.Generator) -> float:
    """Noisy biomass measurement y = X * (1 + nu), clamped at zero."""
    nu = rng.normal(0.0, noise.relative_std)
    return max(X * (1.0 + nu), 0.0)
