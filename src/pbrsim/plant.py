"""Continuous plant, light schedules, and the measurement channel.

The reactor is a chemostat in biomass: dX/dt = r_X(X, q0) - D * X, where the
dilution rate D is the single manipulated input.  Integration uses a fixed
step Runge-Kutta 4 scheme with the control held constant over the sampling
period (zero-order hold) while the light schedule is evaluated at the actual
stage times, so intra-sample light changes are seen by the integrator.  The
model's rate is bound once per distinct stage time, a substep's start sharing
the previous substep's end, or once per period for a light that holds its
value over it (profile.held_until), as a day/night light does through the night.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf, isfinite, nextafter, pi, sin
from typing import ClassVar

from .kinetics import FullModelParams, SimplifiedModelParams
from .radiative import POSITIVE, Geometry, _shown, check_ranges

# plant_derivative stays public but unexported: the reference right-hand side that tests compare
# against and perfbench's tracer labels, until ROADMAP items 2 and 11 move it out.
__all__ = [
    "PiecewiseConstant", "DayNightLight", "LightProfile", "LIGHT_STEP_PROFILE", "NoiseConfig",
    "SamplingConfig", "IntegrationError", "light_at", "step", "measure",
]


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function of time, used for light schedules and references; a
    constant is a one-point schedule.

    Each entry is (start_time_h, value).  A new value takes effect strictly
    after its start time, so the sample taken exactly at a switch still sees
    the previous value.  Called as a reference, ref(t, q0), it ignores q0.
    Values must be positive and start times strictly increasing, not NaN:
    the lookups bisect them.
    """

    q0_range: ClassVar[tuple[float, float]] = (0.0, inf)  # light it serves as a reference at
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
        if any(not b > a for a, b in zip(starts, starts[1:])):
            raise ValueError("start times must be strictly increasing")
        if any(not v > 0 for _, v in pts):
            raise ValueError("values must be positive")
        object.__setattr__(self, "_starts", starts)

    def __call__(self, t: float, q0: float = 0.0) -> float:
        idx = bisect_left(self._starts, t)  # first point starting at or after t
        return self.points[max(idx - 1, 0)][1]

    def held_until(self, t: float) -> float:
        """Latest time T with self(tau) == self(t) for every tau in [t, T]."""
        j = max(bisect_left(self._starts, t), 1)
        return self._starts[j] if j < len(self._starts) else inf

    @property
    def value_range(self) -> tuple[float, float]:
        values = [v for _, v in self.points]
        return min(values), max(values)


@dataclass(frozen=True)
class DayNightLight:
    """Half-sine daylight over a fraction of the period, floor at night."""

    ranges = {"period_h": POSITIVE, "floor": POSITIVE, "day_fraction": ("(", 0.0, 1.0, "]")}
    period_h: float = 24.0
    floor: float = 100.0  # umol/m2/s
    peak: float = 600.0  # umol/m2/s
    day_fraction: float = 0.5

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.peak >= self.floor:
            raise ValueError("need 0 < floor <= peak")

    def __call__(self, t: float) -> float:
        phase = (t % self.period_h) / self.period_h
        if phase >= self.day_fraction:
            return self.floor
        lift = sin(pi * phase / self.day_fraction)
        return self.floor + (self.peak - self.floor) * max(lift, 0.0)

    def held_until(self, t: float) -> float:
        """By night, the dawn k * period_h ending t's period, or the float before it if
        the light has risen there; by day, t.  Floor holds on [t, T]: t's night lasts to the
        dawn, and T is the float nearest it or, past 2**51 periods, at most the float after t."""
        P = self.period_h
        if (t % P) / P < self.day_fraction:
            return t
        end = (t // P + 1) * P
        for T in (end, nextafter(end, t)):
            if 0.0 <= T - t < P and self(T) == self.floor:
                return T
        return t

    @property
    def value_range(self) -> tuple[float, float]:
        return self.floor, self.peak


LightProfile = PiecewiseConstant | DayNightLight

# Benchmark schedule: strong light, then a step down to dim light at 30 h.
LIGHT_STEP_PROFILE = PiecewiseConstant(((0.0, 600.0), (30.0, 100.0)))


def light_at(t: float, profile: LightProfile) -> float:
    """Incident photon flux q0 at time t (hours)."""
    if not 0 <= t < inf:  # NaN fails it too
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return profile(t)


@dataclass(frozen=True)
class NoiseConfig:
    """Multiplicative Gaussian measurement noise."""

    ranges = {"relative_std": ("[", 0.0, inf, ")"), "seed": ("[", 0, inf, ")")}
    relative_std: float = 0.01
    seed: int = 0

    __post_init__ = check_ranges


@dataclass(frozen=True)
class SamplingConfig:
    """Controller sampling period and integrator resolution."""

    ranges = {"period_h": POSITIVE, "substeps": ("[", 1, inf, ")")}
    period_h: float = 0.1  # 6 min
    substeps: int = 10  # RK4 steps per sampling period

    __post_init__ = check_ranges


CLOCK_TOL = 1e-9  # slack on the sampling clock, as a fraction of period_h


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
) -> float:
    """dX/dt in kg/m3/h at dilution rate D (1/h): the reference for step's stages."""
    if D < 0:
        raise ValueError(f"D must be nonnegative, got {D}")
    if not X >= 0:  # NaN fails it too
        raise ValueError(f"X must be nonnegative, got {X}")
    return params.rate_at(q0, geom)(X) - D * X


def step(
    X: float,
    t: float,
    D: float,
    profile: LightProfile,
    dt: float,
    params: FullModelParams | SimplifiedModelParams = FullModelParams(),
    geom: Geometry = Geometry(),
    substeps: int = SamplingConfig.substeps,
) -> float:
    """Biomass X after dt hours from time t under constant D (zero-order hold).

    params.rate_at binds the light once per distinct stage time (a substep's
    start equal to the previous substep's end bit for bit shares that bind), or
    once, at t, when the profile holds its value up to the last stage time
    (held_until).  light_at checks t, and a last stage time that is not finite.
    Biomass is clamped at zero from below: the vessel cannot hold negative
    concentration, and RK4 stage excursions below zero are cut the same way.
    Raises ValueError for a bad t, dt (not positive and finite), substeps or D
    before any stage runs, and IntegrationError for a non-finite D (before any
    stage) or if the state stops being finite.
    """
    if not 0 < dt < inf:  # NaN fails it too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (type(substeps) is int and substeps >= 1):  # True fails it too
        raise ValueError(f"substeps must be an integer >= 1, got {_shown(substeps)}")
    if not isfinite(D):
        raise IntegrationError("dilution command is not finite", t=t, X=X, D=D)
    if D < 0:
        raise ValueError(f"D must be nonnegative, got {D}")
    h = dt / substeps
    # Every stage time lies in [t, t_last]: a light held that long gives each stage
    # t's q0, and if light_at takes t, it refuses a stage time only if t_last is inf or NaN.
    t_last = (t + (substeps - 1) * h) + h
    held = t_last <= profile.held_until(t)
    q0 = light_at(t, profile)
    if not (held or t_last < inf):
        light_at(t_last, profile)  # raises
    rate_at, tau = params.rate_at, t
    r0 = r_mid = r1 = rate_at(q0, geom)

    half, sixth = 0.5 * h, h / 6.0
    # Each stage clamps its X at zero before the rate sees it, k1's too (an
    # entering X may be negative or NaN).  A NaN stage X becomes 0.0 rather
    # than reach the rate: the NaN it came from makes the new X NaN, which raises below.
    for i in range(substeps):
        if not held:  # r1 is bound at tau, the previous substep's last stage time
            t0 = t + i * h
            r0 = r1 if t0 == tau else rate_at(profile(t0), geom)
            r_mid = rate_at(profile(t0 + half), geom)
            tau = t0 + h
            r1 = rate_at(profile(tau), geom)
        x = X if X >= 0.0 else 0.0
        k1 = r0(x) - D * x
        x = X + half * k1
        x = x if x >= 0.0 else 0.0
        k2 = r_mid(x) - D * x
        x = X + half * k2
        x = x if x >= 0.0 else 0.0
        k3 = r_mid(x) - D * x
        x = X + h * k3
        x = x if x >= 0.0 else 0.0
        k4 = r1(x) - D * x
        X = X + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not isfinite(X):
            raise IntegrationError("state became non-finite", t=(t + i * h) + h, X=X, D=D)
        X = X if X >= 0.0 else 0.0
    return X


def measure(X: float, nu: float) -> float:
    """Noisy biomass measurement y = X * (1 + nu), clamped at +0.0 (so X = 0 reads +0.0),
    for nu a draw of rng.normal(0.0, NoiseConfig.relative_std)."""
    y = X * (1.0 + nu)
    return y if y > 0.0 else 0.0
