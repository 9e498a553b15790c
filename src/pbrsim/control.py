"""Dilution-rate controllers: model-based and model-free.

Both controllers run at a fixed sampling period, read the noisy biomass
measurement, and must respect the actuator range of the feed pump.

The model-based law cancels the growth term predicted by the lumped Haldane
model and imposes a first-order decay of the tracking error.

The model-free law treats the plant locally as y' = F + a * u, with F an
unknown lump re-estimated online from a sliding window of recent data, and
a a fixed gain chosen so that a * u matches the scale of y'.  Dilution
removes biomass, so the default gain is negative.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .kinetics import SimplifiedModelParams, growth_rate_simplified
from .radiative import Geometry

__all__ = [
    "ActuatorBounds",
    "FlConfig",
    "IpConfig",
    "EstimationWindow",
    "EstimatorNotReady",
    "saturate",
    "fl_control",
    "ip_control",
    "estimate_F_open",
    "estimate_F_closed",
    "FlController",
    "IpController",
]


@dataclass(frozen=True)
class ActuatorBounds:
    """Admissible dilution-rate range of the feed pump, 1/h."""

    d_min: float = 0.0
    d_max: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.d_min < self.d_max:
            raise ValueError(f"need 0 <= d_min < d_max, got [{self.d_min}, {self.d_max}]")


def saturate(u: float, bounds: ActuatorBounds = ActuatorBounds()) -> float:
    """Clip a raw command into the actuator range."""
    return min(max(u, bounds.d_min), bounds.d_max)


@dataclass
class FlConfig:
    """Feedback-linearizing controller settings."""

    lam: float = 1.0  # imposed error decay rate, 1/h
    sp: SimplifiedModelParams = field(default_factory=SimplifiedModelParams)
    x_floor: float = 1e-4  # division guard on the measurement, kg/m3

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.x_floor <= 0:
            raise ValueError("x_floor must be positive")


@dataclass
class IpConfig:
    """Intelligent-proportional controller settings."""

    a: float = -0.2  # assumed input gain of y' = F + a*u; dilution removes biomass
    k_p: float = 5.0  # proportional gain on the tracking error
    tau_h: float = 1.5  # estimation window length, h (15 sampling periods)
    estimator: str = "open"  # "open": from (u, y) data; "closed": reference form
    warmup: str = "zero_f"  # act with F=0, or "hold_min": pump at d_min until ready
    record_raw_control: bool = False  # log pre-saturation commands in the window

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if self.k_p <= 0:
            raise ValueError("k_p must be positive")
        if self.tau_h <= 0:
            raise ValueError("tau_h must be positive")
        if self.estimator not in ("open", "closed"):
            raise ValueError(f"unknown estimator variant: {self.estimator!r}")
        if self.warmup not in ("zero_f", "hold_min"):
            raise ValueError(f"unknown warmup policy: {self.warmup!r}")


def fl_control(
    y_meas: float,
    y_r: float,
    q0: float,
    cfg: FlConfig,
    geom: Geometry = Geometry(),
) -> float:
    """Raw dilution command that cancels the modeled growth at the measurement.

    With the model exact and no noise this makes the tracking error decay as
    exp(-lam * t).  The division by the measurement is guarded from below so
    a near-zero sample cannot produce an unbounded command.
    """
    if y_meas < 0:
        raise ValueError(f"y_meas must be nonnegative, got {y_meas}")
    r_hat = growth_rate_simplified(y_meas, q0, cfg.sp, geom)
    return (r_hat + cfg.lam * (y_meas - y_r)) / max(y_meas, cfg.x_floor)


def ip_control(f_est: float, ydot_r: float, e: float, cfg: IpConfig) -> float:
    """Raw command u = -(F_est - ydot_r + k_p * e) / a."""
    return -(f_est - ydot_r + cfg.k_p * e) / cfg.a


class EstimatorNotReady(RuntimeError):
    """The sliding window does not yet span the estimation horizon."""


class EstimationWindow:
    """Ring buffer of (t, u, y, e, ydot_r) samples for the F estimators.

    Capacity is in samples; with n samples the window spans (n-1) sampling
    periods, so spanning a horizon tau takes round(tau / T_s) + 1 samples.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2 samples")
        self.capacity = capacity
        self._samples: deque[tuple[float, float, float, float, float]] = deque(
            maxlen=capacity
        )

    def push(self, t: float, u: float, y: float, e: float, ydot_r: float) -> None:
        self._samples.append((t, u, y, e, ydot_r))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def full(self) -> bool:
        return len(self._samples) == self.capacity

    def arrays(self) -> tuple[np.ndarray, ...]:
        data = np.asarray(self._samples, dtype=float)
        return data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4]


def _segments(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = sigma[:-1]
    h = np.diff(sigma)
    return p, sigma[1:], h


def estimate_F_open(window: EstimationWindow, a: float) -> float:
    """Window estimate of F from input/output data alone.

    Continuous form: F = -(6 / T^3) * int_0^T [(T - 2s) * y(s)
    + a * s * (T - s) * u(s)] ds, with s measured from the oldest sample.
    The integral is evaluated exactly for y piecewise linear between samples
    and u held constant over each sampling interval (two-point Gauss rule,
    exact for the cubic integrand pieces), so a noise-free linear y with
    constant u is recovered to rounding error.
    """
    if not window.full:
        raise EstimatorNotReady("window not full")
    t, u, y, _, _ = window.arrays()
    sigma = t - t[0]
    T = sigma[-1]
    p, q, h = _segments(sigma)
    mid = 0.5 * (p + q)
    half = h / (2.0 * math.sqrt(3.0))
    lo, hi = mid - half, mid + half
    slope = (y[1:] - y[:-1]) / h
    y_lo = y[:-1] + (lo - p) * slope
    y_hi = y[:-1] + (hi - p) * slope
    int_y = np.sum(0.5 * h * ((T - 2.0 * lo) * y_lo + (T - 2.0 * hi) * y_hi))
    int_u = np.sum(0.5 * h * (lo * (T - lo) + hi * (T - hi)) * u[:-1])
    return float(-6.0 / T**3 * (int_y + a * int_u))


def estimate_F_closed(window: EstimationWindow, a: float, k_p: float) -> float:
    """Window estimate of F from the reference-side signals.

    Continuous form: F = (1 / T) * int_0^T [ydot_r(s) - a * u(s)
    - k_p * e(s)] ds.  The reference and error terms are integrated by the
    trapezoidal rule (exact for piecewise-linear signals) and the held input
    exactly.  Valid when the loop keeps e' close to -k_p * e; during long
    actuator saturation stretches the premise fails and the estimate drifts
    toward -k_p * <e> instead of F.
    """
    if not window.full:
        raise EstimatorNotReady("window not full")
    t, u, _, e, ydot_r = window.arrays()
    sigma = t - t[0]
    T = sigma[-1]
    _, _, h = _segments(sigma)
    s = ydot_r - k_p * e
    int_s = np.sum(0.5 * h * (s[:-1] + s[1:]))
    int_u = np.sum(h * u[:-1])
    return float((int_s - a * int_u) / T)


def _check_clock(last_t: float | None, t: float) -> float:
    """Return t as the new last sample time; the clock must strictly increase."""
    if last_t is not None and t <= last_t:
        raise ValueError(f"non-monotone controller clock: {t} after {last_t}")
    return t


class FlController:
    """Sampled feedback-linearizing controller with actuator saturation."""

    def __init__(
        self,
        config: FlConfig,
        bounds: ActuatorBounds = ActuatorBounds(),
        geom: Geometry = Geometry(),
    ) -> None:
        self.config = config
        self.bounds = bounds
        self.geom = geom
        self.f_estimate: float | None = None  # uniform trace interface
        self._last_t: float | None = None

    def step(self, t: float, y_meas: float, y_r: float, ydot_r: float, q0: float) -> float:
        """Return the applied dilution rate for this sampling instant."""
        self._last_t = _check_clock(self._last_t, t)
        u_raw = fl_control(y_meas, y_r, q0, self.config, self.geom)
        return saturate(u_raw, self.bounds)


class IpController:
    """Sampled intelligent-proportional controller with online F estimation.

    Until the window first fills, the controller either acts with F = 0 or
    holds the pump at d_min, per the configured warmup policy.  The applied
    (saturated) command is what enters the window: that is the input the
    plant actually saw, and during saturation it is the only signal that
    carries fresh information into the closed-form estimate.
    """

    def __init__(
        self,
        config: IpConfig,
        bounds: ActuatorBounds = ActuatorBounds(),
        period_h: float = 0.1,
    ) -> None:
        if period_h <= 0:
            raise ValueError("period_h must be positive")
        self.config = config
        self.bounds = bounds
        try:
            self.window = EstimationWindow(round(config.tau_h / period_h) + 1)
        except OverflowError as exc:
            raise ValueError(f"tau_h={config.tau_h} h makes a window too long to count") from exc
        self.f_estimate = 0.0
        self._last_t: float | None = None

    def step(
        self, t: float, y_meas: float, y_r: float, ydot_r: float, q0: float = 0.0
    ) -> float:
        """Return the applied dilution rate for this sampling instant."""
        self._last_t = _check_clock(self._last_t, t)
        e = y_meas - y_r
        cfg = self.config
        if self.window.full:
            if cfg.estimator == "open":
                f_est = estimate_F_open(self.window, cfg.a)
            else:
                f_est = estimate_F_closed(self.window, cfg.a, cfg.k_p)
        else:
            f_est = 0.0

        u_raw: float | None = None
        if not self.window.full and cfg.warmup == "hold_min":
            applied = self.bounds.d_min
        else:
            u_raw = ip_control(f_est, ydot_r, e, cfg)
            applied = saturate(u_raw, self.bounds)

        recorded = u_raw if (cfg.record_raw_control and u_raw is not None) else applied
        self.window.push(t, recorded, y_meas, e, ydot_r)
        self.f_estimate = f_est
        return applied
