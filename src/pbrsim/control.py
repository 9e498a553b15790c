"""Dilution-rate controllers: model-based and model-free.

Both controllers answer step(t, y_meas, y_r, q0) at a fixed sampling period,
read the noisy biomass measurement, and must respect the feed pump's range.

The model-based law cancels the growth term predicted by the lumped Haldane
model and imposes a first-order decay of the tracking error.

The model-free law treats the plant locally as y' = F + a * u, with F an
unknown lump re-estimated online from a sliding window of recent data, and
a a fixed gain chosen so that a * u matches the scale of y'.  Dilution
removes biomass, so the default gain is negative.  The paper's law also adds
the reference derivative, which is zero here: every reference is held between
samples.  Only the model-based law reads q0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .kinetics import SimplifiedModelParams, growth_rate_simplified
from .radiative import Geometry

__all__ = [
    "ActuatorBounds",
    "FlConfig",
    "IpConfig",
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


X_FLOOR = 1e-4  # FL division guard on the measurement, kg/m3


@dataclass
class FlConfig:
    """Feedback-linearizing controller settings."""

    lam: float = 1.0  # imposed error decay rate, 1/h
    sp: SimplifiedModelParams = field(default_factory=SimplifiedModelParams)

    def __post_init__(self) -> None:
        if not self.lam > 0:  # NaN fails it too
            raise ValueError("lam must be positive")

    def build(self, bounds: ActuatorBounds, geom: Geometry, period_h: float) -> "FlController":
        """A fresh controller with these settings; period_h is unused."""
        return FlController(self, bounds, geom)

    def with_model_rate(self, mu_0: float) -> "FlConfig":
        """A copy whose internal model has rate scale mu_0 (1/h)."""
        return replace(self, sp=replace(self.sp, mu_0=mu_0))


@dataclass
class IpConfig:
    """Intelligent-proportional controller settings."""

    a: float = -0.2  # assumed input gain of y' = F + a*u; dilution removes biomass
    k_p: float = 5.0  # proportional gain on the tracking error
    tau_h: float = 1.5  # estimation window length, h (15 sampling periods)
    estimator: str = "open"  # "open": from (u, y) data; "closed": reference form

    def __post_init__(self) -> None:
        if not abs(self.a) > 0:  # NaN fails it too
            raise ValueError("a must be nonzero")
        if not self.k_p > 0:
            raise ValueError("k_p must be positive")
        if not self.tau_h > 0:
            raise ValueError("tau_h must be positive")
        if self.estimator not in ("open", "closed"):
            raise ValueError(f"unknown estimator variant: {self.estimator!r}")

    def build(self, bounds: ActuatorBounds, geom: Geometry, period_h: float) -> "IpController":
        """A fresh controller with these settings; geom is unused."""
        return IpController(self, bounds, period_h)

    def with_model_rate(self, mu_0: float) -> "IpConfig":
        """A copy: the model-free law has no model rate to perturb."""
        return replace(self)


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
    return (r_hat + cfg.lam * (y_meas - y_r)) / max(y_meas, X_FLOOR)


def ip_control(f_est: float, e: float, cfg: IpConfig) -> float:
    """Raw command u = -(F_est + k_p * e) / a."""
    return -(f_est + cfg.k_p * e) / cfg.a


def _elapsed(t: np.ndarray, *signals: np.ndarray) -> np.ndarray:
    """Sample times from the oldest; at least 2, one per signal value."""
    lengths = [len(x) for x in (t, *signals)]
    if lengths[0] < 2 or len(set(lengths)) > 1:
        raise ValueError(f"need 2 or more samples of equal length, got lengths {lengths}")
    return t - t[0]


def estimate_F_open(t: np.ndarray, u: np.ndarray, y: np.ndarray, a: float) -> float:
    """Window estimate of F from input/output data alone.

    Continuous form: F = -(6 / T^3) * int_0^T [(T - 2s) * y(s)
    + a * s * (T - s) * u(s)] ds, with s measured from the oldest sample.
    The integral is evaluated exactly for y piecewise linear between samples
    and u held constant over each sampling interval (two-point Gauss rule,
    exact for the cubic integrand pieces), so a noise-free linear y with
    constant u is recovered to rounding error.
    """
    sigma = _elapsed(t, u, y)
    T = sigma[-1]
    p, q = sigma[:-1], sigma[1:]
    h = q - p
    mid = 0.5 * (p + q)
    half = h / (2.0 * math.sqrt(3.0))
    lo, hi = mid - half, mid + half
    y0 = y[:-1]
    slope = (y[1:] - y0) / h
    y_lo = y0 + (lo - p) * slope
    y_hi = y0 + (hi - p) * slope
    # np.add.reduce is np.sum's own pairwise reduction, without its wrapper.
    int_y = np.add.reduce(0.5 * h * ((T - 2.0 * lo) * y_lo + (T - 2.0 * hi) * y_hi))
    int_u = np.add.reduce(0.5 * h * (lo * (T - lo) + hi * (T - hi)) * u[:-1])
    return float(-6.0 / T**3 * (int_y + a * int_u))


def estimate_F_closed(t: np.ndarray, u: np.ndarray, e: np.ndarray, a: float, k_p: float) -> float:
    """Window estimate of F from the reference-side signals.

    Continuous form: F = -(1 / T) * int_0^T [a * u(s) + k_p * e(s)] ds (no
    reference derivative: see the module docstring).  The error term is
    integrated by the trapezoidal rule (exact for piecewise-linear signals)
    and the held input exactly.  Valid when the loop keeps e' close to
    -k_p * e; during long actuator saturation stretches the premise fails and
    the estimate drifts toward -k_p * <e> instead of F.
    """
    sigma = _elapsed(t, u, e)
    T = sigma[-1]
    h = sigma[1:] - sigma[:-1]
    s = 0.0 - k_p * e  # 0.0 - keeps a zero error +0.0
    int_s = np.add.reduce(0.5 * h * (s[:-1] + s[1:]))
    int_u = np.add.reduce(h * u[:-1])
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
        self.f_estimate = math.nan  # FL has no estimate; NaN in the trace
        self._last_t: float | None = None

    def step(self, t: float, y_meas: float, y_r: float, q0: float) -> float:
        """Return the applied dilution rate for this sampling instant."""
        self._last_t = _check_clock(self._last_t, t)
        u_raw = fl_control(y_meas, y_r, q0, self.config, self.geom)
        return saturate(u_raw, self.bounds)


class IpController:
    """Sampled intelligent-proportional controller with online F estimation.

    Its window, rows, holds the last round(tau_h / period_h) + 1 samples
    (t, u, y, e), spanning tau_h; until it first fills, F = 0.  The applied
    (saturated) command enters the window: it is the input the plant saw, and
    during saturation the only fresh information for the closed-form estimate.
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
            n = round(config.tau_h / period_h) + 1
            self.rows: deque[tuple[float, float, float, float]] = deque(maxlen=n)
        except OverflowError as exc:
            raise ValueError(f"tau_h={config.tau_h} h makes a window too long to count") from exc
        if n < 2:
            raise ValueError(f"tau_h={config.tau_h} h spans under 2 samples of {period_h} h")
        self.f_estimate = 0.0
        self._last_t: float | None = None

    def step(self, t: float, y_meas: float, y_r: float, q0: float) -> float:
        """Return the applied dilution rate for this sampling instant."""
        self._last_t = _check_clock(self._last_t, t)
        e = y_meas - y_r
        cfg = self.config
        if len(self.rows) == self.rows.maxlen:
            ts, us, ys, es = np.asarray(self.rows, dtype=float).T
            if cfg.estimator == "open":
                f_est = estimate_F_open(ts, us, ys, cfg.a)
            else:
                f_est = estimate_F_closed(ts, us, es, cfg.a, cfg.k_p)
        else:
            f_est = 0.0
        applied = saturate(ip_control(f_est, e, cfg), self.bounds)
        self.rows.append((t, applied, y_meas, e))
        self.f_estimate = f_est
        return applied
