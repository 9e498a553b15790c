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

The window estimators take any strictly increasing sample times.  The
controller samples on a uniform clock, on which each estimator is linear in
the window's samples with fixed weights, so a step computes F as two
weighted sums (an FIR filter) instead of calling an estimator.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .kinetics import SimplifiedModelParams, growth_rate_simplified
from .plant import CLOCK_TOL, SamplingConfig
from .radiative import POSITIVE, Geometry, _shown, check_ranges

# estimate_F_open and estimate_F_closed stay public but unexported: reference forms that tests
# compare against and perfbench's tracer labels, until ROADMAP items 2 and 11 move them out.
__all__ = ["ActuatorBounds", "FlConfig", "IpConfig", "saturate", "FlController", "IpController"]


@dataclass(frozen=True)
class ActuatorBounds:
    """Admissible dilution-rate range of the feed pump, 1/h."""

    ranges = {"d_min": ("[", 0.0, math.inf, ")")}
    d_min: float = 0.0
    d_max: float = 0.5

    def __post_init__(self) -> None:
        check_ranges(self)
        if not self.d_min < self.d_max:
            raise ValueError(f"need 0 <= d_min < d_max, got [{self.d_min}, {self.d_max}]")


def saturate(u: float, bounds: ActuatorBounds = ActuatorBounds()) -> float:
    """Clip a raw command into the actuator range."""
    return min(max(u, bounds.d_min), bounds.d_max)


X_FLOOR = 1e-4  # FL division guard on the measurement, kg/m3


@dataclass(frozen=True)
class FlConfig:
    """Feedback-linearizing controller settings."""

    ranges = {"lam": POSITIVE}
    lam: float = 1.0  # imposed error decay rate, 1/h
    sp: SimplifiedModelParams = SimplifiedModelParams()

    __post_init__ = check_ranges

    def build(self, bounds: ActuatorBounds, geom: Geometry, period_h: float) -> "FlController":
        """A fresh controller with these settings; period_h is unused."""
        return FlController(self, bounds, geom)

    def with_model_rate(self, mu_0: float) -> "FlConfig":
        """A copy whose internal model has rate scale mu_0 (1/h)."""
        return replace(self, sp=replace(self.sp, mu_0=mu_0))


@dataclass(frozen=True)
class IpConfig:
    """Intelligent-proportional controller settings."""

    ranges = {"k_p": POSITIVE, "tau_h": POSITIVE}
    a: float = -0.2  # assumed input gain of y' = F + a*u; dilution removes biomass
    k_p: float = 5.0  # proportional gain on the tracking error
    tau_h: float = 1.5  # estimation window length, h (15 sampling periods)
    estimator: str = "open"  # "open": from (u, y) data; "closed": reference form

    def __post_init__(self) -> None:
        check_ranges(self)
        if not abs(self.a) > 0:  # NaN fails it too
            raise ValueError("a must be nonzero")
        if self.estimator not in ("open", "closed"):
            raise ValueError(f"unknown estimator variant: {_shown(self.estimator)}")

    def build(self, bounds: ActuatorBounds, geom: Geometry, period_h: float) -> "IpController":
        """A fresh controller with these settings; geom is unused."""
        return IpController(self, bounds, period_h)

    def with_model_rate(self, mu_0: float) -> "IpConfig":
        """Itself: the model-free law has no model rate to perturb."""
        return self


def _elapsed(t: np.ndarray, *signals: np.ndarray) -> np.ndarray:
    """Sample times from the oldest; at least 2, one per signal value."""
    lengths = [len(x) for x in (t, *signals)]
    if lengths[0] < 2 or len(set(lengths)) > 1:
        raise ValueError(f"need 2 or more samples of equal length, got lengths {lengths}")
    return t - t[0]


def _open_terms(sigma: np.ndarray, y0, y1, u0) -> tuple[np.ndarray, np.ndarray]:
    """estimate_F_open's per-interval integrals of y and of u, before -6/T^3;
    y0, y1 and u0 are each interval's end values and held u, arrays or floats."""
    T = sigma[-1]
    p, q = sigma[:-1], sigma[1:]
    h = q - p
    mid = 0.5 * (p + q)
    half = h / (2.0 * math.sqrt(3.0))
    lo, hi = mid - half, mid + half
    slope = (y1 - y0) / h
    y_lo = y0 + (lo - p) * slope
    y_hi = y0 + (hi - p) * slope
    return (
        0.5 * h * ((T - 2.0 * lo) * y_lo + (T - 2.0 * hi) * y_hi),
        0.5 * h * (lo * (T - lo) + hi * (T - hi)) * u0,
    )


def _closed_terms(sigma: np.ndarray, s0, s1, u0) -> tuple[np.ndarray, np.ndarray]:
    """estimate_F_closed's per-interval integrals: the trapezoid on s, held u."""
    h = sigma[1:] - sigma[:-1]
    return 0.5 * h * (s0 + s1), h * u0


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
    int_y, int_u = map(np.sum, _open_terms(sigma, y[:-1], y[1:], u[:-1]))
    return float(-6.0 / sigma[-1] ** 3 * (int_y + a * int_u))


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
    s = 0.0 - k_p * e  # 0.0 - keeps a zero error +0.0
    int_s, int_u = map(np.sum, _closed_terms(sigma, s[:-1], s[1:], u[:-1]))
    return float((int_s - a * int_u) / sigma[-1])


def _window_weights(terms, sigma: np.ndarray, c_x: float, c_u: float) -> tuple[list, list]:
    """The weights on (x, u) at times sigma of a terms function times (c_x, c_u).

    The terms are linear in (x0, x1, u0), so at unit samples they give each
    interval's weights on its two ends; the last u has weight 0.
    """
    x_start, u_start = terms(sigma, 1.0, 0.0, 1.0)
    x_end, _ = terms(sigma, 0.0, 1.0, 0.0)
    w_x = np.append(x_start, 0.0) + np.append(0.0, x_end)
    return (c_x * w_x).tolist(), (c_u * np.append(u_start, 0.0)).tolist()


def _check_clock(last_t: float | None, t: float) -> float:
    """Return t as the new last sample time; the clock must strictly increase."""
    if not math.isfinite(t):
        raise ValueError(f"controller sample time must be finite, got {t}")
    if last_t is not None and not t > last_t:
        raise ValueError(f"non-monotone controller clock: {t} after {last_t}")
    return t


class FlController:
    """Sampled feedback-linearizing controller with actuator saturation.

    step cancels the modeled growth at the measurement, so with the model
    exact and no noise the error decays as exp(-lam * t); it divides by
    max(y_meas, X_FLOOR), so a near-zero sample gives a bounded command.
    """

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
        if not y_meas >= 0:  # NaN fails it too
            raise ValueError(f"y_meas must be nonnegative, got {y_meas}")
        cfg = self.config
        r_hat = growth_rate_simplified(y_meas, q0, cfg.sp, self.geom)
        return saturate((r_hat + cfg.lam * (y_meas - y_r)) / max(y_meas, X_FLOOR), self.bounds)


class IpController:
    """Sampled intelligent-proportional controller: u = -(F + k_p * e) / a, F estimated online.

    Samples come on a uniform clock: each after the first must be period_h
    after the last, to within CLOCK_TOL * period_h, or step raises ValueError.
    The window holds the last n = round(tau_h / period_h) + 1 samples,
    spanning tau_h: u_window the applied inputs and x_window the measurements
    (open estimator) or tracking errors (closed).  Until it first fills,
    F = 0.  Then the weights are read off the estimator's own per-interval
    terms, once, and each estimate is sum(w_x * x) + sum(w_u * u), equal to
    estimate_F_open or estimate_F_closed on the same samples up to rounding.
    The applied (saturated) command enters the window: it is the input the
    plant saw, and during saturation the only fresh information for the
    closed-form estimate.
    """

    def __init__(
        self,
        config: IpConfig,
        bounds: ActuatorBounds = ActuatorBounds(),
        period_h: float = SamplingConfig.period_h,
    ) -> None:
        if not period_h > 0:  # NaN fails it too
            raise ValueError(f"period_h must be positive, got {period_h}")
        self.config = config
        self.bounds = bounds
        try:
            n = round(config.tau_h / period_h) + 1
            self.u_window: deque[float] = deque(maxlen=n)
        except OverflowError as exc:
            raise ValueError(f"tau_h={config.tau_h} h makes a window too long to count") from exc
        if n < 2:
            raise ValueError(f"tau_h={config.tau_h} h spans under 2 samples of {period_h} h")
        self.x_window: deque[float] = deque(maxlen=n)
        self.weights: tuple[list[float], list[float]] | None = None  # (w_x, w_u), once full
        self.f_estimate = 0.0
        self._period_h = period_h
        self._clock_tol = CLOCK_TOL * period_h
        self._x_is_error = config.estimator == "closed"
        self._last_t: float | None = None

    def _build_weights(self) -> tuple[list[float], list[float]]:
        cfg, sigma = self.config, np.arange(self.u_window.maxlen) * self._period_h
        T = sigma[-1]
        if self._x_is_error:
            return _window_weights(_closed_terms, sigma, -cfg.k_p / T, -cfg.a / T)
        return _window_weights(_open_terms, sigma, -6.0 / T**3, -6.0 / T**3 * cfg.a)

    def step(self, t: float, y_meas: float, y_r: float, q0: float) -> float:
        """Return the applied dilution rate for this sampling instant."""
        last_t = self._last_t
        if last_t is None:
            _check_clock(None, t)
        elif not abs(t - last_t - self._period_h) <= self._clock_tol:  # NaN fails it too
            raise ValueError(f"sample at {t} h is not period_h={self._period_h} h after {last_t} h")
        self._last_t = t
        e = y_meas - y_r
        us, xs = self.u_window, self.x_window
        if len(us) == us.maxlen:
            if self.weights is None:
                self.weights = self._build_weights()
            w_x, w_u = self.weights
            f_est = sum(map(mul, w_x, xs)) + sum(map(mul, w_u, us))
        else:
            f_est = 0.0
        applied = saturate(-(f_est + self.config.k_p * e) / self.config.a, self.bounds)
        us.append(applied)
        xs.append(e if self._x_is_error else y_meas)
        self.f_estimate = f_est
        return applied
