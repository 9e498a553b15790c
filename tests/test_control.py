"""Controllers and online F estimation: arithmetic pins and convergence."""

import math
import sys
import tracemalloc
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbrsim.control import (
    X_FLOOR,
    ActuatorBounds,
    FlConfig,
    FlController,
    IpConfig,
    IpController,
    estimate_F_closed,
    estimate_F_open,
    fl_control,
    ip_control,
    saturate,
)
from pbrsim.kinetics import SimplifiedModelParams
from pbrsim.scenarios import MAX_SAMPLES

from oracles import mean_irradiance_simplified

TAU = 1.5
KP = 5.0


def test_saturate():
    b = ActuatorBounds()
    assert saturate(-0.3, b) == 0.0
    assert saturate(0.2, b) == 0.2
    assert saturate(0.7, b) == 0.5


def test_actuator_bounds_validation():
    with pytest.raises(ValueError):
        ActuatorBounds(d_min=0.5, d_max=0.5)
    with pytest.raises(ValueError):
        ActuatorBounds(d_min=-0.1, d_max=0.5)


def test_ip_control_arithmetic():
    """u = -(F + k_p e) / a, checked by hand."""
    cfg = IpConfig(a=0.2)
    assert ip_control(0.5, 0.4, cfg) == pytest.approx(-12.5, rel=1e-14)
    cfg = IpConfig()  # default a = -0.2
    assert ip_control(0.02, -0.01, cfg) == pytest.approx(-0.15, rel=1e-14)


def test_ip_config_validation():
    with pytest.raises(ValueError):
        IpConfig(a=0.0)
    with pytest.raises(ValueError):
        IpConfig(k_p=0.0)
    with pytest.raises(ValueError):
        IpConfig(tau_h=-1.0)
    with pytest.raises(ValueError):
        IpConfig(estimator="magic")


def test_fl_control_on_reference_cancels_growth():
    """At y = y_r the command is exactly mu_hat(y): hold the equilibrium."""
    sp = SimplifiedModelParams()
    cfg = FlConfig(sp=sp)
    y = 0.38
    G = mean_irradiance_simplified(y, 600.0, sp)
    mu = sp.mu_0 * G / (sp.K_I + G + G * G / sp.K_II) - sp.mu_r
    assert fl_control(y, y, 600.0, cfg) == pytest.approx(mu, rel=1e-12)


def test_fl_control_guard_floor():
    """A near-zero measurement cannot blow the division up."""
    cfg = FlConfig()
    u = fl_control(1e-9, 0.38, 600.0, cfg)
    assert abs(u) <= abs(-0.38 * cfg.lam) / X_FLOOR + 1.0


def test_fl_control_validation():
    with pytest.raises(ValueError):
        fl_control(-0.1, 0.38, 600.0, FlConfig())
    with pytest.raises(ValueError):
        FlConfig(lam=0.0)


def test_estimators_reject_short_or_ragged_windows():
    """Fewer than 2 samples, or signals of unequal length: ValueError."""
    one = np.array([0.0])
    two, three = np.array([0.0, 0.1]), np.array([0.0, 0.1, 0.2])
    for t, u, y in ((one, one, one), (three, two, three), (three, three, two)):
        with pytest.raises(ValueError):
            estimate_F_open(t, u, y, -0.2)
        with pytest.raises(ValueError):
            estimate_F_closed(t, u, y, -0.2, KP)


def _linear_window(n_intervals, F0, a, u0, Ts):
    """Exact open-loop record (t, u, y) of ydot = F0 + a u with constant input."""
    t = np.arange(n_intervals + 1) * Ts
    return t, np.full_like(t, u0), 2.0 + (F0 + a * u0) * t


def test_open_estimator_exact_on_linear_data():
    """Product integration recovers a constant F from exact linear data."""
    F0, a, u0 = 0.5, -0.2, 0.3
    for n in (16, 64):
        f = estimate_F_open(*_linear_window(n, F0, a, u0, TAU / n), a)
        assert abs(f - F0) / F0 <= 1e-6
        assert abs(f - F0) / F0 <= 1e-12  # actually machine precision


def test_open_estimator_pure_slope():
    """With u = 0 the estimate is just the line's slope."""
    t = np.arange(17) * 0.1
    assert estimate_F_open(t, 0.0 * t, 5.0 + 0.25 * t, -0.2) == pytest.approx(0.25, abs=1e-12)


def _loop_consistent_window(n_intervals, F0, a, e0, Ts):
    """Closed-loop record: ultra-local plant driven by the law with true F.

    ZOH input makes y exactly piecewise linear, so quadrature error is the
    only error source for either estimator.  Returns arrays (t, u, y, e).
    """
    y_r = 1.0
    y = y_r + e0
    rows = []
    t = 0.0
    for k in range(n_intervals + 1):
        e = y - y_r
        u = -(F0 + KP * e) / a
        rows.append((t, u, y, e))
        y = y + (F0 + a * u) * Ts
        t += Ts
    return np.array(rows).T


def test_both_estimators_on_loop_consistent_data():
    """One window of in-loop data recovers F within 2% for both forms."""
    F0, a, e0 = 0.5, -0.2, 0.05
    t, u, y, e = _loop_consistent_window(16, F0, a, e0, TAU / 16)
    assert abs(estimate_F_open(t, u, y, a) - F0) / F0 <= 1e-12
    assert abs(estimate_F_closed(t, u, e, a, KP) - F0) / F0 <= 0.02


def test_closed_estimator_refines_with_sampling():
    """The closed form's bias shrinks with the sampling period."""
    F0, a, e0 = 0.5, -0.2, 0.05
    t, u, _, e = _loop_consistent_window(64, F0, a, e0, TAU / 64)
    assert abs(estimate_F_closed(t, u, e, a, KP) - F0) / F0 <= 5e-3


def test_closed_estimator_equilibrium_identity():
    """Flat record (e = 0, constant u) gives F = -a u exactly."""
    a, u0 = -0.2, 0.1
    t = np.arange(16) * 0.1
    flat = estimate_F_closed(t, np.full_like(t, u0), np.zeros_like(t), a, KP)
    assert flat == pytest.approx(-a * u0, abs=1e-14)


def _open_oracle(t, u, y, a):
    """estimate_F_open as first written, with np.sum and np.diff."""
    sigma = t - t[0]
    T = sigma[-1]
    p, q, h = sigma[:-1], sigma[1:], np.diff(sigma)
    mid = 0.5 * (p + q)
    half = h / (2.0 * math.sqrt(3.0))
    lo, hi = mid - half, mid + half
    slope = (y[1:] - y[:-1]) / h
    y_lo = y[:-1] + (lo - p) * slope
    y_hi = y[:-1] + (hi - p) * slope
    int_y = np.sum(0.5 * h * ((T - 2.0 * lo) * y_lo + (T - 2.0 * hi) * y_hi))
    int_u = np.sum(0.5 * h * (lo * (T - lo) + hi * (T - hi)) * u[:-1])
    return float(-6.0 / T**3 * (int_y + a * int_u))


def _closed_oracle(t, u, e, a, k_p):
    """estimate_F_closed as first written, with np.sum and np.diff."""
    sigma = t - t[0]
    T = sigma[-1]
    h = np.diff(sigma)
    s = 0.0 - k_p * e
    int_s = np.sum(0.5 * h * (s[:-1] + s[1:]))
    int_u = np.sum(h * u[:-1])
    return float((int_s - a * int_u) / T)


@st.composite
def _windows(draw):
    """(t, u, y, e) of 2 to 64 samples; t strictly increases, e is often 0."""
    n = draw(st.integers(min_value=2, max_value=64))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    gaps = column(st.floats(min_value=1e-3, max_value=1.0))
    t = draw(st.floats(min_value=0.0, max_value=100.0)) + np.cumsum(gaps)
    u = column(st.floats(min_value=0.0, max_value=0.5))
    y = column(st.floats(min_value=0.0, max_value=2.0))
    e = column(st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)))
    return t, u, y, e


def _same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@settings(max_examples=300, deadline=None)
@given(window=_windows(), a=st.sampled_from([-0.2, 0.3]), k_p=st.sampled_from([0.5, 5.0]))
def test_estimators_equal_their_first_formulas(window, a, k_p):
    """np.add.reduce and a slice difference give np.sum's and np.diff's bits."""
    t, u, y, e = window
    assert _same_float(estimate_F_open(t, u, y, a), _open_oracle(t, u, y, a))
    assert _same_float(estimate_F_closed(t, u, e, a, k_p), _closed_oracle(t, u, e, a, k_p))


def _filled_weights(estimator, n, period_h, a, k_p):
    """The weights an IpController builds on its first full window of n."""
    cfg = IpConfig(a=a, k_p=k_p, tau_h=(n - 1) * period_h, estimator=estimator)
    ctl = IpController(cfg, period_h=period_h)
    for k in range(n + 1):
        ctl.step(k * period_h, 0.3, 0.38, 0.0)
    assert len(ctl.weights[0]) == len(ctl.weights[1]) == n
    return ctl.weights


@st.composite
def _uniform_columns(draw):
    """(u, y, e) of 2 to 64 samples each, on a uniform window."""
    n = draw(st.integers(min_value=2, max_value=64))

    def column(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    return column(0.0, 0.5), column(0.0, 2.0), column(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    columns=_uniform_columns(),
    period_h=st.floats(min_value=1e-3, max_value=2.0),
    a=st.one_of(st.floats(min_value=-2.0, max_value=-1e-2), st.floats(min_value=1e-2, max_value=2.0)),
    k_p=st.floats(min_value=1e-2, max_value=20.0),
)
@example(columns=([0.0, 0.0], [0.0, 0.0], [0.0, 5e-324]), period_h=0.5, a=-1.0, k_p=2.0)
@example(columns=([0.0, 0.0], [0.0, 5e-324], [0.0, 0.0]), period_h=0.5, a=-1.0, k_p=2.0)
def test_window_weights_equal_the_estimators(columns, period_h, a, k_p):
    """On a uniform window the weighted sums are the general-t estimators,
    to 1e-13 of the window's scale (the largest term an estimate can hold).

    Below the smallest normal float a rounding errs by up to half of 5e-324
    in absolute terms, not relative ones, and the estimators' factors (at
    most 6/T^3 = 6e9 here) scale such errors up: over 16,000 random windows
    of data from 5e-324 to 1e-295 they reached 1.7e-6 of the smallest
    normal, which therefore floors the bound."""
    u, y, e = map(np.array, columns)
    n = len(u)
    t = np.arange(n) * period_h
    T = t[-1]
    u_scale = abs(a) * np.max(np.abs(u))

    w_y, w_u = _filled_weights("open", n, period_h, a, k_p)
    f = sum(map(mul, w_y, y)) + sum(map(mul, w_u, u))
    scale = 3.0 * np.max(np.abs(y)) / T + u_scale
    assert abs(f - estimate_F_open(t, u, y, a)) <= max(1e-13 * scale, sys.float_info.min)

    w_e, w_u = _filled_weights("closed", n, period_h, a, k_p)
    f = sum(map(mul, w_e, e)) + sum(map(mul, w_u, u))
    scale = k_p * np.max(np.abs(e)) + u_scale
    assert abs(f - estimate_F_closed(t, u, e, a, k_p)) <= max(1e-13 * scale, sys.float_info.min)


DEFAULT_WEIGHTS = {  # float.hex of entries 0, 1, 8, 14 and 15 of (w_x, w_u)
    "open": (
        ["-0x1.04ee2cc0a9e88p-3", "-0x1.d950c83fb72eap-3", "0x1.23456789abcddp-6",
         "0x1.d950c83fb72e0p-3", "0x1.04ee2cc0a9e8ep-3"],
        ["0x1.4dfda9ec5e9a3p-9", "0x1.d5eada3daec75p-8", "0x1.415e7f0963f51p-6",
         "0x1.4dfda9ec5e987p-9", "0x0.0p+0"],
    ),
    "closed": (
        ["-0x1.5555555555556p-3", "-0x1.5555555555556p-2", "-0x1.5555555555554p-2",
         "-0x1.5555555555554p-2", "-0x1.555555555554ep-3"],
        ["0x1.b4e81b4e81b4fp-7", "0x1.b4e81b4e81b4fp-7", "0x1.b4e81b4e81b4dp-7",
         "0x1.b4e81b4e81b44p-7", "0x0.0p+0"],
    ),
}


@pytest.mark.parametrize("estimator", ["open", "closed"])
def test_default_window_weights_pinned(estimator):
    """The default controller's 16-sample weights, bit for bit: the
    estimator's own per-interval terms read off at unit samples."""
    weights = _filled_weights(estimator, 16, 0.1, IpConfig().a, IpConfig().k_p)
    for w, pinned in zip(weights, DEFAULT_WEIGHTS[estimator]):
        assert [w[i].hex() for i in (0, 1, 8, 14, 15)] == pinned


@pytest.mark.parametrize("estimator", ["open", "closed"])
def test_long_window_estimate_equals_the_estimator(estimator):
    """A 10,001-sample window, filled through step, estimates what the
    general-time estimator gives on the same samples, to 1e-13 of the
    window's scale (the hypothesis test above stops at 64 samples)."""
    n, period_h, cfg = 10_001, 0.1, IpConfig(tau_h=1000.0, estimator=estimator)
    ctl = IpController(cfg, period_h=period_h)
    rng = np.random.default_rng(0)
    t, u, y = np.arange(n + 1) * period_h, [], 0.3 + 0.05 * rng.standard_normal(n + 1)
    for k in range(n + 1):
        u.append(ctl.step(t[k], y[k], 0.3, 0.0))  # u spans [0, 0.5]
    assert ctl.u_window.maxlen == n and ctl.weights is not None
    t, u, y = t[:n], np.array(u[:n]), y[:n]
    u_scale = abs(cfg.a) * np.max(np.abs(u))
    if estimator == "open":
        expected = estimate_F_open(t, u, y, cfg.a)
        scale = 3.0 * np.max(np.abs(y)) / t[-1] + u_scale
    else:
        e = y - 0.3
        expected = estimate_F_closed(t, u, e, cfg.a, cfg.k_p)
        scale = cfg.k_p * np.max(np.abs(e)) + u_scale
    assert abs(ctl.f_estimate - expected) <= 1e-13 * scale


def test_ip_controller_window_spans_tau():
    """Default window: round(tau/T_s) + 1 samples span exactly tau."""
    ctl = IpController(IpConfig(), period_h=0.1)
    assert ctl.u_window.maxlen == ctl.x_window.maxlen == 16  # 15 intervals * 0.1 h = 1.5 h


def test_ip_controller_long_window_builds_no_weights():
    """A window that never fills (10^10 samples) costs nothing to build or
    run: the weights come only when the window first fills."""
    tracemalloc.start()
    try:
        ctl = IpController(IpConfig(tau_h=1e9), period_h=0.1)
        for k in range(100):
            ctl.step(k * 0.1, 0.3, 0.38, 0.0)
            assert ctl.f_estimate == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctl.u_window.maxlen == 10**10 + 1
    assert ctl.weights is None
    assert peak < 100_000  # bytes; the weights alone would be ~160 GB


def test_ip_controller_window_too_short_or_long():
    """A window under 2 samples, or too long to count, is refused."""
    with pytest.raises(ValueError, match="under 2 samples"):
        IpController(IpConfig(tau_h=0.01), period_h=0.1)
    for tau_h, period_h in ((1e308, 1e-10), (1e300, 0.1)):
        with pytest.raises(ValueError, match="too long to count"):
            IpController(IpConfig(tau_h=tau_h), period_h=period_h)


@pytest.mark.parametrize("period_h", [math.nan, 0.0, -1.0])
def test_ip_controller_period_must_be_positive(period_h):
    """A NaN, zero or negative period is refused by name, before round()."""
    with pytest.raises(ValueError, match=rf"period_h must be positive, got {period_h}"):
        IpController(IpConfig(), period_h=period_h)


def test_ip_controller_estimates_on_its_last_rows():
    """F = 0 until 16 samples are held; from then on every estimate is the
    open estimator's weighted sum over the 16 (applied, y) samples before
    it, the oldest dropped as each new one arrives."""
    ctl = IpController(IpConfig(), period_h=0.1)
    rows, f_hist = [], []
    y = 0.3
    for k in range(40):
        t = k * 0.1
        d = ctl.step(t, y, 0.38, 600.0)
        f_hist.append(ctl.f_estimate)
        rows.append((d, y))
        y += (0.02 - 0.2 * d) * 0.1 + 0.001 * np.sin(k)
    assert f_hist[:16] == [0.0] * 16
    w_y, w_u = ctl.weights
    for k in range(16, 40):
        u, yk = zip(*rows[k - 16 : k])
        assert f_hist[k] == sum(map(mul, w_y, yk)) + sum(map(mul, w_u, u))


def test_ip_controller_warmup_zero_f():
    ctl = IpController(IpConfig(), period_h=0.1)
    d = ctl.step(0.0, 0.1, 0.38, 0.0)
    assert ctl.f_estimate == 0.0
    assert 0.0 <= d <= 0.5


def test_ip_loop_open_estimator_converges():
    """On the ultra-local plant the open estimator locks onto the true F.

    ZOH makes the synthetic plant exact, so after the warm-up window plus
    one slide the estimate is machine-tight and the loop lands on the
    reference.
    """
    F0, a_true = 0.02, -0.2
    ctl = IpController(IpConfig(estimator="open"), ActuatorBounds(), 0.1)
    y, y_r, t = 0.3, 0.5, 0.0
    f_hist, e_hist = [], []
    for _ in range(200):  # 20 h
        u = ctl.step(t, y, y_r, 0.0)
        y = y + (F0 + a_true * u) * 0.1
        t += 0.1
        f_hist.append(ctl.f_estimate)
        e_hist.append(y - y_r)
    locked = np.abs(np.array(f_hist[17:]) - F0)
    assert locked.max() <= 1e-9
    assert abs(e_hist[-1]) <= 1e-12


def test_ip_loop_closed_estimator_freezes():
    """The reference-side form is self-referential in closed loop.

    Substituting the unsaturated law into its own integrand reproduces the
    current estimate, so whatever the first full window locks onto persists;
    on this plant it parks far from the true F and leaves a standing error.
    Kept as a pinned characterization of why "open" is the default.
    """
    F0, a_true = 0.02, -0.2
    ctl = IpController(IpConfig(estimator="closed"), ActuatorBounds(), 0.1)
    y, y_r, t = 0.3, 0.5, 0.0
    for _ in range(200):
        u = ctl.step(t, y, y_r, 0.0)
        y = y + (F0 + a_true * u) * 0.1
        t += 0.1
    assert abs(ctl.f_estimate - F0) > 0.5  # parked near 0.897, F0 = 0.02
    assert abs(y - y_r) > 0.05  # standing tracking error


def test_controllers_reject_non_monotone_clock():
    fl = FlController(FlConfig())
    fl.step(0.0, 0.3, 0.38, 600.0)
    with pytest.raises(ValueError):
        fl.step(0.0, 0.3, 0.38, 600.0)
    ip = IpController(IpConfig())
    ip.step(0.0, 0.3, 0.38, 0.0)
    with pytest.raises(ValueError):
        ip.step(-0.1, 0.3, 0.38, 0.0)


@pytest.mark.parametrize(
    "make", [lambda: FlController(FlConfig()), lambda: IpController(IpConfig())], ids=["fl", "ip"]
)
def test_controllers_reject_nan_clock(make):
    """A NaN sample time is refused, first or later, and leaves the clock
    where it was: t = 0.0 cannot be replayed after a refused NaN."""
    with pytest.raises(ValueError, match="finite"):
        make().step(math.nan, 0.3, 0.38, 600.0)
    ctl = make()
    ctl.step(0.0, 0.3, 0.38, 600.0)
    with pytest.raises(ValueError):
        ctl.step(math.nan, 0.3, 0.38, 600.0)
    with pytest.raises(ValueError):
        ctl.step(0.0, 0.3, 0.38, 600.0)


@pytest.mark.parametrize("period_h", [0.1, 0.07, 1 / 3, 1e-3])
def test_ip_controller_keeps_the_sample_clock(period_h):
    """Samples k * period_h pass up to k = MAX_SAMPLES; a sample off the
    clock by more than 1e-9 * period_h raises."""
    k = np.arange(MAX_SAMPLES + 1)
    t = k * period_h
    assert np.max(np.abs(t[1:] - t[:-1] - period_h)) <= 1e-9 * period_h
    ctl = IpController(IpConfig(), period_h=period_h)
    for j in range(MAX_SAMPLES - 100, MAX_SAMPLES + 1):
        ctl.step(j * period_h, 0.3, 0.38, 0.0)
    last = MAX_SAMPLES * period_h
    for off in (2e-9, -2e-9, 1.0, -1.0, 0.5):
        with pytest.raises(ValueError, match="not period_h"):
            ctl.step(last + period_h * (1.0 + off), 0.3, 0.38, 0.0)
    ctl.step(last + period_h, 0.3, 0.38, 0.0)


def test_fl_controller_saturates():
    """Far below the reference the raw command is negative: clipped to 0."""
    fl = FlController(FlConfig())
    assert fl.step(0.0, 0.05, 0.38, 600.0) == 0.0


@settings(max_examples=100)
@given(
    ys=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=20, max_size=40
    )
)
def test_ip_controller_respects_bounds(ys):
    """Whatever the measurements, the applied command stays admissible."""
    bounds = ActuatorBounds()
    ctl = IpController(IpConfig(), bounds, 0.1)
    for k, y in enumerate(ys):
        d = ctl.step(k * 0.1, y, 0.38, 0.0)
        assert bounds.d_min <= d <= bounds.d_max
