"""Plant integration, light schedules, and the measurement channel."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrsim import plant
from pbrsim.control import FlConfig, IpConfig
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.plant import (
    LIGHT_STEP_PROFILE,
    DayNightLight,
    IntegrationError,
    NoiseConfig,
    PiecewiseConstant,
    SamplingConfig,
    light_at,
    measure,
    plant_derivative,
    step,
)
from pbrsim.scenarios import light_step_scenario
from pbrsim.steady_state import optimal_setpoint

CONST_600 = PiecewiseConstant(((0.0, 600.0),))


def test_light_step_profile_levels():
    assert light_at(0.0, LIGHT_STEP_PROFILE) == 600.0
    assert light_at(15.0, LIGHT_STEP_PROFILE) == 600.0
    assert light_at(40.0, LIGHT_STEP_PROFILE) == 100.0


def test_light_switch_strictly_after():
    """The sample taken exactly at a switch still sees the old level."""
    assert light_at(30.0, LIGHT_STEP_PROFILE) == 600.0
    assert light_at(30.0 + 1e-9, LIGHT_STEP_PROFILE) == 100.0


def test_light_negative_time():
    with pytest.raises(ValueError):
        light_at(-0.1, LIGHT_STEP_PROFILE)


def test_light_nan_time():
    with pytest.raises(ValueError):
        light_at(math.nan, LIGHT_STEP_PROFILE)


def test_piecewise_held_until():
    """The hold ends at the next switch at or after t (the start at 0 is no
    switch), and never after the last one."""
    p3 = PiecewiseConstant(((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)))
    assert [p3.held_until(t) for t in (0.0, 0.5, 1.0, 1.5, 2.0)] == [1.0, 1.0, 1.0, 2.0, 2.0]
    assert p3.held_until(math.nextafter(2.0, math.inf)) == math.inf
    assert CONST_600.held_until(0.0) == CONST_600.held_until(1e9) == math.inf
    assert LIGHT_STEP_PROFILE.held_until(29.9) == LIGHT_STEP_PROFILE.held_until(30.0) == 30.0


@settings(max_examples=200, deadline=None)
@given(
    starts=st.lists(st.floats(min_value=1e-6, max_value=10.0), max_size=5, unique=True),
    t=st.floats(min_value=0.0, max_value=12.0),
)
def test_piecewise_holds_up_to_held_until(starts, t):
    """The value at t holds through held_until(t) and changes just after it."""
    pts = [(0.0, 1.0)] + [(s, 2.0 + i) for i, s in enumerate(sorted(starts))]
    profile = PiecewiseConstant(tuple(pts))
    end = profile.held_until(t)
    assert end >= t
    if end < math.inf:
        for tau in (end, 0.5 * (t + end), math.nextafter(end, t)):
            assert profile(tau) == profile(t)
        assert profile(math.nextafter(end, math.inf)) != profile(t)


def test_day_night_never_held():
    dn = DayNightLight()
    assert [dn.held_until(t) for t in (0.0, 6.0, 18.0)] == [0.0, 6.0, 18.0]


def test_piecewise_light_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(())
    with pytest.raises(ValueError):
        PiecewiseConstant(((1.0, 600.0),))  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, 600.0), (0.0, 100.0)))  # not increasing
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, -600.0),))


def test_day_night_profile():
    dn = DayNightLight()
    assert light_at(0.0, dn) == 100.0  # dawn
    assert light_at(6.0, dn) == 600.0  # midday peak
    assert light_at(12.0, dn) == 100.0  # dusk onward
    assert light_at(18.0, dn) == 100.0  # night
    assert light_at(30.0, dn) == 600.0  # next midday, 24 h period
    t = np.linspace(0.0, 48.0, 2000)
    vals = np.array([light_at(float(tt), dn) for tt in t])
    assert vals.min() >= 100.0 and vals.max() <= 600.0


def test_day_night_validation():
    with pytest.raises(ValueError):
        DayNightLight(period_h=0.0)
    with pytest.raises(ValueError):
        DayNightLight(day_fraction=0.0)
    with pytest.raises(ValueError):
        DayNightLight(floor=200.0, peak=100.0)


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: PiecewiseConstant(((0.0, 1.0), (math.nan, 2.0))), "increasing",
                     id="schedule-start"),
        pytest.param(lambda: PiecewiseConstant(((0.0, math.nan),)), "positive", id="schedule-value"),
        pytest.param(lambda: PiecewiseConstant(((0.0, 1.0), (1.0, math.nan))), "positive",
                     id="schedule-later"),
        pytest.param(lambda: DayNightLight(period_h=math.nan), "positive", id="daynight-period"),
        pytest.param(lambda: DayNightLight(floor=math.nan), "floor", id="daynight-floor"),
        pytest.param(lambda: DayNightLight(peak=math.nan), "peak", id="daynight-peak"),
        pytest.param(lambda: SamplingConfig(period_h=math.nan), "positive", id="sampling-period"),
        pytest.param(lambda: SamplingConfig(substeps=1.5), "integer", id="sampling-substeps"),
        pytest.param(lambda: NoiseConfig(relative_std=math.nan), "nonnegative", id="noise-std"),
        pytest.param(lambda: NoiseConfig(seed=math.nan), "integer", id="noise-seed-nan"),
        pytest.param(lambda: NoiseConfig(seed=1.5), "integer", id="noise-seed-fraction"),
        pytest.param(lambda: FlConfig(lam=math.nan), "lam must be positive", id="fl-lam"),
        pytest.param(lambda: IpConfig(a=math.nan), "a must be nonzero", id="ip-a"),
        pytest.param(lambda: IpConfig(k_p=math.nan), "k_p must be positive", id="ip-k_p"),
        pytest.param(lambda: IpConfig(tau_h=math.nan), "tau_h must be positive", id="ip-tau_h"),
        pytest.param(lambda: replace(light_step_scenario(), x0=math.inf), "x0 must be positive",
                     id="scenario-x0"),
        pytest.param(lambda: replace(light_step_scenario(), duration_h=math.nan),
                     "duration_h must be positive", id="scenario-duration"),
    ],
)
def test_configs_reject_nan(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_plant_derivative_negative_dilution():
    with pytest.raises(ValueError):
        plant_derivative(0.3, -0.01, 600.0)


def test_equilibrium_hold():
    """At (X*, D*) the state is a fixed point of the integrator."""
    op = optimal_setpoint(600.0)
    x, t = op.x_star, 0.0
    for _ in range(100):  # 10 h
        x, t = step(x, t, op.d_star, CONST_600, 0.1), t + 0.1
    assert abs(x - op.x_star) <= 1e-9


def test_equilibrium_round_trip_50h():
    """Round-trip drift at the operating point stays below 1e-6 over 50 h."""
    op = optimal_setpoint(600.0)
    x, t = op.x_star, 0.0
    for _ in range(500):
        x, t = step(x, t, op.d_star, CONST_600, 0.1), t + 0.1
    assert abs(x - op.x_star) <= 1e-6


def test_rk4_step_halving_constant_light():
    """Halving the substep changes the 50 h endpoint by < 1e-6 kg/m3."""
    ends = []
    for substeps in (10, 20):
        x, t = 0.3, 0.0
        for _ in range(500):
            x, t = step(x, t, 0.03, CONST_600, 0.1, substeps=substeps), t + 0.1
        ends.append(x)
    assert abs(ends[0] - ends[1]) <= 1e-6


def test_rk4_step_halving_day_night():
    """Same halving bound under the smooth day/night forcing."""
    dn = DayNightLight()
    ends = []
    for substeps in (10, 20):
        x, t = 0.3, 0.0
        for _ in range(500):
            x, t = step(x, t, 0.03, dn, 0.1, substeps=substeps), t + 0.1
        ends.append(x)
    assert abs(ends[0] - ends[1]) <= 1e-6


def test_washout_strictly_decreases():
    """Max dilution under dim light flushes the culture monotonically."""
    dim = PiecewiseConstant(((0.0, 100.0),))
    x, t = 0.3, 0.0
    xs = [x]
    for _ in range(50):
        x, t = step(x, t, 0.5, dim, 0.1), t + 0.1
        xs.append(x)
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_small_inoculum_grows():
    """A tiny culture under strong light grows rather than dying out."""
    x, t = 1e-6, 0.0
    for _ in range(100):
        x, t = step(x, t, 0.0, CONST_600, 0.1), t + 0.1
    assert x > 1e-6


def test_step_validation():
    with pytest.raises(ValueError):
        step(0.3, 0.0, 0.1, CONST_600, 0.0)


@pytest.fixture
def no_stage(monkeypatch):
    """Fail the test if step reaches the plant's right-hand side."""

    def never(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(plant, "plant_derivative", never)


def test_step_rejects_nan_dt(no_stage):
    with pytest.raises(ValueError, match="dt"):
        step(0.3, 0.0, 0.05, LIGHT_STEP_PROFILE, math.nan, SimplifiedModelParams())


@pytest.mark.parametrize("substeps", [0, 1.5])
def test_step_rejects_zero_substeps(no_stage, substeps):
    with pytest.raises(ValueError, match="substeps"):
        step(0.3, 0.0, 0.05, LIGHT_STEP_PROFILE, 0.1, SimplifiedModelParams(), substeps=substeps)


def test_step_rejects_nan_time(no_stage):
    with pytest.raises(ValueError, match="t must be"):
        step(0.3, math.nan, 0.05, LIGHT_STEP_PROFILE, 0.1, SimplifiedModelParams())


def _per_stage_step(X, t, D, profile, dt, params, substeps):
    """RK4 with the light looked up at every stage time: step's oracle."""
    h = dt / substeps

    def f(x, tau):
        return plant_derivative(x if x >= 0.0 else 0.0, D, light_at(tau, profile), params)

    for i in range(substeps):
        t0 = t + i * h
        k1 = f(X, t0)
        k2 = f(X + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = f(X + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = f(X + h * k3, t0 + h)
        X = max(X + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
    return X


def _switch_times(t, dt, substeps):
    """Switches at t, inside the period, at a midpoint stage time, at the
    last stage time and just past it, as step computes those times."""
    h = dt / substeps
    last = (t + (substeps - 1) * h) + h
    mid = (t + (substeps // 2) * h) + 0.5 * h
    return [t, t + 0.37 * dt, mid, last, math.nextafter(last, math.inf)]


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
@pytest.mark.parametrize("substeps", [1, 2, 10])
@pytest.mark.parametrize("t", [0.0, 299 * 0.1])
def test_held_light_matches_per_stage_light(params, substeps, t):
    """step equals a per-stage RK4 bit for bit wherever the switch falls."""
    dt = 0.1
    switches = [s for s in _switch_times(t, dt, substeps) if s > 0.0]
    profiles = [CONST_600] + [PiecewiseConstant(((0.0, 600.0), (s, 100.0))) for s in switches]
    for profile in profiles:
        for x0, D in ((0.3, 0.05), (1.2, 0.0)):
            got = step(x0, t, D, profile, dt, params, substeps=substeps)
            assert got == _per_stage_step(x0, t, D, profile, dt, params, substeps)


@st.composite
def _held_cases(draw):
    t = draw(st.floats(min_value=0.0, max_value=5.0))
    dt = draw(st.floats(min_value=1e-3, max_value=1.0))
    substeps = draw(st.integers(min_value=1, max_value=10))
    near = [s for s in _switch_times(t, dt, substeps) if s > 0.0]
    anywhere = st.floats(min_value=1e-6, max_value=7.0)
    starts = draw(st.lists(st.one_of(st.sampled_from(near), anywhere) if near else anywhere,
                           max_size=4, unique=True))
    values = draw(st.lists(st.floats(min_value=50.0, max_value=1000.0),
                           min_size=len(starts) + 1, max_size=len(starts) + 1))
    profile = PiecewiseConstant(tuple(zip([0.0, *sorted(starts)], values)))
    return t, dt, substeps, profile


@settings(max_examples=200, deadline=None)
@given(
    case=_held_cases(),
    x0=st.floats(min_value=0.0, max_value=2.0),
    D=st.floats(min_value=0.0, max_value=0.5),
)
def test_held_light_matches_per_stage_light_on_any_schedule(case, x0, D):
    t, dt, substeps, profile = case
    params = SimplifiedModelParams()
    got = step(x0, t, D, profile, dt, params, substeps=substeps)
    assert got == _per_stage_step(x0, t, D, profile, dt, params, substeps)


def _count_light_calls(monkeypatch):
    calls = []

    def counted(t, profile):
        calls.append(t)
        return light_at(t, profile)

    monkeypatch.setattr(plant, "light_at", counted)
    return calls


@pytest.mark.parametrize("substeps", [1, 2, 10])
def test_light_evaluations_per_period(monkeypatch, substeps):
    """Once for a held period; at all 4 * substeps stages across a switch."""
    calls = _count_light_calls(monkeypatch)
    sp = SimplifiedModelParams()
    step(0.3, 10.0, 0.05, LIGHT_STEP_PROFILE, 0.1, sp, substeps=substeps)
    assert len(calls) == 1
    calls.clear()
    step(0.3, 29.95, 0.05, LIGHT_STEP_PROFILE, 0.1, sp, substeps=substeps)
    assert len(calls) == 4 * substeps
    calls.clear()
    step(0.3, 10.0, 0.05, DayNightLight(), 0.1, sp, substeps=substeps)
    assert len(calls) == 4 * substeps


def test_integration_error_carries_context():
    """A non-finite state raises with the fault location attached."""
    bomb = FullModelParams(M_x=1e200)
    with pytest.raises(IntegrationError) as err:
        x, t = 0.3, 0.0
        for _ in range(10):
            x, t = step(x, t, 0.0, CONST_600, 0.1, params=bomb), t + 0.1
    assert hasattr(err.value, "t")
    assert hasattr(err.value, "X")
    assert hasattr(err.value, "D")


def test_measure_deterministic_per_seed():
    a = measure(0.3, NoiseConfig(seed=5), np.random.default_rng(5))
    b = measure(0.3, NoiseConfig(seed=5), np.random.default_rng(5))
    assert a == b


def test_measure_noise_free():
    rng = np.random.default_rng(0)
    assert measure(0.3, NoiseConfig(relative_std=0.0), rng) == 0.3


def test_measure_statistics():
    """Sample std matches the configured 1% relative noise."""
    rng = np.random.default_rng(7)
    cfg = NoiseConfig(relative_std=0.01)
    vals = np.array([measure(0.3, cfg, rng) for _ in range(100000)])
    assert abs(vals.mean() - 0.3) / 0.3 <= 5e-4
    assert abs(vals.std() / 0.3 - 0.01) <= 3e-4


def test_measure_clamped_at_zero():
    rng = np.random.default_rng(0)
    cfg = NoiseConfig(relative_std=3.0)  # huge noise to force excursions
    vals = [measure(0.1, cfg, rng) for _ in range(2000)]
    assert min(vals) >= 0.0


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(relative_std=-0.01)


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(period_h=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(substeps=0)


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(min_value=0.0, max_value=2.0),
    D=st.floats(min_value=0.0, max_value=0.5),
    q0=st.floats(min_value=1.0, max_value=1000.0),
)
def test_state_stays_nonnegative(x0, D, q0):
    """Biomass cannot go negative whatever admissible input is applied."""
    profile = PiecewiseConstant(((0.0, q0),))
    x = step(x0, 0.0, D, profile, 0.1)
    assert x >= 0.0
    assert math.isfinite(x)
