"""Plant integration, light schedules, and the measurement channel."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_day_night_held_through_the_night():
    """By night the hold reaches the period's end; by day there is none."""
    dn = DayNightLight()
    assert [dn.held_until(t) for t in (0.0, 6.0, 11.9, 24.0)] == [0.0, 6.0, 11.9, 24.0]
    assert [dn.held_until(t) for t in (12.0, 18.0, 23.9, 36.0)] == [24.0, 24.0, 24.0, 48.0]
    assert dn.held_until(math.nextafter(24.0, 0.0)) == 24.0
    # 5 * 0.7 rounds up past the dawn, so the hold stops one float short of it.
    short = DayNightLight(period_h=0.7, day_fraction=0.3)
    assert 0.0 < 3.5 % 0.7 and short(5 * 0.7) > short.floor
    assert short.held_until(3.4) == math.nextafter(3.5, 0.0)


@st.composite
def _day_night_cases(draw):
    period_h = draw(st.floats(min_value=1e-3, max_value=100.0))
    day_fraction = draw(st.floats(min_value=1e-3, max_value=1.0))
    floor = draw(st.floats(min_value=1.0, max_value=1000.0))
    peak = floor + draw(st.sampled_from([0.0, 1e-9, 1.0, math.inf]) | st.floats(0.0, 1000.0))
    dn = DayNightLight(period_h, floor, peak, day_fraction)
    k = draw(st.integers(min_value=0, max_value=1000))
    edges = [k * period_h, (k + day_fraction) * period_h]  # a dawn and the night's start
    near = st.sampled_from(edges).flatmap(
        lambda e: st.sampled_from([e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)]))
    # Far out, up to 2**64 periods, where t // period_h and k * period_h round.
    far = st.floats(min_value=0.0, max_value=64.0).map(lambda e: period_h * 2.0**e)
    return dn, draw(near | far | st.floats(min_value=0.0, max_value=1000.0 * period_h))


def _far(period_h, day_fraction, t):
    return DayNightLight(period_h, day_fraction=day_fraction), t


@settings(max_examples=500, deadline=None)
@given(case=_day_night_cases())
# Far out, where the end of t's period rounds to a float past t's period.
@example(case=_far(10.388755526187838, 0.45566609560615995, 1.1827076543587066e17))
@example(case=_far(0.010333679077585187, 0.1932152280393738, 109664374573004.4))
@example(case=_far(98.813519151181, 0.037095078035479394, 3.1531759308156595e17))
@example(case=(DayNightLight(peak=math.inf), 18.0))  # the dawn reads NaN
def test_day_night_holds_up_to_held_until(case):
    """The value at t holds through held_until(t), which is t by day and the
    period's end, or the float before it, by night."""
    dn, t = case
    end, P = dn.held_until(t), dn.period_h
    if (t % P) / P < dn.day_fraction:
        assert end == t
        return
    assert end >= t
    for tau in (end, 0.5 * (t + end), math.nextafter(end, t)):
        assert dn(tau) == dn(t) == dn.floor
    if t < 2.0**50 * P:
        dawn = (t // P + 1) * P
        assert end in (dawn, math.nextafter(dawn, t))


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
        pytest.param(lambda: DayNightLight(period_h=math.nan), "period_h must lie in", id="daynight-period"),
        pytest.param(lambda: DayNightLight(floor=math.nan), "floor", id="daynight-floor"),
        pytest.param(lambda: DayNightLight(peak=math.nan), "peak", id="daynight-peak"),
        pytest.param(lambda: SamplingConfig(period_h=math.nan), "period_h must lie in", id="sampling-period"),
        pytest.param(lambda: SamplingConfig(substeps=1.5), "integer", id="sampling-substeps"),
        pytest.param(lambda: SamplingConfig(substeps=True), "integer",
                     id="sampling-substeps-bool"),
        pytest.param(lambda: NoiseConfig(relative_std=math.nan), "relative_std must lie in", id="noise-std"),
        pytest.param(lambda: NoiseConfig(seed=math.nan), "integer", id="noise-seed-nan"),
        pytest.param(lambda: NoiseConfig(seed=1.5), "integer", id="noise-seed-fraction"),
        pytest.param(lambda: NoiseConfig(seed=True), "integer", id="noise-seed-bool"),
        pytest.param(lambda: FlConfig(lam=math.nan), "lam must lie in", id="fl-lam"),
        pytest.param(lambda: IpConfig(a=math.nan), "a must be nonzero", id="ip-a"),
        pytest.param(lambda: IpConfig(k_p=math.nan), "k_p must lie in", id="ip-k_p"),
        pytest.param(lambda: IpConfig(tau_h=math.nan), "tau_h must lie in", id="ip-tau_h"),
        pytest.param(lambda: replace(light_step_scenario(), x0=math.inf), "x0 must lie in",
                     id="scenario-x0"),
        pytest.param(lambda: replace(light_step_scenario(), duration_h=math.nan),
                     "duration_h must lie in", id="scenario-duration"),
    ],
)
def test_configs_reject_nan(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_plant_derivative_negative_dilution():
    with pytest.raises(ValueError):
        plant_derivative(0.3, -0.01, 600.0)


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
@pytest.mark.parametrize("X", [-0.1, math.nan])
def test_plant_derivative_refuses_a_bad_biomass(params, X):
    with pytest.raises(ValueError, match="X must be nonnegative"):
        plant_derivative(X, 0.05, 600.0, params)


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
    """Fail the test if step binds either model's rate, which every stage needs."""

    def never(*args):
        raise AssertionError("a stage ran")

    for model in (FullModelParams, SimplifiedModelParams):
        monkeypatch.setattr(model, "rate_at", never)


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
@pytest.mark.parametrize("profile", [LIGHT_STEP_PROFILE, DayNightLight()], ids=["held", "daynight"])
def test_no_stage_fixture_bites(no_stage, params, profile):
    """A valid step under the fixture fails, so the checks below run first."""
    with pytest.raises(AssertionError, match="a stage ran"):
        step(0.3, 10.0, 0.05, profile, 0.1, params)


def test_step_rejects_nan_dt(no_stage):
    with pytest.raises(ValueError, match="dt"):
        step(0.3, 0.0, 0.05, LIGHT_STEP_PROFILE, math.nan, SimplifiedModelParams())


@pytest.mark.parametrize("substeps", [0, 1.5, True])
def test_step_rejects_zero_substeps(no_stage, substeps):
    with pytest.raises(ValueError, match="substeps"):
        step(0.3, 0.0, 0.05, LIGHT_STEP_PROFILE, 0.1, SimplifiedModelParams(), substeps=substeps)


def test_step_rejects_nan_time(no_stage):
    with pytest.raises(ValueError, match="t must be"):
        step(0.3, math.nan, 0.05, LIGHT_STEP_PROFILE, 0.1, SimplifiedModelParams())


@pytest.mark.parametrize("profile", [LIGHT_STEP_PROFILE, DayNightLight()], ids=["held", "daynight"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, -0.005])
def test_a_time_not_finite_is_refused(no_stage, profile, t):
    """light_at and step blame t, not the light, for a time that is not finite,
    and for a negative one, under either light kind and either model, before
    any stage runs.  At t = -0.005 the last stage time, 0.095, is one light_at
    takes, so a check of that time alone would let t through."""
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        light_at(t, profile)
    for params in (FullModelParams(), SimplifiedModelParams()):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            step(0.3, t, 0.05, profile, 0.1, params)


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
def test_a_last_stage_time_past_the_floats_is_refused(no_stage, params):
    """At a finite t whose last stage time rounds to inf, step refuses that time as
    light_at does, before it binds any light."""
    with pytest.raises(ValueError, match="t must be finite and nonnegative, got inf"):
        step(0.3, 1.7e308, 0.05, DayNightLight(), 1e308, params)


@pytest.mark.parametrize("D", [math.nan, math.inf, -math.inf])
def test_step_refuses_a_non_finite_command(no_stage, D):
    with pytest.raises(IntegrationError, match="dilution command is not finite") as err:
        step(0.3, 0.5, D, LIGHT_STEP_PROFILE, 0.1, SimplifiedModelParams())
    assert (err.value.t, err.value.X) == (0.5, 0.3) and err.value.D is D


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


# Day/night periods: the night's start, mid-night, ending at the dawn exactly
# (23.9) and one float past it (239 * 0.1), straddling the dawn and the dusk,
# and from the dawn itself.
DAY_NIGHT_TIMES = [12.0, 18.0, 23.9, 239 * 0.1, 23.95, 11.95, 24.0, 36.0, 47.9]


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
@pytest.mark.parametrize("substeps", [1, 2, 10])
def test_day_night_step_matches_per_stage_light(params, substeps):
    """Under day/night light, step equals a per-stage RK4 bit for bit, held
    through the night or not."""
    dn = DayNightLight()
    for t in DAY_NIGHT_TIMES:
        for x0, D in ((0.3, 0.05), (1.2, 0.0)):
            got = step(x0, t, D, dn, 0.1, params, substeps=substeps)
            assert got == _per_stage_step(x0, t, D, dn, 0.1, params, substeps), t


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
    x0=st.floats(min_value=-1.0, max_value=2.0),
    D=st.floats(min_value=0.0, max_value=0.5),
    params=st.sampled_from([SimplifiedModelParams(), FullModelParams()]),
)
@example(case=(0.0, 0.1, 10, LIGHT_STEP_PROFILE), x0=-0.3, D=0.05, params=FullModelParams())
@example(case=(29.95, 0.1, 10, LIGHT_STEP_PROFILE), x0=-1e-300, D=0.5,
         params=SimplifiedModelParams())
def test_held_light_matches_per_stage_light_on_any_schedule(case, x0, D, params):
    """Either model, and also from a negative entering X, which the oracle
    clamps at every stage."""
    t, dt, substeps, profile = case
    got = step(x0, t, D, profile, dt, params, substeps=substeps)
    assert got == _per_stage_step(x0, t, D, profile, dt, params, substeps)


class _CountedLight:
    """A light that logs the time of each lookup, and of each held_until call."""

    def __init__(self, profile):
        self.profile, self.calls, self.held_calls = profile, [], []

    def __call__(self, t):
        self.calls.append(t)
        return self.profile(t)

    def held_until(self, t):
        self.held_calls.append(t)
        return self.profile.held_until(t)


def _stage_times(t, dt, substeps):
    """The distinct stage times t0, t0 + h/2 and t0 + h of each substep, in
    order, as step computes them: a substep's t0 that equals the previous
    substep's t0 + h bit for bit is that same time, and is not repeated."""
    h = dt / substeps
    times = []
    for i in range(substeps):
        t0 = t + i * h
        if times[-1:] != [t0]:
            times.append(t0)
        times += [t0 + 0.5 * h, t0 + h]
    return times


@pytest.mark.parametrize("substeps", [1, 2, 10])
def test_light_evaluations_per_period(substeps):
    """Once for a held period; at each distinct stage time, once and in
    order, across a switch and under day/night light."""
    sp = SimplifiedModelParams()

    def lookups(t, profile):
        light = _CountedLight(profile)
        step(0.3, t, 0.05, light, 0.1, sp, substeps=substeps)
        return light.calls

    assert lookups(10.0, LIGHT_STEP_PROFILE) == [10.0]
    assert lookups(29.95, LIGHT_STEP_PROFILE) == _stage_times(29.95, 0.1, substeps)
    assert lookups(10.0, DayNightLight()) == _stage_times(10.0, 0.1, substeps)
    # At night, up to a last stage at dawn exactly, once; across the dawn, at
    # each distinct stage time.
    for t in (12.0, 18.0, 23.9):
        assert lookups(t, DayNightLight()) == [t]
    for t in (239 * 0.1, 23.95):
        assert lookups(t, DayNightLight()) == _stage_times(t, 0.1, substeps)


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
def test_a_held_period_binds_once(monkeypatch, params):
    """A held period calls held_until, light_at and rate_at once each, as the
    simplified plant's runs do in all but their switching periods."""
    light, looked_up, bound = _CountedLight(LIGHT_STEP_PROFILE), [], []
    rate_at = type(params).rate_at

    def counted_light_at(t, profile):
        looked_up.append(t)
        return light_at(t, profile)

    def counted_rate_at(self, q0, geom):
        bound.append(q0)
        return rate_at(self, q0, geom)

    monkeypatch.setattr(plant, "light_at", counted_light_at)
    monkeypatch.setattr(type(params), "rate_at", counted_rate_at)
    step(0.3, 10.0, 0.05, light, 0.1, params)
    assert (light.held_calls, looked_up, light.calls, bound) == ([10.0], [10.0], [10.0], [600.0])


# step's results as the per-stage right-hand side gave them (a434ee1), as float.hex: both
# models, held and switching light, day/night at noon and at night, and a
# period whose last stage is clamped at X = 0 (D = 15 drives it below zero).
STEP_PINS = [
    ("full", "held", 10.0, 0.05, "step", 1, "0x1.339a0db9a6217p-2"),
    ("full", "held", 10.0, 0.05, "step", 10, "0x1.339a0db9a6225p-2"),
    ("full", "switch", 29.95, 0.05, "step", 1, "0x1.335f7d517ff04p-2"),
    ("full", "switch", 29.95, 0.05, "step", 10, "0x1.32f0853c423cbp-2"),
    ("full", "noon", 6.0, 0.05, "daynight", 10, "0x1.339a09a8da349p-2"),
    ("full", "night", 18.0, 0.05, "daynight", 1, "0x1.323bf6e0147b9p-2"),
    ("full", "clamped", 10.0, 15.0, "step", 1, "0x1.103d6b9273210p-4"),
    ("simplified", "held", 10.0, 0.05, "step", 1, "0x1.336baca7e2b1dp-2"),
    ("simplified", "held", 10.0, 0.05, "step", 10, "0x1.336baca7e2b1dp-2"),
    ("simplified", "switch", 29.95, 0.05, "step", 1, "0x1.3337c932b6792p-2"),
    ("simplified", "switch", 29.95, 0.05, "step", 10, "0x1.32d56af826831p-2"),
    ("simplified", "noon", 6.0, 0.05, "daynight", 10, "0x1.336bab7d1c543p-2"),
    ("simplified", "night", 18.0, 0.05, "daynight", 1, "0x1.3235490f4d8aap-2"),
    ("simplified", "clamped", 10.0, 15.0, "step", 1, "0x1.0f959ed1f4050p-4"),
]


@pytest.mark.parametrize("model, label, t, D, light, substeps, expected", STEP_PINS,
                         ids=[f"{p[0]}-{p[1]}-{p[5]}" for p in STEP_PINS])
def test_step_bits_pinned(model, label, t, D, light, substeps, expected):
    params = FullModelParams() if model == "full" else SimplifiedModelParams()
    profile = LIGHT_STEP_PROFILE if light == "step" else DayNightLight()
    assert step(0.3, t, D, profile, 0.1, params, substeps=substeps).hex() == expected


# step's result at an entering X and D for the full and the simplified model,
# as float.hex or the class of what it raises, the same under held and day/night
# light (at t = 10 h), as the stage helper gave them (d05d37c).  k1 clamps the entering X like every
# stage: a negative X runs as 0.0, and a NaN raises IntegrationError, not the
# full kernel's ValueError.
ENTRY_PINS = [
    (-0.1, 0.0, "0x0.0p+0", "0x0.0p+0"),
    (-0.1, 0.05, "0x0.0p+0", "0x0.0p+0"),
    (-0.1, 1e300, "0x0.0p+0", "0x0.0p+0"),
    (-0.0, 0.0, "0x0.0p+0", "0x0.0p+0"),
    (-0.0, 0.05, "0x0.0p+0", "0x0.0p+0"),
    (-0.0, 1e300, "0x0.0p+0", "0x0.0p+0"),
    (0.0, 0.0, "0x0.0p+0", "0x0.0p+0"),
    (0.0, 0.05, "0x0.0p+0", "0x0.0p+0"),
    (0.0, 1e300, "0x0.0p+0", "0x0.0p+0"),
    (math.nan, 0.0, IntegrationError, IntegrationError),
    (math.nan, 0.05, IntegrationError, IntegrationError),
    (math.nan, 1e300, IntegrationError, IntegrationError),
    (5e-324, 0.0, "0x0.0000000000001p-1022", "0x0.0000000000001p-1022"),
    (5e-324, 0.05, "0x0.0000000000001p-1022", "0x0.0000000000001p-1022"),
    (5e-324, 1e300, "0x0.0p+0", "0x0.0p+0"),
    (1e300, 0.0, "0x1.7d600de7e590fp+996", "0x1.7dc4a5ec9321bp+996"),
    (1e300, 0.05, "0x1.7b791cc761df9p+996", "0x1.7bdd345bbf074p+996"),
    (1e300, 1e300, IntegrationError, IntegrationError),
]


@pytest.mark.parametrize("X, D, full, simplified", ENTRY_PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in ENTRY_PINS])
@pytest.mark.parametrize("profile", [LIGHT_STEP_PROFILE, DayNightLight()], ids=["held", "daynight"])
def test_step_clamps_the_entering_state(X, D, full, simplified, profile):
    for params, expected in ((FullModelParams(), full), (SimplifiedModelParams(), simplified)):
        try:
            got = step(X, 10.0, D, profile, 0.1, params).hex()
        except Exception as exc:
            got = type(exc)
        assert got == expected, type(params).__name__


def test_integration_error_carries_context():
    """A non-finite state raises with the fault location attached."""
    bomb = FullModelParams(M_x=1e100, nu_O2_X=1e-100)
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


def test_empty_vessel_reads_positive_zero():
    """At X = 0 noise that makes 0 * (1 + nu) NaN (nu infinite, the 7th draw)
    or -0.0 (1 + nu < 0, the 2nd and 5th) still reads +0.0."""
    rng = np.random.default_rng(0)
    cfg = NoiseConfig(relative_std=1.7e308)
    assert [measure(0.0, cfg, rng).hex() for _ in range(8)] == [(0.0).hex()] * 8


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
