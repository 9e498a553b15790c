"""Plant integration, light schedules, and the measurement channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrsim.kinetics import FullModelParams
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
