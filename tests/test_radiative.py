"""Two-flux light attenuation: frozen values, limits, and invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pbrsim.kinetics import SimplifiedModelParams, growth_rate_simplified
from pbrsim.radiative import (
    Geometry,
    BACKSCATTER_FRACTION,
    Q0_OPTICS_MAX,
    irradiance_at_depth,
    optical_coefficients,
)

from oracles import mean_irradiance_simplified

L = 0.05


def test_optical_coefficients_frozen():
    """Cross sections at q0 = 600, high-precision reference values."""
    E_a, E_s = optical_coefficients(600.0)
    assert E_a == pytest.approx(157.8859696539479, rel=1e-14)
    assert E_s == pytest.approx(892.8712670357467, rel=1e-14)
    assert BACKSCATTER_FRACTION == 0.08


def test_optical_coefficients_monotone_in_q0():
    """Stronger light -> less pigment -> lower E_a, higher E_s."""
    (lo_E_a, lo_E_s), (hi_E_a, hi_E_s) = optical_coefficients(100.0), optical_coefficients(1000.0)
    assert hi_E_a < lo_E_a
    assert hi_E_s > lo_E_s


def test_optical_coefficients_validation():
    with pytest.raises(ValueError):
        optical_coefficients(0.0)
    with pytest.raises(ValueError):
        optical_coefficients(-5.0)
    with pytest.raises(ValueError):
        optical_coefficients(math.nan)
    # beyond exp(337/28) ~ 1.7e5 the absorption correlation goes non-positive
    with pytest.raises(ValueError):
        optical_coefficients(2e5)


def test_optics_bound_is_the_validity_edge():
    """Q0_OPTICS_MAX is where the absorption correlation reaches zero, and
    optical_coefficients accepts exactly the q0 below it."""
    assert Q0_OPTICS_MAX == pytest.approx(math.exp(337.0 / 28.0), rel=1e-15)
    below = math.nextafter(Q0_OPTICS_MAX, 0.0)
    assert 0.0 <= optical_coefficients(below)[0] < 1e-9
    with pytest.raises(ValueError):
        optical_coefficients(Q0_OPTICS_MAX)


def test_two_flux_coeffs_frozen():
    """G(z) at X = 0.3, q0 = 600 is the two-flux closed form for delta and
    alpha from 50-digit arithmetic."""
    alpha, delta = 0.72455655959639099, 65.372109697784177
    z = np.linspace(0.0, L, 11)
    up, down = 1.0 + alpha, 1.0 - alpha
    num = up * np.exp(-delta * z) - down * np.exp(-delta * (2.0 * L - z))
    G = 2.0 * 600.0 * num / (up * up - down * down * math.exp(-2.0 * delta * L))
    np.testing.assert_allclose(irradiance_at_depth(z, 0.3, 600.0), G, rtol=1e-14, atol=0)


def test_two_flux_coeffs_negative_biomass():
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            irradiance_at_depth(0.02, bad, 600.0)


def test_irradiance_frozen_profile():
    """G(z) at three depths, X = 0.3, q0 = 600 (50-digit reference)."""
    assert irradiance_at_depth(0.0, 0.3, 600.0) == pytest.approx(
        695.69577170929648, rel=1e-13
    )
    assert irradiance_at_depth(0.025, 0.3, 600.0) == pytest.approx(
        134.92832975852529, rel=1e-13
    )
    assert irradiance_at_depth(0.05, 0.3, 600.0) == pytest.approx(
        22.253963545931995, rel=1e-13
    )


def test_irradiance_clear_culture_passes_light_through():
    """X = 0 leaves the slab transparent: G(z) = q0 at every depth."""
    z = np.linspace(0.0, L, 11)
    assert np.array_equal(irradiance_at_depth(z, 0.0, 600.0), np.full(11, 600.0))


def test_irradiance_dark():
    assert irradiance_at_depth(0.02, 0.3, 0.0) == 0.0


def test_irradiance_monotone_in_depth():
    """The forward-dominated two-flux profile strictly decreases with depth."""
    z = np.linspace(0.0, L, 201)
    for X in (0.05, 0.3, 1.0):
        for q0 in (100.0, 600.0, 1000.0):
            g = irradiance_at_depth(z, X, q0)
            assert np.all(np.diff(g) < 0.0)


def test_irradiance_linear_in_q0_with_pinned_props():
    """Holding the acclimation state fixed, G is exactly linear in q0."""
    props = optical_coefficients(600.0)
    z = np.linspace(0.0, L, 101)
    g1 = irradiance_at_depth(z, 0.3, 250.0, props=props)
    g2 = irradiance_at_depth(z, 0.3, 500.0, props=props)
    assert np.array_equal(g2, 2.0 * g1)  # doubling is exact in floats
    g3 = irradiance_at_depth(z, 0.3, 750.0, props=props)
    np.testing.assert_allclose(g3, 3.0 * g1, rtol=5e-15)


def test_irradiance_beer_lambert_limit():
    """Without scattering the profile collapses to a single exponential."""
    props = optical_coefficients(600.0)
    z = np.linspace(0.0, L, 101)
    g = irradiance_at_depth(z, 0.3, 600.0, props=(props[0], 0.0))
    beer = 600.0 * np.exp(-0.3 * props[0] * z)
    assert np.max(np.abs(g - beer)) <= 1e-8


def test_irradiance_validation():
    with pytest.raises(ValueError):
        irradiance_at_depth(-0.01, 0.3, 600.0)
    with pytest.raises(ValueError):
        irradiance_at_depth(0.06, 0.3, 600.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            irradiance_at_depth(0.02, 0.3, bad)


Z_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=L * (1 + 1e-15)),
    st.sampled_from([0.0, -0.0, L, math.nextafter(L, 1.0), -5e-324, math.nan]),
)


@settings(max_examples=300)
@given(
    z=st.one_of(
        Z_ENTRIES,
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0), elements=Z_ENTRIES),
    ),
    q0=st.sampled_from([0.0, 600.0]),
)
def test_depth_check_matches_any_expression(z, q0):
    """irradiance_at_depth rejects exactly the z that the elementwise
    np.any(z < 0) or np.any(z > depth) test rejects: NaN entries pass, empty
    arrays pass, on scalars, 0-d, 1-D and 2-D input alike."""
    arr = np.asarray(z, dtype=float)
    expected = bool(np.any(arr < 0) or np.any(arr > L))
    try:
        irradiance_at_depth(z, 0.3, q0)
    except ValueError:
        rejected = True
    else:
        rejected = False
    assert rejected == expected


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(depth=0.0)


@settings(max_examples=200)
@given(
    z=st.floats(min_value=0.0, max_value=L),
    X=st.floats(min_value=0.0, max_value=sys.float_info.max),
    q0=st.floats(min_value=1.0, max_value=1e5),
)
@example(z=0.0, X=1e306, q0=600.0)
@example(z=0.0, X=1e308, q0=600.0)
@example(z=0.0, X=sys.float_info.max, q0=600.0)
def test_irradiance_bounded(z, X, q0):
    """0 <= G(z) <= 2 q0 everywhere the correlations are valid."""
    g = irradiance_at_depth(z, X, q0)
    assert 0.0 <= g <= 2.0 * q0
    assert math.isfinite(g)


def _simpson_mean_of_exponential(X, q0, c, n=4097):
    z = np.linspace(0.0, L, n)
    g = q0 * np.exp(-c * X * z)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ g / (3.0 * (n - 1)))


def test_mean_irradiance_closed_form_vs_quadrature():
    """Depth-mean closed form vs a 4097-node Simpson oracle, <= 1e-10 rel."""
    sp = SimplifiedModelParams()
    c = (1.0 + sp.alpha_hat) / (2.0 * sp.alpha_hat) * sp.E_a_hat
    for X in (0.01, 0.05, 0.1, 0.3, 0.5, 0.75, 1.0):
        for q0 in (100.0, 300.0, 600.0, 1000.0):
            closed = mean_irradiance_simplified(X, q0, sp)
            oracle = _simpson_mean_of_exponential(X, q0, c)
            assert abs(closed - oracle) / oracle <= 1e-10


def test_mean_irradiance_frozen():
    """Closed form at X = 0.3, q0 = 600 (50-digit reference)."""
    sp = SimplifiedModelParams()
    assert mean_irradiance_simplified(0.3, 600.0, sp) == pytest.approx(
        205.59441207776388, rel=1e-14
    )


def test_mean_irradiance_clear_limit():
    sp = SimplifiedModelParams()
    assert mean_irradiance_simplified(0.0, 600.0, sp) == 600.0


def test_mean_irradiance_monotone_in_biomass():
    """Denser culture shades itself: the depth mean decreases with X."""
    sp = SimplifiedModelParams()
    vals = [mean_irradiance_simplified(X, 600.0, sp) for X in np.linspace(0.0, 1.0, 21)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_mean_irradiance_validation():
    """src computes the lumped light inside the bound rate, so its checks are
    the rate's: growth_rate_simplified refuses a bad X, rate_at a bad q0."""
    sp = SimplifiedModelParams()
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="X must be nonnegative"):
            growth_rate_simplified(bad, 600.0, sp)
    for bad in (-600.0, math.nan):
        with pytest.raises(ValueError, match="q0 must be nonnegative"):
            sp.rate_at(bad, Geometry())
