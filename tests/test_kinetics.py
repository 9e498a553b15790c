"""Growth kinetics: frozen oracles, the Simpson oracle of the closed-form
kernel, each model's bound rate."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbrsim import kinetics
from pbrsim.kinetics import (
    SECONDS_PER_HOUR,
    FullModelParams,
    SimplifiedModelParams,
    growth_rate_simplified,
    local_oxygen_rate,
    mean_oxygen_rate,
)
from pbrsim.plant import PiecewiseConstant, step
from pbrsim.radiative import (
    _CLEAR_SLAB_THICKNESS,
    BACKSCATTER_FRACTION,
    Q0_OPTICS_MAX,
    Geometry,
    irradiance_at_depth,
    optical_coefficients,
)

from oracles import haldane_rate, mean_irradiance_simplified


def test_dark_rate_is_uninhibited_respiration():
    """In the dark only respiration runs: -resp_rate converted to hours."""
    p = FullModelParams()
    assert mean_oxygen_rate(0.3, 0.0, p) == -p.resp_rate * SECONDS_PER_HOUR
    assert mean_oxygen_rate(0.3, 0.0, p) == pytest.approx(-1.1484, rel=1e-14)
    for X in (1e306, 1e308, sys.float_info.max):  # opaque: dark behind the lit face
        for q0 in (100.0, 600.0, 1000.0):
            assert mean_oxygen_rate(X, q0, p) == -p.resp_rate * SECONDS_PER_HOUR, (X, q0)
    assert local_oxygen_rate(0.0, 157.0, p) == pytest.approx(
        -p.resp_rate * SECONDS_PER_HOUR, rel=1e-14
    )


def test_local_rate_half_saturation_identity():
    """At G = K the photo term sits at half its bright-light plateau."""
    p = FullModelParams()
    E_a = 157.8859696539479
    expected = (
        p.rho_m * 0.5 * p.phi_prime * E_a * p.K
        - p.resp_rate * p.K_R / (p.K_R + p.K)
    ) * SECONDS_PER_HOUR
    assert local_oxygen_rate(p.K, E_a, p) == pytest.approx(expected, rel=1e-14)


def test_local_rate_vectorized():
    p = FullModelParams()
    G = np.array([0.0, 60.0, 600.0])
    out = local_oxygen_rate(G, 157.0, p)
    assert out.shape == (3,)
    assert out[0] < 0 < out[2]


def test_mean_oxygen_rate_frozen_oracle():
    """<J_O2> at X = 0.3, q0 = 600 against adaptive-quadrature reference."""
    # 50-digit adaptive quadrature of the two-flux integrand: 3.1102529983154459
    val = mean_oxygen_rate(0.3, 600.0)
    assert val == pytest.approx(3.1102529983154459, rel=5e-9)


def _simpson_mean_oxygen_rate(X, q0, n_nodes, geom=Geometry()):
    """Composite Simpson mean of the local O2 rate over the two-flux profile."""
    z = np.linspace(0.0, geom.depth, n_nodes)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    G = irradiance_at_depth(z, X, q0, geom)
    values = local_oxygen_rate(G, optical_coefficients(q0)[0])
    return float(weights @ values / (3.0 * (n_nodes - 1)))


def _rel_gap(X, q0, n_nodes=20001, geom=Geometry()):
    exact = mean_oxygen_rate(X, q0, FullModelParams(), geom)
    return abs(exact - _simpson_mean_oxygen_rate(X, q0, n_nodes, geom)) / abs(exact)


def test_mean_oxygen_rate_grid_doubling():
    """The kernel meets a 20,001-node Simpson mean over the steady operating
    envelope."""
    pairs = [(0.05, 100.0), (0.17, 100.0), (0.25, 100.0), (0.3, 300.0),
             (0.17, 600.0), (0.3, 600.0), (0.4, 600.0), (0.47, 600.0),
             (0.3, 1000.0), (0.47, 1000.0)]
    for X, q0 in pairs:
        assert _rel_gap(X, q0) <= 1e-11, (X, q0)


def test_mean_oxygen_rate_matches_simpson_oracle():
    """The closed form meets a 20,001-node Simpson mean from the optically
    empty to the optically thick slab, and from the least positive light to
    the edge of the optical correlations."""
    Xs = [0.0, *np.logspace(-14, -3, 12).tolist(), *np.linspace(1e-3, 20.0, 15).tolist()]
    q0s = [5e-324, 1e-300, 1e-100, 1e-10, 1.0, 100.0, 600.0, 1000.0, 1e4,
           0.999 * Q0_OPTICS_MAX]
    for X in Xs:
        for q0 in q0s:
            assert _rel_gap(X, q0) <= 1e-11, (X, q0)


@pytest.mark.parametrize("depth", [0.05, 0.1])
def test_mean_oxygen_rate_thin_slab_edge(depth):
    """Just below and just above an optical thickness of 1e-3, the closed
    form meets the oracle and has no seam: both sides agree to 1e-11."""
    geom = Geometry(depth)
    for q0 in (5e-324, 100.0, 600.0, 0.999 * Q0_OPTICS_MAX):
        E_a, E_s = optical_coefficients(q0)
        diffuse = E_a + 2.0 * BACKSCATTER_FRACTION * E_s
        X_edge = 1e-3 / (math.sqrt(E_a * diffuse) * depth)
        below, above = X_edge * (1.0 - 1e-9), X_edge * (1.0 + 1e-9)
        for X in (below, above):
            assert _rel_gap(X, q0, geom=geom) <= 1e-11, (X, q0)
        a = mean_oxygen_rate(below, q0, FullModelParams(), geom)
        b = mean_oxygen_rate(above, q0, FullModelParams(), geom)
        assert abs(a - b) <= 1e-11 * abs(b), q0


def test_simpson_converges_to_kernel_at_h4():
    """Each tenfold refinement of Simpson's grid cuts its gap to the kernel
    about 1e4-fold: the h^4 rate, so the kernel is its limit."""
    for X, q0 in ((3.0, 600.0), (5.0, 600.0), (5.0, 100.0)):
        gaps = [_rel_gap(X, q0, n) for n in (101, 1001, 10001)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 10**3.7 <= coarse / fine <= 10**4.3, (X, q0, gaps)


def _reference_mean_oxygen_rate(X, q0, p, geom, n_nodes):
    """The kernel as first written: a fresh grid, fresh Simpson weights and
    the two-flux profile inline."""
    if q0 == 0:
        return float(-p.resp_rate * SECONDS_PER_HOUR)
    z = np.linspace(0.0, geom.depth, n_nodes)
    E_a, E_s = optical_coefficients(q0)
    diffuse = E_a + 2.0 * BACKSCATTER_FRACTION * E_s
    delta, alpha = X * math.sqrt(E_a * diffuse), math.sqrt(E_a / diffuse)
    L = geom.depth
    if delta * L < 1e-12:
        G = q0 * np.ones_like(z)
    else:
        up, down = 1.0 + alpha, 1.0 - alpha
        num = up * np.exp(-delta * z) - down * np.exp(-delta * (2.0 * L - z))
        den = up * up - down * down * math.exp(-2.0 * delta * L)
        G = 2.0 * q0 * num / den
    values = local_oxygen_rate(G, E_a, p)
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ values / (3.0 * (n_nodes - 1)))


def _refined_reference(X, q0, p, geom, n_nodes):
    """Halve the reference pipeline's step from n_nodes nodes until two
    grids agree to 1e-10, then take the Richardson limit of the pair."""
    coarse = _reference_mean_oxygen_rate(X, q0, p, geom, n_nodes)
    while n_nodes < 2**17:
        n_nodes = 2 * n_nodes - 1
        fine = _reference_mean_oxygen_rate(X, q0, p, geom, n_nodes)
        if abs(fine - coarse) <= 1e-10 * abs(fine):
            return fine + (fine - coarse) / 15.0
        coarse = fine
    raise AssertionError(f"reference did not converge at X={X}, q0={q0}")


@pytest.mark.parametrize("depth", [0.05, 0.1])
@pytest.mark.parametrize("n_nodes", [3, 5, 101, 201])
def test_mean_oxygen_rate_equals_reference_pipeline(depth, n_nodes):
    """The closed-form kernel is the limit of the Simpson pipeline it
    replaced, refined from any starting grid, on both slab depths."""
    p, geom = FullModelParams(), Geometry(depth)
    rng = np.random.default_rng(n_nodes)
    pairs = [(0.0, 600.0), (0.3, 0.0), (0.0, 0.0), (2.0, 1000.0)]
    pairs += zip(rng.uniform(0.0, 2.0, 200).tolist(), rng.uniform(0.0, 2000.0, 200).tolist())
    for X, q0 in pairs:
        expected = _refined_reference(X, q0, p, geom, n_nodes)
        got = mean_oxygen_rate(X, q0, p, geom)
        assert abs(got - expected) <= 1e-11 * abs(expected), (X, q0)


# mean_oxygen_rate at the default params and geometry, as computed before
# the kernel kept its q0-only constants: (X, q0, float.hex of the rate).
Q0_TOP = 0.999 * Q0_OPTICS_MAX
RATE_BITS = [
    (0.0, 600.0, "0x1.4535a66ab0999p+2"),
    (1e-300, 600.0, "0x1.4535a66ab0999p+2"),
    (1e-14, 600.0, "0x1.4535a66ab0999p+2"),  # clear slab
    (1e-12, 600.0, "0x1.4535a66aafaabp+2"),  # just past it
    (1e-9, 600.0, "0x1.4535a6670b74ep+2"),
    (1e-4, 600.0, "0x1.453015b88d402p+2"),
    (0.05, 100.0, "0x1.83a4494450ff7p+1"),
    (0.3, 600.0, "0x1.8e1cc52f06803p+1"),
    (0.3, 1000.0, "0x1.c78c50e10663cp+1"),
    (1.0, 250.0, "-0x1.1fdfaca3d5aacp-4"),
    (3.0, 600.0, "-0x1.3ed5af4273ecap-1"),
    (30.0, 1500.0, "-0x1.13a2b2da3fe71p+0"),
    (1e4, 600.0, "-0x1.25f3350a66e62p+0"),
    (1e306, 600.0, "-0x1.25fd8adab9f56p+0"),  # opaque
    (1e306, 5e-324, "-0x1.25fd8adab9f56p+0"),
    (0.3, 5e-324, "-0x1.25fd8adab9f56p+0"),
    (0.3, 1e-300, "-0x1.25fd8adab9f56p+0"),
    (0.3, Q0_TOP, "0x1.0fea429de7111p-10"),
    (1e-12, Q0_TOP, "0x1.115534626e64cp-10"),
    (0.3, np.float64(600.0), "0x1.8e1cc52f06803p+1"),
    (2.0, np.float64(37.5), "-0x1.f32061d3b4599p-1"),
]


@pytest.mark.parametrize("X, q0, bits", RATE_BITS)
def test_mean_oxygen_rate_bits(X, q0, bits):
    assert mean_oxygen_rate(X, q0).hex() == bits


def test_mean_oxygen_rate_bits_alternating_lights():
    """Each call gives the pinned bits whichever light the call before used."""
    a, b = RATE_BITS[7], RATE_BITS[9]  # (0.3, 600), (1.0, 250)
    for X, q0, bits in (a, b, a, a, b, b, a, RATE_BITS[8], a):
        assert mean_oxygen_rate(X, q0).hex() == bits, (X, q0)


def test_refused_light_leaves_the_next_rate():
    """A q0 the optics refuse raises between two valid calls and changes
    neither result."""
    for X, q0, bits in RATE_BITS[7:10]:
        assert mean_oxygen_rate(X, q0).hex() == bits
        with pytest.raises(ValueError):
            mean_oxygen_rate(X, Q0_OPTICS_MAX)
        assert mean_oxygen_rate(X, q0).hex() == bits


def test_optics_computed_once_per_new_light(monkeypatch):
    """A run of calls at one q0 computes the cross sections once."""
    calls = []

    def counted(q0):
        calls.append(q0)
        return cross_sections(q0)

    cross_sections = kinetics.optical_coefficients
    monkeypatch.setattr(kinetics, "optical_coefficients", counted)
    for q0 in (613.25, 613.25, 613.5, 613.5, 613.5, 613.25):
        for X in (0.1, 0.3, 0.7):
            mean_oxygen_rate(X, q0)
    assert calls == [613.25, 613.5, 613.25]


def _light_from_props(q0):
    """_light's constants by way of optical_coefficients, each in the closed form's own order."""
    E_a, E_s = optical_coefficients(q0)
    diffuse = E_a + 2.0 * BACKSCATTER_FRACTION * E_s
    extinction, alpha = math.sqrt(E_a * diffuse), math.sqrt(E_a / diffuse)
    up, down = 1.0 + alpha, 1.0 - alpha
    return (E_a, extinction, up**2, down**2, 4.0 * q0 * up, 2.0 * q0 * down,
            4.0 * q0 * alpha)


def test_light_constants_equal_the_props_recipe():
    """Every constant of _light equals the optical_coefficients recipe bit for bit,
    from the smallest positive q0 to the last one below Q0_OPTICS_MAX."""
    top = math.nextafter(Q0_OPTICS_MAX, 0.0)
    rng = np.random.default_rng(22)
    q0s = [5e-324, 1e-300, 100.0, 600.0, 1000.0, top, *np.geomspace(5e-324, top, 1000).tolist(),
           *rng.uniform(1.0, top, 500).tolist()]
    for q0 in q0s:
        assert [v.hex() for v in kinetics._light(q0)] == [
            v.hex() for v in _light_from_props(q0)], q0


@pytest.mark.parametrize("q0, message", [
    (0.0, "q0 must be positive, got 0.0"),
    (-0.0, "q0 must be positive, got -0.0"),
    (-5.0, "q0 must be positive, got -5.0"),
    (math.nan, "q0 must be positive, got nan"),
    (Q0_OPTICS_MAX, f"q0={Q0_OPTICS_MAX} outside the validity range of the absorption correlation"),
    (math.inf, "q0=inf outside the validity range of the absorption correlation"),
])
def test_refused_light_raises_the_optics_message(q0, message):
    """A new light that the correlations refuse raises optical_coefficients'
    own ValueError, word for word."""
    for compute in (optical_coefficients, kinetics._light):
        with pytest.raises(ValueError) as err:
            compute(q0)
        assert str(err.value) == message


def test_mean_oxygen_rate_validation():
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            mean_oxygen_rate(bad, 600.0)
        with pytest.raises(ValueError):
            growth_rate_simplified(bad, 600.0)
    for bad in (-10.0, math.nan, Q0_OPTICS_MAX):
        with pytest.raises(ValueError):
            mean_oxygen_rate(0.3, bad)


def test_growth_rate_full_frozen():
    assert FullModelParams().rate_at(600.0, Geometry())(0.3) == pytest.approx(
        0.018929688578082183, rel=1e-12
    )


def test_growth_rate_full_empty_vessel():
    assert FullModelParams().rate_at(600.0, Geometry())(0.0) == 0.0


def test_growth_rate_simplified_frozen():
    assert growth_rate_simplified(0.3, 600.0) == pytest.approx(
        0.017154085048106376, rel=1e-12
    )


def test_growth_rate_simplified_haldane_arithmetic():
    """Rate equals the Haldane response at the depth-mean irradiance."""
    sp = SimplifiedModelParams()
    G = mean_irradiance_simplified(0.3, 600.0, sp)
    mu = sp.mu_0 * G / (sp.K_I + G + G * G / sp.K_II) - sp.mu_r
    assert growth_rate_simplified(0.3, 600.0, sp) == pytest.approx(
        mu * 0.3, rel=1e-14
    )


@settings(max_examples=300, deadline=None)
@given(
    X=st.one_of(st.just(0.0), st.just(1e-14), st.floats(min_value=0.0, max_value=20.0)),
    q0=st.floats(min_value=0.0, max_value=1e5),
)
@example(X=1e-14, q0=600.0)  # a clear slab
def test_bound_simplified_rate_is_the_rate(X, q0):
    """rate_at(q0, geom)(X) == growth_rate_simplified bit for bit, and equals
    the Haldane response at the depth-mean light, in that order."""
    sp, geom = SimplifiedModelParams(), Geometry()
    G = mean_irradiance_simplified(X, q0, sp, geom)
    oracle = (sp.mu_0 * G / (sp.K_I + G + G * G / sp.K_II) - sp.mu_r) * X
    got = [sp.rate_at(q0, geom)(X), growth_rate_simplified(X, q0, sp, geom)]
    assert [r.hex() for r in got] == [oracle.hex()] * 2


def _clear_slab_edge(sp, geom):
    """The largest X whose slab is clear (cXL below the clear-slab thickness),
    and the float after it, whose slab is not."""
    c = (1.0 + sp.alpha_hat) / (2.0 * sp.alpha_hat) * sp.E_a_hat
    X = _CLEAR_SLAB_THICKNESS / (c * geom.depth)
    while c * X * geom.depth >= _CLEAR_SLAB_THICKNESS:
        X = math.nextafter(X, 0.0)
    while c * math.nextafter(X, math.inf) * geom.depth < _CLEAR_SLAB_THICKNESS:
        X = math.nextafter(X, math.inf)
    return X, math.nextafter(X, math.inf)


@pytest.mark.parametrize(
    "q0", [0.0, 5e-324, 100.0, 600.0, np.float64(600.0), np.float64(777.7), 1000.0, 1e5], ids=repr
)
def test_bound_simplified_rate_equals_the_oracle(q0):
    """The bound closure, which computes the exponential mean inline, equals the
    oracle's Haldane rate of the exponential mean by float.hex: at the empty
    vessel, the least subnormal, both sides of the clear-slab edge, 1 and 1e300."""
    for sp, geom in ((SimplifiedModelParams(), Geometry()),
                     (SimplifiedModelParams(mu_0=0.21, alpha_hat=0.5, E_a_hat=90.0),
                      Geometry(depth=0.3))):
        below, above = _clear_slab_edge(sp, geom)
        rate = sp.rate_at(q0, geom)
        for X in (0.0, 5e-324, below, above, 1.0, 1e300):
            assert rate(X).hex() == haldane_rate(X, q0, sp, geom).hex(), (sp, geom, X)


@settings(max_examples=300, deadline=None)
@given(
    X=st.one_of(st.just(0.0), st.just(1e-16), st.floats(min_value=0.0, max_value=20.0)),
    q0=st.floats(min_value=5e-324, max_value=math.nextafter(Q0_OPTICS_MAX, 0.0)),
)
@example(X=1e-16, q0=600.0)  # a clear slab
@example(X=0.3, q0=5e-324)
@example(X=20.0, q0=math.nextafter(Q0_OPTICS_MAX, 0.0))
def test_bound_full_rate_is_the_rate(X, q0):
    """rate_at(q0, geom)(X) equals the mean O2 rate times M_x * X / nu_O2_X,
    in that order, bit for bit."""
    p, geom = FullModelParams(), Geometry()
    oracle = 0.0 if X == 0 else mean_oxygen_rate(X, q0, p, geom) * p.M_x * X / p.nu_O2_X
    assert p.rate_at(q0, geom)(X).hex() == oracle.hex()


@pytest.mark.parametrize("params", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
def test_bound_rate_refuses_a_bad_q0(params):
    """Both models refuse a negative, infinite or NaN light when they bind,
    before any X; a dark light binds, and its rate is the decay of the dark culture."""
    for bad in (-5.0, -600.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="q0 must be nonnegative"):
            params.rate_at(bad, Geometry())
    dark = params.rate_at(0.0, Geometry())
    assert dark(0.0) == 0.0 and dark(0.3) < 0.0


def test_full_rate_binds_exactly_its_q0_range():
    """The full model refuses at bind a light at or beyond the optics edge, the one float
    below it binds, and a clear culture under such a light raises instead of stepping to 0."""
    top = math.nextafter(Q0_OPTICS_MAX, 0.0)
    assert FullModelParams.q0_range == (0.0, top)
    message = re.escape(f"q0 must be nonnegative and at most {top!r}, got ")
    for bad in (Q0_OPTICS_MAX, 2e5, math.inf):
        with pytest.raises(ValueError, match=message):
            FullModelParams().rate_at(bad, Geometry())
    p = FullModelParams()
    assert p.rate_at(top, Geometry())(0.3) == mean_oxygen_rate(0.3, top) * p.M_x * 0.3 / p.nu_O2_X
    with pytest.raises(ValueError, match=message):
        step(0.0, 0.0, 0.1, PiecewiseConstant(((0.0, 2e5),)), 0.1)


def test_specific_growth_rate_consistency():
    """mu = r_X / X is the mean O2 rate times M_x / nu_O2_X; r_X(0) = 0."""
    p = FullModelParams()
    rate = p.rate_at(600.0, Geometry())
    mu = rate(0.3) / 0.3
    assert mu == pytest.approx(mean_oxygen_rate(0.3, 600.0) * p.M_x / p.nu_O2_X, rel=1e-12)
    assert rate(0.0) == 0.0


def test_dark_growth_is_decay():
    """Without light the net rate is negative (respiration only)."""
    assert FullModelParams().rate_at(0.0, Geometry())(0.3) < 0.0
    assert growth_rate_simplified(0.3, 0.0) < 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        FullModelParams(K=-1.0)
    with pytest.raises(ValueError):
        FullModelParams(resp_rate=0.0)
    with pytest.raises(ValueError):
        SimplifiedModelParams(mu_0=-0.1)


def test_K_range():
    """K up to 1e10 is accepted; above it the photo term K - K^2 I(K) loses
    more than 1e-9 to cancellation, and from 1.4e154 it is NaN."""
    assert FullModelParams(K=1e10).K == 1e10
    for bad in (1e12, 1e300):
        with pytest.raises(ValueError, match=r"K must lie in \(0, 1e\+10\], got "):
            FullModelParams(K=bad)


@settings(max_examples=150)
@given(
    X=st.floats(min_value=0.0, max_value=sys.float_info.max),
    q0=st.floats(min_value=0.0, max_value=1000.0),
)
@example(X=1e306, q0=100.0)
@example(X=1e308, q0=600.0)
@example(X=sys.float_info.max, q0=1000.0)
def test_growth_rate_finite_and_bounded(X, q0):
    """Rates stay finite; the specific rate never exceeds the photo plateau."""
    p = FullModelParams()
    r = p.rate_at(q0, Geometry())(X)
    assert math.isfinite(r)
    # plateau: rho_m * K * phi' * E_a(q0->small) bounds the local O2 rate
    plateau = p.rho_m * p.K * p.phi_prime * 337.0 * SECONDS_PER_HOUR
    assert r <= plateau * p.M_x / p.nu_O2_X * max(X, 1.0)
