"""Productivity-optimal setpoints: anchors, optimality, and the map."""

import math
import warnings

import numpy as np
import pytest

from pbrsim import kinetics, steady_state
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.radiative import Geometry
from pbrsim.steady_state import (
    GRID_POINTS,
    Q0_VALID_RANGE,
    SCAN_MARGIN,
    X_MAX,
    X_MIN,
    X_TOL,
    NoAdmissibleSetpointError,
    _golden_max,
    optimal_setpoint,
    setpoint_map,
)

GRID = np.linspace(X_MIN, X_MAX, GRID_POINTS)
MAP_Q0 = [100.0 + 900.0 * i / 45 for i in range(46)]  # the benchmark's map grid


def _unchecked(**values):
    """FullModelParams holding values that its range check refuses, so that
    the kernel's own extremes can be reached."""
    p = FullModelParams()
    for name, value in values.items():
        object.__setattr__(p, name, value)
    return p


def _outcome(f):
    """float.hex of each value f returns, or the class of what it raises."""
    try:
        return [v.hex() for v in f()]
    except Exception as exc:
        return type(exc)


def _scalar_setpoint(q0, p=FullModelParams(), geom=Geometry()):
    """(x_star, productivity) with the scan made by the scalar bound rate on
    Python floats, one X at a time."""
    rate = p.rate_at(q0, geom)
    grid = GRID.tolist()
    best = int(np.argmax([rate(x) for x in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    x_star = _golden_max(rate, lo, hi, X_TOL)
    return x_star, rate(x_star)


def _refuse(*args):
    raise AssertionError("the scan fell back")


def test_setpoint_anchors():
    """Optimal biomass near the benchmark values at both light levels."""
    bright = optimal_setpoint(600.0)
    dim = optimal_setpoint(100.0)
    assert abs(bright.x_star - 0.38) / 0.38 <= 0.20
    assert abs(dim.x_star - 0.17) / 0.17 <= 0.20


def test_setpoint_frozen_values():
    """Regression pins at golden-section tolerance (x_tol = 1e-5)."""
    op = optimal_setpoint(600.0)
    assert op.x_star == pytest.approx(0.39845345173368407, abs=2e-5)
    assert op.d_star == pytest.approx(0.0496560173752907, rel=1e-4)
    assert op.productivity == pytest.approx(0.01978561152253237, rel=1e-6)
    op = optimal_setpoint(100.0)
    assert op.x_star == pytest.approx(0.20182086195952736, abs=2e-5)


def test_setpoint_is_local_maximum():
    """Productivity drops when stepping off X* in either direction."""
    for q0 in (100.0, 600.0, 1000.0):
        op, rate = optimal_setpoint(q0), FullModelParams().rate_at(q0, Geometry())
        for eps in (1e-3, 1e-2):
            assert op.productivity >= rate(op.x_star - eps)
            assert op.productivity >= rate(op.x_star + eps)


def test_setpoint_matches_coarse_brute_force():
    """Golden refinement agrees with a dense grid scan of D X = r_X."""
    xs = np.linspace(0.01, 2.0, 2001)
    for q0 in (100.0, 300.0, 600.0, 1000.0):
        prods = np.array([FullModelParams().rate_at(q0, Geometry())(float(x)) for x in xs])
        x_brute = float(xs[int(np.argmax(prods))])
        op = optimal_setpoint(q0)
        assert abs(op.x_star - x_brute) <= (xs[1] - xs[0]) + 1e-5


def test_productivity_identity():
    """At steady state the productivity is exactly D* X*."""
    op = optimal_setpoint(600.0)
    assert op.productivity == pytest.approx(op.d_star * op.x_star, rel=1e-12)
    assert op.productivity == pytest.approx(
        FullModelParams().rate_at(600.0, Geometry())(op.x_star), rel=1e-10
    )


def test_equilibrium_dilution_matches_specific_growth():
    d = FullModelParams().rate_at(600.0, Geometry())(0.38) / 0.38
    assert d == pytest.approx(0.05199768938012274, rel=1e-12)


def test_equilibrium_derivative_vanishes():
    """The optimizer's (X*, D*) is a true steady state of the plant."""
    from pbrsim.plant import plant_derivative

    op = optimal_setpoint(600.0)
    assert abs(plant_derivative(op.x_star, op.d_star, 600.0)) <= 1e-12


def test_setpoint_determinism():
    a = optimal_setpoint(600.0)
    b = optimal_setpoint(600.0)
    assert (a.x_star, a.d_star, a.productivity) == (b.x_star, b.d_star, b.productivity)


def test_setpoint_map_structure():
    grid = [100.0 + 100.0 * i for i in range(10)]
    points = setpoint_map(grid)
    assert len(points) == 10
    assert [p.q0 for p in points] == grid
    x = [p.x_star for p in points]
    prod = [p.productivity for p in points]
    # stronger light supports denser and more productive cultures
    assert all(b > a for a, b in zip(x, x[1:]))
    assert all(b > a for a, b in zip(prod, prod[1:]))


def test_dilution_stays_admissible_over_map():
    for p in setpoint_map([100.0, 400.0, 700.0, 1000.0]):
        assert 0.0 <= p.d_star <= 0.5


def test_q0_range_validation():
    lo, hi = Q0_VALID_RANGE
    with pytest.raises(ValueError):
        optimal_setpoint(lo - 1.0)
    with pytest.raises(ValueError):
        optimal_setpoint(hi + 1.0)


def test_no_admissible_setpoint():
    """Respiration 1000x too strong: no positive-productivity culture."""
    dead = FullModelParams(resp_rate=3.19e-1)
    with pytest.raises(NoAdmissibleSetpointError):
        optimal_setpoint(600.0, dead)


def test_setpoint_scan_type_leaves_bits(monkeypatch):
    """The array scan finds the setpoints a scalar scan finds, bit for bit;
    the golden steps hand the kernel Python floats, and with every X an
    np.float64 they carry the same bits."""
    rng = np.random.default_rng(11)
    q0s = MAP_Q0 + [100.0 + 100.0 * i for i in range(10)]
    q0s += rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    ops = [optimal_setpoint(q0) for q0 in q0s]
    assert all(type(op.x_star) is float for op in ops)
    assert [(op.x_star, op.productivity) for op in ops] == list(map(_scalar_setpoint, q0s))
    bound = FullModelParams.rate_at
    binds = []

    def float64_rate_at(p, q0, geom):
        binds.append(q0)
        rate = bound(p, q0, geom)
        return lambda x: rate(np.float64(x))

    monkeypatch.setattr(FullModelParams, "rate_at", float64_rate_at)
    for q0, op in zip(q0s, ops):
        ref = optimal_setpoint(q0)
        assert (op.x_star, op.productivity) == (ref.x_star, ref.productivity), q0
    assert binds == q0s  # one bound rate per solve, and no scalar scan


def test_scan_equals_the_bound_rate(monkeypatch):
    """Each of the scan's 200 values is the scalar bound rate's, bit for bit,
    at the map's lights and 1,000 random ones, from one array pass."""
    rng = np.random.default_rng(19)
    q0s = MAP_Q0 + rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    p, geom = FullModelParams(), Geometry()
    expected = [_outcome(lambda: map(p.rate_at(q0, geom), GRID.tolist())) for q0 in q0s]
    monkeypatch.setattr(FullModelParams, "rate_at", _refuse)
    assert [_outcome(lambda: p.rates_at(q0, geom, GRID).tolist()) for q0 in q0s] == expected


def test_fast_scan_decides_as_the_exact_scan(monkeypatch):
    """At the map's lights and 1,000 random ones the numpy scan's values sit
    within half of SCAN_MARGIN of the exact ones (what its decisions need),
    no solve reruns the exact scan, and each OperatingPoint is the one that
    an exact scan gives, bit for bit."""
    rng = np.random.default_rng(21)
    q0s = MAP_Q0 + rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    p, geom = FullModelParams(), Geometry()
    for q0 in q0s:
        exact = p.rates_at(q0, geom, GRID)
        gap = np.abs(p._fast_rates(q0, geom, GRID) - exact).max()
        assert gap <= 0.5 * SCAN_MARGIN * np.abs(exact).max(), q0
    monkeypatch.setattr(steady_state, "SCAN_MARGIN", math.inf)  # no fast scan stands
    exact_ops = [optimal_setpoint(q0) for q0 in q0s]
    monkeypatch.undo()
    monkeypatch.setattr(FullModelParams, "rates_at", _refuse)
    assert [optimal_setpoint(q0) for q0 in q0s] == exact_ops


def _uncertified(values, case):
    """The fast scan's values at q0 = 600, with one comparison moved inside
    SCAN_MARGIN or one value made non-finite."""
    v, best = values.copy(), int(np.argmax(values))
    if case == "the last point overtakes the top by 1e-14":  # not its neighbour
        v[-1] = v[best] * (1 + 1e-14)
    elif case == "top within the margin of 0":
        v -= v.max()
        v += 0.5 * SCAN_MARGIN * np.abs(v).max()
    elif case == "adjacent pair within the margin":
        v[10] = v[11] * (1 - 1e-14)
    else:
        v[50] = {"nan": math.nan, "inf": math.inf}[case]
    return v


@pytest.mark.parametrize(
    "case",
    ["the last point overtakes the top by 1e-14", "top within the margin of 0",
     "adjacent pair within the margin", "nan", "inf"],
)
def test_uncertified_scan_reruns_exact(monkeypatch, case):
    """A fast scan that a near tie, a top near 0 or a non-finite value leaves
    uncertified is rerun by rates_at, once, and the setpoint is the exact one."""
    expected = optimal_setpoint(600.0)
    fast, exact = FullModelParams._fast_rates, FullModelParams.rates_at
    reruns = []

    def counted(self, q0, geom, X):
        reruns.append(q0)
        return exact(self, q0, geom, X)

    def uncertified(self, q0, geom, X, libm=kinetics._NUMPY):  # rates_at passes libm's
        values = fast(self, q0, geom, X, libm)
        return _uncertified(values, case) if libm is kinetics._NUMPY else values

    monkeypatch.setattr(FullModelParams, "_fast_rates", uncertified)
    monkeypatch.setattr(FullModelParams, "rates_at", counted)
    assert optimal_setpoint(600.0) == expected
    assert reruns == [600.0]


EXTREMES = (1e300, 1e-300, 1.7e308)
DEPTHS = (0.05, 1e-15, 1e-300, 1e300)


@pytest.mark.parametrize(
    "name", ["K", "K_R", "rho_m", "phi_prime", "resp_rate", "M_x", "nu_O2_X"]
)
def test_scan_at_extreme_constants(name):
    """Each constant at 1e300, 1e-300 and 1.7e308 under four depths: the scan
    gives the scalar rate's values or raises its exception class."""
    for value in EXTREMES:
        p = _unchecked(**{name: value})
        for depth in DEPTHS:
            geom = Geometry(depth)
            scalar = _outcome(lambda: map(p.rate_at(600.0, geom), GRID.tolist()))
            assert _outcome(lambda: p.rates_at(600.0, geom, GRID).tolist()) == scalar, (
                value, depth)


@pytest.mark.parametrize("q0", [5e-324, 1e-300, 1e-200, 1e-100])
@pytest.mark.parametrize("depth", [0.05, 1e10, 1e300])
def test_scan_raises_as_the_first_bad_point(q0, depth):
    """With K and K_R at 1e-300 and a dim light, the scalar kernel divides by
    zero or meets a log1p domain error, depending on which X fails first;
    the scan raises the same class, although the array pass meets the
    failures in another order."""
    p = _unchecked(K=1e-300, K_R=1e-300)
    geom = Geometry(depth)
    scalar = _outcome(lambda: map(p.rate_at(q0, geom), GRID.tolist()))
    assert scalar in (ZeroDivisionError, ValueError)
    assert _outcome(lambda: p.rates_at(q0, geom, GRID).tolist()) == scalar


def test_clear_slab_scan_takes_the_scalar_path(monkeypatch):
    """A depth that leaves the thinnest grid slabs clear makes the scan the
    scalar rate's, X by X."""
    extinction = kinetics._light(600.0)[1]
    geom = Geometry(1e-12 / (0.1 * extinction))  # clear below X = 0.1 only
    p = FullModelParams()
    thickness = GRID * extinction * geom.depth
    assert thickness.min() < kinetics._CLEAR_SLAB_THICKNESS < thickness.max()
    expected = _outcome(lambda: map(p.rate_at(600.0, geom), GRID.tolist()))
    binds = []
    bound = FullModelParams.rate_at

    def counted(self, q0, geom):
        binds.append(q0)
        return bound(self, q0, geom)

    monkeypatch.setattr(FullModelParams, "rate_at", counted)
    assert _outcome(lambda: p.rates_at(600.0, geom, GRID).tolist()) == expected
    assert binds == [600.0]


def test_scan_warns_nothing():
    """Overflow and NaN inside the array pass raise no numpy warning, as
    Python floats raise none."""
    cases = [dict(rho_m=1.7e308), dict(K=1e300), dict(K_R=1e-300), dict(nu_O2_X=1e-320)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for values in cases:
            p = _unchecked(**values)
            for depth in DEPTHS:
                _outcome(lambda: p.rates_at(600.0, Geometry(depth), GRID))
            _outcome(lambda: [optimal_setpoint(600.0, p).productivity])
    assert caught == []
    # The same pass outside np.errstate warns, so the check above bites.
    light = kinetics._light(600.0)
    with pytest.warns(RuntimeWarning):
        kinetics._closed_form(GRID * light[1] * 0.05, _unchecked(K=1e300), light, kinetics._EACH)


@pytest.mark.parametrize(
    "values, shown",
    [(dict(K=1e300), "nan"), (dict(rho_m=1.7e308), "inf"), (dict(nu_O2_X=1e-320), "inf")],
)
def test_non_finite_productivity_is_refused(values, shown):
    """A refined productivity that is NaN or infinite is no setpoint."""
    with pytest.raises(NoAdmissibleSetpointError, match=f"productivity {shown} at q0=600"):
        optimal_setpoint(600.0, _unchecked(**values))


def test_simplified_model_setpoint_matches_a_scalar_scan():
    """The lumped model answers the same scan call, X by X."""
    sp = SimplifiedModelParams()
    for q0 in (100.0, 600.0, 1000.0):
        op = optimal_setpoint(q0, sp)
        assert (op.x_star, op.productivity) == _scalar_setpoint(q0, sp)
