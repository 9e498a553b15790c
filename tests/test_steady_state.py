"""Productivity-optimal setpoints: anchors, optimality, and the map."""

import math
import re
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from pbrsim import kinetics, steady_state
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.radiative import Geometry
from pbrsim.steady_state import (
    GRID_POINTS,
    Q0_VALID_RANGE,
    SCAN_CHUNK,
    SCAN_MARGIN,
    X_MAX,
    X_MIN,
    X_TOL,
    NoAdmissibleSetpointError,
    NotUnimodalError,
    _golden_max,
    optimal_setpoint,
    setpoint_map,
)

GRID = np.linspace(X_MIN, X_MAX, GRID_POINTS)
MAP_Q0 = [100.0 + 900.0 * i / 45 for i in range(46)]  # the benchmark's map grid
GOLDEN_CALLS = 19  # bound-rate calls of the golden-section steps and the refined productivity


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


def _exact_scan(p, q0, geom):
    """The exact setpoint scan: the bound rate mapped over the grid."""
    return np.fromiter(map(p.rate_at(q0, geom), GRID.tolist()), float)


def _solve(q0, p=FullModelParams(), geom=Geometry()):
    """float.hex of each field of optimal_setpoint's OperatingPoint, or the
    class of what it raises."""
    return _outcome(lambda: astuple(optimal_setpoint(q0, p, geom)))


def _exact_solve(monkeypatch, q0, p=FullModelParams(), geom=Geometry()):
    """_solve with SCAN_MARGIN = inf: no fast scan stands, so the exact one decides."""
    with monkeypatch.context() as m:
        m.setattr(steady_state, "SCAN_MARGIN", math.inf)
        return _solve(q0, p, geom)


def _count_rate_calls(monkeypatch, model=FullModelParams):
    """Make model.rate_at log the q0 of each bind and the X of each bound-rate call."""
    bound, binds, calls = model.rate_at, [], []

    def rate_at(self, q0, geom):
        binds.append(q0)
        rate = bound(self, q0, geom)

        def counted(X):
            calls.append(X)
            return rate(X)

        return counted

    monkeypatch.setattr(model, "rate_at", rate_at)
    return binds, calls


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


@pytest.fixture(scope="module")
def solo_solves():
    """The map's lights and 1,000 random ones, each with its own optimal_setpoint's outcome."""
    q0s = MAP_Q0 + np.random.default_rng(23).uniform(*Q0_VALID_RANGE, 1000).tolist()
    return q0s, [_solve(q0) for q0 in q0s]


@pytest.mark.parametrize("size", [1, SCAN_CHUNK, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 1])
def test_a_batch_gives_each_light_a_solo_solve(solo_solves, size):
    """setpoint_map scans all its lights, SCAN_CHUNK at a time, before it refines one: over
    maps of size lights, each OperatingPoint equals its light's solo solve by float.hex."""
    q0s, solo = solo_solves
    maps = [setpoint_map(q0s[i : i + size]) for i in range(0, len(q0s), size)]
    assert [[v.hex() for v in astuple(op)] for ops in maps for op in ops] == solo


@pytest.mark.parametrize(
    "q0s, p, error",
    [([100.0, 500.0, 1500.0, 50.0, 700.0], FullModelParams(), ValueError),
     ([100.0 + 20.0 * i for i in range(46)], SimplifiedModelParams(), NoAdmissibleSetpointError)],
    ids=["out-of-range", "simplified-edge"],
)
def test_a_batch_raises_as_the_loop(monkeypatch, q0s, p, error):
    """A map raises what a loop of optimal_setpoint over its lights raises, with the same
    message, after binding the same lights: its scan ahead raises nothing."""
    binds, _ = _count_rate_calls(monkeypatch, type(p))
    with pytest.raises(error) as loop:
        for q0 in q0s:
            optimal_setpoint(q0, p)
    loop_binds = binds.copy()
    binds.clear()
    with pytest.raises(error, match=re.escape(str(loop.value))):
        setpoint_map(q0s, p)
    assert binds == loop_binds


def test_a_batch_scan_stays_small():
    """A chunked scan holds SCAN_CHUNK rows of temporaries, not one per light: a map of 1,000
    lights peaks under 1 MB of traced memory (a scan of all at once took 24 MB)."""
    q0s = np.random.default_rng(29).uniform(*Q0_VALID_RANGE, 1000).tolist()
    setpoint_map(q0s[:SCAN_CHUNK])  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        setpoint_map(q0s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class _GaussianPeaks:
    """A stub rate model: r_X is a sum of Gaussian bumps of width 0.1 kg/m3,
    centred at peaks(q0).  It has no array form, so every scan is the exact one."""

    def __init__(self, peaks):
        self.peaks = peaks

    def rate_at(self, q0, geom):
        centres = self.peaks(q0)
        return lambda X: sum(math.exp(-(((X - c) / 0.1) ** 2)) for c in centres)

    def _fast_rates(self, q0s, geom, X):
        return np.full((len(q0s), len(X)), math.nan)


def test_two_maxima_are_refused():
    model = _GaussianPeaks(lambda q0: (0.5, 1.5))
    with pytest.raises(NotUnimodalError, match=re.escape("has maxima near X in {0.5, 1.5}")):
        optimal_setpoint(600.0, model)


def test_a_falling_map_warns():
    model = _GaussianPeaks(lambda q0: (1.5 - q0 / 1000.0,))
    with pytest.warns(UserWarning) as record:
        points = setpoint_map([100.0, 500.0, 900.0], model)
    assert [str(w.message) for w in record] == [
        "setpoint map not monotone: x*(500) < x*(100)",
        "setpoint map not monotone: x*(900) < x*(500)",
    ]
    assert [op.x_star for op in points] == pytest.approx([1.4, 1.0, 0.6], abs=X_TOL)


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
    """The exact scan calls the solve's one bound rate at each grid X, in
    order, and its setpoint is the test-local scalar scan's, bit for bit, at
    the map's lights and 1,000 random ones."""
    rng = np.random.default_rng(19)
    q0s = MAP_Q0 + rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    expected = [_scalar_setpoint(q0) for q0 in q0s]
    monkeypatch.setattr(steady_state, "SCAN_MARGIN", math.inf)  # no fast scan stands
    binds, calls = _count_rate_calls(monkeypatch)
    for q0, (x_star, prod) in zip(q0s, expected):
        calls.clear()
        op = optimal_setpoint(q0)
        assert calls[:GRID_POINTS] == GRID.tolist(), q0
        assert len(calls) == GRID_POINTS + GOLDEN_CALLS, q0
        assert (op.x_star.hex(), op.productivity.hex()) == (x_star.hex(), prod.hex()), q0
    assert binds == q0s


def test_fast_scan_decides_as_the_exact_scan(monkeypatch):
    """At the map's lights and 1,000 random ones the numpy scan's values, of
    each light alone and of each as a row of a SCAN_CHUNK batch, sit within
    half of SCAN_MARGIN of the exact ones (what its decisions need), no solve
    reruns the exact scan (19 bound-rate calls, the golden ones), and each
    OperatingPoint is the one that an exact scan gives, bit for bit."""
    rng = np.random.default_rng(21)
    q0s = MAP_Q0 + rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    p, geom = FullModelParams(), Geometry()
    batched = np.concatenate([p._fast_rates(q0s[i : i + SCAN_CHUNK], geom, GRID)
                              for i in range(0, len(q0s), SCAN_CHUNK)])
    for q0, row in zip(q0s, batched):
        exact = _exact_scan(p, q0, geom)
        for fast in (p._fast_rates([q0], geom, GRID)[0], row):
            gap = np.abs(fast - exact).max()
            assert gap <= 0.5 * SCAN_MARGIN * np.abs(exact).max(), q0
    exact_ops = [_exact_solve(monkeypatch, q0) for q0 in q0s]
    binds, calls = _count_rate_calls(monkeypatch)
    for q0, exact_op in zip(q0s, exact_ops):
        calls.clear()
        assert _solve(q0) == exact_op, q0
        assert len(calls) == GOLDEN_CALLS, q0
    assert binds == q0s


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
    uncertified is rerun by the solve's one bound rate over the grid (200
    calls, then the 19 golden ones), and the setpoint is the exact one."""
    expected = optimal_setpoint(600.0)
    fast = FullModelParams._fast_rates

    def uncertified(self, q0s, geom, X):
        return np.array([_uncertified(row, case) for row in fast(self, q0s, geom, X)])

    monkeypatch.setattr(FullModelParams, "_fast_rates", uncertified)
    binds, calls = _count_rate_calls(monkeypatch)
    assert optimal_setpoint(600.0) == expected
    assert binds == [600.0]
    assert len(calls) == GRID_POINTS + GOLDEN_CALLS
    assert calls[:GRID_POINTS] == GRID.tolist()


@pytest.mark.parametrize(
    "model, q0, certified",
    [(FullModelParams, 600.0, True), (FullModelParams, 600.0, False),
     (SimplifiedModelParams, 100.0, False), (SimplifiedModelParams, 600.0, False),
     (SimplifiedModelParams, 1000.0, False)],
)
def test_a_solve_binds_rate_at_once(monkeypatch, model, q0, certified):
    """A solve binds rate_at once, whether its fast scan stands or the exact
    scan reruns, for either model; the simplified model, with no array form,
    always reruns.  At q0 = 1000 that model peaks on the bracket's upper edge,
    and the solve is refused after its one bind."""
    if not certified:
        monkeypatch.setattr(steady_state, "SCAN_MARGIN", math.inf)
    binds, calls = _count_rate_calls(monkeypatch, model)
    if q0 == 1000.0:
        with pytest.raises(NoAdmissibleSetpointError, match=r"edge X=2\.0 "):
            optimal_setpoint(q0, model())
    else:
        optimal_setpoint(q0, model())
    assert binds == [q0]
    assert (calls[:GRID_POINTS] == GRID.tolist()) == (not certified)  # the exact scan ran


EXTREMES = (1e300, 1e-300, 1.7e308)
DEPTHS = (0.05, 1e-15, 1e-300, 1e300)


@pytest.mark.parametrize(
    "name", ["K", "K_R", "rho_m", "phi_prime", "resp_rate", "M_x", "nu_O2_X"]
)
def test_scan_at_extreme_constants(monkeypatch, name):
    """Each constant at 1e300, 1e-300 and 1.7e308 under four depths: the
    solve ends as the exact scan's solve does, and raises the scalar rate's
    exception class where the scalar rate raises on the grid."""
    for value in EXTREMES:
        p = _unchecked(**{name: value})
        for depth in DEPTHS:
            geom = Geometry(depth)
            exact = _exact_solve(monkeypatch, 600.0, p, geom)
            assert _solve(600.0, p, geom) == exact, (value, depth)
            scalar = _outcome(lambda: map(p.rate_at(600.0, geom), GRID.tolist()))
            if isinstance(scalar, type):
                assert exact == scalar, (value, depth)


@pytest.mark.parametrize("q0", [5e-324, 1e-300, 1e-200, 1e-100])
@pytest.mark.parametrize("depth", [0.05, 1e10, 1e300])
def test_scan_raises_as_the_first_bad_point(monkeypatch, q0, depth):
    """With K and K_R at 1e-300 and a dim light, the scalar kernel divides by
    zero or meets a log1p domain error, depending on which X fails first;
    the solve raises the same class, as its exact scan does, although the
    array pass meets the failures in another order.  The solve's light range
    is widened here to reach these lights."""
    monkeypatch.setattr(steady_state, "Q0_VALID_RANGE", (0.0, Q0_VALID_RANGE[1]))
    p = _unchecked(K=1e-300, K_R=1e-300)
    geom = Geometry(depth)
    scalar = _outcome(lambda: map(p.rate_at(q0, geom), GRID.tolist()))
    assert scalar in (ZeroDivisionError, ValueError)
    assert _solve(q0, p, geom) == _exact_solve(monkeypatch, q0, p, geom) == scalar


def test_clear_slab_scan_takes_the_scalar_path(monkeypatch):
    """A depth that leaves the thinnest grid slabs clear makes the scan the
    scalar rate's, X by X, and the solve the exact scan's."""
    extinction = kinetics._light(600.0)[1]
    geom = Geometry(1e-12 / (0.1 * extinction))  # clear below X = 0.1 only
    p = FullModelParams()
    thickness = GRID * extinction * geom.depth
    assert thickness.min() < kinetics._CLEAR_SLAB_THICKNESS < thickness.max()
    expected = _exact_solve(monkeypatch, 600.0, p, geom)
    binds, calls = _count_rate_calls(monkeypatch)
    assert _solve(600.0, p, geom) == expected
    assert binds == [600.0]
    assert calls[:GRID_POINTS] == GRID.tolist()


def test_scan_warns_nothing(monkeypatch):
    """Overflow and NaN inside a setpoint scan raise no numpy warning, as
    Python floats raise none."""
    cases = [dict(rho_m=1.7e308), dict(K=1e300), dict(K_R=1e-300), dict(nu_O2_X=1e-320)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for values in cases:
            p = _unchecked(**values)
            for depth in DEPTHS:
                geom = Geometry(depth)
                assert _solve(600.0, p, geom) == _exact_solve(monkeypatch, 600.0, p, geom)
    assert caught == []
    # The same pass outside np.errstate warns, so the check above bites.
    light = kinetics._light(600.0)
    with pytest.warns(RuntimeWarning):
        kinetics._closed_form(GRID * light[1] * 0.05, _unchecked(K=1e300), light, kinetics._NUMPY)


@pytest.mark.parametrize(
    "values, shown",
    [(dict(K=1e300), "nan"), (dict(rho_m=1.7e308), "inf"), (dict(nu_O2_X=1e-320), "inf")],
)
def test_non_finite_productivity_is_refused(values, shown):
    """A refined productivity that is NaN or infinite is no setpoint."""
    with pytest.raises(NoAdmissibleSetpointError, match=f"productivity {shown} at q0=600"):
        optimal_setpoint(600.0, _unchecked(**values))


def test_simplified_model_setpoint_matches_a_scalar_scan():
    """The lumped model answers the same scan call, X by X; at q0 = 1000 the
    scalar scan's refined X sits on the bracket's upper edge, and the solve
    refuses it."""
    sp = SimplifiedModelParams()
    for q0 in (100.0, 600.0):
        op = optimal_setpoint(q0, sp)
        assert (op.x_star, op.productivity) == _scalar_setpoint(q0, sp)
    assert _scalar_setpoint(1000.0, sp)[0] > X_MAX - X_TOL
    with pytest.raises(NoAdmissibleSetpointError, match=r"edge X=2\.0 "):
        optimal_setpoint(1000.0, sp)


@pytest.mark.parametrize(
    "p, q0, edge, beyond",
    [(SimplifiedModelParams(), 878.0, X_MAX, 2.002),
     (SimplifiedModelParams(E_a_hat=1e4, mu_r=0.05), 600.0, X_MIN, 0.008)],
    ids=["simplified-878", "simplified-dense-600"],
)
def test_an_edge_peak_is_refused(p, q0, edge, beyond):
    """A productivity that still rises past the bracket's edge has no optimum
    in it: the solve names the edge instead of returning it as x_star."""
    rate = p.rate_at(q0, Geometry())
    assert rate(beyond) > rate(edge)
    with pytest.raises(NoAdmissibleSetpointError, match=rf"peaks at the bracket's edge X={edge} "):
        optimal_setpoint(q0, p)


def test_the_last_interior_peaks_stand():
    """At q0 = 875 to 877 the lumped model's peak lies inside the grid's last
    cell, away from the edge: it stands.  The full model peaks inside the
    bracket at every whole q0 from 100 to 1000."""
    for q0 in (875.0, 876.0, 877.0):
        op = optimal_setpoint(q0, SimplifiedModelParams())
        assert GRID[-2] < op.x_star < X_MAX - X_TOL
    for q0 in np.arange(100.0, 1001.0).tolist():
        assert X_MIN + X_TOL < optimal_setpoint(q0).x_star < X_MAX - X_TOL
