"""Productivity-optimal setpoints: anchors, optimality, and the map."""

import numpy as np
import pytest

from pbrsim.kinetics import FullModelParams, growth_rate_full
from pbrsim.steady_state import (
    Q0_VALID_RANGE,
    NoAdmissibleSetpointError,
    optimal_setpoint,
    setpoint_map,
)


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
        op = optimal_setpoint(q0)
        for eps in (1e-3, 1e-2):
            assert op.productivity >= growth_rate_full(op.x_star - eps, q0)
            assert op.productivity >= growth_rate_full(op.x_star + eps, q0)


def test_setpoint_matches_coarse_brute_force():
    """Golden refinement agrees with a dense grid scan of D X = r_X."""
    xs = np.linspace(0.01, 2.0, 2001)
    for q0 in (100.0, 300.0, 600.0, 1000.0):
        prods = np.array([growth_rate_full(float(x), q0) for x in xs])
        x_brute = float(xs[int(np.argmax(prods))])
        op = optimal_setpoint(q0)
        assert abs(op.x_star - x_brute) <= (xs[1] - xs[0]) + 1e-5


def test_productivity_identity():
    """At steady state the productivity is exactly D* X*."""
    op = optimal_setpoint(600.0)
    assert op.productivity == pytest.approx(op.d_star * op.x_star, rel=1e-12)
    assert op.productivity == pytest.approx(
        growth_rate_full(op.x_star, 600.0), rel=1e-10
    )


def test_equilibrium_dilution_matches_specific_growth():
    d = growth_rate_full(0.38, 600.0) / 0.38
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
    """The scan hands the kernel Python floats; with every X an np.float64,
    as a numpy grid gives, the setpoints carry the same bits."""
    rng = np.random.default_rng(11)
    q0s = [100.0 + 900.0 * i / 45 for i in range(46)]
    q0s += [100.0 + 100.0 * i for i in range(10)]
    q0s += rng.uniform(*Q0_VALID_RANGE, 1000).tolist()
    ops = [optimal_setpoint(q0) for q0 in q0s]
    assert all(type(op.x_star) is float for op in ops)
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
    assert binds == q0s  # one bound rate per solve, and the scan used it
