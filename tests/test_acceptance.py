"""Acceptance gate: every benchmark criterion, one pass/fail line each.

Each test prints "[acceptance] <criterion>: PASS/FAIL" and then asserts, so
a plain pytest run shows one line per criterion (visible with -s or in the
failure report).  Criterion 3a checks the model-based loop's mismatch offset
against that loop's own steady-state error: the FL law settles where
r(X) = r_hat(X) + lam * (X - y_r), so its tail offset is
e_ss = (r_hat - r) / lam, whose magnitude at the dim final stretch
(reference 0.17) stays below ~0.005 over the whole mu_0 grid.
"""

import math
import time

import numpy as np
import pytest

from pbrsim.cli import main
from pbrsim.control import estimate_F_closed, estimate_F_open
from pbrsim.kinetics import (
    FullModelParams,
    SimplifiedModelParams,
    growth_rate_simplified,
    local_oxygen_rate,
    mean_oxygen_rate,
)
from pbrsim.plant import (
    DayNightLight,
    PiecewiseConstant,
    step,
)
from pbrsim.radiative import (
    Geometry,
    OpticalProps,
    irradiance_at_depth,
    optical_coefficients,
)
from pbrsim.scenarios import (
    compute_metrics,
    day_night_scenario,
    light_step_scenario,
    robustness_sweep,
    run_scenario,
    time_to_band,
)
from pbrsim.steady_state import optimal_setpoint, setpoint_map

from oracles import mean_irradiance_simplified

CONST_600 = PiecewiseConstant(((0.0, 600.0),))


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweep_42():
    base = day_night_scenario(controller="ip", seed=0)
    return robustness_sweep(base, (0.07, 0.14, 0.21))


def test_criterion_1_setpoint_anchors():
    """Optimal setpoints near the benchmark anchors, map under 10 s."""
    t0 = time.perf_counter()
    points = setpoint_map([100.0 + 100.0 * i for i in range(10)])
    elapsed = time.perf_counter() - t0
    by_q0 = {p.q0: p.x_star for p in points}
    ok_600 = abs(by_q0[600.0] - 0.38) / 0.38 <= 0.20
    ok_100 = abs(by_q0[100.0] - 0.17) / 0.17 <= 0.20
    _report(
        "criterion 1 (setpoint anchors)",
        ok_600 and ok_100 and elapsed < 10.0,
        f"X*(600)={by_q0[600.0]:.4f} (anchor 0.38 +/-20%), "
        f"X*(100)={by_q0[100.0]:.4f} (anchor 0.17 +/-20%), {elapsed:.2f} s",
    )


def test_criterion_2_light_step_dynamics():
    """Batch phase 10 +/- 3 h, reattach within 7 h, < 5 s per 50 h cell."""
    ok = True
    details = []
    for kind in ("fl", "ip"):
        t0 = time.perf_counter()
        trace = run_scenario(light_step_scenario(controller=kind, seed=0))
        elapsed = time.perf_counter() - t0
        m = compute_metrics(trace)
        reattach = time_to_band(trace, 30.0)
        ok = (
            ok
            and 7.0 <= m.batch_phase_duration <= 13.0
            and reattach is not None
            and reattach <= 7.0
            and elapsed < 5.0
        )
        details.append(
            f"{kind}: batch={m.batch_phase_duration:.1f} h, "
            f"reattach={reattach:.1f} h, {elapsed:.2f} s"
        )
    _report("criterion 2 (light-step dynamics)", ok, "; ".join(details))


def _ok_metrics(cell):
    assert cell.error is None, (
        f"{cell.controller_kind} cell mu_0={cell.mu_0} aborted: {cell.error}"
    )
    return cell.metrics


def _fl_steady_state_error(cell) -> float:
    """Closed-form FL tail offset e_ss = (r_hat(X) - r(X)) / lam at the tail
    mean of the true state, under the tail's light level."""
    tr, s = cell.trace, cell.scenario
    m = _ok_metrics(cell)
    tail = tr.t >= tr.t[-1] - m.offset_window_h - 1e-9
    x_bar = float(np.mean(tr.x_true[tail]))
    q0 = float(np.mean(tr.q0[tail]))
    r_hat = growth_rate_simplified(x_bar, q0, s.controller.sp, s.geometry)
    r = s.plant.rate_at(q0, s.geometry)(x_bar)
    return (r_hat - r) / s.controller.lam


def test_criterion_3a_fl_mismatch_offset(sweep_41):
    """Model mismatch leaves FL with a standing offset that iP does not have.

    The FL law u = (r_hat(y) + lam * (y - y_r)) / y settles where
    r(X) = r_hat(X) + lam * (X - y_r), so its tail offset is
    e_ss = (r_hat - r) / lam.  In each perturbed cell the offset shift from
    the nominal cell must match the closed-form shift (rel 1e-2), have the
    sign of the model error (mu_0 = 0.07 under-predicts growth, 0.21
    over-predicts), and be at least twice the largest iP |offset|.
    """
    fl = {c.mu_0: c for c in sweep_41 if c.controller_kind == "fl"}
    ip_max = max(
        abs(_ok_metrics(c).steady_state_offset)
        for c in sweep_41
        if c.controller_kind == "ip"
    )
    nominal = fl[0.14]
    offset_0 = _ok_metrics(nominal).steady_state_offset
    e_ss_0 = _fl_steady_state_error(nominal)
    ok = True
    details = []
    for mu_0, sign in ((0.07, -1.0), (0.21, 1.0)):
        shift = _ok_metrics(fl[mu_0]).steady_state_offset - offset_0
        predicted = _fl_steady_state_error(fl[mu_0]) - e_ss_0
        ok = (
            ok
            and shift == pytest.approx(predicted, rel=1e-2)
            and sign * shift > 0
            and abs(shift) >= 2.0 * ip_max
        )
        details.append(
            f"mu_0={mu_0}: shift {shift:.4g} (closed form {predicted:.4g})"
        )
    _report(
        "criterion 3a (FL mismatch offset = (r_hat - r)/lam, >= 2x iP)",
        ok,
        "; ".join(details) + f"; max iP |offset| = {ip_max:.4g}",
    )


def test_criterion_3b_ip_mismatch_insensitive(sweep_41):
    """Model-free loop: |offset| < 0.005 in every sweep cell."""
    ip_offsets = [
        _ok_metrics(c).steady_state_offset
        for c in sweep_41
        if c.controller_kind == "ip"
    ]
    max_abs = max(abs(v) for v in ip_offsets)
    _report(
        "criterion 3b (iP offset < 0.005 in all cells)",
        max_abs < 0.005,
        f"max iP |offset| = {max_abs:.4g}",
    )


def test_criterion_4_estimator_recovery():
    """Both estimators within 2% after one window; open within 1e-6 on
    exact linear data at quarter sampling."""
    tau, a, k_p, F0 = 1.5, -0.2, 5.0, 0.5
    # loop-consistent synthetic record (ZOH: y exactly piecewise linear)
    y_r, e0 = 1.0, 0.05
    y, t = y_r + e0, 0.0
    rows = []
    Ts = tau / 16
    for _ in range(17):
        e = y - y_r
        u = -(F0 + k_p * e) / a
        rows.append((t, u, y, e))
        y += (F0 + a * u) * Ts
        t += Ts
    t16, u16, y16, e16 = np.array(rows).T
    err_open_16 = abs(estimate_F_open(t16, u16, y16, a) - F0) / F0
    err_closed_16 = abs(estimate_F_closed(t16, u16, e16, a, k_p) - F0) / F0
    # exact linear open-loop signal at tau/64
    Ts = tau / 64
    u0 = 0.3
    t64 = np.array([k * Ts for k in range(65)])
    y64 = np.array([2.0 + (F0 + a * u0) * k * Ts for k in range(65)])
    err_open_64 = abs(estimate_F_open(t64, np.full(65, u0), y64, a) - F0) / F0
    _report(
        "criterion 4 (estimator recovery)",
        err_open_16 <= 0.02 and err_closed_16 <= 0.02 and err_open_64 <= 1e-6,
        f"tau/16: open {err_open_16:.2e}, closed {err_closed_16:.2e}; "
        f"tau/64 linear open {err_open_64:.2e}",
    )


def test_criterion_5_injected_f_contraction():
    """With the true F injected, the error follows e0 exp(-k_p t) within 1%.

    Injecting the oracle F into the control law and solving the resulting
    algebraic loop gives u = (r_X + k_p e) / X, which renders the continuous
    loop exactly e' = -k_p e; the sampled loop must stay within 1% of that
    envelope (deviation normalized by e0) and match the decay rate to 1%.
    """
    k_p, y_r, Ts = 5.0, 0.38, 0.001
    x, t = 0.40, 0.0
    e0 = x - y_r
    max_dev = 0.0
    ts, es = [], []
    rate = FullModelParams().rate_at(600.0, Geometry())
    for _ in range(2000):  # 2 h
        e = x - y_r
        u = (rate(x) + k_p * e) / x
        assert 0.0 <= u <= 0.5  # stays strictly inside the actuator range
        x = step(x, t, u, CONST_600, Ts, substeps=2)
        t += Ts
        max_dev = max(max_dev, abs((x - y_r) - e0 * math.exp(-k_p * t)))
        ts.append(t)
        es.append(x - y_r)
    ts_a, es_a = np.array(ts), np.array(es)
    fit = (ts_a <= 1.0) & (es_a > 0)
    rate = float(np.polyfit(ts_a[fit], np.log(es_a[fit]), 1)[0])
    ok = max_dev / e0 <= 0.01 and abs(rate + k_p) / k_p <= 0.01
    _report(
        "criterion 5 (injected-F contraction)",
        ok,
        f"max |e - envelope|/e0 = {max_dev / e0:.2e}, fitted rate {rate:.3f} "
        f"(target {-k_p})",
    )


def test_criterion_6_numerical_hygiene():
    """Quadrature, integrator, and equilibrium error budgets."""
    # depth-mean closed form vs 4097-node Simpson oracle
    sp = SimplifiedModelParams()
    c = (1.0 + sp.alpha_hat) / (2.0 * sp.alpha_hat) * sp.E_a_hat
    L = 0.05
    worst_gbar = 0.0
    z = np.linspace(0.0, L, 4097)
    w = np.ones(4097)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    for X in (0.01, 0.1, 0.3, 0.5, 1.0):
        for q0 in (100.0, 600.0, 1000.0):
            oracle = float(w @ (q0 * np.exp(-c * X * z)) / (3.0 * 4096))
            closed = mean_irradiance_simplified(X, q0, sp)
            worst_gbar = max(worst_gbar, abs(closed - oracle) / oracle)
    # depth-mean O2 rate vs 20001-node Simpson oracle over the steady envelope
    worst_j = 0.0
    z = np.linspace(0.0, L, 20001)
    w = np.ones(20001)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    for X, q0 in [(0.05, 100.0), (0.17, 100.0), (0.25, 100.0), (0.3, 600.0),
                  (0.4, 600.0), (0.47, 600.0), (0.3, 1000.0), (0.47, 1000.0)]:
        G = irradiance_at_depth(z, X, q0)
        oracle = float(w @ local_oxygen_rate(G, optical_coefficients(q0).E_a) / (3.0 * 20000))
        exact = mean_oxygen_rate(X, q0)
        worst_j = max(worst_j, abs(exact - oracle) / abs(oracle))
    # RK4 step halving over 50 h, smooth forcing
    drifts = []
    for profile in (CONST_600, DayNightLight()):
        ends = []
        for substeps in (10, 20):
            x, t = 0.3, 0.0
            for _ in range(500):
                x, t = step(x, t, 0.03, profile, 0.1, substeps=substeps), t + 0.1
            ends.append(x)
        drifts.append(abs(ends[0] - ends[1]))
    # equilibrium round trip over 50 h
    op = optimal_setpoint(600.0)
    x, t = op.x_star, 0.0
    for _ in range(500):
        x, t = step(x, t, op.d_star, CONST_600, 0.1), t + 0.1
    eq_drift = abs(x - op.x_star)
    ok = (
        worst_gbar <= 1e-10
        and worst_j <= 1e-8
        and max(drifts) <= 1e-6
        and eq_drift <= 1e-6
    )
    _report(
        "criterion 6 (numerical hygiene)",
        ok,
        f"Gbar vs quadrature {worst_gbar:.2e} (<=1e-10), J vs quadrature "
        f"{worst_j:.2e} (<=1e-8), RK4 halving {max(drifts):.2e} (<=1e-6), "
        f"equilibrium drift {eq_drift:.2e} (<=1e-6)",
    )


def test_criterion_7_radiative_limits():
    """Transparent limit, depth monotonicity, q0 linearity, no-scatter."""
    z = np.linspace(0.0, 0.05, 101)
    clear_ok = np.array_equal(irradiance_at_depth(z, 0.0, 600.0), np.full(101, 600.0))
    mono_ok = all(
        np.all(np.diff(irradiance_at_depth(z, X, q0)) < 0)
        for X in (0.05, 0.3, 1.0)
        for q0 in (100.0, 600.0, 1000.0)
    )
    props = optical_coefficients(600.0)
    linear_ok = np.array_equal(
        irradiance_at_depth(z, 0.3, 500.0, props=props),
        2.0 * irradiance_at_depth(z, 0.3, 250.0, props=props),
    )
    no_scatter = OpticalProps(E_a=props.E_a, E_s=props.E_s, b=0.0)
    beer = 600.0 * np.exp(-0.3 * props.E_a * z)
    beer_dev = float(
        np.max(np.abs(irradiance_at_depth(z, 0.3, 600.0, props=no_scatter) - beer))
    )
    ok = clear_ok and mono_ok and linear_ok and beer_dev <= 1e-8
    _report(
        "criterion 7 (radiative limits)",
        ok,
        f"clear={clear_ok}, monotone={mono_ok}, linear(2x exact)={linear_ok}, "
        f"no-scatter dev {beer_dev:.2e} (<=1e-8)",
    )


def test_criterion_8_csv_determinism(tmp_path):
    """Byte-identical CSV output across reruns, both built-in scenarios."""
    ok = True
    for scenario in ("paper-4.1", "paper-4.2"):
        a = tmp_path / scenario.replace(".", "_") / "a"
        b = tmp_path / scenario.replace(".", "_") / "b"
        main(["simulate", "--scenario", scenario, "--seed", "11", "--out", str(a)])
        main(["simulate", "--scenario", scenario, "--seed", "11", "--out", str(b)])
        ok = ok and (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        ok = ok and (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    _report("criterion 8 (CSV determinism)", ok, "paper-4.1 and paper-4.2, seed 11")


def test_criterion_9_day_night_rejection(sweep_42):
    """Both loops hold the setpoint within 10% after convergence; the
    model-free loop's IAE stays at or below the model-based one in every
    perturbed cell."""
    cells = {(c.controller_kind, c.mu_0): c for c in sweep_42}
    devs = {}
    for kind in ("fl", "ip"):
        tr = cells[(kind, 0.14)].trace  # nominal cells
        conv = tr.t >= 10.0 - 1e-9
        devs[kind] = float(np.max(np.abs(tr.x_true[conv] - 0.175))) / 0.175
    iae_ok = all(
        cells[("ip", mu0)].metrics.iae <= cells[("fl", mu0)].metrics.iae
        for mu0 in (0.07, 0.21)
    )
    ok = devs["fl"] <= 0.10 and devs["ip"] <= 0.10 and iae_ok
    _report(
        "criterion 9 (day/night rejection)",
        ok,
        f"max dev fl {devs['fl']:.2%}, ip {devs['ip']:.2%} (<=10%); "
        f"iP IAE <= FL IAE in perturbed cells: {iae_ok}",
    )
