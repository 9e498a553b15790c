"""Closed-loop campaigns: traces, metrics, sweep, and benchmark pins.

All frozen numbers below were measured with noise seed 0; the loop is
deterministic, so they are regression pins rather than tolerances.
"""

import numpy as np
import pytest

from pbrsim.control import FlConfig, IpConfig
from pbrsim.kinetics import SimplifiedModelParams
from pbrsim.plant import NoiseConfig, PiecewiseConstant, SamplingConfig
from pbrsim.scenarios import (
    BUILTIN_SCENARIOS,
    MU0_SWEEP_VALUES,
    MapReference,
    Scenario,
    compute_metrics,
    day_night_scenario,
    light_step_scenario,
    robustness_sweep,
    run_scenario,
    time_to_band,
)

CONST_600 = PiecewiseConstant(((0.0, 600.0),))


@pytest.fixture(scope="module")
def nominal_traces():
    """Both controllers on the light-step campaign, seed 0."""
    out = {}
    for kind in ("fl", "ip"):
        tr = run_scenario(light_step_scenario(controller=kind, seed=0))
        out[kind] = (tr, compute_metrics(tr))
    return out


def test_builtin_scenario_names():
    assert set(BUILTIN_SCENARIOS) == {"paper-4.1", "paper-4.2"}


def test_trace_shape_and_sampling(nominal_traces):
    tr, _ = nominal_traces["ip"]
    assert len(tr) == 501
    assert tr.t[0] == 0.0
    assert tr.t[-1] == 50.0
    assert tr.t[300] == 30.0  # exact float: 300 * 0.1
    assert np.allclose(np.diff(tr.t), 0.1)


def test_trace_switch_semantics(nominal_traces):
    """The t = 30 h row still carries the old light and reference."""
    tr, _ = nominal_traces["ip"]
    k = 300
    assert tr.q0[k] == 600.0 and tr.y_ref[k] == 0.38
    assert tr.q0[k + 1] == 100.0 and tr.y_ref[k + 1] == 0.17


def test_trace_f_est_column(nominal_traces):
    fl_tr, _ = nominal_traces["fl"]
    ip_tr, _ = nominal_traces["ip"]
    assert np.isnan(fl_tr.f_est).all()  # model-based law has no estimate
    assert (ip_tr.f_est[:16] == 0.0).all()  # warm-up
    assert np.isfinite(ip_tr.f_est[16:]).all()


def test_bit_exact_determinism():
    a = run_scenario(light_step_scenario(controller="ip", seed=3))
    b = run_scenario(light_step_scenario(controller="ip", seed=3))
    assert np.array_equal(a.y_meas, b.y_meas)
    assert np.array_equal(a.d_applied, b.d_applied)
    assert np.array_equal(a.f_est[16:], b.f_est[16:])


def test_seed_changes_noise():
    a = run_scenario(light_step_scenario(controller="ip", seed=0))
    b = run_scenario(light_step_scenario(controller="ip", seed=1))
    assert not np.array_equal(a.y_meas, b.y_meas)
    assert np.array_equal(a.t, b.t)


def test_nominal_metrics_pins(nominal_traces):
    """Benchmark metrics, seed 0 (regression pins)."""
    _, fl = nominal_traces["fl"]
    _, ip = nominal_traces["ip"]
    assert fl.steady_state_offset == pytest.approx(-0.0015021597191064238, rel=1e-9)
    assert fl.iae == pytest.approx(1.579511600647107, rel=1e-9)
    assert fl.batch_phase_duration == pytest.approx(10.9, abs=1e-9)
    assert ip.steady_state_offset == pytest.approx(0.0003958863676408137, rel=1e-9)
    assert ip.iae == pytest.approx(1.5335918614311237, rel=1e-9)
    assert ip.batch_phase_duration == pytest.approx(11.6, abs=1e-9)
    # the model-free loop tracks tighter than the model-based one here
    assert ip.iae < fl.iae
    assert abs(ip.steady_state_offset) < abs(fl.steady_state_offset)


def test_batch_phase_duration_window(nominal_traces):
    """Both loops leave the pump shut for 10 +/- 3 h while the culture grows."""
    for kind in ("fl", "ip"):
        _, m = nominal_traces[kind]
        assert 7.0 <= m.batch_phase_duration <= 13.0


def test_reattach_after_setpoint_drop(nominal_traces):
    """Both loops re-enter the 2% band within 7 h of the t = 30 h drop."""
    fl_tr, _ = nominal_traces["fl"]
    ip_tr, _ = nominal_traces["ip"]
    assert time_to_band(fl_tr, 30.0) == pytest.approx(4.8, abs=1e-9)
    assert time_to_band(ip_tr, 30.0) == pytest.approx(2.4, abs=1e-9)


def test_metrics_trivial_perfect_tracking(nominal_traces):
    tr, _ = nominal_traces["ip"]
    perfect = type(tr)(
        t=tr.t,
        x_true=tr.y_ref.copy(),
        y_meas=tr.y_ref.copy(),
        y_ref=tr.y_ref,
        d_applied=np.zeros_like(tr.t),
        q0=tr.q0,
        f_est=tr.f_est,
    )
    m = compute_metrics(perfect)
    assert m.steady_state_offset == 0.0
    assert m.iae == 0.0
    assert m.settle_time_to_2pct == 0.0
    assert m.batch_phase_duration == 50.0  # pump never opened


def test_metrics_constant_error(nominal_traces):
    tr, _ = nominal_traces["ip"]
    shifted = type(tr)(
        t=tr.t,
        x_true=tr.y_ref - 0.01,
        y_meas=tr.y_ref - 0.01,
        y_ref=tr.y_ref,
        d_applied=np.full_like(tr.t, 0.05),
        q0=tr.q0,
        f_est=tr.f_est,
    )
    m = compute_metrics(shifted)
    assert m.steady_state_offset == pytest.approx(0.01, rel=1e-12)
    assert m.iae == pytest.approx(0.01 * 50.0, rel=1e-12)
    assert m.batch_phase_duration == 0.0
    # 0.01 is outside the 2% band of the 0.17 tail: never settles
    assert m.settle_time_to_2pct is None


def test_metrics_short_run_warns():
    sc = light_step_scenario(controller="ip", seed=0)
    sc.duration_h = 5.0
    tr = run_scenario(sc)
    with pytest.warns(UserWarning):
        m = compute_metrics(tr)
    assert m.offset_window_h == pytest.approx(1.0)


def test_sweep_structure(sweep_41):
    assert len(sweep_41) == 6
    kinds = [c.controller_kind for c in sweep_41]
    assert kinds == ["fl", "fl", "fl", "ip", "ip", "ip"]
    assert [c.mu_0 for c in sweep_41[:3]] == list(MU0_SWEEP_VALUES)
    assert all(c.error is None for c in sweep_41)


def test_sweep_ip_cells_identical(sweep_41):
    """The model-free law never reads mu_0: its cells are bit-identical."""
    ip_cells = [c for c in sweep_41 if c.controller_kind == "ip"]
    ref = ip_cells[0].trace
    for c in ip_cells[1:]:
        assert np.array_equal(c.trace.x_true, ref.x_true)
        assert np.array_equal(c.trace.d_applied, ref.d_applied)


def test_sweep_fl_offset_grows_with_mismatch(sweep_41):
    """FL tail offset increases away from the nominal rate scale."""
    fl = {c.mu_0: c.metrics.steady_state_offset for c in sweep_41
          if c.controller_kind == "fl"}
    assert fl[0.07] == pytest.approx(-0.00498486199832574, rel=1e-9)
    assert fl[0.14] == pytest.approx(-0.0015021597191064238, rel=1e-9)
    assert fl[0.21] == pytest.approx(0.0018965223945365897, rel=1e-9)
    assert abs(fl[0.07]) > abs(fl[0.14])
    assert abs(fl[0.21]) > abs(fl[0.14])
    # under-modelled growth -> under-dilution -> culture rides high (and
    # vice versa): the offset changes sign across the nominal cell
    assert fl[0.07] < 0 < fl[0.21]


def test_first_stretch_dichotomy(sweep_41):
    """Model mismatch shows up as a standing FL offset on the bright
    stretch (reference 0.38, t in [25, 30]) while the model-free loop is
    insensitive.  The FL offset e_ss = (r_hat - r) / lam scales with X, so
    here it clears 0.01; on the dim tail the same split holds at ~0.0035
    (acceptance criterion 3a).
    """
    def stretch_offset(trace):
        mask = (trace.t >= 25.0 - 1e-9) & (trace.t <= 30.0 + 1e-9)
        return float(np.mean((trace.y_ref - trace.x_true)[mask]))

    by_cell = {
        (c.controller_kind, c.mu_0): stretch_offset(c.trace) for c in sweep_41
    }
    assert by_cell[("fl", 0.07)] == pytest.approx(-0.012186186056122877, rel=1e-9)
    assert by_cell[("fl", 0.21)] == pytest.approx(0.012716770209938479, rel=1e-9)
    assert abs(by_cell[("fl", 0.07)]) > 0.01
    assert abs(by_cell[("fl", 0.21)]) > 0.01
    for mu0 in MU0_SWEEP_VALUES:
        assert abs(by_cell[("ip", mu0)]) < 0.005


def test_sweep_isolates_failing_cells():
    from pbrsim.kinetics import FullModelParams

    base = light_step_scenario(controller="ip", seed=0)
    base.plant = FullModelParams(M_x=1e200)
    cells = robustness_sweep(base, (0.14,))
    assert len(cells) == 2
    assert all(c.trace is None and c.error for c in cells)


def test_day_night_tracking():
    """Fixed setpoint under the day/night cycle: tight tracking after 10 h."""
    for kind, pin_offset, pin_iae in (
        ("fl", -0.0015421392039851084, 0.11948288157850245),
        ("ip", 0.00030217059863357846, 0.04191093530115132),
    ):
        tr = run_scenario(day_night_scenario(controller=kind, seed=0))
        m = compute_metrics(tr)
        assert m.steady_state_offset == pytest.approx(pin_offset, rel=1e-9)
        assert m.iae == pytest.approx(pin_iae, rel=1e-9)
        conv = tr.t >= 10.0 - 1e-9
        max_dev = float(np.max(np.abs(tr.x_true[conv] - 0.175))) / 0.175
        assert max_dev <= 0.10


def test_day_night_ip_beats_fl_under_mismatch():
    """Perturbing the controller model leaves the model-free loop ahead."""
    base = day_night_scenario(controller="ip", seed=0)
    cells = robustness_sweep(base, (0.07, 0.21))
    iae = {(c.controller_kind, c.mu_0): c.metrics.iae for c in cells}
    for mu0 in (0.07, 0.21):
        assert iae[("ip", mu0)] <= iae[("fl", mu0)]


def test_closed_estimator_in_loop_characterization():
    """Reference-side estimation freezes in closed loop: large standing
    error and an order-of-magnitude IAE penalty versus the open form."""
    sc = light_step_scenario(controller="ip", seed=0)
    sc.controller = IpConfig(estimator="closed")
    m = compute_metrics(run_scenario(sc))
    assert abs(m.steady_state_offset) > 0.01
    assert m.iae > 4.0


def test_fl_error_decays_at_configured_rate():
    """Matched model, no noise: the FL loop imposes exp(-lam t) decay.

    Sampled at 0.01 h the zero-order hold bias on the fitted rate is below
    1%; at the default 0.1 h it is about 5% (rate lam * T_s / 2).
    """
    sc = Scenario(
        name="fl-decay",
        duration_h=4.0,
        x0=0.40,
        light=CONST_600,
        reference=PiecewiseConstant(((0.0, 0.38),)),
        controller=FlConfig(),
        plant=SimplifiedModelParams(),
        sampling=SamplingConfig(period_h=0.01, substeps=2),
        noise=NoiseConfig(relative_std=0.0, seed=0),
    )
    tr = run_scenario(sc)
    e = tr.x_true - 0.38
    mask = (tr.t <= 3.0) & (e > 1e-14)
    slope = float(np.polyfit(tr.t[mask], np.log(e[mask]), 1)[0])
    assert slope == pytest.approx(-1.0, abs=0.02)


def test_fl_matched_model_offset_vanishes():
    """With the controller model equal to the plant and no noise, the FL
    loop is offset-free: the offset is pure model mismatch."""
    sc = Scenario(
        name="fl-matched",
        duration_h=30.0,
        x0=0.17,
        light=CONST_600,
        reference=PiecewiseConstant(((0.0, 0.38),)),
        controller=FlConfig(),
        plant=SimplifiedModelParams(),
        noise=NoiseConfig(relative_std=0.0, seed=0),
    )
    m = compute_metrics(run_scenario(sc))
    assert abs(m.steady_state_offset) <= 1e-4


def test_map_reference_tracks_optimizer():
    from pbrsim.steady_state import optimal_setpoint

    ref = MapReference()
    assert ref(0.0, 600.0) == optimal_setpoint(600.0).x_star
    # second lookup hits the cache
    assert ref(1.0, 600.0) == ref(0.0, 600.0)


def test_light_step_scenario_reference_modes():
    """Each built-in tracks its own setpoint schedule."""
    assert light_step_scenario().reference == PiecewiseConstant(((0.0, 0.38), (30.0, 0.17)))
    assert day_night_scenario().reference == PiecewiseConstant(((0.0, 0.175),))


def test_schedule_reference_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(())
    with pytest.raises(ValueError):
        PiecewiseConstant(((1.0, 0.38),))
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, 0.38), (0.0, 0.17)))
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, -0.38),))
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, 0.0),))


def test_scenario_validation():
    sc = light_step_scenario()
    with pytest.raises(ValueError):
        Scenario(
            name="bad",
            duration_h=50.0,
            x0=0.0,
            light=sc.light,
            reference=sc.reference,
            controller=sc.controller,
        )
    with pytest.raises(ValueError):
        Scenario(
            name="bad",
            duration_h=50.05,  # not a whole number of 0.1 h periods
            x0=0.17,
            light=sc.light,
            reference=sc.reference,
            controller=sc.controller,
        )
    for builder in BUILTIN_SCENARIOS.values():
        with pytest.raises(ValueError, match="choices: fl, ip"):
            builder("FL")


def test_sweep_propagates_non_integration_errors(monkeypatch):
    """Only an IntegrationError is isolated per cell; anything else is a
    fault of the inputs or the code and stops the sweep."""
    import pbrsim.scenarios as scenarios

    def broken(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(scenarios, "run_scenario", broken)
    with pytest.raises(RuntimeError, match="boom"):
        robustness_sweep(light_step_scenario(), (0.14,))
