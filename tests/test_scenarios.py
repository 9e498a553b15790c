"""Closed-loop campaigns: traces, metrics, sweep, and benchmark pins.

All frozen numbers below were measured with noise seed 0; the loop is
deterministic, so they are regression pins rather than tolerances.
"""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from pbrsim.control import FlConfig, IpConfig
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.plant import NoiseConfig, PiecewiseConstant, SamplingConfig, measure
from pbrsim.radiative import Q0_OPTICS_MAX
from pbrsim.scenarios import (
    BUILTIN_SCENARIOS,
    MU0_SWEEP_VALUES,
    MapReference,
    Scenario,
    SimulationTrace,
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
    assert len(tr.t) == 501
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


@pytest.mark.parametrize("relative_std", [0.0, 0.01, 3.0])
@pytest.mark.parametrize("kind", ["fl", "ip"])
@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_one_call_draw_is_the_scalar_stream(name, kind, relative_std):
    """Each sample's measurement is measure(x_true[k], nu_k) bit for bit, with nu_k
    the k-th scalar draw of a fresh default_rng(seed): the one-call draw is that stream."""
    for seed in range(4):
        noise = NoiseConfig(relative_std=relative_std, seed=seed)
        trace = run_scenario(replace(BUILTIN_SCENARIOS[name](kind, seed), noise=noise))
        rng = np.random.default_rng(seed)
        expected = [measure(x, rng.normal(0.0, relative_std)) for x in trace.x_true.tolist()]
        assert [y.hex() for y in trace.y_meas.tolist()] == [y.hex() for y in expected]


def test_seed_changes_noise():
    a = run_scenario(light_step_scenario(controller="ip", seed=0))
    b = run_scenario(light_step_scenario(controller="ip", seed=1))
    assert not np.array_equal(a.y_meas, b.y_meas)
    assert np.array_equal(a.t, b.t)


def test_nominal_metrics_pins(nominal_traces):
    """Benchmark metrics, seed 0 (regression pins)."""
    _, fl = nominal_traces["fl"]
    _, ip = nominal_traces["ip"]
    assert fl.steady_state_offset == pytest.approx(-0.0015021597232269623, rel=1e-9)
    assert fl.iae == pytest.approx(1.5795116000924554, rel=1e-9)
    assert fl.batch_phase_duration == pytest.approx(10.9, abs=1e-9)
    assert ip.steady_state_offset == pytest.approx(0.0003958863673379198, rel=1e-9)
    assert ip.iae == pytest.approx(1.533591861052555, rel=1e-9)
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


def test_metric_windows_slack_by_the_clock_tolerance():
    """The tail window and time_to_band's start give the one clock slack,
    CLOCK_TOL periods, not 1e-9 h: at a 1e-12 h period that slack would take
    in every sample.  The state is off the reference only before the final
    20% window, and on it one period after t_from."""
    n, period_h = 1000, 1e-12
    t = np.arange(n + 1) * period_h
    x_true = np.where(np.arange(n + 1) >= 0.8 * n, 1.0, 0.0)
    ones = np.ones(n + 1)
    trace = SimulationTrace(t, x_true, x_true, ones, ones, ones, ones)
    with pytest.warns(UserWarning, match="run shorter than"):
        m = compute_metrics(trace)
    assert (m.offset_window_h, m.steady_state_offset) == (0.2 * t[-1], 0.0)
    assert time_to_band(trace, t[900]) == t[901] - t[900]


def test_metrics_short_run_warns():
    sc = replace(light_step_scenario(controller="ip", seed=0), duration_h=5.0)
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


def test_sweep_ip_cells_share_one_scenario(sweep_41):
    """A scenario is a hashable value: the three iP cells run one equal scenario under the
    base's name, and the three FL cells, whose models differ, are distinct."""
    by_kind = {kind: {c.scenario for c in sweep_41 if c.controller_kind == kind}
               for kind in ("fl", "ip")}
    assert (len(by_kind["ip"]), len(by_kind["fl"])) == (1, 3)
    assert {sc.name for sc in by_kind["ip"] | by_kind["fl"]} == {"paper-4.1"}


def test_sweep_fl_offset_grows_with_mismatch(sweep_41):
    """FL tail offset increases away from the nominal rate scale."""
    fl = {c.mu_0: c.metrics.steady_state_offset for c in sweep_41
          if c.controller_kind == "fl"}
    assert fl[0.07] == pytest.approx(-0.004984862002780506, rel=1e-9)
    assert fl[0.14] == pytest.approx(-0.0015021597232269623, rel=1e-9)
    assert fl[0.21] == pytest.approx(0.0018965223907292908, rel=1e-9)
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
    assert by_cell[("fl", 0.07)] == pytest.approx(-0.012186186078252352, rel=1e-9)
    assert by_cell[("fl", 0.21)] == pytest.approx(0.012716770189020366, rel=1e-9)
    assert abs(by_cell[("fl", 0.07)]) > 0.01
    assert abs(by_cell[("fl", 0.21)]) > 0.01
    for mu0 in MU0_SWEEP_VALUES:
        assert abs(by_cell[("ip", mu0)]) < 0.005


def test_sweep_isolates_failing_cells():
    from pbrsim.kinetics import FullModelParams

    base = replace(light_step_scenario(controller="ip", seed=0),
                   plant=FullModelParams(M_x=1e100, nu_O2_X=1e-100))
    cells = robustness_sweep(base, (0.14,))
    assert len(cells) == 2
    assert all(c.trace is None and c.error for c in cells)


def test_day_night_tracking():
    """Fixed setpoint under the day/night cycle: tight tracking after 10 h."""
    for kind, pin_offset, pin_iae in (
        ("fl", -0.0015421392083745328, 0.11948288173735976),
        ("ip", 0.0003021705983716422, 0.041910935299780794),
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
    sc = replace(light_step_scenario(controller="ip", seed=0),
                 controller=IpConfig(estimator="closed"))
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


def test_map_reference_solves_the_default_full_plant():
    """A map reference solves optimal_setpoint's default full plant and geometry whatever the
    scenario's plant: a simplified-plant run at 950 tracks the full model's optimum, although
    the simplified model's own optimum there lies at the bracket's edge."""
    from pbrsim.steady_state import NoAdmissibleSetpointError, optimal_setpoint

    light = PiecewiseConstant(((0.0, 950.0),))
    sc = Scenario("map", 1.0, 0.3, light, MapReference(), IpConfig(), plant=SimplifiedModelParams())
    assert run_scenario(sc).y_ref.tolist() == [0.4638761718411624] * 11
    assert optimal_setpoint(950.0).x_star == 0.4638761718411624
    with pytest.raises(NoAdmissibleSetpointError, match="bracket's edge"):
        optimal_setpoint(950.0, SimplifiedModelParams())


def test_day_night_map_pair_work_counts(monkeypatch):
    """paper-4.2, fl then ip, each under its own MapReference at seed 0, from a cleared _light:
    46,156 full-model rate calls and 11,968 _light misses (a reference's scan ahead reads each of
    its 162 lights' factors, and that light's solve reads them again), and 13,248 binds, since a
    substep that starts at the previous substep's last stage time reuses that bind (16,520
    without)."""
    from pbrsim import kinetics

    binds, rates = [], []
    rate_at, mean_oxygen_rate = FullModelParams.rate_at, kinetics.mean_oxygen_rate

    def counted_rate_at(self, q0, geom):
        binds.append(q0)
        return rate_at(self, q0, geom)

    def counted_rate(*args):
        rates.append(args[0])
        return mean_oxygen_rate(*args)

    monkeypatch.setattr(FullModelParams, "rate_at", counted_rate_at)
    monkeypatch.setattr(kinetics, "mean_oxygen_rate", counted_rate)
    kinetics._light.cache_clear()
    for kind in ("fl", "ip"):
        run_scenario(replace(day_night_scenario(kind, seed=0), reference=MapReference()))
    assert (len(rates), kinetics._light.cache_info().misses, len(binds)) == (46_156, 11_968, 13_248)


@pytest.mark.parametrize("kind", ["fl", "ip"])
def test_map_reference_scan_ahead_leaves_every_bit(monkeypatch, kind):
    """paper-4.2 under a MapReference scans its 162 lights ahead in chunks of 16 and gives every
    trace bit of the same run whose reference scans nothing ahead, one light per solve."""
    rows, fast_rates = [], FullModelParams._fast_rates

    def counted(self, q0s, geom, X):
        rows.append(len(q0s))
        return fast_rates(self, q0s, geom, X)

    def run():
        trace = run_scenario(replace(day_night_scenario(kind, seed=0), reference=MapReference()))
        return [getattr(trace, f.name).tobytes() for f in fields(trace)]

    monkeypatch.setattr(FullModelParams, "_fast_rates", counted)
    ahead = run()
    assert rows == [16] * 10 + [2]
    rows.clear()
    monkeypatch.setattr(MapReference, "prepare", lambda self, lights: None)
    assert run() == ahead
    assert rows == [1] * 162


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
    with pytest.raises(ValueError, match="whole number of sampling periods"):
        replace(sc, sampling=SamplingConfig(1e-9), duration_h=1.5e-9)  # 1.5 periods, however short
    for builder in BUILTIN_SCENARIOS.values():
        with pytest.raises(ValueError, match="choices: fl, ip"):
            builder("FL")


@pytest.mark.parametrize("reference", [CONST_600, MapReference()], ids=["schedule", "map"])
@pytest.mark.parametrize("plant", [FullModelParams(), SimplifiedModelParams()],
                         ids=["full", "simplified"])
def test_light_stays_in_each_parts_q0_range(plant, reference):
    """Plant and reference each state the light they serve as a closed q0_range.  A held light
    at an end of a part's range is accepted where the other part serves it too, and one float
    beyond that end is refused by a message that names the part.  Ends at 0 and infinity are
    left out: no light holds either value."""

    def scenario(q0):
        return Scenario("edge", 1.0, 0.2, PiecewiseConstant(((0.0, q0),)), reference, IpConfig(),
                        plant=plant)

    parts = {"plant": plant, "reference": reference}
    checked = 0
    for name, part in parts.items():
        (other,) = (p for p in parts.values() if p is not part)
        lo, hi = part.q0_range
        for end, away in ((lo, -math.inf), (hi, math.inf)):
            if not 0.0 < end < math.inf:
                continue
            if other.q0_range[0] <= end <= other.q0_range[1]:
                assert scenario(end).light.value_range == (end, end)
            with pytest.raises(ValueError, match=f"leaves the {name}'s range"):
                scenario(math.nextafter(end, away))
            checked += 1
    assert checked == (1 if reference is CONST_600 else 3)  # the plant's top, and the map's ends


def test_full_plant_serves_lights_below_the_optics_edge():
    """The full plant's range ends one float below Q0_OPTICS_MAX, where the absorption
    correlation reaches zero; the simplified plant serves every finite light."""
    assert FullModelParams.q0_range == (0.0, math.nextafter(Q0_OPTICS_MAX, 0.0))
    assert SimplifiedModelParams.q0_range == (0.0, 1.7976931348623157e308)
    sc = replace(day_night_scenario(), duration_h=1.0)
    assert replace(sc, light=replace(sc.light, peak=math.nextafter(Q0_OPTICS_MAX, 0.0)))
    message = ("light range [100, 168672.50703880528] leaves the plant's range "
               "[0, 168672.50703880526]")
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(sc, light=replace(sc.light, peak=Q0_OPTICS_MAX))


def test_refused_light_prints_its_own_ends_exactly():
    """A refused peak just above the optics edge does not print like a round one beside it."""
    sc = replace(day_night_scenario(), duration_h=1.0)
    messages = set()
    for peak in (168673.0, Q0_OPTICS_MAX):
        with pytest.raises(ValueError, match="leaves the plant's range") as err:
            replace(sc, light=replace(sc.light, peak=peak))
        messages.add(str(err.value))
    assert len(messages) == 2


def test_closed_ranges_print_in_brackets():
    """A closed range prints as [lo, hi] with each end exact: a round end drops its '.0', and
    '(' stays the mark of an open end, as in the config range messages."""
    from pbrsim.steady_state import optimal_setpoint

    sc = replace(day_night_scenario(), duration_h=1.0)
    with pytest.raises(ValueError) as err:
        replace(sc, light=replace(sc.light, peak=2e5))
    assert str(err.value) == (
        "light range [100, 200000] leaves the plant's range [0, 168672.50703880526]")
    with pytest.raises(ValueError) as err:
        optimal_setpoint(1000.5)
    assert str(err.value) == "q0=1000.5 outside the supported range [100, 1000]"


def test_sweep_propagates_non_integration_errors(monkeypatch):
    """Only an IntegrationError is isolated per cell; anything else is a
    fault of the inputs or the code and stops the sweep."""
    import pbrsim.scenarios as scenarios

    def broken(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(scenarios, "run_scenario", broken)
    with pytest.raises(RuntimeError, match="boom"):
        robustness_sweep(light_step_scenario(), (0.14,))
