"""Reduced-size self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Checks the metric names against BENCHMARK.json, pins the traced call
counts on one-hour versions of the workloads, and checks that the
reference check passes on this checkout and fails on a perturbed
reference.  About 20 s on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pbrsim import scenarios  # noqa: E402

ROOT = BENCH.parent
pytestmark = pytest.mark.filterwarnings("ignore:run shorter than")


def _short(configs, hours=1.0):
    return [(key, {**cfg, "duration_h": hours}) for key, cfg in configs]


def _traced(name, tmp_path, configs=None):
    make, run_pass = workloads.WORKLOADS[name]
    configs = _short(make(0)) if configs is None else configs
    # Shortened cells have no stored reference: check against a plain pass.
    tally = run.Tally(run_pass(configs, tmp_path).cells)
    result = run.per_layer(SimpleNamespace(seconds=0), configs, run_pass, tmp_path, tally)
    return result["values"], tally


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w in gated]
    assert set(workloads.WORKLOADS) - set(gated) == {"step-sweep"}
    assert "setup_s" in run.END_TO_END_UNITS
    configs = _short(workloads.lean_ensemble_configs(0)[:1])
    tally = run.Tally({})
    layer = run.per_layer(SimpleNamespace(seconds=0), configs,
                          workloads.lean_ensemble_pass, tmp_path, tally)
    assert layer["values"].keys() == run.LAYER_UNITS.keys()
    ends = run.end_to_end(SimpleNamespace(seconds=0), configs,
                          workloads.lean_ensemble_pass, tmp_path, tally)
    assert ends["values"].keys() == run.END_TO_END_UNITS.keys()
    assert all(v > 0 for v in ends["values"].values())
    report = ends["report"]
    starts = run.STARTS_PER_PASS * report["passes"]
    assert len(report["setup_starts"]) == len(report["setup_starts_raw"]) == starts
    # One block before the first start; one before and one after every
    # pass, whose single lean-ensemble cell is one segment.
    assert len(report["calibration_blocks_s"]) == 2 * report["passes"] + 1
    blocks = report["calibration_blocks_s"]
    scales = [speed.factor(blocks[i], blocks[i + 1]) for i in range(1, len(blocks), 2)]
    for wall, raw, scale in zip(report["pass_wall_s"], report["pass_wall_s_raw"], scales):
        assert wall == pytest.approx(raw * scale, rel=1e-12)


def test_meter_scales_each_segment_by_its_own_blocks(tmp_path):
    configs = _short(workloads.lean_ensemble_configs(0)[:13], hours=0.5)
    meter = speed.Meter(calibrate=True)
    p = workloads.lean_ensemble_pass(configs, tmp_path, meter)
    # 13 runs in segments of 6: three segments, four blocks.
    assert len(meter.blocks) == 4
    assert p.raw["wall"] >= p.raw["loop"] > 0
    plain = workloads.lean_ensemble_pass(configs, tmp_path)
    assert (plain.wall_s, plain.loop_s) == (plain.raw["wall"], plain.raw["loop"])
    assert plain.cells == p.cells


def test_speed_factor_is_one_at_the_reference_speed():
    assert speed.factor(speed.REF_BLOCK_S, speed.REF_BLOCK_S) == 1.0
    assert speed.factor(0.5 * speed.REF_BLOCK_S, 1.5 * speed.REF_BLOCK_S) == pytest.approx(1.0)
    assert speed.factor(2 * speed.REF_BLOCK_S, 2 * speed.REF_BLOCK_S) == pytest.approx(0.5)
    assert 0 < speed.block() < 60


def test_step_sweep_counts(tmp_path):
    v, tally = _traced("step-sweep", tmp_path)
    rate = 6 * 10 * 10 * 4  # cells x samples x substeps x RK4 stages
    assert v["kinetics.rate_calls"] == rate
    assert v["radiative.optics_calls"] == 2 * rate
    assert v["radiative.profile_calls"] == rate
    assert v["kinetics.node_evals"] == rate * 101
    assert v["plant.step_calls"] == 6 * 10
    assert v["plant.rhs_calls"] == rate
    assert v["control.fl_calls"] == v["control.ip_calls"] == 3 * 11
    assert v["steady_state.solve_calls"] == 0
    assert v["scenarios.run_calls"] == 6
    assert v["kinetics.rate_us_p99"] >= v["kinetics.rate_us_p50"] > 0
    # Traced cells are bit-identical to the untraced pass.
    assert tally.attempted == 12 and not tally.failed


def test_daynight_map_counts(tmp_path):
    v, _ = _traced("daynight-map", tmp_path)
    assert v["steady_state.setpoints_per_s"] > 0
    assert v["scenarios.map_lookups"] == 2 * 11
    map_solves = v["steady_state.solve_calls"] - len(workloads.MAP_Q0)
    assert v["scenarios.map_hit_ratio"] == pytest.approx(1 - map_solves / 22)
    plant_rates = 2 * 10 * 10 * 4
    solve_rates = v["kinetics.rate_calls"] - plant_rates
    assert v["steady_state.rate_calls_per_solve"] == pytest.approx(
        solve_rates / v["steady_state.solve_calls"]
    )


def test_setpoint_map_phase_counts(tmp_path):
    """The full 46-point map phase alone: 46 solves, 10,074 kernel calls."""
    v, _ = _traced("daynight-map", tmp_path, configs=[])
    assert v["steady_state.solve_calls"] == 46
    assert v["kinetics.rate_calls"] == 10_074


def test_lean_ensemble_never_calls_the_kernel(tmp_path):
    make, _ = workloads.WORKLOADS["lean-ensemble"]
    v, _ = _traced("lean-ensemble", tmp_path, _short(make(0), hours=2.0))
    assert v["kinetics.rate_calls"] == 0
    assert v["radiative.optics_calls"] == 0
    assert v["scenarios.run_calls"] == 60
    assert v["plant.step_calls"] == 60 * 20
    # Simplified plant at every RK4 stage, plus the FL controller's model.
    assert v["kinetics.haldane_calls"] == 60 * 20 * 10 * 4 + 20 * 21
    # The iP window (16 samples) is full from the 17th of 21 samples on.
    assert v["control.estimate_calls"] == 40 * 5
    assert v["cli.bytes_written"] > 0


def test_tracer_restores_module_globals():
    before = scenarios.run_scenario, scenarios.step, scenarios.MapReference.value_at
    with tracing.Tracer():
        assert scenarios.step is not before[1]
    assert (scenarios.run_scenario, scenarios.step, scenarios.MapReference.value_at) == before


def test_reference_check_passes_at_full_size(tmp_path):
    configs = workloads.lean_ensemble_configs(0)[:3]
    result = workloads.lean_ensemble_pass(configs, tmp_path)
    assert reference.failed_cells(result.cells, reference.load()) == []


def test_perturbed_reference_raises_fail_ratio(tmp_path):
    configs = workloads.lean_ensemble_configs(5)[:3]
    result = workloads.lean_ensemble_pass(configs, tmp_path)
    refs = reference.load()
    key = configs[1][0]
    for rel, fails in ((1e-10, False), (1e-8, True)):
        perturbed = dict(refs)
        cell = dict(refs[key])
        cell["x_final"] *= 1 + rel
        perturbed[key] = cell
        tally = run.Tally(perturbed)
        tally.check(result.cells)
        assert tally.attempted == 3
        assert (len(tally.failed) / tally.attempted > 0) == fails
    assert reference.failed_cells({key: None}, refs) == [key]  # a raising cell
    assert reference.failed_cells({"unknown": result.cells[key]}, refs) == ["unknown"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "step-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
