"""Layered campaign benchmark for pbrsim.

    python3 perfbench/run.py --workload daynight-map --seed 0 --seconds 55 --trace 0

Runs passes of one workload in this single process until --seconds is
spent, checks every cell against reference.json, prints a readable report
to stderr and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off), with every time
scaled to a reference core speed (speed.py); --trace 1 runs one untraced
pass, then traced passes, and reports the per-layer metrics, unscaled.
All files go to .bench_out/<workload>/ in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import OUT, ROOT, environment, use_checkout_source

use_checkout_source()

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STARTS_PER_PASS = 2  # fresh interpreters timed before every pass, for setup_s
PROBE = Path(__file__).resolve().parent / "probe.py"

# Metric names and units, in report order, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Cells attempted and failed, checked against the stored reference."""

    def __init__(self, refs: dict) -> None:
        self.refs = refs
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, cells: dict, same_as: dict | None = None) -> None:
        """Count cells; one fails if it misses its reference or, when
        same_as is given, differs in any bit from the cell there."""
        self.attempted += len(cells)
        bad = set(reference.failed_cells(cells, self.refs))
        if same_as is not None:
            bad |= {k for k, v in cells.items() if v != same_as.get(k)}
        self.failed += sorted(bad)


def time_start(cmd: list[str]) -> float:
    """Wall time of one fresh interpreter running cmd to its exit."""
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return dt


def end_to_end(args, configs, run_pass, out: Path, tally: Tally) -> dict:
    """Rounds of set-up starts and one pass until the next round would end
    after --seconds; at least one.  Every pass runs on a calibrating meter,
    which scales each segment of it to the reference speed by the
    calibration blocks on either side; the starts of a round are scaled by
    the blocks on either side of them (see speed.py)."""
    path = out / "configs.json"
    path.write_text(json.dumps([cfg for _, cfg in configs]))
    cmd = [sys.executable, str(PROBE), str(path)]
    time_start(cmd)  # warm-up: compiles bytecode and fills the file cache
    speed.block()  # warm-up
    blocks = [speed.block()]
    setup_raw: list[float] = []
    setup: list[float] = []
    passes: list[workloads.Pass] = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        # Starts are spread over the run, before every pass, so that setup_s
        # samples the same stretch of machine load as the passes.
        starts = [time_start(cmd) for _ in range(STARTS_PER_PASS)]
        meter = speed.Meter(calibrate=True)
        scale = speed.factor(blocks[-1], meter.blocks[0])
        setup_raw += starts
        setup += [s * scale for s in starts]
        p = run_pass(configs, out / "csv", meter)
        blocks += meter.blocks
        tally.check(p.cells)
        passes.append(p)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > args.seconds:
            break
    median = statistics.median

    def sim_h_per_s(p: workloads.Pass, loop_s: float) -> float:
        return p.sim_h / loop_s if loop_s else 0.0

    values = {
        "wall_s": median(p.wall_s for p in passes),
        "sim_h_per_s": median(sim_h_per_s(p, p.loop_s) for p in passes),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    maps = [p for p in passes if p.map_points]
    report = {
        "passes": len(passes),
        "ref_block_s": speed.REF_BLOCK_S,
        "calibration_blocks_s": blocks,
        "setup_starts": setup,
        "setup_starts_raw": setup_raw,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_wall_s_raw": [p.raw["wall"] for p in passes],
        "raw_medians": {
            "wall_s": median(p.raw["wall"] for p in passes),
            "sim_h_per_s": median(sim_h_per_s(p, p.raw["loop"]) for p in passes),
            "setup_s": median(setup_raw),
        },
        # Not gated (zero or absent on some workloads); printed for users.
        "setpoints_per_s": median(p.map_points / p.map_s for p in maps) if maps else None,
    }
    return {"values": values, "units": END_TO_END_UNITS, "report": report}


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def layer_values(tr: tracing.Tracer, traced, untraced, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced pass; `untraced` is the same pass
    run with tracing off, in the same process."""
    rate = tr.calls("kinetics.mean_oxygen_rate")
    solves = tr.calls("steady_state.optimal_setpoint")
    lookups = tr.calls("scenarios.MapReference.value_at")
    map_solves = tr.calls_inside("scenarios.MapReference.value_at", "steady_state.optimal_setpoint")
    solve_rates = tr.calls_inside("steady_state.optimal_setpoint", "kinetics.mean_oxygen_rate")
    us = 1e6
    return {
        "radiative.profile_calls": tr.calls("radiative.irradiance_at_depth"),
        "radiative.optics_calls": tr.calls("radiative.optical_coefficients"),
        "radiative.self_s": tr.layer_self("radiative"),
        "kinetics.rate_calls": rate,
        # Computed, not measured: every workload scenario uses N_NODES nodes.
        "kinetics.node_evals": rate * workloads.N_NODES,
        "kinetics.rate_us_p50": tr.percentile("kinetics.mean_oxygen_rate", 50) * us,
        "kinetics.rate_us_p99": tr.percentile("kinetics.mean_oxygen_rate", 99) * us,
        "kinetics.haldane_calls": tr.calls("kinetics.growth_rate_simplified"),
        "kinetics.self_s": tr.layer_self("kinetics"),
        "plant.step_calls": tr.calls("plant.step"),
        "plant.rhs_calls": tr.calls("plant.plant_derivative"),
        "plant.light_calls": tr.calls("plant.light_at"),
        "plant.step_us_p50": tr.percentile("plant.step", 50) * us,
        "plant.self_s": tr.layer_self("plant"),
        "control.fl_calls": tr.calls("control.FlController.step"),
        "control.ip_calls": tr.calls("control.IpController.step"),
        "control.estimate_calls": tr.calls("control.estimate_F_open")
        + tr.calls("control.estimate_F_closed"),
        "control.fl_step_us_p50": tr.percentile("control.FlController.step", 50) * us,
        "control.ip_step_us_p50": tr.percentile("control.IpController.step", 50) * us,
        "control.self_s": tr.layer_self("control"),
        "steady_state.solve_calls": solves,
        "steady_state.solve_ms_p50": tr.percentile("steady_state.optimal_setpoint", 50) * 1e3,
        "steady_state.rate_calls_per_solve": solve_rates / solves if solves else 0.0,
        "steady_state.setpoints_per_s": (
            untraced.map_points / untraced.map_s if untraced.map_points else 0.0
        ),
        "steady_state.self_s": tr.layer_self("steady_state"),
        "scenarios.run_calls": tr.calls("scenarios.run_scenario"),
        "scenarios.self_s": tr.layer_self("scenarios"),
        "scenarios.map_lookups": lookups,
        "scenarios.map_hit_ratio": 1.0 - map_solves / lookups if lookups else 0.0,
        "cli.config_s": tr.total("cli.scenario_from_config"),
        "cli.write_s": tr.total("cli.write_trace_csv") + tr.total("cli.write_metrics_csv"),
        "cli.bytes_written": csv_bytes,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }


def per_layer(args, configs, run_pass, out: Path, tally: Tally) -> dict:
    csv_dir = out / "csv"
    t_start = time.perf_counter()
    untraced = run_pass(configs, csv_dir)
    tally.check(untraced.cells)
    rows = []
    with tracing.Tracer() as tr:
        while True:
            tr.reset()
            traced = run_pass(configs, csv_dir)
            tally.check(traced.cells, same_as=untraced.cells)  # tracing changes no bit
            rows.append(layer_values(tr, traced, untraced, _bytes_under(csv_dir)))
            if time.perf_counter() - t_start + traced.wall_s > args.seconds:
                break
        tr.write_spans(out / "spans.npz")
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    report = {"traced_passes": len(rows), "untraced_wall_s": untraced.wall_s}
    return {"values": values, "units": LAYER_UNITS, "report": report}


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    make_configs, run_pass = workloads.WORKLOADS[args.workload]
    configs = make_configs(args.seed)
    tally = Tally(reference.load())
    measure = per_layer if args.trace else end_to_end
    result = measure(args, configs, run_pass, out, tally)

    values, units = result["values"], result["units"]
    if values.keys() != units.keys():
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failed = len(tally.failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": tally.attempted,
        "failed_cells": sorted(set(tally.failed)),
        "metrics": metrics,
        **result["report"],
    }
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")

    log = sys.stderr
    print(f"pbrsim benchmark: {args.workload}, seed {args.seed}, trace {args.trace}", file=log)
    print(f"  env: {json.dumps(env)}", file=log)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=log)
    if not args.trace:
        for name, value in result["report"]["raw_medians"].items():
            print(f"  {name + ' (unscaled)':36s} {value:14.6g} {units[name]}", file=log)
        sp = result["report"]["setpoints_per_s"]
        shown = "n/a" if sp is None else f"{sp:.6g}"
        print(f"  {'setpoints_per_s':36s} {shown:>14} 1/s", file=log)
    print(f"  {'fail_ratio':36s} {failed / tally.attempted:14.6g} "
          f"({failed} of {tally.attempted} cells)", file=log)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
