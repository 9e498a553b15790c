#!/usr/bin/env python3
"""Run the full benchmark set and print a comparison table.

Reproduces the closed-loop study end to end: the productivity setpoint map,
the light-step campaign and the day/night campaign under both controllers,
and the robustness sweep over the controller-model rate scale.  CSV files
land in --out (default ./results).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from pbrsim.cli import (
    ConfigError,
    check_out,
    write_map_csv,
    write_metrics_csv,
    write_sweep_summary,
    write_trace_csv,
    writing,
)
from pbrsim.plant import NoiseConfig
from pbrsim.scenarios import (
    BUILTIN_SCENARIOS,
    MU0_SWEEP_VALUES,
    compute_metrics,
    light_step_scenario,
    robustness_sweep,
    run_scenario,
    time_to_band,
)
from pbrsim.steady_state import setpoint_map


def fmt_settle(value: float | None) -> str:
    return f"{value:8.2f}" if value is not None else "   never"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    args = parser.parse_args()
    out = Path(args.out)
    try:  # refuse bad input before any solve, as the CLI does
        check_out(out, is_dir=True)
        NoiseConfig(seed=args.seed)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    try:  # a failed write is an error line too, not a traceback
        with writing(out):
            run_all(out, args.seed)
    except ConfigError as exc:
        parser.exit(2, f"error: {exc}\n")


def run_all(out: Path, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    print("== productivity-optimal setpoints ==")
    grid = [100.0 + 100.0 * i for i in range(10)]
    points = setpoint_map(grid)
    print(f"{'q0':>6} {'X*':>8} {'D*':>8} {'P*':>10}")
    for op in points:
        print(f"{op.q0:6.0f} {op.x_star:8.4f} {op.d_star:8.4f} {op.productivity:10.6f}")
    write_map_csv(out / "setpoint_map.csv", points)

    print("\n== closed-loop campaigns ==")
    print(
        f"{'scenario':>10} {'ctrl':>4} {'offset':>10} {'iae':>8}"
        f" {'settle':>8} {'batch':>6} {'reattach':>8}"
    )
    for name, builder in BUILTIN_SCENARIOS.items():
        for kind in ("fl", "ip"):
            scenario = builder(controller=kind, seed=seed)
            trace = run_scenario(scenario)
            metrics = compute_metrics(trace)
            tag = name.replace(".", "_").replace("-", "_")
            write_trace_csv(out / f"trace_{tag}_{kind}.csv", trace)
            write_metrics_csv(out / f"metrics_{tag}_{kind}.csv", metrics)
            # reattach time after the t = 30 h setpoint drop (scenario 1 only)
            reattach = time_to_band(trace, 30.0) if name == "paper-4.1" else None
            print(
                f"{name:>10} {kind:>4} {metrics.steady_state_offset:10.2e}"
                f" {metrics.iae:8.4f} {fmt_settle(metrics.settle_time_to_2pct)}"
                f" {metrics.batch_phase_duration:6.1f}"
                f" {fmt_settle(reattach)}"
            )

    print("\n== robustness sweep (controller-model mu_0) ==")
    base = light_step_scenario(controller="ip", seed=seed)
    cells = robustness_sweep(base, MU0_SWEEP_VALUES)
    print(f"{'ctrl':>4} {'mu_0':>6} {'offset':>10} {'iae':>8} {'batch':>6}")
    for cell in cells:
        if cell.metrics is None:
            print(f"{cell.controller_kind:>4} {cell.mu_0:6.2f}  failed: {cell.error}")
            continue
        m = cell.metrics
        write_trace_csv(
            out / f"trace_sweep_{cell.controller_kind}_mu{cell.mu_0:g}.csv",
            cell.trace,
        )
        print(
            f"{cell.controller_kind:>4} {cell.mu_0:6.2f}"
            f" {m.steady_state_offset:10.2e} {m.iae:8.4f}"
            f" {m.batch_phase_duration:6.1f}"
        )
    write_sweep_summary(out / "sweep_summary.csv", cells)

    print(f"\nall outputs in {out}/ ({time.perf_counter() - t_start:.1f} s)")


if __name__ == "__main__":
    main()
