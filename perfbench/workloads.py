"""The three campaign workloads, driven through pbrsim's public API.

Every pass builds fresh scenarios from their config dicts, so no
``MapReference`` cache or controller state survives from one pass to the
next: a user pays for every solve on every run.  Package functions are
always called through their module (``scenarios.run_scenario``, not a
name imported into this file), so a tracer that patches module globals
sees every call.

A pass returns, for each cell, a compact summary that ``reference.py``
compares against the stored reference.  It times itself with a
``speed.Meter`` and closes a segment between cells, where the end-to-end
run calibrates the core's speed (see speed.py).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import speed
from pbrsim import cli, scenarios, steady_state
from pbrsim.control import FlConfig, IpConfig
from pbrsim.kinetics import SimplifiedModelParams

# --seed n selects noise seed n % SEED_POOL; the reference holds every seed
# of the pool, so any --seed is checked against stored outputs.
SEED_POOL = 32
LEAN_SEEDS = 20  # consecutive noise seeds per lean-ensemble pass
# The grid `pbrsim setpoint-map --q0-min 100 --q0-max 1000 --steps 46` builds.
MAP_Q0 = [100.0 + 900.0 * i / 45 for i in range(46)]
N_NODES = 101  # depth nodes of every scenario the workloads build
MAP_KEY = "daynight-map/map"  # reference key of the setpoint-map cell
LEAN_SEGMENT = 6  # lean-ensemble runs per timed segment (~0.3 s)


@dataclass
class Pass:
    """Timings and per-cell summaries of one pass over a workload.

    Times are scaled to the reference speed when the pass's meter
    calibrates, else as measured; ``raw`` holds them as measured.
    """

    wall_s: float  # whole pass: config build, runs, metrics, CSV output
    loop_s: float  # time inside run_scenario / robustness_sweep
    sim_h: float  # simulated closed-loop hours, summed over cells
    map_s: float  # time inside setpoint_map (0 without a map phase)
    map_points: int
    cells: dict[str, dict | None]  # reference key -> summary (None: raised)
    raw: dict[str, float]  # wall / loop / map seconds as measured


def summarize(trace: scenarios.SimulationTrace, metrics) -> dict:
    """Compact per-cell outputs compared against the stored reference."""
    return {
        **dataclasses.asdict(metrics),
        "x_final": float(trace.x_true[-1]),
        "x_true_sum": float(np.sum(trace.x_true)),
        "d_applied_sum": float(np.sum(trace.d_applied)),
    }


# --- config dicts ---------------------------------------------------------------


def step_sweep_configs(seed: int) -> list[tuple[str, dict]]:
    """Base scenario of `pbrsim sweep --scenario paper-4.1` (iP base)."""
    base = scenarios.light_step_scenario("ip", seed % SEED_POOL)
    return [(f"seed{seed % SEED_POOL}", cli.scenario_to_config(base))]


def daynight_map_configs(seed: int) -> list[tuple[str, dict]]:
    """paper-4.2 tracking the live productivity optimizer, fl and ip."""
    seed %= SEED_POOL
    out = []
    for kind in ("fl", "ip"):
        s = replace(
            scenarios.day_night_scenario(kind, seed), reference=scenarios.MapReference()
        )
        out.append((f"daynight-map/{kind}/seed{seed}", cli.scenario_to_config(s)))
    return out


def lean_ensemble_configs(seed: int) -> list[tuple[str, dict]]:
    """paper-4.1 on the simplified plant: fl, ip-open, ip-closed x 20 seeds."""
    controllers = {
        "fl": FlConfig(),
        "ip-open": IpConfig(estimator="open"),
        "ip-closed": IpConfig(estimator="closed"),
    }
    out = []
    for i in range(LEAN_SEEDS):
        noise_seed = (seed + i) % SEED_POOL
        for label, ctl in controllers.items():
            s = replace(
                scenarios.light_step_scenario("ip", noise_seed),
                plant=SimplifiedModelParams(),
                controller=ctl,
            )
            key = f"lean-ensemble/{label}/seed{noise_seed}"
            out.append((key, cli.scenario_to_config(s)))
    return out


# --- passes ---------------------------------------------------------------------


def _simulate(cfg: dict, out: Path):
    """One `pbrsim simulate` run: config, closed loop, metrics, two CSVs.

    Returns (trace, metrics, seconds inside run_scenario).
    """
    scenario = cli.scenario_from_config(cfg)
    t0 = time.perf_counter()
    trace = scenarios.run_scenario(scenario)
    loop_s = time.perf_counter() - t0
    metrics = scenarios.compute_metrics(trace)
    out.mkdir(parents=True, exist_ok=True)
    cli.write_trace_csv(out / "trace.csv", trace)
    cli.write_metrics_csv(out / "metrics.csv", metrics)
    return trace, metrics, loop_s


def _simulate_all(configs, out: Path, done: list, meter: speed.Meter, per_segment: int) -> None:
    """Run each config as its own cell; record (key, trace, metrics).

    Closes a meter segment after every `per_segment` cells but the last.
    """
    for i, (key, cfg) in enumerate(configs, 1):
        try:
            trace, metrics, dt = _simulate(cfg, out / key.replace("/", "_"))
        except Exception:  # noqa: BLE001 - a raising cell is counted as failed
            done.append((key, None, None))
        else:
            meter.add("loop", dt)
            done.append((key, trace, metrics))
        if i % per_segment == 0 and i < len(configs):
            meter.split()


def _finish(meter: speed.Meter, done, cells=None) -> Pass:
    """Stop the pass clock, then summarize the cells outside the timed span.

    `cells` holds summaries made during the pass (the map cell of
    daynight-map).
    """
    meter.split()
    cells = dict(cells or {})
    sim_h = 0.0
    for key, trace, metrics in done:
        cells[key] = None if trace is None else summarize(trace, metrics)
        sim_h += 0.0 if trace is None else float(trace.t[-1])
    map_cell = cells.get(MAP_KEY)
    map_points = len(map_cell["x_star"]) if map_cell else 0
    t = {name: meter.scaled.get(name, 0.0) for name in ("wall", "loop", "map")}
    raw = {name: meter.raw.get(name, 0.0) for name in ("wall", "loop", "map")}
    return Pass(t["wall"], t["loop"], sim_h, t["map"], map_points, cells, raw)


def step_sweep_pass(configs, out: Path, meter: speed.Meter | None = None) -> Pass:
    """`pbrsim sweep`: six paper-4.1 cells, each writing its trace CSV.

    One segment: the sweep is a single call.
    """
    meter = meter or speed.Meter()
    (label, cfg), = configs
    done = []
    try:
        base = cli.scenario_from_config(cfg)
        t0 = time.perf_counter()
        cells = scenarios.robustness_sweep(base)
        meter.add("loop", time.perf_counter() - t0)
    except Exception:  # noqa: BLE001
        return _finish(meter, [(f"step-sweep/{label}", None, None)])
    out.mkdir(parents=True, exist_ok=True)
    for cell in cells:
        key = f"step-sweep/{cell.controller_kind}/mu{cell.mu_0:g}/{label}"
        if cell.trace is None:
            done.append((key, None, None))
            continue
        path = out / f"trace_{cell.controller_kind}_mu{cell.mu_0:g}.csv"
        cli.write_trace_csv(path, cell.trace)
        done.append((key, cell.trace, cell.metrics))
    return _finish(meter, done)


def daynight_map_pass(configs, out: Path, meter: speed.Meter | None = None) -> Pass:
    """Standalone setpoint map, then paper-4.2 with a live map reference.

    One segment for the map phase, then one per closed-loop run.
    """
    meter = meter or speed.Meter()
    try:
        t0 = time.perf_counter()
        points = steady_state.setpoint_map(MAP_Q0)
        meter.add("map", time.perf_counter() - t0)
        lines = ["q0,x_star,d_star,productivity"]
        lines += [
            f"{p.q0:.8e},{p.x_star:.8e},{p.d_star:.8e},{p.productivity:.8e}"
            for p in points
        ]
        out.mkdir(parents=True, exist_ok=True)
        (out / "setpoint_map.csv").write_text("\n".join(lines) + "\n")
        map_cell = {"x_star": [p.x_star for p in points]}
    except Exception:  # noqa: BLE001
        map_cell = None
    if configs:
        meter.split()
    done = []
    _simulate_all(configs, out, done, meter, 1)
    return _finish(meter, done, {MAP_KEY: map_cell})


def lean_ensemble_pass(configs, out: Path, meter: speed.Meter | None = None) -> Pass:
    """Sixty `pbrsim simulate` runs on the simplified plant, in segments of
    LEAN_SEGMENT runs."""
    meter = meter or speed.Meter()
    done = []
    _simulate_all(configs, out, done, meter, LEAN_SEGMENT)
    return _finish(meter, done)


WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "step-sweep": (step_sweep_configs, step_sweep_pass),
    "daynight-map": (daynight_map_configs, daynight_map_pass),
    "lean-ensemble": (lean_ensemble_configs, lean_ensemble_pass),
}
