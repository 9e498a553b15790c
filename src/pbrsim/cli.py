"""Command-line front end: run campaigns and emit plot-ready CSV files.

Exit codes: 0 success, 2 configuration error, 3 integration fault.  All
output is deterministic: identical configuration and seed give byte-identical
files, and numbers are written in fixed 9-significant-digit scientific
notation so reruns can be diffed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from .control import FlConfig, IpConfig
from .kinetics import FullModelParams, SimplifiedModelParams
from .plant import DayNightLight, IntegrationError, PiecewiseConstant
from .scenarios import (
    BUILTIN_SCENARIOS,
    MU0_SWEEP_VALUES,
    FixedReference,
    MapReference,
    Scenario,
    SimulationTrace,
    SweepCell,
    TrackingMetrics,
    compute_metrics,
    robustness_sweep,
    run_scenario,
)
from .steady_state import OperatingPoint, setpoint_map

__all__ = ["main", "ConfigError", "scenario_to_config", "scenario_from_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3

TRACE_HEADER = "t,x_true,y_meas,y_ref,d_applied,q0,f_est"
METRICS_HEADER = "offset,iae,settle_time,batch_duration"
SWEEP_HEADER = "controller,mu0,offset,iae,settle_time,batch_duration,status"
MAP_HEADER = "q0,x_star,d_star,productivity"


class ConfigError(ValueError):
    """Configuration input the CLI refuses to run."""


def _fmt(x: float) -> str:
    """Fixed 9-significant-digit scientific notation."""
    return f"{x:.8e}"


def _fmt_opt(x: float | None) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return _fmt(x)


# --- scenario <-> config dict -------------------------------------------------
#
# The config file is JSON with nested keys mirroring the dataclass fields,
# so every model constant can be overridden either in the file or with
# --set dotted.key=value flags.  A field that can hold one of several types
# names the one it holds with a "kind" tag.

# Scenario fields that can hold one of several types: kind tag -> type.
KINDS: dict[str, dict[str, type]] = {
    "light": {"piecewise": PiecewiseConstant, "day_night": DayNightLight},
    "reference": {"fixed": FixedReference, "schedule": PiecewiseConstant, "map": MapReference},
    "controller": {"fl": FlConfig, "ip": IpConfig},
    "plant": {"full": FullModelParams, "simplified": SimplifiedModelParams},
}


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """Config key -> annotation (or kind table) of each init field of cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: KINDS.get(f.name, hints[f.name]) for f in fields(cls) if f.init}


def _encode(value: Any, kinds: dict[str, type] | None = None) -> Any:
    if is_dataclass(value):
        out: dict[str, Any] = {}
        if kinds is not None:
            out["kind"] = next(tag for tag, cls in kinds.items() if type(value) is cls)
        for name in _field_types(type(value)):
            out[name] = _encode(getattr(value, name), KINDS.get(name))
        return out
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(tp: Any, value: Any, key: str) -> Any:
    """Build a value of type tp, or of the kind tagged in value when tp is a
    kind table, from its config form found at dotted key."""
    if tp is float:
        if type(value) in (int, float):
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:  # an int beyond float range
                pass
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if tp in (int, str, bool):
        if type(value) is tp:
            return value
        raise ConfigError(f"{key} must be of type {tp.__name__}, got {value!r}")
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise ConfigError(f"{key} must have {len(args)} entries, got {value!r}")
        return tuple(
            _decode(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(item_types, value))
        )
    if isinstance(tp, dict):
        kind = value.get("kind") if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in tp:
            raise ConfigError(f"{key}.kind must be one of: {', '.join(tp)}")
        value = {k: v for k, v in value.items() if k != "kind"}
        tp = tp[kind]
    if not isinstance(value, dict):
        raise ConfigError(f"{key or 'config'} must be an object, got {value!r}")
    types = _field_types(tp)
    kwargs = {}
    for name, v in value.items():
        sub = f"{key}.{name}" if key else name
        if name not in types:
            raise ConfigError(f"unknown config key {sub!r}")
        kwargs[name] = _decode(types[name], v, sub)
    try:
        return tp(**kwargs)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key or 'scenario'}: {exc}") from exc


def scenario_to_config(s: Scenario) -> dict[str, Any]:
    """Nested plain-dict form of a scenario."""
    return _encode(s)


def scenario_from_config(cfg: dict[str, Any]) -> Scenario:
    """Construct and validate a scenario from its plain-dict form."""
    return _decode(Scenario, cfg, "")


def _reject_constant(token: str) -> Any:
    raise ConfigError(f"non-finite number {token} in config")


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict[str, Any], pairs: Sequence[str]) -> dict[str, Any]:
    """Apply --set dotted.key=value overrides; keys must already exist."""
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        node: Any = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"--set references unknown key {key!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"--set references unknown key {key!r}")
        node[leaf] = _parse_scalar(value)
    return cfg


def load_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the scenario from --config or --scenario plus overrides."""
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            cfg = json.loads(path.read_text(), parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    else:
        name = args.scenario
        if name not in BUILTIN_SCENARIOS:
            known = ", ".join(sorted(BUILTIN_SCENARIOS))
            raise ConfigError(f"unknown scenario {name!r} (built-ins: {known})")
        builder = BUILTIN_SCENARIOS[name]
        kwargs: dict[str, Any] = {"controller": args.controller}
        if name == "paper-4.1":
            kwargs["reference"] = args.reference
        elif args.reference != "anchors":
            raise ConfigError("--reference map is only meaningful for paper-4.1")
        cfg = scenario_to_config(builder(**kwargs))

    scenario = scenario_from_config(apply_overrides(cfg, args.set or []))
    if args.seed is not None:
        scenario = replace(scenario, noise=replace(scenario.noise, seed=args.seed))
    return scenario


# --- CSV writers ---------------------------------------------------------------


def write_trace_csv(path: Path, trace: SimulationTrace) -> None:
    lines = [TRACE_HEADER]
    for i in range(len(trace)):
        lines.append(
            ",".join(
                (
                    _fmt(trace.t[i]),
                    _fmt(trace.x_true[i]),
                    _fmt(trace.y_meas[i]),
                    _fmt(trace.y_ref[i]),
                    _fmt(trace.d_applied[i]),
                    _fmt(trace.q0[i]),
                    _fmt_opt(float(trace.f_est[i])),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_metrics_csv(path: Path, m: TrackingMetrics) -> None:
    row = ",".join(
        (
            _fmt(m.steady_state_offset),
            _fmt(m.iae),
            _fmt_opt(m.settle_time_to_2pct),
            _fmt(m.batch_phase_duration),
        )
    )
    path.write_text(METRICS_HEADER + "\n" + row + "\n")


def write_map_csv(path: Path, points: Sequence[OperatingPoint]) -> None:
    lines = [MAP_HEADER]
    for op in points:
        lines.append(
            ",".join((_fmt(op.q0), _fmt(op.x_star), _fmt(op.d_star), _fmt(op.productivity)))
        )
    path.write_text("\n".join(lines) + "\n")


def write_sweep_summary(path: Path, cells: Sequence[SweepCell]) -> None:
    """One row per cell; a failed cell keeps its error on one line, commas
    turned into semicolons."""
    lines = [SWEEP_HEADER]
    for cell in cells:
        m = cell.metrics
        if m is not None:
            cols = (
                _fmt(m.steady_state_offset),
                _fmt(m.iae),
                _fmt_opt(m.settle_time_to_2pct),
                _fmt(m.batch_phase_duration),
                "ok",
            )
        else:
            reason = (cell.error or "failed").replace(",", ";").replace("\n", " ")
            cols = ("", "", "", "", f"failed: {reason}")
        lines.append(",".join((cell.controller_kind, _fmt(cell.mu_0), *cols)))
    path.write_text("\n".join(lines) + "\n")


# --- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args)
    trace = run_scenario(scenario)  # run fully before writing any file
    metrics = compute_metrics(trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", trace)
    write_metrics_csv(out / "metrics.csv", metrics)
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.csv'}")
    return EXIT_OK


def cmd_setpoint_map(args: argparse.Namespace) -> int:
    lo, hi, steps = args.q0_min, args.q0_max, args.steps
    if not (100.0 <= lo < hi <= 1000.0):
        raise ConfigError(f"need 100 <= q0-min < q0-max <= 1000, got [{lo}, {hi}]")
    if steps < 2:
        raise ConfigError("steps must be >= 2")
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    points = setpoint_map(grid)
    path = Path(args.out)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    write_map_csv(path, points)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_scenario(args)
    mu0_values = tuple(args.mu0) if args.mu0 else MU0_SWEEP_VALUES
    if not mu0_values:
        raise ConfigError("sweep needs at least one mu0 value")
    cells = robustness_sweep(base, mu0_values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for cell in cells:
        if cell.trace is not None:
            write_trace_csv(
                out / f"trace_{cell.controller_kind}_mu{cell.mu_0:g}.csv", cell.trace
            )
    write_sweep_summary(out / "summary.csv", cells)
    n_ok = sum(1 for c in cells if c.trace is not None)
    print(f"wrote {out / 'summary.csv'} ({n_ok}/{len(cells)} cells ok)")
    return EXIT_OK if n_ok else EXIT_INTEGRATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbrsim",
        description="Closed-loop photobioreactor simulation workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group()
        src.add_argument(
            "--scenario",
            default="paper-4.1",
            help="built-in scenario name (default: %(default)s)",
        )
        src.add_argument("--config", help="JSON scenario config file")
        p.add_argument(
            "--controller",
            choices=("fl", "ip"),
            default="ip",
            help="controller for built-in scenarios (default: %(default)s)",
        )
        p.add_argument(
            "--reference",
            choices=("anchors", "map"),
            default="anchors",
            help="paper-4.1 reference mode: hard-coded setpoints or the live "
            "productivity optimizer (default: %(default)s)",
        )
        p.add_argument("--seed", type=int, default=None, help="measurement noise seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry by dotted key, e.g. controller.sp.mu_0=0.21",
        )

    p_sim = sub.add_parser("simulate", help="run one scenario, write trace + metrics")
    add_scenario_args(p_sim)
    p_sim.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    p_sim.set_defaults(func=cmd_simulate)

    p_map = sub.add_parser(
        "setpoint-map", help="tabulate productivity-optimal setpoints versus light"
    )
    p_map.add_argument("--q0-min", type=float, default=100.0)
    p_map.add_argument("--q0-max", type=float, default=1000.0)
    p_map.add_argument("--steps", type=int, default=10)
    p_map.add_argument(
        "--out", default="setpoint_map.csv", help="output CSV path (default: %(default)s)"
    )
    p_map.set_defaults(func=cmd_setpoint_map)

    p_sweep = sub.add_parser(
        "sweep", help="robustness sweep over controller-model mu_0 values"
    )
    add_scenario_args(p_sweep)
    p_sweep.add_argument(
        "--mu0",
        type=float,
        action="append",
        help="mu_0 value for the controller model (repeatable; "
        "default 0.07 0.14 0.21)",
    )
    p_sweep.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration fault: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
