"""Command-line front end: run campaigns and emit plot-ready CSV files.

Exit codes: 0 success, 2 configuration error, 3 integration fault.  All
output is deterministic: identical configuration and seed give byte-identical
files, and numbers are written in fixed 9-significant-digit scientific
notation so reruns can be diffed.
"""

import argparse
import json
import math
import os
import stat
import sys
import time
import typing
import warnings
from dataclasses import astuple, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from .kinetics import FullModelParams, SimplifiedModelParams
from .plant import LIGHT_STEP_PROFILE, DayNightLight, IntegrationError, PiecewiseConstant
from .radiative import _shown
from .scenarios import (
    BUILTIN_SCENARIOS,
    CONTROLLERS,
    MU0_SWEEP_VALUES,
    MapReference,
    Scenario,
    SimulationTrace,
    SweepCell,
    TrackingMetrics,
    compute_metrics,
    robustness_sweep,
    run_scenario,
    time_to_band,
)
from .steady_state import Q0_VALID_RANGE, OperatingPoint, setpoint_map

__all__ = ["main", "ConfigError", "scenario_to_config", "scenario_from_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3

MAP_STEPS = 10  # setpoint-map grid points by default
# A map point's solve, its share of the chunked numpy scan included, takes 0.05-0.07 ms on a
# 2-vCPU host: there, --steps 1000 took 0.31-0.34 s wall, mostly start-up, for 1001 CSV lines.
MAX_MAP_STEPS = 1000

TRACE_HEADER = ",".join(f.name for f in fields(SimulationTrace))
METRICS_HEADER = "offset,iae,settle_time,batch_duration"
SWEEP_HEADER = f"controller,mu0,{METRICS_HEADER},status"
MAP_HEADER = ",".join(f.name for f in fields(OperatingPoint))
NUMBER_FORMAT = "%.8e"  # every number written: fixed 9-significant-digit scientific notation


class ConfigError(ValueError):
    """Configuration input the CLI refuses to run."""


# --- scenario <-> config dict -------------------------------------------------
#
# The config file is JSON with nested keys mirroring the dataclass fields,
# so every model constant can be overridden either in the file or with
# --set dotted.key=value flags.  A field that can hold one of several types
# names the one it holds with a "kind" tag.

# Scenario fields that can hold one of several types: kind tag -> type.
KINDS: dict[str, dict[str, type]] = {
    "light": {"piecewise": PiecewiseConstant, "day_night": DayNightLight},
    "reference": {"schedule": PiecewiseConstant, "map": MapReference},
    "controller": CONTROLLERS,
    "plant": {"full": FullModelParams, "simplified": SimplifiedModelParams},
}


def _encode(value: Any, kinds: dict[str, type] | None = None) -> Any:
    if is_dataclass(value):
        out: dict[str, Any] = {}
        if kinds is not None:
            out["kind"] = next(tag for tag, cls in kinds.items() if type(value) is cls)
        for f in fields(value):
            if f.init:
                out[f.name] = _encode(getattr(value, f.name), KINDS.get(f.name))
        return out
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _reason(exc: Exception) -> str:
    """Why a file-system call failed, without the OS's copy of the path."""
    return getattr(exc, "strerror", None) or str(exc)


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
        raise ConfigError(f"{key} must be a finite number, got {_shown(value)}")
    if tp in (int, str, bool):
        if type(value) is tp:
            return value
        raise ConfigError(f"{key} must be of type {tp.__name__}, got {_shown(value)}")
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {_shown(value)}")
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise ConfigError(f"{key} must have {len(args)} entries, got {_shown(value)}")
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
        raise ConfigError(f"{key or 'config'} must be an object, got {_shown(value)}")
    types = {f.name: KINDS.get(f.name, f.type) for f in fields(tp) if f.init}
    kwargs = {}
    for name, v in value.items():
        sub = f"{key}.{name}" if key else name
        if name not in types:
            raise ConfigError(f"unknown config key {_shown(sub)}")
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


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # bad JSON, over 4,300 digits, too deep
        return text


def apply_overrides(cfg: dict[str, Any], pairs: Sequence[str]) -> dict[str, Any]:
    """Apply --set dotted.key=value overrides; keys must already exist.  A kind
    switch, <field>.kind=<tag>, goes first and resets the field to the new
    type's defaults, whose keys the other overrides then set."""
    split = [pair.partition("=") for pair in pairs]
    for key, sep, value in sorted(split, key=lambda kv: not kv[0].endswith(".kind")):
        if not sep:
            raise ConfigError(f"--set expects key=value, got {_shown(key)}")
        *path, leaf = key.split(".")
        node: Any = cfg
        for part in (*path, leaf):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"--set references unknown key {_shown(key)}")
            parent, node = node, node[part]
        new = _parse_scalar(value)
        kinds = KINDS.get(path[-1], {}) if path and leaf == "kind" else {}
        if isinstance(new, str) and new in kinds and new != node:
            try:
                fresh = _encode(kinds[new](), kinds)
            except TypeError:
                raise ConfigError(f"--set {key}={new}: {new} has no defaults") from None
            parent.clear()
            parent.update(fresh)
        else:
            parent[leaf] = new
    return cfg


def load_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the scenario from --config or --scenario plus overrides; the
    flags --controller K and --reference map are kind switches put first."""
    switches = [f"controller.kind={args.controller}"] if args.controller else []
    if args.reference == "map":
        switches.append("reference.kind=map")
    if args.config:
        if args.controller or args.reference:
            raise ConfigError("--controller and --reference apply to built-in scenarios only")
        try:
            raw = Path(args.config).read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte or a lone surrogate
            raise ConfigError(f"cannot read config {_shown(args.config)}: {_reason(exc)}") from exc
        try:
            cfg = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or too deep
            raise ConfigError(f"config {_shown(args.config)} is not valid JSON: {exc}") from exc
    else:
        if args.scenario not in BUILTIN_SCENARIOS:
            known = ", ".join(sorted(BUILTIN_SCENARIOS))
            raise ConfigError(f"unknown scenario {_shown(args.scenario)} (built-ins: {known})")
        cfg = scenario_to_config(BUILTIN_SCENARIOS[args.scenario]())

    scenario = scenario_from_config(apply_overrides(cfg, [*switches, *(args.set or [])]))
    return scenario if args.seed is None else _seeded(scenario, args.seed)


def _seeded(scenario: Scenario, seed: int) -> Scenario:
    """The scenario with noise seed --seed."""
    try:
        return replace(scenario, noise=replace(scenario.noise, seed=seed))
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from exc


# --- CSV writers ---------------------------------------------------------------


def _field(x: float | str | None) -> str:
    """One CSV field: None or NaN is empty, a string goes as is."""
    if x is None or x != x:  # NaN is the one value unequal to itself
        return ""
    return x if isinstance(x, str) else NUMBER_FORMAT % x


def _fields(rows: Iterable[Sequence[Any]]) -> Iterable[str]:
    """Rows of mixed fields as CSV lines, each field through _field."""
    return (",".join(map(_field, row)) for row in rows)


def _write_csv(path: Path, header: str, lines: Iterable[str]) -> None:
    """The one file writer: makes path's directory; an OSError is a ConfigError."""
    text = "\n".join([header, *lines]) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {_shown(str(path))}: {_reason(exc)}") from exc


def write_trace_csv(path: Path, trace: SimulationTrace) -> None:
    """One row per sample; the header names are the trace's column fields."""
    columns = [getattr(trace, name).tolist() for name in TRACE_HEADER.split(",")]
    # One format call per all-float row; of its fields only NaN's reads "nan",
    # a field _field leaves empty.
    row = ",".join([NUMBER_FORMAT] * len(columns))
    _write_csv(path, TRACE_HEADER, ((row % v).replace("nan", "") for v in zip(*columns)))


def _metrics_fields(m: TrackingMetrics) -> tuple[float | None, ...]:
    return (m.steady_state_offset, m.iae, m.settle_time_to_2pct, m.batch_phase_duration)


def write_metrics_csv(path: Path, m: TrackingMetrics) -> None:
    _write_csv(path, METRICS_HEADER, _fields([_metrics_fields(m)]))


def write_map_csv(path: Path, points: Sequence[OperatingPoint]) -> None:
    _write_csv(path, MAP_HEADER, _fields(map(astuple, points)))


def write_sweep_summary(path: Path, cells: Sequence[SweepCell]) -> None:
    """One row per cell; a failed cell keeps its error on one line, commas
    turned into semicolons."""
    rows = []
    for cell in cells:
        if cell.metrics is not None:
            cols = (*_metrics_fields(cell.metrics), "ok")
        else:
            reason = (cell.error or "failed").replace(",", ";").replace("\n", " ")
            cols = (None, None, None, None, f"failed: {reason}")
        rows.append((cell.controller_kind, cell.mu_0, *cols))
    _write_csv(path, SWEEP_HEADER, _fields(rows))


# --- output locations ----------------------------------------------------------


def _check_out(path: Path, is_dir: bool) -> None:
    """Refuse an output location that cannot be written, before anything runs.

    path must be a directory if is_dir, else a file, or not exist yet with
    a directory as its nearest existing ancestor.  Nothing is created here.
    """
    shown = _shown(str(path))
    for place in (path, *path.parents):
        try:
            place_is_dir = stat.S_ISDIR(os.stat(place).st_mode)
        except (FileNotFoundError, NotADirectoryError):  # not there yet: ask its parent
            if os.path.islink(place):  # a write would follow it
                raise ConfigError(f"--out {shown}: {_shown(str(place))} is a dangling symlink")
            continue
        except (OSError, ValueError) as exc:  # a NUL byte, a lone surrogate, a loop, ...
            raise ConfigError(f"--out {shown} cannot be checked: {_reason(exc)}") from exc
        if place is path and place_is_dir != is_dir:
            raise ConfigError(f"--out {shown} is {'not ' if is_dir else ''}a directory")
        if place is not path and not place_is_dir:
            raise ConfigError(f"--out {shown} lies under {_shown(str(place))}, a file")
        return


def _write_sweep(out: Path, cells: Sequence[SweepCell], prefix: str = "") -> None:
    """Write trace_<prefix><controller>_mu<mu_0>.csv for each cell that ran,
    and <prefix>summary.csv, under out."""
    for cell in cells:
        if cell.trace is not None:
            name = f"trace_{prefix}{cell.controller_kind}_mu{cell.mu_0:g}.csv"
            write_trace_csv(out / name, cell.trace)
    write_sweep_summary(out / f"{prefix}summary.csv", cells)


# --- subcommands ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args)
    out = Path(args.out)
    _check_out(out, is_dir=True)
    trace = run_scenario(scenario)  # run fully before writing any file
    metrics = compute_metrics(trace)
    write_trace_csv(out / "trace.csv", trace)
    write_metrics_csv(out / "metrics.csv", metrics)
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.csv'}")
    return EXIT_OK


def _map_grid(lo: float, hi: float, steps: int) -> list[float]:
    """steps evenly spaced light levels from lo to hi, ending at hi itself."""
    q_min, q_max = Q0_VALID_RANGE
    if not (q_min <= lo < hi <= q_max):
        raise ConfigError(f"need {q_min:g} <= q0-min < q0-max <= {q_max:g}, got [{lo}, {hi}]")
    if not 2 <= steps <= MAX_MAP_STEPS:
        raise ConfigError(f"steps must lie in [2, {MAX_MAP_STEPS}], got {_shown(steps)}")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps - 1)] + [hi]


def cmd_setpoint_map(args: argparse.Namespace) -> int:
    grid = _map_grid(args.lo, args.hi, args.steps)
    path = Path(args.out)
    _check_out(path, is_dir=False)
    write_map_csv(path, setpoint_map(grid))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_scenario(args)
    mu0_values = tuple(args.mu0) if args.mu0 else MU0_SWEEP_VALUES
    for mu_0 in mu0_values:  # each is the FL model's mu_0, in that field's declared range
        try:
            SimplifiedModelParams(mu_0=mu_0)
        except ValueError as exc:
            raise ConfigError(f"--mu0: {exc}") from exc
    labels = [f"{mu_0:g}" for mu_0 in mu0_values]  # as in the trace file names
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--mu0 values share a file label: {' '.join(labels)}")
    out = Path(args.out)
    _check_out(out, is_dir=True)
    cells = robustness_sweep(base, mu0_values)
    _write_sweep(out, cells)
    n_ok = sum(1 for c in cells if c.trace is not None)
    print(f"wrote {out / 'summary.csv'} ({n_ok}/{len(cells)} cells ok)")
    return EXIT_OK if n_ok else EXIT_INTEGRATION


def _hours(value: float | None) -> str:
    return f"{value:8.2f}" if value is not None else "   never"


def cmd_campaigns(args: argparse.Namespace) -> int:
    """The study end to end: the setpoint map, each built-in scenario under
    each controller, and the paper-4.1 sweep, as `setpoint-map`, `simulate`
    and `sweep` write them at their defaults, with a table of each."""
    out = Path(args.out)
    _check_out(out, is_dir=True)
    runs = {  # built before any solve, so a bad --seed stops first
        (name, kind): _seeded(builder(kind), args.seed)
        for name, builder in BUILTIN_SCENARIOS.items()
        for kind in CONTROLLERS
    }
    t_start = time.perf_counter()

    print("== productivity-optimal setpoints ==")
    points = setpoint_map(_map_grid(*Q0_VALID_RANGE, MAP_STEPS))
    print(f"{'q0':>6} {'X*':>8} {'D*':>8} {'P*':>10}")
    for op in points:
        print(f"{op.q0:6.0f} {op.x_star:8.4f} {op.d_star:8.4f} {op.productivity:10.6f}")
    write_map_csv(out / "setpoint_map.csv", points)

    print("\n== closed-loop campaigns ==")
    print(
        f"{'scenario':>10} {'ctrl':>4} {'offset':>10} {'iae':>8}"
        f" {'settle':>8} {'batch':>6} {'reattach':>8}"
    )
    for (name, kind), scenario in runs.items():
        trace = run_scenario(scenario)
        m = compute_metrics(trace)
        tag = f"{name.replace('.', '_').replace('-', '_')}_{kind}"
        write_trace_csv(out / f"trace_{tag}.csv", trace)
        write_metrics_csv(out / f"metrics_{tag}.csv", m)
        drop_h = LIGHT_STEP_PROFILE.points[-1][0]  # paper-4.1's setpoint drop, at its light step
        reattach = _hours(time_to_band(trace, drop_h)) if name == "paper-4.1" else f"{'n/a':>8}"
        print(
            f"{name:>10} {kind:>4} {m.steady_state_offset:10.2e} {m.iae:8.4f}"
            f" {_hours(m.settle_time_to_2pct)} {m.batch_phase_duration:6.1f} {reattach}"
        )

    cells = robustness_sweep(runs["paper-4.1", "ip"])  # the base `sweep` runs
    _write_sweep(out, cells, "sweep_")
    print("\n== robustness sweep (controller-model mu_0) ==")
    print(f"{'ctrl':>4} {'mu_0':>6} {'offset':>10} {'iae':>8} {'batch':>6}")
    for cell in cells:
        m = cell.metrics
        if m is None:
            print(f"{cell.controller_kind:>4} {cell.mu_0:6.2f}  failed: {cell.error}")
        else:
            print(
                f"{cell.controller_kind:>4} {cell.mu_0:6.2f}"
                f" {m.steady_state_offset:10.2e} {m.iae:8.4f} {m.batch_phase_duration:6.1f}"
            )

    print(f"\nall outputs in {out}/ ({time.perf_counter() - t_start:.1f} s)")
    return EXIT_OK


def _typed(kind: type, text: str) -> Any:
    """kind(text) for argparse's type= (bound by partial), showing a refused text by _shown."""
    try:
        return kind(text)
    except ValueError:  # not a number, or an int of over 4,300 digits
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {_shown(text)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbrsim",
        description="Closed-loop photobioreactor simulation workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    integer, real = partial(_typed, int), partial(_typed, float)

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
            choices=CONTROLLERS,
            help="controller for built-in scenarios (default: ip)",
        )
        p.add_argument(
            "--reference",
            choices=("anchors", "map"),
            help="reference for built-in scenarios: their own setpoints "
            "(anchors, the default) or the live productivity optimizer (map)",
        )
        p.add_argument("--seed", type=integer, default=None, help="measurement noise seed")
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
    p_map.add_argument("--q0-min", type=real, default=Q0_VALID_RANGE[0], dest="lo", metavar="Q0")
    p_map.add_argument("--q0-max", type=real, default=Q0_VALID_RANGE[1], dest="hi", metavar="Q0")
    p_map.add_argument(
        "--steps",
        type=integer,
        default=MAP_STEPS,
        help=f"grid points, 2 to {MAX_MAP_STEPS} (default: %(default)s)",
    )
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
        type=real,
        action="append",
        help="mu_0 value for the controller model (repeatable; default "
        + " ".join(f"{v:g}" for v in MU0_SWEEP_VALUES)
        + ")",
    )
    p_sweep.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_camp = sub.add_parser(
        "campaigns",
        help="setpoint map, both built-ins under both controllers and the mu_0 "
        "sweep, with a table of each",
    )
    p_camp.add_argument("--out", default="results", help="output directory (default: %(default)s)")
    p_camp.add_argument(
        "--seed", type=integer, default=0, help="measurement noise seed (default: %(default)s)"
    )
    p_camp.set_defaults(func=cmd_campaigns)
    return parser


def _warning_line(message: Warning | str, *args: Any, **kwargs: Any) -> str:
    """A warning as one "warning:" line, without its source file and line."""
    return f"warning: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    format_warning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration fault: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
