"""Command-line interface: file contracts, determinism, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pbrsim import cli
from pbrsim.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_OK,
    METRICS_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    MAP_HEADER,
    ConfigError,
    apply_overrides,
    main,
    scenario_from_config,
    scenario_to_config,
    write_sweep_summary,
)
from pbrsim.control import FlConfig, IpConfig
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.plant import DayNightLight
from pbrsim.scenarios import (
    BUILTIN_SCENARIOS,
    MAX_RK4_STEPS,
    MapReference,
    SimulationTrace,
    SweepCell,
    day_night_scenario,
    light_step_scenario,
    run_scenario,
)


def _env():
    """The environment for a child Python that imports this checkout's pbrsim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_writes_trace_and_metrics(tmp_path):
    rc = main(["simulate", "--scenario", "paper-4.1", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    header, rows = _rows(tmp_path / "trace.csv")
    assert header == TRACE_HEADER == "t,x_true,y_meas,y_ref,d_applied,q0,f_est"
    assert len(rows) == 501
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 50.0
    header, rows = _rows(tmp_path / "metrics.csv")
    assert header == METRICS_HEADER
    assert len(rows) == 1


def test_trace_number_format(tmp_path):
    """Nine significant digits, scientific notation, in every cell."""
    main(["simulate", "--out", str(tmp_path)])
    _, rows = _rows(tmp_path / "trace.csv")
    cell = rows[1][1]
    assert "e" in cell and len(cell.split("e")[0].replace("-", "").replace(".", "")) == 9


def test_byte_identical_reruns(tmp_path):
    """Same scenario, same seed: byte-for-byte identical files."""
    for scenario in ("paper-4.1", "paper-4.2"):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", scenario, "--seed", "3",
                     "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--scenario", scenario, "--seed", "3",
                     "--out", str(b)]) == EXIT_OK
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_fl_trace_has_empty_estimate_column(tmp_path):
    main(["simulate", "--controller", "fl", "--out", str(tmp_path)])
    _, rows = _rows(tmp_path / "trace.csv")
    assert all(r[6] == "" for r in rows)


def _field_by_field(x):
    """A copy of the per-field CSV formatter: None or NaN empty, a string as is, else
    9 significant digits."""
    if x is None or x != x:
        return ""
    return x if isinstance(x, str) else f"{x:.8e}"


EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7e308,
         -1.7e308, 0.3]


def _edge_traces():
    """Every edge value in every column: each row one value, then rotated per column."""
    width = len(fields(SimulationTrace))
    yield SimulationTrace(*(np.array(EDGES) for _ in range(width)))
    yield SimulationTrace(*(np.roll(EDGES, j) for j in range(width)))


def _builtin_traces():
    for make in BUILTIN_SCENARIOS.values():
        for kind in ("fl", "ip"):
            yield run_scenario(make(kind, 0))


@pytest.mark.parametrize("traces", [_edge_traces, _builtin_traces], ids=["edges", "builtins"])
def test_trace_writer_matches_the_field_by_field_format(tmp_path, traces):
    """write_trace_csv's one format per row writes the bytes a field-by-field writer
    does, NaN of either sign as an empty field, inf, -inf, -0.0 and subnormals alike."""
    for trace in traces():
        cli.write_trace_csv(tmp_path / "trace.csv", trace)
        rows = zip(*(getattr(trace, f.name).tolist() for f in fields(SimulationTrace)))
        lines = [TRACE_HEADER, *(",".join(map(_field_by_field, row)) for row in rows)]
        assert (tmp_path / "trace.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_window_that_never_fills_runs_with_zero_estimate(tmp_path):
    """tau_h=1e9 is a legal window of 10^10 samples: the run ends normally
    with F = 0 in every row, and no weights are ever built for it."""
    rc = main(["simulate", "--set", "controller.tau_h=1e9", "--set", "duration_h=12",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, rows = _rows(tmp_path / "trace.csv")
    assert len(rows) == 121
    assert all(float(r[6]) == 0.0 for r in rows)


def test_set_override_controller_mu0(tmp_path):
    """Dotted override reaches the controller model's rate scale."""
    rc = main(["simulate", "--controller", "fl", "--set", "controller.sp.mu_0=0.21",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, rows = _rows(tmp_path / "metrics.csv")
    offset = float(rows[0][0])
    assert offset == pytest.approx(0.0018965223945365897, rel=1e-6)


def test_seed_and_controller_precedence_over_set(tmp_path):
    """--seed applies after every --set and --controller before them, so in
    each pair the later flag wins: the trace is byte-equal to its run alone."""

    def trace(name, *flags):
        assert main(["simulate", *flags, "--out", str(tmp_path / name)]) == EXIT_OK
        return (tmp_path / name / "trace.csv").read_bytes()

    seed_3 = trace("seed", "--seed", "3")
    assert trace("seed_after_set", "--set", "noise.seed=5", "--seed", "3") == seed_3
    assert trace("set_seed", "--set", "noise.seed=5") != seed_3
    kind_ip = trace("kind", "--set", "controller.kind=ip")
    assert trace("fl_then_kind", "--controller", "fl", "--set", "controller.kind=ip") == kind_ip
    assert trace("controller", "--controller", "fl") != kind_ip


@pytest.mark.parametrize("scenario", ["paper-4.1", "paper-4.2"])
@pytest.mark.parametrize("controller", [None, "fl", "ip"])
@pytest.mark.parametrize("reference", [None, "anchors", "map"])
@pytest.mark.parametrize("tail", [[], ["controller.kind=fl"], ["controller.kind=ip"]])
def test_builtin_flags_are_kind_switches(scenario, controller, reference, tail):
    """--controller K and --reference map load the scenario that --set
    controller.kind=K and --set reference.kind=map load, before any --set."""
    flags, sets = ["--scenario", scenario], []
    if controller:
        flags += ["--controller", controller]
        sets.append(f"controller.kind={controller}")
    if reference:
        flags += ["--reference", reference]
    if reference == "map":
        sets.append("reference.kind=map")

    def load(*argv):
        args = cli.build_parser().parse_args(["simulate", *argv])
        return cli.load_scenario(args)

    with_flags = load(*flags, *(f"--set={kv}" for kv in tail))
    assert with_flags == load("--scenario", scenario, *(f"--set={kv}" for kv in sets + tail))


def test_set_unknown_key_rejected(tmp_path):
    rc = main(["simulate", "--set", "controller.bogus=1", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "trace.csv").exists()


def test_set_requires_assignment(tmp_path):
    assert main(["simulate", "--set", "controller.sp.mu_0", "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "builtin, sets, field, expected",
    [
        (light_step_scenario(), ["plant.kind=simplified"], "plant", SimplifiedModelParams()),
        (replace(light_step_scenario(), plant=SimplifiedModelParams()), ["plant.kind=full"],
         "plant", FullModelParams()),
        (light_step_scenario(), ["plant.mu_0=0.2", "plant.kind=simplified"], "plant",
         SimplifiedModelParams(mu_0=0.2)),
        (light_step_scenario(controller="fl"), ["controller.kind=ip"], "controller", IpConfig()),
        (light_step_scenario(), ["controller.lam=2.0", "controller.kind=fl"], "controller",
         FlConfig(lam=2.0)),
        (light_step_scenario(), ["reference.kind=map"], "reference", MapReference()),
        (light_step_scenario(), ["light.kind=day_night"], "light", DayNightLight()),
        (day_night_scenario(), ["light.kind=day_night", "light.peak=900"], "light",
         replace(DayNightLight(), peak=900.0)),
    ],
)
def test_set_kind_switch_rebuilds_from_defaults(builtin, sets, field, expected):
    """<field>.kind=<tag> applies first and starts the field from the new
    type's defaults; the other keys then set that type's fields."""
    s = scenario_from_config(apply_overrides(scenario_to_config(builtin), sets))
    assert getattr(s, field) == expected
    assert s.geometry == builtin.geometry and s.noise == builtin.noise


@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "paper-4.2", "--set", "light.kind=piecewise"],
        ["--reference", "map", "--set", "reference.kind=schedule"],
    ],
)
def test_set_kind_switch_without_defaults_exits_2(tmp_path, capsys, flags):
    assert main(["simulate", *flags, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert flags[-1] in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not json')
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()  # nothing partially written


@pytest.mark.parametrize(
    "config, value",
    [
        (b'{"x0": \xff}', None),  # not UTF-8
        (b'{"x0": ' + b"9" * 5000 + b"}", None),  # over the 4,300-digit int limit
        (b"[" * 200_000, None),  # nested deeper than the parser allows
        (None, "9" * 5000),
        (None, "[" * 5000),
    ],
    ids=["config-not-utf8", "config-5000-digits", "config-deep", "set-5000-digits", "set-deep"],
)
def test_text_the_json_reader_refuses_exits_2(tmp_path, capsys, config, value):
    """Config text that Python's JSON reader refuses with something other
    than a JSONDecodeError is a config error line too, and writes nothing."""
    out = tmp_path / "out"
    if config is None:
        argv = ["--set", f"x0={value}"]
    else:
        (tmp_path / "bad.json").write_bytes(config)
        argv = ["--config", str(tmp_path / "bad.json")]
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, prefix",
    [
        ("x0=" + "[" * 5000, "error: x0 must be a finite number, got '[[["),
        ("noise.seed=" + "7" * 5000, "error: noise.seed must be of type int, got '777"),
    ],
    ids=["x0-5000-brackets", "seed-5000-digits"],
)
def test_refused_value_is_cut_in_the_error_line(tmp_path, capsys, setting, prefix):
    """A refused value shows its first 80 characters and its length, not all of it."""
    out = tmp_path / "out"
    assert main(["simulate", "--set", setting, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.endswith("… (5002 chars)\n")
    assert len(err.encode()) < 200 and "Traceback" not in err


def test_seed_with_malformed_config_rejected(tmp_path):
    """--seed on a config that is not an object, or whose noise section is
    not one, is a config error."""
    cfg = scenario_to_config(light_step_scenario())
    out = tmp_path / "out"
    for i, bad in enumerate(([1, 2], {**cfg, "noise": 3})):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        rc = main(["simulate", "--config", str(path), "--seed", "3", "--out", str(out)])
        assert rc == EXIT_CONFIG
    assert not out.exists()


def test_unknown_scenario_rejected(tmp_path):
    assert main(["simulate", "--scenario", "paper-9.9", "--out", str(tmp_path)]) == EXIT_CONFIG


def _keys(cfg):
    for key, value in cfg.items():
        yield key
        if isinstance(value, dict):
            yield from _keys(value)


def _builtins():
    """The six built-in configs: paper-4.1 anchors and map, and paper-4.2,
    each with fl and ip, as (CLI flags, scenario)."""
    for c in ("fl", "ip"):
        s = light_step_scenario(controller=c)
        yield ["--controller", c], s
        yield ["--controller", c, "--reference", "map"], replace(s, reference=MapReference())
        yield ["--scenario", "paper-4.2", "--controller", c], day_night_scenario(controller=c)


def test_config_round_trip(tmp_path):
    """scenario -> JSON -> scenario gives the same scenario for every built-in,
    and reproduces the run bit for bit."""
    for _, s in _builtins():
        cfg = scenario_to_config(s)
        rebuilt = scenario_from_config(json.loads(json.dumps(cfg)))
        assert rebuilt == s
        assert scenario_to_config(rebuilt) == cfg
    fl = scenario_to_config(light_step_scenario(controller="fl"))
    assert fl["controller"]["sp"]["mu_0"] == 0.14
    assert "simplified" not in set(_keys(fl))

    sc = light_step_scenario(controller="ip", seed=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(scenario_to_config(sc)))
    direct = run_scenario(sc)
    rebuilt = run_scenario(scenario_from_config(json.loads(cfg_path.read_text())))
    assert np.array_equal(direct.x_true, rebuilt.x_true)
    assert np.array_equal(direct.d_applied, rebuilt.d_applied)


@pytest.mark.parametrize(
    "args",
    [
        ["--set", "n_nodes=100"],
        ["--set", "sampling.substeps=2.5"],
        ["--set", "duration_h=Infinity"],
        ["--set", "duration_h=1e999"],
        ["--set", "noise.relative_std=NaN"],
        ["--set", "controller.k_p=NaN"],
        ["--set", "bounds.d_max=Infinity"],
        ["--controller", "fl", "--set", "simplified.mu_0=0.21"],
        ["--set", "light.points=[[0,200000]]"],
        ["--reference", "map", "--set", "light.points=[[0,1500]]"],
        ["--reference", "map", "--set", "light.points=[[0,50]]"],
        ["--scenario", "paper-4.2", "--set", "light.peak=1e308"],
        ["--set", "noise.seed=-1"],
        ["--seed", "-1"],
        ["--set", "controller.tau_h=1e308"],
        ["--set", "controller.tau_h=1e300"],
        *(
            ["--controller", kind, "--set", f"sampling.period_h={period}",
             "--set", "duration_h=0.5"]
            for kind in ("fl", "ip")
            for period in ("1e-300", "1e-9")
        ),
        ["--set", "controller.tau_h=0.01"],
        ["--set", "sampling.substeps=1000000000"],
    ],
)
def test_config_boundary_exits_2(tmp_path, capsys, args):
    """Bad config values are config errors, caught before any output."""
    out = tmp_path / "out"
    assert main(["simulate", *args, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value, code", [("1e10", EXIT_OK), ("1e12", EXIT_CONFIG),
                                         ("1e300", EXIT_CONFIG)])
def test_plant_K_range(tmp_path, capsys, value, code):
    """plant.K above 1e10, where the photo term cancels, is a config error
    (1e300 used to end as an integration fault)."""
    out = tmp_path / "out"
    args = ["simulate", "--set", f"plant.K={value}", "--set", "duration_h=12", "--out", str(out)]
    assert main(args) == code
    err = capsys.readouterr().err
    assert ("K must lie in (0, 1e+10]" in err) == (code == EXIT_CONFIG)
    assert out.exists() == (code == EXIT_OK)


HOSTILE = ("NaN", "Infinity", "-Infinity", "0", "-1", "2.5", "1e308", "-1e308", "x", "[1]")


def _leaves(cfg, prefix=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.filterwarnings("ignore")
def test_hostile_leaf_values(tmp_path, capsys):
    """Each hostile value in each leaf key of each built-in config: main
    returns 0, 2 or 3 without raising, and 3 only for a config the codec
    accepts."""
    out = str(tmp_path / "out")
    for flags, builtin in _builtins():
        cfg = scenario_to_config(builtin)
        for key in _leaves(cfg):
            for value in HOSTILE:
                sets = ["duration_h=0.5", f"{key}={value}"]
                argv = ["simulate", *flags, "--set", sets[0], "--set", sets[1], "--out", out]
                try:
                    rc = main(argv)
                except Exception as exc:  # noqa: BLE001 - report which input escaped
                    pytest.fail(f"{argv}: {exc!r}")
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_INTEGRATION), argv
                if rc == EXIT_INTEGRATION:
                    scenario_from_config(apply_overrides(json.loads(json.dumps(cfg)), sets))
    capsys.readouterr()


def test_reference_map_applies_to_either_builtin(tmp_path):
    """--reference map swaps the live optimizer into paper-4.2 too."""
    with pytest.warns(UserWarning, match="run shorter than"):
        rc = main(["simulate", "--scenario", "paper-4.2", "--reference", "map",
                   "--set", "duration_h=1", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, rows = _rows(tmp_path / "trace.csv")
    assert float(rows[0][3]) == pytest.approx(0.20182086195952736, abs=1e-4)  # q0 = 100


def test_config_rejects_builtin_flags(tmp_path, capsys):
    """--controller and --reference apply to built-ins only, and a "fixed"
    reference is an unknown kind."""
    cfg = scenario_to_config(day_night_scenario())
    assert cfg["reference"] == {"kind": "schedule", "points": [[0.0, 0.175]]}
    good, fixed = tmp_path / "good.json", tmp_path / "fixed.json"
    good.write_text(json.dumps(cfg))
    fixed.write_text(json.dumps({**cfg, "reference": {"kind": "fixed", "value": 0.175}}))
    out = tmp_path / "out"
    for args in (
        ["--config", str(good), "--controller", "fl"],
        ["--config", str(good), "--reference", "map"],
        ["--config", str(good), "--reference", "anchors"],
        ["--config", str(fixed)],
    ):
        assert main(["simulate", *args, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--mu0", "0.14", "--mu0", "-1"],
        ["--mu0", "0"],
        ["--mu0", "nan"],
        ["--mu0", "inf"],
        ["--reference", "map", "--set", "light.points=[[0,1500]]"],
        ["--mu0", "0.07", "--mu0", "0.070000001"],  # one trace file name
    ],
)
def test_sweep_config_errors_exit_2(tmp_path, capsys, args):
    """A bad --mu0 or config is a config error, not a failed sweep cell."""
    out = tmp_path / "out"
    assert main(["sweep", *args, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("--mu0" in err) == ("--mu0" in args)
    assert not out.exists()


def test_stale_or_nonfinite_config_rejected():
    """Keys of the old config format, and non-finite numbers that reach the
    codec without passing through JSON, are config errors."""
    fl = scenario_to_config(light_step_scenario(controller="fl"))
    ip = scenario_to_config(light_step_scenario(controller="ip"))
    for bad in (
        {**fl, "simplified": fl["controller"]["sp"]},
        {**fl, "controller": {**fl["controller"], "mu0": 0.21}},
        {**fl, "plant": {**fl["plant"], "model": "full"}},
        {**fl, "controller": {**fl["controller"], "x_floor": 1e-4}},
        {**ip, "controller": {**ip["controller"], "warmup": "zero_f"}},
        {**ip, "controller": {**ip["controller"], "record_raw_control": False}},
        {**fl, "light": {"kind": "piecewise", "points": [[0.0, float("nan")]]}},
        {**fl, "noise": {"relative_std": 0.01, "seed": 1.0}},
    ):
        with pytest.raises(ConfigError):
            scenario_from_config(bad)


def test_config_file_matches_builtin(tmp_path):
    cfg = scenario_to_config(light_step_scenario(controller="ip", seed=0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--scenario", "paper-4.1", "--out", str(b)]) == EXIT_OK
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_map_reference_mode(tmp_path):
    """--reference map tracks the live productivity optimum."""
    rc = main(["simulate", "--reference", "map", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, rows = _rows(tmp_path / "trace.csv")
    assert float(rows[0][3]) == pytest.approx(0.39845345173368407, abs=1e-4)
    assert float(rows[400][3]) == pytest.approx(0.20182086195952736, abs=1e-4)


def test_setpoint_map_output(tmp_path):
    out = tmp_path / "map.csv"
    rc = main(["setpoint-map", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _rows(out)
    assert header == MAP_HEADER
    assert len(rows) == 10
    q0s = [float(r[0]) for r in rows]
    assert q0s == sorted(q0s) and q0s[0] == 100.0 and q0s[-1] == 1000.0
    by_q0 = {float(r[0]): float(r[1]) for r in rows}
    assert by_q0[600.0] == pytest.approx(0.39845345173368407, abs=1e-4)
    assert by_q0[100.0] == pytest.approx(0.20182086195952736, abs=1e-4)


@pytest.mark.parametrize("q0_min", ["280.76771029668345", "152.34630450118746"])
def test_setpoint_map_grid_ends_at_q0_max(tmp_path, q0_min):
    """The last grid point is --q0-max itself, not a sum that rounds above it."""
    out = tmp_path / "map.csv"
    argv = ["setpoint-map", "--q0-min", q0_min, "--q0-max", "1000", "--steps", "7"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    _, rows = _rows(out)
    assert len(rows) == 7 and rows[-1][0] == "1.00000000e+03"


def test_setpoint_map_range_validation(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["setpoint-map", "--q0-min", "50", "--out", str(out)]) == EXIT_CONFIG
    assert main(["setpoint-map", "--q0-max", "1200", "--out", str(out)]) == EXIT_CONFIG
    assert main(["setpoint-map", "--q0-min", "600", "--q0-max", "600",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "{file}"],
        ["sweep", "--out", "{file}"],
        ["setpoint-map", "--out", "{file}/x.csv"],
        ["setpoint-map", "--out", "."],
        ["setpoint-map", "--steps", "200000"],
        ["setpoint-map", "--steps", str(10**18)],
    ],
)
def test_output_and_steps_boundary_exits_2(tmp_path, capsys, monkeypatch, argv):
    """An unusable --out, or more map steps than MAX_MAP_STEPS, is a config
    error found before any run or solve."""

    def never(*args, **kwargs):
        raise AssertionError("ran before the output check")

    for name in ("run_scenario", "robustness_sweep", "setpoint_map"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    file = tmp_path / "file"
    file.write_text("keep\n")
    assert main([arg.format(file=file) for arg in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert file.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


# Each subcommand's argv up to its --out flag.
OUT_FLAGS = {
    "simulate": ["simulate", "--out"],
    "setpoint-map": ["setpoint-map", "--steps", "2", "--out"],
    "sweep": ["sweep", "--out"],
    "campaigns": ["campaigns", "--out"],
}
LONG = "a" * 5000
# --out paths that os.stat refuses: a symlink loop, a path under it, a name too long.
REFUSED_OUT = [(name, label, [*flags, out]) for name, flags in OUT_FLAGS.items()
               for label, out in (("loop", "loop"), ("under-loop", "loop/x"), ("long", LONG))]
DANGLING_OUT = [(name, label, [*flags, out]) for name, flags in OUT_FLAGS.items()
                for label, out in (("dangling", "dangling"), ("under-dangling", "dangling/x"))]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--out", "x\0y"],
         "error: --out 'x\\x00y' cannot be checked: embedded null byte\n"),
        (["setpoint-map", "--steps", "2", "--out", "x\0y"], "error: --out 'x\\x00y' cannot be"),
        (["sweep", "--out", "x\0y"], "error: --out 'x\\x00y' cannot be checked: embedded null"),
        (["campaigns", "--out", "x\0y"], "error: --out 'x\\x00y' cannot be checked: embedded"),
        (["simulate", "--config", "a\0b"], "error: cannot read config 'a\\x00b': embedded null"),
        (["simulate", "--set", "duration_h=1", "--out", "x\ud800"],
         "error: --out 'x\\ud800' cannot be checked: 'utf-8' codec can't encode character"),
        (["setpoint-map", "--steps", "2", "--out", "m\ud800.csv"], "error: --out 'm\\ud800.csv'"),
        (["sweep", "--out", "x\ud800"], "error: --out 'x\\ud800' cannot be checked: 'utf-8' codec"),
        (["campaigns", "--out", "x\ud800"], "error: --out 'x\\ud800' cannot be checked: 'utf-8'"),
        *((argv, f"error: --out {cli._shown(argv[-1])} cannot be checked: ")
          for _, _, argv in REFUSED_OUT),
        *((argv, f"error: --out {cli._shown(argv[-1])}: 'dangling' is a dangling symlink\n")
          for _, _, argv in DANGLING_OUT),
    ],
    ids=["simulate", "setpoint-map", "sweep", "campaigns", "config", "simulate-surrogate",
         "setpoint-map-surrogate", "sweep-surrogate", "campaigns-surrogate",
         *(f"{name}-{label}" for name, label, _ in REFUSED_OUT + DANGLING_OUT)],
)
def test_path_with_a_nul_byte_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    """A path that os.stat refuses for a reason other than "missing" (a NUL byte or a lone
    surrogate, which only an in-process call can pass, a symlink loop, or a name too long), or
    one that meets a dangling symlink, is refused as --out before any run or solve, in one
    short line, and nothing is created; a --config with NUL is unreadable, not bad JSON."""

    def never(*args, **kwargs):
        raise AssertionError("ran before the path check")

    for name in ("run_scenario", "robustness_sweep", "setpoint_map"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop").symlink_to("loop")
    (tmp_path / "dangling").symlink_to("nowhere")
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith(message) and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling", "loop"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", LONG],
        ["--set", LONG],
        ["--set", f"{LONG}=1"],
        ["--config", "{unknown_key}"],
        ["--set", f"controller.estimator={LONG}"],
        ["--config", LONG],
        ["--config", "{bad_json}"],
        ["--scenario", "paper-4.2", "--set", f'light.kind={" " * 5000}"piecewise"'],
    ],
    ids=["scenario", "set-no-equals", "set-unknown-key", "config-unknown-key", "estimator",
         "config-path", "config-not-json", "kind-without-defaults"],
)
def test_refused_long_input_gives_one_short_line(tmp_path, capsys, argv):
    """A refused key, scenario name, value or path is shown by at most 80 characters of its
    repr, so each error line stays under 200 bytes."""
    unknown_key = tmp_path / "unknown_key.json"
    unknown_key.write_text(json.dumps({LONG: 1}))
    bad_json = tmp_path / ("d" * 200) / "bad.json"  # a path of over 250 characters
    bad_json.parent.mkdir()
    bad_json.write_text("not json")
    argv = [arg.format(unknown_key=unknown_key, bad_json=bad_json) for arg in argv]
    assert main(["simulate", *argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200


NINES = "9" * 4000  # an int literal that JSON and int() still read (the limit is 4,300 digits)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", f"noise.seed=-{NINES}"],
        ["simulate", "--set", f"sampling.substeps=-{NINES}"],
        ["simulate", "--seed", f"-{NINES}"],
        ["campaigns", "--seed", f"-{NINES}"],
        ["setpoint-map", "--steps", NINES],
    ],
    ids=["noise-seed", "substeps", "seed", "campaigns-seed", "map-steps"],
)
def test_refused_long_number_gives_one_short_line(tmp_path, capsys, argv):
    """A 4,000-digit number refused by a config range, or by setpoint-map's step range, is
    shown by at most 80 characters of its repr."""
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert " chars)\n" in err and not (tmp_path / "out").exists()


def test_substeps_beyond_float_range_meet_the_step_cap(tmp_path, capsys):
    """A 4,000-digit sampling.substeps lies in its range [1, inf); the run's RK4 step cap
    refuses it, counted in integers rather than as a product beyond float range."""
    argv = ["simulate", "--set", f"sampling.substeps={NINES}", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: bad scenario: 500 periods x sampling.substeps is over {MAX_RK4_STEPS} RK4 steps\n"
    )


@pytest.mark.parametrize("source", ["set", "config"])
def test_deeply_nested_value_gives_one_short_line(tmp_path, capsys, source):
    """light.points nested 500 to 1,000 deep, by --set or in a --config file, exits 2 with one
    short line at every depth: near the stack's limit the repr of the refused value overflows,
    and where it does depends on the caller's stack, so the whole range is scanned."""
    cfg = json.dumps(scenario_to_config(light_step_scenario()))
    points = json.dumps(light_step_scenario().light.points)
    assert points in cfg
    for depth in range(500, 1001):
        nested = "[" * depth + "]" * depth
        if source == "set":
            argv = ["--set", f"light.points={nested}", "--set", "duration_h=1"]
        else:
            path = tmp_path / "deep.json"
            path.write_text(cfg.replace(points, nested))
            argv = ["--config", str(path)]
        assert main(["simulate", *argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG, depth
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, depth
        assert len(err.encode()) < 200 and "Traceback" not in err, depth


def test_sweep_mu0_error_names_its_range(tmp_path, capsys):
    """--mu0 is checked against the range SimplifiedModelParams declares for mu_0."""
    assert main(["sweep", "--mu0", "-1", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --mu0: mu_0 must lie in (0, inf), got -1.0\n"


@pytest.mark.parametrize(
    "argv", [["--out", "file"], ["--out", "out", "--seed", "-1"], ["--out", "wf"]]
)
def test_run_campaigns_boundary_exits_2(tmp_path, capsys, monkeypatch, argv):
    """`campaigns` refuses an --out file and a negative --seed with an error
    line before any solve, and writes nothing.  Under --out wf a directory
    sits where the map CSV goes: that write fails after the map solve, so the
    map table is printed, but it is an error line too, not a traceback, and
    the campaigns after it never run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("keep\n")
    made = argv == ["--out", "wf"]
    if made:
        (tmp_path / "wf" / "setpoint_map.csv").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main(["campaigns", *argv]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    if made:
        assert err == "error: cannot write 'wf/setpoint_map.csv': Is a directory\n"
        assert out.startswith("== productivity-optimal setpoints ==")
        assert "closed-loop" not in out
    else:
        assert out == ""
    assert (tmp_path / "file").read_text() == "keep\n"
    assert sorted(tmp_path.rglob("*")) == before


# SHA-256 of each file `pbrsim campaigns --seed 0` writes, as tests/digests.json pins them.
# A change that moves output bits on purpose regenerates that file (see tests/test_digests.py).
FILE_SHA256 = json.loads(Path(__file__).with_name("digests.json").read_text())["files"]
CAMPAIGN_SHA256 = {
    name.removeprefix("campaigns/"): digest
    for name, digest in FILE_SHA256.items()
    if name.startswith("campaigns/")
}


def test_campaigns_write_what_the_subcommands_write(tmp_path, capsys):
    """`campaigns` writes its 16 files with the pinned bytes, which are the
    bytes that `setpoint-map`, `simulate` and `sweep` write at the same seed."""
    camp, sim, sweep = tmp_path / "camp", tmp_path / "sim", tmp_path / "sweep"
    assert main(["campaigns", "--out", str(camp), "--seed", "0"]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in camp.iterdir()}
    assert digests == CAMPAIGN_SHA256
    assert main(["setpoint-map", "--out", str(tmp_path / "map.csv")]) == EXIT_OK
    assert main(["simulate", "--seed", "0", "--out", str(sim)]) == EXIT_OK
    assert main(["sweep", "--seed", "0", "--out", str(sweep)]) == EXIT_OK
    capsys.readouterr()
    for ours, theirs in (
        ("setpoint_map.csv", tmp_path / "map.csv"),
        ("trace_paper_4_1_ip.csv", sim / "trace.csv"),
        ("metrics_paper_4_1_ip.csv", sim / "metrics.csv"),
        ("sweep_summary.csv", sweep / "summary.csv"),
    ):
        assert (camp / ours).read_bytes() == theirs.read_bytes(), ours


def test_write_failure_exits_2(tmp_path, capsys):
    """An OSError while writing is an error line and exit 2, not a traceback."""
    (tmp_path / "trace.csv").mkdir()
    argv = ["simulate", "--set", "duration_h=0.5", "--out", str(tmp_path)]
    with pytest.warns(UserWarning, match="run shorter than"):
        assert main(argv) == EXIT_CONFIG
    shown = cli._shown(str(tmp_path / "trace.csv"))
    assert capsys.readouterr().err == f"error: cannot write {shown}: Is a directory\n"


def test_sweep_outputs(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    header, rows = _rows(tmp_path / "summary.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 6
    assert all(r[6] == "ok" for r in rows)
    for kind in ("fl", "ip"):
        for mu0 in ("0.07", "0.14", "0.21"):
            assert (tmp_path / f"trace_{kind}_mu{mu0}.csv").exists()
    # model-free rows identical across mu0 (controller never reads it)
    ip_rows = [r for r in rows if r[0] == "ip"]
    assert ip_rows[0][2:6] == ip_rows[1][2:6] == ip_rows[2][2:6]
    # FL cell at mu0 = 0.07 never settles permanently: empty settle field
    fl_007 = next(r for r in rows if r[0] == "fl" and float(r[1]) == 0.07)
    assert fl_007[4] == ""


# Two constants, each inside its range, whose ratio M_x / nu_O2_X overflows the rate.
OVERFLOWING = ["--set", "plant.M_x=1e100", "--set", "plant.nu_O2_X=1e-100"]


def test_sweep_all_cells_failing_exits_3(tmp_path):
    rc = main(["sweep", *OVERFLOWING, "--out", str(tmp_path)])
    assert rc == EXIT_INTEGRATION
    header, rows = _rows(tmp_path / "summary.csv")
    assert len(rows) == 6
    assert all(r[6].startswith("failed") for r in rows)


def test_sweep_summary_keeps_failure_reason(tmp_path):
    cell = SweepCell("fl", 0.07, light_step_scenario(), None, None, error="a,\nb")
    path = tmp_path / "summary.csv"
    write_sweep_summary(path, [cell])
    assert path.read_text().splitlines() == [SWEEP_HEADER, "fl,7.00000000e-02,,,,,failed: a; b"]


def test_simulate_integration_fault_exits_3(tmp_path):
    out = tmp_path / "out"
    rc = main(["simulate", *OVERFLOWING, "--out", str(out)])
    assert rc == EXIT_INTEGRATION
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fl", "ip"])
def test_overflowing_state_is_one_fault_line(tmp_path, kind):
    """A state that overflows the light kernel ends as exit 3 with exactly
    one "integration fault:" line: numpy prints no warning before it."""
    argv = ["--controller", kind, "--set", "x0=1e307", "--set", "plant.M_x=1e3",
            "--set", "duration_h=0.5"]
    proc = subprocess.run(
        [sys.executable, "-m", "pbrsim", "simulate", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**_env(), "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == EXIT_INTEGRATION
    assert proc.stderr.startswith("integration fault: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


# Each setting, once an integration fault at the first step, and the interval it leaves.
EXTREME_SETTINGS = {
    "plant.rho_m=1.7e308": "(0, 1e+307]",
    "plant.phi_prime=1.7e308": "(0, 1e+300]",
    "plant.resp_rate=1.7e308": "(0, 1e+305]",
    "plant.M_x=1e300": "(0, 1e+155]",
    "plant.nu_O2_X=1e-300": "[1e-156, inf)",
    "plant.nu_O2_X=1e-320": "[1e-156, inf)",
    "x0=1.7e308": "(0, 1e+307]",
}


@pytest.mark.parametrize("setting", EXTREME_SETTINGS)
def test_extreme_constant_is_a_config_error(tmp_path, capsys, setting):
    """A constant whose rate overflows at the first step is a config error that
    names the interval it leaves, with no traceback and no output."""
    interval = EXTREME_SETTINGS[setting]
    out = tmp_path / "out"
    rc = main(["simulate", "--set", setting, "--set", "duration_h=1", "--out", str(out)])
    assert rc == EXIT_CONFIG
    key, _, value = setting.partition("=")
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "Traceback" not in err
    assert err.endswith(f"{key.rpartition('.')[2]} must lie in {interval}, got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fl", "ip"])
def test_emptied_vessel_with_wild_noise_runs(tmp_path, capsys, kind):
    """A dilution that empties the vessel and noise that makes 0 * (1 + nu)
    NaN or -0.0: the empty vessel reads +0.0, and the run ends with exit 0."""
    sets = ["bounds.d_min=1e300", "bounds.d_max=1e301", "noise.relative_std=1.7e308",
            "duration_h=1"]
    argv = ["simulate", "--scenario", "paper-4.1", "--controller", kind,
            *(arg for value in sets for arg in ("--set", value)), "--out", str(tmp_path)]
    with pytest.warns(UserWarning, match="run shorter than"):
        assert main(argv) == EXIT_OK
    _, rows = _rows(tmp_path / "trace.csv")
    # x_true and y_meas after the first period
    assert {(row[1], row[2]) for row in rows[1:]} == {("0.00000000e+00", "0.00000000e+00")}


def test_nan_dilution_command_is_a_fault_before_it_is_integrated(tmp_path):
    """An infinite FL measurement makes a NaN command, which saturate passes
    through; the plant refuses it before any RK4 stage, with no traceback."""
    argv = ["--controller", "fl", "--set", "noise.relative_std=1.7e308", "--set", "duration_h=1"]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "pbrsim", "simulate", *argv, "--out", str(out)],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == EXIT_INTEGRATION
    assert proc.stderr.startswith("integration fault: dilution command is not finite (")
    assert "D=nan" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_short_run_warning_is_one_line(tmp_path):
    """The short-run warning reaches stderr as one "warning:" line, without
    the file, line number and source line of the code that raised it."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbrsim", "simulate", "--set", "duration_h=0.5",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**_env(), "PYTHONWARNINGS": "default"},
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == (
        "warning: run shorter than 10.0 h; offset averaged over the final 0.1 h\n"
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pbrsim", "--help"], capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "sweep" in proc.stdout
    assert "campaigns" in proc.stdout


def test_import_leaves_numpy_random_unloaded():
    """Importing the package and its CLI loads no numpy.random: only a run's noise
    draw needs it, so config set-up does not pay for it."""
    code = "import sys, pbrsim, pbrsim.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env()
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False")
