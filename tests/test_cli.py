"""Command-line interface: file contracts, determinism, and exit codes."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

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
from pbrsim.scenarios import (
    MapReference,
    SweepCell,
    day_night_scenario,
    light_step_scenario,
    run_scenario,
)


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_writes_trace_and_metrics(tmp_path):
    rc = main(["simulate", "--scenario", "paper-4.1", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    header, rows = _rows(tmp_path / "trace.csv")
    assert header == TRACE_HEADER
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


def test_set_override_controller_mu0(tmp_path):
    """Dotted override reaches the controller model's rate scale."""
    rc = main(["simulate", "--controller", "fl", "--set", "controller.sp.mu_0=0.21",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    _, rows = _rows(tmp_path / "metrics.csv")
    offset = float(rows[0][0])
    assert offset == pytest.approx(0.0018965223945365897, rel=1e-6)


def test_set_unknown_key_rejected(tmp_path):
    rc = main(["simulate", "--set", "controller.bogus=1", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "trace.csv").exists()


def test_set_requires_assignment(tmp_path):
    assert main(["simulate", "--set", "controller.sp.mu_0", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not json')
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()  # nothing partially written


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
    ],
)
def test_config_boundary_exits_2(tmp_path, capsys, args):
    """Bad config values are config errors, caught before any output."""
    out = tmp_path / "out"
    assert main(["simulate", *args, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
    for bad in (
        {**fl, "simplified": fl["controller"]["sp"]},
        {**fl, "controller": {**fl["controller"], "mu0": 0.21}},
        {**fl, "plant": {**fl["plant"], "model": "full"}},
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


def test_setpoint_map_range_validation(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["setpoint-map", "--q0-min", "50", "--out", str(out)]) == EXIT_CONFIG
    assert main(["setpoint-map", "--q0-max", "1200", "--out", str(out)]) == EXIT_CONFIG
    assert main(["setpoint-map", "--q0-min", "600", "--q0-max", "600",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


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


def test_sweep_all_cells_failing_exits_3(tmp_path):
    rc = main(["sweep", "--set", "plant.M_x=1e200", "--out", str(tmp_path)])
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
    rc = main(["simulate", "--set", "plant.M_x=1e200", "--out", str(out)])
    assert rc == EXIT_INTEGRATION
    assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pbrsim", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "sweep" in proc.stdout
