"""Every output bit of the built-in runs and the setpoint map, and every byte of
the files the CLI writes for them, pinned by SHA-256.

The rel=1e-9 pins elsewhere are the portable check; these digests say that a
change moved no bit at all, and wrote no byte differently.  They depend on the
interpreter, numpy and the C library (libm), so the digest file records those
versions, and on any other environment each test fails and names the version
that differs.

Rewriting the file is a deliberate move of bits:

    PYTHONPATH=src python tests/test_digests.py

regenerates tests/digests.json from this checkout.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from pbrsim.cli import EXIT_OK, main
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.scenarios import (
    BUILTIN_SCENARIOS,
    MapReference,
    SimulationTrace,
    day_night_scenario,
    run_scenario,
)
from pbrsim.steady_state import OperatingPoint, setpoint_map

DIGEST_FILE = Path(__file__).with_name("digests.json")
PLANTS = {"full": FullModelParams, "simplified": SimplifiedModelParams}
SEEDS = range(4)
MAP_SEEDS = range(2)
MAP_Q0 = [100.0 + 900.0 * i / 45 for i in range(46)]


def _environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_digests(trace: SimulationTrace) -> dict[str, str]:
    """One digest per column, of its little-endian float64 bytes."""
    return {
        f.name: _sha256(getattr(trace, f.name).astype("<f8").tobytes())
        for f in fields(SimulationTrace)
    }


def _runs():
    """(key, scenario) of every pinned run, in a fixed order."""
    for name, make in BUILTIN_SCENARIOS.items():
        for kind in ("fl", "ip"):
            for seed in SEEDS:
                for plant, params in PLANTS.items():
                    yield f"{name}/{kind}/seed{seed}/{plant}", replace(make(kind, seed), plant=params())
    for seed in MAP_SEEDS:
        scenario = replace(day_night_scenario("ip", seed), reference=MapReference())
        yield f"paper-4.2-map/ip/seed{seed}/full", scenario


def _map_digests(points: list[OperatingPoint]) -> dict[str, str]:
    """One digest per OperatingPoint field, of its float.hex values joined by newlines."""
    columns = zip(*(astuple(op) for op in points))
    return {
        f.name: _sha256("\n".join(map(float.hex, col)).encode())
        for f, col in zip(fields(OperatingPoint), columns)
    }


def compute_digests() -> dict:
    return {
        "environment": _environment(),
        "runs": {key: _trace_digests(run_scenario(s)) for key, s in _runs()},
        "setpoint_map": _map_digests(setpoint_map(MAP_Q0)),
    }


def _cli_calls(out: Path):
    """Each pinned CLI call, writing under out: `campaigns --seed 0`, `setpoint-map`
    at its defaults, and `simulate` of each built-in under each controller."""
    yield ["campaigns", "--seed", "0", "--out", str(out / "campaigns")]
    yield ["setpoint-map", "--out", str(out / "setpoint_map.csv")]
    for name in BUILTIN_SCENARIOS:
        for kind in ("fl", "ip"):
            yield ["simulate", "--scenario", name, "--controller", kind,
                   "--out", str(out / "simulate" / name / kind)]


def compute_file_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file the pinned CLI calls write, keyed by its path under out."""
    for argv in _cli_calls(out):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK, argv
    return {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def _stored_digests() -> dict:
    """The digest file, after checking that this is the environment it records."""
    stored = json.loads(DIGEST_FILE.read_text())
    env = _environment()
    for name, version in stored["environment"].items():
        if env.get(name) != version:
            pytest.fail(
                f"digests were written under {name} {version}, this is {name} "
                f"{env.get(name)}: the bits need not match; rely on the rel=1e-9 pins "
                "or regenerate the file on purpose (see this module's docstring)"
            )
    return stored


def test_every_output_bit_is_pinned():
    stored = _stored_digests()
    now = compute_digests()
    assert now["runs"].keys() == stored["runs"].keys()
    moved = [
        f"{key}:{column}"
        for key, columns in stored["runs"].items()
        for column, digest in columns.items()
        if now["runs"][key][column] != digest
    ]
    moved += [
        f"setpoint_map:{name}"
        for name, digest in stored["setpoint_map"].items()
        if now["setpoint_map"][name] != digest
    ]
    assert not moved, f"{len(moved)} digests moved: {moved[:10]}"
    assert {**now, "files": stored["files"]} == stored


def test_every_output_byte_is_pinned(tmp_path):
    stored = _stored_digests()["files"]
    now = compute_file_digests(tmp_path)
    moved = sorted(name for name, digest in stored.items() if now.get(name) != digest)
    assert not moved, f"{len(moved)} files moved: {moved[:10]}"
    assert now == stored


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        digests = {**compute_digests(), "files": compute_file_digests(Path(out))}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}")
