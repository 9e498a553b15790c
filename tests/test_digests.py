"""Every output bit of the built-in runs and the setpoint map, pinned by SHA-256.

The rel=1e-9 pins elsewhere are the portable check; these digests say that a
change moved no bit at all.  They depend on the interpreter, numpy and the C
library (libm), so the digest file records those versions, and on any other
environment the test fails and names the version that differs.

Rewriting the file is a deliberate move of bits:

    PYTHONPATH=src python tests/test_digests.py

regenerates tests/digests.json from this checkout.
"""

import hashlib
import json
import platform
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

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


def test_every_output_bit_is_pinned():
    stored = json.loads(DIGEST_FILE.read_text())
    env = _environment()
    for name, version in stored["environment"].items():
        if env.get(name) != version:
            pytest.fail(
                f"digests were written under {name} {version}, this is {name} "
                f"{env.get(name)}: the bits need not match; rely on the rel=1e-9 pins "
                "or regenerate the file on purpose (see this module's docstring)"
            )
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
    assert now == stored


if __name__ == "__main__":
    DIGEST_FILE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}")
