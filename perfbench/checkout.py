"""Locate the checkout under test and record the environment of a run.

The benchmark always imports pbrsim from ``src/`` of the checkout it sits
in, never from an installed copy, and fails when that source is missing.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # every file the benchmark writes lives here

# One process, one thread: BLAS/OpenMP pools would add threads that the
# numbers do not account for.  Set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def use_checkout_source() -> None:
    """Pin thread pools to one thread and import pbrsim from ``src/``."""
    if not (SRC / "pbrsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no pbrsim package under {SRC}")
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pbrsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """Versions, processors and load at the start of a run."""
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
