"""Regenerate reference.json from the checkout's pbrsim.

    python3 perfbench/make_reference.py

Runs every workload once per noise seed of the pool (about six minutes on
one core) and stores each cell's summary.  Regenerate only when a change
is meant to move the outputs, and say which bits moved and why.
"""

from __future__ import annotations

import json

from checkout import OUT, environment, use_checkout_source

use_checkout_source()

from reference import REFERENCE_PATH  # noqa: E402
from workloads import LEAN_SEEDS, SEED_POOL, WORKLOADS  # noqa: E402


def main() -> None:
    cells: dict[str, dict] = {}
    for name, (configs, run_pass) in WORKLOADS.items():
        # A lean-ensemble pass covers LEAN_SEEDS consecutive seeds.
        step = LEAN_SEEDS if name == "lean-ensemble" else 1
        for seed in range(0, SEED_POOL, step):
            result = run_pass(configs(seed), OUT / "reference" / name)
            raised = sorted(k for k, v in result.cells.items() if v is None)
            if raised:
                raise SystemExit(f"error: cells raised: {raised}")
            cells.update(result.cells)
            print(f"{name} seed {seed}: {len(result.cells)} cells", flush=True)
    env = environment()
    doc = {
        "generated_from": {k: env[k] for k in ("git_sha", "source_sha256")},
        "seed_pool": SEED_POOL,
        "cells": cells,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
