"""Set-up probe: what every pbrsim start pays before it simulates.

    python3 perfbench/probe.py CONFIGS.json

Imports pbrsim and builds and validates each scenario of CONFIGS.json (a
JSON list of config dicts).  run.py times whole fresh interpreters of this
script, interpreter start-up included, and reports the median as setup_s.
It imports nothing of the benchmark, so only pbrsim's own cost is timed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pbrsim import cli  # noqa: E402

with open(sys.argv[1]) as fh:
    for cfg in json.load(fh):
        cli.scenario_from_config(cfg)
