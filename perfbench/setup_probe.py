"""Prints the seconds a fresh interpreter spends importing rankloss and
preparing a workload's main call: reading and building the compare config,
and drawing its synthetic dataset.

usage: python3 setup_probe.py SRC_DIR SPEC_JSON   (run.py starts it)
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rankloss.cli  # noqa: E402  (the import is what is timed)
from workloads import program_config  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    spec = json.load(fh)
with open(spec["config_path"], encoding="utf-8") as fh:
    synthetic, _ = program_config(rankloss, json.load(fh))
rankloss.generate_synthetic(synthetic)
print(repr(time.perf_counter() - start))
