"""Runs the benchmark over several seeds and summarises each metric.

usage (from the repository root):
  python3 perfbench/collect.py --runs 10 [--workloads protocol metric_csv]
                               [--first-seed 0] [--trace 0] [--record LABEL]

For every workload and end-to-end metric it prints the median of the runs,
the quartiles and the spread (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json. With --record LABEL the summary is appended as one row
to baseline.json next to this file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    section = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in section}
    summary, env = {}, None
    for workload in args.workloads:
        runs = [one_run(workload, args.first_seed + i, bench["run_seconds"], args.trace)
                for i in range(args.runs)]
        env = runs[-1]["env"]
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            flag = "" if bound is None or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:<18} {name:<40} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound}{flag}", flush=True)
    if args.record:
        path = HERE / "baseline.json"
        rows = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
        rows.append({"label": args.record, "date": datetime.date.today().isoformat(),
                     "runs": args.runs, "first_seed": args.first_seed,
                     "seconds": bench["run_seconds"], "trace": args.trace, "env": env,
                     "workloads": summary})
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
