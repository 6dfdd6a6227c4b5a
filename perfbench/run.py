"""The rankloss benchmark: one workload, one seed, one result line.

usage (from the repository root):
  python3 perfbench/run.py --workload protocol --seed 0 --seconds 45 --trace 0

The workload runs in a fresh worker process at --jobs 1, with BLAS threads
pinned to nproc so that jobs x BLAS threads <= nproc. Each timed call is
paired with the time of a fixed calibration computation measured around it.
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics.

Every call's trial AUROCs are checked against the stored golden for the seed
(when one exists) and against the run's first call, and trial 0 is rebuilt
once per run on the reference path. A mismatch fails the run, and the exit
code is 1. README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = HERE / "goldens"
SETUP_PROBES = 4
TOLERANCE = 1e-12  # on trial AUROCs, against the golden and between calls
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RANKLOSS_SEED", None)  # would override the config's split seed
    threads = str(len(os.sched_getaffinity(0)))  # every workload runs at --jobs 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], env: dict, capture: bool) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out)


def mismatch(a: list, b: list) -> bool:
    """True unless two per-arm AUROC lists agree within the tolerance."""
    flat_a = [v for arm in a for v in arm]
    flat_b = [v for arm in b for v in arm]
    return len(flat_a) != len(flat_b) or any(
        abs(x - y) > TOLERANCE for x, y in zip(flat_a, flat_b))


def check_outputs(outputs: list, golden) -> list[str]:
    problems = []
    for i, output in enumerate(outputs):
        if golden is not None and mismatch(output, golden):
            problems.append(f"call {i}: trial AUROCs differ from the stored golden")
        elif mismatch(output, outputs[0]):
            problems.append(f"call {i}: trial AUROCs differ from call 0")
    return problems


def setup_times(spec_path: Path, env: dict, count: int) -> list[float]:
    times = []
    for _ in range(count):
        probe = run_child([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                           str(spec_path)], env, capture=True)
        if probe.returncode != 0:
            raise RuntimeError("the set-up probe failed")
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's checked output as the seed's golden")
    args = parser.parse_args()

    if not (SRC / "rankloss" / "__init__.py").is_file():
        print(f"error: no rankloss sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, bench, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def run(args, bench: dict, workdir: Path) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import make_inputs

    spec = make_inputs(args.workload, args.seed, workdir)
    spec["src"] = str(SRC)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = child_env()

    # Set-up is timed half before and half after the workload, so the median
    # spans more of the machine's speed swings than back-to-back probes would.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = setup_times(spec_path, env, probes)
    out_path = workdir / "result.json"
    worker = run_child([sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--seed", str(args.seed), "--out", str(out_path)], env, capture=False)
    if worker.returncode != 0 or not out_path.is_file():
        print(f"error: the worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out_path.read_text(encoding="utf-8"))
    setup += setup_times(spec_path, env, probes)

    golden_file = GOLDENS / f"{args.workload}-seed{args.seed}.json"
    golden = (json.loads(golden_file.read_text(encoding="utf-8"))["output"]
              if golden_file.is_file() else None)
    output_problems = check_outputs(result["outputs"], golden)
    problems = result["errors"] + result["problems"] + output_problems
    # Every timed call is one attempt, and the reference cross-check one more.
    attempted = len(result["outputs"]) + len(result["errors"]) + 1
    failed = len(result["errors"]) + len(output_problems) + bool(result["problems"])
    correct = not problems

    if args.trace:
        values, section = result.get("layers"), bench["per_layer"]
    elif result["walls"]:
        wall = statistics.median(result["walls"])
        wall_cal = statistics.median(
            w / c for w, c in zip(result["walls"], result["calibration"]))
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "trials_per_s": spec["items"] / wall, "wall_cal": wall_cal,
                  "trials_per_kcal": 1000 * spec["items"] / wall_cal,
                  "peak_rss_mb": result["peak_rss_mb"],
                  "ok_ratio": (attempted - failed) / attempted}
        section = bench["end_to_end"]
    else:
        values = None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section} if values else {}
    if correct and args.write_golden and not args.trace:
        GOLDENS.mkdir(exist_ok=True)
        golden_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                           "output": result["outputs"][0]}, indent=1) + "\n",
                               encoding="utf-8")

    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(result['walls'])} timed calls of "
          f"{spec['items']} trials, golden {'checked' if golden is not None else 'absent'}")
    for problem in problems:
        print(f"  FAILED {problem}")
    if metrics and not args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<16} {metric['value']:.6g} {metric['unit']}")
        for name, unit in (("wall_s", "s"), ("trials_per_s", "1/s")):
            print(f"  {name:<16} {values[name]:.6g} {unit}  (wall clock, not calibrated)")
        print(f"  {'failed_ratio':<16} {failed / attempted:.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
