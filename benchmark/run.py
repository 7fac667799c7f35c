"""Benchmark of the thirdsound mutual-information pipeline.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src and nothing installed is used.  Each round of the workload runs in a
fresh process (benchmark/worker.py); rounds repeat while another one fits
in S seconds, and at least one runs.  Set-up time is sampled once per
round and by extra processes that only import the package and build the
thermal state: up to SETUP_MAX samples while they fit in S seconds, and
never fewer than SETUP_MIN (untraced runs only).
The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), each the median over the run's rounds.  --workload all runs
every workload in turn and prints one such line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-dirichlet-20", "map-neumann-16",
             "reconstruct-dirichlet-10", "tilemap-dirichlet-48")

# One BLAS thread: the faster setting for the entropy kernel (an eigensolve
# per call); map-neumann-16 took 12.0 s at one thread and 15.7 s at two.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN, SETUP_MAX = 3, 5    # set-up samples per run; past the minimum only
                               # while they fit in the run's seconds
TIME_LIMIT = 165.0      # seconds a whole run may take, checks included


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(args: list, env: dict, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchmarkError("out of time before the next process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.monotonic()

    def remaining() -> float:
        return TIME_LIMIT - (time.monotonic() - start)

    # compile and cache the package once, outside every timed process
    subprocess.run([sys.executable, "-c", "import thirdsound"], env=env, cwd=ROOT,
                   check=True, timeout=60)

    rounds, durations = [], []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        args = [name, "--out", str(out / f"round-{len(rounds)}"), "--seed", str(seed)]
        rounds.append(run_child(args + (["--trace"] if trace else []), env, remaining()))
        durations.append(time.monotonic() - t0)
        next_end = time.monotonic() - measure_start + statistics.median(durations)
        if next_end > seconds or statistics.median(durations) > remaining():
            break

    setup = [r["setup_s"] for r in rounds]
    probe_s = statistics.median(setup)
    while not trace and (len(setup) < SETUP_MIN or (
            len(setup) < SETUP_MAX and time.monotonic() - measure_start + probe_s <= seconds)):
        t0 = time.monotonic()
        setup.append(run_child([name, "--out", str(out / "setup"), "--seed", str(seed),
                                "--setup-only"], env, remaining())["setup_s"])
        probe_s = time.monotonic() - t0

    wrong = sum(r["wrong"] for r in rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
    if trace:
        units = rounds[0]["units"]
        metrics = {key: {"value": statistics.median(r["layers"][key] for r in rounds),
                         "unit": units[key]} for key in units}
        absent = sorted({a for r in rounds for a in r["absent"]})
        if absent:
            print(f"{name}: absent from the program: {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds),
                             "unit": "MiB"},
        }
    summary = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "blas_threads": env[THREAD_VARS[0]], "rounds": rounds, "setup_samples": setup}
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return {"correct": wrong == 0, "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "thirdsound" / "__init__.py").is_file():
        print(f"error: no thirdsound sources under {ROOT / 'src'}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
