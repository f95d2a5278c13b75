"""diracfock benchmark: one workload, end-to-end or traced, one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/diracfock`.  The workload
runs in a fresh Python process (worker.py) between set-up-only processes,
three before and three after; set-up time is the median of all seven.  BLAS and OpenMP threads are pinned to
the CPUs this process may use.  With `--trace 0` the last line carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run,
whose outputs must equal the untraced run's byte for byte.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("boosted_wave", "packet_pairing", "grid3d", "short_scenarios")
SETUP_PROBES = 3  # before the workload, and again after it
DEADLINE_S = 170.0

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_p90_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def tail_index(n: int) -> int:
    """Index into n sorted samples of the p90, or of the highest percentile
    that still has at least ten samples beyond it; the maximum when n <= 10."""
    if n <= 10:
        return n - 1
    return min(-(-9 * n // 10) - 1, n - 11)


def tail(samples: list[float]) -> tuple[float, str]:
    ordered = sorted(samples)
    i = tail_index(len(ordered))
    beyond = len(ordered) - 1 - i
    what = "p%.0f of %d runs, %d beyond" % (100.0 * (i + 1) / len(ordered), len(ordered), beyond)
    return ordered[i], what


def environment(threads: int, worker: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out: %s" % " ".join(args)) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "diracfock", "__init__.py")):
        print("perfbench: no src/diracfock next to %s; run it inside a checkout" % HERE, file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_dir = os.path.join(HERE, ".runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--run-dir", run_dir]

    try:
        setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = spawn(common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], deadline)
        setups += [res["setup_s"]] + [
            spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    env = environment(threads, res)
    walls = res["walls"]
    failed = len(res["failures"])
    attempted = res["attempted"]
    p90, p90_what = tail(res["op_walls"])
    end_to_end = {
        "setup_s": (statistics.median(setups), "median of %d set-ups" % len(setups)),
        "wall_s": (statistics.median(walls), "median of %d passes" % len(walls)),
        "wall_p90_s": (p90, p90_what),
        "peak_rss_mb": (res["peak_rss_mb"], "ru_maxrss of the workload process"),
    }

    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, what) in end_to_end.items():
        print("%-18s %.6g %s  (%s)" % (name, value, END_TO_END[name], what))
    print("%-18s %.6g 1  (%d failed of %d operations)" % ("failed_ratio", failed / attempted, failed, attempted))
    for line in res["failures"]:
        print("FAILED " + line)
    if args.trace:
        metrics = res["per_layer"]
        print("traced passes %d, untraced passes %d" % (len(res["traced_walls"]), len(walls)))
        for name, value in metrics.items():
            print("%-45s %.6g" % (name, value))
        units = {name: unit for name, unit, _ in PER_LAYER}
        out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in end_to_end.items()}

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": res["failures"], "worker": res, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
