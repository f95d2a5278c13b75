"""Write BENCH_<n>.json: per-metric medians of perfbench workloads over seeds.

Runs this checkout's own ``perfbench/run.py`` for seeds 1 to 10, once per
seed and workload with ``--trace 0`` for the end-to-end metrics and once
with ``--trace 1`` for the per-layer metrics, for the run length that its
``BENCHMARK.json`` sets.  Seeds run in the outer loop, so slow drift of the
host spreads over every workload alike.  ``BENCH_<n>.json`` at the root of
this checkout holds, per workload and metric, the median over the seeds
with every seed's value; the operation counts; the machine, Python, numpy,
BLAS and thread count that perfbench recorded; and what was measured:
``git describe --dirty`` and a sha256 over the checkout's
``src/diracfock/*.py``.

To compare a change with its parent, measure both in one interleaved run:

    python3 tools/write_bench.py 4 --parent path/to/parent

Every (seed, workload, trace) run of the change sits next to the same run
of the parent, and which of the two runs first alternates from seed to
seed, so the host's drift falls on both files alike.  The parent's medians
go to ``BENCH_<n-1>.json``; the i-th value of a metric there and in
``BENCH_<n>.json`` form one pair, ten pairs per metric.
Without ``--parent`` the medians are a record for reference only: two files
written one after the other carry the host's drift between them, which can
reach several percent.

Exits 1 when a perfbench run fails or reports a failed operation.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py run: (environment, summary) from its `env` line and last line."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited %d: %s seed %d trace %d" % (proc.returncode, workload, seed, trace))
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        raise RuntimeError("perfbench: %d of %d operations failed: %s seed %d"
                           % (summary["failed"], summary["attempted"], workload, seed))
    return env, summary


def source_id(checkout: Path) -> dict:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "diracfock").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_describe": proc.stdout.strip() or None, "src_sha256": h.hexdigest()}


def medians(runs: list[dict]) -> dict:
    """name -> median, unit and per-seed values of the metrics of one workload's runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        out[name] = {"median": statistics.median(values), "unit": first["unit"], "values": values}
    return out


def bench_file(n: int, checkout: Path, runs: dict, envs: list[dict], seconds: float, paired: int | None) -> Path:
    """Write BENCH_<n>.json from one checkout's runs, keyed (workload, trace)."""
    workloads = dict.fromkeys(w for w, _ in runs)
    result = {w: {"attempted": sum(r["attempted"] for r in runs[w, 0]),
                  "failed": sum(r["failed"] for r in runs[w, 0]),
                  "end_to_end": medians(runs[w, 0]),
                  "per_layer": medians(runs[w, 1])} for w in workloads}
    bench = {
        "bench": n,
        "measured": source_id(checkout),
        "environment": envs[0],
        "environment_varied": any(env != envs[0] for env in envs),
        "interleaved_with": paired,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": result,
    }
    path = ROOT / ("BENCH_%d.json" % n)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="write BENCH_<n>.json")
    parser.add_argument("--workloads", help="comma-separated subset of the benchmark's workloads (default: all)")
    parser.add_argument("--parent", type=Path,
                        help="parent checkout to measure interleaved with this one, into BENCH_<n-1>.json")
    args = parser.parse_args(argv)
    checkouts = {args.n: ROOT}
    if args.parent is not None:
        checkouts = {args.n - 1: args.parent.resolve(), **checkouts}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workloads is None else [w for w in args.workloads.split(",") if w]
    if not workloads or any(w not in known for w in workloads):
        parser.error("workloads must be among %s" % ", ".join(known))
    seconds = float(spec["run_seconds"])
    runs = {n: {(w, t): [] for w in workloads for t in (0, 1)} for n in checkouts}
    envs = {n: [] for n in checkouts}
    try:
        for seed in SEEDS:
            for w in workloads:
                for t in (0, 1):
                    # which side runs first alternates from seed to seed for
                    # each (workload, trace), and between the two traces
                    for n in list(checkouts)[:: 1 if (seed + t) % 2 else -1]:
                        env, summary = perfbench(checkouts[n], w, seed, seconds, t)
                        envs[n].append(env)
                        runs[n][w, t].append(summary)
                        print("BENCH_%d %s seed %d trace %d done" % (n, w, seed, t), file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("write_bench: %s" % exc, file=sys.stderr)
        return 1

    for n, checkout in checkouts.items():
        paired = next((m for m in checkouts if m != n), None)
        print(bench_file(n, checkout, runs[n], envs[n], seconds, paired).name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
