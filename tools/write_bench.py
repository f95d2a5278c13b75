"""Write BENCH_<n>.json: per-metric medians of perfbench workloads over seeds.

Runs a checkout's own ``perfbench/run.py`` (this checkout by default) for
seeds 1 to 5, once per seed and workload with ``--trace 0`` for the
end-to-end metrics and once with ``--trace 1`` for the per-layer metrics,
for the run length that the checkout's ``BENCHMARK.json`` sets.  Seeds run
in the outer loop, so slow drift of the host spreads over every workload
alike.  ``BENCH_<n>.json`` at the root of this checkout holds, per workload and metric, the median over
the seeds with every seed's value; the operation counts; the machine,
Python, numpy, BLAS and thread count that perfbench recorded; and what was
measured: ``git describe --dirty`` and a sha256 over the checkout's
``src/diracfock/*.py``.  Measure a parent and a change on the same host, one
after the other:

    python3 tools/write_bench.py 1 --checkout path/to/parent
    python3 tools/write_bench.py 2

The medians are a record for reference, not evidence of a gain: two files
written one after the other carry the host's drift between them, which can
reach several percent.  Compare a parent and a change with runs that
alternate between the two checkouts.

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
SEEDS = range(1, 6)


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="write BENCH_<n>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--workloads", help="comma-separated subset of the benchmark's workloads (default: all)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workloads is None else [w for w in args.workloads.split(",") if w]
    if not workloads or any(w not in known for w in workloads):
        parser.error("workloads must be among %s" % ", ".join(known))
    seconds = float(spec["run_seconds"])
    runs = {(w, t): [] for w in workloads for t in (0, 1)}
    envs = []
    try:
        for seed in SEEDS:
            for w in workloads:
                for t in (0, 1):
                    env, summary = perfbench(checkout, w, seed, seconds, t)
                    envs.append(env)
                    runs[w, t].append(summary)
                    print("%s seed %d trace %d done" % (w, seed, t), file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("write_bench: %s" % exc, file=sys.stderr)
        return 1

    result = {w: {"attempted": sum(r["attempted"] for r in runs[w, 0]),
                  "failed": sum(r["failed"] for r in runs[w, 0]),
                  "end_to_end": medians(runs[w, 0]),
                  "per_layer": medians(runs[w, 1])} for w in workloads}
    bench = {
        "bench": args.n,
        "measured": source_id(checkout),
        "environment": envs[0],
        "environment_varied": any(env != envs[0] for env in envs),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": result,
    }
    path = ROOT / ("BENCH_%d.json" % args.n)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
