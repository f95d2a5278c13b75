"""One workload process: set up, run passes, print one JSON result line.

Started by run.py in a fresh interpreter per run, so heap state and peak RSS
never carry over from another workload.  Usage:

    python3 perfbench/worker.py --workload W --seed N --run-dir D --spawned-at T
        [--seconds S --trace 0|1 | --setup-only]

`--spawned-at` is the parent's wall clock just before it started this
process; set-up time is measured from there until the workload is ready.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def warm_blas() -> None:
    """Pay OpenBLAS's one-off thread and buffer start-up here, in set-up."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    for _ in range(3):
        a @ a


class PassRunner:
    """Runs passes and compares every pass's outputs with the first one's."""

    def __init__(self, ops: list, seed: int, out_root: str):
        self.ops = ops
        self.seed = seed
        self.out_root = out_root
        self.reference: dict[str, dict[str, bytes]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, tracer: Tracer | None = None) -> list[float]:
        """One pass, traced when a tracer is given; returns each operation's wall time."""
        if tracer is not None:
            layers.install_all(tracer)
        walls = []
        try:
            for op in self.ops:
                out_dir = os.path.join(self.out_root, op.label)
                shutil.rmtree(out_dir, ignore_errors=True)
                gc.collect()
                span = tracer.span("bench." + op.label) if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        raw = op.call(self.seed, out_dir)
                except Exception as exc:  # a crashing run is a failed operation
                    walls.append(time.perf_counter() - start)
                    self._record(op, workloads.Outcome(False, "raised %r" % exc, {}))
                    continue
                walls.append(time.perf_counter() - start)
                self._record(op, op.check(raw, out_dir))
        finally:
            if tracer is not None:
                tracer.restore()
                tracer.request += 1
        return walls

    def _record(self, op, outcome) -> None:
        self.attempted += 1
        ref = self.reference.setdefault(op.label, outcome.outputs)
        if not outcome.ok:
            self.failures.append("%s: %s" % (op.label, outcome.detail))
        elif outcome.outputs != ref:
            self.failures.append("%s: outputs differ from the first pass" % op.label)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.run_dir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.run_dir)
    for op in ops:
        op.prepare()
    warm_blas()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = PassRunner(ops, args.seed, os.path.join(args.run_dir, "out"))
    tracer = Tracer()
    walls: list[float] = []  # per pass
    op_walls: list[float] = []  # per CLI run or library call
    traced_walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        ops = runner.run()
        walls.append(sum(ops))
        op_walls.extend(ops)
        if args.trace:
            traced_walls.append(sum(runner.run(tracer)))

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "op_walls": op_walls,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        result["traced_walls"] = traced_walls
        result["per_layer"] = layers.per_layer_metrics(tracer, len(traced_walls), overhead)
        tracer.write_spans(os.path.join(args.run_dir, "spans.jsonl"))
    shutil.rmtree(runner.out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


def blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (deps.get("name", "?"), deps.get("version", "?"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
