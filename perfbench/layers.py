"""Which library functions the benchmark wraps, and the per-layer metrics.

Every public function defined in a layer module is wrapped at every binding
it has in the loaded `diracfock` modules, in the suite table and on
`SpinorField`.  Spans are named `<module>.<function>`; the suite functions
are named `suites.<suite>` and the `SpinorField` arithmetic
`fields.spinor_ops`.  Probes add counters that spans alone cannot give.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import weakref

from tracing import SpanTotals, Tracer, span_totals

LAYER_MODULES = (
    "spin_algebra", "geometry", "stencils", "dynamics", "pairing",
    "fock", "config", "report", "cli", "suites",
)
SPINOR_OPS = ("__add__", "__sub__", "__mul__", "__rmul__")
SUITES = ("identities", "connection", "evolve", "current", "pairing", "fock")
COMPLEX_BYTES = 16


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _evolve_probe(counters, args, kwargs, result, exc) -> None:
    from diracfock.dynamics import EvolutionUnstableError

    initial = _arg(args, kwargs, 0, "initial")
    bg = _arg(args, kwargs, 1, "bg")
    nodes = math.prod(initial.shape[:-1])
    planned = len(bg.chart.axes[0]) - 1
    if exc is None:
        done = planned
    elif isinstance(exc, EvolutionUnstableError):
        done = exc.step
    else:
        done = 0
    counters["dynamics.evolve.steps"] += done
    counters["dynamics.evolve.node_steps"] += nodes * done
    # evolve allocates the whole history before the first step
    counters["dynamics.evolve.history_bytes"] += (planned + 1) * nodes * 4 * COMPLEX_BYTES


def _differentiate_probe(counters, args, kwargs, result, exc) -> None:
    values = _arg(args, kwargs, 0, "values")
    axis = _arg(args, kwargs, 1, "axis")
    if values.shape[axis] == 1:
        counters["stencils.differentiate.suppressed"] += 1
    # computed, not measured: one read of the input and one write of the result
    counters["stencils.differentiate.bytes"] += 2 * values.nbytes


class _SampledPairs:
    """Counts distinct (field, slice) pairs passed to `sample_on_slice`."""

    def __init__(self):
        self.seen: dict[tuple[int, int], tuple[weakref.ref, weakref.ref]] = {}

    def __call__(self, counters, args, kwargs, result, exc) -> None:
        values = _arg(args, kwargs, 0, "psi").values
        sl = _arg(args, kwargs, 1, "s")
        key = (id(values), id(sl))
        refs = self.seen.get(key)
        if refs is None or refs[0]() is not values or refs[1]() is not sl:
            self.seen[key] = (weakref.ref(values), weakref.ref(sl))
            counters["pairing.sampled_pairs"] += 1


def _write_outputs_probe(counters, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    cfg = _arg(args, kwargs, 0, "cfg")
    artifacts = _arg(args, kwargs, 2, "artifacts")
    for name in ("report.txt", "checks.jsonl", *artifacts):
        counters["cli.write_outputs.bytes"] += os.path.getsize(os.path.join(cfg.out_dir, name))


def _owners() -> list[object]:
    from diracfock.fields import SpinorField
    from diracfock.suites import SUITES as table

    mods = [m for n, m in sorted(sys.modules.items()) if n == "diracfock" or n.startswith("diracfock.")]
    return mods + [table, SpinorField]


def _public_functions(module) -> list[tuple[str, object]]:
    return [
        (name, fn)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


def install_all(tracer: Tracer) -> int:
    """Wrap every public function of every layer; returns the bindings replaced."""
    from diracfock.fields import SpinorField

    probes = {
        "dynamics.evolve": _evolve_probe,
        "stencils.differentiate": _differentiate_probe,
        "pairing.sample_on_slice": _SampledPairs(),
        "cli.write_outputs": _write_outputs_probe,
    }
    owners = _owners()
    count = 0
    for short in LAYER_MODULES:
        module = importlib.import_module("diracfock." + short)
        for fname, fn in _public_functions(module):
            if short == "suites" and fname.startswith("suite_"):
                name = "suites." + fname[len("suite_"):]
            else:
                name = "%s.%s" % (short, fname)
            count += tracer.install(name, fn, owners, probes.get(name))
    for fn in {id(f): f for f in (vars(SpinorField)[op] for op in SPINOR_OPS)}.values():
        count += tracer.install("fields.spinor_ops", fn, owners)
    return count


# (name, unit, better); the same list is in BENCHMARK.json
PER_LAYER: list[tuple[str, str, str]] = [
    ("dynamics.action_value.calls", "count", "lower"),
    ("dynamics.action_value.self_s", "s", "lower"),
    ("dynamics.evolve.calls", "count", "lower"),
    ("dynamics.evolve.self_s", "s", "lower"),
    ("dynamics.evolve.steps", "count", "lower"),
    ("dynamics.evolve.node_steps_per_s", "1/s", "higher"),
    ("dynamics.evolve.history_mb", "MB", "lower"),
    ("dynamics.current.self_s", "s", "lower"),
    ("dynamics.divergence.self_s", "s", "lower"),
    ("dynamics.timelike_report.self_s", "s", "lower"),
    ("stencils.differentiate.calls", "count", "lower"),
    ("stencils.differentiate.self_s", "s", "lower"),
    ("stencils.differentiate.mb_computed", "MB", "lower"),
    ("stencils.differentiate.suppressed_ratio", "1", "lower"),
    ("stencils.cubic_time_interpolate.calls", "count", "lower"),
    ("stencils.cubic_time_interpolate.self_s", "s", "lower"),
    ("geometry.build_background.calls", "count", "lower"),
    ("geometry.build_background.self_s", "s", "lower"),
    ("geometry.covariant_derivative.calls", "count", "lower"),
    ("geometry.covariant_derivative.self_s", "s", "lower"),
    ("geometry.concordance_residuals.self_s", "s", "lower"),
    ("pairing.sample_on_slice.calls", "count", "lower"),
    ("pairing.inner.calls", "count", "lower"),
    ("pairing.flux.calls", "count", "lower"),
    ("pairing.orthonormalize.self_s", "s", "lower"),
    ("pairing.samplings_per_mode", "1", "lower"),
    ("fields.spinor_ops.calls", "count", "lower"),
    ("fields.spinor_ops.self_s", "s", "lower"),
    ("fock.car_report.calls", "count", "lower"),
    ("fock.car_report.self_s", "s", "lower"),
    ("spin_algebra.canonical_gamma_set.self_s", "s", "lower"),
    ("config.parse_config.self_s", "s", "lower"),
    ("report.render_text.self_s", "s", "lower"),
    ("cli.write_outputs.self_s", "s", "lower"),
    ("cli.write_outputs.bytes", "B", "lower"),
] + [("suites.%s.wall_s" % s, "s", "lower") for s in SUITES] + [
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric; absent layers read 0."""
    totals = span_totals(tracer.finished_spans())
    c = tracer.counters
    none = SpanTotals(0, 0.0, 0.0)

    def t(name: str) -> SpanTotals:
        return totals.get(name, none)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = t(base).calls / passes
        elif field == "self_s":
            out[name] = t(base).self_s / passes
        elif name.startswith("suites."):
            out[name] = t(base).total_s / passes
    out["dynamics.evolve.steps"] = c["dynamics.evolve.steps"] / passes
    out["dynamics.evolve.node_steps_per_s"] = ratio(
        c["dynamics.evolve.node_steps"], t("dynamics.evolve").total_s
    )
    out["dynamics.evolve.history_mb"] = c["dynamics.evolve.history_bytes"] / 1e6 / passes
    out["stencils.differentiate.mb_computed"] = c["stencils.differentiate.bytes"] / 1e6 / passes
    out["stencils.differentiate.suppressed_ratio"] = ratio(
        c["stencils.differentiate.suppressed"], t("stencils.differentiate").calls
    )
    out["pairing.samplings_per_mode"] = ratio(
        t("pairing.sample_on_slice").calls, c["pairing.sampled_pairs"]
    )
    out["cli.write_outputs.bytes"] = c["cli.write_outputs.bytes"] / passes
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _ in PER_LAYER}
