"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

import layers
import run
import workloads
from tracing import Span, Tracer, span_totals
from worker import PassRunner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    spans = [
        Span(0, -1, "root", 0.0, 10.0, 0),
        Span(1, 0, "a", 1.0, 4.0, 0),
        Span(2, 0, "b", 5.0, 9.0, 0),
        Span(3, 2, "c", 6.0, 7.0, 0),
        Span(4, -1, "a", 20.0, 22.0, 1),
    ]
    totals = span_totals(spans)
    assert totals["root"].self_s == 3.0
    assert totals["b"].self_s == 3.0
    assert totals["c"].self_s == 1.0
    assert (totals["a"].calls, totals["a"].total_s, totals["a"].self_s) == (2, 5.0, 5.0)


def test_wrapped_calls_nest_under_the_open_span():
    # opens and closes: pass 0, mid 1, leaf 2-3, leaf 3-5, mid 6, pass 10
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 10.0))

    def leaf():
        return "x"

    leaf_t = tracer.wrap("leaf", leaf)
    mid_t = tracer.wrap("mid", lambda: leaf_t() + leaf_t())
    with tracer.span("pass"):
        assert mid_t() == "xx"
    totals = span_totals(tracer.finished_spans())
    assert totals["pass"].self_s == 5.0  # [0, 10] minus mid [1, 6]
    assert totals["mid"].self_s == 2.0   # [1, 6] minus leaves [2, 3] and [3, 5]
    assert totals["leaf"].total_s == 3.0 and totals["leaf"].calls == 2


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == [name for name, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    names = e2e + per_layer + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert {n: units[n] for n in run.END_TO_END} == run.END_TO_END
    assert all(units[n] == u for n, u, _ in layers.PER_LAYER)
    assert not NAME.fullmatch("bad name") and not NAME.fullmatch("p90/s")
    from diracfock.config import SUITE_NAMES

    assert layers.SUITES == SUITE_NAMES


def test_the_seed_gives_identical_generated_inputs(tmp_path):
    for seed in (0, 1, 12345):
        a, b = tmp_path / ("a%d" % seed), tmp_path / ("b%d" % seed)
        a.mkdir()
        b.mkdir()
        for w in workloads.WORKLOADS:
            workloads.build(w, seed, str(a))
            workloads.build(w, seed, str(b))
        assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == [
            "flat_boosted_wave_100.ini", "fock_m8.ini", "grid3d_connection.ini"
        ]
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert workloads.plane_wave_choice(seed) == workloads.plane_wave_choice(seed)
    assert len({workloads.plane_wave_choice(s) for s in range(40)}) > 1
    assert workloads.connection_config(3) != workloads.connection_config(4)
    assert "steps = 100\n" in workloads.boosted_config(3)


def _bindings():
    from diracfock.fields import SpinorField
    from diracfock.suites import SUITES

    snap = {}
    for name, mod in sys.modules.items():
        if name == "diracfock" or name.startswith("diracfock."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    snap.update({("SUITES", k): v for k, v in SUITES.items()})
    snap.update({("SpinorField", k): v for k, v in vars(SpinorField).items()})
    return snap


def test_wrappers_restore_every_original():
    import diracfock
    from diracfock import dynamics, stencils, suites
    from diracfock.fields import SpinorField

    before = _bindings()
    tracer = Tracer()
    replaced = layers.install_all(tracer)
    assert replaced > 50
    for owner in (diracfock, dynamics, suites):
        assert owner.evolve is not before[("diracfock.dynamics", "evolve")]
    assert dynamics.differentiate is stencils.differentiate  # one wrapper for every binding
    assert suites.SUITES["fock"] is not before[("SUITES", "fock")]
    assert SpinorField.__rmul__ is SpinorField.__mul__
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_matches_untraced_pass_byte_for_byte(tmp_path):
    runner = PassRunner([workloads.CliRun("fock_m6", "fock_m6")], 11, str(tmp_path))
    runner.run()
    tracer = Tracer()
    runner.run(tracer)
    assert runner.attempted == 2 and runner.failures == []
    assert b"passed" in runner.reference["fock_m6"]["report.txt"]
    metrics = layers.per_layer_metrics(tracer, 1, 0.0)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["fock.car_report.calls"] == 6
    assert metrics["suites.fock.wall_s"] > 0
    assert metrics["dynamics.evolve.calls"] == 0


FAILING_CONFIG = """
[scenario]
name = too_tight
suites = evolve

[chart]
t_span = 0.1
steps = 8
shape = 16 1 1

[modes]
m1 = 1 0 0 0 +1

[tolerances]
evolution_error = 1e-300
"""


class _Raises:
    label = "raises"

    def call(self, seed, out_dir):
        raise RuntimeError("boom")


def test_failed_ratio_counts_a_failing_config_and_a_crash(tmp_path):
    cfg = tmp_path / "too_tight.ini"
    cfg.write_text(FAILING_CONFIG.lstrip())
    ops = [
        workloads.CliRun("fock_m6", "fock_m6"),
        workloads.CliRun("too_tight", str(cfg)),
        workloads.CliRun("unstable_dt", "unstable_dt", expect_exit=3),
        _Raises(),
    ]
    runner = PassRunner(ops, 0, str(tmp_path / "out"))
    runner.run()
    assert runner.attempted == 4
    assert len(runner.failures) == 2
    assert runner.failures[0].startswith("too_tight: exit 1")
    assert runner.failures[1] == "raises: raised RuntimeError('boom')"


def test_unexpected_exit_codes_fail(tmp_path):
    runner = PassRunner([workloads.CliRun("fock_m6", "fock_m6", expect_exit=3)], 0, str(tmp_path))
    runner.run()
    assert runner.failures and "exit 0, expected 3" in runner.failures[0]


@pytest.mark.parametrize("n, index", [(1, 0), (10, 9), (11, 0), (20, 9), (100, 89), (200, 179)])
def test_tail_is_p90_or_the_highest_percentile_with_ten_beyond(n, index):
    assert run.tail_index(n) == index
