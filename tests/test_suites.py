"""Helpers shared by the verification suites."""

import tracemalloc

import numpy as np

from diracfock import PhysicalConstants, build_background, evolve, minkowski_chart, plane_wave
from diracfock.dynamics import _history
from diracfock.suites import _DRAW, _complex_normal


def test_complex_normal_equals_two_draw_expression_bit_for_bit():
    # the scratch holds _DRAW = 65536 doubles: below it, exactly it, one past
    # it, 1.58 and 6.1 of it per part
    for shape in ((4, 4, 4), (7, 4), (3, 16, 1, 1, 4), (16384, 4), (65537,), (101, 256, 1, 1, 4), (100000, 4)):
        a = np.random.default_rng([11, 3])
        b = np.random.default_rng([11, 3])
        got = _complex_normal(a, shape)
        want = b.standard_normal(shape) + 1j * b.standard_normal(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # both streams are left at the same state
        assert a.standard_normal() == b.standard_normal()


def test_complex_normal_holds_the_output_and_one_scratch():
    # measured 1.7 KB above the output and the 512 KiB scratch at both shapes;
    # the two whole real draws measured 0.5 of the output above it at (100000, 4)
    for shape in ((100000, 4), (101, 256, 1, 1, 4)):
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            out = _complex_normal(rng, shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * _DRAW + 2**14


def test_refined_runs_keep_only_the_base_axis_rows():
    # The evolve suite's dt/2 and dt/4 runs on a (101, 64) base history: the
    # two kept arrays of base-axis rows and the march's RK4 stages measured
    # 2.11 histories; the bound leaves 0.19.  Keeping both full evolve
    # histories, 2 and 4 of them, measured 6.08.
    k = PhysicalConstants.natural_units(mass=1.0)
    base = minkowski_chart(0.0, 0.5, 100, (4.0 * np.pi, 2.0 * np.pi, 2.0 * np.pi), (64, 1, 1))
    initial = plane_wave(base, (1, 0, 0), k).values[0]
    bgs = {m: build_background(base.with_time_axis(0.0, 0.5, 100 * m)) for m in (2, 4)}
    want = {m: evolve(initial, bgs[m], k).values[::m] for m in (2, 4)}
    history = want[2].nbytes
    tracemalloc.start()
    try:
        half = _history(initial, bgs[2], k, 10.0, 2)
        ref = _history(initial, bgs[4], k, 10.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(half, want[2]) and np.array_equal(ref, want[4])
    assert peak < 2.3 * history
