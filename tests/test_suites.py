"""Helpers shared by the verification suites."""

import tracemalloc

import numpy as np

from diracfock import (
    BUNDLED,
    PhysicalConstants,
    SpinorField,
    build_background,
    dynamics,
    evolve,
    grid_norm,
    minkowski_chart,
    plane_wave,
    suites,
)
from diracfock.config import _constants, parse_config
from diracfock.dynamics import _plane_wave_split
from diracfock.spin_algebra import _GAMMA_ROWS, _apply
from diracfock.suites import _DRAW, _complex_normal, _wave_gaps, suite_evolve


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


EVOLVE_TWO_MODES = """
[scenario]
suites = evolve
[chart]
t_span = 1.0
steps = 100
shape = 64 1 1
[modes]
m1 = 0 0 0 0 +1
m2 = 1 0 0 1 -1
"""


def test_suite_evolve_marches_each_mode_once(monkeypatch):
    # one march per mode on the scenario's own time axis: no dt/2 or dt/4 runs
    cfg = parse_config(EVOLVE_TWO_MODES)
    march, steps = dynamics._march, []

    def spy(initial, bg, k, growth_abort):
        steps.append(len(bg.chart.axes[0]) - 1)
        return march(initial, bg, k, growth_abort)

    monkeypatch.setattr(dynamics, "_march", spy)
    results, _ = suite_evolve(cfg, _constants(cfg))
    assert steps == [100, 100]
    assert all(r.passed for r in results)


def test_discrete_solution_row_sees_one_perturbed_state(monkeypatch):
    # 1e-10 on every sample of one state is 100x the row's bound, and the row
    # reads it to rounding; the unperturbed run read 1.6e-15
    cfg = parse_config(EVOLVE_TWO_MODES)
    march = dynamics._march

    def perturbed(*args):
        for n, state in enumerate(march(*args)):
            yield state + 1e-10 if n == 37 else state

    rows = {r.name: r for r in suite_evolve(cfg, _constants(cfg))[0]}
    assert rows["m1_discrete_solution"].passed and rows["m1_discrete_solution"].value < 1e-13
    monkeypatch.setattr(dynamics, "_march", perturbed)
    rows = {r.name: r for r in suite_evolve(cfg, _constants(cfg))[0]}
    assert not rows["m1_discrete_solution"].passed
    assert abs(rows["m1_discrete_solution"].value - 1e-10) < 1e-13


def test_discrete_solution_bound_grows_with_the_steps():
    # the march's rounding drifts from its closed form by about 1.1e-17 a
    # step, 4.5e-14 after 4000 steps of this rest wave: a bound fixed at
    # closed_form = 2e-14 would fail a correct march, 4000 / 1000 times it holds
    cfg = parse_config(
        "[scenario]\nsuites = evolve\n[chart]\nt_span = 40\nsteps = 4000\nshape = 8 1 1\n"
        "[tolerances]\nclosed_form = 2e-14\n[modes]\nm1 = 0 0 0 0 +1\n"
    )
    row = {r.name: r for r in suite_evolve(cfg, _constants(cfg))[0]}["m1_discrete_solution"]
    assert row.passed and 2e-14 < row.value and row.bound == "<= 8.0000000000e-14"


def test_wave_gaps_take_blocks_of_rows():
    # A (1001, 256) history of 16.4 MB, 16 rows a block: the evolution error
    # and the norms are those of the whole history, and the pass measured 0.052
    # of it; the whole-history error alone built 24.6 MB of temporaries.
    k = PhysicalConstants.natural_units(mass=1.0)
    chart = minkowski_chart(0.0, 5.0, 1000, (4.0 * np.pi, 2.0 * np.pi, 2.0 * np.pi), (256, 1, 1))
    exact = plane_wave(chart, (1, 0, 0), k)
    out = evolve(exact.values[0], build_background(chart), k).values
    w, parts = _plane_wave_split(exact.values[0], chart, (1, 0, 0), k)
    tracemalloc.start()
    try:
        err, gap, norms = _wave_gaps(out, exact.values, chart, w, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * out.nbytes
    assert err == np.max(np.abs(out - exact.values)) and gap < 1e-13
    assert np.array_equal(norms, [grid_norm(row, chart) for row in out])


def test_suite_evolve_holds_a_few_histories_at_its_peak():
    # flat_boosted_wave cut to 50 steps, half the benchmark's cut: one
    # (51, 256, 1, 1, 4) history is 0.84 MB.  The traced peak measured
    # 5.62 MB, at the stationarity check's action_value (the oracle, the
    # draw, oracle + eps pert and the kernel's buffers for one block), and
    # 7.48 MB before the action checks were blocked, where dirac_residual's
    # whole-history derivatives set it.  The bound sits 0.88 MB above the
    # one and 0.98 MB below the other.
    cfg = parse_config(BUNDLED["flat_boosted_wave"].replace("t_span = 5.0", "t_span = 0.25").replace("steps = 1000", "steps = 50"))
    tracemalloc.start()
    try:
        results, _ = suite_evolve(cfg, _constants(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 6.5e6


def flat_rk4(weights=(1.0, 2.0, 2.0, 1.0), mass_sign=1.0):
    """An ``evolve`` for 1D flat charts: the flat branch of test_dynamics.reference_march,
    RK4 on the (n1, 1, 1, 4) samples, with its stage weights (k1, k2, k3, k4) and the
    sign of its mass as parameters."""

    def march(initial, bg, k, growth_abort=10.0):
        chart = bg.chart
        dt, mu, h = chart.dt, mass_sign * k.compton_wavenumber, chart.spacing[1]

        def rhs(v):
            r = lambda shift: np.roll(v, shift, axis=0)
            term = (r(2) - 8 * r(1) + 8 * r(-1) - r(-2)) / (12.0 * h)
            return _apply(_GAMMA_ROWS[0], (-1j * mu) * v - _apply(_GAMMA_ROWS[1], term))

        states = [initial]
        for _ in range(len(chart.axes[0]) - 1):
            v = states[-1]
            k1 = rhs(v)
            k2 = rhs(v + (0.5 * dt) * k1)
            k3 = rhs(v + (0.5 * dt) * k2)
            k4 = rhs(v + dt * k3)
            a, b, c, d = weights
            states.append(v + (dt / 6.0) * (a * k1 + b * k2 + c * k3 + d * k4))
        return SpinorField(chart=chart, values=np.stack(states))

    return march


def test_discrete_solution_row_catches_the_march_mutants(monkeypatch):
    # measured 1.06e-15 unmutated (the real march's value), 6.65e-6 with
    # RK4's 2 k3 written as 2 k2 and 0.394 with the mass sign flipped
    cfg = parse_config(
        "[scenario]\nsuites = evolve\n[chart]\nt_span = 1.0\nsteps = 100\nshape = 64 1 1\n"
        "[modes]\nm1 = 1 0 0 0 +1\n"
    )
    for stepper, passed in (
        (flat_rk4(), True),
        (flat_rk4(weights=(1.0, 4.0, 0.0, 1.0)), False),
        (flat_rk4(mass_sign=-1.0), False),
    ):
        monkeypatch.setattr(suites, "evolve", stepper)
        row = {r.name: r for r in suite_evolve(cfg, _constants(cfg))[0]}["m1_discrete_solution"]
        assert row.passed == passed, row.value
