"""Dispersion modes, evolution, the conserved current, and the action."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfock import (
    CurrentRealityError,
    EvolutionUnstableError,
    GridMismatchError,
    PhysicalConstants,
    SpinorField,
    action_value,
    build_background,
    canonical_gamma_set,
    closed_form_current_norm,
    coordinate_slice,
    covariant_derivative,
    current,
    current_norm,
    dirac_residual,
    dispersion_mode,
    divergence,
    evolve,
    flux,
    gaussian_packet,
    grid_norm,
    inner,
    minkowski_chart,
    plane_wave,
    sample_on_slice,
    static_diagonal_chart,
    timelike_report,
)
from diracfock import dynamics
from diracfock.dynamics import _march, _operator, _raw_pair_current
from diracfock.geometry import _transport
from diracfock.pairing import _slice_integral
from diracfock.stencils import differentiate
from diracfock.spin_algebra import _DIRAC_FORM_ROWS, _GAMMA_ROWS, _PAIRING_ROWS, _apply, _Rows

TWO_PI = 2.0 * np.pi


def flat_chart(shape=(64, 1, 1), t_span=0.1, steps=10, lengths=(TWO_PI, TWO_PI, TWO_PI)):
    return minkowski_chart(0.0, t_span, steps, lengths, shape)


def test_dispersion_rest_mode_exact(nat):
    w, u = dispersion_mode((0.0, 0.0, 0.0), nat)
    assert w == 1.0
    assert np.array_equal(u, np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0))
    w, u = dispersion_mode((0.0, 0.0, 0.0), nat, branch=-1)
    assert w == -1.0
    assert np.array_equal(u, np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0))


def test_dispersion_solves_algebraic_equation(gs, nat):
    rng = np.random.default_rng(2)
    mu = nat.compton_wavenumber
    for _ in range(20):
        kvec = rng.standard_normal(3)
        spin = int(rng.integers(0, 2))
        branch = int(rng.choice([-1, 1]))
        w, u = dispersion_mode(tuple(kvec), nat, spin=spin, branch=branch)
        op = w * gs.gamma[0] - sum(kvec[i] * gs.gamma[i + 1] for i in range(3)) - mu * np.eye(4)
        assert np.max(np.abs(op @ u)) <= 1e-13
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        assert abs(w) == pytest.approx(np.sqrt(kvec @ kvec + mu * mu), abs=1e-15)


def test_dispersion_validation(nat):
    with pytest.raises(ValueError):
        dispersion_mode((0.0, 0.0, 0.0), nat, spin=2)
    with pytest.raises(ValueError):
        dispersion_mode((0.0, 0.0, 0.0), nat, branch=0)
    massless = PhysicalConstants.natural_units(mass=0.0)
    with pytest.raises(ValueError):
        dispersion_mode((0.0, 0.0, 0.0), massless)


def test_plane_wave_solves_field_equation(nat):
    # rest mode is spatially constant, so only the time stencil contributes
    chart = flat_chart()
    bg = build_background(chart)
    rest = plane_wave(chart, (0, 0, 0), nat)
    assert np.max(np.abs(dirac_residual(rest, bg, nat).values)) <= 1e-8

    boosted = np.max(np.abs(dirac_residual(plane_wave(chart, (1, 0, 0), nat), bg, nat).values))
    fine_chart = flat_chart(shape=(128, 1, 1))
    fine = np.max(np.abs(dirac_residual(
        plane_wave(fine_chart, (1, 0, 0), nat), build_background(fine_chart), nat
    ).values))
    assert boosted <= 1e-5
    assert 12.0 <= boosted / fine <= 20.0


def test_plane_wave_normalization_and_errors(nat):
    chart = flat_chart()
    w = plane_wave(chart, (1, 0, 0), nat)
    assert abs(grid_norm(w.values[0], chart) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        plane_wave(chart, (0, 1, 0), nat)  # suppressed axis
    curved = static_diagonal_chart(0.0, 0.1, 2, (TWO_PI,) * 3, (8, 1, 1), epsilon=0.01)
    with pytest.raises(ValueError):
        plane_wave(curved, (0, 0, 0), nat)


def test_evolve_matches_analytic_solution(nat):
    chart = flat_chart(t_span=1.0, steps=100)
    bg = build_background(chart)
    exact = plane_wave(chart, (0, 0, 0), nat)
    out = evolve(exact.values[0], bg, nat)
    assert np.max(np.abs(out.values - exact.values)) <= 1e-9
    drift = grid_norm(out.values[-1], chart) / grid_norm(out.values[0], chart) - 1.0
    assert abs(drift) <= 1e-10


def test_evolve_time_error_shrinks_at_fourth_order(nat):
    # error against a quarter-step run on the same spatial grid isolates the
    # time-integrator contribution; expected factor (1 - 1/256)/(1/16 - 1/256)
    chart = flat_chart(t_span=1.0, steps=100)
    initial = plane_wave(chart, (0, 0, 0), nat).values[0]
    finals = {}
    for mult in (1, 2, 4):
        bg = build_background(chart.with_time_axis(0.0, 1.0, 100 * mult))
        finals[mult] = evolve(initial, bg, nat).values[-1]
    e1 = np.max(np.abs(finals[1] - finals[4]))
    e2 = np.max(np.abs(finals[2] - finals[4]))
    assert 12.0 <= e1 / e2 <= 20.0


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("spin", [0, 1])
def test_march_equals_the_closed_form_rk4_solution_of_a_plane_wave(nat, spin, branch):
    # e^{ik.x} u is an eigenvector of the periodic stencil with k -> kappa, so n
    # RK4 steps take it to R(-iw dt)^n P+ + R(iw dt)^n P-; k along two axes puts
    # two gamma^0 gamma^q terms into H, and at 8 nodes per box kappa is far from
    # k, so the continuum spinor u has a part of 3 % on the other discrete branch
    chart = flat_chart(shape=(8, 8, 8), t_span=0.5, steps=50)
    initial = plane_wave(chart, (1, 2, 0), nat, spin=spin, branch=branch).values[0]
    out = evolve(initial, build_background(chart), nat).values
    w, (plus, minus) = dynamics._plane_wave_split(initial, chart, (1, 2, 0), nat)
    assert np.max(np.abs(minus if branch > 0 else plus)) > 1e-3 * np.max(np.abs(initial))
    assert w < np.sqrt(1.0 + 5.0)  # the stencil's kappa_q lies below k_q
    z = 1j * w * chart.dt
    for n, row in enumerate(out):
        want = dynamics._rk4_gain(-z) ** n * plus + dynamics._rk4_gain(z) ** n * minus
        assert np.max(np.abs(row - want)) <= 1e-13


def test_evolve_aborts_on_unstable_step(nat):
    # dt = 0.5 puts the k = 8 carrier far outside the RK4 stability region
    chart = flat_chart(t_span=10.0, steps=20)
    bg = build_background(chart)
    initial = plane_wave(chart, (8, 0, 0), nat).values[0]
    with pytest.raises(EvolutionUnstableError) as info:
        evolve(initial, bg, nat)
    err = info.value
    assert err.step == 2
    assert err.ratio > 10.0
    assert "evolution unstable" in str(err)


def test_evolve_rejects_mismatched_initial(nat):
    chart = flat_chart()
    bg = build_background(chart)
    with pytest.raises(ValueError):
        evolve(np.zeros((8, 1, 1, 4), dtype=complex), bg, nat)


def march_charts():
    return {
        "flat_1d": flat_chart(shape=(64, 1, 1), t_span=0.5, steps=20),
        "flat_8cubed": flat_chart(shape=(8, 8, 8), t_span=0.2, steps=8),
        "curved_sin": static_diagonal_chart(
            0.0, 0.5, 20, (TWO_PI, TWO_PI, TWO_PI), (32, 1, 1), epsilon=0.01
        ),
    }


@pytest.mark.parametrize("name", ["flat_1d", "flat_8cubed", "curved_sin"])
def test_march_steps_a_batch_exactly_like_single_evolves(name, nat):
    chart = march_charts()[name]
    bg = build_background(chart)
    # the curved chart scales by a = sqrt(g00), which varies along x1, under the batch axis
    assert (np.ptp(bg.metric[..., 0, 0]) > 0.0) == (name == "curved_sin")
    rng = np.random.default_rng(11)
    shape = (3,) + chart.spatial_shape + (4,)
    batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    singles = [evolve(member, bg, nat).values for member in batch]
    states = list(_march(batch, bg, nat, 10.0))
    assert len(states) == len(chart.axes[0])
    for n, state in enumerate(states):
        assert state.shape == batch.shape
        for b, history in enumerate(singles):
            assert np.array_equal(state[b], history[n])
    with pytest.raises(ValueError, match="spatial grid"):
        evolve(batch, bg, nat)


def reference_march(initial, bg, k):
    """The states of RK4 on the (..., 4) samples, the oracle of _march's planar
    kernel.  The right-hand side is the skew split form with a dense a = sqrt(g00)
    on the spatial grid,

        gamma^0 (-i mu a psi - gamma^1 (a D~psi + D~(a psi)) / (24 h) - sum_{q=2,3} gamma^q D~psi (a / (12 h))),

    applied with _apply, where D~ is the unscaled central stencil from np.roll,
    ((x[i-2] - 8 x[i-1]) + 8 x[i+1]) - x[i+2], and the mass coefficient -i mu a is
    formed first.  On the flat chart a is 1 and is not applied: the x1 term is
    D~psi / (12 h) alone."""
    chart = bg.chart
    dt, mu = chart.dt, k.compton_wavenumber
    flat = chart.family == "minkowski"
    a = np.broadcast_to(np.sqrt(chart.metric_values()[..., 0, 0]), chart.spatial_shape)[..., None]

    def stencil(v, q):  # the batch axis sits where time does, so axis q is x_q
        r = lambda shift: np.roll(v, shift, axis=q)
        return r(2) - 8 * r(1) + 8 * r(-1) - r(-2)

    def rhs(v):
        acc = (-1j * mu) * v if flat else (-1j * mu * a) * v
        for q in (1, 2, 3):
            if chart.shape[q] == 1:
                continue
            h = chart.spacing[q]
            if flat:
                term = stencil(v, q) / (12.0 * h)
            elif q == 1:
                term = (a * stencil(v, q) + stencil(a * v, q)) / (24.0 * h)
            else:
                term = stencil(v, q) * (a / (12.0 * h))
            acc = acc - _apply(_GAMMA_ROWS[q], term)
        return _apply(_GAMMA_ROWS[0], acc)

    v = initial.reshape((-1,) + initial.shape[-4:])
    states = [v]
    for _ in range(len(chart.axes[0]) - 1):
        k1 = rhs(v)
        k2 = rhs(v + (0.5 * dt) * k1)
        k3 = rhs(v + (0.5 * dt) * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(v)
    return [state.reshape(initial.shape) for state in states]


ORACLE_CHARTS = {  # name -> (chart, batch size or None for one field)
    "flat_1d_batch": (flat_chart(shape=(64, 1, 1), t_span=0.5, steps=20), 3),
    "flat_8cubed": (flat_chart(shape=(8, 8, 8), t_span=0.5, steps=20), None),
    "curved_sin_1d": (static_diagonal_chart(0.0, 0.5, 20, (TWO_PI,) * 3, (32, 1, 1), epsilon=0.01), 2),
    "curved_sin_8cubed": (static_diagonal_chart(0.0, 0.5, 20, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.01), None),
}


def oracle_initial(name):
    chart, batch = ORACLE_CHARTS[name]
    shape = ((batch,) if batch else ()) + chart.spatial_shape + (4,)
    rng = np.random.default_rng(21)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("name", list(ORACLE_CHARTS))
def test_march_equals_the_reference_rk4_bit_for_bit(name, nat):
    chart, _ = ORACLE_CHARTS[name]
    bg = build_background(chart)
    # the curved charts scale by a = sqrt(g00), which varies along x1, and take the x1 split form
    assert (np.ptp(bg.metric[..., 0, 0]) > 0.0) == name.startswith("curved")
    initial = oracle_initial(name)
    states = list(_march(initial, bg, nat, 10.0))
    want = reference_march(initial, bg, nat)
    assert len(states) == len(want) == 21
    for got, ref in zip(states, want):
        assert got.shape == initial.shape and np.array_equal(got, ref)
    # every yielded state is a fresh array: no two share memory, nor with the input
    for i, state in enumerate(states):
        assert not np.shares_memory(state, initial)
        assert not any(np.shares_memory(state, other) for other in states[i + 1 :])


def charge_conjugate(values):
    """C psi* with C = i gamma^2, on (..., 4) samples."""
    return 1j * _apply(_GAMMA_ROWS[2], np.conj(values))


@pytest.mark.parametrize("name", list(ORACLE_CHARTS))
def test_march_commutes_with_charge_conjugation(name, nat):
    # C is a signed permutation with C M* = M C for M = gamma^0 gamma^q and
    # -i gamma^0, and a and the stencil scales are real: marching C psi*
    # repeats the arithmetic of marching psi, permuted and conjugated
    chart, _ = ORACLE_CHARTS[name]
    bg = build_background(chart)
    initial = oracle_initial(name)
    states = _march(initial, bg, nat, 10.0)
    conjugated = _march(charge_conjugate(initial), bg, nat, 10.0)
    count = 0
    for got, state in zip(conjugated, states):
        assert np.array_equal(got, charge_conjugate(state))
        count += 1
    assert count == 21


def dense_operator(bg, k, block=128):
    """L of the march's right-hand side on one 1D field: column j is rhs of the
    unit vector at x1 node j // 4, component j % 4, taken ``block`` columns at a time."""
    n = bg.chart.spatial_shape[0]
    size = 4 * n
    rhs, (v, out) = _operator(bg, k, (4, block, n, 1, 1), 2)
    cols = []
    for s in range(0, size, block):
        v[...] = np.moveaxis(np.eye(size)[s : s + block].reshape(block, n, 1, 1, 4), -1, 0)
        cols.append(np.moveaxis(rhs(v, out), 0, -1).reshape(block, size))
    return np.concatenate(cols).T


def test_curved_operator_is_skew_and_its_lowest_frequency_refines_at_fourth_order(nat):
    # The split form's x1 entries are (a_i + a_j) w_ij over 24 h, formed in that
    # order, so L = -L^H bit for bit; the operator it replaced had
    # ||(L + L^H) / 2||_2 = 0.183 ... 0.200 on these charts.  Its eigenvalues
    # are i omega: the lowest |omega| read 0.96059756, 0.96059996 and
    # 0.96060011 at n = 32, 64 and 128, a refinement ratio of 15.90.
    lowest = []
    for n in (32, 64, 128, 256):
        chart = static_diagonal_chart(0.0, 1.0, 1, (TWO_PI,) * 3, (n, 1, 1), epsilon=0.3)
        op = dense_operator(build_background(chart), nat)
        assert np.any(op != dense_operator(build_background(flat_chart(shape=(n, 1, 1))), nat))
        assert np.array_equal(op, -op.conj().T), n
        if n <= 128:
            lowest.append(np.min(np.abs(np.linalg.eigvalsh(1j * op))))
    assert 12.0 <= (lowest[0] - lowest[1]) / (lowest[1] - lowest[2]) <= 20.0


def test_batched_march_aborts_at_the_first_failing_step(nat):
    # the chart of test_evolve_aborts_on_unstable_step: alone, the k = 6
    # carrier aborts at step 5 and the k = 8 and k = 7 carriers at step 2,
    # with ratios 55.7 and 15.1; the zero member's norm counts as 1
    chart = flat_chart(t_span=10.0, steps=20)
    bg = build_background(chart)
    carriers = [plane_wave(chart, (kx, 0, 0), nat).values[0] for kx in (6, 8, 7)]
    batch = np.stack([np.zeros_like(carriers[0])] + carriers)
    alone = []
    for member in carriers:
        with pytest.raises(EvolutionUnstableError) as info:
            evolve(member, bg, nat)
        alone.append((info.value.step, info.value.ratio))
    assert [step for step, _ in alone] == [5, 2, 2]
    assert alone[1][1] > 50.0 and 10.0 < alone[2][1] < 20.0
    with pytest.raises(EvolutionUnstableError) as info:
        for _ in _march(batch, bg, nat, 10.0):
            pass
    err = info.value
    # the first failing step, reported by its lowest-index failing member
    assert (err.step, err.ratio, err.time) == (2, alone[1][1], 1.0)


def tiny_field(u, nat):
    chart = minkowski_chart(0.0, 1.0, 1, (1.0, 1.0, 1.0), (1, 1, 1))
    values = np.zeros((2, 1, 1, 1, 4), dtype=complex)
    values[...] = np.asarray(u, dtype=complex)
    return SpinorField(chart=chart, values=values)


def test_current_frozen_examples(nat):
    j = current(tiny_field((1.0, 0.0, 0.0, 0.0), nat), nat).values[0, 0, 0, 0]
    assert np.array_equal(j, nat.c * np.array([1.0, 0.0, 0.0, 1.0]))
    assert current_norm(j) == 0.0  # lightlike
    j = current(tiny_field((1.0, 0.0, 1.0, 0.0), nat), nat).values[0, 0, 0, 0]
    assert np.array_equal(j, nat.c * np.array([2.0, 0.0, 0.0, 0.0]))


def test_current_closed_form_and_causal_character(nat):
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    rep = timelike_report(samples, nat)
    assert rep.samples == 1000
    assert rep.min_norm >= -1e-12
    assert rep.min_time_component >= 0.0
    assert rep.closed_form_mismatch <= 1e-12
    assert rep.reality_residual <= 1e-13

    j = current(tiny_field((0.3 + 0.1j, -0.2, 0.7j, 1.1), nat), nat).values
    direct = current_norm(j)
    closed = closed_form_current_norm(
        np.broadcast_to(np.array([0.3 + 0.1j, -0.2, 0.7j, 1.1]), j.shape), nat
    )
    assert np.max(np.abs(direct - closed)) <= 1e-12 * max(1.0, float(np.max(np.abs(direct))))


def test_closed_form_current_norm_takes_one_sample(nat):
    # one (4,) sample is the (1, 4) case's only row
    p = np.array([0.3 + 0.1j, -0.2, 0.7j, 1.1])
    one = closed_form_current_norm(p, nat)
    rows = closed_form_current_norm(p[None], nat)
    assert np.shape(one) == () and one == rows[0]
    direct = current_norm(_raw_pair_current(p[None], p[None], nat).real)
    assert abs(one - direct[0]) <= 1e-12 * max(1.0, abs(direct[0]))


def _whole_array_timelike_report(psi_values, k):
    """timelike_report as one pass over the whole input, the reference for the
    blocked one."""
    p = np.asarray(psi_values, dtype=np.complex128)
    j = _raw_pair_current(p, p, k)
    jr = j.real
    norm_direct = current_norm(jr)
    norm_closed = closed_form_current_norm(p, k)
    denom = np.maximum.reduce([np.abs(norm_direct), np.abs(norm_closed), jr[..., 0] ** 2])
    denom = np.maximum(denom, 1e-300)
    return (
        float(np.min(norm_direct)),
        float(np.min(jr[..., 0])),
        float(np.max(np.abs(norm_direct - norm_closed) / denom)),
        float(np.max(np.abs(j.imag))) / max(1.0, float(np.max(np.abs(j)))),
        int(np.prod(norm_direct.shape)) if norm_direct.shape else 1,
    )


def _bits(fields):
    return [np.float64(x).tobytes() for x in fields[:4]] + [fields[4]]


@pytest.mark.parametrize("shape", [(1, 4), (4095, 4), (4096, 4), (4097, 4), (10000, 4), (3, 3000, 4), (4,)])
def test_blocked_timelike_report_equals_the_whole_array_one(nat, shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the whole-array body raises TypeError on one (4,) sample, where the quartic
    # writes into a 0-d result, so that sample's reference is the (1, 4) array
    want = _whole_array_timelike_report(p.reshape(-1, 4) if p.ndim == 1 else p, nat)
    assert _bits(astuple(timelike_report(p, nat))) == _bits(want)


def test_blocked_timelike_report_spreads_a_late_nan(nat):
    # a NaN in the third block of 4096 samples: np.minimum / np.maximum keep it
    # as np.min / np.max of the whole array do, where Python's min / max would
    # drop it after a finite first block
    rng = np.random.default_rng(12)
    p = rng.standard_normal((10000, 4)) + 1j * rng.standard_normal((10000, 4))
    p[9000, 2] = complex(np.nan, 0.5)
    got, want = astuple(timelike_report(p, nat)), _whole_array_timelike_report(p, nat)
    assert all(np.isnan(want[:4]))
    assert [np.isnan(x) for x in got[:4]] == [True] * 4 and got[4] == want[4] == 10000
    with pytest.raises(ValueError):
        timelike_report(np.empty((0, 4), dtype=np.complex128), nat)


def test_timelike_report_holds_one_block_of_temporaries(nat):
    # 100 000 samples (6.4 MB): one block of 4096 samples, its current, both
    # norms and the kernel's scratch, measured 1.58 MB above the input; the
    # bound leaves 0.5 MB.  The whole-array report measured 13.6 MB.
    rng = np.random.default_rng(13)
    p = rng.standard_normal((100000, 4)) + 1j * rng.standard_normal((100000, 4))
    tracemalloc.start()
    try:
        timelike_report(p, nat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**21


def test_pair_current_is_hermitian_in_its_arguments(nat):
    # the pair current J(phi, psi) enters only through its slice integral,
    # the pairing inner(phi, psi) on slice samples
    chart = flat_chart(shape=(8, 1, 1), steps=5)
    s = coordinate_slice(build_background(chart), float(chart.axes[0][2]))
    rng = np.random.default_rng(4)
    shape = chart.shape + (4,)
    phi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a, b = sample_on_slice(phi, s), sample_on_slice(psi, s)
    ab = inner(a, b, s, nat)
    assert abs(ab - np.conj(inner(b, a, s, nat))) <= 1e-13 * abs(ab)
    # the diagonal pairing is the flux of the real current
    bb = inner(b, b, s, nat)
    f = flux(current(psi, nat), s)
    assert abs(bb.imag) <= 1e-13 * abs(bb)
    assert abs(bb.real - f) <= 1e-13 * abs(f)


def _einsum_pair_current(phi, psi, k):
    """The dense contraction the row kernel replaced."""
    dense = np.stack([r.dense() for r in _PAIRING_ROWS])
    return k.c * np.einsum("...A,qAb,...b->...q", np.conj(phi), dense, psi)


# Blocks hold 4096 samples: the shapes straddle one block, and the histories
# (nt, n1, 1, 1, 4) reach four.
PAIR_CURRENT_SHAPES = st.one_of(
    st.sampled_from([(4,), (1, 4), (4095, 4), (4096, 4), (4097, 4)]),
    st.tuples(st.integers(1, 31), st.integers(1, 400)).map(lambda s: s + (1, 1, 4)),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    PAIR_CURRENT_SHAPES,
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([PhysicalConstants.natural_units(), PhysicalConstants.cgs(mass=9.1093826e-28)]),
)
def test_row_pair_current_equals_the_dense_einsum_bit_for_bit(shape, seed, same, k):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    psi = phi if same else rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j = _raw_pair_current(phi, psi, k)
    # -0.0 + 0.0 == +0.0: compare values the way np.array_equal does, with signed zeros folded
    assert j.shape == shape
    assert np.array_equal(j + 0.0, _einsum_pair_current(phi, psi, k) + 0.0)
    if same:
        assert not np.any(j.imag)  # the row order cancels Im J(psi, psi) exactly


def test_pair_plan_rejects_a_phase_with_two_nonzero_parts(monkeypatch):
    # D^T gamma^2's first phase turned by e^{i 1e-10}: the plan read only its
    # -1e-10 real part, a reality residual of 0.25 where 1e-10 was due
    rows = list(_PAIRING_ROWS)
    phase = rows[2].phase.copy()
    phase[0] *= np.exp(1e-10j)
    rows[2] = _Rows(rows[2].perm, phase)
    monkeypatch.setattr(dynamics, "_PAIRING_ROWS", tuple(rows))
    for same in (False, True):
        with pytest.raises(ValueError, match="pairing row 2 entry 0"):
            dynamics._pair_plan(same)


def test_the_reality_guard_reads_a_computed_imaginary_part(nat, non_hermitian_pairing):
    chart = flat_chart(shape=(8, 1, 1), steps=2)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
    with pytest.raises(CurrentRealityError):
        current(SpinorField(chart, values), nat)
    assert timelike_report(values, nat).reality_residual > 0.0
    # over three blocks of samples, the residual is the whole-array one, relative to max |J|
    p = rng.standard_normal((10000, 4)) + 1j * rng.standard_normal((10000, 4))
    assert timelike_report(p, nat).reality_residual == _whole_array_timelike_report(p, nat)[3] > 1e-13


def test_current_holds_the_real_current_and_one_block(nat):
    # A (301, 256, 1, 1, 4) history: the real current is half a history, and
    # one block of 16 time rows, its complex J, |J| and the kernel's scratch,
    # about 0.25.  Measured peak 0.75 histories; the bound leaves 0.1.
    # Taking the complex current of the whole history, with its |J| or real
    # copy, measured 1.50, and the dense einsum with its np.conj copy of the
    # history 2.00.
    chart = flat_chart(shape=(256, 1, 1), t_span=1.0, steps=300)
    rng = np.random.default_rng(6)
    shape = chart.shape + (4,)
    psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    history = psi.values.nbytes
    tracemalloc.start()
    try:
        j = current(psi, nat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(j.values, _raw_pair_current(psi.values, psi.values, nat).real)
    assert peak < 0.85 * history


def test_divergence_of_single_wave_vanishes(nat):
    # a single mode's current is constant in space and time
    chart = flat_chart(t_span=0.5, steps=10)
    bg = build_background(chart)
    j = current(plane_wave(chart, (1, 0, 0), nat), nat)
    assert np.max(np.abs(divergence(j, bg))) <= 1e-12


def test_divergence_of_superposition_is_stencil_small(nat):
    chart = flat_chart(t_span=0.5, steps=50)
    bg = build_background(chart)
    psi = plane_wave(chart, (1, 0, 0), nat) + plane_wave(chart, (2, 0, 0), nat, spin=1, branch=-1)
    j = current(psi, nat)
    assert np.max(np.abs(divergence(j, bg))) <= 1e-6


def _gauss_gap(div, j, bg):
    """max over time rows of |sum_x sqrt(-g) div J dV - D_0 Q| and max |Q|, where Q is
    each row's flux through the coordinate slice and D_0 the one-sided time stencil."""
    chart = bg.chart
    s = coordinate_slice(bg, 0.0)
    q = np.array([_slice_integral(row, s) for row in j.values])
    dq = differentiate(q, axis=0, spacing=chart.dt, periodic=False)
    total = np.sum(bg.sqrt_neg_det * div, axis=(1, 2, 3)) * chart.cell_volume
    return float(np.max(np.abs(total - dq))), float(np.max(np.abs(q)))


def _packet_current(n, nat):
    chart = static_diagonal_chart(0.0, 0.5, n, (TWO_PI,) * 3, (n, 1, 1), epsilon=0.3)
    bg = build_background(chart)
    init = gaussian_packet(chart, nat, center=np.pi, width=TWO_PI / 16.0, carrier_index=2)
    return current(evolve(init, bg, nat), nat), bg


def _random_current(nat):
    chart = static_diagonal_chart(0.0, 0.5, 8, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
    return current(SpinorField(chart, v), nat), build_background(chart)


@pytest.mark.parametrize("case", ["packet-32", "packet-64", "random-8x8x8"])
def test_divergence_satisfies_the_discrete_gauss_law(nat, case):
    # sqrt(-g) div J sums over the periodic box to the time stencil of the
    # coordinate-slice flux: the Gauss form D_1(sqrt(-g) J^1) / sqrt(-g) sums to
    # zero.  The form without sqrt(-g) on the x1 term misses the law by far more.
    j, bg = _packet_current(int(case[-2:]), nat) if case.startswith("packet") else _random_current(nat)
    gap, q_max = _gauss_gap(divergence(j, bg), j, bg)
    assert gap <= 1e-12 * max(1.0, q_max)
    dropped = sum(_transport(j.values[..., q, None], bg, q, j.chart)[..., 0] for q in bg.frame_terms)
    gap, _ = _gauss_gap(dropped, j, bg)
    assert gap > 1e-12 * max(1.0, q_max)


def test_curved_packet_conserves_charge_at_fourth_order(nat):
    # evolve and divergence in Gauss form on a static sin-profile chart:
    # halving both steps shrinks max |div J| by about 2^4 (15.45 measured).
    # The skew march loses charge only to RK4's own dissipation, so its
    # drift is the flat chart's for the same packet:
    # curved over flat read 1 + 3.9e-5 at n = 64 and 1 + 4.1e-5 at n = 128,
    # drifts 4.9e-9 and 1.6e-10; the bound allows 1e-3.  The operator the
    # split form replaced drifted 7.4e-6 at n = 64.
    worst = []
    for n, steps in ((64, 100), (128, 200)):
        drift = []
        for chart in (
            static_diagonal_chart(0.0, 1.0, steps, (TWO_PI,) * 3, (n, 1, 1), epsilon=0.01),
            flat_chart(shape=(n, 1, 1), t_span=1.0, steps=steps),
        ):
            bg = build_background(chart)
            init = gaussian_packet(chart, nat, center=np.pi, width=TWO_PI / 16.0, carrier_index=2)
            j = current(evolve(init, bg, nat), nat)
            f0 = flux(j, coordinate_slice(bg, 0.0))
            assert abs(f0 - 1.0) <= 1e-12
            drift.append(abs(flux(j, coordinate_slice(bg, 1.0)) - f0))
            if not bg.is_flat:
                worst.append(np.max(np.abs(divergence(j, bg))))
        assert abs(drift[0] / drift[1] - 1.0) <= 1e-3, n
    assert 12.0 <= worst[0] / worst[1] <= 20.0


def test_action_is_real_on_arbitrary_fields(nat):
    chart = flat_chart(shape=(16, 1, 1), t_span=1.0, steps=20)
    bg = build_background(chart)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
        s = action_value(SpinorField(chart, v), bg, nat)
        assert abs(s.imag) <= 1e-12 * max(1.0, abs(s.real))


def _reference_nabla(psi, bg, q):
    """nabla_q psi over the whole history, Y_q^q d_q psi + A_q psi, as covariant_derivative
    took it before the blocked kernel; zeros on a suppressed axis."""
    if q not in bg.frame_terms:
        return np.zeros_like(psi.values)
    u, a = bg.frame_terms[q]
    d = differentiate(psi.values, axis=q, spacing=psi.chart.spacing[q], periodic=q > 0)
    d = d if isinstance(u, float) else u[..., None] * d
    return d if a is None else d + np.einsum("xyzab,txyzb->txyza", a, psi.values)


def _reference_dirac_residual(psi, bg, k):
    """dirac_residual's whole-history body before it was blocked."""
    acc = np.zeros_like(psi.values)
    for q in bg.frame_terms:
        acc += _apply(_GAMMA_ROWS[q], _reference_nabla(psi, bg, q))
    return 1j * k.hbar * acc - (k.mass * k.c) * psi.values


def _dense_action(psi, bg, k):
    """action_value written with dense 4x4 forms and 3-operand einsums."""
    gs = canonical_gamma_set()
    cpsi = np.conj(psi.values)
    dens = np.zeros(psi.values.shape[:-1], dtype=np.complex128)
    for q in bg.frame_terms:
        m = gs.dirac_form.T @ gs.gamma[q]
        z = np.einsum("...A,Ab,...b->...", cpsi, m, _reference_nabla(psi, bg, q))
        dens += 0.5j * k.hbar * (z - np.conj(z))
    dens -= k.mass * k.c * np.einsum("...A,Ab,...b->...", cpsi, gs.dirac_form.T, psi.values)
    weights = np.ones(len(psi.chart.axes[0]))
    weights[[0, -1]] = 0.5
    vol = weights[:, None, None, None] * bg.sqrt_neg_det[None]
    return complex(np.sum(dens * vol) * psi.chart.dt * psi.chart.cell_volume)


ACTION_CHARTS = {
    "flat-1d": lambda: flat_chart(shape=(32, 1, 1), t_span=1.0, steps=12),
    "flat-8^3": lambda: flat_chart(shape=(8, 8, 8), t_span=0.5, steps=6),
    "curved-sin-8^3": lambda: static_diagonal_chart(0.0, 0.5, 6, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3),
}


# The row contraction differs from the dense einsum by summation order only:
# measured at most 4.2e-16 relative on these charts.
@pytest.mark.parametrize("name", sorted(ACTION_CHARTS))
def test_action_value_matches_dense_einsum_reference(nat, name):
    chart = ACTION_CHARTS[name]()
    bg = build_background(chart)
    massless = PhysicalConstants.natural_units(mass=0.0)
    rng = np.random.default_rng(17)
    shape = chart.shape + (4,)
    for _ in range(3):
        psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = _dense_action(psi, bg, nat)
        assert abs(action_value(psi, bg, nat) - ref) <= 1e-13 * abs(ref)
        # with no mass form left, the antisymmetrized derivative part is real exactly
        assert action_value(psi, bg, massless).imag == 0.0


def _reference_action(psi, bg, k, rows=None):
    """action_value's full-history body before it was blocked, with each complex
    product written (phase w_b) cpsi_a: the operand order numpy's temporary
    elision gave it on histories of 256 KiB or more.  With ``rows`` the forms
    are taken on that many time rows of the full-history arrays at a time."""
    v = psi.values
    cpsi = np.conj(v)
    nabla = {q: _reference_nabla(psi, bg, q) for q in bg.frame_terms}
    dens = np.zeros(v.shape[:-1], dtype=np.complex128)
    step = rows or len(v)
    for s in range(0, len(v), step):
        c, d = cpsi[s : s + step], dens[s : s + step]

        def form(m, w):
            out = np.multiply(m.phase[0] * w[..., m.perm[0]], c[..., 0])
            for a in range(1, 4):
                out += np.multiply(m.phase[a] * w[..., m.perm[a]], c[..., a])
            return out

        for q in bg.frame_terms:
            zq = form(_PAIRING_ROWS[q], nabla[q][s : s + step])
            d += 0.5j * k.hbar * (zq - np.conj(zq))
        d -= (k.mass * k.c) * form(_DIRAC_FORM_ROWS.T, v[s : s + step])
    return dynamics._integrate(dens, psi.chart, bg)


BLOCKED_CHARTS = {
    "flat-1d": lambda steps: flat_chart(shape=(256, 1, 1), t_span=1.0, steps=steps),
    "flat-8^3": lambda steps: flat_chart(shape=(8, 8, 8), t_span=0.5, steps=steps),
    "curved-sin-1d": lambda steps: static_diagonal_chart(0.0, 1.0, steps, (TWO_PI,) * 3, (64, 1, 1), epsilon=0.3),
    "curved-sin-8^3": lambda steps: static_diagonal_chart(
        0.0, 0.5, steps, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CHARTS))
def test_blocked_action_equals_the_full_history_body_bit_for_bit(nat, name):
    # time-node counts around the block size B: one block of 5 rows, B - 1,
    # B, B + 1 (a last block of 1 row), 2B + 3 and 4B + 3 (inner blocks with
    # a halo on both sides, then a last block of 3 rows that clamps its halo).
    # On the 1D chart B = 16, so the reference's form temporaries span
    # 20 KiB to 268 KiB, both sides of numpy's 256 KiB elision threshold;
    # its 3-row evaluation stays below it.  dirac_residual and every
    # covariant_derivative, from the same kernel, equal the whole-history
    # expressions of the reference nabla.
    b = dynamics._block_rows(BLOCKED_CHARTS[name](10).spatial_shape, halo=True)
    massless = PhysicalConstants.natural_units(mass=0.0)
    rng = np.random.default_rng(23)
    for nt in (5, b - 1, b, b + 1, 2 * b + 3, 4 * b + 3):
        chart = BLOCKED_CHARTS[name](nt - 1)
        bg = build_background(chart)
        shape = chart.shape + (4,)
        psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        s = action_value(psi, bg, nat)
        assert s == _reference_action(psi, bg, nat) == _reference_action(psi, bg, nat, rows=3)
        s = action_value(psi, bg, massless)
        assert s == _reference_action(psi, bg, massless)
        assert s.imag == 0.0
        assert np.array_equal(dirac_residual(psi, bg, nat).values, _reference_dirac_residual(psi, bg, nat))
        for q in range(4):
            assert np.array_equal(covariant_derivative(psi, bg, q).values, _reference_nabla(psi, bg, q)), (nt, q)


def test_dirac_residual_takes_blocks_near_zero_of_an_offset_time_axis(nat):
    # The nodes near t = 0 of an axis from t = -64 carry rounding of 64's
    # size, more than the chart's uniformity check allows a window of them
    # alone; the residual's blocks must not build charts on those nodes.
    chart = minkowski_chart(-64.0, 72.0, 14400, (TWO_PI,) * 3, (8, 1, 1))
    bg = build_background(chart)
    rng = np.random.default_rng(29)
    psi = SpinorField(chart, rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,)))
    assert np.array_equal(dirac_residual(psi, bg, nat).values, _reference_dirac_residual(psi, bg, nat))


def test_action_rejects_short_time_axes_and_other_grids(nat):
    chart = flat_chart(shape=(16, 1, 1), steps=3)
    psi = SpinorField(chart, np.ones(chart.shape + (4,), dtype=complex))
    with pytest.raises(ValueError, match="axis 0 has 4 nodes"):
        action_value(psi, build_background(chart), nat)
    longer_box = flat_chart(shape=(16, 1, 1), lengths=(2 * TWO_PI, TWO_PI, TWO_PI))  # the same node counts
    for other in (flat_chart(shape=(8, 1, 1), steps=3), longer_box):
        with pytest.raises(GridMismatchError):
            action_value(psi, build_background(other), nat)
    # a field on another time axis of the same spatial grid is accepted
    later = chart.with_time_axis(0.5, 1.0, 8)
    psi = SpinorField(later, np.ones(later.shape + (4,), dtype=complex))
    assert action_value(psi, build_background(chart), nat) == action_value(psi, build_background(later), nat)


def test_divergence_rejects_other_grids(nat):
    chart = flat_chart(shape=(16, 1, 1))
    j = current(plane_wave(chart, (1, 0, 0), nat), nat)
    longer_box = flat_chart(shape=(16, 1, 1), lengths=(2 * TWO_PI, TWO_PI, TWO_PI))  # the same node counts
    for other in (flat_chart(shape=(8, 1, 1)), longer_box):
        with pytest.raises(GridMismatchError):
            divergence(j, build_background(other))
    # a current on another time axis of the same spatial grid is accepted
    later = chart.with_time_axis(0.5, 1.0, 8)
    j = current(plane_wave(later, (1, 0, 0), nat), nat)
    assert np.array_equal(divergence(j, build_background(chart)), divergence(j, build_background(later)))


# numpy elides temporaries of 256 KiB or more: 16384 complex samples
@pytest.mark.parametrize("samples", [1000, 16383, 16384, 100000])
def test_quartic_is_the_same_at_every_size(nat, samples):
    rng = np.random.default_rng(samples)
    p = rng.standard_normal((samples, 4)) + 1j * rng.standard_normal((samples, 4))
    blocks = [closed_form_current_norm(p[s : s + 1000], nat) for s in range(0, samples, 1000)]
    assert np.array_equal(closed_form_current_norm(p, nat), np.concatenate(blocks))


def test_action_holds_about_one_history_of_temporaries(nat):
    # A (301, 256, 1, 1, 4) history: the complex density is a quarter of a
    # history, scaled in place by _integrate; for a 16-row block the kernel
    # holds its 20-row halo, both derivatives, the stencil scratch and the
    # wrap halo, and the caller the conjugate and two form rows.  Measured
    # peak 0.685 histories; the bound leaves 0.115.  Blocked through per-call
    # differentiate temporaries it measured 0.98, and the full-history body,
    # with its conjugate, two covariant derivatives and form products, 4.54.
    chart = flat_chart(shape=(256, 1, 1), t_span=1.0, steps=300)
    bg = build_background(chart)
    rng = np.random.default_rng(6)
    shape = chart.shape + (4,)
    psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    history = psi.values.nbytes
    tracemalloc.start()
    try:
        action_value(psi, bg, nat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * history


def test_dirac_residual_holds_its_output_and_one_block(nat):
    # The same history: the output is one history; per block, a covariant
    # derivative on the block's 20-row halo with the kernel's buffers, its
    # gamma^q image and the sum's temporaries.  Measured peak 1.40 histories;
    # the bound leaves 0.1.  The whole-history body, with a covariant
    # derivative and its gamma^q image per direction, measured 5.04.
    chart = flat_chart(shape=(256, 1, 1), t_span=1.0, steps=300)
    bg = build_background(chart)
    rng = np.random.default_rng(6)
    shape = chart.shape + (4,)
    psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    history = psi.values.nbytes
    tracemalloc.start()
    try:
        dirac_residual(psi, bg, nat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * history


# |central difference - Euler-Lagrange pairing| measured at most 3.6e-14 over
# the ten on-shell draws and 3.5e-14 off shell (where the difference is 3.4e-2):
# the difference's own cancellation error.  The bound leaves a factor 28.
GAP_BOUND = 1e-12


def euler_lagrange_variation(field, pert, bg, gs, k):
    """2 Re sum w p^dag D^T R(field) with the action's trapezoid cell weights."""
    chart = field.chart
    w = np.full(len(chart.axes[0]), chart.dt * chart.cell_volume)
    w[[0, -1]] *= 0.5
    form_residual = dirac_residual(field, bg, k).values @ gs.dirac_form
    dens = np.sum(np.conj(pert.values) * form_residual, axis=-1) * bg.sqrt_neg_det[None]
    return 2.0 * float(np.real(np.sum(w[:, None, None, None] * dens)))


def test_action_stationary_on_shell(gs, nat):
    # perturbations vanish on five slices at each end of the time axis so the
    # one-sided stencil rows never see them; central difference in eps is
    # exact for the quadratic action, and summation by parts makes it the
    # Euler-Lagrange pairing with the field-equation residual
    chart = flat_chart(shape=(32, 1, 1), t_span=1.0, steps=100)
    bg = build_background(chart)
    wave = plane_wave(chart, (0, 0, 0), nat)
    rng = np.random.default_rng(6)
    eps = 1e-3
    worst = 0.0
    worst_gap = 0.0
    for _ in range(10):
        v = rng.standard_normal(wave.values.shape) + 1j * rng.standard_normal(wave.values.shape)
        v[:5] = 0.0
        v[-5:] = 0.0
        pert = wave.with_values(v)
        sp = action_value(wave + eps * pert, bg, nat)
        sm = action_value(wave + (-eps) * pert, bg, nat)
        fd = (sp - sm).real / (2.0 * eps)
        worst = max(worst, abs(fd))
        worst_gap = max(worst_gap, abs(fd - euler_lagrange_variation(wave, pert, bg, gs, nat)))
    assert worst <= 1e-8
    assert worst_gap <= GAP_BOUND

    # the same probe must move the action for an off-shell field, by the
    # same pairing
    growth = np.exp(0.3 * np.linspace(0.0, 1.0, len(wave.chart.axes[0])))
    bad = wave.with_values(wave.values * growth[:, None, None, None, None])
    v = rng.standard_normal(wave.values.shape) + 1j * rng.standard_normal(wave.values.shape)
    v[:5] = 0.0
    v[-5:] = 0.0
    pert = wave.with_values(v)
    sp = action_value(bad + eps * pert, bg, nat)
    sm = action_value(bad + (-eps) * pert, bg, nat)
    fd = (sp - sm).real / (2.0 * eps)
    assert abs(fd) > 1e-3
    assert abs(fd - euler_lagrange_variation(bad, pert, bg, gs, nat)) <= GAP_BOUND


def test_gaussian_packet_is_normalized_initial_data(nat):
    chart = minkowski_chart(0.0, 1.0, 10, (32.0, TWO_PI, TWO_PI), (256, 1, 1))
    packet = gaussian_packet(chart, nat, center=16.0, width=2.0, carrier_index=2)
    assert packet.shape == chart.spatial_shape + (4,)
    assert abs(grid_norm(packet, chart) - 1.0) <= 1e-12
    # envelope decays to rounding at the periodic wrap
    assert np.max(np.abs(packet[0])) <= 1e-12
    # an envelope that underflows on every node has no norm to divide by
    with pytest.raises(ValueError):
        gaussian_packet(minkowski_chart(0.0, 1.0, 10, (32.0, TWO_PI, TWO_PI), (64, 1, 1)),
                        nat, center=16.25, width=0.001)
