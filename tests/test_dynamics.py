"""Dispersion modes, evolution, the conserved current, and the action."""

import tracemalloc

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
from diracfock.dynamics import _march, _raw_pair_current
from diracfock.spin_algebra import _DIRAC_FORM_ROWS, _PAIRING_ROWS, _Rows

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
            0.0, 0.5, 20, (TWO_PI, TWO_PI, TWO_PI), (32, 1, 1), epsilon=0.01, profile="sin"
        ),
    }


@pytest.mark.parametrize("name", ["flat_1d", "flat_8cubed", "curved_sin"])
def test_march_steps_a_batch_exactly_like_single_evolves(name, nat):
    chart = march_charts()[name]
    bg = build_background(chart)
    u0, a0 = bg.frame_terms[0]
    # the curved chart divides by u_0 and applies A_0 under the batch axis
    assert isinstance(u0, np.ndarray) == (a0 is not None) == (name == "curved_sin")
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
    assert rep.reality_residual <= 1e-13 * max(1.0, float(np.max(np.abs(samples))) ** 2)

    j = current(tiny_field((0.3 + 0.1j, -0.2, 0.7j, 1.1), nat), nat).values
    direct = current_norm(j)
    closed = closed_form_current_norm(
        np.broadcast_to(np.array([0.3 + 0.1j, -0.2, 0.7j, 1.1]), j.shape), nat
    )
    assert np.max(np.abs(direct - closed)) <= 1e-12 * max(1.0, float(np.max(np.abs(direct))))


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


def test_the_reality_guard_reads_a_computed_imaginary_part(nat, monkeypatch):
    # conjugating one phase of D^T gamma^2 leaves it non-Hermitian, so Im J != 0
    rows = list(_PAIRING_ROWS)
    phase = rows[2].phase.copy()
    phase[0] = np.conj(phase[0])
    rows[2] = _Rows(rows[2].perm, phase)
    monkeypatch.setattr(dynamics, "_PAIRING_ROWS", tuple(rows))
    chart = flat_chart(shape=(8, 1, 1), steps=2)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
    with pytest.raises(CurrentRealityError):
        current(SpinorField(chart, values), nat)
    assert timelike_report(values, nat).reality_residual > 0.0


def test_current_holds_one_and_a_half_histories_of_temporaries(nat):
    # A (301, 256, 1, 1, 4) history: the complex current is one history and
    # its |J| or real copy half of one; the block scratch (about 1 MB) is
    # freed before them.  Measured peak 1.50 histories; the bound leaves 0.1.
    # The dense einsum with its np.conj copy of the history measured 2.00.
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
    assert j.values.shape == shape
    assert peak < 1.6 * history


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


def test_curved_packet_conserves_charge_at_fourth_order(nat):
    # evolve and divergence through the connection terms of a static
    # sin-profile chart: halving both steps shrinks the charge drift and
    # max |div J| by about 2^4.
    drift, worst = [], []
    for n, steps in ((64, 100), (128, 200)):
        chart = static_diagonal_chart(
            0.0, 1.0, steps, (TWO_PI, TWO_PI, TWO_PI), (n, 1, 1), epsilon=0.01, profile="sin"
        )
        bg = build_background(chart)
        init = gaussian_packet(chart, nat, center=np.pi, width=TWO_PI / 16.0, carrier_index=2)
        j = current(evolve(init, bg, nat), nat)
        f0 = flux(j, coordinate_slice(bg, 0.0))
        assert abs(f0 - 1.0) <= 1e-12
        drift.append(abs(flux(j, coordinate_slice(bg, 1.0)) - f0))
        worst.append(np.max(np.abs(divergence(j, bg))))
    assert 12.0 <= drift[0] / drift[1] <= 20.0
    assert 12.0 <= worst[0] / worst[1] <= 20.0


def test_action_is_real_on_arbitrary_fields(nat):
    chart = flat_chart(shape=(16, 1, 1), t_span=1.0, steps=20)
    bg = build_background(chart)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
        s = action_value(SpinorField(chart, v), bg, nat)
        assert abs(s.imag) <= 1e-12 * max(1.0, abs(s.real))


def _dense_action(psi, bg, k):
    """action_value written with dense 4x4 forms and 3-operand einsums."""
    gs = canonical_gamma_set()
    cpsi = np.conj(psi.values)
    dens = np.zeros(psi.values.shape[:-1], dtype=np.complex128)
    for q in bg.frame_terms:
        m = gs.dirac_form.T @ gs.gamma[q]
        z = np.einsum("...A,Ab,...b->...", cpsi, m, covariant_derivative(psi, bg, q).values)
        dens += 0.5j * k.hbar * (z - np.conj(z))
    dens -= k.mass * k.c * np.einsum("...A,Ab,...b->...", cpsi, gs.dirac_form.T, psi.values)
    weights = np.ones(len(psi.chart.axes[0]))
    weights[[0, -1]] = 0.5
    vol = weights[:, None, None, None] * bg.sqrt_neg_det[None]
    return complex(np.sum(dens * vol) * psi.chart.dt * psi.chart.cell_volume)


ACTION_CHARTS = {
    "flat-1d": lambda: flat_chart(shape=(32, 1, 1), t_span=1.0, steps=12),
    "flat-8^3": lambda: flat_chart(shape=(8, 8, 8), t_span=0.5, steps=6),
    "curved-sin-8^3": lambda: static_diagonal_chart(0.0, 0.5, 6, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3, profile="sin"),
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
    nabla = {q: covariant_derivative(psi, bg, q).values for q in bg.frame_terms}
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


def _block_rows(chart):
    return max(8, dynamics._ACTION_BLOCK // int(np.prod(chart.spatial_shape)))


BLOCKED_CHARTS = {
    "flat-1d": lambda steps: flat_chart(shape=(256, 1, 1), t_span=1.0, steps=steps),
    "flat-8^3": lambda steps: flat_chart(shape=(8, 8, 8), t_span=0.5, steps=steps),
    "curved-sin-8^3": lambda steps: static_diagonal_chart(
        0.0, 0.5, steps, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3, profile="sin"
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCKED_CHARTS))
def test_blocked_action_equals_the_full_history_body_bit_for_bit(nat, name):
    # time-node counts around the block size B: one block of 5 rows, B - 1,
    # B, B + 1 (a last block of 1 row), and 2B + 3 (an inner block with a
    # halo on both sides, then a last block of 3 rows that clamps its halo).
    # On the 1D chart B = 32, so the reference's form temporaries span
    # 20 KiB to 268 KiB, both sides of numpy's 256 KiB elision threshold;
    # its 3-row evaluation stays below it.
    b = _block_rows(BLOCKED_CHARTS[name](10))
    massless = PhysicalConstants.natural_units(mass=0.0)
    rng = np.random.default_rng(23)
    for nt in (5, b - 1, b, b + 1, 2 * b + 3):
        chart = BLOCKED_CHARTS[name](nt - 1)
        bg = build_background(chart)
        shape = chart.shape + (4,)
        psi = SpinorField(chart, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        s = action_value(psi, bg, nat)
        assert s == _reference_action(psi, bg, nat) == _reference_action(psi, bg, nat, rows=3)
        s = action_value(psi, bg, massless)
        assert s == _reference_action(psi, bg, massless)
        assert s.imag == 0.0


def test_action_rejects_short_time_axes_and_other_grids(nat):
    chart = flat_chart(shape=(16, 1, 1), steps=3)
    psi = SpinorField(chart, np.ones(chart.shape + (4,), dtype=complex))
    with pytest.raises(ValueError, match="axis 0 has 4 nodes"):
        action_value(psi, build_background(chart), nat)
    with pytest.raises(GridMismatchError):
        action_value(psi, build_background(flat_chart(shape=(8, 1, 1), steps=3)), nat)


# numpy elides temporaries of 256 KiB or more: 16384 complex samples
@pytest.mark.parametrize("samples", [1000, 16383, 16384, 100000])
def test_quartic_is_the_same_at_every_size(nat, samples):
    rng = np.random.default_rng(samples)
    p = rng.standard_normal((samples, 4)) + 1j * rng.standard_normal((samples, 4))
    blocks = [closed_form_current_norm(p[s : s + 1000], nat) for s in range(0, samples, 1000)]
    assert np.array_equal(closed_form_current_norm(p, nat), np.concatenate(blocks))


def test_action_holds_about_one_history_of_temporaries(nat):
    # A (301, 256, 1, 1, 4) history: the complex density is a quarter of a
    # history, and _integrate's weights and weighted copy take 0.375 more;
    # the 32-row block's buffers and derivatives take the rest.  Measured
    # peak 1.11 histories; the bound leaves 0.09.  The full-history body,
    # with its conjugate, two covariant derivatives and form products,
    # measured 4.54.
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
    assert peak < 1.2 * history


# |central difference - Euler-Lagrange pairing| measured at most 3.6e-14 over
# the ten on-shell draws and 3.5e-14 off shell (where the difference is 3.4e-2):
# the difference's own cancellation error.  The bound leaves a factor 28.
GAP_BOUND = 1e-12


def euler_lagrange_variation(field, pert, bg, gs, k):
    """2 Re sum w p^dag D^T R(field) with the action's trapezoid cell weights."""
    chart = field.chart
    w = np.full(len(field.taxis), chart.dt * chart.cell_volume)
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
    growth = np.exp(0.3 * np.linspace(0.0, 1.0, len(wave.taxis)))
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
