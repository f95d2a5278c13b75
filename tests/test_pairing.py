"""Spacelike slices, flux conservation, and the hypersurface pairing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracfock import (
    CurrentRealityError,
    GridMismatchError,
    NotSpacelikeError,
    RankDeficientModeError,
    SpinorField,
    build_background,
    coordinate_slice,
    current,
    evolve,
    flux,
    gaussian_packet,
    gram,
    inner,
    minkowski_chart,
    orthonormalize,
    parse_config,
    plane_wave,
    sample_on_slice,
    static_diagonal_chart,
    tilted_slice,
    timelike_report,
)
from diracfock import dynamics
from diracfock.pairing import _slice_integral, _slice_samples, _streamed_fluxes, _time_plan
from diracfock.scenarios import BUNDLED
from diracfock.suites import suite_pairing

TWO_PI = 2.0 * np.pi


def on_slice(fields, s):
    return [sample_on_slice(f, s) for f in fields]


@pytest.fixture(scope="module")
def wave_setup(nat):
    chart = minkowski_chart(0.0, 1.0, 100, (TWO_PI, TWO_PI, TWO_PI), (64, 1, 1))
    bg = build_background(chart)
    modes = [
        plane_wave(chart, (0, 0, 0), nat, spin=0),
        plane_wave(chart, (0, 0, 0), nat, spin=1),
        plane_wave(chart, (1, 0, 0), nat, spin=0, branch=+1),
        plane_wave(chart, (1, 0, 0), nat, spin=1, branch=-1),
    ]
    return bg, modes


@pytest.fixture(scope="module")
def packet_run(nat):
    chart = minkowski_chart(0.0, 4.0, 400, (32.0, TWO_PI, TWO_PI), (256, 1, 1))
    bg = build_background(chart)
    initial = gaussian_packet(chart, nat, center=16.0, width=2.0, carrier_index=2)
    psi = evolve(initial, bg, nat)
    return bg, current(psi, nat)


def test_normalized_wave_has_unit_flux(nat, wave_setup):
    bg, modes = wave_setup
    f = flux(current(modes[0], nat), coordinate_slice(bg, 0.0))
    assert isinstance(f, float)
    assert abs(f - 1.0) <= 1e-12


def test_wave_gram_is_identity(nat, wave_setup):
    bg, modes = wave_setup
    eye = np.eye(len(modes))
    s0 = coordinate_slice(bg, 0.0)
    assert np.max(np.abs(gram(on_slice(modes, s0), s0, nat) - eye)) <= 1e-12
    # off-node slice exercises the cubic interpolation path
    off = coordinate_slice(bg, 0.5 + 0.37 * bg.chart.dt)
    assert np.max(np.abs(gram(on_slice(modes, off), off, nat) - eye)) <= 1e-6


def test_gram_matches_pairwise_inner(nat, wave_setup):
    bg, modes = wave_setup
    for s in (
        coordinate_slice(bg, 0.0),
        coordinate_slice(bg, 0.5 + 0.37 * bg.chart.dt),
        tilted_slice(bg, 0.5, (0.15, 0.0, 0.0)),
    ):
        samples = on_slice(modes, s)
        pairwise = [[inner(a, b, s, nat) for b in samples] for a in samples]
        assert np.array_equal(gram(samples, s, nat), np.array(pairwise))
    chart = minkowski_chart(0.0, 1.0, 4, (1.0, 2.0, 3.0), (8, 1, 4))
    assert chart.cell_volume == chart.spacing[1] * chart.spacing[3]


def test_pair_flux_between_distinct_modes_vanishes(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    f = inner(*on_slice(modes[2:], s), s, nat)
    assert isinstance(f, complex)
    assert abs(f) <= 1e-12


def test_inner_and_gram_reject_histories_and_wrong_shapes(nat, wave_setup):
    # a history would broadcast against the slice weights to a wrong number
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    good = sample_on_slice(modes[0], s)
    for bad in (modes[1].values, good[:-1], good[..., :3], good[None]):
        with pytest.raises(GridMismatchError):
            inner(good, bad, s, nat)
        with pytest.raises(GridMismatchError):
            inner(bad, good, s, nat)
        with pytest.raises(GridMismatchError):
            gram([good, bad], s, nat)


def test_inner_is_hermitian_and_positive(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    samples = on_slice(modes, s)
    a = inner(samples[0], samples[2], s, nat)
    b = inner(samples[2], samples[0], s, nat)
    assert abs(a - np.conj(b)) <= 1e-12
    for m in samples:
        n2 = inner(m, m, s, nat)
        assert abs(n2.imag) <= 1e-13
        assert n2.real > 0.0


def test_tilted_slice_leaks_exactly_for_delocalized_waves(nat, wave_setup):
    # The tilted plane does not close up on the periodic box, so a constant
    # current leaks through the wrap: the flux drops to 1 - v k / w.  This
    # pins the quadrature; conservation statements need decaying data.
    bg, modes = wave_setup
    v = 0.15
    s = tilted_slice(bg, 0.5, (v, 0.0, 0.0))
    f_rest = flux(current(modes[0], nat), s)
    assert abs(f_rest - 1.0) <= 1e-12
    k, w = 1.0, np.sqrt(2.0)
    f_boost = flux(current(modes[2], nat), s)
    assert abs(f_boost - (1.0 - v * k / w)) <= 1e-12


def test_packet_flux_is_slice_independent(nat, packet_run):
    bg, j = packet_run
    f0 = flux(j, coordinate_slice(bg, 0.0))
    assert abs(f0 - 1.0) <= 1e-12
    assert abs(flux(j, coordinate_slice(bg, 2.0)) - f0) <= 1e-10
    assert abs(flux(j, coordinate_slice(bg, 2.0 + 0.37 * bg.chart.dt)) - f0) <= 1e-9
    assert abs(flux(j, tilted_slice(bg, 2.0, (0.1, 0.0, 0.0))) - f0) <= 1e-6


def test_orthonormalize_mixed_modes(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    m = on_slice(modes, s)
    # a complex coefficient on the mode projected out, so that a projection
    # coefficient taken conjugated leaves the second output off m[0]'s complement
    mixed = [m[0], 0.6j * m[0] + 0.8 * m[1], m[2]]
    ortho = orthonormalize(mixed, s, nat)
    assert all(o.shape == m[0].shape for o in ortho)
    assert np.max(np.abs(gram(ortho, s, nat) - np.eye(len(ortho)))) <= 1e-12
    # the span is preserved: the second output lies in span(m0, m1)
    overlap = abs(inner(ortho[1], m[1], s, nat))
    assert overlap > 0.9


def test_orthonormalize_flags_dependent_mode(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    m = on_slice(modes, s)
    dependent = [m[0], m[1], m[0] + (-2.0) * m[1]]
    with pytest.raises(RankDeficientModeError) as info:
        orthonormalize(dependent, s, nat)
    assert info.value.index == 2


def test_time_plan_is_exact_on_cubics():
    taxis = np.linspace(0.0, 3.0, 7)
    values = (taxis**3 - taxis)[:, None] * np.array([1.0, -2.0])
    for t, first in ((0.31, 0), (1.77, 2), (2.9, 3)):
        rows, weights = _time_plan(taxis, t)
        assert np.array_equal(rows, first + np.arange(4))
        expect = (t**3 - t) * np.array([1.0, -2.0])
        assert np.max(np.abs(weights @ values[rows] - expect)) <= 1e-12


def test_time_plan_takes_a_node_without_four_snapshots():
    # a node is its row four times with weights (1, 0, 0, 0), on a full axis
    # and on a 3-row axis, which is too short for cubic interpolation
    rows, weights = _time_plan(np.linspace(0.0, 3.0, 7), 1.5)
    assert np.array_equal(rows, [3, 3, 3, 3]) and np.array_equal(weights, [1.0, 0.0, 0.0, 0.0])
    taxis = np.array([0.0, 0.5, 1.0])
    rows, weights = _time_plan(taxis, 0.5)
    assert np.array_equal(rows, [1, 1, 1, 1]) and np.array_equal(weights, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="at least 4 snapshots"):
        _time_plan(taxis, 0.25)


def test_time_plan_rejects_times_off_the_axis():
    taxis = np.linspace(0.0, 1.0, 5)
    for t in (1.5, -0.1):
        with pytest.raises(ValueError, match="outside the sampled range"):
            _time_plan(taxis, t)


def test_sample_on_slice_interpolates_in_time(nat):
    chart = minkowski_chart(0.0, 3.0, 6, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1))
    bg = build_background(chart)
    u = np.array([1.0, -0.5, 0.25j, 2.0])
    t = chart.axes[0]
    values = np.broadcast_to(
        (t**3 - t)[:, None, None, None, None] * u, chart.shape + (4,)
    ).astype(complex)
    psi = SpinorField(chart=chart, values=values)
    ts = 1.3
    out = sample_on_slice(psi, coordinate_slice(bg, ts))
    assert np.max(np.abs(out - (ts**3 - ts) * u)) <= 1e-12


def test_slice_times_varying_off_axis_one_are_rejected(nat):
    chart = minkowski_chart(0.0, 1.0, 10, (TWO_PI, TWO_PI, TWO_PI), (8, 8, 1))
    bg = build_background(chart)
    with pytest.raises(NotImplementedError):
        tilted_slice(bg, 0.5, (0.0, 0.2, 0.0))
    # a tilt along the suppressed x3 leaves the times alone and tilts the normal
    s = tilted_slice(bg, 0.5, (0.1, 0.0, 0.2))
    assert s.times.shape == (8,)
    assert s.normal.shape == (4,)
    assert s.area_weights.shape == (8, 8, 1)
    assert np.array_equal(s.times, tilted_slice(bg, 0.5, (0.1, 0.0, 0.0)).times)
    assert s.normal[3] > 0.0


def test_not_spacelike_rejections(nat):
    chart = minkowski_chart(0.0, 1.0, 10, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1))
    bg = build_background(chart)
    with pytest.raises(NotSpacelikeError):
        tilted_slice(bg, 0.0, (1.0, 0.0, 0.0))
    with pytest.raises(NotSpacelikeError):
        tilted_slice(bg, 0.0, (0.8, 0.8, 0.0))
    curved = static_diagonal_chart(0.0, 1.0, 10, (TWO_PI,) * 3, (8, 1, 1), epsilon=0.01)
    cbg = build_background(curved)
    with pytest.raises(NotSpacelikeError):
        tilted_slice(cbg, 0.0, (0.1, 0.0, 0.0))
    # constant-x0 slices remain valid on the curved chart
    s = coordinate_slice(cbg, 0.5)
    assert s.times.shape == (8,)
    assert np.array_equal(s.normal, [1.0, 0.0, 0.0, 0.0])


def test_suite_pairing_keeps_one_history_besides_the_packet(nat):
    # flat_pairing at 256 nodes and 300 steps, where every row still passes.
    # No history is kept: the packet's rows stream into blocks of J rows and
    # the four slices keep 4-row windows of them, and the modes step in the
    # same march.  The peak, the march's RK4 stages of five fields plus one
    # block, measured 0.85 histories with the test run alone and 0.60 after
    # an earlier run had loaded numpy's lazily imported modules; the bound
    # of 1 leaves 0.15.  Storing the packet history and taking `current` of
    # it measured 2.71, the dense einsum current 3.21, and keeping all four
    # mode histories and doing Gram-Schmidt on them 17.4.
    text = BUNDLED["flat_pairing"].replace("steps = 1200", "steps = 300").replace("shape = 512 1 1", "shape = 256 1 1")
    cfg = parse_config(text)
    assert (cfg.steps, cfg.shape) == (300, (256, 1, 1))
    history = 301 * 256 * 4 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        results, _ = suite_pairing(cfg, nat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 1.0 * history


def _stream_setup(shape):
    """A random history on a 9-node time axis, t in [0, 2], and four slices.
    The tilted slice spans the axis at half a time step per x1 column: the
    even columns sit on time nodes, and the first and last odd columns read
    windows clamped to the ends of the axis."""
    chart = minkowski_chart(0.0, 2.0, 8, (8.0, TWO_PI, TWO_PI), shape)
    bg = build_background(chart)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
    tilted = tilted_slice(bg, 1.0, (0.25, 0.0, 0.0))
    slices = [coordinate_slice(bg, 0.0), coordinate_slice(bg, 2.0), coordinate_slice(bg, 1.0 + 0.37 * chart.dt), tilted]
    return SpinorField(chart, values), slices


def _gathered_samples(values, taxis, s):
    """The reference sampler, apart from the library's: each column's four rows
    and Lagrange weights, a time node being its row four times with weights
    (1, 0, 0, 0), then one fancy-index gather of those rows from the whole
    history, summed in order from zeros."""
    dt = taxis[1] - taxis[0]
    rows, weights = [], []
    for t in s.times:
        pos = (t - taxis[0]) / dt
        if abs(pos - round(pos)) < 1e-12:
            rows.append([round(pos)] * 4)
            weights.append([1.0, 0.0, 0.0, 0.0])
            continue
        first = min(max(int(np.floor(pos)) - 1, 0), len(taxis) - 4)
        ts = taxis[first : first + 4]
        rows.append(first + np.arange(4))
        weights.append([np.prod([(t - ts[m]) / (ts[j] - ts[m]) for m in range(4) if m != j]) for j in range(4)])
    window = values[np.transpose(rows), np.arange(values.shape[1])]
    out = np.zeros(window.shape[1:], dtype=window.dtype)
    for w, row in zip(np.transpose(weights), window):
        out += w[:, None, None, None] * row
    return out


@pytest.mark.parametrize("shape", [(16, 1, 1), (16, 32, 1), (16, 16, 16)])
def test_streamed_fluxes_equal_the_history_fluxes_bit_for_bit(nat, shape):
    # 256, 8 and 1 time rows per block of J: one block, a short last block,
    # and one row per block
    psi, slices = _stream_setup(shape)
    taxis, dt = psi.chart.axes[0], psi.chart.dt
    times = slices[3].times
    assert np.array_equal(times[::2], taxis[:8]) and times[1] < taxis[0] + dt and times[-1] > taxis[-1] - dt
    j = current(psi, nat)
    want = [float(_slice_integral(_gathered_samples(j.values, taxis, s), s)) for s in slices]
    assert _streamed_fluxes(iter(psi.values), taxis, slices, nat) == want
    assert [flux(j, s) for s in slices] == want
    for s in slices:
        assert np.array_equal(sample_on_slice(psi, s), _gathered_samples(psi.values, taxis, s))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(1, 8)), st.sampled_from([(16, 1, 1), (16, 32, 1)]))
def test_any_partition_into_row_blocks_gives_the_same_samples(cuts, shape):
    # cuts splits the 9 time rows into blocks; every slice's samples, the
    # tilted slice's clamped windows included, equal the one-block gather
    psi, slices = _stream_setup(shape)
    edges = [0, *sorted(cuts), len(psi.chart.axes[0])]
    blocks = (psi.values[a:b] for a, b in zip(edges, edges[1:]))
    got = _slice_samples(blocks, psi.chart.axes[0], slices)
    for g, s in zip(got, slices):
        assert np.array_equal(g, _gathered_samples(psi.values, psi.chart.axes[0], s))


def test_the_stream_raises_the_reality_error_of_current(nat, non_hermitian_pairing):
    # over 1-row blocks: the stream raises from the maxima over every block
    psi, slices = _stream_setup((16, 16, 16))
    j = dynamics._raw_pair_current(psi.values, psi.values, nat)
    imag = float(np.max(np.abs(j.imag)))
    assert imag > float(np.max(np.abs(j[-1].imag)))  # the last row does not hold the maximum
    message = f"current reality violated: max imaginary part {imag:.3e}"
    for run in (lambda: current(psi, nat), lambda: _streamed_fluxes(iter(psi.values), psi.chart.axes[0], slices, nat)):
        with pytest.raises(CurrentRealityError) as info:
            run()
        assert str(info.value) == message


def test_a_reality_residual_between_the_bounds_raises(nat, nearly_hermitian_pairing):
    # The fixture's relative residual reads 1.01e-10 on this history: above
    # current's bound 1e-13, below 1e-3, so a looser bound would let it through.
    psi, slices = _stream_setup((16, 16, 16))
    assert 1e-13 < timelike_report(psi.values, nat).reality_residual < 1e-3
    for run in (lambda: current(psi, nat), lambda: _streamed_fluxes(iter(psi.values), psi.chart.axes[0], slices, nat)):
        with pytest.raises(CurrentRealityError):
            run()
