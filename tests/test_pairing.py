"""Spacelike slices, flux conservation, and the hypersurface pairing."""

import numpy as np
import pytest

from diracfock import (
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
    pair_current,
    plane_wave,
    sample_on_slice,
    static_diagonal_chart,
    tilted_slice,
)

TWO_PI = 2.0 * np.pi


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
    assert np.max(np.abs(gram(modes, coordinate_slice(bg, 0.0), nat) - eye)) <= 1e-12
    # off-node slice exercises the cubic interpolation path
    off = coordinate_slice(bg, 0.5 + 0.37 * bg.chart.dt)
    assert np.max(np.abs(gram(modes, off, nat) - eye)) <= 1e-6


def test_gram_matches_pairwise_inner(nat, wave_setup):
    bg, modes = wave_setup
    for s in (
        coordinate_slice(bg, 0.0),
        coordinate_slice(bg, 0.5 + 0.37 * bg.chart.dt),
        tilted_slice(bg, 0.5, (0.15, 0.0, 0.0)),
    ):
        pairwise = [[inner(a, b, s, nat) for b in modes] for a in modes]
        assert np.all(gram(modes, s, nat) == np.array(pairwise))
    chart = minkowski_chart(0.0, 1.0, 4, (1.0, 2.0, 3.0), (8, 1, 4))
    assert chart.cell_volume == chart.spacing[1] * chart.spacing[3]


def test_pair_flux_between_distinct_modes_vanishes(nat, wave_setup):
    bg, modes = wave_setup
    f = flux(pair_current(modes[2], modes[3], nat), coordinate_slice(bg, 0.0))
    assert isinstance(f, complex)
    assert abs(f) <= 1e-12


def test_inner_is_hermitian_and_positive(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    a = inner(modes[0], modes[2], s, nat)
    b = inner(modes[2], modes[0], s, nat)
    assert abs(a - np.conj(b)) <= 1e-12
    for m in modes:
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
    mixed = [modes[0], 0.6 * modes[0] + 0.8 * modes[1], modes[2]]
    ortho = orthonormalize(mixed, s, nat)
    assert np.max(np.abs(gram(ortho, s, nat) - np.eye(len(ortho)))) <= 1e-12
    # the span is preserved: the second output lies in span(m0, m1)
    overlap = abs(inner(ortho[1], modes[1], s, nat))
    assert overlap > 0.9


def test_orthonormalize_flags_dependent_mode(nat, wave_setup):
    bg, modes = wave_setup
    s = coordinate_slice(bg, 0.0)
    dependent = [modes[0], modes[1], modes[0] + (-2.0) * modes[1]]
    with pytest.raises(RankDeficientModeError) as info:
        orthonormalize(dependent, s, nat)
    assert info.value.index == 2


def test_sample_on_slice_interpolates_in_time(nat):
    chart = minkowski_chart(0.0, 3.0, 6, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1))
    bg = build_background(chart)
    u = np.array([1.0, -0.5, 0.25j, 2.0])
    t = chart.axes[0]
    values = np.broadcast_to(
        (t**3 - t)[:, None, None, None, None] * u, chart.shape + (4,)
    ).astype(complex)
    psi = SpinorField(chart=chart, taxis=t, values=values)
    ts = 1.3
    out = sample_on_slice(psi, coordinate_slice(bg, ts))
    assert np.max(np.abs(out - (ts**3 - ts) * u)) <= 1e-12


def test_slice_times_varying_off_axis_one_are_rejected(nat):
    chart = minkowski_chart(0.0, 1.0, 10, (TWO_PI, TWO_PI, TWO_PI), (8, 8, 1))
    bg = build_background(chart)
    s = tilted_slice(bg, 0.5, (0.0, 0.2, 0.0))
    values = np.zeros(chart.shape + (4,), dtype=complex)
    psi = SpinorField(chart=chart, taxis=chart.axes[0], values=values)
    with pytest.raises(NotImplementedError):
        sample_on_slice(psi, s)
    with pytest.raises(NotImplementedError):
        flux(current(psi, nat), s)


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
    assert s.times.shape == (8, 1, 1)
    assert np.all(s.normal[..., 0] == 1.0)
