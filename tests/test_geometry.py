"""Charts, backgrounds, connection residuals, and the difference stencils."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from diracfock import (
    ChartError,
    CurrentField,
    GridMismatchError,
    MetricChart,
    SpinorField,
    build_background,
    concordance_residuals,
    covariant_derivative,
    frame_orthonormality_residual,
    minkowski_chart,
    static_diagonal_chart,
    torsion_residual,
)
from diracfock.stencils import differentiate

TWO_PI = 2.0 * np.pi


def flat_background(shape=(16, 1, 1), steps=8):
    chart = minkowski_chart(0.0, 1.0, steps, (TWO_PI, TWO_PI, TWO_PI), shape)
    return build_background(chart)


def curved_background(n, epsilon=0.01, steps=2):
    chart = static_diagonal_chart(0.0, 1.0, steps, (TWO_PI, TWO_PI, TWO_PI), (n, 1, 1), epsilon=epsilon)
    return build_background(chart)


def test_flat_background_is_exactly_flat():
    bg = flat_background()
    assert bg.is_flat
    assert np.all(bg.christoffel == 0.0)
    assert np.all(bg.omega == 0.0)
    assert np.all(bg.spinor_connection == 0.0)
    assert np.all(bg.tetrad == np.diag([1.0, 1.0, 1.0, 1.0]))
    rep = concordance_residuals(bg)
    for name, value in rep.as_dict().items():
        assert value == 0.0, name
    assert torsion_residual(bg) == 0.0
    assert frame_orthonormality_residual(bg) == 0.0
    assert np.all(bg.sqrt_neg_det == 1.0)


def test_sin_profile_matches_closed_form_christoffel():
    # g00 = f(x1) = 1 + eps sin x1: the three nonzero Christoffel symbols are
    # Gamma^1_00 = f'/2 and Gamma^0_01 = Gamma^0_10 = f'/(2f), with f' = eps cos x1,
    # reached through the 4th-order periodic stencil.  At eps = 0.05 the max
    # error reads 1.95e-5, 1.23e-6, 7.73e-8 and 4.84e-9 at n = 16 ... 128
    # (ratios 15.8, 15.9, 16.0).  The bound 4e-5 (16/n)^4 is about twice each
    # measured value, and the ratios must sit in [15, 17].
    eps = 0.05
    errors = []
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[0, 0, 1] = mask[0, 1, 0] = mask[1, 0, 0] = False
    for n in (16, 32, 64, 128):
        bg = curved_background(n, epsilon=eps)
        x1 = bg.chart.axes[1][:, None, None]
        f, df = 1.0 + eps * np.sin(x1), eps * np.cos(x1)
        gamma = bg.christoffel
        err = max(
            np.max(np.abs(gamma[..., 1, 0, 0] - df / 2.0)),
            np.max(np.abs(gamma[..., 0, 0, 1] - df / (2.0 * f))),
            np.max(np.abs(gamma[..., 0, 1, 0] - df / (2.0 * f))),
        )
        assert err <= 4e-5 * (16 / n) ** 4, (n, err)
        errors.append(err)
        # every other entry and the volume element are exact
        assert np.all(gamma[..., mask] == 0.0)
        assert np.array_equal(bg.sqrt_neg_det, np.sqrt(f))
    for coarse, fine in zip(errors, errors[1:]):
        assert 15.0 <= coarse / fine <= 17.0, errors


def test_curved_residuals_shrink_at_fourth_order():
    coarse = concordance_residuals(curved_background(64)).as_dict()
    fine = concordance_residuals(curved_background(128)).as_dict()
    for name in coarse:
        if coarse[name] <= 1e-14:
            assert fine[name] <= 1e-14, name
        else:
            ratio = coarse[name] / fine[name]
            assert 12.0 <= ratio <= 20.0, (name, ratio)
    # chirality commutes with the connection, so that residual sits at zero
    assert coarse["nabla_chirality"] == 0.0
    assert fine["nabla_chirality"] == 0.0


def test_curved_background_torsion_and_frame():
    bg = curved_background(64)
    assert torsion_residual(bg) == 0.0
    assert frame_orthonormality_residual(bg) <= 1e-12


def test_zeroed_connection_is_detected():
    # Guard against a residual that would pass with any connection at all.
    bg = curved_background(64)
    honest = max(concordance_residuals(bg).as_dict().values())
    broken = dataclasses.replace(bg, spinor_connection=np.zeros_like(bg.spinor_connection))
    rep = concordance_residuals(broken)
    assert rep.nabla_gamma > bg.chart.epsilon / 4.0
    assert max(rep.as_dict().values()) > 100.0 * honest


def test_residuals_read_every_node_of_full_grid_arrays():
    # The residuals reduce whatever arrays they are given, so on full-grid
    # arrays a defect off the x2 = x3 = 0 column shows.
    bg = build_background(static_diagonal_chart(0.0, 1.0, 2, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.01))
    names = [f.name for f in dataclasses.fields(bg) if f.name != "chart"]

    def full_grid(name):
        values = getattr(bg, name)
        return np.broadcast_to(values, bg.chart.spatial_shape + values.shape[3:]).copy()

    full = dataclasses.replace(bg, **{name: full_grid(name) for name in names})
    assert concordance_residuals(full) == concordance_residuals(bg)
    assert torsion_residual(full) == torsion_residual(bg)
    assert frame_orthonormality_residual(full) == frame_orthonormality_residual(bg)

    def spoiled(name, slot):
        values = full_grid(name)
        values[(3, 5, 6) + slot] += 1.0
        return dataclasses.replace(bg, **{name: values})

    assert concordance_residuals(spoiled("omega", (1, 2, 2))).nabla_metric >= 1.0
    assert torsion_residual(spoiled("christoffel", (1, 0, 2))) >= 1.0
    assert frame_orthonormality_residual(spoiled("tetrad", (2, 2))) >= 1.0


def _x23_derivative_slots():
    """Masks of the Christoffel [k, i, j] and omega [m, p, r] slots that hold a
    d_2 or d_3 of the diagonal metric, by the formulas of build_background."""
    gamma = np.zeros((4, 4, 4), dtype=bool)
    omega = np.zeros((4, 4, 4), dtype=bool)
    for k, i, j in np.ndindex(4, 4, 4):
        # 1/2 g^kk (d_i g_kj + d_j g_ki - d_k g_ij) on a diagonal metric
        gamma[k, i, j] = (j == k and i > 1) or (i == k and j > 1) or (i == j and k > 1)
    for m, p, r in np.ndindex(4, 4, 4):
        # eta_pp e^p_p (d_m Y_r^p + Gamma^p_mr Y_r^r), times Y_m^m
        omega[m, p, r] = (p == r and m > 1) or gamma[p, m, r]
    return gamma, omega


@pytest.mark.parametrize("profile,epsilon", [("flat", 0.0), ("sin", 0.01)])
def test_3d_background_broadcasts_the_x1_column(profile, epsilon):
    curved = profile != "flat"

    def background(shape):
        if not curved:
            return build_background(minkowski_chart(0.0, 1.0, 2, (TWO_PI,) * 3, shape))
        return build_background(static_diagonal_chart(0.0, 1.0, 2, (TWO_PI,) * 3, shape, epsilon=epsilon))

    grid, column, plane = map(background, ((16, 16, 16), (16, 1, 1), (1, 16, 16)))
    for name in (f.name for f in dataclasses.fields(grid) if f.name != "chart"):
        got, ref = getattr(grid, name), getattr(column, name)
        assert got.shape == (16, 1, 1) + ref.shape[3:] == ref.shape, name
        assert not got.flags.writeable, name
        assert got.tobytes() == ref.tobytes(), name

    gamma_slots, omega_slots = _x23_derivative_slots()
    assert np.all(grid.christoffel[..., gamma_slots] == 0.0)
    assert np.all(grid.omega[..., omega_slots] == 0.0)
    # the x1 derivatives are not all zero, so the masks leave the curvature in place
    assert np.any(grid.christoffel[..., ~gamma_slots] != 0.0) == curved
    assert np.any(grid.omega[..., ~omega_slots] != 0.0) == curved

    assert np.all(grid.spinor_connection[..., 2:, :, :] == 0.0)
    # the invariant the march kernel relies on: a term for time and each active
    # spatial axis only, Y_q^q exactly 1.0 on every spatial axis, and A_q only on
    # time and x1 of a curved chart whose x1 is not suppressed
    for bg in (grid, column, plane):
        active = [q for q in (1, 2, 3) if bg.chart.shape[q] > 1]
        assert list(bg.frame_terms) == [0] + active
        for q, (u, a) in bg.frame_terms.items():
            assert q == 0 or (type(u) is float and u == 1.0), q
            assert (a is not None) == (curved and q < 2 and bg.chart.shape[1] > 1), q
    # the residuals read the same column, so they match the 1D chart's exactly
    assert concordance_residuals(grid) == concordance_residuals(column)
    assert torsion_residual(grid) == torsion_residual(column)
    assert frame_orthonormality_residual(grid) == frame_orthonormality_residual(column)


def test_curved_background_memory_is_linear_in_x1():
    # Built on one x1 column, a curved 32^3 background peaks at 0.15 MB of
    # traced allocations; deriving its arrays on the full grid takes 112 MB.
    # The bound is 10x the measured peak, 75x below a full-grid build.
    chart = static_diagonal_chart(0.0, 1.0, 2, (TWO_PI,) * 3, (32, 32, 32), epsilon=0.01)
    tracemalloc.start()
    try:
        build_background(chart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_covariant_derivative_of_constant_field_is_connection_term():
    bg = curved_background(64, steps=8)
    chart = bg.chart
    rng = np.random.default_rng(7)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    values = np.broadcast_to(u, chart.shape + (4,)).copy()
    psi = SpinorField(chart=chart, values=values)
    for q in range(4):
        out = covariant_derivative(psi, bg, q)
        expect = np.einsum("xyzab,b->xyza", bg.spinor_connection[..., q, :, :], u)
        assert np.max(np.abs(out.values - expect[None])) <= 1e-13, q


CONJUGATION_CHARTS = {
    "flat-1d": lambda: flat_background(shape=(32, 1, 1)),
    "flat-8^3": lambda: flat_background(shape=(8, 8, 8)),
    "sin-1d": lambda: curved_background(32, epsilon=0.3, steps=8),
    "sin-8^3": lambda: build_background(
        static_diagonal_chart(0.0, 1.0, 8, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.3)
    ),
}


@pytest.mark.parametrize("name", sorted(CONJUGATION_CHARTS))
def test_covariant_derivative_commutes_with_conjugation(name):
    # every A_q has a zero imaginary part, so conj(nabla_q psi) = nabla_q conj(psi) bit for bit
    bg = CONJUGATION_CHARTS[name]()
    chart = bg.chart
    rng = np.random.default_rng(11)
    values = rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,))
    psi = SpinorField(chart=chart, values=values)
    for q in range(4):
        lhs = np.conj(covariant_derivative(psi, bg, q).values)
        rhs = covariant_derivative(psi.with_values(np.conj(psi.values)), bg, q).values
        assert np.array_equal(lhs, rhs), q


def test_covariant_derivative_rejects_other_grids():
    bg = flat_background(shape=(16, 1, 1))
    others = (
        minkowski_chart(0.0, 1.0, 8, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1)),
        # the same node counts on a box twice as long
        minkowski_chart(0.0, 1.0, 8, (2 * TWO_PI, TWO_PI, TWO_PI), (16, 1, 1)),
    )
    for other in others:
        psi = SpinorField(chart=other, values=np.zeros(other.shape + (4,), dtype=complex))
        with pytest.raises(GridMismatchError):
            covariant_derivative(psi, bg, 1)
    # a field on another time axis of the same spatial grid is accepted
    later = bg.chart.with_time_axis(0.5, 2.0, 12)
    psi = SpinorField(chart=later, values=np.ones(later.shape + (4,), dtype=complex))
    assert np.all(covariant_derivative(psi, bg, 0).values == 0.0)


def test_fields_must_match_their_chart():
    chart = minkowski_chart(0.0, 1.0, 8, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1))
    for shape in ((8, 8, 1, 1, 4), (9, 4, 1, 1, 4)):  # wrong time, wrong space
        values = np.zeros(shape, dtype=complex)
        for kind in (SpinorField, CurrentField):
            with pytest.raises(GridMismatchError):
                kind(chart=chart, values=values)
    others = (
        minkowski_chart(0.5, 1.0, 8, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1)),  # a later time axis
        # the same node counts on a box twice as long, and on a shifted box
        minkowski_chart(0.0, 1.0, 8, (2 * TWO_PI, TWO_PI, TWO_PI), (8, 1, 1)),
        minkowski_chart(0.0, 1.0, 8, (TWO_PI, TWO_PI, TWO_PI), (8, 1, 1), origin=(1.0, 0.0, 0.0)),
    )
    a = SpinorField(chart=chart, values=np.zeros(chart.shape + (4,), dtype=complex))
    for other in others:
        b = SpinorField(chart=other, values=np.zeros(other.shape + (4,), dtype=complex))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(GridMismatchError):
                x + y
            with pytest.raises(GridMismatchError):
                x - y


def test_chart_validation_errors():
    with pytest.raises(ChartError):
        minkowski_chart(0.0, 1.0, 0, (1.0, 1.0, 1.0), (4, 1, 1))
    with pytest.raises(ChartError):
        static_diagonal_chart(0.0, 1.0, 0, (1.0, 1.0, 1.0), (8, 1, 1), epsilon=0.1)
    good = minkowski_chart(0.0, 1.0, 2, (1.0, 1.0, 1.0), (4, 1, 1))
    with pytest.raises(ChartError):
        MetricChart(
            axes=(np.array([0.0, 0.1, 0.5]),) + good.axes[1:],
            family="minkowski",
            step=(0.1,) + good.step[1:],
        )
    with pytest.raises(ChartError):
        MetricChart(axes=good.axes, family="schwarzschild", step=good.step)
    with pytest.raises(ChartError):
        good.with_time_axis(0.0, 1.0, 0)
    # rounding collapses the nodes far from 0: uniform, but not increasing
    with pytest.raises(ChartError, match="rounding collapsed an axis"):
        good.with_time_axis(1e17, 1.0, 4)
    with pytest.raises(ChartError, match="rounding collapsed an axis"):
        minkowski_chart(0.0, 1.0, 2, (1.0, 1.0, 1.0), (4, 1, 1), origin=(1e300, 0.0, 0.0))


def test_uniformity_tolerance_scales_with_the_axis_offset():
    offset = minkowski_chart(1000.0, 0.1, 10, (1.0, 1.0, 1.0), (4, 1, 1))
    assert not np.all(np.diff(offset.axes[0]) == np.diff(offset.axes[0])[0])  # rounding jitter
    assert offset.dt == 0.1 / 10 != offset.axes[0][1] - offset.axes[0][0]
    assert offset.with_time_axis(1000.0, 0.1, 40).dt == 0.1 / 40
    displaced = offset.axes[0].copy()
    displaced[5] *= 1.0 + 1e-9
    with pytest.raises(ChartError, match="axes must be uniform"):
        MetricChart(axes=(displaced,) + offset.axes[1:], family="minkowski", step=offset.step)


def test_metric_must_stay_lorentzian():
    chart = static_diagonal_chart(
        0.0, 1.0, 2, (TWO_PI, TWO_PI, TWO_PI), (16, 1, 1), epsilon=1.5
    )
    with pytest.raises(ChartError):
        chart.metric_values()


def test_with_time_axis_keeps_spatial_grid():
    chart = minkowski_chart(0.0, 2.0, 4, (1.0, 1.0, 1.0), (8, 1, 1))
    finer = chart.with_time_axis(0.5, 1.0, 10)
    assert finer.shape == (11, 8, 1, 1)
    assert finer.axes[0][0] == 0.5
    assert abs(finer.dt - 0.1) <= 1e-15
    for k in (1, 2, 3):
        assert np.array_equal(finer.axes[k], chart.axes[k])


def test_differentiate_constant_is_exact_zero():
    values = np.full((12,), 3.25)
    assert np.all(differentiate(values, axis=0, spacing=0.1, periodic=True) == 0.0)
    assert np.all(differentiate(values, axis=0, spacing=0.1, periodic=False) == 0.0)


def test_differentiate_exact_on_cubic():
    x = np.linspace(0.0, 2.0, 17)
    values = x**3 - 2.0 * x**2 + 0.5 * x + 3.0
    expect = 3.0 * x**2 - 4.0 * x + 0.5
    out = differentiate(values, axis=0, spacing=float(x[1] - x[0]), periodic=False)
    assert np.max(np.abs(out - expect)) <= 1e-12


def test_differentiate_periodic_sin_converges():
    errors = []
    for n in (64, 128):
        x = (TWO_PI / n) * np.arange(n)
        out = differentiate(np.sin(x), axis=0, spacing=TWO_PI / n, periodic=True)
        errors.append(np.max(np.abs(out - np.cos(x))))
    assert errors[0] <= 1e-5
    assert 12.0 <= errors[0] / errors[1] <= 20.0


@pytest.mark.parametrize("n", [5, 6, 17])
def test_periodic_differentiate_matches_roll_reference(n):
    rng = np.random.default_rng(n)
    for axis in range(4):
        shape = [3, 4, 2, 3, 4]
        shape[axis] = n
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.zeros_like(v)
        for shift, w in ((2, 1), (1, -8), (-1, 8), (-2, -1)):
            ref += w * np.roll(v, shift, axis=axis)
        out = differentiate(v, axis=axis, spacing=0.25, periodic=True)
        assert np.array_equal(out, ref / (12.0 * 0.25))


def test_periodic_and_bounded_differentiate_sum_in_one_order():
    # the halo path and the bounded central rows both form ((a - 8b) + 8c) - d
    rng = np.random.default_rng(5)
    for axis in range(3):
        shape = [5, 6, 3]
        shape[axis] = 11
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        periodic = np.moveaxis(differentiate(v, axis=axis, spacing=0.3, periodic=True), axis, 0)
        bounded = np.moveaxis(differentiate(v, axis=axis, spacing=0.3, periodic=False), axis, 0)
        assert np.array_equal(periodic[2:-2], bounded[2:-2])
        # each end row adds its one-sided terms in weight order, the far end
        # subtracting them from 0
        moved = np.moveaxis(v, axis, 0)
        for i, weights in enumerate(((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1))):
            near, far = np.zeros_like(moved[0]), np.zeros_like(moved[0])
            for k, w in enumerate(weights):
                near += w * moved[k]
                far -= w * moved[-1 - k]
            assert np.array_equal(bounded[i], near / (12.0 * 0.3))
            assert np.array_equal(bounded[-1 - i], far / (12.0 * 0.3))
    # a constant whose multiples by 7 are exact differentiates to exact zero;
    # any other constant c leaves the rounding of 7c, at most ulp(7c) / 12h
    const = np.full((4, 9, 2), 3.25 - 1.5j)
    assert np.all(differentiate(const, axis=1, spacing=0.1, periodic=True) == 0.0)
    for c in rng.standard_normal(50):
        out = differentiate(np.full(8, c), axis=0, spacing=0.1, periodic=True)
        assert np.all(np.abs(out) <= np.spacing(7.0 * abs(c)) / 1.2)


def _stencil_sums(v, axis, periodic):
    """The integer-numerator sums of differentiate along axis, before 1 / (12 h)."""
    x = np.moveaxis(v, axis, 0)
    a, b, c, d = (np.roll(x, shift, axis=0) for shift in (2, 1, -1, -2))
    out = ((a - 8 * b) + 8 * c) - d
    if not periodic:
        for i, weights in enumerate(((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1))):
            out[i] = sum(w * x[k] for k, w in enumerate(weights))
            out[-1 - i] = sum(-w * x[-1 - k] for k, w in enumerate(weights))
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(9,), (7, 6, 5)])
def test_differentiate_divides_its_sums_by_12h(shape, periodic):
    # the sums are divided by 12 h in place, for every dtype; h = 0.1 makes
    # x / (12 h) and x (1 / (12 h)) differ on the real data, so a multiply by
    # the reciprocal would show.  Integer data comes back as floats.
    rng = np.random.default_rng(len(shape))
    h = 0.1
    for axis in range(len(shape)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = differentiate(z, axis=axis, spacing=h, periodic=periodic)
        assert got.tobytes() == (_stencil_sums(z, axis, periodic) / (12.0 * h)).tobytes()
        x = rng.standard_normal(shape)
        sums = _stencil_sums(x, axis, periodic)
        assert np.any(sums / (12.0 * h) != sums * (1.0 / (12.0 * h)))
        got = differentiate(x, axis=axis, spacing=h, periodic=periodic)
        assert got.tobytes() == (sums / (12.0 * h)).tobytes()
        m = rng.integers(-50, 50, size=shape)
        got = differentiate(m, axis=axis, spacing=h, periodic=periodic)
        assert got.dtype == np.float64
        assert got.tobytes() == (_stencil_sums(m, axis, periodic) / (12.0 * h)).tobytes()


def test_differentiate_degenerate_axes():
    values = np.arange(6.0).reshape(2, 1, 3)
    assert np.all(differentiate(values, axis=1, spacing=1.0, periodic=True) == 0.0)
    with pytest.raises(ValueError):
        differentiate(np.zeros(4), axis=0, spacing=1.0, periodic=False)

