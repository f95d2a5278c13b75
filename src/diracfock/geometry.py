"""Charts, backgrounds and the metric spinor connection.

A chart is a 4D coordinate box with uniform axes, periodic in space and
bounded in time.  Supported metric families are the rectilinear Minkowski
chart and the static diagonal metric g = diag(1 + epsilon sin x1, -1, -1, -1).
A Background caches everything derived from the metric on the x1 column:
tetrad, Christoffel symbols, the frame connection one-form and the spinor
connection coefficients.  A field meets it on the same spatial grid, on any
time axis.

Index conventions for cached arrays (read-only; the leading axes (n1, 1, 1)
are the x1 column, which numpy broadcasts over x2 and x3):
    metric[..., i, j]          coordinate components
    tetrad[..., q, mu]         frame vector q, coordinate component mu
    christoffel[..., k, i, j]  Gamma^k_{ij}
    omega[..., q, p, r]        frame-direction connection form, p r lowered
    spinor_connection[..., q, a, b]   A_q in the frame direction q
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .fields import SpinorField, _block_rows, _check_grid, _halo_blocks
from .spin_algebra import _CHIRALITY_ROWS, _DIRAC_FORM_ROWS, _GAMMA_ROWS, _SKEW_METRIC_ROWS, FRAME, _apply
from .stencils import _bounded, _central, differentiate

__all__ = [
    "ChartError",
    "MetricChart",
    "Background",
    "ConcordanceReport",
    "minkowski_chart",
    "static_diagonal_chart",
    "build_background",
    "concordance_residuals",
    "torsion_residual",
    "frame_orthonormality_residual",
    "covariant_derivative",
]


class ChartError(ValueError):
    """Chart or metric data outside the supported families."""


FAMILIES = ("minkowski", "static-diagonal")


@dataclass(frozen=True)
class MetricChart:
    """Uniform 4D coordinate box, periodic in space, carrying one of the supported metrics."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    family: str
    # the step each axis was built with: far from 0 the nodes are rounded to a
    # few units of their magnitude, so their differences are not the step.
    step: tuple[float, float, float, float]
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if len(self.axes) != 4:
            raise ChartError("a chart needs 4 axes")
        for a, h in zip(self.axes, self.step):
            if len(a) > 1:
                diffs = np.diff(a)
                if not np.all(diffs > 0.0):
                    raise ChartError("axis nodes must increase (rounding collapsed an axis)")
                if not np.allclose(diffs, h, rtol=1e-12, atol=4 * np.spacing(np.max(np.abs(a)))):
                    raise ChartError("axes must be uniform")
        if self.family not in FAMILIES:
            raise ChartError(f"unknown metric family {self.family!r}")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return tuple(len(a) for a in self.axes[1:])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(a) for a in self.axes)

    @property
    def spacing(self) -> tuple[float, float, float, float]:
        return tuple(h if len(a) > 1 else 1.0 for a, h in zip(self.axes, self.step))

    @property
    def dt(self) -> float:
        return self.spacing[0]

    @property
    def cell_volume(self) -> float:
        """Coordinate volume of one spatial cell; suppressed axes count as 1."""
        cell = 1.0
        for a, h in zip(self.axes[1:], self.spacing[1:]):
            if len(a) > 1:
                cell *= h
        return cell

    @property
    def spatial_volume(self) -> float:
        """Coordinate volume of the periodic spatial box (cell-counted)."""
        vol = 1.0
        for a, h in zip(self.axes[1:], self.spacing[1:]):
            vol *= len(a) * h if len(a) > 1 else 1.0
        return vol

    def with_time_axis(self, t_start: float, t_span: float, steps: int) -> "MetricChart":
        axis = _time_axis(t_start, t_span, steps)
        return replace(self, axes=(axis,) + self.axes[1:], step=(t_span / steps,) + self.step[1:])

    def metric_values(self) -> np.ndarray:
        """Coordinate metric sampled on the x1 column, shape (n1,1,1,4,4);
        g00 = 1 + epsilon sin x1 on the static-diagonal family."""
        diag = np.empty((len(self.axes[1]), 1, 1, 4))
        diag[...] = (1.0, -1.0, -1.0, -1.0)
        if self.family == "static-diagonal":
            diag[..., 0] = (1.0 + self.epsilon * np.sin(self.axes[1]))[:, None, None]
            if np.any(diag[..., 0] <= 0.0):
                raise ChartError("g00 must stay positive on the chart")
        g = np.zeros(diag.shape[:-1] + (4, 4))
        g[..., np.arange(4), np.arange(4)] = diag
        return g


def _time_axis(t_start: float, t_span: float, steps: int) -> np.ndarray:
    """steps + 1 uniform nodes on [t_start, t_start + t_span]."""
    if steps < 1:
        raise ChartError("need at least one time step")
    return t_start + (t_span / steps) * np.arange(steps + 1)


def _spatial_axis(extent: float, n: int, offset: float = 0.0) -> np.ndarray:
    """Periodic axis: n nodes on [offset, offset + extent); a single node sits at offset."""
    if n == 1:
        return np.array([offset])
    return offset + (extent / n) * np.arange(n)


def minkowski_chart(
    t_start: float,
    t_span: float,
    steps: int,
    lengths: tuple[float, float, float],
    shape: tuple[int, int, int],
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> MetricChart:
    axes = (_time_axis(t_start, t_span, steps),) + tuple(
        _spatial_axis(lengths[k], shape[k], origin[k]) for k in range(3)
    )
    step = (t_span / steps,) + tuple(lengths[k] / shape[k] for k in range(3))
    return MetricChart(axes=axes, family="minkowski", step=step)


def static_diagonal_chart(
    t_start: float,
    t_span: float,
    steps: int,
    lengths: tuple[float, float, float],
    shape: tuple[int, int, int],
    epsilon: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> MetricChart:
    """The Minkowski chart's box carrying g00 = 1 + epsilon sin x1."""
    chart = minkowski_chart(t_start, t_span, steps, lengths, shape, origin)
    return replace(chart, family="static-diagonal", epsilon=epsilon)


@dataclass(frozen=True)
class Background:
    """Chart plus every metric-derived array cached on the x1 column."""

    chart: MetricChart
    metric: np.ndarray
    tetrad: np.ndarray
    christoffel: np.ndarray
    omega: np.ndarray
    spinor_connection: np.ndarray
    sqrt_neg_det: np.ndarray

    @property
    def is_flat(self) -> bool:
        return self.chart.family == "minkowski"

    @cached_property
    def frame_terms(self) -> dict[int, tuple[np.ndarray | float, np.ndarray | None]]:
        """q -> (Y_q^q, A_q) for time and each spatial axis that is not suppressed.

        Both families are diag(g00(x1), -1, -1, -1), so Y_q^q is exactly 1.0 on
        every spatial axis and A_q is None (zero) except on time and x1.  Y_0^0
        is 1.0 where it is identically one, so no caller multiplies by it.
        """
        terms = {}
        for q in range(4):
            if q == 0 or len(self.chart.axes[q]) > 1:
                u, a = self.tetrad[..., q, q], self.spinor_connection[..., q, :, :]
                u = 1.0 if np.all(u == 1.0) else u
                terms[q] = (u, a if np.any(a != 0.0) else None)
        return terms


def _diagonal_gradient(chart: MetricChart, values: np.ndarray) -> np.ndarray:
    """d_mu of diagonal entries values[..., k] that depend on x1 alone, spread onto [..., mu, k, k]."""
    k = np.arange(4)
    out = np.zeros(values.shape[:-1] + (4, 4, 4))
    out[..., 1, k, k] = differentiate(values, axis=0, spacing=chart.spacing[1], periodic=True)
    return out


def build_background(chart: MetricChart) -> Background:
    """Levi-Civita data and the induced spinor connection for the chart.

    Both families are diagonal in x1 alone, so everything comes from g_kk on
    the x1 column and its 4th-order differences, stored read-only with shape
    (n1, 1, 1, ...); A_q = (1/4) omega_{q,pr} gamma^p gamma^r.  The metric is
    Lorentzian and nonsingular by construction: ``metric_values`` raises
    ChartError where g00 <= 0, and the spatial entries are -1.
    """
    g = chart.metric_values()

    diag = np.diagonal(g, axis1=-2, axis2=-1)  # g_kk
    det = np.prod(diag, axis=-1)

    # Diagonal tetrad: frame vector q points along coordinate q.
    e = np.sqrt(np.abs(diag))  # e^q_q
    y = 1.0 / e                # Y_q^q
    tetrad = np.zeros_like(g)
    tetrad[..., np.arange(4), np.arange(4)] = y

    # Gamma^k_ij = 1/2 g^kk (d_i g_kj + d_j g_ki - d_k g_ij), dg[..., mu, i, j] = d_mu g_ij.
    # The two swapped terms are added in either order, so (i, j) symmetry is exact.
    dg = _diagonal_gradient(chart, diag)
    christoffel = 0.5 * ((1.0 / diag)[..., :, None, None] * ((np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)) - dg))

    # omega_m^p_r = eta_pp e^p_p (d_m Y_r^p + Gamma^p_mr Y_r^r) with p lowered, as [..., m, p, r];
    # the frame-direction form is omega_q = Y_q^q omega_q.
    ep = e[..., None, :, None]
    transport = (ep * np.swapaxes(christoffel, -3, -2)) * y[..., None, None, :]
    eta = np.diagonal(np.real(FRAME.metric))[:, None]
    omega = y[..., :, None, None] * (eta * (ep * _diagonal_gradient(chart, y) + transport))

    gamma_products = np.stack([_apply(rows, FRAME.gamma, axis=-2) for rows in _GAMMA_ROWS])  # [p, r, a, c]
    spinor_connection = 0.25 * np.einsum("...qpr,prab->...qab", omega, gamma_products)

    arrays = (g, tetrad, christoffel, omega, spinor_connection, np.sqrt(-det))  # in field order
    for a in arrays:
        a.setflags(write=False)
    return Background(chart, *arrays)


@dataclass(frozen=True)
class ConcordanceReport:
    """Max-norm covariant derivatives of the five basic fields."""

    nabla_metric: float
    nabla_skew_metric: float
    nabla_chirality: float
    nabla_dirac_form: float
    nabla_gamma: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def concordance_residuals(bg: Background) -> ConcordanceReport:
    """Covariant constancy of g, d, H, D and the gamma field.

    All five fields have constant frame components, so their covariant
    derivatives reduce to connection contractions; the residuals measure how
    far the discretized connection is from a metric connection.
    """
    a = bg.spinor_connection  # [..., q, a, b]
    at = np.swapaxes(a, -1, -2)
    omega = bg.omega  # [..., q, p, r] lowered
    eta = np.diagonal(np.real(FRAME.metric))

    r_metric = float(np.max(np.abs(omega + np.swapaxes(omega, -1, -2))))

    # A M and M A for a frame matrix M act on the column and the row axis of A.
    d, h, df = _SKEW_METRIC_ROWS, _CHIRALITY_ROWS, _DIRAC_FORM_ROWS
    r_skew = float(np.max(np.abs(_apply(d.T, at) + _apply(d, a, axis=-2))))
    r_chir = float(np.max(np.abs(_apply(h.T, a) - _apply(h, a, axis=-2))))
    r_dirac = float(np.max(np.abs(_apply(df.T, at) + _apply(df, np.conj(a), axis=-2))))

    # nabla_q gamma^p = omega_q^p_r gamma^r + [A_q, gamma^p], one p at a time.
    r_gamma = 0.0
    for p, gp in enumerate(_GAMMA_ROWS):
        rot = np.zeros(np.broadcast_shapes(a.shape, omega.shape), dtype=np.complex128)
        for r, gr in enumerate(_GAMMA_ROWS):
            rot[..., np.arange(4), gr.perm] += (eta[p] * omega[..., p, r])[..., None] * gr.phase
        r_gamma = max(r_gamma, float(np.max(np.abs(rot + (_apply(gp.T, a) - _apply(gp, a, axis=-2))))))

    return ConcordanceReport(r_metric, r_skew, r_chir, r_dirac, r_gamma)


def torsion_residual(bg: Background) -> float:
    """Max |Gamma^k_{ij} - Gamma^k_{ji}|; zero by construction, asserted not assumed."""
    gamma = bg.christoffel
    return float(np.max(np.abs(gamma - np.swapaxes(gamma, -1, -2))))


def frame_orthonormality_residual(bg: Background) -> float:
    """Max-norm of g(Y_p, Y_r) - eta_{pr} over the grid."""
    gram = np.einsum("...pm,...mn,...rn->...pr", bg.tetrad, bg.metric, bg.tetrad)
    return float(np.max(np.abs(gram - np.real(FRAME.metric))))


def covariant_derivative(psi: SpinorField, bg: Background, q: int) -> SpinorField:
    """Covariant derivative along frame direction q.

    nabla_q psi = Y_q^mu d_mu psi + A_q psi, with 4th-order differences;
    spatial axes are periodic, the time axis uses one-sided stencils at its
    ends, a suppressed axis gives zeros.  Every coefficient has a zero imaginary
    part, A_q included, so conj(nabla psi) = nabla conj(psi) exactly.  A
    field off the background's spatial grid raises GridMismatchError.
    """
    out = np.empty_like(psi.values)
    for s, e, _, nablas in _nabla_blocks(psi, bg, (q,)):
        np.copyto(out[s:e], np.moveaxis(nablas[q], 0, -1))
    return psi.with_values(out)


def _nabla_blocks(psi: SpinorField, bg: Background, qs: tuple[int, ...]):
    """The one nabla_q kernel: per block s .. e - 1 of _halo_blocks, (s, e, rows, {q: nabla_q psi on them}), component
    first (4, e - s, n1, n2, n3), in buffers the next block reuses.  The block and its halo are copied once as rows of
    component planes, wrapped by np.take along a spatial axis; 1 / (12 h) and Y_q^q scale the real view, rounding as
    numpy's complex divide and product by a real.  A suppressed axis gives zeros."""
    _check_grid(psi.chart, bg.chart)
    v, nt, spatial = psi.values, len(psi.values), psi.values.shape[1:-1]
    for q in qs:  # as differentiate: 1 node or at least 5
        if 1 < v.shape[q] < 5:
            raise ValueError(f"axis {q} has {v.shape[q]} nodes, need at least 5 for the stencil")
    n = min(_block_rows(spatial, halo=True), nt)
    halo, *nablas = np.zeros((1 + len(qs), min(n + 4, nt), 4) + spatial, dtype=np.complex128)
    tmp = np.empty_like(halo[:n])
    wraps = {q: np.empty(tmp.shape[: q + 1] + (v.shape[q] + 4,) + tmp.shape[q + 2 :], dtype=np.complex128) for q in qs if q and v.shape[q] > 1}
    for s, e, lo, hi in _halo_blocks(nt, spatial):
        np.copyto(halo[: hi - lo], np.moveaxis(v[lo:hi], -1, 1))
        rows, ds = halo[s - lo : e - lo], {}
        for q, d in zip(qs, nablas):
            (u, a), ds[q] = bg.frame_terms.get(q, (1.0, None)), d[s - lo : e - lo]  # no terms on a suppressed axis
            if q in wraps:
                src = np.take(rows, np.arange(-2, v.shape[q] + 2), axis=q + 1, out=wraps[q][: e - s], mode="wrap")
                _central(*(np.moveaxis(b, q + 1, 0) for b in (src, ds[q], tmp[: e - s])))
            elif v.shape[q] > 1:
                _bounded(halo[: hi - lo], d[: hi - lo], tmp)
            dr = ds[q].view(np.float64)
            for f in (1.0 / (12.0 * psi.chart.spacing[q]),) + (() if isinstance(u, float) else (u,)):
                np.multiply(dr, f, out=dr)
            if a is not None:
                ds[q] += np.moveaxis(np.einsum("xyzab,txyzb->txyza", a, v[s:e]), -1, 1)
        yield s, e, np.moveaxis(rows, 1, 0), {q: np.moveaxis(d, 1, 0) for q, d in ds.items()}


def _transport(v: np.ndarray, bg: Background, q: int, chart: MetricChart) -> np.ndarray:
    """Y_q^q d_q v on samples v[t, x1, x2, x3, ...] of a field on chart, for q in
    bg.frame_terms: the time axis takes one-sided end rows, a spatial axis wraps."""
    u = bg.frame_terms[q][0]
    d = differentiate(v, axis=q, spacing=chart.spacing[q], periodic=q > 0)
    return d if isinstance(u, float) else u[..., None] * d
