"""Charts, backgrounds and the metric spinor connection.

A chart is a 4D coordinate box with uniform axes.  Supported metric families
are the rectilinear Minkowski chart and static diagonal metrics
g = diag(g00(x1), -1, -1, -1).  A Background caches everything derived from
the metric on the spatial grid: tetrad, Christoffel symbols, the frame
connection one-form and the spinor connection coefficients.

Index conventions for cached arrays (leading axes are the spatial grid):
    metric[..., i, j]          coordinate components
    tetrad[..., q, mu]         frame vector q, coordinate component mu
    christoffel[..., k, i, j]  Gamma^k_{ij}
    omega[..., q, p, r]        frame-direction connection form, p r lowered
    spinor_connection[..., q, a, b]   A_q in the frame direction q
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fields import GridMismatchError, SpinorField
from .spin_algebra import FRAME
from .stencils import differentiate

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

PROFILES: dict[str, tuple[Callable[[np.ndarray, float], np.ndarray], bool]] = {
    # name -> (g00 profile of x1, periodic in x1)
    "linear": (lambda x, eps: 1.0 + eps * x, False),
    "sin": (lambda x, eps: 1.0 + eps * np.sin(x), True),
}


@dataclass(frozen=True)
class MetricChart:
    """Uniform 4D coordinate box carrying one of the supported metrics."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    periodic: tuple[bool, bool, bool, bool]
    family: str
    epsilon: float = 0.0
    profile: str = "linear"

    def __post_init__(self) -> None:
        if len(self.axes) != 4:
            raise ChartError("a chart needs 4 axes")
        for a in self.axes:
            if len(a) > 1:
                steps = np.diff(a)
                if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-14):
                    raise ChartError("axes must be uniform")
        if self.family not in FAMILIES:
            raise ChartError(f"unknown metric family {self.family!r}")
        if self.family == "static-diagonal" and self.profile not in PROFILES:
            raise ChartError(f"unknown profile {self.profile!r}")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        return tuple(len(a) for a in self.axes[1:])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(a) for a in self.axes)

    @property
    def spacing(self) -> tuple[float, float, float, float]:
        return tuple(float(a[1] - a[0]) if len(a) > 1 else 1.0 for a in self.axes)

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
        return replace(self, axes=(_time_axis(t_start, t_span, steps),) + self.axes[1:])

    def metric_values(self) -> np.ndarray:
        """Coordinate metric sampled on the spatial grid, shape (n1,n2,n3,4,4)."""
        n1, n2, n3 = self.spatial_shape
        g = np.zeros((n1, n2, n3, 4, 4))
        if self.family == "minkowski":
            g[...] = np.diag([1.0, -1.0, -1.0, -1.0])
            return g
        profile, _ = PROFILES[self.profile]
        g00 = profile(self.axes[1], self.epsilon)
        if np.any(g00 <= 0.0):
            raise ChartError("g00 must stay positive on the chart")
        g[..., 0, 0] = g00[:, None, None]
        for k in (1, 2, 3):
            g[..., k, k] = -1.0
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
    return MetricChart(axes=axes, periodic=(False, True, True, True), family="minkowski")


def static_diagonal_chart(
    t_start: float,
    t_span: float,
    steps: int,
    lengths: tuple[float, float, float],
    shape: tuple[int, int, int],
    epsilon: float,
    profile: str = "sin",
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> MetricChart:
    if profile not in PROFILES:
        raise ChartError(f"unknown profile {profile!r}")
    _, periodic_x1 = PROFILES[profile]
    if periodic_x1 or shape[0] == 1:
        x1 = _spatial_axis(lengths[0], shape[0], origin[0])
    else:
        x1 = origin[0] + np.linspace(0.0, lengths[0], shape[0])
    axes = (_time_axis(t_start, t_span, steps), x1) + tuple(
        _spatial_axis(lengths[k], shape[k], origin[k]) for k in (1, 2)
    )
    return MetricChart(
        axes=axes,
        periodic=(False, periodic_x1, True, True),
        family="static-diagonal",
        epsilon=epsilon,
        profile=profile,
    )


@dataclass(frozen=True)
class Background:
    """Chart plus every metric-derived array cached on the spatial grid."""

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


def _spatial_derivative(chart: MetricChart, values: np.ndarray, mu: int) -> np.ndarray:
    """Coordinate derivative of a static grid array; mu = 0 gives zeros."""
    if mu == 0:
        return np.zeros_like(values)
    return differentiate(values, axis=mu - 1, spacing=chart.spacing[mu], periodic=chart.periodic[mu])


def build_background(chart: MetricChart) -> Background:
    """Levi-Civita data and the induced spinor connection for the chart.

    Christoffel symbols come from 4th-order finite differences of the metric;
    the frame connection one-form follows from the tetrad, and the spinor
    coefficients are A_q = (1/4) omega_{q,pr} gamma^p gamma^r.  Failure modes:
    non-Lorentzian signature and vanishing metric determinant raise ChartError.
    """
    g = chart.metric_values()

    diag = np.stack([g[..., i, i] for i in range(4)], axis=-1)
    if np.any(diag[..., 0] <= 0.0) or np.any(diag[..., 1:] >= 0.0):
        raise ChartError("metric must have signature (+,-,-,-) on the whole grid")
    det = np.prod(diag, axis=-1)
    if np.any(np.abs(det) < 1e-300):
        raise ChartError("metric sample is singular")

    ginv = np.zeros_like(g)
    for i in range(4):
        ginv[..., i, i] = 1.0 / diag[..., i]

    # Diagonal tetrad: frame vector q points along coordinate q.
    scale = np.sqrt(np.abs(diag))
    tetrad = np.zeros_like(g)
    cotetrad = np.zeros_like(g)
    for q in range(4):
        tetrad[..., q, q] = 1.0 / scale[..., q]
        cotetrad[..., q, q] = scale[..., q]

    dg = np.stack([_spatial_derivative(chart, g, mu) for mu in range(4)], axis=-3)  # [..., mu, i, j]
    # Explicit loop form; 4x4x4 per grid point is cheap and keeps the index
    # bookkeeping obvious.  Symmetry in (i, j) is exact: the summands are the
    # same floats in the same order under i <-> j.
    christoffel = np.zeros(g.shape[:-2] + (4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                s = np.zeros(g.shape[:-2])
                for l in range(4):
                    s += ginv[..., k, l] * (dg[..., i, l, j] + dg[..., j, l, i] - dg[..., l, i, j])
                christoffel[..., k, i, j] = 0.5 * s

    # Coordinate-direction connection one-form omega_mu^p_r = e^p_nu (d_mu Y_r^nu + Gamma^nu_{mu lam} Y_r^lam).
    dtet = np.stack([_spatial_derivative(chart, tetrad, mu) for mu in range(4)], axis=-3)  # [..., mu, r, nu]
    omega_coord = np.einsum("...pn,...mrn->...mpr", cotetrad, dtet) + np.einsum(
        "...pn,...nml,...rl->...mpr", cotetrad, christoffel, tetrad
    )
    eta = np.real(FRAME.metric)
    omega_coord = np.einsum("ps,...msr->...mpr", eta, omega_coord)  # lower p

    # Frame-direction form and spinor coefficients.
    omega = np.einsum("...qm,...mpr->...qpr", tetrad, omega_coord)
    gamma_products = np.einsum("pab,rbc->prac", FRAME.gamma, FRAME.gamma)
    spinor_connection = 0.25 * np.einsum("...qpr,prab->...qab", omega, gamma_products)

    return Background(
        chart=chart,
        metric=g,
        tetrad=tetrad,
        christoffel=christoffel,
        omega=omega,
        spinor_connection=spinor_connection,
        sqrt_neg_det=np.sqrt(-det),
    )


@dataclass(frozen=True)
class ConcordanceReport:
    """Max-norm covariant derivatives of the five basic fields."""

    nabla_metric: float
    nabla_skew_metric: float
    nabla_chirality: float
    nabla_dirac_form: float
    nabla_gamma: float

    def as_dict(self) -> dict[str, float]:
        return {
            "nabla_metric": self.nabla_metric,
            "nabla_skew_metric": self.nabla_skew_metric,
            "nabla_chirality": self.nabla_chirality,
            "nabla_dirac_form": self.nabla_dirac_form,
            "nabla_gamma": self.nabla_gamma,
        }

    def max(self) -> float:
        return max(self.as_dict().values())


def concordance_residuals(bg: Background) -> ConcordanceReport:
    """Covariant constancy of g, d, H, D and the gamma field.

    All five fields have constant frame components, so their covariant
    derivatives reduce to connection contractions; the residuals measure how
    far the discretized connection is from a metric connection.
    """
    a = bg.spinor_connection             # [..., q, a, b]
    at = np.swapaxes(a, -1, -2)
    omega = bg.omega                     # [..., q, p, r] lowered
    eta = np.real(FRAME.metric)

    r_metric = float(np.max(np.abs(omega + np.swapaxes(omega, -1, -2))))

    d = FRAME.skew_metric
    r_skew = float(np.max(np.abs(np.einsum("...qab,bc->...qac", at, d) + np.einsum("ab,...qbc->...qac", d, a))))

    h = FRAME.chirality
    r_chir = float(np.max(np.abs(np.einsum("...qab,bc->...qac", a, h) - np.einsum("ab,...qbc->...qac", h, a))))

    df = FRAME.dirac_form
    r_dirac = float(
        np.max(np.abs(np.einsum("...qab,bc->...qac", at, df) + np.einsum("ab,...qbc->...qac", df, np.conj(a))))
    )

    omega_up = np.einsum("ps,...qsr->...qpr", eta, omega)  # raise p back
    rot = np.einsum("...qpr,rab->...qpab", omega_up, FRAME.gamma)
    comm = np.einsum("...qab,pbc->...qpac", a, FRAME.gamma) - np.einsum("pab,...qbc->...qpac", FRAME.gamma, a)
    r_gamma = float(np.max(np.abs(rot + comm)))

    return ConcordanceReport(
        nabla_metric=r_metric,
        nabla_skew_metric=r_skew,
        nabla_chirality=r_chir,
        nabla_dirac_form=r_dirac,
        nabla_gamma=r_gamma,
    )


def torsion_residual(bg: Background) -> float:
    """Max |Gamma^k_{ij} - Gamma^k_{ji}|; zero by construction, asserted not assumed."""
    return float(np.max(np.abs(bg.christoffel - np.swapaxes(bg.christoffel, -1, -2))))


def frame_orthonormality_residual(bg: Background) -> float:
    """Max-norm of g(Y_p, Y_r) - eta_{pr} over the grid."""
    eta = np.real(FRAME.metric)
    gram = np.einsum("...pm,...mn,...rn->...pr", bg.tetrad, bg.metric, bg.tetrad)
    return float(np.max(np.abs(gram - eta)))


def covariant_derivative(psi: SpinorField, bg: Background, q: int) -> SpinorField:
    """Covariant derivative along frame direction q.

    nabla_q psi = Y_q^mu d_mu psi + A_q psi, with 4th-order differences;
    spatial axes honour the chart's periodicity flags, the time axis uses
    one-sided stencils at its ends.  Conjugate fields use the conjugated
    coefficients, so conj(nabla psi) = nabla conj(psi) exactly.
    """
    if psi.chart is not bg.chart and psi.chart.spatial_shape != bg.chart.spatial_shape:
        raise GridMismatchError("field and background live on different grids")
    chart = bg.chart
    v = psi.values

    # Diagonal tetrad: direction q only involves coordinate mu = q.
    if q == 0:
        dv = differentiate(v, axis=0, spacing=psi.dt, periodic=False)
    else:
        dv = differentiate(v, axis=q, spacing=chart.spacing[q], periodic=chart.periodic[q])

    u = bg.tetrad[..., q, q]  # (n1,n2,n3)
    out = u[None, ..., None] * dv
    aq = bg.spinor_connection[..., q, :, :]
    if np.any(aq != 0.0):
        out = out + np.einsum("xyzab,txyzb->txyza", aq, v)
    return psi.with_values(out)
