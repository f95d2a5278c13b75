"""Field equation, time evolution, conserved current and the action.

Coordinate convention: axis 0 is x0 = c t, so all four coordinates carry
dimension of length in CGS units and x0 equals t in natural units.  A plane
wave is u exp(i(k.x - w x0)) with w = sqrt(|k|^2 + mu^2) and mu = mc/hbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .fields import CurrentField, SpinorField
from .geometry import Background, MetricChart, covariant_derivative
from .spin_algebra import FRAME
from .stencils import differentiate

__all__ = [
    "EvolutionUnstableError",
    "TimelikeReport",
    "dirac_residual",
    "evolve",
    "current",
    "pair_current",
    "current_norm",
    "closed_form_current_norm",
    "timelike_report",
    "divergence",
    "action_value",
    "dispersion_mode",
    "plane_wave",
    "gaussian_packet",
    "grid_norm",
]


class EvolutionUnstableError(RuntimeError):
    """Norm growth exceeded the configured bound during time stepping."""

    def __init__(self, step: int, time: float, ratio: float):
        self.step = step
        self.time = time
        self.ratio = ratio
        super().__init__(
            f"evolution unstable: norm ratio {ratio:.3e} at step {step}, x0 = {time:.6g}"
        )


# M^q with (M^q)_{abar b} = sum_a D_{a abar} gamma^{a q}_b; Hermitian.
_PAIRING = np.einsum("aA,qab->qAb", FRAME.dirac_form, FRAME.gamma)


def grid_norm(values: np.ndarray, chart: MetricChart) -> float:
    """L2 norm of spatial spinor samples with cell-volume weighting."""
    dens = np.sum(np.abs(values) ** 2, axis=-1)
    return float(np.sqrt(np.sum(dens) * chart.cell_volume))


def dirac_residual(psi: SpinorField, bg: Background, k: PhysicalConstants) -> SpinorField:
    """i hbar sum_q gamma^q nabla_q psi - m c psi, returned as a field."""
    acc = np.zeros_like(psi.values)
    for q in range(4):
        nabla = covariant_derivative(psi, bg, q).values
        acc += np.einsum("ab,txyzb->txyza", FRAME.gamma[q], nabla)
    res = 1j * k.hbar * acc - (k.mass * k.c) * psi.values
    return psi.with_values(res)


def evolve(
    initial: np.ndarray,
    bg: Background,
    k: PhysicalConstants,
    growth_abort: float = 10.0,
) -> SpinorField:
    """March the field over the chart's time axis with classical RK4.

    ``initial`` holds the spinor samples on the spatial grid at the first
    time node.  Spatial derivatives are 4th-order with periodic wrap.  The
    run aborts with EvolutionUnstableError when the L2 norm grows past
    ``growth_abort`` times its initial value or stops being finite.
    """
    chart = bg.chart
    initial = np.asarray(initial, dtype=np.complex128)
    if initial.shape != chart.spatial_shape + (4,):
        raise ValueError("initial data does not match the chart's spatial grid")

    taxis = chart.axes[0]
    steps = len(taxis) - 1
    dt = chart.dt
    mu = k.compton_wavenumber
    gamma = FRAME.gamma
    u0 = bg.tetrad[..., 0, 0]
    a_frame = bg.spinor_connection
    has_connection = bool(np.any(a_frame != 0.0))
    active = [ax for ax in (1, 2, 3) if len(chart.axes[ax]) > 1]

    def rhs(v: np.ndarray) -> np.ndarray:
        acc = (-1j * mu) * v
        for ax in active:
            dv = differentiate(v, axis=ax - 1, spacing=chart.spacing[ax], periodic=chart.periodic[ax])
            nabla = bg.tetrad[..., ax, ax, None] * dv
            if has_connection:
                nabla = nabla + np.einsum("xyzab,xyzb->xyza", a_frame[..., ax, :, :], v)
            acc = acc - np.einsum("ab,xyzb->xyza", gamma[ax], nabla)
        out = np.einsum("ab,xyzb->xyza", gamma[0], acc)
        if has_connection:
            out = out - np.einsum("xyzab,xyzb->xyza", a_frame[..., 0, :, :], v)
        return out / u0[..., None]

    snapshots = np.empty((steps + 1,) + initial.shape, dtype=np.complex128)
    snapshots[0] = initial
    norm0 = grid_norm(initial, chart)
    if norm0 == 0.0:
        norm0 = 1.0

    v = initial
    for n in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + (0.5 * dt) * k1)
        k3 = rhs(v + (0.5 * dt) * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        snapshots[n + 1] = v
        nrm = grid_norm(v, chart)
        if not np.isfinite(nrm) or nrm > growth_abort * norm0:
            ratio = nrm / norm0 if np.isfinite(nrm) else float("inf")
            raise EvolutionUnstableError(step=n + 1, time=float(taxis[n + 1]), ratio=ratio)

    return SpinorField(chart=chart, taxis=taxis, values=snapshots)


def _raw_pair_current(phi_values: np.ndarray, psi_values: np.ndarray, k: PhysicalConstants) -> np.ndarray:
    return k.c * np.einsum("...A,qAb,...b->...q", np.conj(phi_values), _PAIRING, psi_values)


def current(psi: SpinorField, k: PhysicalConstants) -> CurrentField:
    """Conserved current of one field; components are checked real, then kept
    as floats.  The reality bound is 1e-13 relative to max(1, |J|)."""
    j = _raw_pair_current(psi.values, psi.values, k)
    scale = max(1.0, float(np.max(np.abs(j))) if j.size else 1.0)
    imag = float(np.max(np.abs(j.imag))) if j.size else 0.0
    if imag > 1e-13 * scale:
        raise ValueError(f"current reality violated: max imaginary part {imag:.3e}")
    return CurrentField(chart=psi.chart, taxis=psi.taxis, values=j.real)


def pair_current(phi: SpinorField, psi: SpinorField, k: PhysicalConstants) -> CurrentField:
    """Sesquilinear current of two fields; complex in general."""
    j = _raw_pair_current(phi.values, psi.values, k)
    return CurrentField(chart=psi.chart, taxis=psi.taxis, values=j)


def current_norm(values: np.ndarray) -> np.ndarray:
    """g(J, J) in frame components: (J^0)^2 - |vec J|^2, pointwise."""
    v = np.asarray(values)
    return v[..., 0] ** 2 - v[..., 1] ** 2 - v[..., 2] ** 2 - v[..., 3] ** 2


def closed_form_current_norm(psi_values: np.ndarray, k: PhysicalConstants) -> np.ndarray:
    """Quartic closed form of g(J, J) in the spinor components."""
    p = np.asarray(psi_values)
    t = (
        np.abs(p[..., 0]) ** 2 * np.abs(p[..., 2]) ** 2
        + np.abs(p[..., 1]) ** 2 * np.abs(p[..., 3]) ** 2
        + 2.0 * np.real(p[..., 0] * np.conj(p[..., 1]) * p[..., 3] * np.conj(p[..., 2]))
    )
    return 4.0 * k.c**2 * t


@dataclass(frozen=True)
class TimelikeReport:
    """Pointwise causal character of the current over a sample set."""

    min_norm: float
    min_time_component: float
    closed_form_mismatch: float
    reality_residual: float
    samples: int


def timelike_report(psi_values: np.ndarray, k: PhysicalConstants) -> TimelikeReport:
    """g(J,J) and J^0 extrema plus the closed-form cross-check.

    Takes raw spinor samples of shape (..., 4); the current is evaluated
    pointwise, its norm both by metric contraction and by the quartic closed
    form, and the worst relative mismatch is reported.
    """
    p = np.asarray(psi_values, dtype=np.complex128)
    j = _raw_pair_current(p, p, k)
    reality = float(np.max(np.abs(j.imag))) if j.size else 0.0
    jr = j.real
    norm_direct = current_norm(jr)
    norm_closed = closed_form_current_norm(p, k)
    denom = np.maximum.reduce([np.abs(norm_direct), np.abs(norm_closed), jr[..., 0] ** 2])
    denom = np.maximum(denom, 1e-300)
    mismatch = float(np.max(np.abs(norm_direct - norm_closed) / denom))
    return TimelikeReport(
        min_norm=float(np.min(norm_direct)),
        min_time_component=float(np.min(jr[..., 0])),
        closed_form_mismatch=mismatch,
        reality_residual=reality,
        samples=int(np.prod(norm_direct.shape)) if norm_direct.shape else 1,
    )


def divergence(j: CurrentField, bg: Background) -> np.ndarray:
    """sum_q nabla_q J^q over the grid, shape (nt, n1, n2, n3)."""
    chart = bg.chart
    v = j.values
    eta = np.real(FRAME.metric)

    out = bg.tetrad[None, ..., 0, 0] * differentiate(v[..., 0], axis=0, spacing=j.dt, periodic=False)
    for ax in (1, 2, 3):
        dv = differentiate(v[..., ax], axis=ax, spacing=chart.spacing[ax], periodic=chart.periodic[ax])
        out = out + bg.tetrad[None, ..., ax, ax] * dv

    if not bg.is_flat:
        # Connection trace sum_q omega_q^q_r J^r; omega is stored with both
        # frame indices lowered, so the raise is the diagonal eta factor.
        trace = np.einsum("q,xyzqqr->xyzr", np.diag(eta), bg.omega)
        out = out + np.einsum("xyzr,txyzr->txyz", trace, v)
    return out


def action_value(
    psi: SpinorField,
    bg: Background,
    k: PhysicalConstants,
    region: tuple[slice, slice, slice, slice] | None = None,
) -> complex:
    """Discretized action of the field over a coordinate sub-box.

    The derivative part is antisymmetrized between psi and its conjugate, so
    the integrand is real pointwise up to rounding; integration uses cell
    weights sqrt(-det g) with trapezoid ends on the time axis.
    """
    chart = psi.chart

    dens = np.zeros(psi.values.shape[:-1], dtype=np.complex128)
    for q in range(4):
        nab = covariant_derivative(psi, bg, q).values
        zq = np.einsum("...A,Ab,...b->...", np.conj(psi.values), _PAIRING[q], nab)
        dens += 0.5j * k.hbar * (zq - np.conj(zq))
    mass_dens = np.einsum("...A,Ab,...b->...", np.conj(psi.values), FRAME.dirac_form.T, psi.values)
    dens -= (k.mass * k.c) * mass_dens

    weights = np.ones(dens.shape)
    if len(psi.taxis) > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    vol = bg.sqrt_neg_det[None, ...]
    cell = (psi.dt if len(psi.taxis) > 1 else 1.0) * chart.cell_volume

    integrand = dens * weights * vol
    if region is not None:
        integrand = integrand[region]
    return complex(np.sum(integrand) * cell)


def dispersion_mode(
    kvec: tuple[float, float, float],
    k: PhysicalConstants,
    spin: int = 0,
    branch: int = +1,
) -> tuple[float, np.ndarray]:
    """Frequency and unit spinor of a plane-wave solution.

    Solves (w gamma^0 - k.gamma - mu) u = 0 by applying the complementary
    factor (w gamma^0 - k.gamma + mu) to a seed basis column; w is
    branch * sqrt(|k|^2 + mu^2) with mu = mc/hbar.
    """
    if spin not in (0, 1):
        raise ValueError("spin must be 0 or 1")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    mu = k.compton_wavenumber
    kk = np.asarray(kvec, dtype=float)
    w = branch * float(np.sqrt(kk @ kk + mu * mu))
    a = w * FRAME.gamma[0] - sum(kk[i] * FRAME.gamma[i + 1] for i in range(3))
    u = (a + mu * np.eye(4)) @ np.eye(4)[:, spin]
    nrm = np.linalg.norm(u)
    if nrm < 1e-12:
        raise ValueError("degenerate mode seed; massless zero-momentum modes are not defined")
    return w, u / nrm


def _wave_numbers(chart: MetricChart, k_index: tuple[int, int, int]) -> np.ndarray:
    kk = np.zeros(3)
    for ax in range(3):
        n = len(chart.axes[ax + 1])
        if k_index[ax] != 0:
            if n == 1:
                raise ValueError("nonzero wave index on a suppressed axis")
            length = n * chart.spacing[ax + 1]
            kk[ax] = 2.0 * np.pi * k_index[ax] / length
    return kk


def plane_wave(
    chart: MetricChart,
    k_index: tuple[int, int, int],
    k: PhysicalConstants,
    spin: int = 0,
    branch: int = +1,
) -> SpinorField:
    """Analytic plane-wave solution sampled on the whole chart.

    Wave numbers are integer multiples of the box harmonics, so the samples
    are exactly periodic.  The amplitude is set so the spatial integral of
    |psi|^2 equals one.
    """
    if chart.family != "minkowski":
        raise ValueError("plane waves are defined on the flat chart")
    kk = _wave_numbers(chart, k_index)
    w, u = dispersion_mode(tuple(kk), k, spin=spin, branch=branch)
    t = chart.axes[0]
    phase = -w * t[:, None, None, None]
    for ax in range(3):
        shape = [1, 1, 1, 1]
        shape[ax + 1] = len(chart.axes[ax + 1])
        phase = phase + kk[ax] * chart.axes[ax + 1].reshape(shape)
    amp = 1.0 / np.sqrt(chart.spatial_volume)
    values = amp * np.exp(1j * phase)[..., None] * u
    return SpinorField(chart=chart, taxis=t, values=values)


def gaussian_packet(
    chart: MetricChart,
    k: PhysicalConstants,
    center: float,
    width: float,
    carrier_index: int = 0,
) -> np.ndarray:
    """Normalized Gaussian initial data along x1 with a plane-wave carrier.

    The carrier spinor is the spin-0, positive-branch mode.  Not a solution;
    intended as initial data for ``evolve``.  The envelope must decay to
    rounding at the periodic wrap for flux statements to hold.
    """
    kk = _wave_numbers(chart, (carrier_index, 0, 0))
    _, u = dispersion_mode(tuple(kk), k)
    x = chart.axes[1]
    env = np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(1j * kk[0] * x)
    values = env[:, None, None, None] * u
    values = np.broadcast_to(values, chart.spatial_shape + (4,)).copy()
    nrm = grid_norm(values, chart)
    return values / nrm
