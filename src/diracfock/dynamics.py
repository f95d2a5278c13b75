"""Field equation, time evolution, conserved current and the action.

Coordinate convention: axis 0 is x0 = c t, so all four coordinates carry
dimension of length in CGS units and x0 equals t in natural units.  A plane
wave is u exp(i(k.x - w x0)) with w = sqrt(|k|^2 + mu^2) and mu = mc/hbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .fields import CurrentField, GridMismatchError, SpinorField
from .geometry import Background, MetricChart, _nabla, covariant_derivative
from .spin_algebra import _DIRAC_FORM_ROWS, _GAMMA_ROWS, _PAIRING_ROWS, FRAME, _apply, _Rows
from .stencils import differentiate

__all__ = [
    "CurrentRealityError",
    "EvolutionUnstableError",
    "TimelikeReport",
    "dirac_residual",
    "evolve",
    "current",
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


class CurrentRealityError(ValueError):
    """A field's current has an imaginary part above the reality bound."""


class EvolutionUnstableError(RuntimeError):
    """Norm growth exceeded the configured bound during time stepping."""

    def __init__(self, step: int, time: float, ratio: float):
        self.step = step
        self.time = time
        self.ratio = ratio
        super().__init__(
            f"evolution unstable: norm ratio {ratio:.3e} at step {step}, x0 = {time:.6g}"
        )


def grid_norm(values: np.ndarray, chart: MetricChart) -> float:
    """L2 norm of spatial spinor samples with cell-volume weighting."""
    dens = np.sum(np.abs(values) ** 2, axis=-1)
    return float(np.sqrt(np.sum(dens) * chart.cell_volume))


def dirac_residual(psi: SpinorField, bg: Background, k: PhysicalConstants) -> SpinorField:
    """i hbar sum_q gamma^q nabla_q psi - m c psi, returned as a field."""
    acc = np.zeros_like(psi.values)
    for q in bg.frame_terms:
        nabla = covariant_derivative(psi, bg, q).values
        acc += _apply(_GAMMA_ROWS[q], nabla)
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
    snapshots = np.empty((len(chart.axes[0]),) + initial.shape, dtype=np.complex128)
    for n, v in enumerate(_march(initial, bg, k, growth_abort)):
        snapshots[n] = v
    return SpinorField(chart=chart, values=snapshots)


def _march(initial: np.ndarray, bg: Background, k: PhysicalConstants, growth_abort: float):
    """The one RK4 loop, over one field (n1, n2, n3, 4) or a batch (B, n1, n2, n3, 4):
    yields the initial data, then each step.  Aborts at the first step where a member's
    norm passes growth_abort times its own initial norm (1 for zero data) or stops
    being finite, naming the lowest-index such member."""
    chart = bg.chart
    taxis = chart.axes[0]
    dt = chart.dt
    mu = k.compton_wavenumber
    u0, a0 = bg.frame_terms[0]
    spatial = [q for q in bg.frame_terms if q > 0]
    spacing = chart.spacing

    # gamma^0 gamma^0 = 1 turns sum_q gamma^q nabla_q psi = -i mu psi into
    # u_0 d_0 psi = gamma^0 (-i mu psi - sum_spatial gamma^q nabla_q psi) - A_0 psi.
    # The batch axis sits where _nabla reads time.
    def rhs(v: np.ndarray) -> np.ndarray:
        acc = (-1j * mu) * v
        for q in spatial:
            acc = acc - _apply(_GAMMA_ROWS[q], _nabla(v, bg, q, spacing[q]))
        out = _apply(_GAMMA_ROWS[0], acc)
        if a0 is not None:
            out = out - np.einsum("xyzab,txyzb->txyza", a0, v)
        return out if isinstance(u0, float) else out / u0[..., None]

    v = initial.reshape((-1,) + initial.shape[-4:])
    norm0 = [grid_norm(m, chart) or 1.0 for m in v]
    yield initial
    for n in range(len(taxis) - 1):
        k1 = rhs(v)
        k2 = rhs(v + (0.5 * dt) * k1)
        k3 = rhs(v + (0.5 * dt) * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for m, m0 in zip(v, norm0):
            nrm = grid_norm(m, chart)
            if not np.isfinite(nrm) or nrm > growth_abort * m0:
                ratio = nrm / m0 if np.isfinite(nrm) else float("inf")
                raise EvolutionUnstableError(step=n + 1, time=float(taxis[n + 1]), ratio=ratio)
        yield v.reshape(initial.shape)


# Samples per block of the current's contraction: one real scratch row is 32 KiB.
_BLOCK = 4096


def _pair_plan(same: bool):
    """The pairs (a, b) whose conj(phi_a) psi_b = R_ab + i I_ab the rows of
    D^T gamma^q use, and for Re J^q and Im J^q (output rows 2q, 2q + 1) the
    (index into [R..., I...], sign) of each spinor row a's term, in order
    a = 0..3.  When phi is psi, R_ba = R_ab and I_ba = -I_ab exactly, so a
    pair b < a reads (b, a)."""

    def key(a: int, b: int) -> tuple[int, int]:
        return (b, a) if same and b < a else (a, b)

    rows = [list(zip(r.perm.tolist(), r.phase.tolist())) for r in _PAIRING_ROWS]
    pairs = sorted({key(a, b) for row in rows for a, (b, _) in enumerate(row)})
    terms: list[list[tuple[int, float]]] = []
    for row in rows:
        re, im = [], []
        for a, (b, p) in enumerate(row):
            r = pairs.index(key(a, b))
            i = len(pairs) + r
            flip = 1.0 if key(a, b) == (a, b) else -1.0
            # p (R + i I) = (p.re R - p.im I) + i (p.re I + p.im R)
            if p.real:
                re.append((r, p.real))
                im.append((i, p.real * flip))
            else:
                re.append((i, -p.imag * flip))
                im.append((r, p.imag))
        terms += [re, im]
    return pairs, terms


def _raw_pair_current(phi_values: np.ndarray, psi_values: np.ndarray, k: PhysicalConstants) -> np.ndarray:
    """c phi^dagger D^T gamma^q psi for q = 0..3, complex, shape (..., 4).

    Contracted from the signed-permutation rows, _BLOCK samples at a time in
    real arithmetic: R_ab and I_ab are formed once per pair the rows use, and
    each J^q sums its rows in order a = 0..3, the phase (+-1, +-i) choosing R
    or I and the sign.  For J(psi, psi) that order cancels Im J^q exactly.
    """
    same = phi_values is psi_values
    phi = np.asarray(phi_values, dtype=np.complex128)
    psi = phi if same else np.asarray(psi_values, dtype=np.complex128)
    shape = phi.shape
    phi, psi = phi.reshape(-1, 4), psi.reshape(-1, 4)
    pairs, terms = _pair_plan(same)

    n = min(_BLOCK, len(phi))
    x = np.empty((2, 4, n))  # re, im of each spinor component
    y = x if same else np.empty((2, 4, n))
    ri = np.empty((2 * len(pairs), n))  # R of each pair, then I
    t, acc = np.empty(n), np.empty((8, n))
    out = np.empty(phi.shape, dtype=np.complex128)
    flat = out.view(np.float64)  # column 2q + (0 re, 1 im)
    for s in range(0, len(phi), _BLOCK):
        m = min(_BLOCK, len(phi) - s)
        x_, y_, ri_, t_, acc_ = (b[..., :m] for b in (x, y, ri, t, acc))
        for buf, v in ((x_, phi),) if same else ((x_, phi), (y_, psi)):
            buf[0] = v[s : s + m].real.T
            buf[1] = v[s : s + m].imag.T
        for p, (a, b) in enumerate(pairs):
            r, i = ri_[p], ri_[len(pairs) + p]
            np.multiply(x_[0, a], y_[0, b], out=r)
            r += np.multiply(x_[1, a], y_[1, b], out=t_)
            np.multiply(x_[0, a], y_[1, b], out=i)
            i -= np.multiply(x_[1, a], y_[0, b], out=t_)
        for j, ((src, sg), *rest) in enumerate(terms):
            np.multiply(ri_[src], sg, out=acc_[j])
            for src, sg in rest:
                (np.add if sg > 0 else np.subtract)(acc_[j], ri_[src], out=acc_[j])
        flat[s : s + m] = acc_.T
        out[s : s + m] *= k.c
    return out.reshape(shape)


def current(psi: SpinorField, k: PhysicalConstants) -> CurrentField:
    """Conserved current of one field; components are checked real, then kept
    as floats.  The reality bound is 1e-13 relative to max(1, |J|)."""
    j = _raw_pair_current(psi.values, psi.values, k)
    scale = max(1.0, float(np.max(np.abs(j))) if j.size else 1.0)
    imag = float(np.max(np.abs(j.imag))) if j.size else 0.0
    if imag > 1e-13 * scale:
        raise CurrentRealityError(f"current reality violated: max imaginary part {imag:.3e}")
    return CurrentField(chart=psi.chart, values=np.ascontiguousarray(j.real))


def current_norm(values: np.ndarray) -> np.ndarray:
    """g(J, J) in frame components: (J^0)^2 - |vec J|^2, pointwise."""
    v = np.asarray(values)
    return v[..., 0] ** 2 - v[..., 1] ** 2 - v[..., 2] ** 2 - v[..., 3] ** 2


def closed_form_current_norm(psi_values: np.ndarray, k: PhysicalConstants) -> np.ndarray:
    """Quartic closed form of g(J, J) in the spinor components.

    The complex product is taken as ((conj(p1) p0) p3) conj(p2) in that
    operand order at every size, the order temporary elision gives above
    256 KiB (see ``_form``).
    """
    p = np.asarray(psi_values)
    t = np.abs(p[..., 0]) ** 2 * np.abs(p[..., 2]) ** 2 + np.abs(p[..., 1]) ** 2 * np.abs(p[..., 3]) ** 2
    x = np.conj(p[..., 1])
    np.multiply(x, p[..., 0], out=x)
    np.multiply(x, p[..., 3], out=x)
    np.multiply(x, np.conj(p[..., 2]), out=x)
    t += 2.0 * np.real(x)
    t *= 4.0 * k.c**2  # in place: allocating here while x is alive raised peak RSS by 0.5 MB
    return t


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
    out = None  # time comes first in frame_terms and always differentiates
    for q, (u, _) in bg.frame_terms.items():
        if u is not None:
            h = j.chart.dt if q == 0 else chart.spacing[q]
            d = differentiate(j.values[..., q], axis=q, spacing=h, periodic=q > 0 and chart.periodic[q])
            d = d if isinstance(u, float) else u * d
            out = d if out is None else out + d

    if not bg.is_flat:
        # Connection trace sum_q omega_q^q_r J^r; omega is stored with both
        # frame indices lowered, so the raise is the diagonal eta factor.
        trace = np.einsum("q,xyzqqr->xyzr", np.diagonal(np.real(FRAME.metric)), bg.omega)
        out = out + np.einsum("xyzr,txyzr->txyz", trace, j.values)
    return out


# Grid samples per block of time rows of the action density (at least 8 rows):
# 32 rows at n1 = 256, where one block's conjugate is 512 KiB.
_ACTION_BLOCK = 8192


def action_value(
    psi: SpinorField,
    bg: Background,
    k: PhysicalConstants,
) -> complex:
    """Discretized action of the field over the chart.

    The derivative part is antisymmetrized between psi and its conjugate, so
    it is real exactly; the mass form is real up to rounding, and the density
    stays complex so that rounding shows.  The forms are contracted from
    their signed-permutation rows, over blocks of time rows: nabla_0 of a
    block is read from the block with a 2-row halo on each side (clamped
    to the axis, so the one-sided end rows see the same 5 rows as on the
    whole axis), the spatial nabla_q from the block alone.  Only the complex
    density spans the whole history.  Integration uses cell weights
    sqrt(-det g) with trapezoid ends on the time axis.  A time axis of 2 to
    4 nodes raises ValueError, as the stencil does.
    """
    if psi.chart is not bg.chart and psi.chart.spatial_shape != bg.chart.spatial_shape:
        raise GridMismatchError("field and background live on different grids")
    v = psi.values
    nt, spatial = v.shape[0], v.shape[1:-1]
    block = max(8, _ACTION_BLOCK // int(np.prod(spatial)))
    h = (psi.chart.dt,) + bg.chart.spacing[1:]
    dens = np.zeros(v.shape[:-1], dtype=np.complex128)
    n = min(block, nt)
    cpsi = np.empty((4, n) + spatial, dtype=np.complex128)  # planar: component a first
    z, t = np.empty((2, n) + spatial, dtype=np.complex128)
    for s in range(0, nt, block):
        e = min(s + block, nt)
        m = e - s
        cpsi_, z_, t_, d = cpsi[:, :m], z[:m], t[:m], dens[s:e]
        np.conjugate(np.moveaxis(v[s:e], -1, 0), out=cpsi_)
        for q in bg.frame_terms:
            if q == 0:
                lo, hi = max(0, min(s - 2, nt - 5)), min(nt, max(e + 2, 5))
                w = _nabla(v[lo:hi], bg, 0, h[0])[s - lo : s - lo + m]
            else:
                w = _nabla(v[s:e], bg, q, h[q])
            _form(cpsi_, _PAIRING_ROWS[q], w, z_, t_)
            np.subtract(z_, np.conjugate(z_, out=t_), out=z_)
            d += np.multiply(z_, 0.5j * k.hbar, out=z_)
        d -= np.multiply(_form(cpsi_, _DIRAC_FORM_ROWS.T, v[s:e], z_, t_), k.mass * k.c, out=z_)
    return _integrate(dens, psi.chart, bg)


def _form(cpsi: np.ndarray, rows: _Rows, w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_ab cpsi_a M_ab w_b for the signed permutation M into ``out``, with cpsi
    planar (component a first), one component a at a time.

    Each complex product is (phase w_b) cpsi_a in that operand order at every
    size: the SIMD complex multiply is not symmetric in rounding, and numpy's
    temporary elision would swap a written cpsi_a (phase w_b) above 256 KiB.
    """
    for a in range(4):
        dst = out if a == 0 else tmp
        np.multiply(w[..., rows.perm[a]], rows.phase[a], out=dst)
        np.multiply(dst, cpsi[a], out=dst)
        if a:
            out += tmp
    return out


def _integrate(dens: np.ndarray, chart: MetricChart, bg: Background) -> complex:
    """Sum of a density over the chart: cell weights sqrt(-det g) dt dV with
    trapezoid ends on the time axis."""
    weights = np.ones(dens.shape)
    if len(chart.axes[0]) > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    vol = bg.sqrt_neg_det[None, ...]
    cell = chart.dt * chart.cell_volume
    return complex(np.sum(dens * weights * vol) * cell)


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
    return SpinorField(chart=chart, values=values)


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
    rounding at the periodic wrap for flux statements to hold; an envelope
    that underflows to zero on every x1 node raises ValueError.
    """
    kk = _wave_numbers(chart, (carrier_index, 0, 0))
    _, u = dispersion_mode(tuple(kk), k)
    x = chart.axes[1]
    env = np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(1j * kk[0] * x)
    values = env[:, None, None, None] * u
    values = np.broadcast_to(values, chart.spatial_shape + (4,)).copy()
    nrm = grid_norm(values, chart)
    if nrm == 0.0:
        raise ValueError("packet envelope is zero on every x1 node")
    return values / nrm
