"""Field equation, time evolution, conserved current and the action.

Coordinate convention: axis 0 is x0 = c t, so all four coordinates carry
dimension of length in CGS units and x0 equals t in natural units.  A plane
wave is u exp(i(k.x - w x0)) with w = sqrt(|k|^2 + mu^2) and mu = mc/hbar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import PhysicalConstants
from .fields import _BLOCK, CurrentField, SpinorField, _block_rows, _check_grid, _halo_blocks
from .geometry import Background, MetricChart, _nabla_blocks, _transport, covariant_derivative
from .spin_algebra import _DIRAC_FORM_ROWS, _GAMMA_ROWS, _PAIRING_ROWS, FRAME, _apply, _Rows
from .stencils import _central, differentiate  # noqa: F401 (perfbench's wrapper test reads dynamics.differentiate)

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
    return _norms(np.moveaxis(np.asarray(values)[None], -1, 0), chart.cell_volume)[0]


def _norms(v: np.ndarray, cell_volume: float) -> list[float]:
    """grid_norm of each member of a planar batch v (4, B, ...): |v_a|^2 summed over
    a = 0..3, then over the member; inf past the float range, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        dens = ((np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2) + np.abs(v[2]) ** 2) + np.abs(v[3]) ** 2
        return np.sqrt(np.sum(dens.reshape(len(dens), -1), axis=1) * cell_volume).tolist()


def dirac_residual(psi: SpinorField, bg: Background, k: PhysicalConstants) -> SpinorField:
    """i hbar sum_q gamma^q nabla_q psi - m c psi as a field; per block of time rows, nabla_q is covariant_derivative
    on the block and its halo on nodes 0, dt, ... (it reads dt; a window of an offset axis may fail the chart check)."""
    v, out = psi.values, np.empty_like(psi.values)
    for s, e, lo, hi in _halo_blocks(len(v), v.shape[1:-1]):
        part = replace(psi, chart=replace(psi.chart, axes=(psi.chart.step[0] * np.arange(hi - lo),) + psi.chart.axes[1:]), values=v[lo:hi])
        acc = np.zeros_like(out[s:e])
        for q in bg.frame_terms:
            acc += _apply(_GAMMA_ROWS[q], covariant_derivative(part, bg, q).values[s - lo : e - lo])
        out[s:e] = 1j * k.hbar * acc - (k.mass * k.c) * v[s:e]
    return psi.with_values(out)


def evolve(
    initial: np.ndarray,
    bg: Background,
    k: PhysicalConstants,
    growth_abort: float = 10.0,
) -> SpinorField:
    """March the field over the chart's time axis with classical RK4.

    ``initial`` holds the spinor samples on the spatial grid at the first
    time node.  Spatial derivatives are 4th-order central, through a wraparound
    halo, in the skew split form of ``_operator``.  The run aborts with
    EvolutionUnstableError when the L2 norm grows past ``growth_abort`` times
    its initial value or stops being finite.
    """
    initial = np.asarray(initial, dtype=np.complex128)
    if initial.shape != bg.chart.spatial_shape + (4,):
        raise ValueError("initial data does not match the chart's spatial grid")
    values = np.empty((len(bg.chart.axes[0]),) + initial.shape, dtype=np.complex128)
    for n, v in enumerate(_march(initial, bg, k, growth_abort)):
        values[n] = v
    return SpinorField(chart=bg.chart, values=values)


def _operator(bg: Background, k: PhysicalConstants, shape: tuple[int, ...], stages: int):
    """rhs(v, out): d_0 psi = -i mu a gamma^0 psi - gamma^0 gamma^1 (a D_1 psi + D_1(a psi)) / 2
    - sum_{q=2,3} gamma^0 gamma^q a D_q psi, a = sqrt(g00) = 1 / Y_0^0, into ``out`` for planar
    states of ``shape`` (4, B, n1, n2, n3), and ``stages`` state buffers for the caller.  Each
    term picks planes of v along gamma^0 or the precomposed gamma^0 gamma^q, times a phase +-1
    or +-i (the mass's times -i mu a); the bits are those of the same sums on (..., 4) samples,
    as 1 / (12 h) on a real view is numpy's complex divide.  The x1 sum a D~psi + D~(a psi) of
    the periodic stencil D~ is scaled once by 1 / (24 h), so L = -L^H bit for bit; on the flat
    chart a is 1 and never applied.  Every buffer, the derivatives, a scratch and one halo
    shared by the axes included, is a view of one allocation, freed whole: separate buffers
    freed in the heap's middle stay resident."""
    chart, size, curved = bg.chart, int(np.prod(shape)), not bg.is_flat
    g0, a = _GAMMA_ROWS[0], np.sqrt(bg.metric[..., 0, 0]) if curved else 1.0  # on the x1 column (n1, 1, 1)
    mass = [(p, m * a if curved else m) for p, m in zip(g0.perm.tolist(), (-1j * k.compton_wavenumber * g0.phase).tolist())]
    axes = [q for q in (1, 2, 3) if shape[q + 1] > 1]
    count = stages + 2 + (curved and 1 in axes)  # the split form's D~(a psi) takes one more
    halo_size = max([size // shape[q + 1] * (shape[q + 1] + 4) for q in axes], default=0)
    block = np.empty(count * size + halo_size, dtype=np.complex128)
    bufs = [block[i * size : (i + 1) * size].reshape(shape) for i in range(count)]
    d, tmp, pool = bufs[stages], bufs[stages + 1], block[count * size :]
    dr = d.view(np.float64)  # a and the scales vary along x1 at most, so they scale the real view
    terms = []  # per spatial q: q, gamma^0 gamma^q, the halo, its stencil views, the split form's x1 views
    for q in axes:
        rows, n, wrap = g0 @ _GAMMA_ROWS[q], shape[q + 1], np.arange(-2, shape[q + 1] + 2)
        buf = pool[: size // n * (n + 4)].reshape(shape[: q + 1] + (n + 4,) + shape[q + 2 :])
        views = [np.moveaxis(b, q + 1, 0) for b in (buf, d, tmp)]
        split = curved and q == 1 and (buf.view(np.float64), a[wrap % n], views[0], np.moveaxis(bufs[-1], 2, 0), views[2])
        scale = (1.0 if split else a) / ((24.0 if split else 12.0) * chart.spacing[q])
        terms.append((q, rows.perm.tolist(), rows.phase.tolist(), wrap, buf, views, scale, split))

    def rhs(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        for c, (p, m) in enumerate(mass):
            np.multiply(v[p], m, out=out[c])
        for q, perm, phase, wrap, buf, views, scale, split in terms:
            np.take(v, wrap, axis=q + 1, out=buf, mode="wrap")
            _central(*views)
            if split:  # a D~psi + D~(a psi): a psi on the halo, its stencil into the last buffer
                np.multiply(dr, a, out=dr)
                np.multiply(split[0], split[1], out=split[0])
                np.add(views[1], _central(*split[2:]), out=views[1])
            np.multiply(dr, scale, out=dr)
            for c in range(4):
                out[c] -= np.multiply(d[perm[c]], phase[c], out=tmp[0])
        return out

    return rhs, bufs[:stages]


def _march(initial: np.ndarray, bg: Background, k: PhysicalConstants, growth_abort: float):
    """The one RK4 loop, over one field (n1, n2, n3, 4) or a batch (B, n1, n2, n3, 4):
    yields a fresh copy of the initial data, then of each step.  Aborts at the first
    step where a member's norm passes growth_abort times its own initial norm (1 for
    zero data) or stops being finite, naming the lowest-index such member.  The state
    v, the stage input x, the stage kq and the stage sum acc of ((k1 + 2 k2) + 2 k3) + k4
    are planar buffers (4, B, n1, n2, n3) of the operator's one allocation."""
    taxis, dt, cell = bg.chart.axes[0], bg.chart.dt, bg.chart.cell_volume
    batch = initial.reshape((-1,) + initial.shape[-4:])
    rhs, (v, x, kq, acc) = _operator(bg, k, (4,) + batch.shape[:-1], 4)
    v[...] = np.moveaxis(batch, -1, 0)
    members = np.moveaxis(v, 0, -1)

    def state() -> tuple[np.ndarray, list[float]]:
        return members.copy().reshape(initial.shape), _norms(v, cell)

    out, norms = state()
    norm0 = [m or 1.0 for m in norms]
    yield out
    for n in range(len(taxis) - 1):
        np.add(v, np.multiply(rhs(v, acc), 0.5 * dt, out=x), out=x)
        np.add(v, np.multiply(rhs(x, kq), 0.5 * dt, out=x), out=x)
        acc += np.multiply(kq, 2.0, out=kq)
        np.add(v, np.multiply(rhs(x, kq), dt, out=x), out=x)
        acc += np.multiply(kq, 2.0, out=kq)
        acc += rhs(x, kq)
        v += np.multiply(acc, dt / 6.0, out=acc)
        out, norms = state()
        for nrm, m0 in zip(norms, norm0):
            if not np.isfinite(nrm) or nrm > growth_abort * m0:
                ratio = nrm / m0 if np.isfinite(nrm) else float("inf")
                raise EvolutionUnstableError(step=n + 1, time=float(taxis[n + 1]), ratio=ratio)
        yield out


def _pair_plan(same: bool):
    """The pairs (a, b) whose conj(phi_a) psi_b = R_ab + i I_ab the rows of
    D^T gamma^q use, and for Re J^q and Im J^q (output rows 2q, 2q + 1) the
    (index into [R..., I...], sign) of each spinor row a's term, in order
    a = 0..3.  When phi is psi, R_ba = R_ab and I_ba = -I_ab exactly, so a
    pair b < a reads (b, a).  A phase without exactly one zero part raises ValueError."""

    def key(a: int, b: int) -> tuple[int, int]:
        return (b, a) if same and b < a else (a, b)

    rows = [list(zip(r.perm.tolist(), r.phase.tolist())) for r in _PAIRING_ROWS]
    pairs = sorted({key(a, b) for row in rows for a, (b, _) in enumerate(row)})
    terms: list[list[tuple[int, float]]] = []
    for q, row in enumerate(rows):
        re, im = [], []
        for a, (b, p) in enumerate(row):
            if (p.real == 0) == (p.imag == 0):
                raise ValueError(f"pairing row {q} entry {a}: phase {p} needs exactly one zero part")
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


_PAIR_PLANS = {same: _pair_plan(same) for same in (False, True)}


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
    pairs, terms = _PAIR_PLANS[same]

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


class _RealityGuard:
    """The reality rule of a current taken block by block: the running max |J| and
    max |Im J| of its blocks, their ``residual`` max |Im J| / max(1, max |J|), and
    ``check``, which raises CurrentRealityError when the residual exceeds 1e-13.
    NaN propagates as in np.max."""

    def __init__(self):
        self.abs_max = self.imag_max = 0.0

    def real(self, j: np.ndarray) -> np.ndarray:
        """Fold a complex block of J into the maxima; returns its real part (a view)."""
        if j.size:
            self.abs_max = np.maximum(self.abs_max, np.max(np.abs(j)))
            self.imag_max = np.maximum(self.imag_max, np.max(np.abs(j.imag)))
        return j.real

    def residual(self) -> float:
        return float(self.imag_max) / max(1.0, float(self.abs_max))

    def check(self) -> None:
        if self.residual() > 1e-13:
            raise CurrentRealityError(f"current reality violated: max imaginary part {float(self.imag_max):.3e}")


def current(psi: SpinorField, k: PhysicalConstants) -> CurrentField:
    """Conserved current of one field; components are checked real, then kept
    as floats.  The reality bound is 1e-13 relative to max(1, |J|).

    J is contracted over blocks of time rows, so the real result is the only
    array the size of the history."""
    v = psi.values
    out = np.empty(v.shape, dtype=np.float64)
    guard = _RealityGuard()
    step = _block_rows(v.shape[1:-1])
    for s in range(0, len(v), step):
        rows = v[s : s + step]
        out[s : s + step] = guard.real(_raw_pair_current(rows, rows, k))
    guard.check()
    return CurrentField(chart=psi.chart, values=out)


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
    x = np.asarray(np.conj(p[..., 1]))  # one (4,) sample conjugates to a scalar, not an out= target
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
    reality_residual: float    # max |Im J| / max(1, max |J|), the rule of current
    samples: int


def timelike_report(psi_values: np.ndarray, k: PhysicalConstants) -> TimelikeReport:
    """g(J,J) and J^0 extrema plus the closed-form cross-check.

    Takes raw spinor samples of shape (..., 4); the current is evaluated
    pointwise, its norm both by metric contraction and by the quartic closed
    form, and the worst relative mismatch is reported, with current's reality
    residual.  The samples are taken _BLOCK at a time, so no temporary spans
    the input; the extrema of the blocks fold with np.minimum / np.maximum, so
    a NaN spreads as in np.min.
    """
    p = np.asarray(psi_values, dtype=np.complex128).reshape(-1, 4)
    if not len(p):
        raise ValueError("timelike_report needs at least one sample")
    min_norm = min_time = np.inf
    mismatch = 0.0
    guard = _RealityGuard()
    for s in range(0, len(p), _BLOCK):
        rows = p[s : s + _BLOCK]
        jr = guard.real(_raw_pair_current(rows, rows, k))
        norm_direct = current_norm(jr)
        norm_closed = closed_form_current_norm(rows, k)
        denom = np.maximum(np.maximum(np.abs(norm_direct), np.abs(norm_closed)), jr[:, 0] ** 2)
        denom = np.maximum(denom, 1e-300)
        min_norm = np.minimum(min_norm, np.min(norm_direct))
        min_time = np.minimum(min_time, np.min(jr[:, 0]))
        mismatch = np.maximum(mismatch, np.max(np.abs(norm_direct - norm_closed) / denom))
    return TimelikeReport(*map(float, (min_norm, min_time, mismatch, guard.residual())), samples=len(p))


def divergence(j: CurrentField, bg: Background) -> np.ndarray:
    """sum_q nabla_q J^q over the grid, shape (nt, n1, n2, n3), of a current on bg's spatial grid,
    in Gauss form: sqrt(-g) = sqrt(g00) varies along x1 alone, so the x1 term is
    D_1(sqrt(-g) J^1) / sqrt(-g), with sqrt(-g) exactly 1.0 on the flat chart."""
    chart = j.chart
    _check_grid(chart, bg.chart)
    w = bg.sqrt_neg_det[..., None]
    out = None  # time comes first in frame_terms
    for q in bg.frame_terms:
        jq = j.values[..., q, None]
        d = _transport(jq * w, bg, q, chart) / w if q == 1 else _transport(jq, bg, q, chart)
        out = d[..., 0] if out is None else out + d[..., 0]
    return out


def action_value(
    psi: SpinorField,
    bg: Background,
    k: PhysicalConstants,
) -> complex:
    """Discretized action of the field over the chart.

    The derivative part is antisymmetrized between psi and its conjugate, so
    it is real exactly; the mass form is real up to rounding, and the density
    stays complex so that rounding shows.  The forms are contracted from
    their signed-permutation rows over the blocks of ``geometry._nabla_blocks``.
    Integration uses cell weights sqrt(-det g) with trapezoid ends on the time
    axis.  A time axis of 2 to 4 nodes raises ValueError, as the stencil does;
    a field off bg's spatial grid raises GridMismatchError.
    """
    v = psi.values
    n, spatial = min(_block_rows(v.shape[1:-1], halo=True), len(v)), v.shape[1:-1]
    dens = np.zeros(v.shape[:-1], dtype=np.complex128)
    cpsi = np.empty((4, n) + spatial, dtype=np.complex128)  # planar: component a first
    z, t = np.empty_like(cpsi[:2])
    for s, e, rows, nablas in _nabla_blocks(psi, bg, tuple(bg.frame_terms)):
        cpsi_, z_, t_, d = cpsi[:, : e - s], z[: e - s], t[: e - s], dens[s:e]
        np.conjugate(rows, out=cpsi_)
        for q, w in nablas.items():
            _form(cpsi_, _PAIRING_ROWS[q], w, z_, t_)
            np.subtract(z_, np.conjugate(z_, out=t_), out=z_)
            d += np.multiply(z_, 0.5j * k.hbar, out=z_)
        d -= np.multiply(_form(cpsi_, _DIRAC_FORM_ROWS.T, rows, z_, t_), k.mass * k.c, out=z_)
    return _integrate(dens, psi.chart, bg)


def _form(cpsi: np.ndarray, rows: _Rows, w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_ab cpsi_a M_ab w_b for the signed permutation M into ``out``, with cpsi
    and w planar (component first), one component a at a time; a phase +-1 (but
    a first -1) folds into an add or subtract, as (-w_b) cpsi_a is -(w_b cpsi_a).

    Each complex product is (phase w_b) cpsi_a in that operand order at every
    size: the SIMD complex multiply is not symmetric in rounding, and numpy's
    temporary elision would swap a written cpsi_a (phase w_b) above 256 KiB.
    """
    for a, (b, p) in enumerate(zip(rows.perm, rows.phase)):
        dst = out if a == 0 else tmp
        np.multiply(w[b] if p == 1 or (a and p == -1) else np.multiply(w[b], p, out=dst), cpsi[a], out=dst)
        if a:
            (np.subtract if p == -1 else np.add)(out, tmp, out=out)
    return out


def _integrate(dens: np.ndarray, chart: MetricChart, bg: Background) -> complex:
    """Sum of a density over the chart: cell weights sqrt(-det g) dt dV with
    trapezoid ends on the time axis.  The caller's density is scaled in place."""
    weights = np.ones((len(dens), 1, 1, 1))
    if len(chart.axes[0]) > 1:
        weights[0] *= 0.5
        weights[-1] *= 0.5
    dens *= weights
    return complex(np.sum(np.multiply(dens, bg.sqrt_neg_det, out=dens)) * (chart.dt * chart.cell_volume))


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


def _rk4_gain(z: complex) -> complex:
    """RK4's factor per step on y' = (z / dt) y: R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _plane_wave_split(
    initial: np.ndarray, chart: MetricChart, k_index: tuple[int, int, int], k: PhysicalConstants
) -> tuple[float, np.ndarray]:
    """The march of plane-wave initial data e^{ik.x} u in closed form.

    On the periodic flat chart the stencil takes e^{ik.x} to i kappa e^{ik.x},
    kappa_q = (8 sin k_q h - sin 2 k_q h) / (6 h) (Trefethen, SIAM Rev. 24
    (1982) 113; 0 on a suppressed axis), so the march's right-hand side is
    -iH with H = mu gamma^0 + sum_q kappa_q gamma^0 gamma^q, and H^2 = w^2 with
    w = sqrt(mu^2 + |kappa|^2).  Returns w and the parts (initial P+,
    initial P-), stacked, of P+- = (1 +- H / w) / 2: n RK4 steps of dt reach
    R(-iw dt)^n P+ + R(iw dt)^n P- (``_rk4_gain``).
    """
    h = np.array(chart.spacing[1:])
    theta = _wave_numbers(chart, k_index) * h
    kappa = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)
    g = FRAME.gamma
    mu = k.compton_wavenumber
    w = float(np.sqrt(mu * mu + kappa @ kappa))
    plus = (np.eye(4) + (mu * g[0] + sum(kappa[q] * g[0] @ g[q + 1] for q in range(3))) / w) / 2.0
    return w, np.stack((initial @ plus.T, initial @ (np.eye(4) - plus).T))


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
