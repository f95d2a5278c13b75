"""Spacelike slices, current flux and the hypersurface pairing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .dynamics import _raw_pair_current
from .fields import CurrentField, SpinorField
from .geometry import Background
from .stencils import cubic_time_interpolate

__all__ = [
    "NotSpacelikeError",
    "RankDeficientModeError",
    "Slice",
    "coordinate_slice",
    "tilted_slice",
    "sample_on_slice",
    "flux",
    "inner",
    "gram",
    "orthonormalize",
]


class NotSpacelikeError(ValueError):
    """Requested slice is not spacelike or its normal is past-directed."""


class RankDeficientModeError(ValueError):
    """A mode collapsed to numerical zero during orthonormalization."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"mode {index} is linearly dependent on the preceding modes")


@dataclass(frozen=True)
class Slice:
    """Spacelike hypersurface with quadrature data on the spatial grid.

    times holds x0 over the grid, normal the unit future normal in frame
    components per node, area_weights the induced volume element times the
    coordinate cell volume.
    """

    background: Background
    times: np.ndarray          # (n1, n2, n3)
    normal: np.ndarray         # (n1, n2, n3, 4)
    area_weights: np.ndarray   # (n1, n2, n3)


def coordinate_slice(bg: Background, t0: float) -> Slice:
    """Constant-x0 slice.  Works on every supported chart: the unit future
    normal is the time frame vector and the induced metric is the spatial
    block, so the area element is sqrt(-det g3)."""
    shape = bg.chart.spatial_shape
    times = np.full(shape, float(t0))
    normal = np.zeros(shape + (4,))
    normal[..., 0] = 1.0
    g3det = -(bg.metric[..., 1, 1] * bg.metric[..., 2, 2] * bg.metric[..., 3, 3])
    if np.any(g3det <= 0.0):
        raise NotSpacelikeError("induced metric is not negative definite")
    weights = np.sqrt(g3det) * bg.chart.cell_volume
    return Slice(background=bg, times=times, normal=normal, area_weights=weights)


def tilted_slice(bg: Background, t0: float, tilt: tuple[float, float, float]) -> Slice:
    """Plane x0 = t0 + v.(x - pivot) on the flat chart, |v| < 1.

    The pivot is the centre of the periodic box; a suppressed axis pivots at
    its single node.

    The unit future normal is (1, v)/sqrt(1 - |v|^2) and the induced area
    element sqrt(1 - |v|^2), so g(J, n) dS reduces to (J^0 - v.J) d3x.
    """
    if not bg.is_flat:
        raise NotSpacelikeError("tilted slices are only supported on the flat chart")
    v = np.asarray(tilt, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise NotSpacelikeError(f"tilt speed |v| = {np.sqrt(v2):.3f} is not subluminal")
    chart = bg.chart
    shape = chart.spatial_shape
    pivot = tuple(
        float(chart.axes[ax + 1][0]) + 0.5 * len(chart.axes[ax + 1]) * chart.spacing[ax + 1]
        if len(chart.axes[ax + 1]) > 1 else float(chart.axes[ax + 1][0])
        for ax in range(3)
    )
    times = np.full(shape, float(t0))
    for ax in range(3):
        if v[ax] != 0.0:
            sh = [1, 1, 1]
            sh[ax] = shape[ax]
            times = times + v[ax] * (chart.axes[ax + 1].reshape(sh) - pivot[ax])
    gamma = 1.0 / np.sqrt(1.0 - v2)
    normal = np.zeros(shape + (4,))
    normal[..., 0] = gamma
    for ax in range(3):
        normal[..., ax + 1] = gamma * v[ax]
    weights = np.full(shape, np.sqrt(1.0 - v2) * bg.chart.cell_volume)
    return Slice(background=bg, times=times, normal=normal, area_weights=weights)


def _on_slice(values: np.ndarray, taxis: np.ndarray, s: Slice) -> np.ndarray:
    """Grid samples (nt, n1, n2, n3, ...) on the slice, cubic in time between snapshots."""
    tvals = np.unique(np.round(s.times, 12))
    if len(tvals) == 1:
        columns = [(slice(None), float(tvals[0]))]
    else:
        # Slice time varies along x1 only for the supported tilts; interpolate
        # column by column over the leading spatial axis.
        columns = []
        for i in range(values.shape[1]):
            t0 = float(s.times[i].flat[0])
            if not np.allclose(s.times[i], t0, rtol=0.0, atol=1e-12):
                raise NotImplementedError("slice times varying along x2/x3 are not supported")
            columns.append((i, t0))
    out = np.empty(values.shape[1:], dtype=values.dtype)
    for i, t in columns:
        out[i] = cubic_time_interpolate(values[:, i], taxis, t)
    return out


def sample_on_slice(psi: SpinorField, s: Slice) -> np.ndarray:
    """Spinor samples on the slice, cubic in time between stored snapshots."""
    return _on_slice(psi.values, psi.taxis, s)


def _contract_with_normal(j_values: np.ndarray, s: Slice) -> np.ndarray:
    """g(J, n) pointwise in frame components (eta contraction)."""
    return (
        j_values[..., 0] * s.normal[..., 0]
        - j_values[..., 1] * s.normal[..., 1]
        - j_values[..., 2] * s.normal[..., 2]
        - j_values[..., 3] * s.normal[..., 3]
    )


def _slice_integral(j_values: np.ndarray, s: Slice):
    """Rectangle-rule integral of g(J, n) dS over slice samples of a current.

    Summation runs over a fixed axis order, so results are reproducible bit
    for bit.
    """
    return np.sum(_contract_with_normal(j_values, s) * s.area_weights, axis=(1, 2)).sum()


def flux(j: CurrentField, s: Slice) -> float | complex:
    """Integral of g(J, n) over the slice.

    The current is interpolated onto the slice in time; the quadrature is the
    periodic rectangle rule weighted by the induced area element.
    """
    total = _slice_integral(_on_slice(j.values, j.taxis, s), s)
    if np.iscomplexobj(total):
        return complex(total)
    return float(total)


def _pair_integral(pv: np.ndarray, qv: np.ndarray, s: Slice, k: PhysicalConstants) -> complex:
    return complex(_slice_integral(_raw_pair_current(pv, qv, k), s))


def inner(phi: SpinorField, psi: SpinorField, s: Slice, k: PhysicalConstants) -> complex:
    """Hypersurface pairing <phi | psi> = integral of g(J(phi, psi), n) dS."""
    return _pair_integral(sample_on_slice(phi, s), sample_on_slice(psi, s), s, k)


def gram(modes: list[SpinorField], s: Slice, k: PhysicalConstants) -> np.ndarray:
    """Matrix of pairings inner(modes[a], modes[b], s, k).

    Each mode is sampled on the slice once; the entries equal the pairwise
    inner products bit for bit.
    """
    samples = [sample_on_slice(m, s) for m in modes]
    n = len(samples)
    g = np.empty((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            g[a, b] = _pair_integral(samples[a], samples[b], s, k)
    return g


def orthonormalize(modes: list[SpinorField], s: Slice, k: PhysicalConstants) -> list[SpinorField]:
    """Modified Gram-Schmidt under the hypersurface pairing.

    Subtracts projections sequentially and normalizes; raises
    RankDeficientModeError naming the first mode whose remainder norm falls
    below 1e-10 times its incoming norm.
    """
    out: list[SpinorField] = []
    for idx, mode in enumerate(modes):
        work = mode
        incoming = np.sqrt(abs(inner(work, work, s, k)))
        for prev in out:
            c = inner(prev, work, s, k)
            work = work - c * prev
        nrm2 = inner(work, work, s, k).real
        if incoming == 0.0 or nrm2 <= (1e-10 * incoming) ** 2:
            raise RankDeficientModeError(idx)
        out.append(work * (1.0 / np.sqrt(nrm2)))
    return out
