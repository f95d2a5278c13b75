"""Spacelike slices, current flux and the hypersurface pairing.

The pairing depends only on data on the slice: inner, gram and orthonormalize
take the samples that sample_on_slice takes from a spinor history.  On each
x1 column a slice reads four time rows and their cubic weights.  One sampler,
_slice_samples, takes a history as blocks of rows in time order and keeps only
those rows: sample_on_slice and flux hand it a stored history as one block, and
_streamed_fluxes the rows of J it takes block by block as a march yields it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import PhysicalConstants
from .dynamics import _RealityGuard, _block_rows, _raw_pair_current
from .fields import CurrentField, GridMismatchError, SpinorField
from .geometry import Background

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

    times holds x0 on each x1 column (the slice time is constant along x2
    and x3), normal the unit future normal in frame components, constant
    over the slice, area_weights the induced volume element times the
    coordinate cell volume.
    """

    times: np.ndarray          # (n1,)
    normal: np.ndarray         # (4,)
    area_weights: np.ndarray   # (n1, n2, n3)


def coordinate_slice(bg: Background, t0: float) -> Slice:
    """Constant-x0 slice.  Works on every supported chart: the unit future
    normal is the time frame vector and the induced metric is minus the
    identity, so the area weights are the coordinate cell volume."""
    weights = np.broadcast_to(bg.chart.cell_volume, bg.chart.spatial_shape)
    times = np.full(len(bg.chart.axes[1]), float(t0))
    return Slice(times=times, normal=np.array([1.0, 0.0, 0.0, 0.0]), area_weights=weights)


def tilted_slice(bg: Background, t0: float, tilt: tuple[float, float, float]) -> Slice:
    """Plane x0 = t0 + v.(x - pivot) on the flat chart, |v| < 1.

    The pivot is the centre of the periodic box; a suppressed axis pivots at
    its single node, so a tilt along it leaves the slice times unchanged.
    Slices are sampled column by column along x1, so a tilt along an active
    x2 or x3 axis raises NotImplementedError.

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
    if any(v[ax] != 0.0 and len(chart.axes[ax + 1]) > 1 for ax in (1, 2)):
        raise NotImplementedError("slice times varying along x2/x3 are not supported")
    x1 = chart.axes[1]
    times = np.full(len(x1), float(t0))
    if v[0] != 0.0 and len(x1) > 1:
        times = times + v[0] * (x1 - (float(x1[0]) + 0.5 * len(x1) * chart.spacing[1]))
    gamma = 1.0 / np.sqrt(1.0 - v2)
    normal = np.concatenate(([gamma], gamma * v))
    weights = np.full(chart.spatial_shape, np.sqrt(1.0 - v2) * chart.cell_volume)
    return Slice(times=times, normal=normal, area_weights=weights)


def _time_plan(taxis: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The four time rows cubic interpolation at ``t`` reads and their weights:
    a time node's row four times with weights (1, 0, 0, 0), else four
    consecutive rows, clamped to the axis, and their Lagrange weights."""
    nt = len(taxis)
    t0, t1 = float(taxis[0]), float(taxis[-1])
    tol = 1e-9 * max(1.0, abs(t0), abs(t1))
    if t < t0 - tol or t > t1 + tol:
        raise ValueError(f"time {t} outside the sampled range [{t0}, {t1}]")
    node, pos = 0, 0.0
    if nt > 1:
        pos = (t - t0) / float(taxis[1] - taxis[0])
        node = int(round(pos))
    if abs(pos - node) < 1e-12 and 0 <= node < nt:
        return np.full(4, node), np.array([1.0, 0.0, 0.0, 0.0])
    if nt < 4:
        raise ValueError("need at least 4 snapshots for cubic interpolation")

    first = min(max(int(np.floor(pos)) - 1, 0), nt - 4)
    ts = taxis[first : first + 4]
    weights = [math.prod((t - ts[m]) / (ts[j] - ts[m]) for m in range(4) if m != j) for j in range(4)]
    return first + np.arange(4), np.array(weights)


def _slice_samples(blocks: Iterable[np.ndarray], taxis: np.ndarray, slices: list[Slice]) -> list[np.ndarray]:
    """Grid samples (n1, n2, n3, ...) on each slice, cubic in time between snapshots,
    of a history on ``taxis`` given as blocks of rows (m, n1, n2, n3, ...) in time
    order.  Each distinct slice time has one time plan, and each slice keeps a
    window (4, n1, n2, n3, ...) of the four rows its plans read per x1 column,
    copied from the block that holds them; a block is not read after the next
    one is drawn.  A sample is sum_j w_j row_j, accumulated from zeros in order
    j = 0..3, so at a time node it equals the node's row for finite data."""
    plans = []  # (4, n1) time rows and weights of each slice
    for s in slices:
        times, column = np.unique(s.times, return_inverse=True)
        rows, weights = map(np.array, zip(*(_time_plan(taxis, float(t)) for t in times)))
        plans.append((rows[column].T, weights[column].T))
    windows: list[np.ndarray] = []
    start = 0  # time row of the block's first row
    for block in blocks:
        if not windows:
            windows = [np.empty((4,) + block.shape[1:], dtype=block.dtype) for _ in slices]
        for win, (want, _) in zip(windows, plans):
            r, i = np.nonzero((want >= start) & (want < start + len(block)))
            win[r, i] = block[want[r, i] - start, i]
        start += len(block)
    samples = []
    for win, (_, weights) in zip(windows, plans):
        out = np.zeros(win.shape[1:], dtype=win.dtype)
        for w, row in zip(weights.reshape(weights.shape + (1,) * (win.ndim - 2)), win):
            out += w * row
        samples.append(out)
    return samples


def _streamed_fluxes(rows: Iterable[np.ndarray], taxis: np.ndarray, slices: list[Slice], k: PhysicalConstants) -> list[float]:
    """flux(current(history), s) for each slice, bit for bit, from the rows of the
    history in time order, without the history.

    J is taken once per block of rows (dynamics._block_rows) and handed to
    _slice_samples.  The reality guard folds each block's maxima and raises
    CurrentRealityError, with current's message, after the last row.
    """
    shape = slices[0].area_weights.shape
    block = np.empty((_block_rows(shape),) + shape + (4,), dtype=np.complex128)
    guard = _RealityGuard()

    def j_blocks():
        m = 0  # rows held
        for row in rows:
            block[m] = row
            m += 1
            if m == len(block):
                yield guard.real(_raw_pair_current(block, block, k))
                m = 0
        if m:
            b = block[:m]
            yield guard.real(_raw_pair_current(b, b, k))

    samples = _slice_samples(j_blocks(), taxis, slices)
    guard.check()
    return [float(_slice_integral(j, s)) for j, s in zip(samples, slices)]


def sample_on_slice(psi: SpinorField, s: Slice) -> np.ndarray:
    """Spinor samples on the slice, cubic in time between stored snapshots."""
    return _slice_samples([psi.values], psi.taxis, [s])[0]


def _contract_with_normal(j_values: np.ndarray, s: Slice) -> np.ndarray:
    """g(J, n) pointwise in frame components (eta contraction)."""
    return (
        j_values[..., 0] * s.normal[0]
        - j_values[..., 1] * s.normal[1]
        - j_values[..., 2] * s.normal[2]
        - j_values[..., 3] * s.normal[3]
    )


def _slice_integral(j_values: np.ndarray, s: Slice):
    """Rectangle-rule integral of g(J, n) dS over slice samples of a current.

    Summation runs over a fixed axis order, so results are reproducible bit
    for bit.
    """
    return np.sum(_contract_with_normal(j_values, s) * s.area_weights, axis=(1, 2)).sum()


def flux(j: CurrentField, s: Slice) -> float:
    """Integral of g(J, n) over the slice.

    The current is interpolated onto the slice in time; the quadrature is the
    periodic rectangle rule weighted by the induced area element.
    """
    return float(_slice_integral(_slice_samples([j.values], j.taxis, [s])[0], s))


def inner(phi: np.ndarray, psi: np.ndarray, s: Slice, k: PhysicalConstants) -> complex:
    """Hypersurface pairing <phi | psi> = integral of g(J(phi, psi), n) dS of two
    solutions' slice samples, each of shape s.area_weights.shape + (4,)."""
    shape = s.area_weights.shape + (4,)
    if np.shape(phi) != shape or np.shape(psi) != shape:
        raise GridMismatchError(f"slice samples must have shape {shape}, got {np.shape(phi)}, {np.shape(psi)}")
    return complex(_slice_integral(_raw_pair_current(phi, psi, k), s))


def gram(samples: list[np.ndarray], s: Slice, k: PhysicalConstants) -> np.ndarray:
    """Matrix of pairings inner(samples[a], samples[b], s, k)."""
    return np.array([[inner(a, b, s, k) for b in samples] for a in samples], dtype=np.complex128)


def orthonormalize(samples: list[np.ndarray], s: Slice, k: PhysicalConstants) -> list[np.ndarray]:
    """Modified Gram-Schmidt under the hypersurface pairing, on slice samples.

    Subtracts projections sequentially and normalizes; raises
    RankDeficientModeError naming the first mode whose remainder norm falls
    below 1e-10 times its incoming norm.
    """
    out: list[np.ndarray] = []
    for idx, work in enumerate(samples):
        incoming = np.sqrt(abs(inner(work, work, s, k)))
        for prev in out:
            c = inner(prev, work, s, k)
            work = work - c * prev
        nrm2 = inner(work, work, s, k).real
        if incoming == 0.0 or nrm2 <= (1e-10 * incoming) ** 2:
            raise RankDeficientModeError(idx)
        out.append(work * (1.0 / np.sqrt(nrm2)))
    return out
