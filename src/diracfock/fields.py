"""Grid-sampled spinor and current fields."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["SpinorField", "CurrentField", "GridMismatchError"]

# Samples per block of the current's contraction: one real scratch row is 32 KiB.
_BLOCK = 4096


class GridMismatchError(ValueError):
    """Fields defined on incompatible grids were combined."""


def _check_grid(chart, ref) -> None:
    """GridMismatchError unless chart has ref's spatial axes and spacings;
    the time axes may differ."""
    if not (chart.spacing[1:] == ref.spacing[1:] and all(map(np.array_equal, chart.axes[1:], ref.axes[1:]))):
        raise GridMismatchError("fields live on different grids")


def _block_rows(spatial: tuple[int, ...], halo: bool = False) -> int:
    """Time rows per block of a history over the spatial grid (n1, n2, n3): about _BLOCK samples and at least
    one row, or 8 for nabla, whose d_0 reads a 2-row halo on each side (16 rows at n1 = 256)."""
    return max(8 if halo else 1, _BLOCK // int(np.prod(spatial)))


def _halo_blocks(nt: int, spatial: tuple[int, ...]):
    """(s, e, lo, hi) per block s .. e - 1 of nt time rows, with d_0's 2-row halo lo .. hi - 1 clamped to the axis."""
    step = _block_rows(spatial, halo=True)
    for s in range(0, nt, step):
        e = min(s + step, nt)
        yield s, e, max(0, min(s - 2, nt - 5)), min(nt, max(e + 2, 5))


@dataclass(frozen=True)
class _GridField:
    """Values of shape (nt, n1, n2, n3, 4) over a chart's time and spatial grid."""

    chart: "object"
    values: np.ndarray

    _kind = "field"

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 5 or v.shape[-1] != 4:
            raise ValueError(f"{self._kind} values must have shape (nt, n1, n2, n3, 4)")
        if v.shape[:4] != self.chart.shape:
            raise GridMismatchError("values do not match the chart's grid")

    @property
    def taxis(self) -> np.ndarray:
        return self.chart.axes[0]


@dataclass(frozen=True)
class SpinorField(_GridField):
    """Complex 4-component field on a spacetime grid.

    values has shape (nt, n1, n2, n3, 4) and must match the chart's grid;
    taxis is the chart's time axis.
    """

    _kind = "spinor"

    def with_values(self, values: np.ndarray) -> "SpinorField":
        return replace(self, values=values)

    def __add__(self, other: "SpinorField") -> "SpinorField":
        _check_grid(other.chart, self.chart)
        if not np.array_equal(other.taxis, self.taxis):
            raise GridMismatchError("fields live on different time axes")
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        _check_grid(other.chart, self.chart)
        if not np.array_equal(other.taxis, self.taxis):
            raise GridMismatchError("fields live on different time axes")
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar: complex) -> "SpinorField":
        return self.with_values(self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CurrentField(_GridField):
    """Vector field in frame components on the same grid layout as SpinorField.

    values has shape (nt, n1, n2, n3, 4), axis -1 being the frame index q.
    Currents are real; the sesquilinear pairing of two different fields is
    taken on slice samples by pairing.inner, never stored as a field.
    """

    _kind = "current"
