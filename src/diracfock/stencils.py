"""Fourth-order finite differences and time interpolation on uniform grids."""

from __future__ import annotations

import numpy as np

__all__ = ["differentiate", "cubic_time_interpolate"]

# Integer numerators of the O(h^4) first-derivative weights; the common
# denominator 12 h is divided out once at the end.  Constant data c does not
# differentiate to exact zero in general: the partial sum c - 8c rounds
# whenever 7c is not representable, as it is not for most c, and that
# rounding survives the later terms.  Small integers such as the flat
# metric's +-1 do give exact zeros.
_EDGE0 = (-25, 48, -36, 16, -3)   # offsets 0..4
_EDGE1 = (-3, -10, 18, -6, 1)     # offsets -1..3


def differentiate(values: np.ndarray, axis: int, spacing: float, periodic: bool) -> np.ndarray:
    """d/dx along one grid axis.

    Size-1 axes are treated as suppressed directions and return zeros.
    Periodic axes use the central stencil on a 2-node wraparound halo;
    otherwise the two points nearest each end fall back to one-sided stencils
    of the same order.
    """
    n = values.shape[axis]
    if n == 1:
        return np.zeros_like(values)
    if n < 5:
        raise ValueError(f"axis {axis} has {n} nodes, need at least 5 for the stencil")

    moved = np.moveaxis(values, axis, 0)
    if periodic:
        # Central weights on every node, through a 2-node wraparound halo.
        src = np.concatenate((moved[n - 2 :], moved, moved[:2]))
        out = _central(src, np.empty_like(src[:n]), np.empty_like(src[:n]))
    else:
        # The same on the interior rows; the far end rows mirror the near ones
        # with negated weights, which is exactly 0 - w0 x0 - w1 x1 - ...
        out = np.empty_like(moved)
        _central(moved, out[2 : n - 2], np.empty_like(moved[4:]))
        for i, weights in enumerate((_EDGE0, _EDGE1)):
            out[i] = sum(w * moved[k] for k, w in enumerate(weights))
            out[n - 1 - i] = sum(-w * moved[n - 1 - k] for k, w in enumerate(weights))
    return np.moveaxis(out, 0, axis) / (12.0 * spacing)


def _central(src: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The central weights (1, -8, 0, 8, -1) along axis 0 into ``out``, as
    ((x[i-2] - 8 x[i-1]) + 8 x[i+1]) - x[i+2], from ``src`` holding out's rows
    behind a 2-row halo on each side; ``tmp`` is scratch of out's shape.  The
    caller divides by 12 h."""
    n = len(out)
    np.subtract(src[:n], np.multiply(src[1 : n + 1], 8, out=tmp), out=out)
    out += np.multiply(src[3 : n + 3], 8, out=tmp)
    out -= src[4 : n + 4]
    return out


def cubic_time_interpolate(values: np.ndarray, taxis: np.ndarray, t: float) -> np.ndarray:
    """Cubic Lagrange interpolation along the leading (time) axis.

    ``values`` has shape (nt, ...); snapshots are at the uniformly spaced
    ``taxis`` nodes.  ``t`` must lie inside the sampled range.
    """
    if values.shape[0] != len(taxis):
        raise ValueError("time axis length does not match the value array")
    first, weights = _time_plan(taxis, t)
    return _apply_time_plan(values[first : first + 4], weights)


def _time_plan(taxis: np.ndarray, t: float) -> tuple[int, tuple[float, ...] | None]:
    """The rows cubic interpolation at ``t`` reads: (node, None) at a time node,
    else (first, weights) of the four rows first..first+3, clamped to the axis."""
    nt = len(taxis)
    t0, t1 = float(taxis[0]), float(taxis[-1])
    tol = 1e-9 * max(1.0, abs(t0), abs(t1))
    if t < t0 - tol or t > t1 + tol:
        raise ValueError(f"time {t} outside the sampled range [{t0}, {t1}]")
    if nt == 1:
        return 0, None

    dt = float(taxis[1] - taxis[0])
    pos = (t - t0) / dt
    nearest = int(round(pos))
    if abs(pos - nearest) < 1e-12 and 0 <= nearest < nt:
        return nearest, None
    if nt < 4:
        raise ValueError("need at least 4 snapshots for cubic interpolation")

    first = int(np.floor(pos)) - 1
    first = min(max(first, 0), nt - 4)
    ts = taxis[first : first + 4]
    weights = []
    for j in range(4):
        w = 1.0
        for m in range(4):
            if m != j:
                w *= (t - ts[m]) / (ts[j] - ts[m])
        weights.append(w)
    return first, tuple(weights)


def _apply_time_plan(rows: np.ndarray, weights: tuple[float, ...] | None) -> np.ndarray:
    """The sample from a plan's rows: a copy of rows[0] at a time node, else
    sum_j weights[j] rows[j], accumulated from zeros in order j = 0..3."""
    if weights is None:
        return rows[0].copy()
    out = np.zeros_like(rows[0])
    tmp = np.empty_like(out)
    for w, row in zip(weights, rows):
        out += np.multiply(w, row, out=tmp)
    return out
