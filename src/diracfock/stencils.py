"""Fourth-order finite differences on uniform grids."""

from __future__ import annotations

import numpy as np

__all__ = ["differentiate"]

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
    Periodic axes use the central stencil on a 2-node wraparound halo; on a
    bounded axis (a chart's time axis) the two points nearest each end fall
    back to one-sided stencils of the same order.
    """
    n = values.shape[axis]
    if n == 1:
        return np.zeros_like(values)
    if n < 5:
        raise ValueError(f"axis {axis} has {n} nodes, need at least 5 for the stencil")

    # Integer data is promoted once, so the sums can be scaled in place.
    moved = np.moveaxis(np.asarray(values, dtype=np.result_type(values, 1.0)), axis, 0)
    if periodic:
        # Central weights on every node, through a 2-node wraparound halo.
        src = np.concatenate((moved[n - 2 :], moved, moved[:2]))
        out = _central(src, np.empty_like(src[:n]), np.empty_like(src[:n]))
    else:
        out = _bounded(moved, np.empty_like(moved), np.empty_like(moved[4:]))
    np.divide(out, 12.0 * spacing, out=out)
    return np.moveaxis(out, 0, axis)


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


def _bounded(src: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The weights along a bounded axis 0 into ``out``: central inside, ``tmp`` their scratch, one-sided
    at the ends, the far rows mirroring the near ones negated, exactly 0 - w0 x0 - w1 x1 - ...; 1 / (12 h) is the caller's."""
    n = len(src)
    _central(src, out[2 : n - 2], tmp[: n - 4])
    for i, weights in enumerate((_EDGE0, _EDGE1)):
        out[i] = sum(w * src[k] for k, w in enumerate(weights))
        out[n - 1 - i] = sum(-w * src[n - 1 - k] for k, w in enumerate(weights))
    return out
