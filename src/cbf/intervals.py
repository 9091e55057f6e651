"""Degree functions between closed focal intervals.

A focal interval is an endpoint pair (lower, upper) with lower <= upper.

``overlap`` is the unchecked intersection length, for callers that have
validated their endpoints once, such as the degree functions below.
The degree functions compare two intervals (xi, yi) and (xj, yj) given as
separate endpoint arguments, so they vectorise over numpy arrays:

* ``jaccard_delta``         intersection length over the length of the
                            smallest interval covering both endpoints.
* ``delta_inc_strict``      1.0 iff the first interval is contained in the
                            second, else 0.0.
* ``delta_inc_partial``     overlap length normalised by the first length.
* ``delta_inc_partial_rev`` overlap length normalised by the second length.

All four return values in [0, 1].  Scalar inputs give a plain float, array
inputs broadcast and give an array.  On every call, non-finite endpoints
and lower > upper are rejected with ``ValueError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "overlap",
    "jaccard_delta",
    "delta_inc_strict",
    "delta_inc_partial",
    "delta_inc_partial_rev",
]


def _check_pairs(xi, yi, xj, yj):
    xi, yi, xj, yj = (np.asarray(v, dtype=float) for v in (xi, yi, xj, yj))
    for lo, hi, name in ((xi, yi, "first"), (xj, yj, "second")):
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"{name} interval has non-finite endpoints")
        if np.any(lo > hi):
            raise ValueError(f"{name} interval has lower > upper")
    return np.broadcast_arrays(xi, yi, xj, yj)


def overlap(xi, yi, xj, yj):
    """Length of [xi, yi] & [xj, yj]; endpoints must be finite and ordered."""
    return np.maximum(0.0, np.minimum(yi, yj) - np.maximum(xi, xj))


def _as_scalar_or_array(out):
    if out.ndim == 0:
        return float(out)
    return out


def _covered(xi, yi, xj, yj):
    """Fraction of [xi, yi] inside [xj, yj], for checked endpoints."""
    # asarray: comparisons on 0-d operands collapse to scalars, which
    # np.divide rejects as an out= target
    out = np.asarray((xj <= xi) & (xi <= yj), dtype=float)
    den = yi - xi
    np.divide(overlap(xi, yi, xj, yj), den, out=out, where=den > 0.0)
    return _as_scalar_or_array(out)


def jaccard_delta(xi, yi, xj, yj):
    """Jaccard-style overlap degree |I1 & I2| / |hull(I1, I2)|.

    The hull runs from the smallest to the largest of the four endpoints.
    When both intervals degenerate to the same point the hull has length
    zero and the degree is 1 by convention (two identical points coincide).
    """
    xi, yi, xj, yj = _check_pairs(xi, yi, xj, yj)
    inter = overlap(xi, yi, xj, yj)
    hull = np.maximum(yi, yj) - np.minimum(xi, xj)
    out = np.ones_like(inter)
    np.divide(inter, hull, out=out, where=hull > 0.0)
    return _as_scalar_or_array(out)


def delta_inc_strict(xi, yi, xj, yj):
    """Indicator of I1 being a subset of I2 (endpoints inclusive)."""
    xi, yi, xj, yj = _check_pairs(xi, yi, xj, yj)
    out = ((xj <= xi) & (yi <= yj)).astype(float)
    return _as_scalar_or_array(out)


def delta_inc_partial(xi, yi, xj, yj):
    """Fraction of the first interval covered by the second.

    max(0, min(yi, yj) - max(xi, xj)) / (yi - xi).  When the first interval
    is a point the fraction is 1 if the point lies in I2 and 0 otherwise.
    """
    return _covered(*_check_pairs(xi, yi, xj, yj))


def delta_inc_partial_rev(xi, yi, xj, yj):
    """Fraction of the second interval covered by the first.

    Same overlap as ``delta_inc_partial`` but normalised by (yj - xj), so
    delta_inc_partial_rev(I1, I2) == delta_inc_partial(I2, I1) exactly.
    """
    xi, yi, xj, yj = _check_pairs(xi, yi, xj, yj)
    return _covered(xj, yj, xi, yi)
