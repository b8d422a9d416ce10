"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along an axis.

    Floating input keeps its dtype; other numeric input comes out as exp
    gives it (float64 for int64). The shifted copy of a floating input is
    exponentiated and normalized in place.
    """
    x = np.asarray(x)
    # the ufunc reductions themselves, which the max and sum methods call
    # through a Python wrapper
    e = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(e, out=e if e.dtype.kind in "fc" else None)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in float64, stable for large |x|.

    Both branches share e = exp(-|x|), which never overflows: 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere. Both are computed over the whole
    array and the first is copied in where x >= 0, which beats gathering and
    scattering each branch through a boolean mask. -|x| is taken as
    ``minimum(x, -x)``, which keeps a NaN as it is (sign bit included) and
    is cheaper than a select on x >= 0; the sign of a zero does not reach
    the result, as exp(-0) == exp(0).
    """
    x = np.asarray(x, dtype=np.float64)
    # fresh outputs throughout: a ufunc without one turns a 0-d array into a
    # scalar
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=np.empty_like(e))
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=x >= 0)
    return e


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; caller is responsible for keeping p inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p)
    tail = np.negative(p)
    out -= np.log1p(tail, out=tail)
    return out
