"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along an axis."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in float64, stable for large |x|.

    Both branches share e = exp(-|x|), which never overflows: 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere. Both are computed over the whole
    array and the first is copied in where x >= 0, which beats gathering and
    scattering each branch through a boolean mask.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.where(pos, -x, x)
    np.exp(e, out=e)
    d = e.copy()  # not e + 1.0, which turns a 0-d array into a scalar
    d += 1.0
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=pos)
    return e


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; caller is responsible for keeping p inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p)
    tail = np.negative(p)
    out -= np.log1p(tail, out=tail)
    return out
