"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np


def check_int(name: str, value) -> None:
    """``ValueError`` naming the field unless ``value`` is an int or a numpy
    integer: a float would be truncated where it is used (a seed of 1.5 runs
    seed 1), and a bool passes for 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_float(name: str, value) -> None:
    """``ValueError`` naming the field unless ``value`` is a real number (an
    int, a float, or a numpy integer or float): a bool passes for 0 or 1,
    and a config would run a rate of 1.0 that it cannot save and load."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


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
    where x >= 0 and e / (1 + e) elsewhere. So one division serves both:
    the numerator e is set to 1 where x >= 0 once 1 + e is taken, which
    beats gathering and scattering each branch through a boolean mask. -|x|
    is taken as ``minimum(x, -x)``, which keeps a NaN as it is (sign bit
    included) and is cheaper than a select on x >= 0; the sign of a zero
    does not reach the result, as exp(-0) == exp(0).
    """
    x = np.asarray(x, dtype=np.float64)
    # fresh outputs throughout: a ufunc without one turns a 0-d array into a
    # scalar
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=np.empty_like(e))
    np.copyto(e, 1.0, where=x >= 0)
    np.divide(e, d, out=e)
    return e


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; caller is responsible for keeping p inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p)
    tail = np.negative(p)
    out -= np.log1p(tail, out=tail)
    return out
