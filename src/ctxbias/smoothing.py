"""Correlation smoothing: triangular window for the list scores, and
list-guided window pooling for the phrase scores.

The list correlation flutters step to step; a narrow triangular kernel
bridges single-step dips. Phrase scores are pooled over an estimated
phrase-length window positioned where the raw list correlation is densest,
then squashed with tanh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import check_float


@dataclass(frozen=True)
class SmoothingParams:
    omega: float = 0.6

    def __post_init__(self) -> None:
        check_float("omega", self.omega)
        if not (0.0 <= self.omega <= 1.0):
            raise ValueError("omega must lie in [0,1]")


def triangular_smooth(q_list, p: SmoothingParams) -> np.ndarray:
    """Convolve with [(1-omega)/2, omega, (1-omega)/2], replicate-padded.

    The kernel is a convex combination, so constants pass through unchanged
    and the output stays inside [0,1].
    """
    q = np.asarray(q_list, dtype=float)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ValueError("expected a nonempty 1-d array")
    side = (1.0 - p.omega) / 2.0
    n = q.shape[0]
    padded = np.empty(n + 2)
    padded[1:-1] = q
    padded[0] = q[0]
    padded[-1] = q[-1]
    return side * padded[:-2] + p.omega * padded[1:-1] + side * padded[2:]


def estimate_phrase_length(q_slist) -> int:
    """Window length from the smoothed list mass: round-half-up of the sum,
    clamped to [1, U]. A sum that is not finite (a NaN or an infinity in
    ``q_slist``) raises ``ValueError``."""
    q = np.asarray(q_slist, dtype=float)
    total = float(np.add.reduce(q, axis=None))
    if not math.isfinite(total):
        raise ValueError(f"q_slist sums to {total}: smoothed list scores must be finite")
    length = math.floor(total + 0.5)
    return max(1, min(q.shape[0], length))


def locate_window(q_list, length: int, u: int) -> int:
    """Best window start near step u: the start j within distance length-1
    of u whose length-window sum of the raw list correlation is largest.
    Ties go to the smallest start."""
    q = np.asarray(q_list, dtype=float)
    n = q.shape[0]
    if not (1 <= length <= n):
        raise ValueError("window length outside [1, U]")
    # every full window's sum, by start, from prefix sums with a leading 0
    c = np.concatenate(([0.0], np.cumsum(q)))
    sums = c[length:] - c[:-length]
    lo = max(0, u - length + 1)
    hi = min(n - length, u + length - 1)
    window = sums[lo : hi + 1]
    return lo + int(np.argmax(window))


# From this many phrase columns on, the pooled windows' prefix sums are
# accumulated one vectorized row add per step. np.cumsum(axis=0) runs one
# inner loop per column, which costs more than the Python loop over rows
# once the rows are wide; below this width it is the cheaper of the two.
_ROW_ADD_WIDTH = 200


def _pool_windows(q_phr, q_list, q_slist):
    """The pooling of ``guided_phrase_smooth``, once per distinct window.

    Returns ``(pooled, step_rows, starts, length)``. ``length`` is the window
    length and ``starts`` (U,) each step's window start, as
    ``estimate_phrase_length`` and ``locate_window`` give them. ``pooled``
    holds tanh of the window column sums, one row per window, and step u
    reads row ``step_rows[u]``; when ``step_rows`` is None the rows are the
    steps themselves. From ``_ROW_ADD_WIDTH`` phrase columns on, steps that
    share a start share one row. Every value is bit for bit what the per-step
    pooling gives.
    """
    q_phr = np.asarray(q_phr, dtype=float)
    q = np.asarray(q_list, dtype=float)
    if q_phr.ndim != 2 or q.ndim != 1 or q_phr.shape[0] != q.shape[0]:
        raise ValueError("phrase matrix and list scores disagree on steps")
    n, m = q_phr.shape
    q_slist = np.asarray(q_slist, dtype=float)
    if q_slist.shape != (n,):
        raise ValueError(f"q_slist has shape {q_slist.shape}, expected ({n},): one "
                         "smoothed list score per step")
    length = estimate_phrase_length(q_slist)
    # locate_window for every step at once: step u searches starts
    # u-length+1 .. u+length-1, which is row u of a sliding window over the
    # box sums padded with length-1 (left) and 2*length-2 (right) entries of
    # -inf that never win; argmax keeps the first, i.e. smallest, start. The
    # box sums are locate_window's, from prefix sums with a leading 0
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    q.cumsum(out=prefix[1:])
    padded = np.empty(n + 2 * length - 2)
    padded[: length - 1] = -np.inf
    padded[n:] = -np.inf
    np.subtract(prefix[length:], prefix[:-length], out=padded[length - 1 : n])
    step = padded.itemsize
    windows = np.ndarray((n, 2 * length - 1), buffer=padded, strides=(step, step))
    starts = windows.argmax(axis=1)
    starts += np.arange(1 - length, n + 1 - length)
    if m < _ROW_ADD_WIDTH:
        # the window column sums at every step's start, from prefix sums
        # with a leading zero row
        c = np.empty((n + 1, m))
        c[0] = 0.0
        q_phr.cumsum(axis=0, out=c[1:])
        pooled = np.subtract(c[length:], c[:-length])[starts]
        return np.tanh(pooled, out=pooled), None, starts, length
    # for finite list scores, starts never descend: step u+1 searches step
    # u's range shifted right by one, so its best start is step u's unless
    # that fell off the left end or a larger sum came in on the right. A
    # start that differs from its left neighbour's opens a new row (a NaN
    # can break the order, which costs repeated rows, never a wrong one)
    opens = np.empty(n, dtype=bool)
    opens[0] = True
    np.not_equal(starts[1:], starts[:-1], out=opens[1:])
    rows = starts[opens]
    step_rows = opens.cumsum()
    step_rows -= 1
    # prefix sums c[i] = q_phr[0] + ... + q_phr[i-1], added up in the order
    # np.cumsum adds them, up to the last row a window reads
    last = int(rows.max()) + length
    c = np.empty((last + 1, m))
    c[0] = 0.0
    c[1] = q_phr[0]
    for i in range(1, last):
        np.add(c[i], q_phr[i], out=c[i + 1])
    pooled = c[rows + length]
    pooled -= c[rows]
    return np.tanh(pooled, out=pooled), step_rows, starts, length


def guided_phrase_smooth(q_phr: np.ndarray, q_list, q_slist) -> np.ndarray:
    """Pool phrase scores over the best nearby window, then squash.

    The window length comes from the smoothed list scores; its position per
    step comes from the raw ones. Each output row is tanh of the selected
    window's column sums, so entries stay in [0,1) for nonnegative input.
    """
    pooled, step_rows, _, _ = _pool_windows(q_phr, q_list, q_slist)
    return pooled if step_rows is None else pooled[step_rows]
