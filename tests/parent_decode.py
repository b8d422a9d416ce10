"""The decode core's stage functions as they stood before the per-call
rewrite, kept verbatim as the bit-level oracle for ``ctxbias.numeric``,
``ctxbias.smoothing`` and ``ctxbias.jointdecode``.

Only what that rewrite left alone comes from the package: the bundle entry
check, the count guard, ``DecodeResult`` and ``SmoothingParams``. One stage
is not verbatim: attention's weighted sum of the containment rows is
spelled out per (step, token) in the package's summation order
(``_attention_mix``), since the product it once was gives bits that depend
on the BLAS thread count. Not a test module: the tests import it.
"""

from __future__ import annotations

import numpy as np

from ctxbias.corpus import BiasingList, PhiMask
from ctxbias.jointdecode import DecodeResult, _entry, post_process
from ctxbias.smoothing import SmoothingParams

# -- numeric, as it stood -----------------------------------------------------


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along an axis."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)



# -- smoothing, as it stood ---------------------------------------------------


def triangular_smooth(q_list, p: SmoothingParams) -> np.ndarray:
    """Convolve with [(1-omega)/2, omega, (1-omega)/2], replicate-padded.

    The kernel is a convex combination, so constants pass through unchanged
    and the output stays inside [0,1].
    """
    q = np.asarray(q_list, dtype=float)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ValueError("expected a nonempty 1-d array")
    side = (1.0 - p.omega) / 2.0
    padded = np.concatenate(([q[0]], q, [q[-1]]))
    return side * padded[:-2] + p.omega * padded[1:-1] + side * padded[2:]


def estimate_phrase_length(q_slist) -> int:
    """Window length from the smoothed list mass: round-half-up of the sum,
    clamped to [1, U]."""
    q = np.asarray(q_slist, dtype=float)
    total = float(q.sum())
    length = int(np.floor(total + 0.5))
    return max(1, min(q.shape[0], length))


def _box_sums(q: np.ndarray, length: int) -> np.ndarray:
    """Sums of every full window of the given length; index = window start."""
    zero = np.zeros((1,) + q.shape[1:], dtype=float)
    c = np.concatenate((zero, np.cumsum(q, axis=0)))
    return c[length:] - c[:-length]


def guided_phrase_smooth(q_phr: np.ndarray, q_list, q_slist) -> np.ndarray:
    """Pool phrase scores over the best nearby window, then squash.

    The window length comes from the smoothed list scores; its position per
    step comes from the raw ones. Each output row is tanh of the selected
    window's column sums, so entries stay in [0,1) for nonnegative input.
    """
    q_phr = np.asarray(q_phr, dtype=float)
    q = np.asarray(q_list, dtype=float)
    if q_phr.ndim != 2 or q_phr.shape[0] != q.shape[0]:
        raise ValueError("phrase matrix and list scores disagree on steps")
    n = q.shape[0]
    length = estimate_phrase_length(q_slist)
    col_sums = _box_sums(q_phr, length)  # (n-length+1, M), start-indexed
    # locate_window for every step at once: step u searches starts
    # u-length+1 .. u+length-1, which is row u of a sliding window over the
    # box sums padded with length-1 (left) and 2*length-2 (right) entries of
    # -inf that never win; argmax keeps the first, i.e. smallest, start
    pad = np.full(length - 1, -np.inf)
    padded = np.concatenate((pad, _box_sums(q, length), pad, pad))
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * length - 1)
    starts = np.arange(n) - (length - 1) + np.argmax(windows, axis=1)
    return np.tanh(col_sums[starts])


# -- jointdecode, as it stood -------------------------------------------------


def joint_intersection(
    q_slist: np.ndarray, q_sphr: np.ndarray, q_tok: np.ndarray, phi: PhiMask
) -> np.ndarray:
    """Intersect the three correlation levels into a token distribution.

    Per (step, token): the best phrase containing that token contributes
    q_slist[u] * q_sphr[u, m] * q_tok[u, v]; tokens in no phrase score 0.
    Rows are normalized with a softmax, so an all-zero row comes out
    uniform.
    """
    q_slist = np.asarray(q_slist, dtype=float)
    q_sphr = np.asarray(q_sphr, dtype=float)
    q_tok = np.asarray(q_tok, dtype=float)
    m, v = phi.matrix.shape
    if q_sphr.shape != (q_slist.shape[0], m) or q_tok.shape != (q_slist.shape[0], v):
        raise ValueError("correlation shapes disagree with the mask")
    # a segment max over the mask's nonzeros, grouped by token; correlations
    # are nonnegative, so this equals the max over all phrases of
    # q_sphr * phi, where a phrase lacking the token contributes 0
    tokens, starts, phrases = phi.by_token
    phrase_max = np.zeros_like(q_tok)
    if tokens.size:
        phrase_max[:, tokens] = np.maximum.reduceat(
            np.take(q_sphr, phrases, axis=1), starts, axis=1
        )
    scores = q_slist[:, None] * phrase_max * q_tok
    return softmax(scores, axis=1)


def interpolate(p_bb: np.ndarray, q_bias: np.ndarray, q_slist: np.ndarray) -> np.ndarray:
    """Per-step convex mix of backbone and biased distributions."""
    w = np.asarray(q_slist, dtype=float)[:, None]
    return (1.0 - w) * p_bb + w * q_bias


def greedy_decode(probs: np.ndarray) -> tuple[int, ...]:
    """Row argmax; ties resolve to the smallest token index."""
    return tuple(int(t) for t in np.argmax(probs, axis=1))



def _guarded_decode(
    bundle, biasing_list: BiasingList, q_bias, weight, q_sphr=None
) -> DecodeResult:
    """Everything after the biased distribution: interpolate it with the
    backbone by the per-step weight, decode both greedily, and keep the
    biased hypothesis only if the count guard allows."""
    hyp_bb = greedy_decode(bundle.p_bb)
    q_casr = interpolate(bundle.p_bb, q_bias, weight)
    hyp_casr = greedy_decode(q_casr)
    hyp_final, count_casr, count_bb = post_process(hyp_casr, hyp_bb, biasing_list)
    return DecodeResult(
        hyp_bb=hyp_bb,
        hyp_casr=hyp_casr,
        hyp_final=hyp_final,
        count_bb=count_bb,
        count_casr=count_casr,
        q_bias=q_bias,
        weight=weight,
        q_sphr=q_sphr,
        q_casr=q_casr,
    )


def _backbone_only(bundle) -> DecodeResult:
    """The list holds no real phrase, so the biased path cannot say
    anything: q_bias is uniform and the backbone hypothesis stands."""
    hyp_bb = greedy_decode(bundle.p_bb)
    q_bias = np.full_like(bundle.p_bb, 1.0 / bundle.p_bb.shape[1])
    return DecodeResult(hyp_bb=hyp_bb, hyp_casr=hyp_bb, hyp_final=hyp_bb, count_bb=0,
                        count_casr=0, q_bias=q_bias)



def decode_utterance(
    bundle, biasing_list: BiasingList, phi: PhiMask, params: SmoothingParams
) -> DecodeResult:
    """Full biased decode of one utterance.

    Smooth the list correlation, pool the phrase correlations over the
    located window and intersect; the smoothed list correlation is the
    interpolation weight. When the list holds no real phrase, the backbone
    hypothesis is returned directly.
    """
    bundle = _entry(bundle, biasing_list, phi)
    if biasing_list.size <= 1:
        return _backbone_only(bundle)
    q_slist = triangular_smooth(bundle.q_list, params)
    q_sphr = guided_phrase_smooth(bundle.q_phr, bundle.q_list, q_slist)
    q_bias = joint_intersection(q_slist, q_sphr, bundle.q_tok, phi)
    return _guarded_decode(bundle, biasing_list, q_bias, q_slist, q_sphr)


def _attention_mix(weights: np.ndarray, phi: PhiMask) -> np.ndarray:
    """The attention-weighted sum of the containment rows, one (step, token)
    at a time. Not the product ``weights @ phi`` the stage once computed,
    whose bits follow the BLAS library and its thread count, but the sum in
    the order the package adds: the weight of the first phrase containing
    the token, plus ``np.add.reduce`` (numpy's pairwise sum) of the weights
    of the other phrases containing it, ascending by phrase index. A token
    in no phrase gets 0."""
    u, v = weights.shape[0], phi.matrix.shape[1]
    mix = np.zeros((u, v))
    for token in range(v):
        rows = np.flatnonzero(phi.matrix[:, token])
        if rows.size:
            for step in range(u):
                mix[step, token] = weights[step, rows[0]] + np.add.reduce(weights[step, rows[1:]])
    return mix


def attention_decode(bundle, biasing_list: BiasingList, phi: PhiMask) -> DecodeResult:
    """Comparison stub: plain attention-weighted-sum biasing.

    Instead of max-intersecting smoothed correlations, this normalizes the
    raw phrase scores into attention weights, sums the containment rows
    under them, and interpolates with the raw (unsmoothed) list correlation.
    Kept only as a baseline for trend comparisons.
    """
    bundle = _entry(bundle, biasing_list, phi)
    if biasing_list.size <= 1:
        return _backbone_only(bundle)
    totals = np.maximum(bundle.q_phr.sum(axis=1, keepdims=True), 1e-12)
    weights = bundle.q_phr / totals
    mix = _attention_mix(weights, phi)
    q_attn = softmax(mix * bundle.q_tok, axis=1)
    return _guarded_decode(bundle, biasing_list, q_attn, bundle.q_list)
