"""Joint intersection decoding and collaborative interpolation.

The three correlation levels multiply through the phrase-token containment
mask into a biased token distribution, which is interpolated with the
backbone per step by the (smoothed) list correlation. Greedy hypotheses are
extracted from both the backbone and the biased distributions, and a
phrase-count comparison decides which one to keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BiasingList, KeptSet, PhiMask, scan_occurrences
from .numeric import softmax
from .bundle import CorrelationBundle
# guided_phrase_smooth is no longer called here: the decode pools once per
# distinct window through _pool_windows. The name stays in this namespace
# for tools that look it up here, such as perfbench's tracer.
from .smoothing import SmoothingParams, _pool_windows, guided_phrase_smooth  # noqa: F401
from .smoothing import triangular_smooth


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Both hypotheses, the one the count guard kept, the real-phrase counts
    the guard compared (against the decoded list), and the arrays that
    produced them: the biased distribution, the per-step interpolation
    weight, the pooled phrase correlations (joint decode only) and the
    interpolated distribution. The joint decode also gives each step's
    pooling window start and the window length it pooled over. Without a
    real phrase in the list, q_bias is uniform, both counts are 0 and
    nothing else is computed."""

    hyp_bb: tuple[int, ...]
    hyp_casr: tuple[int, ...]
    hyp_final: tuple[int, ...]
    count_bb: int
    count_casr: int
    q_bias: np.ndarray
    weight: np.ndarray | None = None
    q_sphr: np.ndarray | None = None
    q_casr: np.ndarray | None = None
    window_start: np.ndarray | None = None
    phrase_length: int | None = None


def joint_intersection(
    q_slist: np.ndarray, q_sphr: np.ndarray, q_tok: np.ndarray, phi: PhiMask, kept=None,
    step_rows=None,
) -> np.ndarray:
    """Intersect the three correlation levels into a token distribution.

    Per (step, token): the best phrase containing that token contributes
    q_slist[u] * q_sphr[u, m] * q_tok[u, v]; tokens in no phrase score 0.
    Rows are normalized with a softmax, so an all-zero row comes out
    uniform. With ``kept`` (a ``KeptSet``, or indices for ``KeptSet.of``)
    the phrases are the kept rows of ``phi``, in kept order: the result is
    the intersection with ``restrict_phi(phi, kept)``, read from ``phi``'s
    cached nonzeros. With ``step_rows`` (U,), an integer array, ``q_sphr``
    holds pooled rows that steps share and step u reads row
    ``step_rows[u]``: the result is the intersection with
    ``q_sphr[step_rows]``, with the phrase maxima taken once per row.
    """
    q_slist = np.asarray(q_slist, dtype=float)
    q_sphr = np.asarray(q_sphr, dtype=float)
    q_tok = np.asarray(q_tok, dtype=float)
    m, v = phi.matrix.shape
    if kept is None:
        tokens, starts, phrases = phi.by_token
    else:
        kept = KeptSet.of(kept, m).indices
        m = kept.size
        tokens, starts, phrases = phi._kept_by_token(kept)
    rows = q_sphr.shape[0] if q_sphr.ndim == 2 else -1
    u = rows
    if step_rows is not None:
        step_rows = np.asarray(step_rows)
        if step_rows.ndim != 1 or step_rows.dtype.kind not in "iu":
            raise ValueError(f"step_rows must be a 1-d integer array, got shape "
                             f"{step_rows.shape} and dtype {step_rows.dtype}")
        u = step_rows.shape[0]
        if u and not (step_rows.min() >= 0 and step_rows.max() < rows):
            raise ValueError(f"step_rows must index the {max(rows, 0)} rows of q_sphr")
    if q_sphr.shape != (rows, m) or q_tok.shape != (u, v):
        raise ValueError("correlation shapes disagree with the mask")
    if q_slist.shape != (u,):
        raise ValueError(f"q_slist has shape {q_slist.shape}, expected ({u},): one "
                         "list weight per step")
    # a segment max over the mask's nonzeros, grouped by token; correlations
    # are nonnegative, so this equals the max over all phrases of
    # q_sphr * phi, where a phrase lacking the token contributes 0. The
    # buffer keeps q_tok's memory order, which the softmax's row sums see
    phrase_max = np.empty_like(q_tok)
    phrase_max.fill(0.0)
    if tokens.size:
        best = np.maximum.reduceat(q_sphr.take(phrases, axis=1), starts, axis=1)
        phrase_max[:, tokens] = best if step_rows is None else best[step_rows]
    phrase_max *= q_slist[:, None]
    phrase_max *= q_tok
    return softmax(phrase_max, axis=1)


def interpolate(p_bb: np.ndarray, q_bias: np.ndarray, q_slist: np.ndarray) -> np.ndarray:
    """Per-step convex mix of backbone and biased distributions."""
    w = np.asarray(q_slist, dtype=float)[:, None]
    out = np.multiply(1.0 - w, p_bb)
    out += w * q_bias
    return out


def greedy_decode(probs: np.ndarray) -> tuple[int, ...]:
    """Row argmax; ties resolve to the smallest token index."""
    return tuple(probs.argmax(axis=1).tolist())


def count_phrases(hyp, biasing_list: BiasingList, kept=None) -> int:
    """Non-overlapping real-phrase occurrences in the hypothesis; with
    ``kept``, of the kept phrases only (see ``scan_occurrences``)."""
    return len(scan_occurrences(hyp, biasing_list, kept))


def post_process(hyp_casr, hyp_bb, biasing_list: BiasingList, kept=None) -> tuple:
    """Keep the biased hypothesis only if it detects strictly more phrases.

    Guards against over-biasing: a biased pass that did not surface any new
    phrase has no business overriding the backbone. Returns the kept
    hypothesis and the two phrase counts, (kept, count_casr, count_bb).
    With ``kept``, only the kept phrases of the list count.
    """
    n_casr = count_phrases(hyp_casr, biasing_list, kept)
    # the same hypothesis holds the same phrases
    n_bb = n_casr if hyp_bb == hyp_casr else count_phrases(hyp_bb, biasing_list, kept)
    return (hyp_casr if n_casr > n_bb else hyp_bb), n_casr, n_bb


def _guarded_decode(
    bundle, biasing_list: BiasingList, q_bias, weight, q_sphr=None, kept=None,
    window_start=None, phrase_length=None,
) -> DecodeResult:
    """Everything after the biased distribution: interpolate it with the
    backbone by the per-step weight, decode both greedily, and keep the
    biased hypothesis only if the count guard allows."""
    hyp_bb = greedy_decode(bundle.p_bb)
    q_casr = interpolate(bundle.p_bb, q_bias, weight)
    hyp_casr = greedy_decode(q_casr)
    hyp_final, count_casr, count_bb = post_process(hyp_casr, hyp_bb, biasing_list, kept)
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
        window_start=window_start,
        phrase_length=phrase_length,
    )


def _backbone_only(bundle) -> DecodeResult:
    """The list holds no real phrase, so the biased path cannot say
    anything: q_bias is uniform and the backbone hypothesis stands."""
    hyp_bb = greedy_decode(bundle.p_bb)
    q_bias = np.full_like(bundle.p_bb, 1.0 / bundle.p_bb.shape[1])
    return DecodeResult(hyp_bb=hyp_bb, hyp_casr=hyp_bb, hyp_final=hyp_bb, count_bb=0,
                        count_casr=0, q_bias=q_bias)


def _entry(bundle, biasing_list: BiasingList, phi: PhiMask, kept=None) -> CorrelationBundle:
    """The bundle a decoder works on: a ``CorrelationBundle`` as it is (its
    contract was checked when it was made), any other object with the four
    arrays checked into one. Either way the mask's rows must match the list,
    the bundle's phrase axis the list (or the kept indices, when given), and
    its vocabulary axis the mask; else ``ValueError``."""
    if not isinstance(bundle, CorrelationBundle):
        bundle = CorrelationBundle(q_list=bundle.q_list, q_phr=bundle.q_phr,
                                   q_tok=bundle.q_tok, p_bb=bundle.p_bb)
    m, v = phi.matrix.shape
    cols = biasing_list.size if kept is None else kept.indices.size
    if bundle.q_phr.shape[1] != cols or m != biasing_list.size:
        raise ValueError(f"q_phr has {bundle.q_phr.shape[1]} phrase columns and phi "
                         f"{m} rows, the biasing list {biasing_list.size} entries"
                         + ("" if kept is None else f", {kept.indices.size} of them kept"))
    if bundle.q_tok.shape[1] != v:
        raise ValueError(f"q_tok and p_bb have {bundle.q_tok.shape[1]} token columns, "
                         f"phi has {v}")
    return bundle


def decode_utterance(
    bundle, biasing_list: BiasingList, phi: PhiMask, params: SmoothingParams, kept=None
) -> DecodeResult:
    """Full biased decode of one utterance.

    Smooth the list correlation, pool the phrase correlations over the
    located window and intersect; the smoothed list correlation is the
    interpolation weight. On wide lists, steps that share a window are
    pooled and intersected once (see ``smoothing._pool_windows``). When the
    list holds no real phrase, the backbone hypothesis is returned directly.

    With ``kept`` (a ``KeptSet``, or indices for ``KeptSet.of``) the bundle
    scores the purified list ``biasing_list.sublist(kept)``, and the result
    is bit for bit the decode of that sublist with ``restrict_phi(phi,
    kept)``, read through the full list's and mask's cached indexes.
    """
    if kept is not None:
        kept = KeptSet.of(kept, biasing_list.size)
    bundle = _entry(bundle, biasing_list, phi, kept)
    if (biasing_list.size if kept is None else kept.indices.size) <= 1:
        return _backbone_only(bundle)
    q_slist = triangular_smooth(bundle.q_list, params)
    pooled, step_rows, starts, length = _pool_windows(bundle.q_phr, bundle.q_list, q_slist)
    q_bias = joint_intersection(q_slist, pooled, bundle.q_tok, phi, kept, step_rows)
    q_sphr = pooled if step_rows is None else pooled[step_rows]
    return _guarded_decode(bundle, biasing_list, q_bias, q_slist, q_sphr, kept, starts,
                           length)


def attention_decode(bundle, biasing_list: BiasingList, phi: PhiMask) -> DecodeResult:
    """Comparison stub: plain attention-weighted-sum biasing.

    Instead of max-intersecting smoothed correlations, this normalizes the
    raw phrase scores into attention weights, sums the containment rows
    under them, and interpolates with the raw (unsmoothed) list correlation.
    The sum runs over the mask's nonzeros grouped by token, the index
    ``joint_intersection`` takes its maxima over: per (step, token) the
    first containing phrase's weight plus numpy's pairwise sum of the rest,
    in ascending phrase order; tokens in no phrase get 0. Kept only as a
    baseline for trend comparisons.
    """
    bundle = _entry(bundle, biasing_list, phi)
    if biasing_list.size <= 1:
        return _backbone_only(bundle)
    totals = np.maximum(bundle.q_phr.sum(axis=1, keepdims=True), 1e-12)
    weights = bundle.q_phr / totals
    tokens, starts, phrases = phi.by_token
    mix = np.zeros(bundle.q_tok.shape)
    if tokens.size:
        mix[:, tokens] = np.add.reduceat(weights.take(phrases, axis=1), starts, axis=1)
    mix *= bundle.q_tok
    q_attn = softmax(mix, axis=1)
    return _guarded_decode(bundle, biasing_list, q_attn, bundle.q_list)
