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

from .corpus import BiasingList, PhiMask, scan_occurrences
from .numeric import softmax
from .bundle import CorrelationBundle
from .smoothing import SmoothingParams, guided_phrase_smooth, triangular_smooth


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Both hypotheses, the one the count guard kept, the real-phrase counts
    the guard compared (against the decoded list), and the arrays that
    produced them: the biased distribution, the per-step interpolation
    weight, the pooled phrase correlations (joint decode only) and the
    interpolated distribution. Without a real phrase in the list, q_bias
    is uniform, both counts are 0 and nothing else is computed."""

    hyp_bb: tuple[int, ...]
    hyp_casr: tuple[int, ...]
    hyp_final: tuple[int, ...]
    count_bb: int
    count_casr: int
    q_bias: np.ndarray
    weight: np.ndarray | None = None
    q_sphr: np.ndarray | None = None
    q_casr: np.ndarray | None = None


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
    u = q_sphr.shape[0] if q_sphr.ndim == 2 else -1
    if q_sphr.shape != (u, m) or q_tok.shape != (u, v):
        raise ValueError("correlation shapes disagree with the mask")
    if q_slist.shape != (u,):
        raise ValueError(f"q_slist has shape {q_slist.shape}, expected ({u},): one "
                         "list weight per step")
    # a segment max over the mask's nonzeros, grouped by token; correlations
    # are nonnegative, so this equals the max over all phrases of
    # q_sphr * phi, where a phrase lacking the token contributes 0
    tokens, starts, phrases = phi.by_token
    phrase_max = np.zeros_like(q_tok)
    if tokens.size:
        phrase_max[:, tokens] = np.maximum.reduceat(
            np.take(q_sphr, phrases, axis=1), starts, axis=1
        )
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
    return tuple(np.argmax(probs, axis=1).tolist())


def count_phrases(hyp, biasing_list: BiasingList) -> int:
    """Non-overlapping real-phrase occurrences in the hypothesis."""
    return len(scan_occurrences(hyp, biasing_list))


def post_process(hyp_casr, hyp_bb, biasing_list: BiasingList) -> tuple:
    """Keep the biased hypothesis only if it detects strictly more phrases.

    Guards against over-biasing: a biased pass that did not surface any new
    phrase has no business overriding the backbone. Returns the kept
    hypothesis and the two phrase counts, (kept, count_casr, count_bb).
    """
    n_casr = count_phrases(hyp_casr, biasing_list)
    n_bb = count_phrases(hyp_bb, biasing_list)
    return (hyp_casr if n_casr > n_bb else hyp_bb), n_casr, n_bb


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


def _entry(bundle, biasing_list: BiasingList, phi: PhiMask) -> CorrelationBundle:
    """The bundle a decoder works on: a ``CorrelationBundle`` as it is (its
    contract was checked when it was made), any other object with the four
    arrays checked into one. Either way its phrase axis must match the list
    and the mask, and its vocabulary axis the mask; else ``ValueError``."""
    if not isinstance(bundle, CorrelationBundle):
        bundle = CorrelationBundle(q_list=bundle.q_list, q_phr=bundle.q_phr,
                                   q_tok=bundle.q_tok, p_bb=bundle.p_bb)
    m, v = phi.matrix.shape
    if bundle.q_phr.shape[1] != biasing_list.size or m != biasing_list.size:
        raise ValueError(f"q_phr has {bundle.q_phr.shape[1]} phrase columns and phi "
                         f"{m} rows, the biasing list {biasing_list.size} entries")
    if bundle.q_tok.shape[1] != v:
        raise ValueError(f"q_tok and p_bb have {bundle.q_tok.shape[1]} token columns, "
                         f"phi has {v}")
    return bundle


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
    mix = weights @ phi.dense
    mix *= bundle.q_tok
    q_attn = softmax(mix, axis=1)
    return _guarded_decode(bundle, biasing_list, q_attn, bundle.q_list)
