"""Training losses for the three scorers, with closed-form gradients, and
the ground-truth targets they train against.

The package never trains anything; these exist as verified-numerics
reference implementations, checkable against finite differences. Losses sum
over steps rather than averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import BiasingList, Utterance, validate_spans

CLAMP = 1e-7


@dataclass(frozen=True, eq=False)
class ReferenceLabels:
    """Ground truth targets: per-step list flags, per-phrase flags, tokens."""

    y_list: np.ndarray
    y_phr: np.ndarray
    y_tok: np.ndarray


def make_labels(utt: Utterance, biasing_list: BiasingList) -> ReferenceLabels:
    """Ground-truth targets for one utterance.

    y_list marks gold-span steps, y_phr marks the phrases the utterance
    contains (one-hot at no-bias when it contains none), y_tok is the
    reference itself.
    """
    validate_spans(utt, biasing_list)
    u = utt.n_steps
    y_list = np.zeros(u, dtype=np.uint8)
    y_phr = np.zeros(biasing_list.size, dtype=np.uint8)
    for s in utt.spans:
        y_list[s.start : s.end] = 1
        y_phr[s.phrase] = 1
    if not utt.spans:
        y_phr[0] = 1
    return ReferenceLabels(y_list=y_list, y_phr=y_phr, y_tok=np.asarray(utt.tokens, dtype=np.intp))


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 0.75
    gamma: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly inside (0,1)")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def _focal_terms(q_list, y_list, p: FocalParams):
    q = np.asarray(q_list, dtype=float)
    y = np.asarray(y_list, dtype=float)
    if q.shape != y.shape:
        raise ValueError("score and label lengths differ")
    q = np.clip(q, CLAMP, 1.0 - CLAMP)
    tau = q * y + (1.0 - q) * (1.0 - y)
    theta = p.alpha * y + (1.0 - p.alpha) * (1.0 - y)
    return q, y, tau, theta


def focal_loss(q_list, y_list, p: FocalParams) -> float:
    """Sum over steps of -theta * (1-tau)^gamma * log tau.

    tau is the probability assigned to the true label, theta the class
    weight (alpha on positives, 1-alpha on negatives).
    """
    _, _, tau, theta = _focal_terms(q_list, y_list, p)
    return float(np.sum(-theta * (1.0 - tau) ** p.gamma * np.log(tau)))


def focal_loss_grad(q_list, y_list, p: FocalParams) -> np.ndarray:
    """d(focal_loss)/dq per step, valid away from the clamp boundaries."""
    _, y, tau, theta = _focal_terms(q_list, y_list, p)
    d_tau = -theta * (1.0 - tau) ** p.gamma / tau
    if p.gamma > 0:
        d_tau = d_tau + theta * p.gamma * (1.0 - tau) ** (p.gamma - 1.0) * np.log(tau)
    return d_tau * (2.0 * y - 1.0)


def phrase_pool(e_bias: np.ndarray, y_list) -> np.ndarray:
    """Sum the biased embeddings over the labelled steps."""
    y = np.asarray(y_list, dtype=float)
    if e_bias.shape[0] != y.shape[0]:
        raise ValueError("row count and label length differ")
    return y @ e_bias


def cosine_sims(e: np.ndarray, e_phr: np.ndarray) -> np.ndarray:
    e_norm = np.linalg.norm(e)
    row_norms = np.linalg.norm(e_phr, axis=1)
    if e_norm == 0 or np.any(row_norms == 0):
        raise ValueError("cosine similarity undefined for zero-norm vectors")
    return (e_phr @ e) / (e_norm * row_norms)


def contrastive_loss(s, y_phr) -> float:
    """Sum of -s on positive phrases plus +s on negatives."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y_phr, dtype=float)
    if s.shape != y.shape:
        raise ValueError("score and label lengths differ")
    return float(np.sum(s * (1.0 - 2.0 * y)))


def contrastive_loss_grad(s, y_phr) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    y = np.asarray(y_phr, dtype=float)
    if s.shape != y.shape:
        raise ValueError("score and label lengths differ")
    return np.full_like(s, 1.0) - 2.0 * y


def token_ce(q_tok: np.ndarray, y_tok) -> float:
    """Sum of negative log probability of the reference token per step."""
    y = np.asarray(y_tok, dtype=np.intp)
    if q_tok.shape[0] != y.shape[0]:
        raise ValueError("row count and label length differ")
    if y.min(initial=0) < 0 or y.max(initial=0) >= q_tok.shape[1]:
        raise ValueError("token index outside the vocabulary")
    picked = q_tok[np.arange(len(y)), y]
    return float(np.sum(-np.log(np.maximum(picked, CLAMP))))


def token_ce_grad(q_tok: np.ndarray, y_tok) -> np.ndarray:
    """d(token_ce)/d(q_tok): -1/q at the reference entries, 0 elsewhere."""
    y = np.asarray(y_tok, dtype=np.intp)
    grad = np.zeros_like(q_tok, dtype=float)
    steps = np.arange(len(y))
    picked = np.maximum(q_tok[steps, y], CLAMP)
    grad[steps, y] = -1.0 / picked
    return grad


def total_loss(l_list: float, l_phr: float, l_tok: float) -> float:
    for v in (l_list, l_phr, l_tok):
        if not np.isfinite(v):
            raise ValueError("loss terms must be finite")
    return float(l_list + l_phr + l_tok)
