"""Scaled dot-product cross-attention between acoustic steps and phrases.

This is the scoring pathway that produces phrase-level correlations and
biased embeddings from embedding banks. Projections are the identity: there
are no trained weights here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numeric import softmax


@dataclass(frozen=True, eq=False)
class AttentionOutput:
    """weights: (U, M, N) per-head attention; e_bias/e_comp: (U, d)."""

    weights: np.ndarray
    e_bias: np.ndarray
    e_comp: np.ndarray


def corr_scores(e_acou: np.ndarray, e_phr: np.ndarray) -> np.ndarray:
    """Scaled dot products: entry (u, m) = <e_acou[u], e_phr[m]> / sqrt(d)."""
    if e_acou.ndim != 2 or e_phr.ndim != 2 or e_acou.shape[1] != e_phr.shape[1]:
        raise ValueError("embedding matrices must be 2-d with a shared dimension")
    d = e_acou.shape[1]
    return (e_acou @ e_phr.T) / np.sqrt(d)


def cross_attention(e_acou: np.ndarray, e_phr: np.ndarray, n_heads: int = 1) -> AttentionOutput:
    """Multi-head cross-attention with the acoustic rows as queries.

    Heads split the embedding dimension evenly; per head, weights are the
    softmax over phrases of the scaled dot products, and the biased
    embedding is the weight-averaged phrase rows. Head outputs concatenate
    back to (U, d). The compound embedding adds the acoustic rows back in.
    """
    if e_acou.ndim != 2 or e_phr.ndim != 2 or e_acou.shape[1] != e_phr.shape[1]:
        raise ValueError("embedding matrices must be 2-d with a shared dimension")
    d = e_acou.shape[1]
    if n_heads < 1 or d % n_heads != 0:
        raise ValueError(f"dimension {d} is not divisible into {n_heads} heads")
    u, m = e_acou.shape[0], e_phr.shape[0]
    d_h = d // n_heads
    qh = e_acou.reshape(u, n_heads, d_h)
    kh = e_phr.reshape(m, n_heads, d_h)
    scores = np.einsum("unc,mnc->umn", qh, kh) / np.sqrt(d_h)
    weights = softmax(scores, axis=1)
    e_bias = np.einsum("umn,mnc->unc", weights, kh).reshape(u, d)
    return AttentionOutput(weights=weights, e_bias=e_bias, e_comp=e_bias + e_acou)


def phrase_corr_from_heads(weights: np.ndarray) -> np.ndarray:
    """Phrase-level correlation: per (u, m), the max weight over heads."""
    if weights.ndim != 3:
        raise ValueError("expected a (U, M, N) weight tensor")
    if np.any(weights < 0):
        raise ValueError("attention weights must be nonnegative")
    return weights.max(axis=2)
