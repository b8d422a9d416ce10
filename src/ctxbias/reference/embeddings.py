"""Synthetic embedding banks for the attention scoring pathway.

The decoder consumes correlation scores, not embeddings; these banks only
feed the reference cross-attention in ``attention.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import rng
from ..corpus import BiasingList, Utterance
from ..simulate import NoiseSpec


@dataclass(frozen=True, eq=False)
class EmbeddingBank:
    """Acoustic rows (one per step) and phrase rows (one per list entry)."""

    acoustic: np.ndarray
    phrase: np.ndarray

    def __post_init__(self) -> None:
        if self.acoustic.ndim != 2 or self.phrase.ndim != 2:
            raise ValueError("embedding banks must be 2-d")
        if self.acoustic.shape[1] != self.phrase.shape[1]:
            raise ValueError("acoustic and phrase dimensions differ")
        if not (np.isfinite(self.acoustic).all() and np.isfinite(self.phrase).all()):
            raise ValueError("embeddings must be finite")
        if np.any(np.linalg.norm(self.phrase, axis=1) == 0):
            raise ValueError("phrase embeddings must have nonzero rows")


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return a / norms


def synth_embeddings(
    utt: Utterance, biasing_list: BiasingList, spec: NoiseSpec, d: int = 16
) -> EmbeddingBank:
    """Fabricate embeddings whose scaled dot products behave like scores.

    Rows carry norm d**0.25, so (1/sqrt d) <a, b> equals the cosine of the
    two rows. At zero jitter a gold-span acoustic row equals its phrase row;
    jitter mixes in an orthogonal-ish noise direction, degrading the cosine.
    """
    if d < 8:
        raise ValueError("embedding dimension must be at least 8")
    m = biasing_list.size
    u = utt.n_steps
    e_phr = rng.normal_field(rng.stream_key(spec.seed, "ephr"), np.arange(m), np.arange(d))
    e_phr = _unit_rows(e_phr)
    e_aco = rng.normal_field(rng.stream_key(spec.seed, "eaco", utt.uid), np.arange(u),
                             np.arange(d))
    e_aco = _unit_rows(e_aco)
    mix = min(1.0, spec.score_jitter_sigma) * rng.uniform_field(
        rng.stream_key(spec.seed, "emix", utt.uid), np.arange(u, dtype=np.uint64)
    )
    for s in utt.spans:
        for step in range(s.start, s.end):
            t = mix[step]
            row = (1.0 - t) * e_phr[s.phrase] + t * e_aco[step]
            e_aco[step] = row
    e_aco = _unit_rows(e_aco)
    scale = d**0.25
    return EmbeddingBank(acoustic=e_aco * scale, phrase=e_phr * scale)
