"""Contextual-biasing inference pipeline with a synthetic scorer bank.

A biasing list is a set of phrases the recognizer should favor. The
pipeline scores each decoding step against the list at three levels
(list, phrase, token), smooths the list-level scores over time, fuses
the three levels into a biased token distribution, interpolates it with
the backbone, and keeps the biased hypothesis only when it surfaces more
list phrases. Long lists are first shrunk by competitive purification.

Everything runs on deterministic synthetic scores derived from ground
truth plus controllable noise, so the decoding properties can be
measured without a trained model. Training losses and the embedding
scorer live in ``ctxbias.reference``, which no other module imports.
"""

from .bundle import CorrelationBundle
from .corpus import (
    BiasingList,
    KeptSet,
    PhiMask,
    Span,
    Utterance,
    Vocabulary,
    build_phi,
    scan_occurrences,
)
from .jointdecode import (
    DecodeResult,
    attention_decode,
    count_phrases,
    decode_utterance,
    greedy_decode,
    interpolate,
    joint_intersection,
    post_process,
)
from .metrics import MetricsReport, cer, phrase_prf, retention_rate, rtf
from .purify import PurifyParams, PurifyResult, gcp, ocp, restrict_phi
from .simulate import NoiseSpec, SyntheticScorer
from .smoothing import (
    SmoothingParams,
    estimate_phrase_length,
    guided_phrase_smooth,
    locate_window,
    triangular_smooth,
)

__version__ = "0.1.0"

__all__ = [
    "BiasingList",
    "CorrelationBundle",
    "DecodeResult",
    "KeptSet",
    "MetricsReport",
    "NoiseSpec",
    "PhiMask",
    "PurifyParams",
    "PurifyResult",
    "SmoothingParams",
    "Span",
    "SyntheticScorer",
    "Utterance",
    "Vocabulary",
    "attention_decode",
    "build_phi",
    "cer",
    "count_phrases",
    "decode_utterance",
    "estimate_phrase_length",
    "gcp",
    "greedy_decode",
    "guided_phrase_smooth",
    "interpolate",
    "joint_intersection",
    "locate_window",
    "ocp",
    "phrase_prf",
    "post_process",
    "restrict_phi",
    "retention_rate",
    "rtf",
    "scan_occurrences",
    "triangular_smooth",
]
