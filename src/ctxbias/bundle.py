"""The bundle contract: the four arrays a scorer hands the decoders.

A ``CorrelationBundle`` is checked where it enters: when it is built, in
``load_bundle`` (what a real model would feed in), and in either decoder
when it is handed any other object carrying the four arrays. Every error
is a ``ValueError`` that names the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class CorrelationBundle:
    """Scorer outputs for one utterance against one biasing list.

    q_list: (U,) in [0,1].  q_phr: (U, M) in [0,1], not row-normalized (each
    entry is a per-phrase relevance).  q_tok and p_bb: (U, V) row-stochastic.
    U and M are at least 1. Every array holds real floating values and is
    stored as float64; anything else raises ``ValueError`` naming the array.
    """

    q_list: np.ndarray
    q_phr: np.ndarray
    q_tok: np.ndarray
    p_bb: np.ndarray

    def __post_init__(self) -> None:
        for name, ndim in (("q_list", 1), ("q_phr", 2), ("q_tok", 2), ("p_bb", 2)):
            a = np.asarray(getattr(self, name))
            if a.ndim != ndim:
                raise ValueError(f"{name} must be {ndim}-d, got shape {a.shape}")
            if a.dtype.kind != "f":
                raise ValueError(f"{name} must hold real floating values, got dtype {a.dtype}")
            object.__setattr__(self, name, a.astype(np.float64, copy=False))
        u = self.q_list.shape[0]
        if u == 0:
            raise ValueError("q_list has no steps")
        for name in ("q_phr", "q_tok", "p_bb"):
            steps = getattr(self, name).shape[0]
            if steps != u:
                raise ValueError(f"{name} has {steps} steps, q_list has {u}")
        if self.q_phr.shape[1] == 0:
            raise ValueError("q_phr has no phrase column")
        if self.q_tok.shape != self.p_bb.shape:
            raise ValueError("q_tok and p_bb must share a vocabulary axis")
        _check_values(self.q_list, self.q_phr, self.q_tok, self.p_bb)

    @classmethod
    def _of_checked(cls, q_list, q_phr, q_tok, p_bb) -> "CorrelationBundle":
        """A bundle of float64 arrays the scorer took from arrays it checked
        against the contract when it was built, so it is not checked again."""
        bundle = object.__new__(cls)
        for name, a in (("q_list", q_list), ("q_phr", q_phr), ("q_tok", q_tok), ("p_bb", p_bb)):
            object.__setattr__(bundle, name, a)
        return bundle

    @property
    def n_steps(self) -> int:
        return self.q_list.shape[0]


def _check_values(q_list, q_phr, q_tok, p_bb) -> None:
    """The value half of the bundle contract, for float64 arrays of any
    shape: everything finite and nonnegative, the correlations at most 1,
    and the rows of q_tok and p_bb summing to 1 within 1e-9. An array
    given as None is not checked (the scorer checks its phrase scores as
    it draws them).

    NaN-propagating ``min``/``max`` and the row-sum test decide: a NaN
    fails every comparison, -inf fails the lower bound, and +inf fails the
    upper bound or makes its row sum infinite. Only when a check fails is
    the array-naming message worked out, by ``_explain_values``."""
    for a in (q_list, q_phr):
        if a is not None and not (a.min(initial=0.0) >= 0 and a.max(initial=0.0) <= 1):
            _explain_values(q_list, q_phr, q_tok, p_bb)
    for a in (q_tok, p_bb):
        if a is not None and not (a.min(initial=0.0) >= 0
                                  and np.abs(a.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-9):
            _explain_values(q_list, q_phr, q_tok, p_bb)


def _explain_values(q_list, q_phr, q_tok, p_bb) -> None:
    """The value contract checked one clause at a time, raising
    ``ValueError`` with the first failing array and clause."""
    named = [(name, a) for name, a in (("q_list", q_list), ("q_phr", q_phr), ("q_tok", q_tok),
                                       ("p_bb", p_bb)) if a is not None]
    for name, a in named:
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")
        if a.min(initial=0.0) < 0:
            raise ValueError(f"{name} contains negative values")
    for name, a in named:
        if name in ("q_list", "q_phr"):
            if a.max(initial=0.0) > 1:
                raise ValueError(f"{name} holds correlations above 1")
        elif np.abs(a.sum(axis=-1) - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError(f"{name} rows must sum to 1")
    raise AssertionError("a failed value check found no failing clause")


def save_bundle(bundle: CorrelationBundle, path) -> None:
    """Write the four arrays to ``path`` as an ``.npz`` archive, at exactly
    that path: no suffix is added."""
    with open(path, "wb") as f:
        np.savez(
            f, q_list=bundle.q_list, q_phr=bundle.q_phr, q_tok=bundle.q_tok, p_bb=bundle.p_bb
        )


def load_bundle(path) -> CorrelationBundle:
    """Load a bundle saved by save_bundle (or produced by a real model). A
    file that is not an ``.npz`` (zip) archive raises ``ValueError`` naming
    the path."""
    path = Path(path)
    with open(path, "rb") as f:
        # the two zip signatures np.load itself takes an archive by
        if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ValueError(f"{path} is not an .npz archive")
    with np.load(path) as data:
        missing = {"q_list", "q_phr", "q_tok", "p_bb"} - set(data.files)
        if missing:
            raise ValueError(f"bundle file lacks arrays: {sorted(missing)}")
        return CorrelationBundle(
            q_list=data["q_list"],
            q_phr=data["q_phr"],
            q_tok=data["q_tok"],
            p_bb=data["p_bb"],
        )
