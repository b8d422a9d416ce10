"""The synthetic scorer's build as it stood before the lean rewrite, kept
verbatim as the bit-level oracle for ``ctxbias.simulate``.

It carries its own copies of the counter-based fields (``rng``) and of
``expit``/``logit``, so it does not lean on the code it checks. Only the
corpus types and ``NoiseSpec`` come from the package. ``_check_values`` here
is the full, clause-by-clause value check, the oracle for the bundle
contract's fast check. Not a test module: the tests import it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ctxbias.corpus import BiasingList, PhiMask, Utterance, Vocabulary, build_phi, validate_spans
from ctxbias.simulate import NoiseSpec

# -- rng, as it stood ---------------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 1.0 / (1 << 53)
# the two sub-stream keys of a normal draw
_NORMAL_K1 = 0x9E3779B97F4A7C15
_NORMAL_K2 = 0xC2B2AE3D27D4EB4F


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2**64)."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix_inplace(h: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 buffer, in place, with ``tmp`` (same
    shape) as scratch; uint64 arithmetic wraps by design."""
    h += np.uint64(_GOLDEN)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(30), out=tmp), out=h)
    h *= np.uint64(_MIX1)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(27), out=tmp), out=h)
    h *= np.uint64(_MIX2)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(31), out=tmp), out=h)


def _part_to_int(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if isinstance(part, int):
        # negative seeds allowed; reinterpret as two's complement
        if not -(1 << 63) <= part < 1 << 63:
            raise OverflowError(f"stream key part {part} does not fit in int64")
        return part & _MASK
    return int(np.int64(part).view(np.uint64))


def stream_key(*parts: int | str) -> np.uint64:
    """Fold seed/tag/id parts into a single 64-bit stream key."""
    acc = 0x6A09E667F3BCC908
    for part in parts:
        acc = _mix_int(acc ^ _part_to_int(part))
    return np.uint64(acc)


def _golden_index(index) -> np.ndarray:
    """``index * GOLDEN`` as a fresh uint64 array (0-d for a scalar index)."""
    idx = np.asarray(index, dtype=np.uint64)
    return np.multiply(idx, np.uint64(_GOLDEN), out=np.empty(idx.shape, np.uint64))


def _to_uniform(h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Uniforms from a fresh buffer of ``index * GOLDEN ^ key``, in place."""
    _mix_inplace(h, tmp)
    h >>= np.uint64(11)
    # below 2**53 every value converts exactly, and int64 converts faster
    out = h.view(np.float64)
    np.multiply(h.view(np.int64), _U53, out=out)
    return out


def uniform_field(key: np.uint64, index: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) values addressed by integer index under a stream key."""
    h = _golden_index(index)
    h ^= np.uint64(key)
    # a 0-d index gives a scalar, as numpy's scalar arithmetic does
    return _to_uniform(h, np.empty_like(h))[()]


def normal_field(key: np.uint64, index: np.ndarray) -> np.ndarray:
    """Standard normal values addressed by integer index (Box-Muller)."""
    key = int(key)
    golden = _golden_index(index)
    tmp = np.empty_like(golden)
    k1 = np.uint64(_mix_int(key ^ _NORMAL_K1))
    u1 = _to_uniform(np.bitwise_xor(golden, k1, out=np.empty_like(golden)), tmp)
    golden ^= np.uint64(_mix_int(key ^ _NORMAL_K2))
    u2 = _to_uniform(golden, tmp)
    # 1 - u1 lies in (0, 1], so the log is finite
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1[()]


def grid_index(n_rows: int, n_cols: int) -> np.ndarray:
    """Row-major (u, m) index grid usable with the field functions."""
    return grid_cells(np.arange(n_rows), np.arange(n_cols))


def grid_cells(rows, cols) -> np.ndarray:
    """Indices of the cells (rows x cols) of the grid ``grid_index`` spans,
    so a field drawn over them equals that sub-block of the full field."""
    rows = np.asarray(rows, dtype=np.uint64)[:, None]
    cols = np.asarray(cols, dtype=np.uint64)[None, :]
    return rows * np.uint64(1 << 32) + cols

rng = SimpleNamespace(stream_key=stream_key, uniform_field=uniform_field,
                      normal_field=normal_field, grid_index=grid_index, grid_cells=grid_cells)

# -- numeric, as it stood -----------------------------------------------------

def expit(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in float64, stable for large |x|.

    Both branches share e = exp(-|x|), which never overflows: 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere. Both are computed over the whole
    array and the first is copied in where x >= 0, which beats gathering and
    scattering each branch through a boolean mask.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    e = np.where(pos, -x, x)
    np.exp(e, out=e)
    d = e.copy()  # not e + 1.0, which turns a 0-d array into a scalar
    d += 1.0
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=pos)
    return e


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; caller is responsible for keeping p inside (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.log(p)
    tail = np.negative(p)
    out -= np.log1p(tail, out=tail)
    return out

# -- simulate, as it stood ----------------------------------------------------

# backbone row shape: primary mass on the reference token, a runner-up on
# its confusable partner that nearly ties (homophones sound the same), the
# rest spread flat
BACKBONE_PRIMARY = 0.43
BACKBONE_SECONDARY = 0.428

# token-scorer row shape at a confused step: trained with biasing context,
# the scorer keeps the reference comfortably on top while the confusable
# partner takes second place; only the backbone falls for the swap
TOKEN_CONFUSED_REF = 0.50
TOKEN_CONFUSED_PARTNER = 0.30

# list-correlation evidence that bleeds one step past a span boundary; only
# present when jitter is active, so the zero-noise scores stay exact
ADJACENT_EVIDENCE = 0.85

# logit-space jitter: effective sd is gain * sigma, applied after clamping
# scores into [floor, JITTER_CAP]; the list channel flutters hard (that is
# what the smoothing is for) while the phrase matrix wobbles more gently,
# else its extreme values over a long list drown the real signal. The list
# head saturates toward 0 off-span, so its floor sits near zero; the phrase
# head never goes fully silent, which leaves a per-entry residue that adds
# up over a long biasing list.
JITTER_GAIN = 15.0
PHRASE_JITTER_GAIN = 6.0
JITTER_CAP = 0.9
JITTER_FLOOR = 1e-4
PHRASE_JITTER_FLOOR = 6e-3

TOKEN_JITTER_GAIN = 0.5


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
    and the rows of q_tok and p_bb summing to 1 within 1e-9."""
    for name, a in (("q_list", q_list), ("q_phr", q_phr), ("q_tok", q_tok), ("p_bb", p_bb)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")
        if a.min(initial=0.0) < 0:
            raise ValueError(f"{name} contains negative values")
    for name, a in (("q_list", q_list), ("q_phr", q_phr)):
        if a.max(initial=0.0) > 1:
            raise ValueError(f"{name} holds correlations above 1")
    for name, a in (("q_tok", q_tok), ("p_bb", p_bb)):
        if np.abs(a.sum(axis=-1) - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError(f"{name} rows must sum to 1")


def synth_backbone(utt: Utterance, spec: NoiseSpec, vocab: Vocabulary) -> np.ndarray:
    """Backbone token distributions, (U, V) row-stochastic.

    Each row puts BACKBONE_PRIMARY on the reference token and
    BACKBONE_SECONDARY on its confusable partner, the remainder flat. With
    probability confusion_rate, a gold-span step swaps the two, so its
    argmax becomes the partner. Jitter never touches the backbone.
    """
    refs = np.asarray(utt.tokens, dtype=np.intp)
    u, v = len(refs), vocab.size
    partners = np.asarray(vocab.confusable, dtype=np.intp)[refs]
    floor = (1.0 - BACKBONE_PRIMARY - BACKBONE_SECONDARY) / (v - 2)
    p = np.full((u, v), floor)
    steps = np.arange(u)
    p[steps, refs] = BACKBONE_PRIMARY
    distinct = partners != refs
    p[steps[distinct], partners[distinct]] = BACKBONE_SECONDARY
    confused = _confusion_mask(utt, spec) & distinct
    idx = steps[confused]
    p[idx, refs[confused]] = BACKBONE_SECONDARY
    p[idx, partners[confused]] = BACKBONE_PRIMARY
    return p / p.sum(axis=1, keepdims=True)


def _span_mask(utt: Utterance) -> np.ndarray:
    mask = np.zeros(utt.n_steps, dtype=bool)
    for s in utt.spans:
        mask[s.start : s.end] = True
    return mask


def _confusion_mask(utt: Utterance, spec: NoiseSpec) -> np.ndarray:
    """Steps where the acoustic evidence points at the confusable partner.

    Shared between the backbone and the token scorer: both listen to the
    same (synthetic) audio, so they mishear the same steps.
    """
    if spec.confusion_rate == 0.0 or not utt.spans:
        return np.zeros(utt.n_steps, dtype=bool)
    draws = rng.uniform_field(
        rng.stream_key(spec.seed, "confuse", utt.uid), np.arange(utt.n_steps, dtype=np.uint64)
    )
    return (draws < spec.confusion_rate) & _span_mask(utt)


def _jitter(
    x: np.ndarray,
    sigma: float,
    z: np.ndarray,
    gain: float = JITTER_GAIN,
    floor: float = JITTER_FLOOR,
) -> np.ndarray:
    if sigma == 0.0:
        return x
    base = logit(np.clip(x, floor, JITTER_CAP))
    base += gain * sigma * z
    return expit(base)


class SyntheticScorer:
    """Ground-truth-derived correlation scores for one utterance.

    Precomputes per-(step, phrase) evidence against the full biasing list;
    every query (the full bundle, or any phrase subset during purification)
    slices the same cached arrays, so a phrase's score never depends on
    which other phrases it is scored with.
    """

    def __init__(
        self,
        utt: Utterance,
        biasing_list: BiasingList,
        vocab: Vocabulary,
        spec: NoiseSpec,
        phi: PhiMask | None = None,
    ) -> None:
        validate_spans(utt, biasing_list)
        self.utt = utt
        self.biasing_list = biasing_list
        self.vocab = vocab
        self.spec = spec
        self.phi = phi if phi is not None else build_phi(biasing_list, vocab)
        self._u = utt.n_steps
        self._m = biasing_list.size
        self._y_list = _span_mask(utt)
        self._ev_list = self._build_list_evidence()
        self._q_phr = self._build_phrase_scores()
        self._q_tok = self._build_token_scores()
        self._p_bb = synth_backbone(utt, spec, vocab)
        # every bundle shares these two; they are never written after the build
        self._q_tok.flags.writeable = False
        self._p_bb.flags.writeable = False
        # the list-channel draws depend on the step alone, not on the queried
        # sublist; drawing them once keeps repeated group queries cheap
        steps = np.arange(self._u, dtype=np.uint64)
        self._flip_draws = (
            rng.uniform_field(rng.stream_key(spec.seed, "flip", utt.uid), steps)
            if spec.label_flip_rate > 0.0
            else None
        )
        self._z_list = (
            rng.normal_field(rng.stream_key(spec.seed, "qlist", utt.uid), steps)
            if spec.score_jitter_sigma > 0.0
            else None
        )
        # a group's list correlation is the list noise applied to the largest
        # evidence among its members, step by step, and that evidence is one
        # of a few levels (0, ADJACENT_EVIDENCE, 1); the noise is elementwise,
        # so it is applied once to every level at every step, and a query
        # picks its entries from this (levels, U) table
        ev_cols = np.flatnonzero(self._ev_list.any(axis=0))
        ev = self._ev_list[:, ev_cols]
        levels = np.unique(np.append(ev, 0.0))  # ascending, 0 first
        self._list_table = self._apply_list_noise(np.repeat(levels[:, None], self._u, axis=1))
        # per evidence-bearing column, the rank of its level at each step;
        # ranks order as levels do, so a group's largest rank names its level
        self._ev_rank = np.searchsorted(levels, ev)
        self._ev_slot = np.full(self._m, -1, dtype=np.intp)
        self._ev_slot[ev_cols] = np.arange(ev_cols.size)
        self._steps = np.arange(self._u)
        # everything a query hands out is taken from these arrays, so they are
        # held to the bundle contract once, here
        _check_values(self._list_table, self._q_phr, self._q_tok, self._p_bb)

    # -- evidence construction ------------------------------------------

    def _build_list_evidence(self) -> np.ndarray:
        """(U, M) gold-span evidence: 1 on each span's phrase column, and
        ADJACENT_EVIDENCE one step past either boundary when jitter is on."""
        ev = np.zeros((self._u, self._m))
        bleed = ADJACENT_EVIDENCE if self.spec.score_jitter_sigma > 0 else 0.0
        for s in self.utt.spans:
            if bleed:
                if s.start > 0:
                    ev[s.start - 1, s.phrase] = max(ev[s.start - 1, s.phrase], bleed)
                if s.end < self._u:
                    ev[s.end, s.phrase] = max(ev[s.end, s.phrase], bleed)
            ev[s.start : s.end, s.phrase] = 1.0
        return ev

    def _build_phrase_scores(self) -> np.ndarray:
        # the phrase head sees the same span evidence as the list channel,
        # boundary bleed included; spans never point at the no-bias column,
        # which holds the off-span steps instead
        ev = self._ev_list.copy()
        ev[:, 0] = 1.0 - self._y_list
        if self.spec.distractor_boost > 0.0 and self.utt.spans:
            self._apply_distractors(ev)
        sigma = self.spec.score_jitter_sigma
        if sigma > 0.0:
            z = rng.normal_field(
                rng.stream_key(self.spec.seed, "qphr", self.utt.uid),
                rng.grid_index(self._u, self._m),
            )
            ev = _jitter(ev, sigma, z, gain=PHRASE_JITTER_GAIN, floor=PHRASE_JITTER_FLOOR)
        return ev

    def _apply_distractors(self, ev: np.ndarray) -> None:
        """Raise phrase scores for phrases overlapping a gold phrase.

        At a gold-span step, a phrase sharing tokens with that gold phrase
        gets a score of boost**r * frac**3, r uniform in (0,1], frac the
        fraction of its distinct tokens shared with the gold phrase. The
        boost**r draw is log-uniform on [boost, 1); the cubic overlap term
        concentrates the boost on near-complete overlaps, so partial
        sharers stay well below the gold score.
        """
        mat = self.phi.matrix
        key = rng.stream_key(self.spec.seed, "dst", self.utt.uid)
        log_boost = np.log(self.spec.distractor_boost)
        for s in self.utt.spans:
            shared = mat[:, mat[s.phrase] > 0].sum(axis=1)
            sharers = shared > 0
            sharers[[0, s.phrase]] = False
            cols = np.flatnonzero(sharers)
            if cols.size == 0:
                continue
            # only the span rows of the sharer columns are read, so only their
            # cells of the (U, M) uniform grid are drawn
            draws = rng.uniform_field(key, rng.grid_cells(np.arange(s.start, s.end), cols))
            r = 1.0 - draws  # (0,1], keeps boost**r away from the r=0 degeneracy
            frac = shared[cols] / self.phi.row_sizes[cols]  # a sharer holds a token
            vals = np.exp(r * log_boost) * frac**3
            block = ev[s.start : s.end, cols]
            np.maximum(block, vals, out=block)
            ev[s.start : s.end, cols] = block

    def _build_token_scores(self) -> np.ndarray:
        refs = np.asarray(self.utt.tokens, dtype=np.intp)
        v = self.vocab.size
        q = np.zeros((self._u, v))
        steps = np.arange(self._u)
        q[steps, refs] = 1.0
        confused = _confusion_mask(self.utt, self.spec)
        partners = np.asarray(self.vocab.confusable, dtype=np.intp)[refs]
        confused &= partners != refs
        if confused.any():
            floor = (1.0 - TOKEN_CONFUSED_REF - TOKEN_CONFUSED_PARTNER) / (v - 2)
            idx = steps[confused]
            q[idx] = floor
            q[idx, refs[confused]] = TOKEN_CONFUSED_REF
            q[idx, partners[confused]] = TOKEN_CONFUSED_PARTNER
        sigma = self.spec.score_jitter_sigma
        if sigma > 0.0:
            z = rng.normal_field(
                rng.stream_key(self.spec.seed, "qtok", self.utt.uid),
                rng.grid_index(self._u, v),
            )
            q = q * np.exp(TOKEN_JITTER_GAIN * sigma * z)
        return q / q.sum(axis=1, keepdims=True)

    # -- queries ---------------------------------------------------------

    def _apply_list_noise(self, q: np.ndarray) -> np.ndarray:
        if self._flip_draws is not None:
            q = np.where(self._flip_draws < self.spec.label_flip_rate, 1.0 - q, q)
        if self._z_list is not None:
            q = _jitter(q, self.spec.score_jitter_sigma, self._z_list)
        return q

    def q_list_groups(self, members, group_size: int) -> np.ndarray:
        """(G, U) list correlations of consecutive groups of ``members``.

        ``members`` are original indices; group g holds
        ``members[g * group_size:(g + 1) * group_size]`` (the last group may
        be shorter), and row g is the list correlation against that group
        alone.
        """
        members = np.asarray(members, dtype=np.intp)
        if members.size == 0 or group_size < 1:
            raise ValueError("need a nonempty member list and a positive group size")
        # each group's largest evidence rank per step; groups without an
        # evidence-bearing member stay at rank 0, evidence 0
        rank = np.zeros((-(-members.size // group_size), self._u), dtype=np.intp)
        slot = self._ev_slot[members]
        pos = (slot >= 0).nonzero()[0]
        np.maximum.at(rank, pos // group_size, self._ev_rank[:, slot[pos]].T)
        return self._list_table[rank, self._steps]

    def q_list_for(self, members) -> np.ndarray:
        """List correlation against the sublist given by original indices."""
        members = np.asarray(members, dtype=np.intp)
        return self.q_list_groups(members, max(members.size, 1))[0]

    def q_phr_for(self, members) -> np.ndarray:
        # take copies in C order; fancy column indexing would return an
        # F-ordered matrix
        return np.take(self._q_phr, np.asarray(members, dtype=np.intp), axis=1)

    def bundle(self, members=None) -> CorrelationBundle:
        """Full scorer output against the list, or against the sublist of the
        given original indices (a prefix ``np.arange(m)`` is the list's first
        m entries). ``q_tok`` and ``p_bb`` are read-only views shared by every
        bundle of this scorer. Every array is taken from the arrays checked
        against the bundle contract when the scorer was built, so the bundle
        is not checked again."""
        if members is None:
            members = np.arange(self._m, dtype=np.intp)
        else:
            members = np.asarray(members, dtype=np.intp)
            if members.size == 0 or members[0] != 0:
                raise ValueError("a sublist bundle must start with the no-bias entry")
        return CorrelationBundle._of_checked(
            q_list=self.q_list_for(members),
            q_phr=self.q_phr_for(members),
            q_tok=self._q_tok.view(),
            p_bb=self._p_bb.view(),
        )

