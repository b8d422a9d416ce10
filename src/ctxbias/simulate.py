"""Synthetic stand-in for the trained backbone and correlation scorers.

Everything downstream (smoothing, joint decoding, purification) consumes four
arrays per utterance: a per-step list correlation, a per-step-per-phrase
correlation, a per-step token distribution from the biasing pathway, and the
backbone token distribution. This module fabricates all four from ground
truth plus controllable noise, so the pipeline can be exercised and measured
without any trained model.

Noise channels:
  confusion_rate    backbone (and the token scorer) swaps a gold token's
                    probability mass onto its confusable partner
  score_jitter_sigma  logit-space Gaussian jitter on correlation scores
  distractor_boost  phrases sharing tokens with a gold phrase get raised
                    phrase-level scores
  label_flip_rate   per-step flip of the list correlation

All randomness is counter-based (see rng.py): a draw depends only on the
seed, a channel tag, the utterance id, and the cell coordinates. Scores for
a subset of phrases are therefore bit-identical slices of the full-list
scores, which purification's group scoring relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .bundle import CorrelationBundle, _check_values
from .corpus import (BiasingList, KeptSet, PhiMask, Utterance, Vocabulary, build_phi,
                     validate_spans)
from .numeric import expit, logit

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

# the values list evidence takes, ascending; evidence is held as ranks
EVIDENCE_LEVELS = np.array([0.0, ADJACENT_EVIDENCE, 1.0])
_ADJACENT_RANK, _SPAN_RANK = 1, 2

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

# every normal draw lies within sqrt(-2 log 2**-53) < 8.6 of 0, and exp is
# finite and nonzero on [-700, 700]
_Z_BOUND = 8.6
_EXP_SAFE = 700.0


@dataclass(frozen=True)
class NoiseSpec:
    """Knobs for the synthetic scorers. All-zero means oracle output."""

    seed: int = 0
    label_flip_rate: float = 0.0
    score_jitter_sigma: float = 0.0
    confusion_rate: float = 0.0
    distractor_boost: float = 0.0

    def __post_init__(self) -> None:
        for name in ("label_flip_rate", "confusion_rate", "distractor_boost"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0,1], got {v}")
        sigma = self.score_jitter_sigma
        if not (0.0 <= sigma < math.inf):
            raise ValueError(f"score_jitter_sigma must be finite and nonnegative, got {sigma}")


def synth_backbone(utt: Utterance, spec: NoiseSpec, vocab: Vocabulary) -> np.ndarray:
    """Backbone token distributions, (U, V) row-stochastic.

    Each row puts BACKBONE_PRIMARY on the reference token and
    BACKBONE_SECONDARY on its confusable partner, the remainder flat. With
    probability confusion_rate, a gold-span step swaps the two, so its
    argmax becomes the partner. Jitter never touches the backbone.
    """
    refs, partners = _refs_and_partners(utt, vocab)
    confused = _confusion_mask(utt, spec, _span_mask(utt)) & (partners != refs)
    return _backbone_rows(refs, partners, confused, vocab.size)


def _refs_and_partners(utt: Utterance, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    refs = np.asarray(utt.tokens, dtype=np.intp)
    return refs, np.asarray(vocab.confusable, dtype=np.intp)[refs]


def _backbone_rows(refs, partners, confused, v: int) -> np.ndarray:
    """The backbone rows for the given confused steps (a subset of those
    whose partner differs from the reference)."""
    u = refs.size
    floor = (1.0 - BACKBONE_PRIMARY - BACKBONE_SECONDARY) / (v - 2)
    p = np.full((u, v), floor)
    steps = np.arange(u)
    # a confused step swaps the two; a step that is its own partner has no
    # runner-up
    p[steps, np.where(confused, refs, partners)] = BACKBONE_SECONDARY
    p[steps, np.where(confused, partners, refs)] = BACKBONE_PRIMARY
    return p / p.sum(axis=1, keepdims=True)


def _span_mask(utt: Utterance) -> np.ndarray:
    mask = np.zeros(utt.n_steps, dtype=bool)
    for s in utt.spans:
        mask[s.start : s.end] = True
    return mask


def _confusion_mask(utt: Utterance, spec: NoiseSpec, span_mask: np.ndarray) -> np.ndarray:
    """Steps where the acoustic evidence points at the confusable partner.

    Shared between the backbone and the token scorer: both listen to the
    same (synthetic) audio, so they mishear the same steps.
    """
    if spec.confusion_rate == 0.0 or not utt.spans:
        return np.zeros(utt.n_steps, dtype=bool)
    draws = rng.uniform_field(
        rng.stream_key(spec.seed, "confuse", utt.uid), np.arange(utt.n_steps, dtype=np.uint64)
    )
    return (draws < spec.confusion_rate) & span_mask


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
        self.vocab = vocab
        self.spec = spec
        self.phi = phi if phi is not None else build_phi(biasing_list, vocab)
        self._u = u = utt.n_steps
        self._m = biasing_list.size
        span_mask = _span_mask(utt)
        refs, partners = _refs_and_partners(utt, vocab)
        confused = _confusion_mask(utt, spec, span_mask) & (partners != refs)
        ev_cols, self._ev_rank = self._list_evidence()
        self._q_phr = self._build_phrase_scores(span_mask, ev_cols)
        self._q_tok = self._build_token_scores(refs, partners, confused)
        self._p_bb = _backbone_rows(refs, partners, confused, vocab.size)
        # every bundle shares these two; they are never written after the build
        self._q_tok.flags.writeable = False
        self._p_bb.flags.writeable = False
        # a group's list correlation is the list noise, which depends on the
        # step alone, applied to the largest evidence among its members, one
        # of EVIDENCE_LEVELS; so the noise is applied once to every level at
        # every step, and a query picks its entries from this (levels, U)
        # table by the ranks in _ev_rank
        steps = np.arange(u, dtype=np.uint64)
        table = np.repeat(EVIDENCE_LEVELS[:, None], u, axis=1)
        if spec.label_flip_rate > 0.0:
            flip = rng.uniform_field(rng.stream_key(spec.seed, "flip", utt.uid), steps)
            table = np.where(flip < spec.label_flip_rate, 1.0 - table, table)
        if spec.score_jitter_sigma > 0.0:
            z = rng.normal_field(rng.stream_key(spec.seed, "qlist", utt.uid), steps)
            table = logit(np.clip(table, JITTER_FLOOR, JITTER_CAP))
            table += JITTER_GAIN * spec.score_jitter_sigma * z
            table = expit(table)
        self._list_table = table
        self._ev_slot = np.full(self._m, -1, dtype=np.intp)
        self._ev_slot[ev_cols] = np.arange(len(ev_cols))
        self._steps = np.arange(u)
        # everything a query hands out is taken from these arrays, so they are
        # held to the bundle contract once, here
        _check_values(self._list_table, self._q_phr, self._q_tok, self._p_bb)

    # -- evidence construction ------------------------------------------

    def _list_evidence(self) -> tuple[list[int], np.ndarray]:
        """The gold-span evidence of the list channel, column by column: the
        phrases the spans name (ascending), and per step the rank in
        EVIDENCE_LEVELS of each one's evidence, a (U, columns) array. A
        span's steps hold 1, and when jitter is on the step past either
        boundary holds ADJACENT_EVIDENCE unless a span covers it."""
        cols = sorted({s.phrase for s in self.utt.spans})
        rank = np.zeros((self._u, len(cols)), dtype=np.intp)
        bleed = self.spec.score_jitter_sigma > 0
        for s in self.utt.spans:
            col = rank[:, cols.index(s.phrase)]
            if bleed:
                for step in (s.start - 1, s.end):
                    if 0 <= step < self._u and col[step] < _ADJACENT_RANK:
                        col[step] = _ADJACENT_RANK
            col[s.start : s.end] = _SPAN_RANK
        return cols, rank

    def _build_phrase_scores(self, span_mask: np.ndarray, ev_cols: list[int]) -> np.ndarray:
        # the phrase head sees the same span evidence as the list channel,
        # boundary bleed included; spans never point at the no-bias column,
        # which holds the off-span steps instead
        ev = np.zeros((self._u, self._m))
        ev[:, ev_cols] = EVIDENCE_LEVELS[self._ev_rank]
        ev[:, 0] = ~span_mask
        if self.spec.distractor_boost > 0.0 and self.utt.spans:
            self._apply_distractors(ev)
        sigma = self.spec.score_jitter_sigma
        if sigma == 0.0:
            return ev
        # the list channel's logit-space jitter, with the phrase head's gain
        # and floor, written into the noise field: a cell without
        # evidence clips to the floor, so all such cells share one logit, and
        # only the few cells with evidence need their own
        z = rng.normal_field(
            rng.stream_key(self.spec.seed, "qphr", self.utt.uid),
            rng.grid_index(self._u, self._m),
        )
        z *= PHRASE_JITTER_GAIN * sigma
        flat, ev = z.reshape(-1), ev.reshape(-1)
        cells = (ev != 0.0).nonzero()[0]  # a bool scan beats np.flatnonzero on floats
        shift = flat[cells]
        base = logit(np.clip(np.append(0.0, ev[cells]), PHRASE_JITTER_FLOOR, JITTER_CAP))
        flat += base[0]
        flat[cells] = base[1:] + shift
        return expit(z)

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
            shared[0] = shared[s.phrase] = 0
            cols = np.flatnonzero(shared)
            if cols.size == 0:
                continue
            # only the span rows of the sharer columns are read, so only their
            # cells of the (U, M) uniform grid are drawn
            draws = rng.uniform_field(key, rng.grid_cells(np.arange(s.start, s.end), cols))
            r = 1.0 - draws  # (0,1], keeps boost**r away from the r=0 degeneracy
            frac = shared[cols] / self.phi.row_sizes[cols]  # a sharer holds a token
            r *= log_boost
            vals = np.exp(r, out=r)
            vals *= frac**3
            block = ev[s.start : s.end, cols]
            np.maximum(block, vals, out=block)
            ev[s.start : s.end, cols] = block

    def _build_token_scores(self, refs, partners, confused) -> np.ndarray:
        u, v = refs.size, self.vocab.size
        q = np.zeros((u, v))
        steps = np.arange(u)
        q[steps, refs] = 1.0
        rows = steps[confused]
        if rows.size:
            q[rows] = (1.0 - TOKEN_CONFUSED_REF - TOKEN_CONFUSED_PARTNER) / (v - 2)
            q[rows, refs[rows]] = TOKEN_CONFUSED_REF
            q[rows, partners[rows]] = TOKEN_CONFUSED_PARTNER
        # a one-hot row stays one-hot under the jitter: its 1 times a finite,
        # nonzero factor comes back to 1 when the row is normalized, and every
        # 0 stays 0; so the noise is drawn and the rows normalized only at the
        # confused steps, unless the jitter is wide enough for exp to overflow
        gain = TOKEN_JITTER_GAIN * self.spec.score_jitter_sigma
        if gain * _Z_BOUND >= _EXP_SAFE:
            rows = steps
        if rows.size:
            block = q[rows]
            if gain > 0.0:
                z = rng.normal_field(
                    rng.stream_key(self.spec.seed, "qtok", self.utt.uid),
                    rng.grid_cells(rows, np.arange(v)),
                )
                z *= gain
                block *= np.exp(z, out=z)
            q[rows] = block / block.sum(axis=1, keepdims=True)
        return q

    # -- queries ---------------------------------------------------------

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
        # evidence-bearing member stay at rank 0, evidence 0. Only the span
        # phrases bear evidence, so each of the few members that do raises
        # its group's row in turn
        rank = np.zeros((-(-members.size // group_size), self._u), dtype=np.intp)
        slot = self._ev_slot[members]
        for pos in (slot >= 0).nonzero()[0].tolist():
            row = rank[pos // group_size]
            np.maximum(row, self._ev_rank[:, slot[pos]], out=row)
        return self._list_table[rank, self._steps]

    def q_list_for(self, members) -> np.ndarray:
        """List correlation against the sublist given by original indices:
        ``q_list_groups`` with every member in one group, its largest
        evidence rank per step taken in one column max."""
        members = np.asarray(members, dtype=np.intp)
        if members.size == 0:
            raise ValueError("need a nonempty member list")
        slot = self._ev_slot[members]
        rank = np.maximum.reduce(self._ev_rank[:, slot[slot >= 0]], axis=1, initial=0)
        return self._list_table[rank, self._steps]

    def q_phr_for(self, members) -> np.ndarray:
        # take copies in C order; fancy column indexing would return an
        # F-ordered matrix
        return self._q_phr.take(np.asarray(members, dtype=np.intp), axis=1)

    def bundle(self, members=None) -> CorrelationBundle:
        """Full scorer output against the list, or against the sublist of the
        given original indices (a prefix ``np.arange(m)`` is the list's first
        m entries). ``q_tok`` and ``p_bb`` are read-only views shared by every
        bundle of this scorer. Every array is taken from the arrays checked
        against the bundle contract when the scorer was built, so the bundle
        is not checked again. The indices are a ``KeptSet`` of this list or of
        a shorter one (a prefix, as in a sweep), or are checked by
        ``KeptSet.of``."""
        if members is None:
            members = np.arange(self._m, dtype=np.intp)
        elif isinstance(members, KeptSet) and members.members.size <= self._m:
            members = members.indices
        else:
            members = KeptSet.of(members, self._m).indices
        return CorrelationBundle._of_checked(
            q_list=self.q_list_for(members),
            q_phr=self.q_phr_for(members),
            q_tok=self._q_tok.view(),
            p_bb=self._p_bb.view(),
        )
