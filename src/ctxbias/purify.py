"""Competitive purification: shrink a biasing list before joint decoding.

Phrases compete in groups: within each group, only the top scorers at steps
where the list correlation is confident survive. Survivors are reshuffled
and compete again for a fixed number of rounds (or until everything fits in
one group). The once-only variant runs a single global competition.

The first round always runs, even when the whole list fits in one group;
otherwise a single global competition would be a no-op and the once-only
variant could never shrink anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple, Protocol

import numpy as np

from . import rng
from .corpus import BiasingList, PhiMask


@dataclass(frozen=True)
class PurifyParams:
    group_size: int = 75
    n_r: int = 2
    thres_list: float = 0.5
    n_top: int = 10
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.n_r < 1 or self.n_top < 1:
            raise ValueError("group_size, n_r and n_top must be positive")
        if not (0.0 <= self.thres_list <= 1.0):
            raise ValueError("thres_list must lie in [0,1]")


class RoundAudit(NamedTuple):
    """One purification round: how many groups competed, how many won."""

    groups: int
    survivors: int


@dataclass(frozen=True)
class PurifyResult:
    kept: tuple[int, ...]
    m_pur: int
    rounds: tuple[RoundAudit, ...]

    def __post_init__(self) -> None:
        if len(set(self.kept)) != len(self.kept):
            raise ValueError("kept indices must be distinct")
        if not self.kept or self.kept[0] != 0:
            raise ValueError("the no-bias entry must be kept")
        if self.m_pur != len(self.kept):
            raise ValueError("m_pur must count the kept indices")


class GroupScorer(Protocol):
    """What purification asks of a scorer; indices are original list indices.

    Scores must be finite and lie in [0, 1]; ``gcp`` checks every answer
    and raises ``ValueError`` otherwise.
    """

    def q_list_groups(self, members: np.ndarray, group_size: int) -> np.ndarray:
        """(G, U) list correlation against each consecutive group of
        ``group_size`` members (the last group may be shorter)."""

    def q_phr_for(self, members: np.ndarray) -> np.ndarray:
        """(U, len(members)) phrase correlations, in member order."""


@functools.lru_cache(maxsize=256)
def round_order(shuffle_seed: int, round_index: int, m: int) -> np.ndarray:
    """The shuffle of m competitors in a purification round.

    Group g of the round holds positions ``order[g * group_size:(g + 1) *
    group_size]``, so there are ceil(m / group_size) groups and only the last
    may be short. The order depends on the seed, the round and m alone, so it
    is cached; the array is read-only.
    """
    if m < 1:
        raise ValueError("need at least one index to group")
    key = rng.stream_key(shuffle_seed, "round", round_index)
    order = np.random.default_rng(key).permutation(m)
    order.flags.writeable = False
    return order


def select_winners(q_list_g, q_phr_g, thres_list: float, n_top: int) -> tuple[int, ...]:
    """Group-local winners: at each step whose list correlation clears the
    threshold, the n_top phrases with the largest (list x phrase) product.

    Zero-scored phrases never win, ties prefer the smaller index, and the
    per-step winner sets are unioned. No confident step means no winners.
    Takes one group, q_list_g (U,) and q_phr_g (U, S), or G stacked groups
    of S slots, (G, U) and (G, U, S), and returns the sorted flat indices
    g * S + s of the winners. Scores must be finite and nonnegative.
    """
    q_list_g = np.asarray(q_list_g, dtype=float)
    q_phr_g = np.asarray(q_phr_g, dtype=float)
    if q_list_g.ndim == 1:  # one group
        q_list_g, q_phr_g = q_list_g[None], q_phr_g[None]
    slots = q_phr_g.shape[-1]
    group, step = (q_list_g > thres_list).nonzero()  # group-major, so ascending
    if not group.size:
        return ()
    vals = q_list_g[group, step][:, None] * q_phr_g[group, step]  # (steps, S)
    wins = vals > 0
    if n_top < slots:
        # the n_top-th largest value per step; everything at or above it wins,
        # unless ties with it overfill a step (at least n_top entries per step
        # reach it, so some step holds more exactly when the total is larger):
        # then the tied entries fill the remaining places in index order
        ranked = vals.copy()
        ranked.partition(slots - n_top, axis=1)
        kth = ranked[:, slots - n_top, None]
        at_least = vals >= kth
        wins &= at_least
        if np.count_nonzero(at_least) > n_top * vals.shape[0]:
            tied = vals == kth
            room = n_top - (vals > kth).sum(axis=1, keepdims=True)
            wins &= ~tied | (np.cumsum(tied, axis=1) <= room)
    # the union over each group's steps
    won = np.zeros(q_phr_g.shape, dtype=bool)
    won[group, step] = wins
    return tuple(won.any(axis=1).ravel().nonzero()[0].tolist())


def _checked(scores, shape: tuple, what: str) -> np.ndarray:
    """A scorer answer as float, or ValueError unless it has the given shape
    (None matches any length) and every entry is finite and in [0, 1]."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != len(shape) or any(
        want not in (None, got) for want, got in zip(shape, scores.shape)
    ):
        raise ValueError(f"{what} returned shape {scores.shape}, expected {shape}")
    # min and max propagate NaN, which then fails both comparisons
    if not (scores.min(initial=0.0) >= 0.0 and scores.max(initial=1.0) <= 1.0):
        raise ValueError(f"{what} returned scores that are not finite and in [0, 1]")
    return scores


def gcp(biasing_list: BiasingList, scorer: GroupScorer, params: PurifyParams) -> PurifyResult:
    """Group competitive purification.

    Each round shuffles the survivors into groups of ``group_size``, asks
    the scorer for every group's list correlation at once, and asks for
    phrase scores only for the groups with at least one confident step;
    their winners survive. The no-bias entry itself never competes and is
    always kept.
    """
    gs = params.group_size
    survivors = biasing_list.real_indices()
    rounds: list[RoundAudit] = []
    for i in range(1, params.n_r + 1):
        # the first round runs even when the list fits one group
        if survivors.size <= (gs if rounds else 0):
            break
        members = survivors[round_order(params.shuffle_seed, i, survivors.size)]
        n_groups = -(-members.size // gs)
        q_list = _checked(scorer.q_list_groups(members, gs), (n_groups, None),
                          "q_list_groups")
        u = q_list.shape[1]
        confident = (q_list > params.thres_list).any(axis=1).nonzero()[0].tolist()
        won = chosen = members[:0]
        if confident:
            # the confident groups' members, gs slots per group; only the
            # round's last group can be short, and its empty slots get zero
            # scores, which never win
            chosen = np.concatenate([members[g * gs : (g + 1) * gs] for g in confident])
            q_phr = _checked(scorer.q_phr_for(chosen), (u, chosen.size), "q_phr_for")
            pad = len(confident) * gs - chosen.size
            if pad:
                q_phr = np.concatenate((q_phr, np.zeros((u, pad))), axis=1)
            won = np.asarray(select_winners(q_list[confident],
                                            q_phr.reshape(u, -1, gs).transpose(1, 0, 2),
                                            params.thres_list, params.n_top), dtype=np.intp)
        survivors = chosen[won]
        survivors.sort()
        rounds.append(RoundAudit(groups=n_groups, survivors=survivors.size))
    kept = (0, *survivors.tolist())
    return PurifyResult(kept=kept, m_pur=len(kept), rounds=tuple(rounds))


def ocp(biasing_list: BiasingList, scorer: GroupScorer, params: PurifyParams) -> PurifyResult:
    """Once competitive purification: a single round, one global group."""
    n_real = biasing_list.size - 1
    return gcp(biasing_list, scorer, replace(params, group_size=max(1, n_real), n_r=1))


def restrict_phi(phi: PhiMask, kept) -> PhiMask:
    """Containment mask for the kept sublist."""
    kept = list(kept)
    if len(set(kept)) != len(kept):
        raise ValueError("kept indices must be distinct")
    if kept and (min(kept) < 0 or max(kept) >= phi.matrix.shape[0]):
        raise ValueError("kept index outside the mask")
    # fancy indexing already copies the rows
    return PhiMask(matrix=phi.matrix[kept])
