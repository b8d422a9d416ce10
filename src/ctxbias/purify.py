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
from .corpus import BiasingList, KeptSet, PhiMask
from .numeric import check_float, check_int


@dataclass(frozen=True)
class PurifyParams:
    group_size: int = 75
    n_r: int = 2
    thres_list: float = 0.5
    n_top: int = 10
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("group_size", "n_r", "n_top", "shuffle_seed"):
            check_int(name, getattr(self, name))
        check_float("thres_list", self.thres_list)
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
    kept: KeptSet
    rounds: tuple[RoundAudit, ...]

    @property
    def m_pur(self) -> int:
        """The size of the purified list, no-bias entry included."""
        return self.kept.indices.size


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


@functools.lru_cache(maxsize=256)
def _first_members(shuffle_seed: int, n_real: int) -> np.ndarray:
    """The first round's members: every real entry, 1 .. n_real, in that
    round's order; read-only."""
    members = round_order(shuffle_seed, 1, n_real) + 1
    members.flags.writeable = False
    return members


def select_winners(q_list_g, q_phr_g, thres_list: float, n_top: int,
                   slots: int | None = None) -> np.ndarray:
    """Group-local winners: at each step whose list correlation clears the
    threshold, the n_top phrases with the largest (list x phrase) product.

    Zero-scored phrases never win, ties prefer the smaller index, and the
    per-step winner sets are unioned. No confident step means no winners.
    Takes G groups side by side: q_list_g (G, U), or (U,) for one group, and
    q_phr_g (U, n), where group g holds columns g * S to (g + 1) * S of S =
    ``slots`` (by default n: one group), and only the last group may be
    short, its missing slots scoring zero. Returns the flat indices g * S + s
    of the winners as an ascending intp array. Scores must be finite and
    nonnegative.
    """
    q_list_g = np.asarray(q_list_g, dtype=float)
    q_phr_g = np.asarray(q_phr_g, dtype=float)
    if q_list_g.ndim == 1:  # one group
        q_list_g = q_list_g[None]
    (u, n), n_groups = q_phr_g.shape, q_list_g.shape[0]
    slots = n if slots is None else slots
    if not (n_groups - 1) * slots < n <= n_groups * slots:
        raise ValueError(f"{n} phrase columns do not make {n_groups} groups of {slots} slots")
    # the confident (group, step) pairs, group-major, so groups ascend
    flat = (q_list_g > thres_list).ravel().nonzero()[0]
    if not flat.size:
        return flat
    if n_groups == 1:
        # the confident steps' rows as they stand: the missing slots of a
        # short group would score zero, which never wins
        vals = q_phr_g[flat]
    else:
        group, step = np.divmod(flat, q_list_g.shape[1])
        # each confident (group, step) row of S slots: the full groups'
        # through a (U, full groups, S) view of the columns, the short last
        # group's by itself, zero-padded
        full = n // slots
        rows = q_phr_g[:, : full * slots].reshape(u, full, slots)
        if group[-1] < full:  # no confident short group
            vals = rows[step, group]
        else:
            short = int(np.searchsorted(group, full))  # its first row
            vals = np.zeros((group.size, slots))
            vals[:short] = rows[step[:short], group[:short]]
            vals[short:, : n - full * slots] = q_phr_g[step[short:], full * slots :]
    vals *= q_list_g.ravel()[flat, None]  # (steps, width)
    wins = vals > 0
    width = vals.shape[1]
    if n_top < width:
        # the n_top-th largest value per step; everything at or above it wins,
        # unless ties with it overfill a step (at least n_top entries per step
        # reach it, so some step holds more exactly when the total is larger):
        # then the tied entries fill the remaining places in index order
        kth = np.partition(vals, width - n_top, axis=1)[:, width - n_top, None]
        at_least = vals >= kth
        wins &= at_least
        if np.count_nonzero(at_least) > n_top * vals.shape[0]:
            tied = vals == kth
            room = n_top - (vals > kth).sum(axis=1, keepdims=True)
            wins &= ~tied | (tied.cumsum(axis=1) <= room)
    if n_groups == 1:  # the union over the steps
        return np.logical_or.reduce(wins, axis=0).nonzero()[0]
    # the union over each group's steps: one (group, slot) scatter
    row, slot = np.divmod(wins.ravel().nonzero()[0], slots)
    won = np.zeros((n_groups, slots), dtype=bool)
    won[group[row], slot] = True
    return won.ravel().nonzero()[0]


def _checked(scores, shape: tuple, what: str) -> np.ndarray:
    """A scorer answer as float, or ValueError unless it has the given shape
    (a last entry None matches any length) and every entry is finite and in
    [0, 1]."""
    scores = np.asarray(scores, dtype=float)
    if shape[-1] is None:
        shape = shape[:-1] + scores.shape[-1:]
    if scores.shape != shape:
        raise ValueError(f"{what} returned shape {scores.shape}, expected {shape}")
    # min and max propagate NaN, which then fails both comparisons
    if not (np.minimum.reduce(scores, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(scores, axis=None, initial=1.0) <= 1.0):
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
    survivors = None  # before the first round: every real entry, 1 .. M-1
    n = biasing_list.size - 1
    rounds: list[RoundAudit] = []
    for i in range(1, params.n_r + 1):
        # the first round runs even when the list fits one group
        if n <= (gs if rounds else 0):
            break
        if survivors is None:
            members = _first_members(params.shuffle_seed, n)
        else:
            members = survivors[round_order(params.shuffle_seed, i, n)]
        n_groups = -(-n // gs)
        q_list = _checked(scorer.q_list_groups(members, gs), (n_groups, None),
                          "q_list_groups")
        confident = np.logical_or.reduce(q_list > params.thres_list, axis=1).nonzero()[0]
        survivors = members[:0]
        if confident.size:
            chosen = members
            # the confident groups' members, gs per group; only the round's
            # last group can be short
            if confident.size == 1:
                g = int(confident[0])
                q_list = q_list[g : g + 1]
                chosen = members[g * gs : (g + 1) * gs]
            elif confident.size < n_groups:
                q_list = q_list[confident]
                chosen = np.concatenate([members[g * gs : (g + 1) * gs]
                                         for g in confident.tolist()])
            q_phr = _checked(scorer.q_phr_for(chosen), (q_list.shape[1], chosen.size),
                             "q_phr_for")
            won = select_winners(q_list, q_phr, params.thres_list, params.n_top, gs)
            survivors = chosen[won]
            survivors.sort()
        n = survivors.size
        rounds.append(RoundAudit(groups=n_groups, survivors=n))
    if survivors is None:  # no real entry, no round
        survivors = biasing_list.real_indices()
    kept = np.zeros(survivors.size + 1, dtype=np.intp)  # the no-bias entry first
    kept[1:] = survivors
    kept.flags.writeable = False  # so KeptSet.of takes the array without a copy
    return PurifyResult(kept=KeptSet.of(kept, biasing_list.size), rounds=tuple(rounds))


def ocp(biasing_list: BiasingList, scorer: GroupScorer, params: PurifyParams) -> PurifyResult:
    """Once competitive purification: a single round, one global group."""
    n_real = biasing_list.size - 1
    return gcp(biasing_list, scorer, replace(params, group_size=max(1, n_real), n_r=1))


def restrict_phi(phi: PhiMask, kept) -> PhiMask:
    """Containment mask for the kept sublist; ``kept`` obeys ``KeptSet.of``."""
    # fancy indexing already copies the rows
    return PhiMask(matrix=phi.matrix[KeptSet.of(kept, phi.matrix.shape[0]).indices])
