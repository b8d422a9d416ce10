"""Corpus data model: vocabulary, biasing lists, utterances, containment masks.

Tokenization is per character. Reference text and biasing phrases share one
vocabulary with two reserved entries: an unknown/blank token and the no-bias
token. The no-bias entry is always present in a biasing list at index 0 and
stands for "this step relates to no phrase".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

UNKNOWN_TOKEN = "<unk>"
NO_BIAS_TOKEN = "<nb>"

MIN_PHRASE_LEN = 2
MAX_PHRASE_LEN = 19


class _END:
    """The key a prefix-tree node holds its phrase index under: no token
    equals it, and as a class it pickles by name, so a tree that a worker
    process unpickles still holds its phrases."""


@dataclass(frozen=True)
class Vocabulary:
    """Character inventory with reserved unknown and no-bias entries.

    ``confusable`` maps each token id to its acoustically confusable partner
    (a homophone stand-in). Partners are assigned once at build time from a
    seed; reserved tokens map to themselves.
    """

    tokens: tuple[str, ...]
    unknown_index: int
    no_bias_index: int
    confusable: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be distinct")
        if self.tokens.count(NO_BIAS_TOKEN) != 1:
            raise ValueError("vocabulary must contain the no-bias token exactly once")
        if len(self.confusable) != len(self.tokens):
            raise ValueError("confusable map must cover every token")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    def encode(self, text: str) -> tuple[int, ...]:
        """Map characters to ids; a character outside the vocabulary raises
        ``ValueError`` naming it and its position."""
        try:
            return tuple(map(self._index.__getitem__, text))
        except KeyError as exc:
            ch = exc.args[0]
            raise ValueError(f"character {ch!r} at position {text.index(ch)} "
                             f"is not in the vocabulary") from None

    def decode(self, ids) -> str:
        return "".join(self.tokens[i] for i in ids)

    @classmethod
    def build(cls, characters, seed: int = 0) -> "Vocabulary":
        """Build a vocabulary from real characters plus the reserved entries.

        Confusable partners pair up the real tokens via a seeded shuffle, so
        every real token has a partner different from itself whenever at
        least two real tokens exist (an odd leftover forms a 3-cycle).
        """
        chars = list(dict.fromkeys(characters))  # keep order, drop repeats
        if UNKNOWN_TOKEN in chars or NO_BIAS_TOKEN in chars:
            raise ValueError("reserved token names cannot appear as characters")
        tokens = (UNKNOWN_TOKEN, NO_BIAS_TOKEN, *chars)
        partner = list(range(len(tokens)))
        real = np.arange(2, len(tokens))
        rng = np.random.default_rng(seed)
        rng.shuffle(real)
        pairs = len(real) // 2 * 2
        for a, b in zip(real[0:pairs:2], real[1:pairs:2]):
            partner[a], partner[b] = int(b), int(a)
        if len(real) % 2 == 1 and len(real) >= 3:
            a, b, c = int(real[-1]), int(real[0]), int(real[1])
            # rotate the leftover through the first pair: a->b->c->a
            partner[a], partner[b], partner[c] = b, c, a
        return cls(tokens=tokens, unknown_index=0, no_bias_index=1, confusable=tuple(partner))


@dataclass(frozen=True)
class BiasingList:
    """Biasing phrases, each a tuple of token ids, with the no-bias entry
    ``(no_bias_token,)`` at index 0.

    M (``size``) counts the no-bias entry, so 50 real phrases make a list
    of size 51.
    """

    phrases: tuple[tuple[int, ...], ...]
    no_bias_token: int

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ValueError("biasing list cannot be empty")
        seen = set()
        for m, phrase in enumerate(self.phrases):
            if not isinstance(phrase, tuple):
                raise ValueError(f"phrase {m} is a {type(phrase).__name__}, not a token tuple")
            if m == 0 and phrase != (self.no_bias_token,):
                raise ValueError("biasing list must start with the no-bias entry")
            if phrase in seen:
                raise ValueError(f"duplicate phrase at index {m}")
            seen.add(phrase)
            if m > 0 and not (MIN_PHRASE_LEN <= len(phrase) <= MAX_PHRASE_LEN):
                raise ValueError(
                    f"phrase {m} has length {len(phrase)}, "
                    f"expected {MIN_PHRASE_LEN}..{MAX_PHRASE_LEN}"
                )

    @property
    def size(self) -> int:
        return len(self.phrases)

    @cached_property
    def _trie(self) -> dict:
        """The real phrases as a prefix tree of nested dicts keyed by token
        id; the node a phrase ends at holds its index under ``_END``."""
        root: dict = {}
        for m in range(1, self.size):
            node = root
            for token in self.phrases[m]:
                node = node.setdefault(token, {})
            node[_END] = m
        return root

    def real_indices(self) -> np.ndarray:
        return np.arange(1, self.size)

    def sublist(self, kept) -> "BiasingList":
        """Restriction to the given original indices (see ``KeptSet.of``), in order."""
        kept = KeptSet.of(kept, self.size).indices.tolist()
        # distinct phrases of a valid list, no-bias first, form a valid list:
        # skip re-validating them
        sub = object.__new__(BiasingList)
        object.__setattr__(sub, "phrases", tuple(map(self.phrases.__getitem__, kept)))
        object.__setattr__(sub, "no_bias_token", self.no_bias_token)
        return sub


@dataclass(frozen=True, eq=False)
class KeptSet:
    """The kept entries of a ``size``-entry biasing list, checked once:
    ``indices``, the original indices in kept order, and ``members``, a
    flag per list entry; both arrays are read-only. Make one with
    ``KeptSet.of``; the constructor checks nothing. Purification returns
    one, and the scorer's ``bundle`` and the purified decode take it as it
    is. Two kept sets are equal when they keep the same indices, in the
    same order, of lists of one size.
    """

    indices: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, kept, size: int) -> "KeptSet":
        """``kept`` as the kept set of a ``size``-entry list: a ``KeptSet``
        of that list size as it is; anything else must be integers of shape
        (n,), distinct, in 0..size-1 and led by the no-bias entry 0, else
        ``ValueError`` names the offending index as given. Indices ascending
        from 0 to below ``size``, the form purification makes, are decided
        by array operations alone; any other set is checked one by one."""
        if isinstance(kept, KeptSet):
            if kept.members.size != size:
                raise ValueError(f"the kept set is of a {kept.members.size}-entry list, "
                                 f"not of {size} entries")
            return kept
        indices = np.asarray(kept)
        if indices.dtype.kind not in "iu" and indices.size:
            raise ValueError(f"kept indices must be integers, got dtype {indices.dtype}")
        if indices.ndim != 1:
            raise ValueError(f"kept indices have shape {indices.shape}, expected (n,)")
        if not (indices.size and indices[0] == 0 and indices[-1] < size
                and (indices[1:] > indices[:-1]).all()):
            listed = indices.tolist()
            if not listed or listed[0] != 0:
                first = listed[0] if listed else "missing"
                raise ValueError(f"the first kept index is {first}, not the no-bias entry 0")
            bad = next((k for k in listed if not 0 <= k < size), None)
            if bad is not None:
                raise ValueError(f"kept index {bad} is outside 0..{size - 1}")
            if len(set(listed)) != len(listed):
                repeat = next(k for k in listed if listed.count(k) > 1)
                raise ValueError(f"kept index {repeat} repeats")
        # in range now, so the cast is exact
        indices = indices.astype(np.intp, copy=False)
        if indices.flags.writeable:  # possibly the caller's own array
            indices = indices.copy()
            indices.flags.writeable = False
        members = np.zeros(size, dtype=bool)
        members[indices] = True
        members.flags.writeable = False
        return cls(indices=indices, members=members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeptSet):
            return NotImplemented
        return self.members.size == other.members.size and np.array_equal(
            self.indices, other.indices)


def make_biasing_list(token_seqs, vocab: Vocabulary) -> BiasingList:
    """Build a list from real-phrase token sequences, prepending no-bias."""
    phrases = ((vocab.no_bias_index,), *(tuple(int(t) for t in seq) for seq in token_seqs))
    return BiasingList(phrases=phrases, no_bias_token=vocab.no_bias_index)


@dataclass(frozen=True)
class Span:
    """Half-open token range [start, end) labelled with a phrase index."""

    start: int
    end: int
    phrase: int


@dataclass(frozen=True)
class Utterance:
    uid: str
    tokens: tuple[int, ...]
    duration_seconds: float
    spans: tuple[Span, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (0.0 < self.duration_seconds < math.inf):
            raise ValueError(f"utterance {self.uid}: duration_seconds must be positive and finite")
        last_end = 0
        for s in sorted(self.spans, key=lambda s: s.start):
            if not (0 <= s.start < s.end <= len(self.tokens)):
                raise ValueError(f"utterance {self.uid}: span {s} out of range")
            if s.start < last_end:
                raise ValueError(f"utterance {self.uid}: overlapping spans")
            last_end = s.end

    @property
    def n_steps(self) -> int:
        return len(self.tokens)


def validate_spans(utt: Utterance, biasing_list: BiasingList) -> None:
    """Check that every span points at a list phrase matching the text."""
    for s in utt.spans:
        if not (0 < s.phrase < biasing_list.size):
            raise ValueError(
                f"utterance {utt.uid}: span references phrase {s.phrase} "
                f"outside the biasing list"
            )
        expected = biasing_list.phrases[s.phrase]
        if utt.tokens[s.start : s.end] != expected:
            raise ValueError(
                f"utterance {utt.uid}: tokens under span ({s.start},{s.end}) "
                f"do not match phrase {s.phrase}"
            )


@dataclass(frozen=True)
class PhiMask:
    """M x V binary containment mask: phi[m, v] = 1 iff token v occurs in phrase m."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.dtype != np.uint8:
            raise ValueError("phi must be a 2-d uint8 matrix")

    @cached_property
    def by_token(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros grouped by token, as (tokens, starts, phrases).

        ``tokens`` lists, ascending, every token that occurs in some phrase;
        the phrases containing ``tokens[k]`` are
        ``phrases[starts[k]:starts[k + 1]]``, ascending. Max-reductions over
        containing phrases then touch only the nonzeros
        (``np.maximum.reduceat(x[:, phrases], starts, axis=1)``).
        """
        return self._kept_by_token(np.arange(self.matrix.shape[0]))

    @cached_property
    def _by_phrase(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros grouped by phrase, as (starts, sizes, tokens): phrase
        m contains ``tokens[starts[m]:starts[m] + sizes[m]]``, ascending, and
        ``sizes`` is read-only. The mask's one extraction of its nonzeros."""
        m, v = self.matrix.shape
        rows, tokens = np.divmod(self.matrix.ravel().nonzero()[0], v)
        starts = np.searchsorted(rows, np.arange(m))
        sizes = np.diff(starts, append=rows.size)
        sizes.flags.writeable = False
        return starts, sizes, tokens

    def _kept_by_token(self, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``by_token`` of the kept rows, ``restrict_phi(self, kept).by_token``,
        gathered from ``_by_phrase`` instead of copying the rows and indexing
        them from scratch; ``kept`` holds ``KeptSet`` indices."""
        starts, sizes, tokens = self._by_phrase
        sizes = sizes[kept]
        ends = sizes.cumsum()
        # the kept rows' nonzeros, row after row, keyed token * k + row and
        # sorted
        pos = (starts[kept] + sizes - ends).repeat(sizes)
        pos += np.arange(pos.size)
        key = tokens[pos] * kept.size
        key += np.arange(kept.size).repeat(sizes)
        key.sort()
        token_of, phrases = np.divmod(key, kept.size)
        first = np.empty(token_of.size, dtype=bool)
        first[:1] = True
        np.not_equal(token_of[1:], token_of[:-1], out=first[1:])
        heads = first.nonzero()[0]
        return token_of[heads], heads, phrases

    @cached_property
    def dense(self) -> np.ndarray:
        """The mask as a read-only float64 matrix, for products with scores."""
        dense = self.matrix.astype(float)
        dense.flags.writeable = False
        return dense

    @property
    def row_sizes(self) -> np.ndarray:
        """The number of distinct tokens in each phrase, read-only."""
        return self._by_phrase[1]

    def overlaps(self, phrase: int) -> tuple[np.ndarray, np.ndarray]:
        """The real phrases other than ``phrase`` that share a token with it,
        ascending, and for each the fraction of its distinct tokens that
        occur in ``phrase``; both read-only, computed once per phrase."""
        found = self._overlaps.get(phrase)
        if found is None:
            shared = self.matrix[:, self.matrix[phrase] > 0].sum(axis=1)
            shared[0] = shared[phrase] = 0
            cols = np.flatnonzero(shared)
            frac = shared[cols] / self.row_sizes[cols]  # a sharer holds a token
            cols.flags.writeable = frac.flags.writeable = False
            found = self._overlaps[phrase] = cols, frac
        return found

    @cached_property
    def _overlaps(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}


def scan_occurrences(tokens, biasing_list: BiasingList, kept=None) -> tuple[tuple[int, int], ...]:
    """Non-overlapping real-phrase occurrences in a token sequence.

    Scans left to right; at each position the longest matching phrase wins
    and consumes its tokens. Returns (start, phrase_index) pairs in order.

    With ``kept`` (a ``KeptSet``, or indices for ``KeptSet.of``) only the kept
    phrases match: this is the scan of ``biasing_list.sublist(kept)``, with
    original indices. The walk down the list's prefix tree from a position
    passes every phrase that matches there, shortest first, so the last kept
    one it passes is the longest kept match, the one the sublist's scan finds.
    """
    seq = tuple(tokens)
    root = biasing_list._trie
    members = None if kept is None else KeptSet.of(kept, biasing_list.size).members
    found: list[tuple[int, int]] = []
    i, n = 0, len(seq)
    while i < n:
        node, j, match = root, i, None
        while j < n and (node := node.get(seq[j])) is not None:
            j += 1
            m = node.get(_END)
            if m is not None and (members is None or members[m]):
                match, end = m, j
        if match is None:
            i += 1
        else:
            found.append((i, match))
            i = end
    return tuple(found)


def build_phi(biasing_list: BiasingList, vocab: Vocabulary) -> PhiMask:
    """The containment mask, filled by one scatter: row m once per token of phrase m."""
    phrases = biasing_list.phrases
    matrix = np.zeros((biasing_list.size, vocab.size), dtype=np.uint8)
    rows = np.repeat(np.arange(len(phrases)), list(map(len, phrases)))
    cols = np.fromiter(chain.from_iterable(phrases), dtype=np.intp, count=rows.size)
    matrix[rows, cols] = 1
    return PhiMask(matrix=matrix)


def save_biasing_list(biasing_list: BiasingList, vocab: Vocabulary, path) -> None:
    """Write real phrases one per line (the no-bias entry is implicit)."""
    lines = [vocab.decode(p) for p in biasing_list.phrases[1:]]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_spans(spans) -> str:
    return ";".join(f"{s.start}:{s.end}:{s.phrase}" for s in spans)


def save_utterances(utterances, vocab: Vocabulary, path) -> None:
    rows = []
    for utt in utterances:
        row = f"{utt.uid}\t{vocab.decode(utt.tokens)}\t{utt.duration_seconds}"
        if utt.spans:
            row += "\t" + _format_spans(utt.spans)
        rows.append(row)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
