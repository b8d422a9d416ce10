"""Corpus data model: vocabulary, biasing lists, utterances, containment masks.

Tokenization is per character. Reference text and biasing phrases share one
vocabulary with two reserved entries: an unknown/blank token and the no-bias
token. The no-bias entry is always present in a biasing list at index 0 and
stands for "this step relates to no phrase".
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

UNKNOWN_TOKEN = "<unk>"
NO_BIAS_TOKEN = "<nb>"

MIN_PHRASE_LEN = 2
MAX_PHRASE_LEN = 19


class UnknownTokenWarning(UserWarning):
    """A character outside the vocabulary was mapped to the unknown token."""


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

    def index(self, token: str) -> int:
        return self._index[token]

    def encode(self, text: str) -> tuple[int, ...]:
        """Map characters to ids; out-of-vocabulary characters become unknown."""
        ids = []
        for ch in text:
            idx = self._index.get(ch)
            if idx is None:
                warnings.warn(
                    f"character {ch!r} not in vocabulary, mapped to {UNKNOWN_TOKEN}",
                    UnknownTokenWarning,
                    stacklevel=2,
                )
                idx = self.unknown_index
            ids.append(idx)
        return tuple(ids)

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

    M (``size``) counts the no-bias entry, so a file of 50 phrases loads as
    a list of size 51.
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
    def _scan_index(self) -> tuple[tuple[int, ...], frozenset[int], dict[tuple[int, ...], int]]:
        """The distinct real-phrase lengths, longest first, the tokens a real
        phrase starts with, and the real phrases keyed by token tuple; tuples
        of different lengths never compare equal, so one table serves every
        length."""
        real = self.phrases[1:]
        lengths = tuple(sorted(set(map(len, real)), reverse=True))
        firsts = frozenset(map(operator.itemgetter(0), real))
        return lengths, firsts, dict(zip(real, range(1, self.size)))

    @cached_property
    def _heads(self) -> tuple[np.ndarray, np.ndarray]:
        """Every entry's length and first token, as two intp arrays."""
        return (np.fromiter(map(len, self.phrases), dtype=np.intp, count=self.size),
                np.fromiter(map(operator.itemgetter(0), self.phrases), dtype=np.intp,
                            count=self.size))

    def real_indices(self) -> np.ndarray:
        return np.arange(1, self.size)

    def sublist(self, kept) -> "BiasingList":
        """Restriction to the given original indices (see ``check_kept``), in order."""
        kept = check_kept(kept, self.size)
        # distinct phrases of a valid list, no-bias first, form a valid list:
        # skip re-validating them
        sub = object.__new__(BiasingList)
        object.__setattr__(sub, "phrases", tuple(map(self.phrases.__getitem__, kept)))
        object.__setattr__(sub, "no_bias_token", self.no_bias_token)
        return sub


def check_kept(kept, size: int) -> list:
    """The indices of a restriction of a ``size``-entry list, as a list:
    distinct, in 0..size-1 and led by the no-bias entry 0, else
    ``ValueError`` names the offending index."""
    kept = list(kept)
    if not kept or kept[0] != 0:
        first = kept[0] if kept else "missing"
        raise ValueError(f"the first kept index is {first}, not the no-bias entry 0")
    if min(kept) < 0 or max(kept) >= size:
        bad = next(k for k in kept if not 0 <= k < size)
        raise ValueError(f"kept index {bad} is outside 0..{size - 1}")
    if len(set(kept)) != len(kept):
        raise ValueError(f"kept index {next(k for k in kept if kept.count(k) > 1)} repeats")
    return kept


@dataclass(frozen=True, eq=False)
class KeptSet:
    """The kept entries of a ``size``-entry biasing list, checked once:
    ``indices``, the original indices in kept order, and ``members``, a
    flag per list entry; both arrays are read-only. Make one with
    ``KeptSet.of``; the constructor checks nothing. The scorer's ``bundle``
    and the purified decode take theirs through ``KeptSet.of``, which hands
    a ``KeptSet`` back as it is, so a kept set made once is not checked
    again.
    """

    indices: np.ndarray
    members: np.ndarray

    @classmethod
    def of(cls, kept, size: int) -> "KeptSet":
        """``kept`` as the kept set of a ``size``-entry list: a ``KeptSet``
        of that list size as it is; anything else must be integers of shape
        (n,) that obey ``check_kept``, else ``ValueError``. Indices ascending
        from 0 to below ``size``, the form purification returns, are decided
        by array operations alone; any other set goes to ``check_kept``."""
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
        indices = indices.astype(np.intp, copy=False)
        if not (indices.size and indices[0] == 0 and indices[-1] < size
                and (indices[1:] > indices[:-1]).all()):
            check_kept(indices.tolist(), size)
        if indices.flags.writeable:  # possibly the caller's own array
            indices = indices.copy()
            indices.flags.writeable = False
        return cls._of_checked(indices, size)

    @classmethod
    def _of_checked(cls, indices: np.ndarray, size: int) -> "KeptSet":
        """The kept set of read-only intp indices known to obey
        ``check_kept`` for a ``size``-entry list, as purification returns
        them: they are not checked again."""
        members = np.zeros(size, dtype=bool)
        members[indices] = True
        members.flags.writeable = False
        return cls(indices=indices, members=members)

    def _scan_heads(self, biasing_list: BiasingList) -> tuple[list[int], set[int]]:
        """The kept real phrases' distinct lengths, longest first, and their
        first tokens: what ``scan_occurrences`` needs beyond the list's own
        table. Worked out once per list; a purified decode scans twice."""
        cached = self.__dict__.get("_heads")
        if cached is None or cached[0] is not biasing_list:
            phrase_lengths, phrase_firsts = biasing_list._heads
            real = self.indices[1:]
            cached = (biasing_list,
                      np.bincount(phrase_lengths[real]).nonzero()[0][::-1].tolist(),
                      set(phrase_firsts[real].tolist()))
            self.__dict__["_heads"] = cached
        return cached[1], cached[2]


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
        # one flat nonzero over the transposed copy is far cheaper than a 2-d
        # np.nonzero; its flat positions are token * M + phrase, ascending
        return _group_by_token(self.matrix.T.ravel().nonzero()[0], self.matrix.shape[0])

    @cached_property
    def _by_phrase(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros grouped by phrase, as (starts, sizes, tokens): phrase
        m contains ``tokens[starts[m]:starts[m] + sizes[m]]``, ascending."""
        m, v = self.matrix.shape
        rows, tokens = np.divmod(self.matrix.ravel().nonzero()[0], v)
        starts = np.searchsorted(rows, np.arange(m))
        return starts, np.diff(starts, append=rows.size), tokens

    def _kept_by_token(self, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``by_token`` of the kept rows, ``restrict_phi(self, kept).by_token``,
        gathered from this mask's cached nonzeros instead of copying the rows
        and indexing them from scratch; ``kept`` holds ``KeptSet`` indices."""
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
        return _group_by_token(key, kept.size)

    @cached_property
    def dense(self) -> np.ndarray:
        """The mask as a read-only float64 matrix, for products with scores."""
        dense = self.matrix.astype(float)
        dense.flags.writeable = False
        return dense

    @cached_property
    def row_sizes(self) -> np.ndarray:
        """The number of distinct tokens in each phrase, read-only."""
        sizes = self.matrix.sum(axis=1)
        sizes.flags.writeable = False
        return sizes


def _group_by_token(flat: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``PhiMask.by_token`` from the ascending flat positions token * rows +
    row of a mask's nonzeros."""
    token_of, phrases = np.divmod(flat, rows)
    first = np.empty(token_of.size, dtype=bool)
    first[:1] = True
    np.not_equal(token_of[1:], token_of[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return token_of[starts], starts, phrases


def scan_occurrences(tokens, biasing_list: BiasingList, kept=None) -> tuple[tuple[int, int], ...]:
    """Non-overlapping real-phrase occurrences in a token sequence.

    Scans left to right; at each position the longest matching phrase wins
    and consumes its tokens. Returns (start, phrase_index) pairs in order.

    With ``kept`` (a ``KeptSet``, or indices for ``KeptSet.of``) only the kept
    phrases match: this is the scan of ``biasing_list.sublist(kept)``, with
    original indices, read through the list's own cached table. The table
    holds at most one phrase per length, so the longest kept match at a
    position is the one the sublist's scan finds there.
    """
    seq = tuple(tokens)
    lengths, firsts, table = biasing_list._scan_index
    members = None
    if kept is not None:
        kept = KeptSet.of(kept, biasing_list.size)
        members = kept.members
        lengths, firsts = kept._scan_heads(biasing_list)
    found: list[tuple[int, int]] = []
    i, n = 0, len(seq)
    while i < n:
        for length in lengths if seq[i] in firsts else ():
            if i + length <= n:
                m = table.get(seq[i : i + length])
                if m is not None and (members is None or members[m]):
                    found.append((i, m))
                    i += length
                    break
        else:
            i += 1
    return tuple(found)


def build_phi(biasing_list: BiasingList, vocab: Vocabulary) -> PhiMask:
    """The containment mask, filled by one scatter: row m once per token of phrase m."""
    phrases = biasing_list.phrases
    matrix = np.zeros((biasing_list.size, vocab.size), dtype=np.uint8)
    rows = np.repeat(np.arange(len(phrases)), list(map(len, phrases)))
    cols = np.fromiter(chain.from_iterable(phrases), dtype=np.intp, count=rows.size)
    matrix[rows, cols] = 1
    return PhiMask(matrix=matrix)


def load_biasing_list(path, vocab: Vocabulary) -> BiasingList:
    """Load one phrase per UTF-8 line; blank lines are skipped.

    Duplicate lines are rejected, and a file with no phrases raises
    ``ValueError("empty biasing list")``.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    seqs: list[tuple[int, ...]] = []
    seen_text: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        if text in seen_text:
            raise ValueError(f"duplicate biasing phrase at line {lineno}: {text!r}")
        seen_text.add(text)
        seqs.append(vocab.encode(text))
    if not seqs:
        raise ValueError("empty biasing list")
    return make_biasing_list(seqs, vocab)


def save_biasing_list(biasing_list: BiasingList, vocab: Vocabulary, path) -> None:
    """Write real phrases one per line (the no-bias entry is implicit)."""
    lines = [vocab.decode(p) for p in biasing_list.phrases[1:]]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_spans(spans) -> str:
    return ";".join(f"{s.start}:{s.end}:{s.phrase}" for s in spans)


def _parse_spans(text: str) -> tuple[Span, ...]:
    spans = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        start, end, phrase = (int(x) for x in chunk.split(":"))
        spans.append(Span(start, end, phrase))
    return tuple(spans)


def load_utterances(path, vocab: Vocabulary, biasing_list: BiasingList | None = None):
    """Load a TSV manifest: id, text, duration, optional span column.

    Spans are formatted ``start:end:phrase_index`` and separated by
    semicolons. When a biasing list is supplied, each span is also checked
    against the referenced phrase and rejected with the offending id. A
    repeated id, or a duration or span field that does not parse, is
    rejected with its line number.
    """
    utterances: list[Utterance] = []
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 3 or 4 tab-separated fields")
        uid, text = parts[0], parts[1]
        if uid in line_of:
            raise ValueError(f"line {lineno}: utterance id {uid!r} repeats line {line_of[uid]}")
        line_of[uid] = lineno
        try:
            dur = float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: duration {parts[2]!r} is not a number") from None
        try:
            spans = _parse_spans(parts[3]) if len(parts) == 4 else ()
        except ValueError:
            raise ValueError(
                f"line {lineno}: span field {parts[3]!r} is not start:end:phrase[;...]"
            ) from None
        utt = Utterance(uid=uid, tokens=vocab.encode(text), duration_seconds=dur, spans=spans)
        if biasing_list is not None:
            validate_spans(utt, biasing_list)
        utterances.append(utt)
    return utterances


def save_utterances(utterances, vocab: Vocabulary, path) -> None:
    rows = []
    for utt in utterances:
        row = f"{utt.uid}\t{vocab.decode(utt.tokens)}\t{utt.duration_seconds}"
        if utt.spans:
            row += "\t" + _format_spans(utt.spans)
        rows.append(row)
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
