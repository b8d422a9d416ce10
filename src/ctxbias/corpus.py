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
class BiasingPhrase:
    """One biasing phrase as a token-id sequence."""

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < 1:
            raise ValueError("phrase must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BiasingList:
    """Biasing phrases with the no-bias entry at index 0.

    M (``size``) counts the no-bias entry, so a file of 50 phrases loads as
    a list of size 51.
    """

    phrases: tuple[BiasingPhrase, ...]
    no_bias_token: int

    def __post_init__(self) -> None:
        if not self.phrases:
            raise ValueError("biasing list cannot be empty")
        if self.phrases[0].tokens != (self.no_bias_token,):
            raise ValueError("biasing list must start with the no-bias entry")
        seen = set()
        for m, phrase in enumerate(self.phrases):
            if phrase.tokens in seen:
                raise ValueError(f"duplicate phrase at index {m}")
            seen.add(phrase.tokens)
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
        tokens = list(map(operator.attrgetter("tokens"), self.phrases[1:]))
        lengths = tuple(sorted(set(map(len, tokens)), reverse=True))
        firsts = frozenset(map(operator.itemgetter(0), tokens))
        return lengths, firsts, dict(zip(tokens, range(1, self.size)))

    def real_indices(self) -> np.ndarray:
        return np.arange(1, self.size)

    def sublist(self, kept) -> "BiasingList":
        """Restriction to the given original indices, in the given order.

        The indices must be distinct and in range, and the first must be the
        no-bias entry 0; anything else raises ``ValueError``.
        """
        kept = list(kept)
        if not kept or kept[0] != 0:
            raise ValueError("a sublist must keep the no-bias entry at index 0")
        if min(kept) < 0 or max(kept) >= self.size:
            raise ValueError(f"sublist index outside 0..{self.size - 1}")
        if len(set(kept)) != len(kept):
            raise ValueError("sublist indices must be distinct")
        # distinct phrases of a valid list, no-bias first, form a valid list:
        # skip re-validating them
        sub = object.__new__(BiasingList)
        object.__setattr__(sub, "phrases", tuple(map(self.phrases.__getitem__, kept)))
        object.__setattr__(sub, "no_bias_token", self.no_bias_token)
        return sub


def make_biasing_list(token_seqs, vocab: Vocabulary) -> BiasingList:
    """Build a list from real-phrase token sequences, prepending no-bias."""
    phrases = [BiasingPhrase((vocab.no_bias_index,))]
    for seq in token_seqs:
        phrases.append(BiasingPhrase(tuple(int(t) for t in seq)))
    return BiasingList(phrases=tuple(phrases), no_bias_token=vocab.no_bias_index)


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
        expected = biasing_list.phrases[s.phrase].tokens
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
        flat = self.matrix.T.ravel().nonzero()[0]
        token_of, phrases = np.divmod(flat, self.matrix.shape[0])
        first = np.empty(token_of.size, dtype=bool)
        first[:1] = True
        np.not_equal(token_of[1:], token_of[:-1], out=first[1:])
        starts = first.nonzero()[0]
        return token_of[starts], starts, phrases

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


def scan_occurrences(tokens, biasing_list: BiasingList) -> tuple[tuple[int, int], ...]:
    """Non-overlapping real-phrase occurrences in a token sequence.

    Scans left to right; at each position the longest matching phrase wins
    and consumes its tokens. Returns (start, phrase_index) pairs in order.
    """
    seq = tuple(tokens)
    lengths, firsts, table = biasing_list._scan_index
    found: list[tuple[int, int]] = []
    i, n = 0, len(seq)
    while i < n:
        for length in lengths if seq[i] in firsts else ():
            if i + length <= n:
                m = table.get(seq[i : i + length])
                if m is not None:
                    found.append((i, m))
                    i += length
                    break
        else:
            i += 1
    return tuple(found)


def build_phi(biasing_list: BiasingList, vocab: Vocabulary) -> PhiMask:
    matrix = np.zeros((biasing_list.size, vocab.size), dtype=np.uint8)
    for m, phrase in enumerate(biasing_list.phrases):
        matrix[m, list(phrase.tokens)] = 1
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
    lines = [
        vocab.decode(p.tokens) for p in biasing_list.phrases[1:]
    ]
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
    against the referenced phrase and rejected with the offending id.
    """
    utterances: list[Utterance] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 3 or 4 tab-separated fields")
        uid, text, dur = parts[0], parts[1], float(parts[2])
        spans = _parse_spans(parts[3]) if len(parts) == 4 else ()
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
