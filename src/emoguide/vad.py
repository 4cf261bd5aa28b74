"""VAD lexicon machinery.

Words carry 3-dim affect coordinates (valence, arousal, dominance), each in
[0, 1]: valence runs negative -> positive, arousal calm -> excited, dominance
submissive -> dominant.  A lexicon maps word tokens to such vectors and is
total: tokens without an entry resolve to the cube's neutral midpoint
``NEUTRAL_BASELINE`` (0.5, 0.5, 0.5), so they contribute no polarity signal.

Lexicons and aligned matrices are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .checks import _unchecked, check_real
from .resources import read_lines

_WORD_RE = re.compile(r"[\w']+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokenizer; punctuation is dropped.

    Tokens are interned, so every utterance, training target and reply that
    holds a word points to one string for it: a corpus holds as many token
    strings as it has distinct words, not one per occurrence.
    """
    return list(map(sys.intern, _WORD_RE.findall(text.lower())))


class LexiconFormatError(ValueError):
    """Raised for malformed lexicon input; messages carry the row number."""


@dataclass(frozen=True, slots=True)
class VadVector:
    """A point in the unit VAD cube; components are stored as Python floats."""

    valence: float
    arousal: float
    dominance: float

    def __post_init__(self) -> None:
        for name in ("valence", "arousal", "dominance"):
            object.__setattr__(self, name, float(check_real(name, getattr(self, name), 0.0, 1.0)))

    def to_array(self) -> np.ndarray:
        return np.array([self.valence, self.arousal, self.dominance], dtype=np.float64)


NEUTRAL_BASELINE = VadVector(0.5, 0.5, 0.5)


class Coverage(NamedTuple):
    listed: int
    defaulted: int

    @property
    def fraction_listed(self) -> float:
        total = self.listed + self.defaulted
        return self.listed / total if total else 0.0


@dataclass(frozen=True)
class VadLexicon:
    """Total token -> VadVector mapping; unlisted tokens map to ``NEUTRAL_BASELINE``.

    Keys are case-normalized (lowercased) exactly once, at load time; lookups
    do not re-normalize.  ``collisions`` counts duplicate raw entries, which
    resolve to the last-listed value.
    """

    entries: dict[str, VadVector]
    collisions: int = 0

    def lookup(self, token: str) -> VadVector:
        return self.entries.get(token, NEUTRAL_BASELINE)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def coverage(self, vocab: Iterable[str]) -> Coverage:
        """Count listed vs defaulted tokens for a vocabulary."""
        listed = defaulted = 0
        for token in vocab:
            if token in self.entries:
                listed += 1
            else:
                defaulted += 1
        return Coverage(listed, defaulted)


def load_lexicon_file(path) -> VadLexicon:
    """Parse a UTF-8 TSV lexicon: token<TAB>valence<TAB>arousal<TAB>dominance.

    Blank lines and lines starting with '#' are ignored.  Components outside
    [0, 1] are rejected.  Duplicate tokens (after lowercasing) keep the last
    value and are counted as collisions.  A file with no entries is an error.
    Error messages name the file and the physical line as its row number.
    """
    entries: dict[str, VadVector] = {}
    collisions = 0
    for row_no, line in enumerate((line.strip() for line in read_lines(path)), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise LexiconFormatError(f"{path}: row {row_no}: expected 4 fields")
        token, v, a, d = fields
        if not token:
            raise LexiconFormatError(f"{path}: row {row_no}: bad token {token!r}")
        try:
            vec = VadVector(float(v), float(a), float(d))
        except ValueError as exc:
            raise LexiconFormatError(f"{path}: row {row_no}: {exc}") from exc
        key = token.lower()
        collisions += key in entries
        entries[key] = vec
    if not entries:
        raise LexiconFormatError(f"{path}: empty lexicon source")
    return VadLexicon(entries=entries, collisions=collisions)


@dataclass(frozen=True)
class VadMatrix:
    """Per-token VAD rows aligned to a fixed vocabulary order.

    ``values`` has shape (vocab_size, 3), float64, and is read-only.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"expected shape (V, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite VAD value")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("VAD values must lie in [0, 1]")
        v.setflags(write=False)

    @property
    def vocab_size(self) -> int:
        return self.values.shape[0]


def align_vocab(lexicon: VadLexicon, vocab: Sequence[str]) -> VadMatrix:
    """Stack each vocabulary token's ``lookup`` row, in vocabulary order."""
    if len(vocab) == 0:
        raise ValueError("empty vocabulary")
    values = np.array([lexicon.lookup(token).to_array() for token in vocab])
    return VadMatrix(values=values)


def utterance_mean_vad(lexicon: VadLexicon, tokens: Sequence[str]) -> VadVector:
    """Arithmetic mean of per-token VAD vectors; empty input is an error."""
    if len(tokens) == 0:
        raise ValueError("cannot average VAD over an empty token sequence")
    # plain float sums: the same float64 additions, in the same order, as
    # summing to_array() rows from zeros, without an array per token
    valence = arousal = dominance = 0.0
    lookup = lexicon.lookup
    for token in tokens:
        vec = lookup(token)
        valence += vec.valence
        arousal += vec.arousal
        dominance += vec.dominance
    n = len(tokens)
    # each sum adds n values in [0, 1], rounding monotonically, so each mean
    # is a float in [0, 1]: the checks could not fail
    return _unchecked(VadVector, valence / n, arousal / n, dominance / n)

