"""Token vocabulary, emotion-prefix tokens, and dialog stream encoding.

A dialog is flattened to one id stream for the decoder:

    <pos_B> <neg_B> | <usr> w w .. <eou> | <agt> w w .. <eou> | ...

The two leading prefix tokens quantize the opener's positive/negative
probabilities into 11 buckets of width 0.1 (round half up), giving the model
an explicit handle on the opener's polarity.  When a stream exceeds the
context window, whole utterance segments are dropped from the left, always
keeping the prefix and the opening utterance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .checks import check_real
from .polarity import PolarityDistribution

PAD = "<pad>"
UNK = "<unk>"
EOU = "<eou>"
USR = "<usr>"
AGT = "<agt>"
POS_TOKENS = tuple(f"<pos_{i}>" for i in range(11))
NEG_TOKENS = tuple(f"<neg_{i}>" for i in range(11))
SPECIAL_TOKENS = (PAD, UNK, EOU, USR, AGT) + POS_TOKENS + NEG_TOKENS

USER = "user"
AGENT = "agent"
_SPEAKER_TOKEN = {USER: USR, AGENT: AGT}


@dataclass(frozen=True)
class Vocab:
    """Immutable ordered token set; unknown strings encode to <unk>."""

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _unk: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = {token: i for i, token in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for required in (PAD, UNK, EOU, USR, AGT):
            if required not in ids:
                raise ValueError(f"vocabulary must contain {required}")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_unk", ids[UNK])

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id(self, token: str) -> int:
        return self._ids.get(token, self._unk)

    def encode(self, words: Iterable[str]) -> list[int]:
        get, unk = self._ids.get, self._unk
        return [get(w, unk) for w in words]

    @property
    def structural_ids(self) -> frozenset[int]:
        """Ids that never belong inside generated utterance text."""
        keep_out = (PAD, UNK, USR, AGT) + POS_TOKENS + NEG_TOKENS
        return frozenset(self._ids[t] for t in keep_out)


def build_vocab(words: Iterable[str]) -> Vocab:
    """Specials first, then the word inventory in sorted order."""
    seen = sorted(set(words) - set(SPECIAL_TOKENS))
    return Vocab(tokens=SPECIAL_TOKENS + tuple(seen))


def emotion_bucket(p: float) -> int:
    """Quantize a probability into buckets 0..10 of width 0.1, round half up."""
    check_real("probability", p, 0.0, 1.0)
    return min(10, max(0, math.floor(p * 10.0 + 0.5)))


def encode_emotion_prefix(polarity: PolarityDistribution) -> tuple[str, str]:
    """Two prefix tokens quantizing (p_pos, p_neg)."""
    return (POS_TOKENS[emotion_bucket(polarity.p_pos)], NEG_TOKENS[emotion_bucket(polarity.p_neg)])


def utterance_segment(speaker: str, words: Sequence[str], vocab: Vocab) -> list[int]:
    """<usr>/<agt> marker, the word ids, then <eou>."""
    if speaker not in _SPEAKER_TOKEN:
        raise ValueError(f"unknown speaker {speaker!r}")
    return [vocab.id(_SPEAKER_TOKEN[speaker])] + vocab.encode(words) + [vocab.id(EOU)]


def assemble_stream(
    prefix: tuple[str, str],
    segments: Sequence[list[int]],
    vocab: Vocab,
    window: int,
    tail: Sequence[int] = (),
) -> list[int]:
    """Concatenate prefix + segments + tail, left-truncating middle segments.

    ``segments[0]`` is the opening utterance and is never dropped; older
    middle segments are removed first until the stream fits ``window``.
    """
    out = [vocab.id(prefix[0]), vocab.id(prefix[1])]
    total = len(out) + sum(map(len, segments)) + len(tail)
    cut = 1  # segments[1:cut] are dropped, the oldest utterances after the opener
    while total > window and cut < len(segments):
        total -= len(segments[cut])
        cut += 1
    if total > window:
        raise ValueError(
            f"stream of {total} tokens cannot fit window {window} "
            "even after dropping all middle utterances"
        )
    for seg in (*segments[:1], *segments[cut:]):
        out.extend(seg)
    out.extend(tail)
    return out
