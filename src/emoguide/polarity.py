"""Utterance polarity scoring.

A deterministic lexicon proxy stands in for a learned sentence-emotion
classifier: the mean valence deviation of an utterance is turned into
pseudo-logits and softmaxed into (p_pos, p_neg, p_neu).

    z_pos = (mean_valence - 0.5) / temperature
    z_neg = -z_pos
    z_neu = neutral_bias

Computing z_neg as the exact negation of z_pos makes the reflection symmetry
v -> 1 - v swap p_pos and p_neg bit-for-bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .checks import _unchecked, check_real
from .vad import VadLexicon

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"


@dataclass(frozen=True, slots=True)
class PolarityDistribution:
    """Normalized (p_pos, p_neg, p_neu) triple."""

    p_pos: float
    p_neg: float
    p_neu: float

    def __post_init__(self) -> None:
        total = sum(check_real(n, getattr(self, n), 0.0) for n in ("p_pos", "p_neg", "p_neu"))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"polarity probabilities sum to {total!r}, not 1")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_pos, self.p_neg, self.p_neu)


@dataclass(frozen=True)
class ClassifierParams:
    temperature: float = 0.1
    neutral_bias: float = 1.0

    def __post_init__(self) -> None:
        # at least the smallest normal float: |mean valence - 0.5| <= 0.5, so
        # the logits ±dev / temperature are then finite for every utterance
        check_real("temperature", self.temperature, sys.float_info.min)
        check_real("neutral_bias", self.neutral_bias)


def classify_polarity(
    lexicon: VadLexicon,
    tokens: Sequence[str],
    params: ClassifierParams = ClassifierParams(),
) -> PolarityDistribution:
    """Score an utterance's polarity from its mean valence deviation."""
    if len(tokens) == 0:
        raise ValueError("cannot classify an empty utterance")
    dev = math.fsum(lexicon.lookup(t).valence - 0.5 for t in tokens) / len(tokens)
    z_pos = dev / params.temperature
    z_neg = -z_pos
    z_neu = params.neutral_bias
    m = max(z_pos, z_neg, z_neu)
    e_pos = math.exp(z_pos - m)
    e_neg = math.exp(z_neg - m)
    e_neu = math.exp(z_neu - m)
    denom = e_pos + e_neg + e_neu
    # a softmax of finite logits is finite, non-negative and sums to 1
    return _unchecked(PolarityDistribution, e_pos / denom, e_neg / denom, e_neu / denom)


def polarity_label(dist: PolarityDistribution) -> str:
    """Argmax label; exact ties prefer neutral, then positive, then negative."""
    best_label, best_p = NEUTRAL, dist.p_neu
    if dist.p_pos > best_p:
        best_label, best_p = POSITIVE, dist.p_pos
    if dist.p_neg > best_p:
        best_label, best_p = NEGATIVE, dist.p_neg
    return best_label


@dataclass(frozen=True)
class PolarityClassifier:
    """Lexicon + params bundled as a callable utterance scorer."""

    lexicon: VadLexicon
    params: ClassifierParams = ClassifierParams()

    def __call__(self, tokens: Sequence[str]) -> PolarityDistribution:
        return classify_polarity(self.lexicon, tokens, self.params)

    def label(self, tokens: Sequence[str]) -> str:
        return polarity_label(self(tokens))
