from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide.config import default_run_config
from emoguide.polarity import (
    ClassifierParams,
    PolarityClassifier,
    PolarityDistribution,
    classify_polarity,
    polarity_label,
)
from emoguide.vad import VadLexicon, VadVector

KAPPA0 = ClassifierParams(temperature=0.1, neutral_bias=0.0)


def lexicon_with_valences(valences):
    return VadLexicon(entries={f"w{i}": VadVector(v, 0.5, 0.5) for i, v in enumerate(valences)})


def tokens(n):
    return [f"w{i}" for i in range(n)]


def test_frozen_example_full_valence():
    # mean valence 1.0 at temperature 0.1, bias 0:
    # p_pos = e^5 / (e^5 + e^-5 + 1)
    lex = lexicon_with_valences([1.0])
    dist = classify_polarity(lex, tokens(1), KAPPA0)
    expect = math.exp(5.0) / (math.exp(5.0) + math.exp(-5.0) + 1.0)
    assert dist.p_pos == pytest.approx(expect, abs=1e-12)
    assert dist.p_pos == pytest.approx(0.99326, abs=5e-6)


def test_neutral_utterance_is_balanced():
    lex = lexicon_with_valences([0.5, 0.5, 0.5])
    dist = classify_polarity(lex, tokens(3), KAPPA0)
    assert dist.p_pos == dist.p_neg
    assert dist.p_pos == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert polarity_label(dist) == "neutral"


def test_unknown_tokens_default_to_midpoint():
    lex = lexicon_with_valences([0.9])
    dist = classify_polarity(lex, ["nope", "nada"], KAPPA0)
    assert dist.p_pos == dist.p_neg


def test_empty_utterance_is_error():
    lex = lexicon_with_valences([0.5])
    with pytest.raises(ValueError):
        classify_polarity(lex, [], KAPPA0)


def test_params_validation():
    with pytest.raises(ValueError):
        ClassifierParams(temperature=0.0)
    with pytest.raises(ValueError):
        ClassifierParams(temperature=-1.0)
    with pytest.raises(ValueError):
        ClassifierParams(neutral_bias=float("inf"))


def test_distribution_validation():
    with pytest.raises(ValueError):
        PolarityDistribution(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        PolarityDistribution(-0.1, 0.6, 0.5)
    PolarityDistribution(0.2, 0.3, 0.5)


def test_label_tie_breaks():
    assert polarity_label(PolarityDistribution(0.6, 0.2, 0.2)) == "positive"
    third = 1.0 / 3.0
    assert polarity_label(PolarityDistribution(third, third, third)) == "neutral"
    assert polarity_label(PolarityDistribution(0.45, 0.45, 0.1)) == "positive"
    assert polarity_label(PolarityDistribution(0.2, 0.6, 0.2)) == "negative"


def test_monotone_in_mean_valence():
    prev = -1.0
    for v in [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]:
        lex = lexicon_with_valences([v])
        p_pos = classify_polarity(lex, tokens(1), KAPPA0).p_pos
        assert p_pos > prev
        prev = p_pos


# dyadic valences make the reflection v -> 1 - v exact in binary floating point
dyadic = st.integers(0, 64).map(lambda k: k / 64.0)


@settings(max_examples=100)
@given(st.lists(dyadic, min_size=1, max_size=6), st.floats(-2.0, 2.0, allow_nan=False))
def test_reflection_swaps_pos_and_neg_exactly(valences, bias):
    params = ClassifierParams(temperature=0.1, neutral_bias=bias)
    lex = lexicon_with_valences(valences)
    mirrored = lexicon_with_valences([1.0 - v for v in valences])
    toks = tokens(len(valences))
    d = classify_polarity(lex, toks, params)
    m = classify_polarity(mirrored, toks, params)
    assert d.p_pos == m.p_neg
    assert d.p_neg == m.p_pos
    assert d.p_neu == m.p_neu


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.01, 1.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)
def test_distribution_is_normalized(valences, temperature, bias):
    params = ClassifierParams(temperature=temperature, neutral_bias=bias)
    lex = lexicon_with_valences(valences)
    d = classify_polarity(lex, tokens(len(valences)), params)
    assert sum(d.as_tuple()) == pytest.approx(1.0, abs=1e-12)
    assert min(d.as_tuple()) >= 0.0


def test_neutral_bias_makes_confident_neutrals_possible():
    # with bias 0, p_neu is capped at 1/3; a bias above ln 2 lifts it past 0.5
    lex = lexicon_with_valences([0.5, 0.5])
    capped = classify_polarity(lex, tokens(2), KAPPA0)
    assert capped.p_neu <= 1.0 / 3.0 + 1e-12
    biased = classify_polarity(lex, tokens(2), ClassifierParams(0.1, 1.0))
    assert biased.p_neu > 0.5


def test_classifier_wrapper_matches_function():
    lex = lexicon_with_valences([0.9, 0.8])
    clf = PolarityClassifier(lex, KAPPA0)
    assert clf(tokens(2)) == classify_polarity(lex, tokens(2), KAPPA0)
    assert clf.label(tokens(2)) == "positive"


PACKAGED = default_run_config().lexicon()
# listed words, and tokens the lexicon lacks (mostly), which take the midpoint
LISTED_OR_UNKNOWN = st.one_of(st.sampled_from(sorted(PACKAGED.entries)), st.text(min_size=1, max_size=6))
# the logit overflows only below 0.5 / max float, since |mean valence - 0.5| <= 0.5
OVERFLOWING_TEMPERATURE = 0.5 / sys.float_info.max


@settings(max_examples=300, deadline=None)
@given(
    st.lists(LISTED_OR_UNKNOWN, min_size=1, max_size=60),
    st.one_of(st.floats(1e-3, 10.0), st.floats(sys.float_info.min, 1e-300)),
    st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False)),
)
def test_a_distribution_is_one_the_checks_accept(tokens, temperature, bias):
    # classify_polarity builds its distribution without the checks
    params = ClassifierParams(temperature=temperature, neutral_bias=bias)
    dist = classify_polarity(PACKAGED, tokens, params)
    checked = PolarityDistribution(*dist.as_tuple())
    assert checked == dist
    assert [type(p) for p in dist.as_tuple()] == [float] * 3


def test_a_temperature_that_overflows_the_logit_is_rejected():
    assert OVERFLOWING_TEMPERATURE < sys.float_info.min
    for temperature in (OVERFLOWING_TEMPERATURE / 4, sys.float_info.min / 2):
        with pytest.raises(ValueError, match="temperature must be a finite real"):
            ClassifierParams(temperature=temperature)
    ClassifierParams(temperature=sys.float_info.min)
