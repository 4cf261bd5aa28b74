from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide.vad import (
    LexiconFormatError,
    VadMatrix,
    VadVector,
    align_vocab,
    expected_vad,
    load_lexicon,
    load_lexicon_file,
    tokenize,
    utterance_mean_vad,
)


def make_lexicon(rows):
    return load_lexicon(rows)


def test_tokenize_lowercases_and_drops_punctuation():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("I'm FINE...") == ["i'm", "fine"]
    assert tokenize("") == []


def test_vad_vector_bounds():
    VadVector(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        VadVector(1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        VadVector(0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        VadVector(0.5, 0.5, float("nan"))


def test_load_lexicon_basicsand_case_normalization():
    lex = make_lexicon([("GOOD", 0.9, 0.6, 0.7), ("bad", 0.1, 0.4, 0.3)])
    assert lex.lookup("good") == VadVector(0.9, 0.6, 0.7)
    # normalization happens once at load; lookups do not re-normalize
    assert lex.lookup("GOOD") == lex.default
    assert lex.lookup("unseen") == lex.default
    assert lex.default == VadVector(0.5, 0.5, 0.5)


def test_load_lexicon_duplicates_last_wins_and_counted():
    lex = make_lexicon([("word", 0.1, 0.1, 0.1), ("Word", 0.9, 0.9, 0.9)])
    assert lex.collisions == 1
    assert lex.lookup("word") == VadVector(0.9, 0.9, 0.9)


def test_load_lexicon_rejects_out_of_range_with_row_number():
    with pytest.raises(LexiconFormatError, match="row 1"):
        make_lexicon([("x", 1.2, 0.5, 0.5)])


def test_load_lexicon_empty_is_error():
    with pytest.raises(LexiconFormatError):
        make_lexicon([])


def test_load_lexicon_file(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text(
        "# comment line\n"
        "\n"
        "Happy\t0.9\t0.7\t0.6\n"
        "sad\t0.1\t0.3\t0.2\n",
        encoding="utf-8",
    )
    lex = load_lexicon_file(p)
    assert lex.lookup("happy") == VadVector(0.9, 0.7, 0.6)
    assert lex.coverage(["happy", "sad", "nope"]) == (2, 1)


def test_load_lexicon_file_reports_bad_rows(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("ok\t0.5\t0.5\t0.5\nbroken\t0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="row 2"):
        load_lexicon_file(p)
    p.write_text("word\tx\t0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="row 1"):
        load_lexicon_file(p)
    p.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="empty"):
        load_lexicon_file(p)


def test_align_vocab_defaults_and_coverage():
    lex = make_lexicon([("good", 0.9, 0.6, 0.7)])
    mat = align_vocab(lex, ["good", "mystery"])
    assert mat.vocab_size == 2
    assert mat.listed == 1
    assert mat.coverage.defaulted == 1
    np.testing.assert_allclose(mat.values[0], [0.9, 0.6, 0.7])
    np.testing.assert_allclose(mat.values[1], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        mat.values[0, 0] = 0.0  # frozen after construction


def test_align_vocab_empty_vocab_errors():
    lex = make_lexicon([("good", 0.9, 0.6, 0.7)])
    with pytest.raises(ValueError):
        align_vocab(lex, [])


def test_utterance_mean_vad_matches_hand_mean():
    lex = make_lexicon([("a", 0.2, 0.4, 0.6), ("b", 0.4, 0.6, 0.8)])
    got = utterance_mean_vad(lex, ["a", "b"])
    assert got.valence == pytest.approx(0.3, abs=1e-15)
    assert got.arousal == pytest.approx(0.5, abs=1e-15)
    assert got.dominance == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(ValueError):
        utterance_mean_vad(lex, [])


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_mean_vad_stays_in_unit_cube(vads):
    rows = [(f"w{i}", *vad) for i, vad in enumerate(vads)]
    lex = make_lexicon(rows)
    mean = utterance_mean_vad(lex, [f"w{i}" for i in range(len(vads))])
    for comp in (mean.valence, mean.arousal, mean.dominance):
        assert 0.0 <= comp <= 1.0


def _numpy_mean_vad(lexicon, tokens) -> np.ndarray:
    """The array formula: a float64 sum of to_array() rows from zeros, divided by the count."""
    acc = np.zeros(3, dtype=np.float64)
    for token in tokens:
        acc += lexicon.lookup(token).to_array()
    return acc / len(tokens)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=6),
    st.lists(st.integers(0, 8), min_size=1, max_size=40),
    st.tuples(*[st.floats(0.0, 1.0, width=32)] * 3),
)
def test_utterance_mean_vad_has_the_bits_of_the_array_formula(vads, picks, default):
    # w0..w5 may be listed; w6..w8 never are, so they take the default
    lex = load_lexicon([(f"w{i}", *vad) for i, vad in enumerate(vads)],
                       default=VadVector(*np.float32(default)))
    tokens = [f"w{k}" for k in picks]
    got = utterance_mean_vad(lex, tokens)
    assert all(type(x) is float for x in (got.valence, got.arousal, got.dominance))
    assert got.to_array().tobytes() == _numpy_mean_vad(lex, tokens).tobytes()


def _matrix(rows) -> VadMatrix:
    lex = make_lexicon([(f"w{i}", *row) for i, row in enumerate(rows)])
    return align_vocab(lex, [f"w{i}" for i in range(len(rows))])


def test_expected_vad_point_mass_recovers_row():
    mat = _matrix([(0.1, 0.2, 0.3), (0.7, 0.8, 0.9)])
    got = expected_vad(np.array([0.0, 1.0]), mat)
    assert got.to_array() == pytest.approx([0.7, 0.8, 0.9], abs=1e-12)


def test_expected_vad_frozen_example():
    # weights (0.25, 0.75) over rows (0,0,0) and (1,1,1) -> (0.75, 0.75, 0.75)
    mat = _matrix([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
    got = expected_vad(np.array([0.25, 0.75]), mat)
    assert got.to_array() == pytest.approx([0.75, 0.75, 0.75], abs=0)


def test_expected_vad_rejects_bad_distributions():
    mat = _matrix([(0.1, 0.2, 0.3), (0.7, 0.8, 0.9)])
    with pytest.raises(ValueError):
        expected_vad(np.array([0.5, 0.6]), mat)  # sums to 1.1
    with pytest.raises(ValueError):
        expected_vad(np.array([-0.5, 1.5]), mat)
    with pytest.raises(ValueError):
        expected_vad(np.array([1.0]), mat)  # wrong length


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, allow_nan=False))
def test_expected_vad_is_linear_in_the_distribution(seed, lam):
    rng = np.random.default_rng(seed)
    mat = _matrix(rng.uniform(0.0, 1.0, size=(5, 3)))
    d1 = rng.dirichlet(np.ones(5))
    d2 = rng.dirichlet(np.ones(5))
    mix = lam * d1 + (1.0 - lam) * d2
    mix = mix / mix.sum()
    left = expected_vad(mix, mat).to_array()
    right = lam * expected_vad(d1, mat).to_array() + (1.0 - lam) * expected_vad(d2, mat).to_array()
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_expected_vad_permutation_equivariance():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.0, 1.0, size=(6, 3))
    mat = _matrix(rows)
    probs = rng.dirichlet(np.ones(6))
    perm = rng.permutation(6)
    mat_p = _matrix(rows[perm])
    before = expected_vad(probs, mat).to_array()
    after = expected_vad(probs[perm], mat_p).to_array()
    # permuting rows and weights together leaves the expectation unchanged
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_mean_is_expected_vad_under_uniform_weights():
    lex = make_lexicon([("a", 0.2, 0.3, 0.4), ("b", 0.6, 0.7, 0.8), ("c", 0.1, 0.1, 0.9)])
    tokens = ["a", "b", "c"]
    mat = align_vocab(lex, tokens)
    mean = utterance_mean_vad(lex, tokens).to_array()
    unif = expected_vad(np.full(3, 1.0 / 3.0), mat).to_array()
    np.testing.assert_allclose(mean, unif, atol=1e-12)
