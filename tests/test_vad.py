from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide.config import default_run_config
from emoguide.vad import (
    NEUTRAL_BASELINE,
    LexiconFormatError,
    VadLexicon,
    VadVector,
    align_vocab,
    load_lexicon_file,
    tokenize,
    utterance_mean_vad,
)


def make_lexicon(rows):
    return VadLexicon(entries={t: VadVector(v, a, d) for t, v, a, d in rows})


def lexicon_file(tmp_path, rows):
    """Write (token, valence, arousal, dominance) rows as a TSV lexicon and load it."""
    p = tmp_path / "lex.tsv"
    p.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    return load_lexicon_file(p)


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


def test_load_lexicon_basicsand_case_normalization(tmp_path):
    lex = lexicon_file(tmp_path, [("GOOD", 0.9, 0.6, 0.7), ("bad", 0.1, 0.4, 0.3)])
    assert lex.lookup("good") == VadVector(0.9, 0.6, 0.7)
    # normalization happens once at load; lookups do not re-normalize
    assert lex.lookup("GOOD") == NEUTRAL_BASELINE
    assert lex.lookup("unseen") == NEUTRAL_BASELINE
    assert NEUTRAL_BASELINE == VadVector(0.5, 0.5, 0.5)


def test_load_lexicon_duplicates_last_wins_and_counted(tmp_path):
    lex = lexicon_file(tmp_path, [("word", 0.1, 0.1, 0.1), ("Word", 0.9, 0.9, 0.9)])
    assert lex.collisions == 1
    assert lex.lookup("word") == VadVector(0.9, 0.9, 0.9)


def test_load_lexicon_rejects_out_of_range_with_row_number(tmp_path):
    with pytest.raises(LexiconFormatError, match="row 1"):
        lexicon_file(tmp_path, [("x", 1.2, 0.5, 0.5)])


def test_load_lexicon_empty_is_error(tmp_path):
    with pytest.raises(LexiconFormatError, match="empty"):
        lexicon_file(tmp_path, [])


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
)
def test_utterance_mean_vad_has_the_bits_of_the_array_formula(vads, picks):
    # w0..w5 may be listed; w6..w8 never are, so they take the neutral midpoint
    lex = make_lexicon([(f"w{i}", *vad) for i, vad in enumerate(vads)])
    tokens = [f"w{k}" for k in picks]
    got = utterance_mean_vad(lex, tokens)
    assert all(type(x) is float for x in (got.valence, got.arousal, got.dominance))
    assert got.to_array().tobytes() == _numpy_mean_vad(lex, tokens).tobytes()


PACKAGED = default_run_config().lexicon()
# listed words, and tokens the lexicon lacks (mostly), which take the midpoint
LISTED_OR_UNKNOWN = st.one_of(st.sampled_from(sorted(PACKAGED.entries)), st.text(min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(LISTED_OR_UNKNOWN, min_size=1, max_size=60))
def test_a_mean_is_a_vector_the_checks_accept(tokens):
    # utterance_mean_vad builds its vector without the checks
    mean = utterance_mean_vad(PACKAGED, tokens)
    values = (mean.valence, mean.arousal, mean.dominance)
    checked = VadVector(*values)
    assert checked == mean
    assert [type(x) for x in values] == [float] * 3


def test_mean_is_expected_vad_under_uniform_weights():
    lex = make_lexicon([("a", 0.2, 0.3, 0.4), ("b", 0.6, 0.7, 0.8), ("c", 0.1, 0.1, 0.9)])
    tokens = ["a", "b", "c"]
    mat = align_vocab(lex, tokens)
    mean = utterance_mean_vad(lex, tokens).to_array()
    unif = np.full(3, 1.0 / 3.0) @ mat.values  # E[vad] under uniform weights
    np.testing.assert_allclose(mean, unif, atol=1e-12)
