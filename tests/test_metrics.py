"""Metric oracles: hand-computed scores, bounds, and aggregation."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from emoguide.corpus import Dialog, SynthConfig, Utterance, synthesize_corpus
from emoguide.metrics import (
    NEUTRAL_BASELINE,
    _as_tokens,
    bleu,
    distinct_n,
    e_score,
    evaluate_run,
    peg_score,
    pege_score,
)
from emoguide.config import default_run_config
from emoguide.vad import VadLexicon, VadVector

import oracles


def lex_of(table):
    return VadLexicon(entries={w: VadVector(*vad) for w, vad in table.items()})


def dialog_of(*pairs):
    return Dialog(
        source_id="test",
        utterances=tuple(Utterance(s, t) for s, t in pairs),
    )


# ------------------------------------------------------------ peg_score


def test_peg_single_qualifying_utterance():
    lex = lex_of({"w1": (0.9, 0.7, 0.6), "w2": (0.7, 0.5, 0.4)})
    d = dialog_of(("user", "hello"), ("agent", "hello"), ("user", "w1 w2"))
    # last half = final 2 positions; only the closing user utterance counts
    assert peg_score(d, lex) == pytest.approx(0.4, abs=1e-12)


def test_peg_baseline_cancellation():
    lex = lex_of({"flat": (0.5, 0.5, 0.5)})
    d = dialog_of(("user", "flat"), ("agent", "flat"), ("user", "flat flat"))
    assert peg_score(d, lex) == pytest.approx(0.0, abs=1e-15)


def test_peg_upper_bound_attained():
    lex = lex_of({"peak": (1.0, 1.0, 1.0)})
    d = dialog_of(("user", "peak"), ("agent", "peak"), ("user", "peak peak"))
    assert peg_score(d, lex) == pytest.approx(1.5, abs=1e-12)


def test_peg_averages_over_last_half_users():
    lex = lex_of({"lo": (0.5, 0.5, 0.5), "hi": (0.9, 0.5, 0.5)})
    d = dialog_of(
        ("user", "lo"),
        ("agent", "lo"),
        ("user", "lo"),   # position 3 of 5: inside the last ceil(5/2)=3
        ("agent", "lo"),
        ("user", "hi"),
    )
    # two qualifying user utterances: (0.0) and (0.4) -> mean 0.2
    assert peg_score(d, lex) == pytest.approx(0.2, abs=1e-12)


def test_peg_preconditions():
    lex = lex_of({"w": (0.5, 0.5, 0.5)})
    with pytest.raises(ValueError):
        peg_score(dialog_of(("user", "w")), lex)  # one user utterance only
    with pytest.raises(ValueError):
        peg_score(dialog_of(("user", "w"), ("agent", "w")), lex)  # last half is agent


# -------------------------------------------------------------- e_score


def test_e_hand_oracle():
    lex = lex_of({"start": (0.3, 0.4, 0.5), "reply": (0.5, 0.4, 0.3)})
    d = dialog_of(
        ("user", "start"), ("agent", "reply"), ("user", "start"), ("agent", "reply")
    )
    # first half = 2 positions; agent mean (0.5,0.4,0.3) vs u1 (0.3,0.4,0.5)
    assert e_score(d, lex) == pytest.approx(-0.4, abs=1e-12)


def test_e_perfect_mirroring_is_zero():
    lex = lex_of({"echo": (0.31, 0.62, 0.47)})
    d = dialog_of(("user", "echo"), ("agent", "echo"), ("user", "echo"), ("agent", "echo"))
    assert e_score(d, lex) == 0.0


def test_e_lower_bound():
    lex = lex_of({"void": (0.0, 0.0, 0.0), "blaze": (1.0, 1.0, 1.0)})
    d = dialog_of(("user", "void"), ("agent", "blaze"), ("user", "void"), ("agent", "blaze"))
    assert e_score(d, lex) == pytest.approx(-3.0, abs=1e-12)


def test_e_requires_first_half_agent():
    lex = lex_of({"w": (0.5, 0.5, 0.5)})
    with pytest.raises(ValueError):
        e_score(dialog_of(("user", "w")), lex)
    with pytest.raises(ValueError):
        e_score(dialog_of(("user", "w"), ("agent", "w")), lex)  # first half = seed only


def test_e_is_never_positive_on_random_dialogs():
    lex = default_run_config().lexicon()
    for d in synthesize_corpus(SynthConfig(num_dialogs=30), seed=17):
        assert -3.0 <= e_score(d, lex) <= 0.0
        assert -1.5 <= peg_score(d, lex) <= 1.5


def _random_dialogs(rng, count):
    """Dialogs of 3 to 41 utterances over words with random VAD values,
    some of them missing from the lexicon."""
    words = [f"w{i}" for i in range(60)]
    lex = lex_of({w: tuple(rng.random(3)) for w in words[:50]})
    dialogs = []
    for i in range(count):
        n = int(rng.integers(3, 42))
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(n)]
        utterances = (Utterance("agent" if k % 2 else "user", t) for k, t in enumerate(texts))
        dialogs.append(Dialog(f"random-{i}", tuple(utterances)))
    return lex, dialogs


def _score_or_error(score, dialog, lex):
    try:
        return score(dialog, lex)
    except ValueError as exc:
        return str(exc)


def test_scores_equal_the_numpy_formulas_bit_for_bit():
    cases = [_random_dialogs(np.random.default_rng(3), 300)]
    synthesized = synthesize_corpus(SynthConfig(num_dialogs=50, turns_range=(3, 41)), seed=5)
    cases.append((default_run_config().lexicon(), synthesized))
    for lex, dialogs in cases:
        for d in dialogs:
            for ours, oracle in ((peg_score, oracles.peg_score), (e_score, oracles.e_score)):
                assert _score_or_error(ours, d, lex) == _score_or_error(oracle, d, lex), d.source_id


# ----------------------------------------------------------- pege_score


def test_pege_is_exact_addition():
    assert pege_score(0.4, -0.4) == 0.0
    assert pege_score(0.160, -0.126) == 0.034
    assert pege_score(0.090, -0.185) == -0.095
    with pytest.raises(ValueError):
        pege_score(float("nan"), 0.0)
    with pytest.raises(ValueError):
        pege_score(0.0, float("inf"))


# ----------------------------------------------------------------- bleu


def test_bleu_exact_match_is_100():
    cands = ["a b c", "d e"]
    assert bleu(cands, cands, 1) == 100.0
    assert bleu(cands, cands, 2) == 100.0


def test_bleu_disjoint_is_0():
    assert bleu(["a b"], ["c d"], 1) == 0.0
    assert bleu(["a b"], ["c d"], 2) == 0.0


def test_bleu1_hand_oracle():
    assert bleu(["a b c"], ["a b d"], 1) == pytest.approx(100 * 2 / 3, abs=1e-9)
    assert round(bleu(["a b c"], ["a b d"], 1), 2) == 66.67


def test_bleu2_hand_oracle():
    # p1 = 2/3, p2 = 1/2, BP = 1 -> 100 * sqrt(1/3)
    assert bleu(["a b c"], ["a b d"], 2) == pytest.approx(100 * math.sqrt(1 / 3), abs=1e-9)


def test_bleu_brevity_penalty():
    assert bleu(["a b"], ["a b c d"], 1) == pytest.approx(100 * math.exp(-1.0), abs=1e-9)
    # longer candidates are not penalized
    assert bleu(["a b c d"], ["a b"], 1) == pytest.approx(50.0, abs=1e-9)


def test_bleu_accepts_token_sequences():
    assert bleu([["a", "b"]], [["a", "b"]], 2) == 100.0


def test_bleu_empty_candidate_tokens():
    assert bleu([""], ["a b"], 1) == 0.0


def test_bleu_validation():
    with pytest.raises(ValueError):
        bleu(["a"], ["a", "b"], 1)
    with pytest.raises(ValueError):
        bleu([], [], 1)
    with pytest.raises(ValueError):
        bleu(["a"], ["a"], 3)


def test_bleu_stays_in_range():
    rng = np.random.default_rng(0)
    alphabet = list("abcdef")
    for _ in range(50):
        cands = [" ".join(rng.choice(alphabet, size=rng.integers(1, 6))) for _ in range(3)]
        refs = [" ".join(rng.choice(alphabet, size=rng.integers(1, 6))) for _ in range(3)]
        for n in (1, 2):
            assert 0.0 <= bleu(cands, refs, n) <= 100.0


# ------------------------------------------------------------- distinct


def test_distinct_hand_oracles():
    assert distinct_n(["a b c"], 1) == 1.0
    assert distinct_n(["a a a a"], 1) == 1 / 4
    assert distinct_n(["a b a b"], 2) == 2 / 3


def test_distinct_pools_across_utterances():
    assert distinct_n(["a b", "a b"], 1) == 0.5
    # bigrams never span utterance boundaries
    assert distinct_n(["a b", "b a"], 2) == 1.0


def test_distinct_validation():
    with pytest.raises(ValueError):
        distinct_n(["a"], 2)
    with pytest.raises(ValueError):
        distinct_n([], 1)
    with pytest.raises(ValueError):
        distinct_n(["a b"], 0)


def test_token_tuples_are_not_copied():
    u = Utterance("user", "a b a")
    assert _as_tokens(u.tokens) is u.tokens
    assert _as_tokens(["a", "b"]) == ("a", "b")
    assert _as_tokens((np.str_("a"), "b")) == ("a", "b")


def test_distinct_never_exceeds_one():
    rng = np.random.default_rng(1)
    alphabet = list("abc")
    for _ in range(50):
        utts = [" ".join(rng.choice(alphabet, size=rng.integers(2, 7))) for _ in range(4)]
        assert 0.0 < distinct_n(utts, 1) <= 1.0
        assert 0.0 < distinct_n(utts, 2) <= 1.0


# --------------------------------------------------------- evaluate_run


def eval_lexicon():
    return lex_of(
        {
            "s": (0.3, 0.5, 0.5),
            "m": (0.5, 0.5, 0.5),
            "wa": (0.7, 0.5, 0.5),
            "wb": (0.9, 0.5, 0.5),
        }
    )


def test_evaluate_run_single_dialog_equals_its_scores():
    lex = eval_lexicon()
    d = dialog_of(("user", "s"), ("agent", "m"), ("user", "wa"), ("agent", "m"))
    report = evaluate_run([d], lex)
    assert report.peg_score == peg_score(d, lex)
    assert report.e_score == e_score(d, lex)
    assert report.pege_score == report.peg_score + report.e_score
    assert report.peg_std == 0.0 and report.pege_std == 0.0
    assert report.n_dialogs == 1 and report.skipped == 0


def test_evaluate_run_averages_dialogs():
    lex = eval_lexicon()
    d1 = dialog_of(("user", "m"), ("agent", "m"), ("user", "wa"), ("agent", "m"))  # peg 0.2
    d2 = dialog_of(("user", "m"), ("agent", "m"), ("user", "wb"), ("agent", "m"))  # peg 0.4
    report = evaluate_run([d1, d2], lex)
    assert report.peg_score == pytest.approx(0.3, abs=1e-12)
    assert report.e_score == pytest.approx(0.0, abs=1e-15)
    expected_std = float(np.std([0.2, 0.4], ddof=1))
    assert report.peg_std == pytest.approx(expected_std, abs=1e-12)


def test_evaluate_run_skips_and_counts():
    lex = eval_lexicon()
    good = dialog_of(("user", "s"), ("agent", "m"), ("user", "wa"), ("agent", "m"))
    bad = dialog_of(("user", "s"), ("agent", "m"))  # no last-half user utterance
    report = evaluate_run([good, bad], lex)
    assert report.n_dialogs == 2
    assert report.skipped == 1
    assert len(report.breakdown) == 1
    assert report.breakdown[0].source_id == "test"


def test_evaluate_run_all_skipped_is_an_error():
    lex = eval_lexicon()
    bad = dialog_of(("user", "s"), ("agent", "m"))
    with pytest.raises(ValueError):
        evaluate_run([bad], lex)
    with pytest.raises(ValueError):
        evaluate_run([], lex)


def test_evaluate_run_distinct_covers_agent_side():
    lex = eval_lexicon()
    d = dialog_of(("user", "s s"), ("agent", "m m m wa"), ("user", "wa"), ("agent", "s"))
    report = evaluate_run([d], lex)
    assert report.distinct1 == 0.6  # {m, wa, s} over 5 agent tokens
    assert report.distinct2 == 2 / 3  # (m,m) x2 and (m,wa); singletons add none


def test_evaluate_run_is_deterministic():
    lex = default_run_config().lexicon()
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=25), seed=13)
    a = asdict(evaluate_run(dialogs, lex))
    b = asdict(evaluate_run(dialogs, lex))
    assert a == b
    assert abs(a["pege_score"] - (a["peg_score"] + a["e_score"])) == 0.0
    for item in a["breakdown"]:
        assert abs(item["pege"] - (item["peg"] + item["e"])) <= 1e-9


def test_report_serialization_shape():
    lex = eval_lexicon()
    d = dialog_of(("user", "s"), ("agent", "m"), ("user", "wa"), ("agent", "m"))
    data = json.loads(json.dumps(asdict(evaluate_run([d], lex))))  # as `emoguide eval` writes it
    expected_keys = {
        "n_dialogs", "skipped", "peg_score", "e_score", "pege_score",
        "peg_std", "e_std", "pege_std", "distinct1", "distinct2", "breakdown",
    }
    assert set(data) == expected_keys
    assert isinstance(data["breakdown"], list)


def test_evaluate_run_null_distinct_when_no_ngrams():
    lex = eval_lexicon()
    d = dialog_of(("user", "s"), ("agent", "m"), ("user", "wa"), ("agent", "s"))
    report = evaluate_run([d], lex)
    assert report.distinct1 == 1.0  # {m, s} over 2 single-word agent utterances
    assert report.distinct2 is None


def test_neutral_baseline_constant():
    assert NEUTRAL_BASELINE == VadVector(0.5, 0.5, 0.5)
