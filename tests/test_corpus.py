"""Corpus generation, filtering, and training-prep behavior."""

import importlib.util
import json
import operator
import os
import stat
import threading
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from emoguide.corpus import (
    RULE_NAMES,
    WORD_BANK,
    Dialog,
    FilterRules,
    SynthConfig,
    TrainingExample,
    Utterance,
    apportion,
    dialog_from_record,
    dialog_to_record,
    filter_dialogs,
    load_blocklist,
    load_corpus,
    prepare_training_examples,
    prepare_user_side_examples,
    read_jsonl,
    save_corpus,
    synthesize_corpus,
    write_jsonl,
)
from emoguide.polarity import ClassifierParams, PolarityClassifier
from emoguide.config import default_run_config
from emoguide.resources import OFFENSIVE_FILE, data_path, read_lines
from emoguide.vad import VadVector, tokenize
from emoguide.vocab import AGENT, USER


@pytest.fixture(scope="module")
def lexicon():
    return default_run_config().lexicon()


@pytest.fixture(scope="module")
def rules():
    return default_run_config().filter_rules()


@pytest.fixture(scope="module")
def classifier(lexicon):
    return PolarityClassifier(lexicon, ClassifierParams(neutral_bias=1.0))


def dialog_of(*pairs):
    return Dialog(
        source_id="test",
        utterances=tuple(Utterance(speaker, text) for speaker, text in pairs),
    )


# ---------------------------------------------------------- word bank


BANK_RECORDS = [row for rows in WORD_BANK.values() for row in rows]


def test_packaged_lexicon_matches_word_bank(lexicon):
    for word, v, a, d in BANK_RECORDS:
        assert lexicon.entries[word] == VadVector(v, a, d), word


def test_bank_words_are_distinct_across_bands():
    words = [w for w, *_ in BANK_RECORDS]
    assert len(words) == len(set(words))


def test_every_bank_word_is_its_own_interned_token():
    # synthesis takes a bank word as its own token without tokenizing it
    for word, *_ in BANK_RECORDS:
        (token,) = tokenize(word)
        assert token is word, word


# ---------------------------------------------------------- apportion


def test_apportion_standard_mix():
    assert apportion((0.33, 0.34, 0.33), 100) == [33, 34, 33]


def test_apportion_exact_and_remainders():
    assert apportion((1, 1), 10) == [5, 5]
    assert apportion((0.5, 0.3, 0.2), 10) == [5, 3, 2]
    assert sum(apportion((0.1, 0.7, 0.2), 7)) == 7


def test_apportion_sums_for_random_weights():
    rng = np.random.default_rng(7)
    for _ in range(200):
        weights = rng.random(int(rng.integers(1, 6))) + 1e-3
        total = int(rng.integers(0, 50))
        counts = apportion(weights.tolist(), total)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)


# ----------------------------------------------------------- synthesis


def test_synthesis_is_deterministic():
    cfg = SynthConfig(num_dialogs=40)
    a = synthesize_corpus(cfg, seed=123)
    b = synthesize_corpus(cfg, seed=123)
    assert a == b
    c = synthesize_corpus(cfg, seed=124)
    assert a != c


def test_synthesis_structure():
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=60), seed=5)
    assert len(dialogs) == 60
    for d in dialogs:
        n = len(d.utterances)
        assert n % 2 == 1 and 5 <= n <= 11
        assert d.utterances[0].speaker == "user"
        assert d.utterances[-1].speaker == "user"


def test_synthesis_survives_default_filters(classifier, rules):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=200), seed=11)
    retained, report = filter_dialogs(dialogs, classifier, rules)
    assert report.rejections == (0, 0, 0, 0, 0, 0)
    assert retained == dialogs


def test_synthesis_polarity_mix(classifier):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=100), seed=3)
    openers = Counter(classifier.label(d.utterances[0].tokens) for d in dialogs)
    assert openers == {"negative": 33, "neutral": 34, "positive": 33}


def test_synthesis_trajectory_tags():
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=100), seed=3)
    tags = [d.source_id.rsplit("-", 1)[1] for d in dialogs]
    assert tags.count("uplift") == 50
    assert tags.count("abrupt") == 20
    assert tags.count("stuck") == 30


@pytest.mark.parametrize(
    "config, seed",
    [
        (SynthConfig(num_dialogs=60), 1),
        (SynthConfig(num_dialogs=60), 2),
        (SynthConfig(num_dialogs=20, turns_range=(3, 41)), 3),
        (SynthConfig(num_dialogs=20, turns_range=(3, 41), min_words=1, max_words=40), 4),
        (SynthConfig(num_dialogs=40, polarity_mix=(0, 0, 1), trajectory_mix=(0, 1, 0), max_words=25), 5),
    ],
)
def test_synthesized_records_equal_their_checked_round_trip(config, seed):
    # synthesis builds its records without the checks; the checked
    # constructors must rebuild the same records, tokens included, from them
    for dialog in synthesize_corpus(config, seed):
        checked = dialog_from_record(json.loads(json.dumps(dialog_to_record(dialog))))
        assert checked == dialog and dialog.utterances[-1].speaker is USER
        for made, rebuilt in zip(dialog.utterances, checked.utterances, strict=True):
            assert made.speaker is rebuilt.speaker
            assert made.tokens == rebuilt.tokens
            assert all(map(operator.is_, made.tokens, rebuilt.tokens))


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_dialogs=0)
    with pytest.raises(ValueError):
        SynthConfig(turns_range=(2, 4))
    with pytest.raises(ValueError):
        SynthConfig(polarity_mix=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SynthConfig(min_words=4, max_words=3)


# ----------------------------------------------------------- filtering


def test_rule_1_too_short(classifier, rules):
    d = dialog_of(("user", "sad awful day"), ("agent", "warm kind words"))
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (1, 0, 0, 0, 0, 0)


def test_rule_2_unconfident_opener(classifier, rules):
    d = dialog_of(
        ("user", "good day day"),
        ("agent", "nice warm words"),
        ("user", "wonderful happy joy"),
    )
    probs = classifier(d.utterances[0].tokens)
    assert max(probs.as_tuple()) <= 0.5  # genuinely ambiguous opener
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (0, 1, 0, 0, 0, 0)


def test_rule_3_weak_ending(classifier, rules):
    d = dialog_of(
        ("user", "sad awful terrible"),
        ("agent", "warm kind words"),
        ("user", "good nice fine"),
    )
    assert classifier(d.utterances[-1].tokens).p_pos <= 0.9
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (0, 0, 1, 0, 0, 0)


def test_rule_4_topic_blocklist(classifier, rules):
    d = dialog_of(
        ("user", "sad awful terrible"),
        ("agent", "the Invoice deadline looms"),
        ("user", "wonderful happy joy"),
    )
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (0, 0, 0, 1, 0, 0)


def test_rule_5_entity_patterns(classifier, rules):
    cases = [
        "call 555-0199 tonight",
        "Mr. Rogers said hello",
        "ping @someone_22 maybe",
        "dr. hart knows",
    ]
    for text in cases:
        d = dialog_of(
            ("user", "sad awful terrible"),
            ("agent", text),
            ("user", "wonderful happy joy"),
        )
        _, report = filter_dialogs([d], classifier, rules)
        assert report.rejections == (0, 0, 0, 0, 1, 0), text


def test_rule_6_offensive(classifier, rules):
    d = dialog_of(
        ("user", "sad awful terrible"),
        ("agent", "you are not a LOSER"),
        ("user", "wonderful happy joy"),
    )
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (0, 0, 0, 0, 0, 1)


def test_first_failing_rule_wins(classifier, rules):
    # violates both the topic and offensive rules; only the earlier one counts
    d = dialog_of(
        ("user", "sad awful terrible"),
        ("agent", "stupid taxes paperwork"),
        ("user", "wonderful happy joy"),
    )
    _, report = filter_dialogs([d], classifier, rules)
    assert report.rejections == (0, 0, 0, 1, 0, 0)


def test_filtering_is_idempotent(classifier, rules):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=50), seed=2)
    # splice in violators
    bad = dialog_of(("user", "sad awful day"), ("agent", "warm kind words"))
    mixed = dialogs[:10] + [bad] + dialogs[10:]
    retained, report = filter_dialogs(mixed, classifier, rules)
    assert report.input_count == 51 and report.retained_count == 50
    again, report2 = filter_dialogs(retained, classifier, rules)
    assert again == retained
    assert report2.rejections == (0, 0, 0, 0, 0, 0)


def test_report_to_dict_names():
    _, report = filter_dialogs([], lambda toks: None, FilterRules())
    d = report.to_dict()
    assert d["input"] == 0 and d["retained"] == 0
    assert tuple(d["rejected"]) == RULE_NAMES


def test_filter_rules_validation():
    with pytest.raises(ValueError):
        FilterRules(first_utt_threshold=0.0)
    with pytest.raises(ValueError):
        FilterRules(last_utt_pos_threshold=1.0)
    with pytest.raises(Exception):
        FilterRules(entity_patterns=("[unclosed",))


# ------------------------------------------------------- training prep


def test_prepare_training_examples(classifier):
    d = dialog_of(
        ("user", "sad lonely tired"),
        ("agent", "warm kind comfort"),
        ("user", "calm fine better"),
        ("agent", "hopeful bright smile"),
        ("user", "wonderful happy joy"),
    )
    examples = prepare_training_examples(d, classifier)
    assert len(examples) == 2
    for ex in examples:
        assert ex.target_speaker == "agent"
        assert ex.context_turns == len(ex.context)
        assert ex.context[0].speaker == "user"
    assert examples[0].context_turns == 1
    assert examples[0].target == ("warm", "kind", "comfort")
    assert examples[1].context_turns == 3
    assert examples[1].target == ("hopeful", "bright", "smile")
    # the closing user utterance never appears in any context
    for ex in examples:
        assert all(u.text != "wonderful happy joy" for u in ex.context)
    # prefix reflects a clearly negative opener
    probs = classifier(d.utterances[0].tokens)
    assert examples[0].prefix == (
        f"<pos_{int(probs.p_pos * 10 + 0.5)}>",
        f"<neg_{int(probs.p_neg * 10 + 0.5)}>",
    )


def test_prepare_training_examples_requires_user_final(classifier):
    d = dialog_of(("user", "sad lonely tired"), ("agent", "warm kind comfort"))
    with pytest.raises(ValueError):
        prepare_training_examples(d, classifier)


def test_prepare_user_side_examples(classifier):
    d = dialog_of(
        ("user", "sad lonely tired"),
        ("agent", "warm kind comfort"),
        ("user", "calm fine better"),
        ("agent", "hopeful bright smile"),
        ("user", "wonderful happy joy"),
    )
    examples = prepare_user_side_examples(d, classifier)
    assert len(examples) == 2
    for ex in examples:
        assert ex.target_speaker == "user"
        assert ex.context_turns == len(ex.context)
    # the closing utterance is kept as a target here
    assert examples[-1].target == ("wonderful", "happy", "joy")
    assert examples[-1].context_turns == 4


def test_prepared_counts_over_synthetic_corpus(classifier):
    for d in synthesize_corpus(SynthConfig(num_dialogs=30), seed=9):
        n = len(d.utterances)
        agent_side = prepare_training_examples(d, classifier)
        user_side = prepare_user_side_examples(d, classifier)
        assert len(agent_side) == (n - 1) // 2
        assert len(user_side) == (n - 1) // 2
        assert all(isinstance(ex, TrainingExample) for ex in agent_side)


# -------------------------------------------------------------- file i/o


def test_corpus_round_trip(tmp_path, classifier):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=12), seed=4)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, dialogs, meta={"config_hash": "abc123", "seed": 4})
    assert read_jsonl(path, lambda r: r)[0] == {"config_hash": "abc123", "seed": 4}
    loaded = load_corpus(path)
    assert loaded == dialogs


def test_corpus_without_meta(tmp_path):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=3), seed=6)
    path = tmp_path / "plain.jsonl"
    save_corpus(path, dialogs)
    assert read_jsonl(path, lambda r: r)[0] is None
    assert load_corpus(path) == dialogs


def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temporary(tmp_path):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=3), seed=6)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, dialogs, meta={"seed": 6})
    before = path.read_bytes()

    def records():
        yield dialog_to_record(dialogs[0])
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        write_jsonl(path, records(), meta={"seed": 7})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["corpus.jsonl"]
    # a target that cannot be created is named in the error, not the temporary file
    missing = tmp_path / "no_such_dir" / "corpus.jsonl"
    with pytest.raises(FileNotFoundError, match=str(missing)):
        write_jsonl(missing, [])


def test_written_files_get_the_permissions_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.jsonl"
    plain.write_text("")
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"a": 1}])
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    path.chmod(0o640)  # a replaced file keeps its own
    write_jsonl(path, [{"a": 2}])
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    # a symlink is written through and stays a symlink
    link = tmp_path / "link.jsonl"
    link.symlink_to(path)
    write_jsonl(link, [{"a": 3}])
    assert link.is_symlink() and path.read_text() == '{"a": 3}\n'


def test_a_pipe_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_jsonl(pipe, [{"a": 1}])
    reader.join(timeout=10)
    assert got == [b'{"a": 1}\n']
    assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_load_corpus_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"source_id": "a", "utterances": [{"speaker": "user", "text": "hi"}]}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)


def test_dialog_record_round_trip():
    d = dialog_of(("user", "sad day"), ("agent", "warm words"), ("user", "happy joy"))
    rec = json.loads(json.dumps(dialog_to_record(d)))
    assert dialog_from_record(rec) == d


def test_load_blocklist_skips_comments():
    entries = load_blocklist(data_path(OFFENSIVE_FILE))
    assert "idiot" in entries
    assert all(not e.startswith("#") for e in entries)
    assert entries == [e.strip() for e in entries]


def test_read_lines_locates_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "big.txt"
    path.write_bytes(b"ok\r\nok\r" * 2000 + b"caf\xe9\n")  # past the text reader's first chunk
    with pytest.raises(ValueError, match=r"big.txt: line 4001: not UTF-8 \(byte 14003\)$"):
        list(read_lines(path))


def test_dialog_validation():
    with pytest.raises(ValueError):
        dialog_of(("agent", "hello there"))
    with pytest.raises(ValueError):
        dialog_of(("user", "hi there"), ("user", "again more"))
    with pytest.raises(ValueError):
        Utterance("user", "!!!")


# ------------------------------------------------ shared strings, slots


def test_a_loaded_corpus_shares_one_string_per_word_and_speaker(tmp_path):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=200), seed=8)
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, dialogs)
    loaded = load_corpus(path)
    tokens = [t for d in (*dialogs, *loaded) for u in d.utterances for t in u.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens)) < 120
    assert all(u.speaker is USER or u.speaker is AGENT for d in loaded for u in d.utterances)


def test_a_speaker_is_stored_as_the_module_constant():
    speaker = "".join(["us", "er"])
    assert speaker == USER and speaker is not USER
    assert Utterance(speaker, "hi there").speaker is USER


@pytest.mark.parametrize("speaker", ["bot", "User", ["user"], None, 1])
def test_a_bad_speaker_raises_one_line(tmp_path, speaker):
    with pytest.raises(ValueError, match=r"^speaker must be 'user' or 'agent', got \S+$"):
        Utterance(speaker, "hi there")
    path = tmp_path / "corpus.jsonl"
    record = {"source_id": "a", "utterances": [{"speaker": speaker, "text": "hi"}]}
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=r"jsonl: line 1: speaker must be 'user' or 'agent'"):
        load_corpus(path)


def test_records_have_no_instance_dict(classifier):
    d = dialog_of(("user", "sad day"), ("agent", "warm words"), ("user", "happy joy"))
    (ex,) = prepare_training_examples(d, classifier)
    for record in (d, d.utterances[0], ex, ex.u1_mean_vad, ex.polarity):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_records_compare_hash_and_replace_by_their_fields(classifier):
    a, b = Utterance("user", "Sad day!"), Utterance("user", "Sad day!")
    assert a == b and {a, b} == {a} and hash(a) == hash((USER, "Sad day!"))
    assert a != Utterance("user", "sad day") and a != Utterance("agent", "Sad day!")
    assert not next(f for f in fields(Utterance) if f.name == "tokens").compare
    changed = replace(a, text="happy joy")
    assert changed.tokens == ("happy", "joy") and changed.speaker is USER
    with pytest.raises(ValueError):
        replace(a, tokens=("x",))  # init=False: derived from the text
    with pytest.raises(FrozenInstanceError):
        a.text = "other"
    d = dialog_of(("user", "sad day"), ("agent", "warm words"), ("user", "happy joy"))
    assert replace(d) == d and hash(replace(d)) == hash(d) and replace(d, source_id="x") != d
    (ex,) = prepare_training_examples(d, classifier)
    assert replace(ex) == ex and hash(replace(ex)) == hash(ex)
    assert replace(ex.u1_mean_vad, valence=0.25).valence == 0.25
    with pytest.raises(ValueError):
        replace(ex.u1_mean_vad, valence=2.0)
    assert replace(ex.polarity) == ex.polarity


def test_a_loaded_corpus_holds_under_300_bytes_per_utterance(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, synthesize_corpus(SynthConfig(num_dialogs=2000), seed=1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_corpus(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 563 bytes with a dict per record and a string per token and speaker
    assert held / sum(len(d.utterances) for d in loaded) <= 300


def test_packaged_fixtures_match_their_generator(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    for path in gen_fixtures.write_fixtures(tmp_path):
        assert path.read_bytes() == data_path(path.name).read_bytes(), path.name
