"""Command-line interface: exit codes, determinism, embedded config hashes."""

import io
import json
import os
import resource
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide import objective
from emoguide.cli import BLAS_THREAD_VARIABLES, main
from emoguide.corpus import load_corpus, read_jsonl
from emoguide.model import CKPT_MAGIC, _read_header, load_checkpoint
from emoguide.resources import LEXICON_FILE, data_path


TINY = {
    "seed": 7,
    "model": {"embed_dim": 8, "hidden_dim": 12, "context_window": 64},
    "train": {"learning_rate": 0.01, "batch_size": 4, "max_steps": 3},
    "synth": {"num_dialogs": 12},
    "selfchat": {"turns": 2, "decode": {"mode": "greedy", "max_tokens": 5}},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config file, a synthesized/filtered corpus, two tiny checkpoints, and a
    self-chat config with its seeds and one transcript (``chats_a.jsonl``)."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(TINY))

    corpus = root / "corpus.jsonl"
    assert main(["synth", str(config), "-o", str(corpus)]) == 0
    kept = root / "kept.jsonl"
    assert main(["filter", str(corpus), str(config), "-o", str(kept)]) == 0
    agent = root / "agent.ckpt"
    user = root / "user.ckpt"
    assert main(["train", str(config), "--corpus", str(kept), "-o", str(agent)]) == 0
    assert (
        main(
            [
                "train",
                str(config),
                "--corpus",
                str(kept),
                "--side",
                "user",
                "--ablation",
                "nll_only",
                "-o",
                str(user),
            ]
        )
        == 0
    )
    seeds = root / "seeds.jsonl"
    seeds.write_text(
        '{"text": "awful terrible day", "polarity": "negative"}\n'
        '{"text": "just a plain morning", "polarity": "neutral"}\n'
        '{"text": "wonderful happy news", "polarity": "positive"}\n'
    )
    chat_config = root / "chat_config.json"
    chat_config.write_text(json.dumps({**TINY, "paths": {"seeds": str(seeds)}}))
    chats = root / "chats_a.jsonl"
    assert main(["selfchat", str(agent), str(user), str(chat_config), "-o", str(chats)]) == 0
    return root


def _config_hash(root):
    from emoguide.config import load_run_config

    return load_run_config(root / "run.json").config_hash()


def _meta(path) -> dict | None:
    return read_jsonl(path, lambda r: r)[0]


def _checkpoint_config_hash(path) -> str | None:
    with open(path, "rb") as fh:
        return _read_header(fh, path)["config_hash"]


def test_echo_line_is_json_with_hash_and_seed(workdir, capsys):
    out = workdir / "echo_corpus.jsonl"
    assert main(["synth", str(workdir / "run.json"), "-o", str(out)]) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    echo = json.loads(first_line)
    assert echo["command"] == "synth"
    assert echo["seed"] == 7
    assert echo["config_hash"] == _config_hash(workdir)
    assert echo["config"]["synth"]["num_dialogs"] == 12


def test_synth_output_embeds_hash_and_is_deterministic(workdir):
    a = workdir / "a.jsonl"
    b = workdir / "b.jsonl"
    assert main(["synth", str(workdir / "run.json"), "-o", str(a)]) == 0
    assert main(["synth", str(workdir / "run.json"), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = _meta(a)
    assert meta["config_hash"] == _config_hash(workdir)
    assert meta["dialogs"] == 12
    assert len(load_corpus(a)) == 12


def test_seed_flag_changes_output_and_hash(workdir, capsys):
    base = workdir / "seed7.jsonl"
    other = workdir / "seed8.jsonl"
    assert main(["synth", str(workdir / "run.json"), "-o", str(base)]) == 0
    capsys.readouterr()
    assert main(["synth", str(workdir / "run.json"), "--seed", "8", "-o", str(other)]) == 0
    echo = json.loads(capsys.readouterr().out.splitlines()[0])
    assert echo["seed"] == 8
    assert echo["config_hash"] != _config_hash(workdir)
    assert base.read_bytes() != other.read_bytes()
    assert _meta(other)["config_hash"] == echo["config_hash"]


def test_filter_report(workdir):
    report_path = workdir / "filter_report.json"
    out = workdir / "kept2.jsonl"
    assert (
        main(
            [
                "filter",
                str(workdir / "corpus.jsonl"),
                str(workdir / "run.json"),
                "-o",
                str(out),
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["config_hash"] == _config_hash(workdir)
    assert report["input"] == 12
    assert report["retained"] == 12  # synthesized dialogs are clean by construction
    assert set(report["rejected"]) == {
        "rule_1_structure",
        "rule_2_first_confident",
        "rule_3_last_positive",
        "rule_4_topic",
        "rule_5_entity",
        "rule_6_offensive",
    }
    assert all(v == 0 for v in report["rejected"].values())
    meta = _meta(out)
    assert meta["retained"] == 12


def test_train_checkpoint_embeds_hash_and_is_deterministic(workdir):
    config = workdir / "run.json"
    kept = workdir / "kept.jsonl"
    a = workdir / "det_a.ckpt"
    b = workdir / "det_b.ckpt"
    log = workdir / "train_log.jsonl"
    assert main(["train", str(config), "--corpus", str(kept), "-o", str(a), "--log", str(log)]) == 0
    assert main(["train", str(config), "--corpus", str(kept), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _checkpoint_config_hash(a) == _config_hash(workdir)
    model = load_checkpoint(a)
    assert model.step_count == 3

    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[0]["meta"]["config_hash"] == _config_hash(workdir)
    entries = lines[1:]
    assert [e["step"] for e in entries] == [1, 2, 3]
    assert all(set(e) == {"step", "nll", "peg", "ner", "total"} for e in entries)


def test_train_ablation_changes_hash_and_total(workdir, capsys):
    config = workdir / "run.json"
    kept = workdir / "kept.jsonl"
    out = workdir / "nll_only.ckpt"
    log = workdir / "nll_only_log.jsonl"
    assert (
        main(
            [
                "train",
                str(config),
                "--corpus",
                str(kept),
                "--ablation",
                "nll_only",
                "-o",
                str(out),
                "--log",
                str(log),
            ]
        )
        == 0
    )
    assert _checkpoint_config_hash(out) != _config_hash(workdir)
    entries = [json.loads(line) for line in log.read_text().splitlines()[1:]]
    for e in entries:
        assert e["total"] == pytest.approx(e["nll"], abs=1e-9)
        assert e["peg"] != 0.0  # still computed and logged; PEG is signed (f(|C|) reaches -1)


def test_selfchat_deterministic_and_counts(workdir):
    special = workdir / "chat_config.json"
    a = workdir / "chats_a.jsonl"
    b = workdir / "chats_b.jsonl"
    agent, user = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt")
    assert main(["selfchat", agent, user, str(special), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    dialogs = load_corpus(a)
    assert len(dialogs) == 3
    assert all(len(d.utterances) == 4 for d in dialogs)  # 2 turns -> 4 utterances
    assert dialogs[0].utterances[0].text == "awful terrible day"
    meta = _meta(a)
    assert meta["config_hash"] is not None
    assert meta["agent_model"] and meta["user_model"]


def test_eval_report(workdir, capsys):
    chats = workdir / "chats_a.jsonl"
    a = workdir / "eval_a.json"
    b = workdir / "eval_b.json"
    config = workdir / "chat_config.json"
    assert main(["eval", str(chats), str(config), "-o", str(a)]) == 0
    headline = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(headline) == {"peg_score", "e_score", "pege_score", "skipped"}
    assert main(["eval", str(chats), str(config), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    report = json.loads(a.read_text())
    assert report["n_dialogs"] == 3
    assert report["skipped"] == 0
    assert report["pege_score"] == report["peg_score"] + report["e_score"]
    assert len(report["breakdown"]) == 3
    assert report["config_hash"] is not None


def test_gradcheck_passes(workdir, capsys):
    assert main(["gradcheck", str(workdir / "run.json"), "--seed", "0", "--cases", "4"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "within" in out


def test_gradcheck_checks_the_configured_objective(tmp_path, capsys):
    pege = objective.PegeConfig(alpha=0.5, beta=3.0, max_turn=3)
    config = tmp_path / "objective.json"
    config.write_text(json.dumps({"objective": asdict(pege)}))
    assert main(["gradcheck", str(config), "--seed", "4", "--cases", "3"]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    expected = objective.gradient_check_suite(seed=4, cases=3, config=pege)
    assert printed.startswith(f"max relative error {expected:.6e} over 3 cases")


def test_gradcheck_says_when_its_reference_has_no_extra_precision(workdir, capsys, monkeypatch):
    args = ["gradcheck", str(workdir / "run.json"), "--seed", "0", "--cases", "4"]
    extended = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    assert main(args) == 0
    assert ("no extra precision" in capsys.readouterr().out) is not extended
    monkeypatch.setattr(objective, "REFERENCE_DTYPE", np.float64)  # as where longdouble is float64
    assert main(args) == 0
    assert "no extra precision" in capsys.readouterr().out


def test_lexicon_stats(workdir, capsys):
    vocab_file = workdir / "tokens.txt"
    vocab_file.write_text("happy\ncalm\nzzz_not_listed\n")
    assert main(["lexicon", "stats", str(data_path(LEXICON_FILE)), str(vocab_file)]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stats["vocab_tokens"] == 3
    assert stats["listed"] == 2
    assert stats["defaulted"] == 1
    assert stats["collisions"] == 0
    assert stats["entries"] > 0


def test_unknown_subcommand_exits_2(capsys):
    """Usage errors exit 2 with argparse's message: an unknown subcommand, and
    a count or seed that is not an integer in range."""
    for argv in (
        ["frobnicate"],
        ["gradcheck", "run.json", "--cases", "0"],
        ["gradcheck", "run.json", "--cases", "-1"],
        ["gradcheck", "run.json", "--cases", "abc"],
        ["gradcheck", "run.json", "--seed", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage: emoguide" in capsys.readouterr().err, argv


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", str(bad), "-o", str(tmp_path / "x.jsonl")]) == 2
    assert "config error" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"mdoel": {}}')
    assert main(["synth", str(unknown), "-o", str(tmp_path / "y.jsonl")]) == 2


def test_invalid_config_value_exits_2(workdir, tmp_path, capsys):
    bad = tmp_path / "neg_lr.json"
    bad.write_text(json.dumps({**TINY, "train": {**TINY["train"], "learning_rate": -1.0}}))
    corpus = workdir / "kept.jsonl"
    # the whole config is validated at load, so synth rejects a bad train section too
    assert main(["synth", str(bad), "-o", str(tmp_path / "c.jsonl")]) == 2
    assert main(["train", str(bad), "--corpus", str(corpus), "-o", str(tmp_path / "m.ckpt")]) == 2
    # an entity pattern that is not a regex is an invalid filter rule
    patterns = tmp_path / "entities.txt"
    patterns.write_text("(unclosed\n")
    bad.write_text(json.dumps({**TINY, "paths": {"entity_patterns": str(patterns)}}))
    capsys.readouterr()
    assert main(["filter", str(corpus), str(bad), "-o", str(tmp_path / "f.jsonl")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: entity pattern '(unclosed'"), err


INVALID_CONFIGS = {
    "max_steps_inf": '{"train": {"max_steps": 1e999}}',
    "turns_zero": '{"selfchat": {"turns": 0}}',
    "alpha_negative": '{"objective": {"alpha": -1}}',
    "hidden_dim_zero": '{"model": {"hidden_dim": 0}}',
    "lexicon_path_int": '{"paths": {"lexicon": 0}}',
    "lexicon_path_list": '{"paths": {"lexicon": ["a"]}}',
    "turns_range_int": '{"synth": {"turns_range": 5}}',
    "threshold_string": '{"filters": {"first_utt_threshold": "x"}}',
    "temperature_huge_int": '{"classifier": {"temperature": 1%s}}' % ("0" * 400),
    "not_utf8": b'{"seed": "\xff"}',
    "nested_too_deep": "[" * 100_000,
    # JSON booleans are not integers, and word counts are integers
    "seed_true": '{"seed": true}',
    "max_steps_true": '{"train": {"max_steps": true}}',
    "batch_size_true": '{"train": {"batch_size": true}}',
    "hidden_dim_true": '{"model": {"hidden_dim": true}}',
    "max_turn_true": '{"objective": {"max_turn": true}}',
    "num_dialogs_true": '{"synth": {"num_dialogs": true}}',
    "turns_true": '{"selfchat": {"turns": true}}',
    "max_tokens_true": '{"selfchat": {"decode": {"max_tokens": true}}}',
    "min_words_float": '{"synth": {"num_dialogs": 3, "min_words": 1.5}}',
    "max_words_float": '{"synth": {"max_words": 7.0}}',
    # nor are they real numbers
    "learning_rate_true": '{"train": {"learning_rate": true}}',
    "alpha_true": '{"objective": {"alpha": true}}',
    "beta_true": '{"objective": {"beta": true}}',
    "decode_temperature_true": '{"selfchat": {"decode": {"temperature": true}}}',
    "classifier_temperature_true": '{"classifier": {"temperature": true}}',
    # a subnormal temperature would overflow the polarity logit
    "classifier_temperature_subnormal": '{"classifier": {"temperature": 1e-310}}',
    "neutral_bias_true": '{"classifier": {"neutral_bias": true}}',
    "first_utt_threshold_true": '{"filters": {"first_utt_threshold": true}}',
    "last_utt_pos_threshold_true": '{"filters": {"last_utt_pos_threshold": true}}',
    "polarity_mix_true": '{"synth": {"polarity_mix": [true, 0, 0]}}',
    "trajectory_mix_true": '{"synth": {"trajectory_mix": [true, 0, 0]}}',
    # numpy draws and sizes with int64, so larger integers are config errors
    "num_dialogs_huge": '{"synth": {"num_dialogs": 100000000000000000000000}}',
    "max_words_huge": '{"synth": {"max_words": 100000000000000000000000}}',
    "turns_range_huge": '{"synth": {"turns_range": [3, 1000000000000000000000000000000]}}',
    # int64 values that would run until killed: size-like fields have bounds
    "turns_range_2_62": '{"synth": {"turns_range": [3, 4611686018427387904]}}',
    "embed_dim_huge": '{"model": {"embed_dim": 1000000}}',
    "hidden_dim_huge": '{"model": {"hidden_dim": 1000000}}',
    "num_layers_2_62": '{"model": {"num_layers": 4611686018427387904}}',
    "max_turn_2_62": '{"objective": {"max_turn": 4611686018427387904}}',
    "turns_2_62": '{"selfchat": {"turns": 4611686018427387904}}',
    "max_tokens_2_62": '{"selfchat": {"decode": {"max_tokens": 4611686018427387904}}}',
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_any_invalid_config_section_exits_2_with_one_line(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    text = INVALID_CONFIGS[case]
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["synth", str(bad), "-o", str(tmp_path / "c.jsonl")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {bad}: "), err
    if case.startswith("classifier_temperature"):
        assert "temperature must be" in err, err


def test_missing_inputs_exit_1(workdir, tmp_path, capsys):
    config = workdir / "run.json"
    assert main(["filter", str(tmp_path / "nope.jsonl"), str(config), "-o", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["train", str(config), "--corpus", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "m")]) == 1
    # train without any corpus configured at all
    assert main(["train", str(config), "-o", str(tmp_path / "m2")]) == 1
    assert main(["eval", str(tmp_path / "nope.jsonl"), str(config), "-o", str(tmp_path / "r")]) == 1
    assert (
        main(
            [
                "selfchat",
                str(tmp_path / "no.ckpt"),
                str(workdir / "user.ckpt"),
                str(config),
                "-o",
                str(tmp_path / "d"),
            ]
        )
        == 1
    )


GOOD_UTTERANCE = '{"speaker": "user", "text": "sad day"}'
# line -> a fragment of the one-line diagnostic
MALFORMED_CORPUS_LINES = {
    "number": ("5", "expected a JSON object, got int"),
    "null": ("null", "expected a JSON object, got NoneType"),
    "string_metadata": ('"metadata"', "expected a JSON object, got str"),
    "list": ("[1, 2]", "expected a JSON object, got list"),
    "source_id_int": (
        '{"source_id": 5, "utterances": [%s]}' % GOOD_UTTERANCE,
        "source_id must be a string, got int",
    ),
    "speaker_int": (
        '{"source_id": "a", "utterances": [{"speaker": 5, "text": "hi"}]}',
        "speaker must be 'user' or 'agent', got 5",
    ),
    "text_int": (
        '{"source_id": "a", "utterances": [{"speaker": "user", "text": 5}]}',
        "text must be a string, got int",
    ),
    "no_utterances": ('{"source_id": "a"}', "missing key 'utterances'"),
    "meta_not_first": ('{"meta": {"seed": 1}}', "missing key 'source_id'"),
    "nested_too_deep": ("[" * 100_000, "invalid JSON"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CORPUS_LINES))
def test_malformed_corpus_line_exits_1_with_one_line(workdir, tmp_path, capsys, case):
    line, message = MALFORMED_CORPUS_LINES[case]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"source_id": "ok", "utterances": [%s]}\n%s\n' % (GOOD_UTTERANCE, line))
    config = workdir / "run.json"
    assert main(["filter", str(corpus), str(config), "-o", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {corpus}: line 2: {message}\n"


MALFORMED_SEED_LINES = {
    "number": ("5", "expected a JSON object, got int"),
    "null": ("null", "expected a JSON object, got NoneType"),
    "string_metadata": ('"metadata"', "expected a JSON object, got str"),
    "text_int": ('{"text": 5, "polarity": "neutral"}', "text must be a string, got int"),
    "polarity_int": ('{"text": "good day", "polarity": 1}', "polarity must be one of"),
    "no_polarity": ('{"text": "good day"}', "missing key 'polarity'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SEED_LINES))
def test_malformed_seed_line_exits_1_with_one_line(workdir, tmp_path, capsys, case):
    line, message = MALFORMED_SEED_LINES[case]
    seeds = tmp_path / "seeds.jsonl"
    seeds.write_text('{"text": "good day", "polarity": "positive"}\n%s\n' % line)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "paths": {"seeds": str(seeds)}}))
    agent, user = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt")
    assert main(["selfchat", agent, user, str(config), "-o", str(tmp_path / "d.jsonl")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"error: {seeds}: line 2: {message}"), err


def test_bad_lexicon_row_names_the_file(workdir, tmp_path, capsys):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("# header\nhappy\t0.9\t0.6\t0.6\nsad\t0.1\t2.0\t0.3\n")
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("happy\n")
    assert main(["lexicon", "stats", str(lexicon), str(tokens)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {lexicon}: row 3: "), err


NOT_UTF8_LINES = {  # reader -> (a valid first line, a second line holding a Latin-1 é)
    "blocklist": ("invoice", "caf\xe9"),
    "corpus": (
        '{"source_id": "ok", "utterances": [%s]}' % GOOD_UTTERANCE,
        '{"source_id": "caf\xe9", "utterances": [%s]}' % GOOD_UTTERANCE,
    ),
    "lexicon": ("happy\t0.9\t0.6\t0.6", "caf\xe9\t0.5\t0.5\t0.5"),
    "seeds": (
        '{"text": "good day", "polarity": "positive"}',
        '{"text": "caf\xe9 day", "polarity": "neutral"}',
    ),
    "token_list": ("happy", "caf\xe9"),
}


@pytest.mark.parametrize("reader", sorted(NOT_UTF8_LINES))
def test_input_that_is_not_utf8_names_the_file_and_line(workdir, tmp_path, capsys, reader):
    bad = tmp_path / "input"
    bad.write_bytes(("%s\n%s\n" % NOT_UTF8_LINES[reader]).encode("latin-1"))
    config = tmp_path / "config.json"
    paths = {"blocklist": {"topic_blocklist": str(bad)}, "seeds": {"seeds": str(bad)}}
    config.write_text(json.dumps({**TINY, "paths": paths.get(reader, {})}))
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("happy\n")
    out = str(tmp_path / "out")
    agent, user = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt")
    argv = {
        "blocklist": ["filter", str(workdir / "kept.jsonl"), str(config), "-o", out],
        "corpus": ["filter", str(bad), str(config), "-o", out],
        "lexicon": ["lexicon", "stats", str(bad), str(tokens)],
        "seeds": ["selfchat", agent, user, str(config), "-o", out],
        "token_list": ["lexicon", "stats", str(data_path(LEXICON_FILE)), str(bad)],
    }[reader]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: line 2: not UTF-8"), err


ADDRESS_SPACE_CAP = 1536 * 2**20  # bytes; a synth that fills its lists hits it and fails


def test_config_too_large_to_allocate_exits_1_with_one_line(tmp_path):
    """A valid int64 that passes the config checks; synthesize_corpus then asks
    for a label list of ~1.5e18 items, which CPython refuses before allocating.
    The run is a child process with its address space capped, so a synthesizer
    that allocates instead fails this test, and does not take the suite down."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"synth": {"num_dialogs": 2**62}}))
    out, err = tmp_path / "c.jsonl", tmp_path / "stderr.txt"
    src = Path(objective.__file__).parents[1]  # the directory that holds the package under test
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    with open(err, "wb") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-m", "emoguide.cli", "synth", str(config), "-o", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            preexec_fn=cap,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 1
    assert err.read_text() == "error: out of memory\n"
    assert usage.ru_maxrss < 200 * 1024  # KiB: the failure comes before any large allocation
    assert not out.exists()


def test_corrupt_corpus_exits_1(workdir, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"source_id": "x"}\nnot json\n')
    config = workdir / "run.json"
    assert main(["filter", str(corrupt), str(config), "-o", str(tmp_path / "o.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def _edit_header(data: bytes, edit) -> bytes:
    """Rewrite a checkpoint's JSON header with ``edit``, keeping its buffers."""
    start = len(CKPT_MAGIC) + 4
    (length,) = struct.unpack("<I", data[len(CKPT_MAGIC) : start])
    header = json.loads(data[start : start + length])
    edit(header)
    blob = json.dumps(header).encode()
    return CKPT_MAGIC + struct.pack("<I", len(blob)) + blob + data[start + length :]


def _fill_param(data: bytes, name: str, value: float) -> bytes:
    """Set every value of the parameter ``name`` to ``value``."""
    start = len(CKPT_MAGIC) + 4
    (length,) = struct.unpack("<I", data[len(CKPT_MAGIC) : start])
    offset = start + length
    for spec in json.loads(data[start:offset])["params"]:
        size = int(np.prod(spec["shape"]))
        if spec["name"] == name:
            filled = np.full(size, value, dtype="<f4").tobytes()
            return data[:offset] + filled + data[offset + 4 * size :]
        offset += 4 * size
    raise KeyError(name)


# a case -> the parameter it fills with a value that is not finite
NON_FINITE = {"nan_out_w": ("out_w", np.nan), "inf_l0_u_c": ("l0.u_c", -np.inf)}

CORRUPT_CHECKPOINTS = {
    "truncated_length_field": lambda data: data[: len(CKPT_MAGIC) + 2],
    "no_step_count": lambda data: _edit_header(data, lambda h: h.pop("step_count")),
    "extra_config_key": lambda data: _edit_header(data, lambda h: h["config"].update(extra=1)),
    "param_spec_without_shape": lambda data: _edit_header(
        data, lambda h: h["params"][0].pop("shape")
    ),
    "trailing_bytes": lambda data: data + b"\0",
    **{
        case: lambda data, fill=fill: _fill_param(data, *fill)
        for case, fill in NON_FINITE.items()
    },
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_exits_1_with_one_line(workdir, tmp_path, capsys, case):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPT_CHECKPOINTS[case]((workdir / "agent.ckpt").read_bytes()))
    user, config = workdir / "user.ckpt", workdir / "run.json"
    assert main(["selfchat", str(bad), str(user), str(config), "-o", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: "), err
    if case in NON_FINITE:  # the line names the parameter
        assert f"parameter {NON_FINITE[case][0]} " in err, err


def test_selfchat_vocab_mismatch_exits_1(workdir, tmp_path, capsys):
    # train a second model on a different corpus -> different vocabulary
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps({**TINY, "seed": 21, "synth": {"num_dialogs": 6}}))
    other_corpus = tmp_path / "other.jsonl"
    assert main(["synth", str(other_cfg), "-o", str(other_corpus)]) == 0
    other_ckpt = tmp_path / "other.ckpt"
    assert main(["train", str(other_cfg), "--corpus", str(other_corpus), "-o", str(other_ckpt)]) == 0
    rc = main(
        [
            "selfchat",
            str(workdir / "agent.ckpt"),
            str(other_ckpt),
            str(workdir / "chat_config.json"),
            "-o",
            str(tmp_path / "d.jsonl"),
        ]
    )
    if rc == 0:
        pytest.skip("vocabularies happened to coincide")
    assert rc == 1
    assert "vocab" in capsys.readouterr().err


def test_train_files_do_not_depend_on_the_blas_thread_variables(tmp_path):
    """Left unset, the thread variables default to one BLAS thread, so a
    checkpoint and its log are the same bytes on a host with more cores.  The
    default model sizes make the training GEMMs large enough for OpenBLAS to
    split them over threads; on a one-core host the two runs agree anyway."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 3, "synth": {"num_dialogs": 40}, "train": {"max_steps": 4}}))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", str(config), "-o", str(corpus)]) == 0
    src = Path(objective.__file__).parents[1]  # the directory that holds the package under test
    files = []
    for name, threads in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env.update(threads, PYTHONPATH=str(src))
        out, log = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.jsonl"
        command = ["train", str(config), "--corpus", str(corpus), "-o", str(out), "--log", str(log)]
        subprocess.run([sys.executable, "-m", "emoguide.cli", *command], env=env, check=True, capture_output=True)
        files.append((out.read_bytes(), log.read_bytes()))
    assert files[0] == files[1]


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "emoguide.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("synth", "filter", "train", "gradcheck", "selfchat", "eval", "lexicon"):
        assert sub in proc.stdout


# ------------------------------------------------- fuzzed reader inputs
#
# Each case mutates a valid input file (truncates it, flips bytes, drops a
# key or changes a value's type) and runs it through ``main``.  A mutation
# may leave the input valid, so the contract checked is: success with a
# silent stderr, or the reader's exit code (1 for input files, 2 for the
# config) with exactly one stderr line.  Example counts are bounded and
# derandomized so the suite stays fast and repeatable.

FUZZ = settings(max_examples=40, deadline=None, derandomize=True)

OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 40), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 40), max_size=2),
)


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for index, mask in flips:
        out[index] ^= mask
    return bytes(out)


def byte_mutations(data: bytes):
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.lists(
            st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)), min_size=1, max_size=3
        ).map(lambda flips: _flip(data, flips)),
    )


@st.composite
def mutated_json(draw, value):
    """``value`` with one key dropped or one value retyped, at any depth."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)) > 0:
        out = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        if isinstance(out, dict) and draw(st.integers(0, 3)) == 0:
            del out[key]
        else:
            out[key] = draw(mutated_json(value[key]))
        return out
    return draw(OTHER_VALUES.filter(lambda v: type(v) is not type(value)))


@st.composite
def mutated_jsonl(draw, data: bytes):
    records = [json.loads(line) for line in data.decode().splitlines()]
    i = draw(st.integers(0, len(records) - 1))
    records[i] = draw(mutated_json(records[i]))
    return "".join(json.dumps(r) + "\n" for r in records).encode()


@st.composite
def mutated_tsv(draw, data: bytes):
    lines = data.decode().splitlines()
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = draw(st.sampled_from(rows))
    fields = lines[i].split("\t")
    j = draw(st.integers(0, len(fields) - 1))
    if draw(st.booleans()):
        del fields[j]
    else:
        fields[j] = draw(st.text(max_size=6))
    lines[i] = "\t".join(fields)
    return ("\n".join(lines) + "\n").encode()


def mutated_document(data: bytes):
    return mutated_json(json.loads(data)).map(lambda value: json.dumps(value).encode())


FIELD_MUTATIONS = {
    "config": mutated_document,
    "corpus": mutated_jsonl,
    "lexicon": mutated_tsv,
    "seeds": mutated_jsonl,
}


@pytest.fixture(scope="module")
def fuzz_targets(workdir):
    """reader -> (valid bytes, file the mutation goes to, argv, exit code on failure)."""
    from emoguide.resources import data_path

    root = workdir / "fuzz"
    root.mkdir()
    tokens = root / "tokens.txt"
    tokens.write_text("happy\ncalm\nzzz\n")
    seeds = root / "seeds.jsonl"
    chat_config = root / "chat.json"
    chat_config.write_text(json.dumps({**TINY, "paths": {"seeds": str(seeds)}}))
    corpus, lexicon, config = root / "corpus.jsonl", root / "lexicon.tsv", root / "config.json"
    agent, user, out = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt"), str(root / "out")
    checkpoint = root / "agent.ckpt"
    return {
        "checkpoint": (
            (workdir / "agent.ckpt").read_bytes(),
            checkpoint,
            ["selfchat", str(checkpoint), user, str(workdir / "chat_config.json"), "-o", out],
            1,
        ),
        "config": (
            (workdir / "run.json").read_bytes(), config, ["synth", str(config), "-o", out], 2
        ),
        "corpus": (
            (workdir / "kept.jsonl").read_bytes(),
            corpus,
            ["filter", str(corpus), str(workdir / "run.json"), "-o", out],
            1,
        ),
        "lexicon": (
            data_path("vad_lexicon.tsv").read_bytes(),
            lexicon,
            ["lexicon", "stats", str(lexicon), str(tokens)],
            1,
        ),
        "seeds": (
            (workdir / "seeds.jsonl").read_bytes(),
            seeds,
            ["selfchat", agent, user, str(chat_config), "-o", out],
            1,
        ),
    }


def _check_mutation(target, data: bytes) -> None:
    _, path, argv, failure_code = target
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == failure_code and len(err.getvalue().splitlines()) == 1, (code, err.getvalue())


@pytest.mark.parametrize("reader", ["checkpoint", *sorted(FIELD_MUTATIONS)])
def test_fuzzed_bytes_fail_cleanly(fuzz_targets, reader):
    target = fuzz_targets[reader]

    @FUZZ
    @given(byte_mutations(target[0]))
    def check(data):
        _check_mutation(target, data)

    check()


@pytest.mark.parametrize("reader", sorted(FIELD_MUTATIONS))
def test_fuzzed_fields_fail_cleanly(fuzz_targets, reader):
    target = fuzz_targets[reader]

    @FUZZ
    @given(FIELD_MUTATIONS[reader](target[0]))
    def check(data):
        _check_mutation(target, data)

    check()
