"""Command-line interface: exit codes, determinism, embedded config hashes."""

import json
import struct
import subprocess
import sys

import pytest

from emoguide.cli import main
from emoguide.corpus import load_corpus, read_corpus_meta
from emoguide.model import CKPT_MAGIC, checkpoint_config_hash, load_checkpoint


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in (
        "EMOGUIDE_LEXICON",
        "EMOGUIDE_TOPIC_BLOCKLIST",
        "EMOGUIDE_ENTITY_PATTERNS",
        "EMOGUIDE_OFFENSIVE_BLOCKLIST",
        "EMOGUIDE_SEEDS",
        "EMOGUIDE_CORPUS",
    ):
        monkeypatch.delenv(name, raising=False)


TINY = {
    "seed": 7,
    "model": {"embed_dim": 8, "hidden_dim": 12, "context_window": 64},
    "train": {"learning_rate": 0.01, "batch_size": 4, "max_steps": 3},
    "synth": {"num_dialogs": 12},
    "selfchat": {"turns": 2, "decode": {"mode": "greedy", "max_tokens": 5}},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config file plus synthesized/filtered corpus and two tiny checkpoints."""
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
    return root


def _config_hash(root):
    from emoguide.config import load_run_config

    return load_run_config(root / "run.json").config_hash()


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
    meta = read_corpus_meta(a)
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
    assert read_corpus_meta(other)["config_hash"] == echo["config_hash"]


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
    meta = read_corpus_meta(out)
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
    assert checkpoint_config_hash(a) == _config_hash(workdir)
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
    assert checkpoint_config_hash(out) != _config_hash(workdir)
    entries = [json.loads(line) for line in log.read_text().splitlines()[1:]]
    for e in entries:
        assert e["total"] == pytest.approx(e["nll"], abs=1e-9)
        assert e["peg"] > 0.0  # still computed and logged


def test_selfchat_deterministic_and_counts(workdir):
    config = workdir / "run.json"
    seeds = workdir / "seeds.jsonl"
    seeds.write_text(
        '{"text": "awful terrible day", "polarity": "negative"}\n'
        '{"text": "just a plain morning", "polarity": "neutral"}\n'
        '{"text": "wonderful happy news", "polarity": "positive"}\n'
    )
    special = workdir / "chat_config.json"
    special.write_text(json.dumps({**TINY, "paths": {"seeds": str(seeds)}}))
    a = workdir / "chats_a.jsonl"
    b = workdir / "chats_b.jsonl"
    agent, user = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt")
    assert main(["selfchat", agent, user, str(special), "-o", str(a)]) == 0
    assert main(["selfchat", agent, user, str(special), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    dialogs = load_corpus(a)
    assert len(dialogs) == 3
    assert all(len(d.utterances) == 4 for d in dialogs)  # 2 turns -> 4 utterances
    assert dialogs[0].utterances[0].text == "awful terrible day"
    meta = read_corpus_meta(a)
    assert meta["config_hash"] is not None
    assert meta["agent_model"] and meta["user_model"]


def test_selfchat_threads_match_single(workdir):
    config = workdir / "chat_config.json"
    agent, user = str(workdir / "agent.ckpt"), str(workdir / "user.ckpt")
    single = workdir / "chats_t1.jsonl"
    multi = workdir / "chats_t3.jsonl"
    assert main(["selfchat", agent, user, str(config), "-o", str(single)]) == 0
    assert main(["selfchat", agent, user, str(config), "-o", str(multi), "--threads", "3"]) == 0
    assert single.read_bytes() == multi.read_bytes()


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


def test_lexicon_stats(workdir, capsys):
    vocab_file = workdir / "tokens.txt"
    vocab_file.write_text("happy\ncalm\nzzz_not_listed\n")
    from emoguide.resources import data_path

    assert main(["lexicon", "stats", str(data_path("vad_lexicon.tsv")), str(vocab_file)]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stats["vocab_tokens"] == 3
    assert stats["listed"] == 2
    assert stats["defaulted"] == 1
    assert stats["collisions"] == 0
    assert stats["entries"] > 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", str(bad), "-o", str(tmp_path / "x.jsonl")]) == 2
    assert "config error" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"mdoel": {}}')
    assert main(["synth", str(unknown), "-o", str(tmp_path / "y.jsonl")]) == 2


def test_invalid_config_value_exits_2(tmp_path):
    bad = tmp_path / "neg_lr.json"
    bad.write_text(json.dumps({**TINY, "train": {**TINY["train"], "learning_rate": -1.0}}))
    corpus = tmp_path / "c.jsonl"
    assert main(["synth", str(bad), "-o", str(corpus)]) == 0  # synth never builds a trainer
    assert main(["train", str(bad), "--corpus", str(corpus), "-o", str(tmp_path / "m.ckpt")]) == 2


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


CORRUPT_CHECKPOINTS = {
    "truncated_length_field": lambda data: data[: len(CKPT_MAGIC) + 2],
    "no_step_count": lambda data: _edit_header(data, lambda h: h.pop("step_count")),
    "extra_config_key": lambda data: _edit_header(data, lambda h: h["config"].update(extra=1)),
    "param_spec_without_shape": lambda data: _edit_header(
        data, lambda h: h["params"][0].pop("shape")
    ),
    "trailing_bytes": lambda data: data + b"\0",
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_exits_1_with_one_line(workdir, tmp_path, capsys, case):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPT_CHECKPOINTS[case]((workdir / "agent.ckpt").read_bytes()))
    user, config = workdir / "user.ckpt", workdir / "run.json"
    assert main(["selfchat", str(bad), str(user), str(config), "-o", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: "), err


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


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "emoguide.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("synth", "filter", "train", "gradcheck", "selfchat", "eval", "lexicon"):
        assert sub in proc.stdout
