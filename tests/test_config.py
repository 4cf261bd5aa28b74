"""Run-config parsing: defaults, unknown keys, hashing, and the environment ignored."""

import copy
import json

import pytest

from emoguide.config import _DEFAULTS, ConfigError, RunConfig, default_run_config, load_run_config
from emoguide.vocab import Vocab


def test_defaults_are_fully_resolved():
    data = default_run_config().resolved()
    assert data["seed"] == 0
    assert data["model"] == {
        "embed_dim": 64,
        "hidden_dim": 128,
        "num_layers": 1,
        "context_window": 128,
    }
    assert data["train"]["ablation"] == "full"
    assert data["objective"] == {"alpha": 5.0, "beta": 2.0, "max_turn": 7}
    assert data["classifier"] == {"temperature": 0.1, "neutral_bias": 1.0}
    assert data["selfchat"]["turns"] == 10
    assert all(v is None for v in data["paths"].values())


def test_partial_override_merges():
    config = RunConfig.from_dict({"seed": 5, "model": {"hidden_dim": 32}})
    data = config.resolved()
    assert data["seed"] == 5
    assert data["model"]["hidden_dim"] == 32
    assert data["model"]["embed_dim"] == 64  # untouched default


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown config key: modle"):
        RunConfig.from_dict({"modle": {}})
    with pytest.raises(ConfigError, match="unknown config key: model.embed$"):
        RunConfig.from_dict({"model": {"embed": 16}})
    with pytest.raises(ConfigError, match="selfchat.decode.kk"):
        RunConfig.from_dict({"selfchat": {"decode": {"kk": 1}}})


def test_sections_must_be_objects():
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig.from_dict({"model": 5})
    with pytest.raises(ConfigError, match="root"):
        RunConfig.from_dict([1, 2])


def test_seed_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": -1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"seed": "zero"})


def test_hash_is_canonical_and_sensitive():
    a = RunConfig.from_dict({"model": {"hidden_dim": 32}, "seed": 1})
    b = RunConfig.from_dict({"seed": 1, "model": {"hidden_dim": 32}})
    assert a.config_hash() == b.config_hash()
    c = RunConfig.from_dict({"seed": 2, "model": {"hidden_dim": 32}})
    assert a.config_hash() != c.config_hash()
    # every output file embeds this hash, so the defaults must resolve to it
    expected = "616afc8091ec15b9c565beccacab9dcbfeee5106475e63a79c57f33f65c753e4"
    assert default_run_config().config_hash() == expected


def test_with_overrides():
    base = default_run_config()
    seeded = base.with_overrides(seed=42)
    assert seeded.seed == 42
    assert base.seed == 0
    ablated = base.with_overrides(ablation="nll_only")
    assert ablated.resolved()["train"]["ablation"] == "nll_only"
    assert ablated.config_hash() != base.config_hash()


def test_paths_fall_back_to_packaged_fixtures(tmp_path):
    config = default_run_config()
    for name in ("lexicon", "topic_blocklist", "entity_patterns", "offensive_blocklist", "seeds"):
        p = config.path(name)
        assert p is not None and p.endswith((".tsv", ".txt", ".jsonl"))
    assert config.path("corpus") is None
    with pytest.raises(ConfigError):
        config.path("nonexistent")
    explicit = RunConfig.from_dict({"paths": {"corpus": str(tmp_path / "c.jsonl")}})
    assert explicit.path("corpus") == str(tmp_path / "c.jsonl")


def _numeric_leaves(tree, path=()):
    """(path, default) of every number in ``tree``, list items included."""
    for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, key))
        elif type(value) in (int, float):
            yield (*path, key), value


# every numeric leaf with every JSON literal it must reject; 1.5 only where an integer is due
BAD_LEAVES = [
    (path, literal)
    for path, default in _numeric_leaves(_DEFAULTS)
    for literal in ["true", '"x"', "null", "1e999"] + ["1.5"] * (type(default) is int)
]


@pytest.mark.parametrize(
    "path, literal", BAD_LEAVES, ids=[".".join(map(str, p)) + "=" + v for p, v in BAD_LEAVES]
)
def test_every_numeric_field_names_itself_when_rejected(path, literal):
    raw = copy.deepcopy(_DEFAULTS)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = json.loads(literal)
    field = [key for key in path if isinstance(key, str)][-1]  # a list item's field is the list
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(raw)
    assert field in str(exc.value)


def test_environment_changes_no_path_or_hash(monkeypatch):
    plain = default_run_config()
    monkeypatch.setenv("EMOGUIDE_CORPUS", "/elsewhere/corpus.jsonl")
    monkeypatch.setenv("EMOGUIDE_LEXICON", "/elsewhere/lexicon.tsv")
    config = default_run_config()
    assert config.config_hash() == plain.config_hash()
    assert config.path("corpus") is None
    assert config.path("lexicon") == plain.path("lexicon")


def test_builders_produce_validated_objects():
    config = RunConfig.from_dict({"seed": 3})
    model_cfg = config.model_config(vocab_size=50)
    assert model_cfg.vocab_size == 50 and model_cfg.hidden_dim == 128
    train_cfg = config.train_config()
    assert train_cfg.seed == 3 and train_cfg.ablation == "full"
    assert config.pege_config().alpha == 5.0
    assert config.classifier_params().neutral_bias == 1.0
    assert config.synth_config().turns_range == (5, 11)
    assert config.decode_config().mode == "greedy"
    rules = config.filter_rules()
    assert rules.topic_blocklist and rules.entity_patterns and rules.offensive_blocklist


def test_builder_value_errors_become_config_errors():
    # every section is built at load, so a bad value fails there
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"train": {"learning_rate": -1.0}})
    with pytest.raises(ConfigError):
        default_run_config().model_config(vocab_size=0)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"embed_dim": 0}}).model_config(10)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"selfchat": {"decode": {"mode": "beam"}}}).decode_config()


def test_classifier_and_lexicon_builders():
    config = default_run_config()
    classifier = config.classifier()
    label = classifier.label(("happy", "wonderful"))
    assert label == "positive"
    assert classifier.lexicon.entries  # packaged lexicon loaded


def test_selfchat_config_builder():
    from emoguide.selfchat import SeedUtterance

    config = RunConfig.from_dict({"seed": 9, "selfchat": {"turns": 3}})
    chat = config.selfchat_config([SeedUtterance("good day", "positive")])
    assert chat.turns == 3
    assert chat.rng_seed == 9
    assert len(chat.seeds) == 1


def test_load_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"seed": 4, "synth": {"num_dialogs": 5}}\n')
    config = load_run_config(path)
    assert config.seed == 4
    assert config.synth_config().num_dialogs == 5

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(bad_json)

    bad_key = tmp_path / "key.json"
    bad_key.write_text('{"sede": 1}')
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(bad_key)

    with pytest.raises(FileNotFoundError):
        load_run_config(tmp_path / "missing.json")


def test_resolved_is_a_copy():
    config = default_run_config()
    data = config.resolved()
    data["seed"] = 99
    data["model"]["embed_dim"] = 1
    assert config.seed == 0
    assert config.resolved()["model"]["embed_dim"] == 64
