"""Self-chat protocol: roles, lengths, determinism, and seed handling."""

from dataclasses import replace

import pytest

import emoguide.model as model_mod
from emoguide import selfchat
from emoguide.corpus import bank_words
from emoguide.model import DecodeConfig, ModelConfig, init_model
from emoguide.polarity import ClassifierParams, PolarityClassifier
from emoguide.config import default_run_config
from emoguide.resources import data_path, SEEDS_FILE
from emoguide.selfchat import (
    SeedUtterance,
    SelfChatConfig,
    load_seed_utterances,
    self_chat,
)
from emoguide.vocab import AGENT, USER, build_vocab


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(bank_words())


@pytest.fixture(scope="module")
def classifier():
    return PolarityClassifier(default_run_config().lexicon(), ClassifierParams(neutral_bias=1.0))


@pytest.fixture(scope="module")
def models(vocab):
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=12)
    agent = init_model(cfg, seed=0, vocab=vocab)
    user = init_model(cfg, seed=1, vocab=vocab)
    return agent, user


SEEDS = (
    SeedUtterance("sad lonely tired", "negative"),
    SeedUtterance("plain ordinary day", "neutral"),
    SeedUtterance("happy wonderful joy", "positive"),
)


# ------------------------------------------------------------- fixtures


def test_packaged_seed_fixture():
    seeds = load_seed_utterances(data_path(SEEDS_FILE))
    assert len(seeds) == 100
    counts = {"negative": 0, "neutral": 0, "positive": 0}
    for s in seeds:
        counts[s.polarity] += 1
    assert counts == {"negative": 33, "neutral": 34, "positive": 33}


def test_seed_validation():
    with pytest.raises(ValueError):
        SeedUtterance("fine words", "upbeat")
    with pytest.raises(ValueError):
        SeedUtterance("...", "neutral")


def test_load_seeds_rejects_bad_lines(tmp_path):
    p = tmp_path / "seeds.jsonl"
    p.write_text('{"text": "good day", "polarity": "positive"}\n{"text": "x"}\n')
    with pytest.raises(ValueError, match="line 2"):
        load_seed_utterances(p)
    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(ValueError):
        load_seed_utterances(tmp_path / "empty.jsonl")


def test_config_validation():
    with pytest.raises(ValueError):
        SelfChatConfig(seeds=())
    with pytest.raises(ValueError):
        SelfChatConfig(seeds=SEEDS, turns=0)
    with pytest.raises(ValueError):
        SelfChatConfig(seeds=SEEDS, rng_seed=-1)
    with pytest.raises(ValueError):
        SelfChatConfig(seeds=SEEDS, decode=DecodeConfig(max_tokens=0))


# ------------------------------------------------------------- protocol


def test_dialog_shape_and_roles(models, classifier):
    agent, user = models
    config = SelfChatConfig(seeds=SEEDS, turns=10)
    dialogs = self_chat(agent, user, config, classifier)
    assert len(dialogs) == 3
    for d, seed in zip(dialogs, SEEDS):
        assert len(d.utterances) == 20
        assert d.utterances[0].speaker == "user"
        assert d.utterances[0].text == seed.text
        for i, u in enumerate(d.utterances):
            assert u.speaker == ("agent" if i % 2 == 1 else "user")
        assert d.source_id.endswith(seed.polarity)


def test_single_turn_dialogs(models, classifier):
    agent, user = models
    config = SelfChatConfig(seeds=SEEDS[:1], turns=1)
    (dialog,) = self_chat(agent, user, config, classifier)
    assert len(dialog.utterances) == 2
    assert dialog.utterances[1].speaker == "agent"


def test_no_structural_tokens_leak(models, classifier):
    agent, user = models
    dialogs = self_chat(agent, user, SelfChatConfig(seeds=SEEDS, turns=4), classifier)
    for d in dialogs:
        for u in d.utterances:
            assert "<" not in u.text and ">" not in u.text
            assert len(u.tokens) >= 1


# ---------------------------------------------------------- determinism


def test_greedy_is_deterministic(models, classifier):
    agent, user = models
    config = SelfChatConfig(seeds=SEEDS, turns=5)
    assert self_chat(agent, user, config, classifier) == self_chat(
        agent, user, config, classifier
    )


def test_sampling_is_seed_deterministic(models, classifier):
    agent, user = models
    decode = DecodeConfig(mode="top_k", k=4, temperature=1.0)
    config = SelfChatConfig(seeds=SEEDS, turns=5, decode=decode, rng_seed=11)
    a = self_chat(agent, user, config, classifier)
    b = self_chat(agent, user, config, classifier)
    assert a == b
    other = SelfChatConfig(seeds=SEEDS, turns=5, decode=decode, rng_seed=12)
    c = self_chat(agent, user, other, classifier)
    assert a != c


def test_threads_do_not_change_results(models, classifier):
    agent, user = models
    config = SelfChatConfig(seeds=SEEDS, turns=4)
    single = self_chat(agent, user, config, classifier, threads=1)
    for threads in (2, 3, 5):  # groups of 1 and 2, of 1 each, and more threads than seeds
        assert self_chat(agent, user, config, classifier, threads=threads) == single


def _stateless(calls):
    """``selfchat._decode`` as called before decode states: every context from
    zeros.  Each call is counted in ``calls``, so a test can assert the patch
    was hit."""

    def decode(decoder, contexts, config, rngs, states):
        calls.append(len(contexts))
        return model_mod._decode(decoder, contexts, config, rngs, None)

    return decode


def _with_window(models, window):
    return [replace(m, config=replace(m.config, context_window=window)) for m in models]


@pytest.mark.parametrize("window", [128, 40])
@pytest.mark.parametrize(
    "decode", [DecodeConfig(), DecodeConfig(mode="top_k", k=4)], ids=["greedy", "top_k"]
)
def test_carried_decode_state_keeps_transcripts(models, classifier, monkeypatch, window, decode):
    agent, user = _with_window(models, window)
    config = SelfChatConfig(seeds=SEEDS, turns=6, decode=decode, rng_seed=5)
    carried = self_chat(agent, user, config, classifier)
    calls = []
    monkeypatch.setattr(selfchat, "_decode", _stateless(calls))
    assert carried == self_chat(agent, user, config, classifier)
    assert calls == [len(SEEDS)] * (2 * config.turns - 1)  # every reply went through the patch
    if window == 40:  # the stream outgrew the window, so assemble_stream dropped segments
        assert all(sum(len(u.tokens) + 2 for u in d.utterances) + 2 > 40 for d in carried)


@pytest.mark.parametrize("window", [128, 40])
@pytest.mark.parametrize(
    "decode", [DecodeConfig(), DecodeConfig(mode="top_k", k=4)], ids=["greedy", "top_k"]
)
def test_dialogs_do_not_depend_on_the_batch(models, classifier, window, decode):
    agent, user = _with_window(models, window)
    seeds = load_seed_utterances(data_path(SEEDS_FILE))[:14]
    config = SelfChatConfig(seeds=seeds, turns=5, decode=decode, rng_seed=3)
    everyone = self_chat(agent, user, config, classifier)
    decoders = selfchat._prepare_speakers(agent, user)
    assert decoders[AGENT].model is agent and decoders[USER].model is user
    items = list(enumerate(seeds))
    for size in (1, 2, 7):
        batches = [items[lo : lo + size] for lo in range(0, len(items), size)]
        dialogs = [
            d for b in batches for d in selfchat._chat(decoders, config, classifier, b)
        ]
        assert dialogs == everyone, size
    if window == 40:  # some streams were truncated, so they restarted from zeros
        assert any(sum(len(u.tokens) + 2 for u in d.utterances) + 2 > 40 for d in everyone)


def test_each_model_feeds_each_stream_token_once(models, classifier, monkeypatch):
    agent, user = models
    fed = {id(agent.params): 0, id(user.params): 0}

    def counting(model, weights, streams, h0):
        fed[id(model.params)] += sum(len(stream) for stream in streams)
        return feed(model, weights, streams, h0)

    feed = model_mod._feed
    monkeypatch.setattr(model_mod, "_feed", counting)
    for seed in SEEDS:
        fed.update(dict.fromkeys(fed, 0))
        config = SelfChatConfig(seeds=(seed,), turns=4)  # stays inside the 128-token window
        (dialog,) = self_chat(agent, user, config, classifier)
        lengths = [len(u.tokens) for u in dialog.utterances]
        for model, last in ((agent, len(lengths) - 1), (user, len(lengths) - 2)):
            # prefix, every segment before this model's last reply, then that
            # reply's marker and tokens (its <eou> is never fed)
            stream = 2 + sum(n + 2 for n in lengths[:last]) + 1 + lengths[last]
            assert stream <= model.config.context_window
            assert fed[id(model.params)] == stream


@pytest.mark.parametrize("threads", [1, 3])
def test_each_model_is_prepared_once_per_call(models, classifier, monkeypatch, threads):
    agent, user = models
    prepared, joins = [], []

    def prepare(model, *args, **kwargs):
        prepared.append(model)
        return prepare_(model, *args, **kwargs)

    def join_weights(model):
        joins.append(model)
        return join_weights_(model)

    prepare_, join_weights_ = selfchat._prepare, model_mod._join_weights
    monkeypatch.setattr(selfchat, "_prepare", prepare)
    monkeypatch.setattr(model_mod, "_join_weights", join_weights)
    config = SelfChatConfig(seeds=SEEDS, turns=4)
    dialogs = self_chat(agent, user, config, classifier, threads=threads)
    monkeypatch.undo()
    # once per model, whatever the thread groups and the 2·turns − 1 positions,
    # and no decode call joins the weights again
    assert [id(m) for m in prepared] == [id(m) for m in joins] == [id(agent), id(user)]
    assert dialogs == self_chat(agent, user, config, classifier)


# ------------------------------------------------------------ failures


def test_vocab_mismatch_raises(models, classifier, vocab):
    agent, _ = models
    other_vocab = build_vocab(bank_words()[:-1])
    other = init_model(
        ModelConfig(vocab_size=len(other_vocab), embed_dim=8, hidden_dim=12),
        seed=2,
        vocab=other_vocab,
    )
    config = SelfChatConfig(seeds=SEEDS, turns=2)
    with pytest.raises(ValueError, match="vocabular"):
        self_chat(agent, other, config, classifier)
    bare = init_model(ModelConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=12), seed=3)
    with pytest.raises(ValueError, match="vocabular"):
        self_chat(bare, agent, config, classifier)
    with pytest.raises(ValueError):
        self_chat(agent, agent, config, classifier, threads=0)
