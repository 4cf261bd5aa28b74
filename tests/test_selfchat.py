"""Self-chat protocol: roles, lengths, determinism, and seed handling."""

from dataclasses import replace

import numpy as np
import pytest

import emoguide.model as model_mod
from emoguide import selfchat
from emoguide.corpus import (
    Dialog,
    SynthConfig,
    Utterance,
    bank_words,
    prepare_training_examples,
    prepare_user_side_examples,
    synthesize_corpus,
)
from emoguide.model import DecodeConfig, ModelConfig, generate_batch, init_model
from emoguide.polarity import ClassifierParams, PolarityClassifier
from emoguide.config import default_run_config
from emoguide.resources import data_path, SEEDS_FILE
from emoguide.selfchat import (
    SeedUtterance,
    SelfChatConfig,
    load_seed_utterances,
    self_chat,
)
from emoguide.train import TrainConfig, train
from emoguide.vad import tokenize
from emoguide.vocab import (
    AGENT,
    AGT,
    EOU,
    USER,
    USR,
    assemble_stream,
    build_vocab,
    encode_emotion_prefix,
    utterance_segment,
)


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


def _context(dialog, vocab, classifier, window, position):
    """The context self-chat assembles before ``position``'s reply in
    ``dialog``, and whether the window dropped segments from it."""
    prefix = encode_emotion_prefix(classifier(dialog.utterances[0].tokens))
    segments = [utterance_segment(u.speaker, u.tokens, vocab) for u in dialog.utterances[:position]]
    tail = [vocab.id(AGT if position % 2 else USR)]
    context = assemble_stream(prefix, segments, vocab, window, tail)
    return context, len(context) < 2 + sum(map(len, segments)) + 1


def _from_scratch(agent, user, config, classifier):
    """Self-chat re-played by the public ``assemble_stream`` and
    ``generate_batch``: every reply decoded from zeros over its whole context,
    with the seeded rng of its (dialog, position) pair."""
    models, vocab = {AGENT: agent, USER: user}, agent.vocab
    bans = dict(eou_id=vocab.id(EOU), forbidden_ids=sorted(vocab.structural_ids))
    openers = [tuple(tokenize(seed.text)) for seed in config.seeds]
    prefixes = [encode_emotion_prefix(classifier(opener)) for opener in openers]
    segments = [[utterance_segment(USER, opener, vocab)] for opener in openers]
    texts = [[" ".join(opener)] for opener in openers]
    for position in range(1, 2 * config.turns):
        speaker, marker = (AGENT, AGT) if position % 2 else (USER, USR)
        window = models[speaker].config.context_window
        contexts = [
            assemble_stream(prefix, segs, vocab, window, tail=[vocab.id(marker)])
            for prefix, segs in zip(prefixes, segments)
        ]
        sequences = [np.random.SeedSequence([config.rng_seed, i, position]) for i in range(len(contexts))]
        rngs = [np.random.default_rng(sequence) for sequence in sequences]
        replies = generate_batch(models[speaker], contexts, config.decode, rngs=rngs, **bans)
        for segs, said, reply in zip(segments, texts, replies):
            words = [vocab.tokens[t] for t in reply]
            segs.append(utterance_segment(speaker, words, vocab))
            said.append(" ".join(words))
    return [
        Dialog(
            f"selfchat-{i:04d}-{seed.polarity}",
            tuple(Utterance(AGENT if k % 2 else USER, text) for k, text in enumerate(said)),
        )
        for i, (seed, said) in enumerate(zip(config.seeds, texts))
    ]


def _with_window(models, window):
    return [replace(m, config=replace(m.config, context_window=window)) for m in models]


def _encode(model, ids):
    """Each layer's hidden state after feeding ``ids`` from zeros."""
    zeros = [np.zeros((1, model.config.hidden_dim), model.dtype)] * model.config.num_layers
    if not ids:
        return [h[0] for h in zeros]
    no_reply = DecodeConfig(max_tokens=0)
    return [h[0] for h in model_mod._decode(model_mod._prepare(model), [ids], zeros, no_reply, [None])[1]]


def _truncated(dialog, window):
    """Whether the dialog's last context outgrew the window, so that
    ``assemble_stream`` dropped segments: prefix, segments and a marker."""
    return 2 + sum(len(u.tokens) + 2 for u in dialog.utterances[:-1]) + 1 > window


# (agent, user) fields over the ``models`` fixture's sizes: one layer of one
# size, two layers, and two sizes
SHAPES = {
    "one_layer": ({}, {}),
    "two_layers": ({"num_layers": 2}, {"num_layers": 2}),
    "two_sizes": ({"hidden_dim": 20}, {"embed_dim": 6, "hidden_dim": 9}),
}


@pytest.fixture(scope="module")
def trained(vocab, classifier):
    """Each shape's (agent, user) pair, trained for 40 steps on a small
    corpus.  Untrained models at these sizes reply almost alike to any
    context, so a transcript check over them misses most wrong decode
    states; these reply by what they were fed."""
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=40), seed=3)
    examples = (
        [ex for d in dialogs for ex in prepare_training_examples(d, classifier)],
        [ex for d in dialogs for ex in prepare_user_side_examples(d, classifier)],
    )
    sizes = dict(vocab_size=len(vocab), embed_dim=8, hidden_dim=12)
    pege = default_run_config().pege_config()

    def fit(seed, changed, examples):
        model = init_model(ModelConfig(**{**sizes, **changed}), seed, vocab=vocab)
        config = TrainConfig(
            learning_rate=0.03, batch_size=8, max_steps=40, ablation="nll_only", seed=seed
        )
        return train(model, examples, config, pege, classifier.lexicon)[0]

    return {
        shape: tuple(fit(seed, *args) for seed, args in enumerate(zip(fields, examples)))
        for shape, fields in SHAPES.items()
    }


def test_trained_replies_depend_on_the_opener(trained, classifier):
    config = SelfChatConfig(seeds=SEEDS, turns=2)
    for shape, (agent, user) in trained.items():
        dialogs = self_chat(agent, user, config, classifier)
        assert len({d.utterances[2].text for d in dialogs}) == len(SEEDS), shape


@pytest.mark.parametrize("window", [128, 40])
@pytest.mark.parametrize(
    "decode", [DecodeConfig(), DecodeConfig(mode="top_k", k=4)], ids=["greedy", "top_k"]
)
def test_carried_decode_state_keeps_transcripts(trained, classifier, window, decode):
    config = SelfChatConfig(seeds=SEEDS, turns=6, decode=decode, rng_seed=5)
    for shape, models in trained.items():
        agent, user = _with_window(models, window)
        carried = self_chat(agent, user, config, classifier)
        assert carried == _from_scratch(agent, user, config, classifier), shape
        # at 128 every reply is fed from carried states; at 40 some are fed from zeros
        assert any(_truncated(d, window) for d in carried) == (window == 40), shape


@pytest.mark.parametrize("window", [128, 40, 24])
def test_replies_feed_new_ids_from_carried_states_until_a_segment_is_dropped(
    models, classifier, monkeypatch, window
):
    agent, user = _with_window(models, window)
    calls, assembled, truncated_at = [], [], []

    def assemble(prefix, segments, vocab, window, tail=()):
        assembled.append(len(calls) + 1)  # the position being decoded
        return assemble_stream(prefix, segments, vocab, window, tail)

    def decode(decoder, suffixes, h0, config, rngs):
        replies, hs = decode_(decoder, suffixes, h0, config, rngs)
        calls.append((decoder.model, suffixes, h0))
        return replies, hs

    decode_ = selfchat._decode
    monkeypatch.setattr(selfchat, "assemble_stream", assemble)
    monkeypatch.setattr(selfchat, "_decode", decode)
    config = SelfChatConfig(seeds=SEEDS, turns=6)
    dialogs = self_chat(agent, user, config, classifier)
    monkeypatch.undo()
    seen = {"carried": 0, "reset": 0}
    held = {id(agent): [0] * len(SEEDS), id(user): [0] * len(SEEDS)}  # ids each model has fed
    for position, (model, suffixes, h0) in enumerate(calls, start=1):
        fed = held[id(model)]
        for i, (dialog, suffix) in enumerate(zip(dialogs, suffixes)):
            context, truncated = _context(dialog, agent.vocab, classifier, window, position)
            start = 0 if truncated else fed[i]
            assert list(suffix) == context[start:]
            assert all(np.array_equal(h[i], want) for h, want in zip(h0, _encode(model, context[:start])))
            if truncated:
                seen["reset"] += 1
                truncated_at.append(position)
            elif start:
                seen["carried"] += 1
            fed[i] = len(context) + len(dialog.utterances[position].tokens)
    assert seen["reset"] > 0 and (seen["carried"] > 0) == (window > 24)
    # a context is assembled only when the window drops segments from it
    assert assembled == truncated_at


@pytest.mark.parametrize("window", [128, 40])
@pytest.mark.parametrize(
    "decode", [DecodeConfig(), DecodeConfig(mode="top_k", k=4)], ids=["greedy", "top_k"]
)
def test_dialogs_do_not_depend_on_the_batch(trained, classifier, window, decode):
    agent, user = _with_window(trained["one_layer"], window)
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
        assert any(_truncated(d, window) for d in everyone)


def test_each_model_feeds_each_stream_token_once(models, classifier, monkeypatch):
    agent, user = models
    fed, owner = {id(agent.params): 0, id(user.params): 0}, {}  # owner: weights -> model

    def prepare(model, *args, **kwargs):
        decoder = prepare_(model, *args, **kwargs)
        owner[id(decoder.weights)] = model
        return decoder

    def counting_step(weights, ids, hs):
        fed[id(owner[id(weights)].params)] += len(ids)
        return step(weights, ids, hs)

    prepare_, step = selfchat._prepare, model_mod._step
    monkeypatch.setattr(selfchat, "_prepare", prepare)
    monkeypatch.setattr(model_mod, "_step", counting_step)
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


@pytest.mark.parametrize(
    "decode", [DecodeConfig(), DecodeConfig(mode="top_k", k=4)], ids=["greedy", "top_k"]
)
def test_decoding_never_runs_the_training_pass(trained, classifier, monkeypatch, decode):
    agent, user = trained["two_layers"]
    config = SelfChatConfig(seeds=SEEDS, turns=4, decode=decode, rng_seed=5)
    # openers of different lengths, so that feeding them runs a lone row too
    contexts = [agent.vocab.encode(tokenize(text)) for text in ("sad", "happy wonderful joy", "plain day")]
    rngs = lambda: [np.random.default_rng(i) for i in range(len(contexts))]
    dialogs = self_chat(agent, user, config, classifier)
    replies = generate_batch(agent, contexts, decode, eou_id=agent.vocab.id(EOU), rngs=rngs())

    def training_pass(*args, **kwargs):
        raise AssertionError("decoding ran the training pass")

    monkeypatch.setattr(model_mod, "_forward_cached", training_pass)
    assert self_chat(agent, user, config, classifier) == dialogs
    assert generate_batch(agent, contexts, decode, eou_id=agent.vocab.id(EOU), rngs=rngs()) == replies


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


@pytest.mark.parametrize("words", [bank_words()[:-1], [*bank_words(), "zzyzx"]], ids=["fewer", "more"])
def test_a_vocabulary_of_another_size_than_the_config_raises(models, classifier, words):
    # both models share the vocabulary, so only its size against the config is wrong
    other = build_vocab(words)
    agent, user = (replace(m, vocab=other) for m in models)
    config = SelfChatConfig(seeds=SEEDS, turns=2)
    with pytest.raises(ValueError, match="vocab_size"):
        self_chat(agent, user, config, classifier)
