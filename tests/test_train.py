"""Trainer behavior: encoding, the optimizer, ablations, and descent."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from emoguide.corpus import SynthConfig, prepare_training_examples, synthesize_corpus
from emoguide.model import ModelConfig, _forward_cached, backward, init_model, model_checksum
from emoguide.objective import PegeConfig
from emoguide.polarity import ClassifierParams, PolarityClassifier, PolarityDistribution
from emoguide.config import default_run_config
from emoguide.train import (
    ABLATIONS,
    Adam,
    EncodedExample,
    TrainConfig,
    TrainingDivergedError,
    _batch_losses,
    _draw_batch,
    _encode,
    _pack_batch,
    effective_pege_config,
    encode_example,
    evaluate_nll,
    train,
)
from emoguide.vad import align_vocab
from emoguide.vocab import EOU, build_vocab

train_mod = importlib.import_module("emoguide.train")  # the package's ``train`` is the function


@pytest.fixture(scope="module")
def lexicon():
    return default_run_config().lexicon()


@pytest.fixture(scope="module")
def classifier(lexicon):
    return PolarityClassifier(lexicon, ClassifierParams(neutral_bias=1.0))


@pytest.fixture(scope="module")
def examples(classifier):
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=60), seed=21)
    out = []
    for d in dialogs:
        out.extend(prepare_training_examples(d, classifier))
    return out


@pytest.fixture(scope="module")
def vocab(examples):
    words = sorted({w for ex in examples for u in ex.context for w in u.tokens}
                   | {w for ex in examples for w in ex.target})
    return build_vocab(words)


def small_model(vocab, seed=0):
    cfg = ModelConfig(
        vocab_size=len(vocab), embed_dim=16, hidden_dim=24, num_layers=1, context_window=128
    )
    return init_model(cfg, seed=seed, vocab=vocab)


# ---------------------------------------------------------------- config


def test_effective_config_per_ablation():
    base = PegeConfig(alpha=5.0, beta=2.0)
    assert effective_pege_config(base, "full") == base
    nll = effective_pege_config(base, "nll_only")
    assert nll.alpha == 0.0 and nll.beta == 0.0
    peg = effective_pege_config(base, "peg_only_composite")
    assert peg.alpha == 5.0 and peg.beta == 0.0
    ner = effective_pege_config(base, "ner_only_composite")
    assert ner.alpha == 0.0 and ner.beta == 2.0
    with pytest.raises(ValueError):
        effective_pege_config(base, "bogus")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=True)  # a JSON boolean is not a real number
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(max_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(ablation="peg")
    assert set(ABLATIONS) == {"nll_only", "ner_only_composite", "peg_only_composite", "full"}


# ----------------------------------------------------------------- adam


def test_adam_single_step_matches_hand_computation():
    params = {"w": np.array([1.0], dtype=np.float64)}
    grads = {"w": np.array([0.5], dtype=np.float64)}
    opt = Adam(params, lr=0.001)
    opt.step(params, grads)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / 0.1
    vhat = v / 0.001
    expected = 1.0 - 0.001 * mhat / (math.sqrt(vhat) + 1e-8)
    assert params["w"][0] == pytest.approx(expected, rel=0, abs=1e-15)


def test_adam_is_deterministic():
    def run():
        params = {"w": np.full((3, 3), 0.3, dtype=np.float32)}
        opt = Adam(params, lr=0.01)
        rng = np.random.default_rng(0)
        for _ in range(20):
            opt.step(params, {"w": rng.standard_normal((3, 3)).astype(np.float32)})
        return params["w"].copy()

    assert np.array_equal(run(), run())


# -------------------------------------------------------------- encoding


def test_encode_example_layout(examples, vocab):
    ex = examples[0]
    enc = encode_example(ex, vocab, window=128)
    # stream: 2 prefix tokens, context segments, then marker + target + <eou>
    assert enc.ids[0] == vocab.id(ex.prefix[0])
    assert enc.ids[1] == vocab.id(ex.prefix[1])
    assert enc.steps == len(ex.target) + 1
    assert enc.ids[-1] == vocab.id(EOU)
    predicted = enc.ids[enc.resp_start :]
    assert [vocab.tokens[i] for i in predicted[:-1]] == list(ex.target)
    assert enc.context_turns == ex.context_turns


def test_encode_respects_window(examples, vocab):
    ex = max(examples, key=lambda e: sum(len(u.tokens) for u in e.context))
    enc_full = encode_example(ex, vocab, window=256)
    enc_tight = encode_example(ex, vocab, window=len(enc_full.ids) - 1)
    assert len(enc_tight.ids) <= len(enc_full.ids) - 1
    # prefix and opener survive truncation
    assert np.array_equal(enc_tight.ids[:2], enc_full.ids[:2])
    # the response tail is identical
    assert np.array_equal(enc_tight.ids[-enc_tight.steps :], enc_full.ids[-enc_full.steps :])


def test_nested_examples_link_into_chains(examples, vocab):
    encoded, dialogs = _encode(examples, vocab, window=128)
    assert sorted(i for d in dialogs for i in d) == list(range(len(examples)))
    for d in dialogs:
        assert len({examples[i].source_id for i in d}) == 1
        # at this window no stream is truncated: a dialog's turns nest, in order
        assert len({encoded[i].chain for i in d}) == 1
        for a, b in zip(d, d[1:]):
            short, long = encoded[a].ids, encoded[b].ids
            assert np.array_equal(long[: len(short)], short)
    assert len({e.chain for e in encoded}) == len(dialogs)


def test_truncated_example_is_not_merged(examples, vocab):
    ex = max(examples, key=lambda e: sum(len(u.tokens) for u in e.context))
    same = [e for e in examples if e.source_id == ex.source_id]
    full = [encode_example(e, vocab, 256) for e in same]
    # the window truncates the last example's stream and no other
    window = len(full[-1].ids) - 1
    assert all(len(e.ids) <= window for e in full[:-1])
    encoded, _ = _encode(same, vocab, window)
    assert len(encoded[-1].ids) < len(full[-1].ids)
    assert {e.chain for e in encoded[:-1]} == {encoded[0].chain} != {encoded[-1].chain}
    batch, ids, batch_sizes, _, _ = _pack_batch(encoded)
    assert batch_sizes[0] == 2  # one stream for the nested turns, one for the truncated one
    assert batch[0] is encoded[-1] and len(ids) == len(encoded[-1].ids) + len(encoded[-2].ids)


def test_nested_examples_run_as_one_stream_exactly(examples, vocab, lexicon):
    # float64: one stream per chain gives each example's logits and the
    # batch's gradients as one stream per example does
    model = small_model(vocab, seed=3).astype(np.float64)
    matrix = align_vocab(lexicon, vocab.tokens)
    linked, _ = _encode(examples[:20], vocab, 128)
    apart = [replace(e, chain=None) for e in linked]

    def run(batch):
        order, ids, batch_sizes, readout, _ = _pack_batch(batch)
        logits, _ = _forward_cached(model, ids, batch_sizes, readout)
        rows = np.split(logits, np.cumsum([e.steps for e in order])[:-1])
        mean, dlogits, cache = _batch_losses(model, batch, matrix, PegeConfig())
        by_example = {(e.ids.tobytes(), e.resp_start): r for e, r in zip(order, rows)}
        return batch_sizes[0], by_example, mean, backward(model, cache, dlogits)

    n_shared, logits_shared, mean_shared, grads_shared = run(linked)
    n_apart, logits_apart, mean_apart, grads_apart = run(apart)
    assert n_apart == 20 and n_shared == len({e.chain for e in linked}) < 20
    assert logits_shared.keys() == logits_apart.keys()
    for key, rows in logits_apart.items():
        assert np.allclose(logits_shared[key], rows, rtol=1e-10, atol=0)
    assert np.allclose(mean_shared, mean_apart, rtol=1e-10, atol=0)
    for name, g in grads_apart.items():
        assert np.allclose(grads_shared[name], g, rtol=1e-10, atol=1e-14), name


def test_batches_are_drawn_by_dialog():
    sizes = [1, 4, 2, 7, 3, 1, 5, 2]
    dialogs, start = [], 0
    for n in sizes:
        dialogs.append(list(range(start, start + n)))
        start += n
    dialog_of = {i: k for k, d in enumerate(dialogs) for i in d}

    def batches(seed, batch_size, steps):
        rng = np.random.default_rng(seed)
        return [_draw_batch(rng, dialogs, batch_size) for _ in range(steps)]

    for batch_size in (1, 3, 7, 8, start):
        drawn = batches(5, batch_size, 60)
        for batch in drawn:
            assert len(batch) == len(set(batch)) == batch_size
            # whole dialogs, and only the earliest examples of the last one drawn
            taken = {dialog_of[i]: [j for j in batch if dialog_of[j] == dialog_of[i]] for i in batch}
            assert all(t == dialogs[k][: len(t)] for k, t in taken.items())
            assert sum(len(t) < len(dialogs[k]) for k, t in taken.items()) <= 1
        # an example is drawn once the batch can hold the earlier turns of its dialog
        reachable = {i for d in dialogs for i in d[:batch_size]}
        assert {i for batch in drawn for i in batch} == reachable
        assert drawn == batches(5, batch_size, 60)
    assert batches(5, 8, 10) != batches(6, 8, 10)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_every_example_is_trained_on(examples, vocab, lexicon, monkeypatch, batch_size):
    # the first dialogs of up to 5 examples each: with a batch below a dialog's
    # example count, its later examples must still be drawn
    chosen = {}
    for i, ex in enumerate(examples):
        if len(chosen) < 4 or ex.source_id in chosen:
            chosen.setdefault(ex.source_id, []).append(i)
    subset = [examples[i] for members in chosen.values() for i in members[:5]]
    assert max(len(m) for m in chosen.values()) >= 5 > batch_size
    drawn = set()

    def draw_batch(rng, runs, size):
        batch = draw_batch_(rng, runs, size)
        drawn.update(batch)
        return batch

    draw_batch_ = train_mod._draw_batch
    monkeypatch.setattr(train_mod, "_draw_batch", draw_batch)
    cfg = TrainConfig(batch_size=batch_size, max_steps=120, seed=2)
    train(small_model(vocab), subset, cfg, PegeConfig(), lexicon)
    assert drawn == set(range(len(subset)))


# -------------------------------------------------------------- training


def test_train_is_deterministic(examples, vocab, lexicon):
    cfg = TrainConfig(batch_size=8, max_steps=5, seed=3)

    def run():
        model = small_model(vocab)
        model, log = train(model, examples, cfg, PegeConfig(), lexicon)
        return model_checksum(model), log

    sum_a, log_a = run()
    sum_b, log_b = run()
    assert sum_a == sum_b
    assert log_a == log_b


def test_loss_log_additivity(examples, vocab, lexicon):
    pege = PegeConfig(alpha=5.0, beta=2.0)
    for ablation in ABLATIONS:
        cfg = TrainConfig(batch_size=8, max_steps=3, seed=1, ablation=ablation)
        model = small_model(vocab)
        _, log = train(model, examples, cfg, pege, lexicon)
        eff = effective_pege_config(pege, ablation)
        for entry in log:
            reconstructed = entry.nll + eff.alpha * entry.peg - eff.beta * entry.ner
            assert abs(entry.total - reconstructed) <= 1e-6, ablation


def test_ablation_equals_zero_weights(examples, vocab, lexicon):
    cfg_a = TrainConfig(batch_size=8, max_steps=4, seed=7, ablation="nll_only")
    model_a = small_model(vocab)
    model_a, log_a = train(model_a, examples, cfg_a, PegeConfig(alpha=5.0, beta=2.0), lexicon)

    cfg_b = TrainConfig(batch_size=8, max_steps=4, seed=7, ablation="full")
    model_b = small_model(vocab)
    model_b, log_b = train(model_b, examples, cfg_b, PegeConfig(alpha=0.0, beta=0.0), lexicon)

    assert model_checksum(model_a) == model_checksum(model_b)
    assert log_a == log_b


def test_all_components_logged_under_nll_only(examples, vocab, lexicon):
    cfg = TrainConfig(batch_size=8, max_steps=3, seed=2, ablation="nll_only")
    model = small_model(vocab)
    _, log = train(model, examples, cfg, PegeConfig(), lexicon)
    for entry in log:
        # guidance components are still measured even though their weight is zero
        assert entry.peg != 0.0
        assert entry.ner != 0.0
        assert entry.total == pytest.approx(entry.nll, abs=1e-9)


def test_training_reduces_loss(examples, vocab, lexicon):
    cfg = TrainConfig(batch_size=16, max_steps=60, seed=5, ablation="nll_only")
    model = small_model(vocab)
    _, log = train(model, examples, cfg, PegeConfig(), lexicon)
    head = sum(e.total for e in log[:10]) / 10
    tail = sum(e.total for e in log[-10:]) / 10
    assert tail < head


def test_step_count_advances(examples, vocab, lexicon):
    model = small_model(vocab)
    assert model.step_count == 0
    model, _ = train(model, examples, TrainConfig(batch_size=8, max_steps=5), PegeConfig(), lexicon)
    assert model.step_count == 5


def test_evaluate_nll_improves(examples, vocab, lexicon):
    held_out = examples[:40]
    train_set = examples[40:]
    model = small_model(vocab)
    before = evaluate_nll(model, held_out)
    cfg = TrainConfig(batch_size=16, max_steps=80, seed=0, ablation="nll_only")
    model, _ = train(model, train_set, cfg, PegeConfig(), lexicon)
    after = evaluate_nll(model, held_out)
    assert after < before


def test_evaluate_nll_chunking_invariant(examples, vocab, lexicon, monkeypatch):
    model = small_model(vocab, seed=4)
    nlls = []
    for chunk in (7, 30):
        monkeypatch.setattr(train_mod, "EVAL_CHUNK", chunk)
        nlls.append(evaluate_nll(model, examples[:30]))
    assert nlls[0] == pytest.approx(nlls[1], rel=1e-6)


def test_divergence_is_reported(examples, vocab, lexicon):
    model = small_model(vocab)
    cfg = TrainConfig(learning_rate=1e36, batch_size=8, max_steps=50, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError):
            train(model, examples, cfg, PegeConfig(), lexicon)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_weights_diverge_at_step_1(examples, vocab, lexicon, value):
    model = small_model(vocab)
    model.params["l0.u_z"][0, 0] = value
    cfg = TrainConfig(batch_size=8, max_steps=3, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match=r"^step 1: "):
            train(model, examples, cfg, PegeConfig(), lexicon)


def test_non_finite_state_the_loss_does_not_read_still_diverges(vocab, lexicon):
    # logits exist at the response rows only; a NaN state after them must
    # still stop training, as a NaN logit there did when every row had logits
    model = small_model(vocab)
    ids = np.array([5, 6, 7, 8, 9])  # token 9 only at the last position, which predicts nothing
    model.params["emb"][9] = np.nan
    ex = EncodedExample(ids, 3, 1, np.full(3, 0.5), PolarityDistribution(0.2, 0.3, 0.5))
    with pytest.raises(TrainingDivergedError, match="non-finite hidden states"):
        _batch_losses(model, [ex], align_vocab(lexicon, vocab.tokens), PegeConfig())


def test_permuting_a_batch_changes_no_loss_or_gradient(examples, vocab, lexicon):
    # the batch is sorted by length before packing; ties and summation order
    # are the only things a permutation can move
    model = small_model(vocab, seed=2).astype(np.float64)
    matrix = align_vocab(lexicon, vocab.tokens)
    batch = [encode_example(ex, vocab, 128) for ex in examples[:24]]
    assert len({len(e.ids) for e in batch}) < len(batch)  # some lengths tie

    def losses_and_grads(order):
        mean, dlogits, cache = _batch_losses(model, [batch[i] for i in order], matrix, PegeConfig())
        return mean, backward(model, cache, dlogits)

    base_mean, base_grads = losses_and_grads(range(len(batch)))
    for seed in range(3):
        mean, grads = losses_and_grads(np.random.default_rng(seed).permutation(len(batch)))
        np.testing.assert_allclose(mean, base_mean, rtol=1e-12)
        for name, g in base_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_train_preconditions(examples, vocab, lexicon):
    model = small_model(vocab)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig(), PegeConfig(), lexicon)
    with pytest.raises(ValueError):
        train(model, examples[:4], TrainConfig(batch_size=8), PegeConfig(), lexicon)
    bare = init_model(ModelConfig(vocab_size=32, embed_dim=8, hidden_dim=8), seed=0)
    with pytest.raises(ValueError):
        train(bare, examples, TrainConfig(), PegeConfig(), lexicon)
