from __future__ import annotations

import numpy as np
import pytest

from emoguide.model import (
    CKPT_MAGIC,
    DecodeConfig,
    Model,
    ModelConfig,
    backward,
    checkpoint_config_hash,
    _decode_step,
    _forward_cached,
    _gates,
    _sigmoid,
    forward,
    generate,
    init_model,
    load_checkpoint,
    model_checksum,
    save_checkpoint,
)
from emoguide.vocab import build_vocab

TINY = ModelConfig(vocab_size=7, embed_dim=4, hidden_dim=5, num_layers=2, context_window=32)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=4, embed_dim=-1)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=4, num_layers=0)


def test_init_is_seed_deterministic():
    a = init_model(TINY, seed=3)
    b = init_model(TINY, seed=3)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = init_model(TINY, seed=4)
    assert model_checksum(a) == model_checksum(b)
    assert model_checksum(a) != model_checksum(c)


def test_init_scale_follows_fan_in():
    m = init_model(TINY, seed=0)
    assert np.abs(m.params["l0.w_z"]).max() <= 1.0 / np.sqrt(TINY.embed_dim)
    assert np.abs(m.params["l0.u_z"]).max() <= 1.0 / np.sqrt(TINY.hidden_dim)
    assert np.all(m.params["out_b"] == 0.0)


def test_forward_shapes_and_validation():
    m = init_model(TINY, seed=0)
    single = forward(m, np.array([1, 2, 3]))
    assert single.shape == (3, TINY.vocab_size)
    batch = forward(m, np.array([[1, 2, 3], [4, 5, 6]]))
    assert batch.shape == (2, 3, TINY.vocab_size)
    np.testing.assert_allclose(batch[0], single, rtol=1e-6)
    with pytest.raises(ValueError):
        forward(m, np.array([7]))  # out of range
    with pytest.raises(ValueError):
        forward(m, np.zeros(33, dtype=np.int64))  # over-length
    with pytest.raises(ValueError):
        forward(m, np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        forward(m, np.array([0.5]))


def test_causality():
    m = init_model(TINY, seed=1).astype(np.float64)
    ids = np.array([1, 2, 3, 4, 5])
    base = forward(m, ids)
    changed = ids.copy()
    changed[3] = 6
    after = forward(m, changed)
    np.testing.assert_array_equal(after[:3], base[:3])
    assert not np.allclose(after[3:], base[3:])


def test_backward_matches_finite_differences():
    # float64 end-to-end; scalar loss = <R, logits> so dL/dlogits = R
    m = init_model(TINY, seed=7).astype(np.float64)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, TINY.vocab_size, size=(2, 5))
    R = rng.normal(size=(2, 5, TINY.vocab_size))

    logits, cache = _forward_cached(m, ids)
    grads = backward(m, cache, R)

    eps = 1e-6
    worst = 0.0
    for name, param in m.params.items():
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            f_plus = float((R * _forward_cached(m, ids)[0]).sum())
            param[idx] = orig - eps
            f_minus = float((R * _forward_cached(m, ids)[0]).sum())
            param[idx] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            analytic = float(grads[name][idx])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{name}{idx}: analytic {analytic} vs numeric {numeric}"
            it.iternext()
    assert worst < 1e-5


def test_incremental_decode_matches_full_forward():
    m = init_model(TINY, seed=9)
    ctx = [1, 2, 3]
    out = generate(m, ctx, DecodeConfig(mode="greedy", max_tokens=4))
    # replay greedily with full forwards
    stream = list(ctx)
    for expected in out:
        logits = forward(m, np.array(stream))[-1]
        assert int(np.argmax(logits.astype(np.float64))) == expected
        stream.append(expected)


# atol covers logits near zero, where a last-bit difference is a large relative one
@pytest.mark.parametrize(
    "dtype, rtol, atol", [(np.float32, 1e-5, 1e-6), (np.float64, 1e-12, 1e-15)]
)
def test_decode_step_logits_match_forward_at_every_position(dtype, rtol, atol):
    m = init_model(TINY, seed=9).astype(dtype)
    ids = np.random.default_rng(3).integers(0, TINY.vocab_size, size=TINY.context_window)
    full = forward(m, ids)
    layers = [_gates(m.params, layer) for layer in range(TINY.num_layers)]
    hs = [np.zeros(TINY.hidden_dim, dtype=dtype) for _ in range(TINY.num_layers)]
    stepped = np.stack([_decode_step(m.params, layers, hs, int(token)) for token in ids])
    assert stepped.dtype == full.dtype == dtype
    np.testing.assert_allclose(stepped, full, rtol=rtol, atol=atol)


def _masked_sigmoid(x):
    """The boolean-mask formula _sigmoid replaced; kept as its reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGES = [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(128,), (32, 128)])
def test_sigmoid_is_bit_equal_to_masked_formula(dtype, shape):
    rng = np.random.default_rng(0)
    x = (rng.normal(scale=8.0, size=shape)).astype(dtype)
    x.flat[: len(EDGES)] = EDGES
    with np.errstate(under="ignore"):  # the reference underflows at -1e3
        expected = _masked_sigmoid(x)
    got = _sigmoid(x)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == expected.tobytes()
    with np.errstate(all="raise"):
        _sigmoid(x[~np.isnan(x)])


def test_generate_contracts():
    m = init_model(TINY, seed=5)
    assert generate(m, [1, 2], DecodeConfig(max_tokens=0)) == []
    out = generate(m, [1, 2], DecodeConfig(max_tokens=6), eou_id=3, forbidden_ids=[0, 1])
    assert 0 not in out and 1 not in out and 3 not in out
    assert len(out) <= 6
    # eou masked on the first step: utterance is never empty
    out2 = generate(m, [1], DecodeConfig(max_tokens=6), eou_id=int(np.argmax(forward(m, [1])[-1])))
    assert len(out2) >= 1


def test_top_k_temperature_limit_is_greedy():
    m = init_model(TINY, seed=11)
    greedy = generate(m, [1, 2, 4], DecodeConfig(mode="greedy", max_tokens=5))
    cold = generate(
        m,
        [1, 2, 4],
        DecodeConfig(mode="top_k", k=3, temperature=1e-9, max_tokens=5),
        rng=np.random.default_rng(0),
    )
    assert cold == greedy


def test_top_k_requires_rng():
    m = init_model(TINY, seed=5)
    with pytest.raises(ValueError):
        generate(m, [1], DecodeConfig(mode="top_k"))


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(mode="beam")
    with pytest.raises(ValueError):
        DecodeConfig(k=0)
    with pytest.raises(ValueError):
        DecodeConfig(temperature=0.0)
    with pytest.raises(ValueError):
        DecodeConfig(max_tokens=-1)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    vocab = build_vocab(["alpha", "beta"])
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5)
    m = init_model(cfg, seed=2, vocab=vocab)
    m.step_count = 123
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, config_hash="abc123")
    loaded = load_checkpoint(path)
    assert loaded.config == m.config
    assert loaded.step_count == 123
    assert loaded.vocab is not None and loaded.vocab.tokens == vocab.tokens
    for name in m.params:
        assert m.params[name].dtype == loaded.params[name].dtype == np.float32
        assert m.params[name].tobytes() == loaded.params[name].tobytes()
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, config_hash="abc123")
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "data",
    [
        CKPT_MAGIC + b"\x10\x00",  # truncated inside the length field
        CKPT_MAGIC + b"\xff\xff\xff\xff{}",  # length runs past the end of the file
        CKPT_MAGIC + b"\x02\x00\x00\x00[]",  # header is not a JSON object
        CKPT_MAGIC + b"\x02\x00\x00\x00\xff\xfe",  # header is not UTF-8
    ],
)
def test_checkpoint_header_readers_fail_in_one_line(tmp_path, data):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(data)
    for reader in (load_checkpoint, checkpoint_config_hash):
        with pytest.raises(ValueError) as info:
            reader(p)
        assert "\n" not in str(info.value)
