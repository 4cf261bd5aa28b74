from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

import emoguide.model as model_mod
from emoguide.model import (
    CKPT_MAGIC,
    DecodeConfig,
    Model,
    ModelConfig,
    backward,
    _check_ids,
    _forward_cached,
    _scatter_rows,
    _sigmoid,
    _step,
    generate,
    generate_batch,
    init_model,
    _join_weights,
    load_checkpoint,
    model_checksum,
    pack,
    save_checkpoint,
)
from emoguide.objective import finite_diff_check
from emoguide.vocab import build_vocab
from oracles import forward

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
    # the checks that decoding's contexts go through
    for bad in (
        np.array([7]),  # out of range
        np.zeros(33, dtype=np.int64),  # over-length
        np.array([], dtype=np.int64),
        np.array([0.5]),
    ):
        with pytest.raises(ValueError):
            generate_batch(m, [bad])
    with pytest.raises(ValueError, match="no token streams"):
        _check_ids([], TINY.vocab_size, TINY.context_window)


def test_causality():
    m = init_model(TINY, seed=1).astype(np.float64)
    ids = np.array([1, 2, 3, 4, 5])
    base = forward(m, ids)
    changed = ids.copy()
    changed[3] = 6
    after = forward(m, changed)
    np.testing.assert_array_equal(after[:3], base[:3])
    assert not np.allclose(after[3:], base[3:])


def _worst_fd_error(m, ids, batch_sizes, readout, R) -> float:
    """Worst relative error of backward() against central differences of the
    scalar loss <R, logits>, so that dL/dlogits = R, one parameter at a time.
    Each perturbed point is stored into the model's float64 parameter, so the
    differences are those of the float64 forward pass."""
    grads = backward(m, _forward_cached(m, ids, batch_sizes, readout)[1], R)
    worst = 0.0
    for name, param in m.params.items():
        saved = param.copy()

        def loss_at(x):
            param[...] = x
            return float((R * _forward_cached(m, ids, batch_sizes, readout)[0]).sum())

        worst = max(worst, finite_diff_check(loss_at, saved, grads[name], eps=1e-6))
        param[...] = saved
    return worst


def test_backward_matches_finite_differences():
    # float64 end-to-end, two streams of equal length, logits at every position
    m = init_model(TINY, seed=7).astype(np.float64)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, TINY.vocab_size, size=(2, 5))
    R = rng.normal(size=(10, TINY.vocab_size))
    assert _worst_fd_error(m, *pack(ids, [(0, 0, 5), (1, 0, 5)]), R) < 1e-5


def test_packed_backward_matches_finite_differences():
    # streams of different lengths (so rows leave the batch at different
    # steps), with logits read at a subset of each stream's positions
    m = init_model(TINY, seed=8).astype(np.float64)
    rng = np.random.default_rng(1)
    streams = [rng.integers(0, TINY.vocab_size, size=n) for n in (6, 4, 4, 1)]
    ids, batch_sizes, readout = pack(streams, [(0, 2, 5), (1, 0, 4), (2, 3, 4), (3, 0, 1)])
    assert batch_sizes.tolist() == [4, 3, 3, 3, 1, 1] and len(ids) == 15
    R = rng.normal(size=(len(readout), TINY.vocab_size))
    # the README's 1e-4 contract; at eps 1e-6 the worst coordinate, a 1e-5
    # gradient, reads 1.8e-5 from the differences' own rounding
    assert _worst_fd_error(m, ids, batch_sizes, readout, R) <= 1e-4


def test_backward_through_shared_prefixes_matches_finite_differences():
    # as training packs a dialog's nested examples: several readout spans per
    # stream, one stream a prefix of another
    m = init_model(TINY, seed=10).astype(np.float64)
    rng = np.random.default_rng(6)
    long = rng.integers(0, TINY.vocab_size, size=9)
    streams = [long, rng.integers(0, TINY.vocab_size, size=6), long[:5]]
    spans = [(0, 1, 3), (0, 4, 6), (0, 7, 9), (1, 0, 2), (1, 3, 6), (2, 2, 5)]
    ids, batch_sizes, readout = pack(streams, spans)
    R = rng.normal(size=(len(readout), TINY.vocab_size))
    assert TINY.num_layers == 2 and len(readout) == 14
    assert _worst_fd_error(m, ids, batch_sizes, readout, R) <= 1e-4


def test_pack_layout():
    streams = [np.array([1, 2, 3]), np.array([4, 5]), np.array([6])]
    ids, batch_sizes, readout = pack(streams, [(0, 1, 3), (1, 0, 2), (2, 0, 0)])
    assert ids.tolist() == [1, 4, 6, 2, 5, 3]  # step by step, stream order within a step
    assert batch_sizes.tolist() == [3, 2, 1]
    assert ids[readout].tolist() == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        pack(streams[::-1], [(i, 0, 1) for i in range(3)])  # not longest first
    with pytest.raises(ValueError):
        pack([np.array([1]), np.array([], dtype=np.int64)], [(0, 0, 1), (1, 0, 0)])
    # several spans of one stream read out span by span; a span stays inside its stream
    ids, _, readout = pack(streams, [(0, 2, 3), (1, 0, 1), (0, 0, 1)])
    assert ids[readout].tolist() == [3, 4, 1]
    for bad in [(1, 0, 3), (3, 0, 1), (0, 2, 1), (0, -1, 1)]:
        with pytest.raises(ValueError, match="not a range of a stream"):
            pack(streams, [bad])


def _padded_reference_grads(m, streams, spans, R):
    """The padded path packing replaced, kept as its reference: every stream
    padded with id 0 to the longest, the GRU run over every (row, step), and
    dlogits zero everywhere but the read positions.  The cell is written out
    here, one GEMM per gate with the masked sigmoid, so the reference shares
    no code with the fused cell it checks."""
    p, B, L = m.params, len(streams), max(len(s) for s in streams)
    ids = np.zeros((B, L), dtype=np.int64)
    dlogits = np.zeros((B, L, m.config.vocab_size))
    for i, stream in enumerate(streams):
        ids[i, : len(stream)] = stream
    k = 0
    for i, lo, hi in spans:
        dlogits[i, lo:hi] += R[k : k + hi - lo]
        k += hi - lo
    x, caches = p["emb"][ids], []

    def gates(layer):  # (w, u, b) triples, each in gate order z, r, c
        return tuple(tuple(p[f"l{layer}.{kind}_{g}"] for g in "zrc") for kind in "wub")

    for layer in range(m.config.num_layers):
        w, u, b = gates(layer)
        a_z, a_r, a_c = (x @ w_g + b_g for w_g, b_g in zip(w, b))
        z, r, c, h = (np.empty((B, L, m.config.hidden_dim)) for _ in range(4))
        h_prev = np.zeros((B, m.config.hidden_dim))
        for t in range(L):
            z[:, t] = _masked_sigmoid(a_z[:, t] + h_prev @ u[0])
            r[:, t] = _masked_sigmoid(a_r[:, t] + h_prev @ u[1])
            c[:, t] = np.tanh(a_c[:, t] + (r[:, t] * h_prev) @ u[2])
            h_prev = h[:, t] = (1.0 - z[:, t]) * h_prev + z[:, t] * c[:, t]
        caches.append((layer, x, z, r, c, h))
        x = h
    grads = {"out_w": np.einsum("blh,blv->hv", x, dlogits), "out_b": dlogits.sum(axis=(0, 1))}
    dh_out = dlogits @ p["out_w"].T
    for layer, x, z, r, c, h in reversed(caches):
        w, u, _ = gates(layer)
        h_shift = np.concatenate([np.zeros((B, 1, h.shape[2])), h[:, :-1]], axis=1)
        da = [np.empty_like(z) for _ in range(3)]
        dh_next = np.zeros((B, h.shape[2]))
        for t in reversed(range(L)):
            dh = dh_out[:, t] + dh_next
            zt, rt, ct, h_prev = z[:, t], r[:, t], c[:, t], h_shift[:, t]
            da_c = dh * zt * (1.0 - ct * ct)
            da_z = dh * (ct - h_prev) * zt * (1.0 - zt)
            drh = da_c @ u[2].T
            da_r = drh * h_prev * rt * (1.0 - rt)
            dh_next = dh * (1.0 - zt) + drh * rt + da_z @ u[0].T + da_r @ u[1].T
            da[0][:, t], da[1][:, t], da[2][:, t] = da_z, da_r, da_c
        for gate, da_g, h_in in zip("zrc", da, (h_shift, h_shift, r * h_shift)):
            grads[f"l{layer}.w_{gate}"] = np.einsum("bld,blh->dh", x, da_g)
            grads[f"l{layer}.u_{gate}"] = np.einsum("blk,blh->kh", h_in, da_g)
            grads[f"l{layer}.b_{gate}"] = da_g.sum(axis=(0, 1))
        dh_out = sum(da_g @ w_g.T for da_g, w_g in zip(da, w))
    grads["emb"] = np.zeros_like(p["emb"])
    np.add.at(grads["emb"], ids.ravel(), dh_out.reshape(B * L, -1))
    return grads


def test_packed_gradients_match_padded_reference():
    m = init_model(TINY, seed=12).astype(np.float64)
    rng = np.random.default_rng(4)
    lengths = sorted(rng.integers(1, TINY.context_window + 1, size=9).tolist(), reverse=True)
    streams = [rng.integers(1, TINY.vocab_size, size=n) for n in lengths]
    spans = [(i, int(rng.integers(0, n)), n) for i, n in enumerate(lengths)]
    ids, batch_sizes, readout = pack(streams, spans)
    R = rng.normal(size=(len(readout), TINY.vocab_size))
    _, cache = _forward_cached(m, ids, batch_sizes, readout)
    packed = backward(m, cache, R)
    reference = _padded_reference_grads(m, streams, spans, R)
    assert packed.keys() == reference.keys()
    for name, ref in reference.items():
        err = np.abs(packed[name] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), f"{name}: {err}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_rows_matches_add_at(dtype):
    rng = np.random.default_rng(0)
    n, D = 120, 64
    ids = rng.integers(0, 100, size=1142)  # ids repeat, and ids 100-119 are absent
    rows = rng.normal(size=(len(ids), D)).astype(dtype)
    expected = np.zeros((n, D), dtype=dtype)
    np.add.at(expected, ids, rows)
    got = _scatter_rows(ids, rows, n)
    assert got.dtype == dtype and got.shape == (n, D)
    assert not got[100:].any()
    # both sums take the same terms in another order, so each is within
    # (count - 1)·eps·sum|terms| of the exact sum (Higham, ch. 4)
    magnitude = np.zeros((n, D))
    np.add.at(magnitude, ids, np.abs(rows.astype(np.float64)))
    count = np.bincount(ids, minlength=n)[:, None]
    bound = 2 * np.maximum(count - 1, 0) * np.finfo(dtype).eps * magnitude
    assert np.all(np.abs(got - expected) <= bound)
    if dtype == np.float64:
        assert np.abs(got - expected).max() <= 1e-12


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
    weights = _join_weights(m)
    hs = [np.zeros((1, TINY.hidden_dim), dtype=dtype) for _ in weights.layers]
    stepped = []
    for token in ids.tolist():
        hs = _step(weights, np.array([token]), hs)
        stepped.append(model_mod._readout(m, hs[-1])[0])
    stepped = np.stack(stepped)
    assert stepped.dtype == full.dtype == dtype
    np.testing.assert_allclose(stepped, full, rtol=rtol, atol=atol)


def _states_after(decoder, streams, h0) -> list[np.ndarray]:
    """Each layer's states after feeding every stream from its states in
    ``h0``, through ``_decode`` with no token to decode."""
    return model_mod._decode(decoder, streams, h0, DecodeConfig(max_tokens=0), [None] * len(streams))[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_feed_is_bit_equal_to_each_stream_alone(monkeypatch, dtype):
    m = init_model(TINY, seed=9).astype(dtype)
    decoder = model_mod._prepare(m)
    rng = np.random.default_rng(5)
    streams = [rng.integers(0, TINY.vocab_size, size=n).tolist() for n in (3, 7, 1, 7, 12)]
    h0 = [rng.normal(size=(len(streams), TINY.hidden_dim)).astype(dtype) for _ in range(TINY.num_layers)]

    def at_least_two_rows(zr, c, h_prev, u_zr, u_c):
        # a 1-row GEMM would take the GEMV path, whose bits differ
        assert len(h_prev) >= 2
        return gru_cell(zr, c, h_prev, u_zr, u_c)

    gru_cell = model_mod._gru_cell
    monkeypatch.setattr(model_mod, "_gru_cell", at_least_two_rows)
    hs = _states_after(decoder, streams, h0)
    logits = model_mod._readout(m, hs[-1])
    for i, stream in enumerate(streams):
        alone = _states_after(decoder, [stream], [h[i : i + 1] for h in h0])
        assert all(np.array_equal(a[0], h[i]) for a, h in zip(alone, hs))
        assert np.array_equal(model_mod._readout(m, alone[-1])[0], logits[i])
        # fed in two parts, the second from the first's states: the same bits
        part = _states_after(decoder, [stream[:1]], [h[i : i + 1] for h in h0])
        if len(stream) > 1:
            part = _states_after(decoder, [stream[1:]], part)
        assert all(np.array_equal(a[0], h[i]) for a, h in zip(part, hs))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("config", [TINY, ModelConfig(vocab_size=109)], ids=["tiny", "default"])
def test_blas_gives_a_row_the_same_bits_at_any_row_count(dtype, config):
    """Batch-invariant decoding rests on this property of the BLAS, not on
    any code here: each row of every GEMM the model runs gets the same bits
    for any row count M >= 2 and any position in the batch."""
    m = init_model(config, seed=1).astype(dtype)
    weights = _join_weights(m)
    operands = [m.params["out_w"]]
    for w_zr, _, w_c, _, u_zr, u_c in weights.layers:
        operands += [w_zr, w_c, u_zr, u_c]
    rng = np.random.default_rng(2)
    counts = (2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 139)
    message = (
        f"this BLAS gives a {dtype.__name__} GEMM row different bits in a "
        "{}-row product than in a {}-row one ({}), so self-chat transcripts can "
        "depend on the decode batch and on --threads, and they and loss logs can "
        "depend on layer 0's input tables (README, Determinism)"
    )
    for operand in operands:
        rows = rng.normal(size=(300, operand.shape[0])).astype(dtype)
        whole = rows @ operand
        for count in counts:
            for start in (0, 1, 6):
                part = rows[start : start + count] @ operand
                assert np.array_equal(part, whole[start : start + count]), (
                    message.format(count, 300, operand.shape)
                )
    # a table row is a row of the V-row GEMM emb @ w + b, and stands in for
    # the same row of the GEMM over the gathered embeddings emb[ids]
    emb, (w_zr, b_zr, w_c, b_c, _, _) = m.params["emb"], weights.layers[0]
    for table, w, b in ((weights.zr0, w_zr, b_zr), (weights.c0, w_c, b_c)):
        for count in counts:
            ids = rng.integers(0, config.vocab_size, size=count)
            assert np.array_equal(table[ids], emb[ids] @ w + b), (
                message.format(count, config.vocab_size, w.shape)
            )


def _masked_sigmoid(x):
    """The boolean-mask logistic formula, kept as the reference for _sigmoid
    and for the cell written out in _padded_reference_grads."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# the tanh form's absolute error: a few ulps of values near 1 in float32 (the
# spacing there is 6e-8), rounding only in float64.  Its relative error grows
# for x below about -9, where the sigmoid itself falls under 1e-4.
SIGMOID_ATOL = {np.float32: 2e-7, np.float64: 1e-15}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(128,), (32, 128)])
def test_sigmoid_matches_masked_formula_within_absolute_bound(dtype, shape):
    rng = np.random.default_rng(0)
    x = rng.normal(scale=8.0, size=shape).astype(dtype)
    x.flat[:6] = [0.0, -0.0, 1e3, -1e3, 30.0, -30.0]
    kept = x.copy()
    with np.errstate(all="raise"):  # no warning on any finite input
        got = _sigmoid(x)
    assert np.array_equal(x, kept)  # the argument is not touched
    assert got.dtype == dtype and got.shape == shape
    with np.errstate(under="ignore"):  # the reference underflows at -1e3
        expected = _masked_sigmoid(x.astype(np.float64))
    assert np.abs(got - expected).max() <= SIGMOID_ATOL[dtype]
    # the in-place form the cell uses gives the same values
    assert np.array_equal(_sigmoid(kept, out=kept), got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_edge_values(dtype):
    x = np.array([0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan], dtype=dtype)
    got = _sigmoid(x)
    assert got[:6].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(got[6:]).all()


def test_generate_contracts():
    m = init_model(TINY, seed=5)
    assert generate(m, [1, 2], DecodeConfig(max_tokens=0)) == []
    out = generate(m, [1, 2], DecodeConfig(max_tokens=6), eou_id=3, forbidden_ids=[0, 1])
    assert 0 not in out and 1 not in out and 3 not in out
    assert len(out) <= 6
    # eou masked on the first step: utterance is never empty
    out2 = generate(m, [1], DecodeConfig(max_tokens=6), eou_id=int(np.argmax(forward(m, [1])[-1])))
    assert len(out2) >= 1


def _count_steps(monkeypatch) -> list[list[int]]:
    """Record the ids fed by every ``_step`` call from here on, one per row."""
    calls = []

    def counting_step(weights, ids, hs):
        calls.append(ids.tolist())
        return step(weights, ids, hs)

    step = model_mod._step
    monkeypatch.setattr(model_mod, "_step", counting_step)
    return calls


def _encode(m, ids) -> list[np.ndarray]:
    """Each layer's hidden state after feeding ``ids`` from zeros."""
    zeros = [np.zeros((1, m.config.hidden_dim), dtype=m.dtype)] * m.config.num_layers
    return [h[0] for h in _states_after(model_mod._prepare(m), [list(ids)], zeros)]


@pytest.mark.parametrize("mode", ["greedy", "top_k"])
def test_carried_state_feeds_only_the_new_suffix(monkeypatch, mode):
    # _decode fed from the states it returned: each context's new ids only.
    # Seed 20 ends some replies at <eou> while others run on, in both modes.
    m = init_model(TINY, seed=20)
    decode = DecodeConfig(mode=mode, k=3, max_tokens=4)
    decoder = model_mod._prepare(m, eou_id=3)
    contexts, held, lengths = [[1, 2, 4], [5], [6, 2, 2, 1]], [0, 0, 0], set()
    hs = [np.zeros((len(contexts), TINY.hidden_dim), dtype=m.dtype) for _ in range(TINY.num_layers)]
    for turn in range(4):
        rngs = lambda: [np.random.default_rng([turn, i]) for i in range(len(contexts))]
        stateless = generate_batch(m, contexts, decode, eou_id=3, rngs=rngs())
        suffixes = [ctx[n:] for ctx, n in zip(contexts, held)]
        calls = _count_steps(monkeypatch)
        outs, hs = model_mod._decode(decoder, suffixes, hs, decode, rngs())
        monkeypatch.undo()
        assert outs == stateless
        # the suffixes once, longest first and a position per step, then
        # every emitted id once (<eou> never)
        longest_first = sorted(suffixes, key=len, reverse=True)  # stable
        width = len(longest_first[0])
        assert calls[:width] == [[s[t] for s in longest_first if len(s) > t] for t in range(width)]
        assert sum(map(len, calls[width:])) == sum(map(len, outs))
        for i, (ctx, out) in enumerate(zip(contexts, outs)):
            assert all(np.array_equal(h[i], want) for h, want in zip(hs, _encode(m, ctx + out)))
        held = [len(ctx) + len(out) for ctx, out in zip(contexts, outs)]
        contexts = [[*ctx, *out, 3, 6, 5] for ctx, out in zip(contexts, outs)]  # <eou>, a new turn
        lengths.add(tuple(map(len, outs)))
    assert any(len(set(n)) > 1 for n in lengths)  # the replies of a call ended at different steps


@pytest.mark.parametrize("mode", ["greedy", "top_k"])
def test_generate_batch_matches_one_context_calls(mode):
    m = init_model(TINY, seed=5)
    decode = DecodeConfig(mode=mode, k=3, max_tokens=5)
    rngs = lambda: [np.random.default_rng(i) for i in range(4)]
    contexts = [[1, 2, 4, 3, 4], [5], [2, 6, 1], [1, 4, 5, 6, 1]]
    kwargs = dict(eou_id=3, forbidden_ids=[0])
    batched = generate_batch(m, contexts, decode, rngs=rngs(), **kwargs)
    for ctx, rng, out in zip(contexts, rngs(), batched):
        assert generate(m, ctx, decode, rng=rng, **kwargs) == out
        assert 1 <= len(out) <= 5 and 0 not in out and 3 not in out
    with pytest.raises(ValueError, match="rng"):
        generate_batch(m, contexts, DecodeConfig(mode="top_k"), rngs=rngs()[:3] + [None])
    with pytest.raises(ValueError, match="5 rngs for 4 contexts"):
        generate_batch(m, contexts, decode, rngs=rngs() + rngs()[:1])
    assert generate_batch(m, [], decode) == []


@pytest.mark.parametrize(
    "context", [[[1, 2], [3, 4]], [[1, 2]], 5, np.array([[1, 2]])], ids=["2x2", "1x2", "0d", "array"]
)
def test_generate_rejects_a_context_that_is_not_1d(context):
    m = init_model(TINY, seed=5)
    with pytest.raises(ValueError, match="shape"):
        generate(m, context)
    with pytest.raises(ValueError, match="shape"):
        generate_batch(m, [[1, 2], context, [4]])


# each builds a bad context from the ids it extends: an earlier context and
# its reply when carried on, as a self-chat context is, none when fresh
BAD_CONTEXTS = {
    "negative": lambda ids: [*ids, -1],
    "too_large": lambda ids: [*ids, TINY.vocab_size],
    "float": lambda ids: np.array([*ids, 2], dtype=np.float64),
    "too_long": lambda ids: [*ids, *[1] * (TINY.context_window + 1 - len(ids))],
    "empty": lambda ids: [],
    "bool": lambda ids: [True, False],
}
BAD_CASES = [(bad, carried) for bad in list(BAD_CONTEXTS)[:4] for carried in ("carried", "fresh")]


@pytest.mark.parametrize("bad, carried", BAD_CASES + [("empty", "fresh"), ("bool", "fresh")])
@pytest.mark.parametrize("where", [0, 2])
def test_a_bad_id_in_any_context_of_a_batch_raises(monkeypatch, bad, carried, where):
    m = init_model(TINY, seed=5)
    firsts = [[1, 2], [5], [2, 4]]
    outs = generate_batch(m, firsts, DecodeConfig(max_tokens=3), eou_id=3)
    earlier = [ctx + out for ctx, out in zip(firsts, outs)]
    contexts = [[*ids, 3, 4] for ids in earlier]
    contexts[where] = BAD_CONTEXTS[bad](earlier[where] if carried == "carried" else ())
    calls = _count_steps(monkeypatch)
    with pytest.raises(ValueError):
        generate_batch(m, contexts, DecodeConfig(max_tokens=3), eou_id=3)
    assert calls == []  # nothing was decoded


# bans that generate_batch must reject before it decodes anything
EVERY_ID = list(range(TINY.vocab_size))
BAD_BANS = {
    "every_id": dict(forbidden_ids=range(TINY.vocab_size)),
    "every_id_with_eou": dict(forbidden_ids=[i for i in EVERY_ID if i != 3], eou_id=3),
    "negative": dict(forbidden_ids=[-1]),
    "too_large": dict(forbidden_ids=[TINY.vocab_size + 2]),
    "float": dict(forbidden_ids=[1.0]),
    "bool": dict(forbidden_ids=[True]),
    "eou_too_large": dict(eou_id=TINY.vocab_size + 2),
    "eou_negative": dict(eou_id=-1),
}


@pytest.mark.parametrize("mode", ["greedy", "top_k"])
@pytest.mark.parametrize("ban", sorted(BAD_BANS))
def test_bans_outside_the_vocabulary_or_of_every_id_raise(monkeypatch, mode, ban):
    m = init_model(TINY, seed=5)
    decode = DecodeConfig(mode=mode, max_tokens=3)
    rngs = lambda: [np.random.default_rng(i) for i in range(2)]
    calls = _count_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN warning from top_k is not a clean failure
        with pytest.raises(ValueError, match="forbidden_ids|eou_id"):
            generate_batch(m, [[1, 2, 3, 4], [5, 3, 4]], decode, rngs=rngs(), **BAD_BANS[ban])
        with pytest.raises(ValueError, match="forbidden_ids|eou_id"):
            generate(m, [1, 2], decode, rng=np.random.default_rng(0), **BAD_BANS[ban])
    assert calls == []  # nothing was decoded
    monkeypatch.undo()
    # a ban that leaves one id (4) at the first step is valid; <eou> (3) ends the reply later
    only_4 = [i for i in EVERY_ID if i not in (3, 4)]
    out = generate(m, [1, 2], decode, eou_id=3, forbidden_ids=only_4, rng=np.random.default_rng(0))
    assert out and set(out) == {4}


def test_greedy_choice_in_float32_equals_float64_masked_argmax():
    # a model with out_w = 0 gives out_b as the logits after every context,
    # so each row below is the logits of a one-token greedy reply
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(40, 9)).astype(np.float32)
    logits[:10] = np.round(logits[:10])  # many ties, the first one wins
    logits[10:15, 2:5] = logits[10:15].max(axis=1, keepdims=True) + 1  # a tie for the max
    logits[15:18, :] = 0.0  # everything ties
    logits[18, 6] = np.inf
    logits[19, 1] = -np.inf
    top = np.float32(30.0)  # one float32 ulp apart: a narrower dtype would tie them
    logits[20:25, 3], logits[20:25, 7] = top, np.nextafter(top, np.float32(np.inf))
    m = init_model(ModelConfig(vocab_size=9, embed_dim=4, hidden_dim=5), seed=4)
    m.params["out_w"][:] = 0.0
    greedy = DecodeConfig(max_tokens=1)
    for banned in ([], [2], [2, 3], [0, 1, 6], list(range(8))):
        masked = logits.astype(np.float64)
        masked[:, banned] = -np.inf
        want = masked.argmax(axis=1).tolist()
        for dtype in (np.float32, np.float64):
            got = []
            for row in logits:
                m.params["out_b"] = row.copy()
                got += generate(m.astype(dtype), [1, 2], greedy, forbidden_ids=banned)
            assert got == want, (banned, dtype)
        assert not set(want) & set(banned)


def test_every_step_runs_two_rows_when_one_reply_is_left(monkeypatch):
    m = init_model(TINY, seed=5)
    decode = DecodeConfig(mode="top_k", k=7, max_tokens=10)
    stepped, rows_run, readout_rows = [], [], []

    def step(weights, ids, hs):
        stepped.append(len(ids))
        return step_(weights, ids, hs)

    def gru_cell(zr, c, h_prev, u_zr, u_c):
        rows_run.append(len(h_prev))  # the rows of the recurrent GEMMs, and of every
        return gru_cell_(zr, c, h_prev, u_zr, u_c)  # GEMM a step runs on its states

    class Readout(np.ndarray):  # out_w, recording the rows of each product with it
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                readout_rows.append(len(inputs[0]))
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    step_, gru_cell_ = model_mod._step, model_mod._gru_cell
    # the first contexts share their longest length; the second have one
    # strictly longest, so that feeding them runs a lone row
    tied = [[1, 2], [5], [2, 4, 6], [6, 2, 2], [4, 4], [1]]
    for contexts in (tied, [[1, 2], [5, 6, 2, 4, 6], [6, 2], [1]]):
        rngs = lambda: [np.random.default_rng([2, i]) for i in range(len(contexts))]
        alone = [generate(m, c, decode, eou_id=3, rng=r) for c, r in zip(contexts, rngs())]
        for record in (stepped, rows_run, readout_rows):
            record.clear()
        monkeypatch.setattr(model_mod, "_step", step)
        monkeypatch.setattr(model_mod, "_gru_cell", gru_cell)
        monkeypatch.setitem(m.params, "out_w", m.params["out_w"].view(Readout))
        outs = generate_batch(m, contexts, decode, eou_id=3, rngs=rngs())
        monkeypatch.undo()
        assert outs == alone
        # the replies ended at different steps, down to one left running
        width = max(map(len, contexts))
        assert stepped[0] == len(contexts) and 1 in stepped[width:]
        assert (1 in stepped[:width]) == (sorted(map(len, contexts))[-2] < width)
        assert readout_rows[0] == len(contexts)  # the readout after the contexts
        assert min(rows_run + readout_rows) >= 2


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


@pytest.mark.parametrize("temperature", [1e-310, 5e-324])
def test_top_k_at_a_subnormal_temperature_is_greedy(temperature):
    # logit differences over such a temperature overflow to -inf: the draw must
    # still be the best token, not a NaN distribution
    m = init_model(TINY, seed=11)
    contexts = [[1, 2, 4], [5], [2, 6, 1, 3], [1, 4, 5, 6, 1]]
    kwargs = dict(eou_id=3, forbidden_ids=[0])
    greedy = generate_batch(m, contexts, DecodeConfig(mode="greedy", max_tokens=6), **kwargs)
    cold = DecodeConfig(mode="top_k", k=4, temperature=temperature, max_tokens=6)
    rngs = [np.random.default_rng(i) for i in range(len(contexts))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generate_batch(m, contexts, cold, rngs=rngs, **kwargs) == greedy


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


def test_parameter_layout_and_checkpoint_bytes_are_pinned(tmp_path):
    # the cell joins the gates only while it runs: parameters, their manifest
    # order, model_checksum and the checkpoint bytes stay per gate, so
    # checkpoints written by earlier versions load and save unchanged
    vocab = build_vocab(["alpha", "beta"])
    cfg = ModelConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, num_layers=2)
    m = init_model(cfg, seed=2, vocab=vocab)
    assert model_checksum(m) == "94ff7027db26f2b9090fb905d445d5fdda3ca15db6357e61ff8f4ec1a10a72ff"
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, config_hash="abc123")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "bf79c340bfabf3c636575b6c1897371fc1f55310aca6c352a4b12512efee9924"


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
        CKPT_MAGIC + b"\x40\x0d\x03\x00" + b"[" * 200_000,  # header nested too deep
    ],
)
def test_checkpoint_header_readers_fail_in_one_line(tmp_path, data):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_checkpoint(p)
    assert "\n" not in str(info.value)
