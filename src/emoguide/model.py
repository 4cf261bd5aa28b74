"""Tiny autoregressive dialog LM: a gated-recurrent sequence mixer.

One (configurably stacked) GRU layer over token embeddings with a linear
readout to vocabulary logits.  Everything is plain numpy with hand-written
forward/backward passes; parameters are float32 (``Model.astype`` gives a
float64 copy for gradient-checking).  Identical seeds give
bit-identical parameters.  Training and decoding share one GRU cell: z and
r take one recurrent GEMM and one in-place tanh-form sigmoid, and the gates
are joined only while the model runs, so parameters and checkpoints stay
per gate.

A batch of streams runs packed (``pack``): sorted longest first and laid out
time-major, the rows of step t are the streams still running at t, so the
GRU steps only those rows and no padded position is ever computed.  The
readout computes logits only at the packed rows the caller asks for, given
as (stream, start, stop) spans, and backward() takes the loss gradient at
those rows alone.  A stream can carry several spans: a GRU state depends
only on the tokens before it, so training runs the examples of a dialog
whose streams nest as one stream, with each example's response rows read
out of it.

The packed pass is the training pass, and runs every stream from zero
states.  Decoding has its own layer loop (``_step``): a step runs one token
per row straight through the layers and the GRU cell, packs nothing and
keeps nothing for backward().  ``_decode`` feeds every stream's suffix from
its given states one position per step, the streams sorted longest first so
that the rows still running at a position are a leading slice, and puts the
rows back in stream order once.  It then takes one step per token over the
replies still running, and returns each stream's states after its reply.
The readout (``_readout``) computes the logits from the top layer's states,
once after the suffixes and once after each token fed back.  The state
arrays hold only the running replies: a row leaves them when its reply emits
<eou>.  Greedy decoding masks the bans in the fresh logits and takes their
argmax; top-k sampling (``_choose``) draws in float64.  ``generate_batch``
checks its contexts and decodes them from zeros; ``generate`` is its
one-context call.  Self-chat calls ``_decode`` itself, to feed each model
only the tokens added since its last reply.  Every GEMM of a decode call
runs on at least two rows, so on a BLAS that gives a row the same bits at
any row count M >= 2 (see ``_step``), a reply's bits do not depend on the
batch that decoded it.

Every pass runs from the model's joined weights (``_join_weights``): each
layer's gate weights, and layer 0's input projections of every vocabulary
row, ``emb @ w + b``, as a (V, 2H) z|r table and a (V, H) c table.  Layer 0
gathers a position's projections from the tables by id; a table row is a
row of a V-row GEMM, so on that BLAS it has the bits of the GEMM over the
gathered embeddings that it replaces.  Training joins per step, as its
parameters change; a decode call joins once (``_prepare``), and self-chat
prepares each model once per call and shares it across positions.

Checkpoints are a single binary file: a magic string, a JSON header (config,
step count, optional vocabulary and config hash, parameter manifest) followed
by the raw little-endian float32 parameter buffers in manifest order.  A
save/load round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .checks import MAX_LAYERS, MAX_WIDTH, MAX_WORDS, check_int, check_real, check_token_ids
from .resources import open_output, parse_json
from .vocab import Vocab

CKPT_MAGIC = b"EMOGCKPT"
CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 128
    num_layers: int = 1
    context_window: int = 128

    def __post_init__(self) -> None:
        check_int("vocab_size", self.vocab_size)
        check_int("embed_dim", self.embed_dim, maximum=MAX_WIDTH)
        check_int("hidden_dim", self.hidden_dim, maximum=MAX_WIDTH)
        check_int("num_layers", self.num_layers, maximum=MAX_LAYERS)
        check_int("context_window", self.context_window)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict) or d.keys() != {f.name for f in fields(cls)}:
            raise ValueError(f"model config needs exactly the fields of ModelConfig, got {d!r}")
        return cls(**d)


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray]
    step_count: int = 0
    vocab: Vocab | None = field(default=None, repr=False)

    @property
    def dtype(self) -> np.dtype:
        return self.params["emb"].dtype

    def astype(self, dtype) -> "Model":
        return replace(self, params={k: v.astype(dtype) for k, v in self.params.items()})


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in manifest (checkpoint and checksum) order."""
    V, D, H = config.vocab_size, config.embed_dim, config.hidden_dim
    shapes = {"emb": (V, D)}
    for layer in range(config.num_layers):
        d_in = D if layer == 0 else H
        for gate in "zrc":
            shapes[f"l{layer}.w_{gate}"] = (d_in, H)
            shapes[f"l{layer}.u_{gate}"] = (H, H)
            shapes[f"l{layer}.b_{gate}"] = (H,)
    shapes["out_w"] = (H, V)
    shapes["out_b"] = (V,)
    return shapes


def init_model(config: ModelConfig, seed: int, vocab: Vocab | None = None) -> Model:
    """Seeded float32 uniform init, each tensor scaled by 1/sqrt(fan_in); ``out_b`` starts at 0."""
    if vocab is not None and len(vocab) != config.vocab_size:
        raise ValueError(f"vocab size {len(vocab)} != config.vocab_size {config.vocab_size}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name == "out_b":
            params[name] = np.zeros(shape, dtype=np.float32)
            continue
        bound = 1.0 / math.sqrt(config.embed_dim if name == "emb" else shape[0])
        params[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return Model(config=config, params=params, step_count=0, vocab=vocab)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as ``0.5·tanh(0.5·x) + 0.5``, into ``out`` if given; tanh
    saturates where exp would overflow, so no finite input raises a warning."""
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.add(np.multiply(out, 0.5, out=out), 0.5, out=out)


def _layer_weights(params: dict, layer: int) -> tuple:
    """One layer's gate parameters, z and r joined: (w_zr, b_zr, w_c, b_c, u_zr, u_c)."""
    w, u, b = (tuple(params[f"l{layer}.{kind}_{gate}"] for gate in "zrc") for kind in "wub")
    zr = lambda pair: np.concatenate(pair[:2], axis=-1)
    return zr(w), zr(b), w[2], b[2], zr(u), u[2]


def _gru_cell(zr: np.ndarray, c: np.ndarray, h_prev: np.ndarray, u_zr, u_c) -> np.ndarray:
    """One GRU step (Cho et al. 2014, arXiv 1406.1078) for training and decoding.

    ``zr`` (..., 2H) and ``c`` (..., H) hold the z|r and candidate input
    projections ``x @ w + b``; the step overwrites them with the gates, which
    backward() reads, and returns ``h_prev + z·(c − h_prev)``."""
    H = h_prev.shape[-1]
    zr += h_prev @ u_zr  # z and r in one recurrent GEMM and one sigmoid
    _sigmoid(zr, out=zr)
    c += (zr[..., H:] * h_prev) @ u_c
    np.tanh(c, out=c)
    return h_prev + zr[..., :H] * (c - h_prev)


def _check_ids(streams, vocab_size: int, window: int) -> np.ndarray:
    """Check token id streams and return them joined, as int64: each is 1-D, of 1 to ``window``
    ids and an integer dtype (joined to int streams, a bool one would pass), all ids at once."""
    arrays = [np.asarray(s) for s in streams]
    if not arrays:
        raise ValueError("no token streams")
    for arr in arrays:
        if arr.ndim != 1 or not 0 < len(arr) <= window or arr.dtype.kind not in "iu":
            raise ValueError(f"streams must be 1-D, 1 to {window} int ids, got shape {arr.shape}")
    return check_token_ids("token ids", np.concatenate(arrays), vocab_size)


def pack(streams: Sequence[np.ndarray], spans: Sequence[tuple[int, int, int]]):
    """Lay out token streams, sorted longest first, as one packed batch.

    The layout is that of PyTorch's ``PackedSequence``: time-major, and the
    rows of step t are one contiguous slice holding the n_t streams still
    running at t, in stream order.  Only real positions get a row, so no
    padding is computed.  Each span ``(i, start, stop)`` asks for the logits
    at positions [start, stop) of stream i; a stream may have any number of
    spans, and the shared-prefix training of ``train._pack_batch`` gives a
    stream one span per example it carries.

    Returns (ids, batch_sizes, readout): the packed ids, n_t for every step,
    and the packed rows of the wanted positions, span by span.
    """
    lengths = [len(s) for s in streams]
    if not lengths or lengths[-1] < 1 or any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError("streams must be nonempty and sorted longest first")
    for i, lo, hi in spans:
        if not (0 <= i < len(streams) and 0 <= lo <= hi <= lengths[i]):
            raise ValueError(f"span ({i}, {lo}, {hi}) is not a range of a stream")
    active = np.arange(lengths[0])[:, None] < np.array(lengths)  # (L, B): stream i runs at step t
    grid = np.zeros(active.shape, dtype=np.int64)
    grid.T[active.T] = np.concatenate(streams)  # stream by stream
    batch_sizes = active.sum(axis=1)
    starts = list(itertools.accumulate(batch_sizes.tolist(), initial=0))  # first row of each step
    readout = np.array([starts[t] + i for i, lo, hi in spans for t in range(lo, hi)], dtype=np.int64)
    return grid[active], batch_sizes, readout


class _Weights(NamedTuple):
    """A model's parameters joined for running (``_join_weights``): once per
    training pass, or once per decoder (``_prepare``).  Read-only, so every
    decode call and thread that runs the same parameters can share it."""

    zr0: np.ndarray  # (V, 2H): layer 0's z|r input projection of every id, emb @ w_zr + b_zr
    c0: np.ndarray  # (V, H): layer 0's candidate input projection of every id
    layers: list[tuple]  # each layer's _layer_weights


def _join_weights(model: Model) -> _Weights:
    """Join the model's weights, for a caller that runs them many times."""
    layers = [_layer_weights(model.params, layer) for layer in range(model.config.num_layers)]
    emb, (w_zr, b_zr, w_c, b_c, _, _) = model.params["emb"], layers[0]
    return _Weights(emb @ w_zr + b_zr, emb @ w_c + b_c, layers)


def _forward_cached(model: Model, ids: np.ndarray, batch_sizes: np.ndarray, readout: np.ndarray):
    """Run the stack over a packed batch (see ``pack``) from zero states, the
    training pass; returns the logits at the packed rows ``readout`` plus
    everything backward() needs.

    Step t runs the GRU on its n_t active rows only: the streams are sorted
    longest first, so those are the first n_t rows of the previous hidden
    state.  Layer 0 gathers every position's input projections from the
    tables by id; the layers above project theirs as one GEMM each.  The
    readout runs over the ``readout`` rows only.
    """
    p, H = model.params, model.config.hidden_dim
    # (first row, row count) of every step
    sizes = batch_sizes.tolist()
    steps = list(zip(itertools.accumulate(sizes, initial=0), sizes))
    weights = _join_weights(model)
    # every position's input projections, z|r and c apart so that a step's
    # rows of each are contiguous; the loop turns them into the gates
    zr, c = weights.zr0[ids], weights.c0[ids]
    caches = []
    for layer, (w_zr, b_zr, w_c, b_c, u_zr, u_c) in enumerate(weights.layers):
        if layer:
            zr, c = x @ w_zr + b_zr, x @ w_c + b_c
        h = np.empty((len(ids), H), dtype=zr.dtype)
        h_prev = np.zeros((steps[0][1], H), dtype=h.dtype)
        for lo, n in steps:
            rows = slice(lo, lo + n)
            h[rows] = h_prev = _gru_cell(zr[rows], c[rows], h_prev[:n], u_zr, u_c)
        caches.append({"zr": zr, "c": c, "h": h, "weights": (w_zr, w_c, u_zr, u_c)})
        x = h
    logits = x[readout] @ p["out_w"] + p["out_b"]
    cache = {"ids": ids, "steps": steps, "readout": readout, "layers": caches, "top": x}
    return logits, cache


def _layer_backward(layer: int, cache: dict, x: np.ndarray, dh_out: np.ndarray, steps):
    """Backward through one GRU layer given its input ``x`` and d(loss)/d(h)
    at every packed row."""
    zr, c, h, (w_zr, w_c, u_zr, u_c) = (cache[k] for k in ("zr", "c", "h", "weights"))
    H = h.shape[1]
    # contiguous copies, made once, instead of a transposed view per GEMM per step
    u_zrT, u_cT = np.ascontiguousarray(u_zr.T), np.ascontiguousarray(u_c.T)
    h_shift = np.empty_like(h)  # each row's recurrent input h_{t-1}; zeros at t = 0
    h_shift[: steps[0][1]] = 0.0
    for (lo, n), (lo_prev, _) in zip(steps[1:], steps):  # the streams still running come first
        h_shift[lo : lo + n] = h[lo_prev : lo_prev + n]
    da_zr, da_c = np.empty_like(zr), np.empty_like(c)  # d(loss)/d(a_z|a_r), d(loss)/d(a_c)
    # d(loss)/d(h_{t-1}) per stream.  A stream's row stays zero until the
    # loop reaches its last step, so its backward starts at its own end.
    dh_next = np.zeros((steps[0][1], H), dtype=x.dtype)
    for lo, n in reversed(steps):
        rows = slice(lo, lo + n)
        h_prev, zrt, ct, dat_zr = h_shift[rows], zr[rows], c[rows], da_zr[rows]
        dh = dh_out[rows] + dh_next[:n]
        dat_c = np.multiply(dh, zrt[:, :H], out=da_c[rows])
        dh_prev = np.subtract(dh, dat_c, out=dh_next[:n])  # dh·(1 − z); becomes d(loss)/d(h_{t-1})
        dat_c *= 1.0 - ct * ct
        drh = dat_c @ u_cT  # d(loss)/d(r·h_{t-1})
        np.multiply(dh, ct - h_prev, out=dat_zr[:, :H])
        np.multiply(drh, h_prev, out=dat_zr[:, H:])
        dat_zr *= zrt  # both gates' sigmoid derivative at once
        dat_zr *= 1.0 - zrt
        drh *= zrt[:, H:]
        dh_prev += drh
        dh_prev += dat_zr @ u_zrT

    # weight gradients over every real position at once, split back per gate
    dw = np.concatenate([x.T @ da_zr, x.T @ da_c], axis=1)
    du = np.concatenate([h_shift.T @ da_zr, (zr[:, H:] * h_shift).T @ da_c], axis=1)
    db = np.concatenate([da_zr.sum(axis=0), da_c.sum(axis=0)])
    grads = {f"l{layer}.{kind}_{gate}": g[..., k * H : (k + 1) * H]
             for kind, g in zip("wub", (dw, du, db)) for k, gate in enumerate("zrc")}
    return da_zr @ w_zr.T + da_c @ w_c.T, grads


def backward(model: Model, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for d(loss)/d(logits) at the readout rows; pairs
    with _forward_cached."""
    p = model.params
    top, readout = cache["top"], cache["readout"]
    dlogits = dlogits.astype(top.dtype, copy=False)
    grads: dict[str, np.ndarray] = {
        "out_w": top[readout].T @ dlogits,
        "out_b": dlogits.sum(axis=0),
    }
    dh = np.zeros_like(top)
    dh[readout] = dlogits @ p["out_w"].T
    layers = cache["layers"]
    for layer in reversed(range(len(layers))):
        # a layer's input: the layer below's states, or layer 0's embeddings,
        # which the forward pass gathered as table rows instead
        x = layers[layer - 1]["h"] if layer else p["emb"][cache["ids"]]
        dh, layer_grads = _layer_backward(layer, layers[layer], x, dh, cache["steps"])
        grads.update(layer_grads)
    grads["emb"] = _scatter_rows(cache["ids"], dh, len(p["emb"]))
    return grads


def _scatter_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[i] = sum of rows[k] where ids[k] == i``, as ``np.add.at`` gives it
    but ~4x faster: the rows are sorted by id (stably) and summed per id by
    one ``np.add.reduceat``."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    out = np.zeros((n, rows.shape[1]), dtype=rows.dtype)
    out[ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


# ------------------------------------------------------------- generation


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "greedy"  # "greedy" | "top_k"
    k: int = 5
    temperature: float = 1.0
    max_tokens: int = 12

    def __post_init__(self) -> None:
        if self.mode not in ("greedy", "top_k"):
            raise ValueError(f"unknown decode mode {self.mode!r}")
        check_int("k", self.k)
        check_real("temperature", self.temperature, 0.0, low_open=True)
        check_int("max_tokens", self.max_tokens, 0, MAX_WORDS)


def _step(weights: _Weights, ids: np.ndarray, hs: list) -> list[np.ndarray]:
    """One decode step: token ``ids[i]`` fed from each layer's states ``hs[l][i]``.

    The rows run as given, straight through the layer loop and the GRU cell,
    with none of the packed pass's bookkeeping.  Returns each layer's states
    after the step.  Every GEMM runs on at least 2 rows: a 1-row float32 GEMM
    takes BLAS's GEMV path, whose bits differ, so a lone row runs twice.  Each
    row's bits then do not depend on which other rows share the step,
    provided the BLAS gives a row of an M-row GEMM the same bits for every
    M >= 2.  That was checked on OpenBLAS 0.3.31 (Haswell kernels, 1 thread),
    not reasoned out: a BLAS that picks its kernel by M (small-matrix kernels,
    MKL) may break it, and ``tests/test_model.py`` checks it on the BLAS in use.
    """
    n = len(ids)
    if n == 1:
        ids, hs = ids[[0, 0]], [h[[0, 0]] for h in hs]
    zr, c = weights.zr0[ids], weights.c0[ids]
    out = []
    for layer, (w_zr, b_zr, w_c, b_c, u_zr, u_c) in enumerate(weights.layers):
        if layer:
            zr, c = x @ w_zr + b_zr, x @ w_c + b_c
        x = _gru_cell(zr, c, hs[layer], u_zr, u_c)
        out.append(x[-n:])
    return out


def _readout(model: Model, top: np.ndarray) -> np.ndarray:
    """The logits after each row's top-layer state; a lone row runs twice, as in ``_step``."""
    rows = top if len(top) > 1 else top[[0, 0]]
    return (rows @ model.params["out_w"] + model.params["out_b"])[-len(top):]


def _choose(logits: np.ndarray, decode: DecodeConfig, banned: np.ndarray, rngs) -> np.ndarray:
    """Each row's next top-k token, drawn with that row's generator, in float64;
    ``banned`` ids are never chosen."""
    choices = []
    for row, rng in zip(logits.astype(np.float64), rngs):
        row[banned] = -np.inf
        k = min(decode.k, int(np.sum(np.isfinite(row))))
        top = np.argpartition(row, -k)[-k:]
        top = top[np.argsort(row[top])[::-1]]  # deterministic order
        # the best logit is subtracted before the division, so a tiny temperature
        # sends the others to -inf (probability 0), never to inf - inf
        with np.errstate(over="ignore"):
            probs = np.exp((row[top] - row[top[0]]) / decode.temperature)
        probs /= probs.sum()
        choices.append(rng.choice(top, p=probs))
    return np.array(choices, dtype=np.int64)


@dataclass(frozen=True)
class _Decoder:
    """A model made ready to decode (``_prepare``): its joined weights and the
    checked bans.  Read-only, so every call and thread that decodes with the
    same model and bans can share it while the parameters stay unchanged."""

    model: Model
    weights: _Weights
    eou_id: int | None
    first_ban: np.ndarray  # forbidden_ids and eou_id: the ids banned at a reply's first step
    ban: np.ndarray  # forbidden_ids: the ids banned at every later step


def _prepare(model: Model, eou_id: int | None = None, forbidden_ids: Sequence[int] = ()) -> _Decoder:
    """Check the bans of ``generate_batch`` and join the model's weights."""
    vocab_size = model.config.vocab_size
    forbidden = check_token_ids("forbidden_ids", list(forbidden_ids), vocab_size)
    eou = check_token_ids("eou_id", [] if eou_id is None else [eou_id], vocab_size)
    first = np.append(forbidden, eou)
    if np.unique(first).size == vocab_size:
        raise ValueError("forbidden_ids and eou_id leave no token to choose")
    return _Decoder(model, _join_weights(model), eou_id, first, forbidden)


def generate_batch(
    model: Model,
    contexts: Sequence[Sequence[int]],
    decode: DecodeConfig = DecodeConfig(),
    *,
    eou_id: int | None = None,
    forbidden_ids: Sequence[int] = (),
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> list[list[int]]:
    """Decode a reply after every context, all of them in lockstep.

    The contexts are fed from zeros, one batched step per position, and each
    decode step is one batched step over the replies still running; a reply
    ends at <eou> or after max_tokens.  ``forbidden_ids`` are masked at
    every step, ``eou_id`` additionally at the first step so replies are
    never empty.  Both must be ids in the vocabulary that leave at least one
    id to choose, or the call raises ValueError before it feeds anything.
    Context i samples with ``rngs[i]`` (top_k needs one per context).  As
    temperature -> 0, top_k sampling converges to the greedy choice.

    Every context must be a 1-D, nonempty sequence of integer ids in the
    vocabulary, at most a context window long; all of a call's contexts are
    checked as one array.  A row's bits do not depend on the other contexts
    of the batch (see ``_step``), so a reply is the same whichever batch
    decodes it.  Each call prepares the model anew (``_prepare``); self-chat
    prepares once and calls ``_decode``, which also carries states.
    """
    decoder = _prepare(model, eou_id, forbidden_ids)
    if not contexts:
        return []
    config = model.config
    flat = _check_ids(contexts, config.vocab_size, config.context_window).tolist()
    ends = list(itertools.accumulate(map(len, contexts)))
    contexts = [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]
    rngs = list(rngs) if rngs is not None else [None] * len(contexts)
    if len(rngs) != len(contexts):
        raise ValueError(f"{len(rngs)} rngs for {len(contexts)} contexts")
    if decode.mode == "top_k" and any(rng is None for rng in rngs):
        raise ValueError("top_k decoding needs an rng")
    zeros = [np.zeros((len(contexts), config.hidden_dim), model.dtype)] * config.num_layers
    return _decode(decoder, contexts, zeros, decode, rngs)[0]


def _decode(
    decoder: _Decoder,
    suffixes: Sequence[Sequence[int]],
    h0: list[np.ndarray],
    decode: DecodeConfig,
    rngs: Sequence[np.random.Generator | None],
) -> tuple[list[list[int]], list[np.ndarray]]:
    """Feed every suffix from its states and decode a reply after it, as
    ``generate_batch`` does, with nothing checked: the caller gives valid ids
    and one rng per suffix.  ``h0`` holds each layer's (B, H) states, in
    suffix order.  Returns the replies and each layer's (B, H) states after
    each suffix and its reply (<eou> is never fed).

    The suffixes are fed sorted longest first, so the rows still running at
    a position are the first n_t rows of the states, and the rows go back to
    suffix order once, after the last position."""
    model, weights, eou_id = decoder.model, decoder.weights, decoder.eou_id
    order = sorted(range(len(suffixes)), key=lambda i: -len(suffixes[i]))  # stable
    ids, batch_sizes, _ = pack([suffixes[i] for i in order], [])
    hs = [h[order] for h in h0]
    lo = 0
    for n in batch_sizes.tolist():
        for h, new in zip(hs, _step(weights, ids[lo : lo + n], [h[:n] for h in hs])):
            h[:n] = new
        lo += n
    back = np.argsort(order)
    hs = [h[back] for h in hs]
    outs: list[list[int]] = [[] for _ in suffixes]
    final = [np.empty_like(h) for h in hs]  # each row's states once its reply ends
    live = np.arange(len(suffixes))  # the replies still running; rows of logits and hs
    rows = live.tolist()
    for step in range(decode.max_tokens):
        logits = _readout(model, hs[-1])
        banned = decoder.first_ban if step == 0 else decoder.ban
        if decode.mode == "greedy":  # logits are fresh each step, so mask them in place
            logits[:, banned] = -np.inf
            choices = logits.argmax(axis=1)
        else:
            choices = _choose(logits, decode, banned, [rngs[i] for i in rows])
        tokens = choices.tolist()
        if eou_id in tokens:
            going = choices != eou_id
            for f, h in zip(final, hs):
                f[live[~going]] = h[~going]
            live, choices, hs = live[going], choices[going], [h[going] for h in hs]
            if not live.size:
                break
            rows, tokens = live.tolist(), choices.tolist()
        for i, token in zip(rows, tokens):
            outs[i].append(token)
        hs = _step(weights, choices, hs)
    for f, h in zip(final, hs):
        f[live] = h
    return outs, final


def generate(
    model: Model,
    context_ids: Sequence[int],
    decode: DecodeConfig = DecodeConfig(),
    *,
    eou_id: int | None = None,
    forbidden_ids: Sequence[int] = (),
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Decode token ids after ``context_ids`` until <eou> or max_tokens: the
    one-context call of ``generate_batch``, whose contract (the
    ``forbidden_ids`` rule too) it shares."""
    (out,) = generate_batch(
        model, [context_ids], decode, eou_id=eou_id, forbidden_ids=forbidden_ids, rngs=[rng]
    )
    return out


# ------------------------------------------------------------ checkpoints


def model_checksum(model: Model) -> str:
    """sha256 over the config and raw parameter bytes (manifest order)."""
    h = hashlib.sha256()
    h.update(json.dumps(asdict(model.config), sort_keys=True).encode())
    for name in _param_shapes(model.config):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())
    return h.hexdigest()


def _manifest(config: ModelConfig) -> list[dict]:
    return [{"name": n, "shape": list(s), "dtype": "<f4"} for n, s in _param_shapes(config).items()]


def save_checkpoint(path, model: Model, config_hash: str | None = None) -> None:
    header = {
        "version": CKPT_VERSION,
        "config": asdict(model.config),
        "step_count": model.step_count,
        "vocab": list(model.vocab.tokens) if model.vocab is not None else None,
        "config_hash": config_hash,
        "params": _manifest(model.config),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open_output(path, binary=True) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in _param_shapes(model.config):
            fh.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())


def _read_header(fh, path) -> dict:
    """Check the magic, length field and version; return the JSON header."""
    if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
        raise ValueError(f"not a checkpoint file: {path}")
    size = fh.read(4)
    length = struct.unpack("<I", size)[0] if len(size) == 4 else None
    # checked before reading, so a corrupt length cannot ask for a huge read
    if length is None or length > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = parse_json(fh.read(length))
    except ValueError as exc:  # not JSON, nested too deep, or not UTF-8
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    return header


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any malformed or inconsistent file, or a parameter
    that holds a NaN or an infinity, raises ValueError."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        try:
            config = ModelConfig.from_dict(header.get("config"))
            step_count = check_int("step_count", header.get("step_count"), 0)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        tokens = header.get("vocab")
        vocab_ok = isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
        if tokens is not None and not (vocab_ok and len(tokens) == config.vocab_size):
            raise ValueError(f"{path}: vocab must be a list of {config.vocab_size} strings")
        if header.get("params") != _manifest(config):
            raise ValueError(f"{path}: checkpoint parameter manifest does not match its config")
        shapes = _param_shapes(config)
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes.values()))
        expected = 4 * ends[-1]
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise ValueError(f"{path}: {actual} parameter bytes, the manifest needs {expected}")
        flat = np.empty(ends[-1], dtype="<f4")  # every parameter, read once
        if fh.readinto(flat) != expected:
            raise ValueError(f"{path}: checkpoint shrank while being read")
    finite = np.isfinite(flat)
    if not finite.all():
        first = np.argmin(finite)
        name = next(name for name, end in zip(shapes, ends) if first < end)
        raise ValueError(f"{path}: parameter {name} holds a value that is not finite")
    params = {
        name: flat[end - math.prod(shape) : end].reshape(shape)
        for (name, shape), end in zip(shapes.items(), ends)
    }
    vocab = Vocab(tokens=tuple(tokens)) if tokens else None
    return Model(config=config, params=params, step_count=step_count, vocab=vocab)

