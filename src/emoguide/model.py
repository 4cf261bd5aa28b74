"""Tiny autoregressive dialog LM: a gated-recurrent sequence mixer.

One (configurably stacked) GRU layer over token embeddings with a linear
readout to vocabulary logits.  Everything is plain numpy with hand-written
forward/backward passes; parameters are float32 by default (pass
``dtype=np.float64`` at init for gradient-checking).  Identical seeds give
bit-identical parameters.

Checkpoints are a single binary file: a magic string, a JSON header (config,
step count, optional vocabulary and config hash, parameter manifest) followed
by the raw little-endian float32 parameter buffers in manifest order.  A
save/load round trip is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

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
        for name in ("vocab_size", "embed_dim", "hidden_dim", "num_layers", "context_window"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

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


def init_model(
    config: ModelConfig,
    seed: int,
    dtype=np.float32,
    vocab: Vocab | None = None,
) -> Model:
    """Seeded uniform init, each tensor scaled by 1/sqrt(fan_in); ``out_b`` starts at 0."""
    if vocab is not None and len(vocab) != config.vocab_size:
        raise ValueError(f"vocab size {len(vocab)} != config.vocab_size {config.vocab_size}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name == "out_b":
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        bound = 1.0 / math.sqrt(config.embed_dim if name == "emb" else shape[0])
        params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Model(config=config, params=params, step_count=0, vocab=vocab)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only sees -|x| (``np.minimum(x, -x)``, which keeps
    a NaN's sign), so it cannot overflow.  A saturated gate underflows to 0 or a
    subnormal by design, so underflow is not reported."""
    with np.errstate(under="ignore"):
        e = np.exp(np.minimum(x, -x))
        d = 1 + e
        return np.where(x >= 0, 1 / d, e / d)


def _gates(params: dict, layer: int):
    """One layer's (w, u, b) parameter triples, each in gate order z, r, c."""
    return tuple(tuple(params[f"l{layer}.{kind}_{gate}"] for gate in "zrc") for kind in "wub")


def _gru_cell(a_x, h_prev: np.ndarray, u):
    """One GRU step (Cho et al. 2014, arXiv 1406.1078) for training and decoding:
    ``a_x`` holds the z, r, c input projections ``x @ w + b`` and ``u`` their
    recurrent weights.  Returns (z, r, c, h)."""
    (a_z, a_r, a_c), (u_z, u_r, u_c) = a_x, u
    z = _sigmoid(a_z + h_prev @ u_z)
    r = _sigmoid(a_r + h_prev @ u_r)
    c = np.tanh(a_c + (r * h_prev) @ u_c)
    return z, r, c, (1.0 - z) * h_prev + z * c


def _check_ids(ids, vocab_size: int, window: int) -> np.ndarray:
    arr = np.asarray(ids)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected token ids of shape (L,) or (B, L), got {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("empty token stream")
    if arr.shape[1] > window:
        raise ValueError(f"input length {arr.shape[1]} exceeds context window {window}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise ValueError("token id out of range")
    return arr.astype(np.int64)


def _forward_cached(model: Model, ids: np.ndarray):
    """Run the stack, returning logits plus everything backward() needs."""
    p = model.params
    cfg = model.config
    B, L = ids.shape
    x = p["emb"][ids]  # (B, L, D)
    layers = []
    for layer in range(cfg.num_layers):
        w, u, b = _gates(p, layer)
        # input-to-hidden products for the whole sequence in one GEMM per gate
        a_x = [x @ w_g + b_g for w_g, b_g in zip(w, b)]
        z, r, c, h = (np.empty((B, L, cfg.hidden_dim), dtype=x.dtype) for _ in range(4))
        h_prev = np.zeros((B, cfg.hidden_dim), dtype=x.dtype)
        for t in range(L):
            z[:, t], r[:, t], c[:, t], h_prev = _gru_cell([a[:, t] for a in a_x], h_prev, u)
            h[:, t] = h_prev
        layers.append({"x": x, "z": z, "r": r, "c": c, "h": h, "layer": layer})
        x = h
    logits = x @ p["out_w"] + p["out_b"]
    return logits, {"ids": ids, "layers": layers, "top": x}


def forward(model: Model, ids) -> np.ndarray:
    """Causal logits for every position; shape mirrors the input batch shape."""
    arr = _check_ids(ids, model.config.vocab_size, model.config.context_window)
    logits, _ = _forward_cached(model, arr)
    return logits[0] if np.asarray(ids).ndim == 1 else logits


def _rows(a: np.ndarray) -> np.ndarray:
    """(B, L, N) -> (B*L, N): one row per position, for a single 2-D GEMM."""
    return a.reshape(-1, a.shape[-1])


def _layer_backward(params: dict, cache: dict, dh_out: np.ndarray):
    """Backward through one GRU layer given d(loss)/d(h_t) for every t."""
    layer = cache["layer"]
    x, z, r, c, h = cache["x"], cache["z"], cache["r"], cache["c"], cache["h"]
    w, u, _ = _gates(params, layer)
    # contiguous copies, made once, instead of a transposed view per GEMM per step
    u_zT, u_rT, u_cT = (np.ascontiguousarray(u_g.T) for u_g in u)
    B, L, H = dh_out.shape
    da_z, da_r, da_c = (np.empty_like(z) for _ in range(3))
    dh_next = zeros = np.zeros((B, H), dtype=x.dtype)
    for t in reversed(range(L)):
        h_prev = h[:, t - 1] if t > 0 else zeros
        dh = dh_out[:, t] + dh_next
        zt, rt, ct = z[:, t], r[:, t], c[:, t]
        dct = dh * zt
        dat_c = dct * (1.0 - ct * ct)
        dzt = dh * (ct - h_prev)
        dat_z = dzt * zt * (1.0 - zt)
        dh_next = dh * (1.0 - zt)  # becomes d(loss)/d(h_{t-1})
        drh = dat_c @ u_cT
        dh_next += drh * rt
        drt = drh * h_prev
        dat_r = drt * rt * (1.0 - rt)
        dh_next += dat_z @ u_zT
        dh_next += dat_r @ u_rT
        da_z[:, t], da_r[:, t], da_c[:, t] = dat_z, dat_r, dat_c

    # batched weight gradients; h shifted right one step is the recurrent input
    h_shift = np.concatenate([np.zeros((B, 1, H), dtype=x.dtype), h[:, :-1]], axis=1)
    rh = r * h_shift
    x2, da = _rows(x), [_rows(a) for a in (da_z, da_r, da_c)]
    grads = {}
    for gate, da_g, h_in in zip("zrc", da, (h_shift, h_shift, rh)):
        grads[f"l{layer}.w_{gate}"] = x2.T @ da_g
        grads[f"l{layer}.u_{gate}"] = _rows(h_in).T @ da_g
        grads[f"l{layer}.b_{gate}"] = da_g.sum(axis=0)
    dx = da[0] @ w[0].T + da[1] @ w[1].T + da[2] @ w[2].T
    return dx.reshape(B, L, -1), grads


def backward(model: Model, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for d(loss)/d(logits); pairs with _forward_cached."""
    p = model.params
    top = cache["top"]
    dlogits = dlogits.astype(top.dtype, copy=False)
    grads: dict[str, np.ndarray] = {
        "out_w": _rows(top).T @ _rows(dlogits),
        "out_b": dlogits.sum(axis=(0, 1)),
    }
    dh = (_rows(dlogits) @ p["out_w"].T).reshape(*top.shape)
    for layer_cache in reversed(cache["layers"]):
        dh, layer_grads = _layer_backward(p, layer_cache, dh)
        grads.update(layer_grads)
    d_emb = np.zeros_like(p["emb"])
    np.add.at(d_emb, cache["ids"].ravel(), _rows(dh))
    grads["emb"] = d_emb
    return grads


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
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not math.isfinite(self.temperature) or self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        if not isinstance(self.max_tokens, int) or self.max_tokens < 0:
            raise ValueError(f"max_tokens must be nonnegative, got {self.max_tokens!r}")


def _decode_step(p: dict, layers: list, hs: list[np.ndarray], token_id: int) -> np.ndarray:
    """Feed one token; ``layers`` holds each layer's ``_gates`` and ``hs`` its
    hidden state, updated in place.  Returns the next-token logits."""
    x = p["emb"][token_id]
    for i, (w, u, b) in enumerate(layers):
        *_, x = _gru_cell([x @ w_g + b_g for w_g, b_g in zip(w, b)], hs[i], u)
        hs[i] = x
    return x @ p["out_w"] + p["out_b"]


def generate(
    model: Model,
    context_ids: Sequence[int],
    decode: DecodeConfig = DecodeConfig(),
    *,
    eou_id: int | None = None,
    forbidden_ids: Sequence[int] = (),
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Decode token ids after ``context_ids`` until <eou> or max_tokens.

    ``forbidden_ids`` are masked at every step; ``eou_id`` additionally at the
    first step so generated utterances are never empty.  As temperature -> 0,
    top_k sampling converges to the greedy choice.
    """
    ctx = _check_ids(context_ids, model.config.vocab_size, model.config.context_window)[0]
    if decode.mode == "top_k" and rng is None:
        raise ValueError("top_k decoding needs an rng")
    p, n_layers = model.params, model.config.num_layers
    layers = [_gates(p, layer) for layer in range(n_layers)]
    hs = [np.zeros(model.config.hidden_dim, dtype=model.dtype) for _ in range(n_layers)]
    for token in ctx:
        logits = _decode_step(p, layers, hs, int(token))
    out: list[int] = []
    forbidden = list(forbidden_ids)
    for step in range(decode.max_tokens):
        masked = logits.astype(np.float64, copy=True)
        if forbidden:
            masked[forbidden] = -np.inf
        if step == 0 and eou_id is not None:
            masked[eou_id] = -np.inf
        if decode.mode == "greedy":
            choice = int(np.argmax(masked))
        else:
            k = min(decode.k, int(np.sum(np.isfinite(masked))))
            top = np.argpartition(masked, -k)[-k:]
            top = top[np.argsort(masked[top])[::-1]]  # deterministic order
            scaled = masked[top] / decode.temperature
            scaled -= scaled.max()
            probs = np.exp(scaled)
            probs /= probs.sum()
            choice = int(rng.choice(top, p=probs))
        if eou_id is not None and choice == eou_id:
            break
        out.append(choice)
        logits = _decode_step(p, layers, hs, choice)
    return out


# ------------------------------------------------------------ checkpoints


def model_checksum(model: Model) -> str:
    """sha256 over the config and raw parameter bytes (manifest order)."""
    h = hashlib.sha256()
    h.update(json.dumps(model.config.to_dict(), sort_keys=True).encode())
    for name in _param_shapes(model.config):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())
    return h.hexdigest()


def _manifest(config: ModelConfig) -> list[dict]:
    return [{"name": n, "shape": list(s), "dtype": "<f4"} for n, s in _param_shapes(config).items()]


def save_checkpoint(path, model: Model, config_hash: str | None = None) -> None:
    header = {
        "version": CKPT_VERSION,
        "config": model.config.to_dict(),
        "step_count": model.step_count,
        "vocab": list(model.vocab.tokens) if model.vocab is not None else None,
        "config_hash": config_hash,
        "params": _manifest(model.config),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
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
        header = json.loads(fh.read(length))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    version = header.get("version") if isinstance(header, dict) else None
    if version != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    return header


def load_checkpoint(path) -> Model:
    """Read a checkpoint; any malformed or inconsistent file raises ValueError."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        try:
            config = ModelConfig.from_dict(header.get("config"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        step_count, tokens = header.get("step_count"), header.get("vocab")
        if type(step_count) is not int or step_count < 0:
            raise ValueError(f"{path}: step_count must be an integer >= 0, got {step_count!r}")
        vocab_ok = isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
        if tokens is not None and not (vocab_ok and len(tokens) == config.vocab_size):
            raise ValueError(f"{path}: vocab must be a list of {config.vocab_size} strings")
        if header.get("params") != _manifest(config):
            raise ValueError(f"{path}: checkpoint parameter manifest does not match its config")
        shapes = _param_shapes(config)
        expected = 4 * sum(math.prod(shape) for shape in shapes.values())
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise ValueError(f"{path}: {actual} parameter bytes, the manifest needs {expected}")
        params = {
            name: np.frombuffer(fh.read(4 * math.prod(shape)), dtype="<f4").reshape(shape).copy()
            for name, shape in shapes.items()
        }
    vocab = Vocab(tokens=tuple(tokens)) if tokens else None
    return Model(config=config, params=params, step_count=step_count, vocab=vocab)


def checkpoint_config_hash(path) -> str | None:
    """Read just the config hash recorded in a checkpoint header."""
    with open(path, "rb") as fh:
        return _read_header(fh, path).get("config_hash")
