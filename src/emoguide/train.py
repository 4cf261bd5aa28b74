"""Training loop: teacher forcing with the composite objective.

Examples are encoded once into id streams; each step samples a batch,
sorts it by stream length (longest first) and packs it (``model.pack``), so
the recurrent stack computes no padding.  Logits are computed only at the
rows that predict response tokens, and all of the batch's response rows go
through one composite-loss call (float64), each row with its own example's
opener, polarity and context turns.  The gradient at those rows is
backpropagated through the model (model dtype, float32 by default) and
applied with a hand-rolled Adam update.

Ablations zero the objective weights: ``nll_only`` drops both guidance
terms, ``peg_only_composite`` keeps nll + alpha*peg, ``ner_only_composite``
keeps nll - beta*ner, ``full`` keeps everything.  All loss components are
always computed and logged, so runs that only differ in zeroed weights
produce comparable logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import check_int, check_real
from .corpus import TrainingExample
from .model import Model, _forward_cached, backward, pack
from .objective import PegeConfig, nll_loss, pege_loss
from .vad import VadLexicon, VadMatrix, align_vocab
from .vocab import Vocab, assemble_stream, utterance_segment

ABLATIONS = ("nll_only", "ner_only_composite", "peg_only_composite", "full")


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_steps: int = 500
    ablation: str = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        check_real("learning_rate", self.learning_rate, 0.0, low_open=True)
        check_int("batch_size", self.batch_size)
        check_int("max_steps", self.max_steps)
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")


def effective_pege_config(config: PegeConfig, ablation: str) -> PegeConfig:
    """Zero alpha/beta according to the ablation."""
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    alpha = config.alpha if ablation in ("full", "peg_only_composite") else 0.0
    beta = config.beta if ablation in ("full", "ner_only_composite") else 0.0
    return PegeConfig(
        alpha=alpha, beta=beta, max_turn=config.max_turn, peg_baseline=config.peg_baseline
    )


class Adam:
    """Adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            g = g.astype(params[name].dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            params[name] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -------------------------------------------------------------- encoding


@dataclass(frozen=True)
class EncodedExample:
    ids: np.ndarray  # (L,) int64 stream: prefix | context segments | marker response <eou>
    resp_start: int  # index of the first predicted token
    context_turns: int
    u1_mean: np.ndarray  # (3,)
    polarity: object

    @property
    def steps(self) -> int:
        return len(self.ids) - self.resp_start


def encode_example(ex: TrainingExample, vocab: Vocab, window: int) -> EncodedExample:
    segments = [utterance_segment(u.speaker, u.tokens, vocab) for u in ex.context]
    marker = utterance_segment(ex.target_speaker, ex.target, vocab)
    ids = assemble_stream(ex.prefix, segments, vocab, window, tail=marker)
    n_predicted = len(ex.target) + 1  # words + <eou>; the speaker marker is given
    return EncodedExample(
        ids=np.asarray(ids, dtype=np.int64),
        resp_start=len(ids) - n_predicted,
        context_turns=ex.context_turns,
        u1_mean=ex.u1_mean_vad.to_array(),
        polarity=ex.polarity,
    )


def _pack_batch(batch: Sequence[EncodedExample]):
    """Sort ``batch`` by stream length, longest first, and pack it.

    Returns the sorted batch, the packed ids and batch sizes (see
    ``model.pack``), the packed rows whose logits predict the response
    tokens, and those tokens, example by example.
    """
    batch = sorted(batch, key=lambda e: -len(e.ids))
    spans = [(e.resp_start - 1, len(e.ids) - 1) for e in batch]
    ids, batch_sizes, readout = pack([e.ids for e in batch], spans)
    targets = np.concatenate([e.ids[e.resp_start :] for e in batch])
    return batch, ids, batch_sizes, readout, targets


@dataclass(frozen=True)
class LossLogEntry:
    step: int
    nll: float
    peg: float
    ner: float
    total: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "nll": self.nll,
            "peg": self.peg,
            "ner": self.ner,
            "total": self.total,
        }


def _batch_losses(
    model: Model,
    batch: Sequence[EncodedExample],
    matrix: VadMatrix,
    config: PegeConfig,
):
    """Forward a packed batch; the composite loss over every response step of
    the batch in one ``pege_loss`` call.

    Returns (mean breakdown tuple, dlogits at the response rows, cache).
    """
    batch, ids, batch_sizes, readout, targets = _pack_batch(batch)
    logits, cache = _forward_cached(model, ids, batch_sizes, readout)
    # logits exist at the response rows only; the hidden states cover the rest
    if not np.isfinite(cache["top"]).all():
        raise TrainingDivergedError("non-finite hidden states in forward pass")
    if not np.isfinite(logits).all():
        raise TrainingDivergedError("non-finite logits in forward pass")
    steps = [e.steps for e in batch]
    bd = pege_loss(
        logits.astype(np.float64),
        targets,
        np.repeat([e.u1_mean for e in batch], steps, axis=0),
        [e.polarity for e in batch for _ in range(e.steps)],
        np.repeat([e.context_turns for e in batch], steps),
        matrix,
        config,
    )
    B = len(batch)
    mean = np.array([bd.nll, bd.peg, bd.ner, bd.total]) / B
    return mean, bd.grad_logits / B, cache


def train(
    model: Model,
    examples: Sequence[TrainingExample],
    config: TrainConfig,
    pege_config: PegeConfig,
    lexicon: VadLexicon,
) -> tuple[Model, list[LossLogEntry]]:
    """Optimize ``model`` in place; returns it with the per-step loss log."""
    if model.vocab is None:
        raise ValueError("model needs an attached vocabulary for training")
    if len(examples) < config.batch_size:  # batch_size >= 1, so this rejects no examples too
        raise ValueError(
            f"batch_size {config.batch_size} exceeds example count {len(examples)}"
        )
    effective = effective_pege_config(pege_config, config.ablation)
    matrix = align_vocab(lexicon, model.vocab.tokens)
    window = model.config.context_window
    encoded = [encode_example(ex, model.vocab, window) for ex in examples]
    rng = np.random.default_rng(config.seed)
    adam = Adam(model.params, lr=config.learning_rate)
    log: list[LossLogEntry] = []
    for step in range(1, config.max_steps + 1):
        pick = rng.choice(len(encoded), size=config.batch_size, replace=False)
        batch = [encoded[j] for j in pick]
        try:
            (nll, peg, ner, total), dlogits, cache = _batch_losses(model, batch, matrix, effective)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"step {step}: {exc}") from None
        if not math.isfinite(total):
            raise TrainingDivergedError(f"non-finite loss at step {step}: total={total!r}")
        grads = backward(model, cache, dlogits)
        adam.step(model.params, grads)
        model.step_count += 1
        log.append(LossLogEntry(step=step, nll=nll, peg=peg, ner=ner, total=total))
    return model, log


def evaluate_nll(
    model: Model, examples: Sequence[TrainingExample], chunk_size: int = 64
) -> float:
    """Mean per-example NLL over response steps (no parameter updates)."""
    if model.vocab is None:
        raise ValueError("model needs an attached vocabulary")
    if len(examples) == 0:
        raise ValueError("no examples to evaluate")
    window = model.config.context_window
    encoded = [encode_example(ex, model.vocab, window) for ex in examples]
    total = 0.0
    for lo in range(0, len(encoded), chunk_size):
        _, ids, batch_sizes, readout, targets = _pack_batch(encoded[lo : lo + chunk_size])
        logits, _ = _forward_cached(model, ids, batch_sizes, readout)
        total += nll_loss(logits.astype(np.float64), targets)
    return total / len(encoded)
