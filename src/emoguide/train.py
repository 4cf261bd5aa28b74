"""Training loop: teacher forcing with the composite objective.

Examples are encoded once per call into id streams.  Every agent turn of a
dialog is its own example, so an example's stream is usually a prefix of a
later turn's stream in the same dialog.  The examples whose streams nest are
linked into one chain, once per ``train``/``evaluate_nll`` call; the check
compares the streams themselves, so a stream that ``assemble_stream``
truncated, which does not continue the earlier turns', starts a chain of its
own.  ``evaluate_nll`` runs its examples as packed batches of ``EVAL_CHUNK``
(64) in order, with no draw and no update.

Each dialog's examples are split, once per ``train`` call, into consecutive
runs of at most ``batch_size``, so a batch can hold every run whole.  Each
step draws whole runs, without replacement, until the batch holds exactly
``batch_size`` examples; the last run drawn gives its earliest examples, so
every example can be drawn.  The batch's examples of one chain run as one
stream, the longest of them, with each example's response rows read out of
it (``model.pack``): a GRU state depends only on the tokens before it, so a
response row's logits are those of its example run alone.  Streams are
packed longest first, so the recurrent stack computes no padding.  All of
the batch's response rows go through one composite-loss call (float64), each
row with its own example's opener, polarity and context turns.  The gradient
at those rows is backpropagated through the model (model dtype, float32 by
default) and applied with a hand-rolled Adam update.

Ablations zero the objective weights: ``nll_only`` drops both guidance
terms, ``peg_only_composite`` keeps nll + alpha*peg, ``ner_only_composite``
keeps nll - beta*ner, ``full`` keeps everything.  All loss components are
always computed and logged, so runs that only differ in zeroed weights
produce comparable logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .checks import check_int, check_real
from .corpus import TrainingExample
from .model import Model, _forward_cached, backward, pack
from .objective import PegeConfig, nll_loss, pege_loss
from .vad import VadLexicon, VadMatrix, align_vocab
from .vocab import Vocab, assemble_stream, utterance_segment

ABLATIONS = ("nll_only", "ner_only_composite", "peg_only_composite", "full")
EVAL_CHUNK = 64  # examples per packed batch in evaluate_nll


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
    return replace(config, alpha=alpha, beta=beta)


class Adam:
    """Adaptive-moment optimizer over a named parameter dict."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
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
    chain: int | None = None  # examples with one chain run as one stream; None runs alone

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


def _encode(
    examples: Sequence[TrainingExample], vocab: Vocab, window: int
) -> tuple[list[EncodedExample], list[list[int]]]:
    """Encode ``examples`` and link those whose streams nest into chains.

    Returns the encoded examples and each dialog's example indices (grouped
    by ``source_id``), in example order.  Within a dialog, shortest stream
    first, an example joins the first chain whose longest stream so far it
    extends, or starts a chain; every two examples of a chain then nest.
    Nesting is checked on the streams, never assumed.
    """
    encoded = [encode_example(ex, vocab, window) for ex in examples]
    raw = [e.ids.tobytes() for e in encoded]  # fixed-width ids: a byte prefix is an id prefix

    def extends(i: int, j: int) -> bool:
        """Stream j is a prefix of stream i that ends before i's response,
        so that their readout rows in one stream stay apart."""
        return encoded[i].resp_start >= len(encoded[j].ids) and raw[i].startswith(raw[j])

    dialogs: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        dialogs.setdefault(ex.source_id, []).append(i)
    chain = list(range(len(encoded)))  # a chain is named by its shortest example
    for members in dialogs.values():
        tails: list[int] = []  # each of the dialog's chains' longest example so far
        for i in sorted(members, key=lambda i: len(raw[i])):
            k = next((k for k, j in enumerate(tails) if extends(i, j)), None)
            if k is None:
                tails.append(i)
            else:
                chain[i], tails[k] = chain[tails[k]], i
    linked = [
        EncodedExample(e.ids, e.resp_start, e.context_turns, e.u1_mean, e.polarity, c)
        for e, c in zip(encoded, chain)
    ]
    return linked, list(dialogs.values())


def _draw_batch(rng: np.random.Generator, dialogs: Sequence[Sequence[int]], batch_size: int) -> list[int]:
    """Example indices of one batch: whole dialogs drawn without replacement
    until the batch holds ``batch_size`` examples, the last dialog drawn
    giving its earliest ones.  Drawing ``batch_size`` dialogs is enough,
    as each holds an example, so a step costs O(batch_size) whatever the
    number of dialogs; the caller checks that there are enough examples."""
    batch: list[int] = []
    for d in rng.choice(len(dialogs), size=min(batch_size, len(dialogs)), replace=False).tolist():
        batch.extend(dialogs[d][: batch_size - len(batch)])
        if len(batch) == batch_size:
            break
    return batch


def _pack_batch(batch: Sequence[EncodedExample]):
    """Pack ``batch``, the examples of each chain as one stream: the chain's
    longest stream in the batch, of which its other examples' streams are
    prefixes.  Streams are sorted longest first (stably); each example reads
    its own response rows out of its chain's stream.

    Returns the examples in readout order, the packed ids and batch sizes
    (see ``model.pack``), the packed rows whose logits predict the response
    tokens, and those tokens, example by example.
    """
    chains: dict[object, list[EncodedExample]] = {}
    for k, e in enumerate(batch):
        chains.setdefault(k if e.chain is None else ("chain", e.chain), []).append(e)
    groups = sorted(chains.values(), key=lambda g: -max(len(e.ids) for e in g))
    streams = [max(g, key=lambda e: len(e.ids)).ids for g in groups]
    batch = [e for g in groups for e in g]
    spans = [(i, e.resp_start - 1, len(e.ids) - 1) for i, g in enumerate(groups) for e in g]
    ids, batch_sizes, readout = pack(streams, spans)
    targets = np.concatenate([e.ids[e.resp_start :] for e in batch])
    return batch, ids, batch_sizes, readout, targets


@dataclass(frozen=True)
class LossLogEntry:
    step: int
    nll: float
    peg: float
    ner: float
    total: float


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
    # Past -log(tiny) nats per token, the targets' probabilities are below
    # what the model's dtype can represent: the run has blown up, even where
    # its logits stay finite.
    limit = -math.log(np.finfo(model.dtype).tiny)
    if bd.nll > limit * len(targets):
        raise TrainingDivergedError(
            f"mean NLL per response token {bd.nll / len(targets):.4g} exceeds {limit:.1f} nats"
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
    encoded, dialogs = _encode(examples, model.vocab, model.config.context_window)
    size = config.batch_size  # runs of at most a batch, so every example can be drawn
    runs = [members[lo : lo + size] for members in dialogs for lo in range(0, len(members), size)]
    rng = np.random.default_rng(config.seed)
    adam = Adam(model.params, lr=config.learning_rate)
    log: list[LossLogEntry] = []
    for step in range(1, config.max_steps + 1):
        batch = [encoded[j] for j in _draw_batch(rng, runs, size)]
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


def evaluate_nll(model: Model, examples: Sequence[TrainingExample]) -> float:
    """Mean per-example NLL over response steps (no parameter updates).

    Each chunk of ``EVAL_CHUNK`` examples runs as one packed batch, its
    examples that nest sharing a stream as in training."""
    if model.vocab is None:
        raise ValueError("model needs an attached vocabulary")
    if len(examples) == 0:
        raise ValueError("no examples to evaluate")
    encoded, _ = _encode(examples, model.vocab, model.config.context_window)
    total = 0.0
    for lo in range(0, len(encoded), EVAL_CHUNK):
        _, ids, batch_sizes, readout, targets = _pack_batch(encoded[lo : lo + EVAL_CHUNK])
        logits, _ = _forward_cached(model, ids, batch_sizes, readout)
        total += nll_loss(logits.astype(np.float64), targets)
    return total / len(encoded)
