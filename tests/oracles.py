"""Reference implementations that the tests check the package against.

Each is the plain, per-step form of what the package computes batched:
``forward`` runs streams from zeros as ``generate_batch`` feeds contexts, and
``emotional_distance``, ``peg_loss`` and ``ner_loss`` are the per-utterance
loss terms that ``objective.pege_loss`` sums over a whole batch's rows.
``peg_score`` and ``e_score`` are the metrics' numpy formulas, one VAD row
per utterance, which ``metrics`` computes in plain floats.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from emoguide.checks import check_real
from emoguide.corpus import Dialog
from emoguide.model import Model, _forward_cached, pack
from emoguide.vad import NEUTRAL_BASELINE, VadLexicon, VadMatrix, utterance_mean_vad
from emoguide.vocab import AGENT, USER


def forward(model: Model, ids) -> np.ndarray:
    """Causal logits at every position of one stream (L,) or of equal-length
    streams (B, L), run from zeros as one packed batch."""
    arr = np.asarray(ids)
    batch = arr[None] if arr.ndim == 1 else arr
    B, L = batch.shape
    logits, _ = _forward_cached(model, *pack(list(batch), [(i, 0, L) for i in range(B)]))
    logits = logits.reshape(B, L, -1)
    return logits[0] if arr.ndim == 1 else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def check_distribution(probs: np.ndarray, vocab_size: int | None = None) -> np.ndarray:
    """Validate a probability vector: finite, nonnegative, sums to 1 within 1e-9."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d distribution, got shape {p.shape}")
    if vocab_size is not None and p.shape[0] != vocab_size:
        raise ValueError(f"distribution length {p.shape[0]} != vocab size {vocab_size}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite probability")
    if p.min() < 0.0:
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def emotional_distance(u1_mean, probs: np.ndarray, matrix: VadMatrix) -> float:
    """Euclidean distance between the opener's mean VAD and E[vad] under probs."""
    u1 = np.asarray(u1_mean, dtype=np.float64)
    p = check_distribution(probs, matrix.vocab_size)
    return float(np.linalg.norm(u1 - p @ matrix.values))


def peg_loss(p_pos: float, eds: Sequence[float], progress: float) -> float:
    """sum_t [ p_pos * ED_t + (1 - p_pos) * progress * ED_t ]."""
    check_real("p_pos", p_pos, 0.0, 1.0)
    check_real("progress", progress, -1.0, 1.0)
    total = 0.0
    for t, ed in enumerate(eds):
        ed = check_real(f"emotional distance at step {t}", float(ed), 0.0)
        total += p_pos * ed + (1.0 - p_pos) * progress * ed
    return total


def ner_loss(p_neg: float, dists: Sequence[np.ndarray] | np.ndarray, matrix: VadMatrix) -> float:
    """sum_t p_neg * || E[vad]_t ||_2 over per-step token distributions."""
    check_real("p_neg", p_neg, 0.0, 1.0)
    total = 0.0
    for dist in dists:
        p = check_distribution(dist, matrix.vocab_size)
        total += p_neg * float(np.linalg.norm(p @ matrix.values))
    return total


def peg_score(dialog: Dialog, lexicon: VadLexicon) -> float:
    """Mean user VAD row over the last half, minus the baseline, summed."""
    utts = dialog.utterances
    if sum(u.speaker == USER for u in utts) < 2:
        raise ValueError(f"{dialog.source_id}: need at least 2 user utterances")
    tail = utts[len(utts) - math.ceil(len(utts) / 2) :]
    rows = [utterance_mean_vad(lexicon, u.tokens).to_array() for u in tail if u.speaker == USER]
    if not rows:
        raise ValueError(f"{dialog.source_id}: no user utterances in the last half")
    return float((np.mean(rows, axis=0) - NEUTRAL_BASELINE.to_array()).sum())


def e_score(dialog: Dialog, lexicon: VadLexicon) -> float:
    """Negative L1 distance between the opener's VAD row and the mean agent
    row over the first half."""
    utts = dialog.utterances
    head = utts[: len(utts) // 2]
    rows = [utterance_mean_vad(lexicon, u.tokens).to_array() for u in head if u.speaker == AGENT]
    if not rows:
        raise ValueError(f"{dialog.source_id}: no agent utterances in the first half")
    u1 = utterance_mean_vad(lexicon, utts[0].tokens).to_array()
    return float(-np.abs(u1 - np.mean(rows, axis=0)).sum())
