"""Automatic dialog metrics.

Emotional metrics score a dialog by role-based half-sets: the guidance
score looks at user utterances in the final ceil(n/2) positions (did the
user end up feeling better?), the empathy score at agent utterances in
the first floor(n/2) positions (did the agent meet the opener's mood?).
Both average per-utterance mean VAD so dialogs of different lengths are
comparable.  Lexical metrics are corpus BLEU (modified n-gram precision
with a brevity penalty), for scoring utterances against references, and
distinct-n diversity, which ``evaluate_run`` reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import check_int, check_real
from .corpus import Dialog
from .vad import NEUTRAL_BASELINE, VadLexicon, VadVector, tokenize, utterance_mean_vad
from .vocab import AGENT, USER

def peg_score(dialog: Dialog, lexicon: VadLexicon) -> float:
    """Mean user VAD over the dialog's last half minus the neutral baseline
    (0.5, 0.5, 0.5), summed across the three affect dimensions.  Positive
    means the user's word choices ended up above neutral; the value lies in
    [-1.5, 1.5].
    """
    utts = dialog.utterances
    if sum(u.speaker == USER for u in utts) < 2:
        raise ValueError(f"{dialog.source_id}: need at least 2 user utterances")
    n = len(utts)
    tail = utts[n - math.ceil(n / 2) :]
    user_means = [utterance_mean_vad(lexicon, u.tokens) for u in tail if u.speaker == USER]
    if not user_means:
        raise ValueError(f"{dialog.source_id}: no user utterances in the last half")
    v, a, d = _mean(user_means)
    base = NEUTRAL_BASELINE
    return (v - base.valence) + (a - base.arousal) + (d - base.dominance)


def e_score(dialog: Dialog, lexicon: VadLexicon) -> float:
    """Negative L1 distance between the opener's mean VAD and the mean VAD
    of agent utterances in the first half.  0 is perfect mirroring; the
    floor is -3 (all three dimensions maximally apart).
    """
    utts = dialog.utterances
    n = len(utts)
    head = utts[: n // 2]
    agent_means = [utterance_mean_vad(lexicon, u.tokens) for u in head if u.speaker == AGENT]
    if not agent_means:
        raise ValueError(f"{dialog.source_id}: no agent utterances in the first half")
    u1 = utterance_mean_vad(lexicon, utts[0].tokens)
    v, a, d = _mean(agent_means)
    return -(abs(u1.valence - v) + abs(u1.arousal - a) + abs(u1.dominance - d))


def _mean(vectors: Sequence[VadVector]) -> tuple[float, float, float]:
    """Per-component mean, summed in order and then divided, with the same
    float64 operations as ``np.mean`` over the stacked rows (axis 0).
    ``utterance_mean_vad`` keeps its own loop over lexicon lookups, which
    builds no list of vectors per utterance."""
    v = a = d = 0.0
    for vec in vectors:
        v += vec.valence
        a += vec.arousal
        d += vec.dominance
    k = len(vectors)
    return v / k, a / k, d / k


def pege_score(peg: float, e: float) -> float:
    return check_real("peg", peg) + check_real("e", e)


# ------------------------------------------------------------ lexical


def _as_tokens(utterance) -> tuple[str, ...]:
    """An utterance's tokens as a tuple of str; a tuple of str (such as
    ``Utterance.tokens``) is returned as it is, not copied."""
    if isinstance(utterance, str):
        return tuple(tokenize(utterance))
    if type(utterance) is tuple and all(type(t) is str for t in utterance):
        return utterance
    return tuple(str(t) for t in utterance)


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bleu(candidates: Sequence, references: Sequence, n: int) -> float:
    """Corpus BLEU-n as a percentage: brevity penalty times the geometric
    mean of modified k-gram precisions for k = 1..n.
    """
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n!r}")
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference counts differ: {len(candidates)} vs {len(references)}"
        )
    if len(candidates) == 0:
        raise ValueError("nothing to score: empty candidate list")
    cand = [_as_tokens(u) for u in candidates]
    ref = [_as_tokens(u) for u in references]
    c = sum(len(t) for t in cand)
    r = sum(len(t) for t in ref)
    if c == 0:
        return 0.0
    log_precision = 0.0
    for k in range(1, n + 1):
        matched = 0
        total = 0
        for ct, rt in zip(cand, ref):
            counts = Counter(_ngrams(ct, k))
            limits = Counter(_ngrams(rt, k))
            matched += sum(min(v, limits[g]) for g, v in counts.items())
            total += max(len(ct) - k + 1, 0)
        if matched == 0 or total == 0:
            return 0.0
        log_precision += math.log(matched / total) / n
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * brevity * math.exp(log_precision)


def distinct_n(utterances: Sequence, n: int) -> float:
    """Distinct n-grams divided by total n-grams, pooled over utterances.
    n-grams never cross utterance boundaries.
    """
    check_int("n", n)
    grams = [g for u in utterances for g in _ngrams(_as_tokens(u), n)]
    if not grams:
        raise ValueError(f"no {n}-grams in the given utterances")
    return len(set(grams)) / len(grams)


# ------------------------------------------------------------ aggregate


@dataclass(frozen=True)
class DialogScores:
    source_id: str
    peg: float
    e: float
    pege: float


@dataclass(frozen=True)
class MetricsReport:
    n_dialogs: int
    skipped: int
    peg_score: float
    e_score: float
    pege_score: float
    peg_std: float
    e_std: float
    pege_std: float
    distinct1: float | None
    distinct2: float | None
    breakdown: tuple[DialogScores, ...]


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def evaluate_run(dialogs: Sequence[Dialog], lexicon: VadLexicon) -> MetricsReport:
    """Score a set of dialogs.

    Emotional scores are per-dialog and averaged; dialogs violating a metric
    precondition (no qualifying utterances in the relevant half) are skipped
    and counted.  Diversity is pooled over every agent utterance and reported
    as null when no n-gram of that order exists.
    """
    if len(dialogs) == 0:
        raise ValueError("no dialogs to evaluate")
    breakdown: list[DialogScores] = []
    skipped = 0
    for d in dialogs:
        try:
            peg = peg_score(d, lexicon)
            e = e_score(d, lexicon)
        except ValueError:
            skipped += 1
            continue
        breakdown.append(DialogScores(d.source_id, peg, e, pege_score(peg, e)))
    if not breakdown:
        raise ValueError("every dialog violated a metric precondition")
    pegs = [b.peg for b in breakdown]
    es = [b.e for b in breakdown]
    peges = [b.pege for b in breakdown]
    peg_mean = float(np.mean(pegs))
    e_mean = float(np.mean(es))
    agent_utts = [u.tokens for d in dialogs for u in d.utterances if u.speaker == AGENT]

    def pooled_distinct(n: int) -> float | None:
        try:
            return distinct_n(agent_utts, n)
        except ValueError:
            return None

    return MetricsReport(
        n_dialogs=len(dialogs),
        skipped=skipped,
        peg_score=peg_mean,
        e_score=e_mean,
        pege_score=pege_score(peg_mean, e_mean),
        peg_std=_std(pegs),
        e_std=_std(es),
        pege_std=_std(peges),
        distinct1=pooled_distinct(1),
        distinct2=pooled_distinct(2),
        breakdown=tuple(breakdown),
    )
