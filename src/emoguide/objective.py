"""Composite emotion-guidance training objective.

Given a decoder's per-step logits over the vocabulary, three components are
combined (sums run over the T response steps; no length normalization):

  nll    -sum_t log softmax(h_t)[y_t]                       (natural log)
  peg     sum_t [ p_pos * ED_t + (1 - p_pos) * f(|C|) * ED_t ]
  ner     sum_t p_neg * || E[vad]_t ||_2

  total   nll + alpha * peg - beta * ner

where ED_t = || u1_mean - E[vad]_t ||_2 is the emotional distance between the
conversation opener's mean VAD and the expected VAD of the step-t token
distribution E[vad]_t = softmax(h_t)^T M, and f(|C|) = cos(pi * |C| / max_turn)
schedules how strongly the opener's emotion is mirrored as the dialog ages
(|C| = number of context utterances, clamped at max_turn).

The ner term enters with a negative sign: maximizing the norm of the expected
VAD pushes probability mass away from near-origin (strongly negative) words
when the opener is negative.

All math here is float64, or np.longdouble when the logits come in that
dtype (``finite_diff_check`` evaluates its reference that way), and the
gradient w.r.t. the logits is hand-derived:

  d nll / dh_t = s_t - onehot(y_t)
  d ED_t / dh_t = s_t ⊙ (g - <s_t, g>),   g = M @ (e_t - u1) / ED~_t
  d ||e_t|| / dh_t = s_t ⊙ (g - <s_t, g>), g = M @ e_t / ||e_t||~

with a 1e-12 guard added under the square root in gradient denominators so the
norm's non-differentiability at zero resolves to a zero gradient.  Reported
loss values use the exact (unguarded) norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import MAX_UTTERANCES, check_int, check_real, check_token_ids
from .polarity import PolarityDistribution
from .vad import VadMatrix, VadVector

NORM_GUARD = 1e-12
# finite_diff_check's working dtype: 80-bit extended precision on x86-64
# Linux, but only float64 on some platforms (e.g. Windows, macOS on arm64)
REFERENCE_DTYPE = np.longdouble


@dataclass(frozen=True)
class PegeConfig:
    """Objective weights and schedule parameters."""

    alpha: float = 5.0
    beta: float = 2.0
    max_turn: int = 7

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha, 0.0)
        check_real("beta", self.beta, 0.0)
        check_int("max_turn", self.max_turn, maximum=MAX_UTTERANCES)  # |C| never exceeds a dialog


@dataclass(frozen=True)
class LossBreakdown:
    """Per-component values plus the analytic gradient w.r.t. the logits.

    The values are floats, or np.longdouble scalars for longdouble logits."""

    nll: float
    peg: float
    ner: float
    total: float
    grad_logits: np.ndarray


def dialog_progress(context_turns: int, max_turn: int = PegeConfig.max_turn) -> float:
    """Mirroring schedule cos(pi * |C| / max_turn); |C| is clamped at max_turn.

    Starts at +1 (mirror the opener's emotion), crosses zero mid-dialog, and
    saturates at -1 (drive away from it).
    """
    check_int("context_turns", context_turns, 0)
    check_int("max_turn", max_turn)
    ratio = min(context_turns, max_turn) / max_turn
    return math.cos(math.pi * ratio)


def _as_vad_array(u1_mean, steps: int) -> np.ndarray:
    """A VAD point (3,), or one point per step (steps, 3)."""
    if isinstance(u1_mean, VadVector):
        return u1_mean.to_array()
    arr = np.asarray(u1_mean, dtype=np.float64)
    if arr.shape not in ((3,), (steps, 3)):
        raise ValueError(f"expected a 3-dim VAD point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("VAD point must lie in the unit cube")
    return arr


def _check_logits(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(logits)
    if arr.dtype != np.longdouble:  # kept, for the finite-difference reference
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError(f"expected logits of shape (T, V), got {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"degenerate logits shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite logits")
    ids = check_token_ids("target ids", targets, arr.shape[1])
    if len(ids) != arr.shape[0]:
        raise ValueError(f"expected {arr.shape[0]} target ids, got {len(ids)}")
    return arr, ids


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, numerically stable."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def nll_loss(logits: np.ndarray, targets) -> float:
    """-sum_t log softmax(h_t)[y_t] (teacher forcing, natural log)."""
    arr, ids = _check_logits(logits, targets)
    logp = log_softmax(arr)
    return float(-logp[np.arange(arr.shape[0]), ids].sum())


def _per_row(u1_mean, polarity, context_turns, steps: int, max_turn: int):
    """The opener mean VAD, (3,) or (T, 3), and each row's p_pos, p_neg and
    progress (T,).  Each argument is one value for every row or a sequence
    of one per row."""
    u1 = _as_vad_array(u1_mean, steps)
    pols = [polarity] * steps if isinstance(polarity, PolarityDistribution) else list(polarity)
    if len(pols) != steps or not all(isinstance(p, PolarityDistribution) for p in pols):
        raise ValueError(f"expected a PolarityDistribution or one per step ({steps})")
    turns = np.asarray(context_turns)
    if turns.shape not in ((), (steps,)) or not np.issubdtype(turns.dtype, np.integer):
        raise ValueError(f"expected an integer context turn count or one per step ({steps})")
    if turns.min() < 0:
        raise ValueError(f"context_turns must be nonnegative, got {context_turns!r}")
    # the scalar schedule's own values, so a row's progress does not depend on the call
    table = np.array([dialog_progress(c, max_turn) for c in range(max_turn + 1)])
    progress = np.broadcast_to(table[np.minimum(turns, max_turn)], (steps,))
    p_pos = np.array([p.p_pos for p in pols])
    p_neg = np.array([p.p_neg for p in pols])
    return u1, p_pos, p_neg, progress


def pege_loss(
    logits: np.ndarray,
    targets,
    u1_mean,
    polarity,
    context_turns,
    matrix: VadMatrix,
    config: PegeConfig = PegeConfig(),
) -> LossBreakdown:
    """Composite loss with its analytic gradient w.r.t. the logits.

    ``targets`` are the teacher-forced response token ids, ``u1_mean`` the
    opener's mean VAD, ``polarity`` the opener's PolarityDistribution and
    ``context_turns`` the number of utterances in the conversation context.
    Each of these three is one value for every row of ``logits`` or a
    sequence of one per row, so the response steps of a whole batch of
    examples go through one call; the components are sums over all rows.
    """
    arr, ids = _check_logits(logits, targets)
    T, V = arr.shape
    if matrix.vocab_size != V:
        raise ValueError(f"VAD matrix rows {matrix.vocab_size} != vocab size {V}")
    u1, p_pos, p_neg, progress = _per_row(u1_mean, polarity, context_turns, T, config.max_turn)

    logp = log_softmax(arr)
    s = np.exp(logp)  # (T, V)
    m = matrix.values  # (V, 3)
    e = s @ m  # (T, 3) expected VAD per step

    diff = e - u1
    ed_sq = np.einsum("ij,ij->i", diff, diff)
    eds = np.sqrt(ed_sq)  # exact norms, reported
    nrm_sq = np.einsum("ij,ij->i", e, e)
    nrms = np.sqrt(nrm_sq)

    w_peg = p_pos + (1.0 - p_pos) * progress

    scalar = float if arr.dtype == np.float64 else arr.dtype.type
    nll = scalar(-logp[np.arange(T), ids].sum())
    peg = scalar(np.sum(p_pos * eds + (1.0 - p_pos) * progress * eds))
    ner = scalar(np.sum(p_neg * nrms))
    total = nll + config.alpha * peg - config.beta * ner

    # Gradient.  For a norm term n(h) = ||A s(h)|| the chain rule gives
    # dn/dh = s ⊙ (g - <s, g>) with g = A^T (A s)/n; guards keep the
    # denominators nonzero at the kink.
    grad = s.copy()
    grad[np.arange(T), ids] -= 1.0  # d nll / dh

    ed_guard = np.sqrt(ed_sq + NORM_GUARD)
    u_p = diff / ed_guard[:, None]  # (T, 3)
    g_p = u_p @ m.T  # (T, V)
    dot_p = np.einsum("ij,ij->i", s, g_p)
    grad += (config.alpha * w_peg)[:, None] * s * (g_p - dot_p[:, None])

    nrm_guard = np.sqrt(nrm_sq + NORM_GUARD)
    u_n = e / nrm_guard[:, None]
    g_n = u_n @ m.T
    dot_n = np.einsum("ij,ij->i", s, g_n)
    grad -= (config.beta * p_neg)[:, None] * s * (g_n - dot_n[:, None])

    return LossBreakdown(nll=nll, peg=peg, ner=ner, total=total, grad_logits=grad)


def finite_diff_check(
    loss_at: Callable[[np.ndarray], float],
    point: np.ndarray,
    grad: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between ``grad`` and central finite differences.

    The relative error at each coordinate uses max(|analytic|, |numeric|,
    1e-8) as the denominator so near-zero coordinates do not blow up.

    ``loss_at`` gets a ``REFERENCE_DTYPE`` copy of ``point``, and its values
    are differenced in that dtype.  The rounding of a loss of tens of nats,
    divided by 2·eps, is ~1e-10 in float64, enough to put a correct
    coordinate below ~1e-6 over a 1e-4 bound; in 80-bit longdouble it is
    ~1e-13.
    """
    check_real("eps", eps, 0.0, low_open=True)
    x = np.array(point, dtype=REFERENCE_DTYPE)
    g = np.asarray(grad, dtype=np.float64)
    if x.shape != g.shape:
        raise ValueError(f"point shape {x.shape} != grad shape {g.shape}")
    max_rel = 0.0
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = loss_at(x)
        x[idx] = orig - eps
        f_minus = loss_at(x)
        x[idx] = orig
        if not np.isfinite(f_plus) or not np.isfinite(f_minus):
            raise ValueError(f"non-finite loss at perturbed point {idx}")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        rel = float(abs(g[idx] - numeric) / max(abs(g[idx]), abs(numeric), 1e-8))
        max_rel = max(max_rel, rel)
    return max_rel


def gradient_check_suite(
    seed: int = 0,
    cases: int = 10,
    config: PegeConfig = PegeConfig(),
) -> float:
    """Worst finite-difference relative error across random small problems.

    Each case draws a VAD row matrix (V <= 16) and one to three examples,
    each with its own response steps (T <= 4), targets, opener mean,
    polarity distribution and context turn count.  All examples' rows go
    through one call, as in training, and each example's rows of that call's
    analytic gradient are compared against central differences.
    """
    check_int("cases", cases)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        V = int(rng.integers(4, 17))
        matrix = VadMatrix(values=rng.uniform(0.0, 1.0, size=(V, 3)))
        examples = []  # (logits, targets, u1_mean, polarity, context_turns)
        for _ in range(int(rng.integers(1, 4))):
            T = int(rng.integers(1, 5))
            p = rng.dirichlet((1.0, 1.0, 1.0))
            examples.append((
                rng.normal(0.0, 2.0, size=(T, V)),
                rng.integers(0, V, size=T),
                rng.uniform(0.0, 1.0, size=3),
                PolarityDistribution(float(p[0]), float(p[1]), float(p[2])),
                int(rng.integers(0, 10)),
            ))
        logits, targets, u1_mean, polarity, turns = zip(*examples)
        row = np.repeat(np.arange(len(examples)), [len(x) for x in logits])  # each row's example
        analytic = pege_loss(
            np.concatenate(logits),
            np.concatenate(targets),
            np.array(u1_mean)[row],
            [polarity[i] for i in row],
            np.array(turns)[row],
            matrix,
            config,
        ).grad_logits
        # each example's rows of the one call against differences of that
        # example's own loss, whose smaller value keeps their rounding small
        for i, (x0, *args) in enumerate(examples):

            def loss_at(x, _args=args, _m=matrix):
                return pege_loss(x, *_args, _m, config).total

            worst = max(worst, finite_diff_check(loss_at, x0, analytic[row == i]))
    return worst
