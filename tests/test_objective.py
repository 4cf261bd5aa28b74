from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide.objective import (
    PegeConfig,
    dialog_progress,
    finite_diff_check,
    gradient_check_suite,
    nll_loss,
    pege_loss,
)
from emoguide.polarity import PolarityDistribution
from emoguide.vad import VadMatrix
from oracles import emotional_distance, ner_loss, peg_loss, softmax


def matrix_from_rows(rows) -> VadMatrix:
    return VadMatrix(values=np.array(rows, dtype=np.float64))


def random_case(rng, T=None, V=None):
    T = T if T is not None else int(rng.integers(1, 5))
    V = V if V is not None else int(rng.integers(2, 17))
    logits = rng.normal(0.0, 2.0, size=(T, V))
    targets = rng.integers(0, V, size=T)
    matrix = matrix_from_rows(rng.uniform(0.0, 1.0, size=(V, 3)))
    u1 = rng.uniform(0.0, 1.0, size=3)
    p = rng.dirichlet(np.ones(3))
    polarity = PolarityDistribution(*p)
    turns = int(rng.integers(0, 10))
    return logits, targets, u1, polarity, turns, matrix


# ---------------------------------------------------------------- progress


def test_progress_endpoints_exact():
    assert dialog_progress(0, 7) == 1.0
    assert dialog_progress(7, 7) == -1.0


def test_progress_frozen_value():
    assert dialog_progress(1, 7) == pytest.approx(math.cos(math.pi / 7.0), abs=1e-15)
    assert dialog_progress(1, 7) == pytest.approx(0.9009688679, abs=1e-9)


def test_progress_strictly_decreasing_and_clamped():
    values = [dialog_progress(t, 7) for t in range(8)]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert dialog_progress(9, 7) == -1.0
    assert dialog_progress(100, 7) == dialog_progress(7, 7)


def test_progress_validation():
    with pytest.raises(ValueError):
        dialog_progress(-1, 7)
    with pytest.raises(ValueError):
        dialog_progress(3, 0)
    with pytest.raises(ValueError):
        dialog_progress(1.5, 7)  # type: ignore[arg-type]


# ---------------------------------------------------------- component ops


def test_emotional_distance_frozen_example():
    # opener at the origin, uniform mix of (1,1,1) and (0,0,0) -> sqrt(0.75)
    mat = matrix_from_rows([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)])
    ed = emotional_distance(np.zeros(3), np.array([0.5, 0.5]), mat)
    assert ed == pytest.approx(math.sqrt(0.75), abs=1e-15)


def test_emotional_distance_zero_when_equal():
    mat = matrix_from_rows([(0.25, 0.5, 0.75), (0.25, 0.5, 0.75)])
    ed = emotional_distance(np.array([0.25, 0.5, 0.75]), np.array([0.3, 0.7]), mat)
    assert ed <= 1e-12


def test_emotional_distance_range():
    rng = np.random.default_rng(0)
    bound = math.sqrt(3.0)
    for _ in range(200):
        V = int(rng.integers(1, 8))
        mat = matrix_from_rows(rng.uniform(0.0, 1.0, size=(V, 3)))
        probs = rng.dirichlet(np.ones(V))
        u1 = rng.uniform(0.0, 1.0, size=3)
        ed = emotional_distance(u1, probs, mat)
        assert 0.0 <= ed <= bound + 1e-12


def test_peg_loss_frozen_example():
    # p_pos=0.5, one step with ED 0.4, progress 0.5 -> 0.2 + 0.1 = 0.3
    assert peg_loss(0.5, [0.4], 0.5) == pytest.approx(0.3, abs=1e-12)


def test_peg_loss_validation():
    with pytest.raises(ValueError):
        peg_loss(1.5, [0.4], 0.5)
    with pytest.raises(ValueError):
        peg_loss(0.5, [0.4], 2.0)
    with pytest.raises(ValueError):
        peg_loss(0.5, [-0.1], 0.5)
    assert peg_loss(0.5, [], 0.5) == 0.0


@settings(max_examples=100)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.lists(st.floats(0.0, 1.7, allow_nan=False), min_size=1, max_size=6),
    st.floats(-1.0, 1.0, allow_nan=False),
)
def test_peg_loss_affine_in_p_pos(p_pos, eds, progress):
    full = peg_loss(p_pos, eds, progress)
    at_one = peg_loss(1.0, eds, progress)
    at_zero = peg_loss(0.0, eds, progress)
    assert full == pytest.approx(p_pos * at_one + (1.0 - p_pos) * at_zero, abs=1e-12)


def test_ner_loss_frozen_example():
    # two steps whose expected VAD is (0,0,1): 0.5 * (1 + 1) = 1
    mat = matrix_from_rows([(0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    point_mass = np.array([1.0, 0.0])
    assert ner_loss(0.5, [point_mass, point_mass], mat) == pytest.approx(1.0, abs=1e-12)


def test_ner_loss_validation():
    mat = matrix_from_rows([(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        ner_loss(-0.1, [np.array([1.0])], mat)
    with pytest.raises(ValueError):
        ner_loss(0.5, [np.array([0.9])], mat)  # not normalized
    assert ner_loss(0.5, [], mat) == 0.0


def test_nll_uniform_logits():
    logits = np.zeros((1, 8))
    assert nll_loss(logits, [3]) == pytest.approx(math.log(8.0), abs=1e-12)
    logits2 = np.full((2, 8), 1.7)  # uniform rows at any constant
    assert nll_loss(logits2, [0, 7]) == pytest.approx(2.0 * math.log(8.0), abs=1e-12)


def test_nll_point_mass_approaches_zero():
    logits = np.zeros((1, 8))
    logits[0, 2] = 100.0
    assert nll_loss(logits, [2]) < 1e-12


def test_nll_validation():
    logits = np.zeros((2, 4))
    with pytest.raises(ValueError):
        nll_loss(logits, [0, 4])  # id out of range
    with pytest.raises(ValueError):
        nll_loss(logits, [0])  # wrong length
    bad = logits.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        nll_loss(bad, [0, 0])


# ------------------------------------------------------------- composite


def test_breakdown_matches_component_ops():
    rng = np.random.default_rng(42)
    config = PegeConfig()
    for _ in range(25):
        logits, targets, u1, polarity, turns, mat = random_case(rng)
        got = pege_loss(logits, targets, u1, polarity, turns, mat, config)
        probs = softmax(np.asarray(logits, dtype=np.float64))
        eds = [emotional_distance(u1, probs[t], mat) for t in range(len(targets))]
        progress = dialog_progress(turns, config.max_turn)
        assert got.nll == pytest.approx(nll_loss(logits, targets), abs=1e-12)
        assert got.peg == pytest.approx(peg_loss(polarity.p_pos, eds, progress), abs=1e-12)
        assert got.ner == pytest.approx(
            ner_loss(polarity.p_neg, list(probs), mat), abs=1e-12
        )
        assert got.total == pytest.approx(
            got.nll + config.alpha * got.peg - config.beta * got.ner, abs=1e-9
        )


def test_composite_identity_random_weights():
    rng = np.random.default_rng(11)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 8.0))
        beta = float(rng.uniform(0.0, 4.0))
        config = PegeConfig(alpha=alpha, beta=beta)
        logits, targets, u1, polarity, turns, mat = random_case(rng)
        got = pege_loss(logits, targets, u1, polarity, turns, mat, config)
        assert got.total == pytest.approx(
            got.nll + alpha * got.peg - beta * got.ner, abs=1e-9
        )


def test_shift_invariance_per_step():
    rng = np.random.default_rng(3)
    logits, targets, u1, polarity, turns, mat = random_case(rng, T=3)
    base = pege_loss(logits, targets, u1, polarity, turns, mat)
    shifted = np.array(logits, dtype=np.float64)
    shifted[1] += 17.5  # constant shift at one step
    after = pege_loss(shifted, targets, u1, polarity, turns, mat)
    assert after.nll == pytest.approx(base.nll, abs=1e-9)
    assert after.peg == pytest.approx(base.peg, abs=1e-9)
    assert after.ner == pytest.approx(base.ner, abs=1e-9)
    assert after.total == pytest.approx(base.total, abs=1e-9)


def test_pege_loss_validation():
    rng = np.random.default_rng(5)
    logits, targets, u1, polarity, turns, mat = random_case(rng, T=2, V=4)
    with pytest.raises(ValueError):
        pege_loss(logits, targets, u1, polarity, turns, matrix_from_rows([(0.5, 0.5, 0.5)]))
    with pytest.raises(ValueError):
        pege_loss(np.full_like(logits, np.inf), targets, u1, polarity, turns, mat)
    with pytest.raises(ValueError):
        pege_loss(logits, [0] * 3, u1, polarity, turns, mat)


def test_per_row_call_equals_per_example_calls():
    # one call over several examples' rows, each row with its example's
    # opener, polarity and context turns, sums the examples' own calls
    rng = np.random.default_rng(17)
    config = PegeConfig()
    V = 9
    mat = matrix_from_rows(rng.uniform(0.0, 1.0, size=(V, 3)))
    cases = [random_case(rng, V=V)[:5] for _ in range(4)]
    singles = [pege_loss(*case, mat, config) for case in cases]
    steps = [len(case[0]) for case in cases]
    row = np.repeat(np.arange(len(cases)), steps)
    batched = pege_loss(
        np.concatenate([c[0] for c in cases]),
        np.concatenate([c[1] for c in cases]),
        np.array([c[2] for c in cases])[row],
        [cases[i][3] for i in row],
        np.array([c[4] for c in cases])[row],
        mat,
        config,
    )
    for field in ("nll", "peg", "ner", "total"):
        expected = sum(getattr(b, field) for b in singles)
        assert getattr(batched, field) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    expected = np.concatenate([b.grad_logits for b in singles])
    np.testing.assert_allclose(batched.grad_logits, expected, rtol=1e-12, atol=1e-15)


def test_per_row_arguments_are_validated():
    rng = np.random.default_rng(6)
    logits, targets, u1, polarity, turns, mat = random_case(rng, T=3, V=4)
    good = pege_loss(logits, targets, [u1] * 3, [polarity] * 3, [turns] * 3, mat)
    assert good.total == pytest.approx(pege_loss(logits, targets, u1, polarity, turns, mat).total)
    bad_rows = [
        ([u1] * 2, polarity, turns),  # one opener too few
        (u1, [polarity] * 4, turns),  # one polarity too many
        (u1, [polarity, polarity, "pos"], turns),
        (u1, polarity, [turns] * 2),
        (u1, polarity, [1, -1, 2]),
        (u1, polarity, [True, False, True]),
        (u1, polarity, [0.5, 1.0, 2.0]),
        (np.full((3, 3), 1.5), polarity, turns),  # outside the unit cube
    ]
    for args in bad_rows:
        with pytest.raises(ValueError):
            pege_loss(logits, targets, *args, mat)


def test_grad_is_finite_when_distance_vanishes():
    # identical rows force E[vad] = u1_mean, so every ED_t is exactly zero;
    # the guarded gradient must stay finite and the peg pull must vanish
    mat = matrix_from_rows([(0.5, 0.5, 0.5)] * 4)
    logits = np.random.default_rng(1).normal(size=(3, 4))
    polarity = PolarityDistribution(0.7, 0.2, 0.1)
    got = pege_loss(logits, [0, 1, 2], np.array([0.5, 0.5, 0.5]), polarity, 1, mat)
    assert got.peg == 0.0
    assert np.all(np.isfinite(got.grad_logits))


# ---------------------------------------------------------- gradient check


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    config = PegeConfig(alpha=5.0, beta=2.0)
    for _ in range(4):
        logits, targets, u1, polarity, turns, mat = random_case(rng)

        def loss_at(point):
            return pege_loss(point, targets, u1, polarity, turns, mat, config).total

        got = pege_loss(logits, targets, u1, polarity, turns, mat, config)
        err = finite_diff_check(loss_at, logits, got.grad_logits, eps=1e-5)
        assert err <= 1e-4, f"max relative gradient error {err}"


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 here, so the reference has no extra precision",
)
def test_gradient_check_suite_has_no_false_alarm_on_seeds_0_to_39():
    # differences of float64 losses read 6.0e-4 (seed 30) and 1.24e-4 (seed 9)
    # on these correct gradients, from their own rounding
    errors = {seed: gradient_check_suite(seed=seed) for seed in range(40)}
    assert not {seed: e for seed, e in errors.items() if e > 1e-4}


def test_longdouble_logits_keep_their_dtype_on_the_loss_path():
    logits, targets, u1, polarity, turns, mat = random_case(np.random.default_rng(5))
    wide = pege_loss(logits.astype(np.longdouble), targets, u1, polarity, turns, mat)
    narrow = pege_loss(logits, targets, u1, polarity, turns, mat)
    for field in ("nll", "peg", "ner", "total"):
        assert isinstance(getattr(wide, field), np.longdouble)
        assert type(getattr(narrow, field)) is float
        assert getattr(wide, field) == pytest.approx(getattr(narrow, field), rel=1e-12)
    assert wide.grad_logits.dtype == np.longdouble


def test_finite_diff_check_flags_wrong_gradient():
    rng = np.random.default_rng(8)
    logits, targets, u1, polarity, turns, mat = random_case(rng, T=2, V=5)

    def loss_at(point):
        return pege_loss(point, targets, u1, polarity, turns, mat).total

    got = pege_loss(logits, targets, u1, polarity, turns, mat)
    err = finite_diff_check(loss_at, logits, got.grad_logits + 0.05, eps=1e-5)
    assert err > 1e-4


def test_finite_diff_check_validation():
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(3), np.zeros(3), eps=0.0)
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: 0.0, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        finite_diff_check(lambda x: float("nan"), np.zeros(2), np.zeros(2))


def test_config_validation():
    for bad in ({"alpha": True}, {"beta": False}):
        with pytest.raises(ValueError):
            PegeConfig(**bad)  # booleans are not real numbers
    with pytest.raises(ValueError):
        PegeConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        PegeConfig(beta=float("nan"))
    with pytest.raises(ValueError):
        PegeConfig(max_turn=0)
