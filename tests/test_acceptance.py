"""Acceptance gate: one test, one printed verdict line, per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 6 and 7 train
real models via the session fixtures in conftest.py and take a few minutes;
everything else is sub-second.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from emoguide.cli import main as cli_main
from emoguide.config import default_run_config
from emoguide.corpus import WORD_BANK, Dialog, Utterance, filter_dialogs
from emoguide.metrics import bleu, distinct_n, e_score, evaluate_run, peg_score, pege_score
from emoguide.model import DecodeConfig
from emoguide.objective import (
    PegeConfig,
    dialog_progress,
    finite_diff_check,
    gradient_check_suite,
    nll_loss,
    pege_loss,
)
from emoguide.polarity import PolarityDistribution
from emoguide.selfchat import SelfChatConfig, load_seed_utterances, self_chat
from emoguide.vad import VadMatrix
from oracles import emotional_distance, ner_loss, peg_loss, softmax


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = gradient_check_suite(seed=0, cases=10)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "gradient fidelity",
        worst <= 1e-4 and elapsed < 10.0,
        f"max rel error {worst:.3e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_loss_component_oracles():
    failures = []

    def close(label, actual, expected, tol=1e-9):
        if not abs(actual - expected) <= tol:
            failures.append(f"{label}: {actual!r} != {expected!r}")

    # emotional distance
    m_ed = VadMatrix(values=np.array([[0.6, 0.3, 0.4]]))
    close("ed single coordinate", emotional_distance((0.2, 0.3, 0.4), np.array([1.0]), m_ed), 0.4)
    close("ed identity", emotional_distance((0.6, 0.3, 0.4), np.array([1.0]), m_ed), 0.0)
    m_mid = VadMatrix(values=np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    close(
        "ed uniform midpoint",
        emotional_distance((0.0, 0.0, 0.0), np.array([0.5, 0.5]), m_mid),
        math.sqrt(0.75),
    )

    # progress schedule
    close("progress start", dialog_progress(0), 1.0)
    close("progress end", dialog_progress(7, 7), -1.0)
    close("progress one turn", dialog_progress(1, 7), math.cos(math.pi / 7))

    # guidance term
    close("peg positive opener", peg_loss(1.0, (0.1, 0.3), -0.77), 0.4)
    close("peg scheduled", peg_loss(0.0, (0.2, 0.2), -1.0), -0.4)
    close("peg blended", peg_loss(0.5, (0.4,), 0.5), 0.3)

    # regularizer term
    m_345 = VadMatrix(values=np.array([[0.3, 0.4, 0.0]]))
    close("ner 3-4-5 norm", ner_loss(1.0, [np.array([1.0])], m_345), 0.5)
    close("ner zero weight", ner_loss(0.0, [np.array([1.0])], m_345), 0.0)
    m_z = VadMatrix(values=np.array([[0.0, 0.0, 1.0]]))
    close("ner two steps", ner_loss(0.5, [np.array([1.0]), np.array([1.0])], m_z), 1.0)

    # likelihood term
    peaked = np.full((1, 8), -20.0)
    peaked[0, 3] = 20.0
    close("nll certainty limit", nll_loss(peaked, [3]), 0.0)
    close("nll uniform", nll_loss(np.zeros((1, 8)), [5]), math.log(8))
    close("nll additivity", nll_loss(np.zeros((2, 8)), [1, 6]), 2 * math.log(8))

    # composite loss
    rng = np.random.default_rng(5)
    matrix = VadMatrix(values=rng.uniform(size=(8, 3)))
    logits = rng.normal(scale=2.0, size=(3, 8)).astype(np.float64)
    targets = [2, 7, 0]
    u1 = (0.3, 0.6, 0.4)
    pol_pos = PolarityDistribution(p_pos=1.0, p_neg=0.0, p_neu=0.0)

    off = pege_loss(logits, targets, u1, pol_pos, 2, matrix, PegeConfig(alpha=0.0, beta=0.0))
    if off.total != off.nll:
        failures.append(f"alpha=beta=0 total {off.total!r} != nll {off.nll!r}")

    bd = pege_loss(logits, targets, u1, pol_pos, 2, matrix, PegeConfig())
    eds = [emotional_distance(u1, softmax(logits[t]), matrix) for t in range(3)]
    close("composite positive degeneracy", bd.total, bd.nll + 5.0 * sum(eds))

    pol_mixed = PolarityDistribution(p_pos=0.2, p_neg=0.5, p_neu=0.3)
    bd_rand = pege_loss(logits, targets, u1, pol_mixed, 3, matrix, PegeConfig())

    def loss_at(point):
        return pege_loss(point, targets, u1, pol_mixed, 3, matrix, PegeConfig()).total

    fd_err = finite_diff_check(loss_at, logits, bd_rand.grad_logits)
    if fd_err > 1e-4:
        failures.append(f"composite finite-diff error {fd_err:.3e} > 1e-4")

    # gradient-check harness on a known-gradient function and an injected fault
    point = rng.normal(size=(3, 4))
    quad_err = finite_diff_check(lambda x: float((x**2).sum()), point, 2.0 * point)
    if quad_err > 1e-9:
        failures.append(f"quadratic check error {quad_err:.3e} > 1e-9")
    corrupted = bd_rand.grad_logits.copy()
    corrupted[0, 0] += 0.1
    fault_err = finite_diff_check(loss_at, logits, corrupted)
    if fault_err <= 1e-2:
        failures.append(f"injected fault not flagged: {fault_err:.3e}")

    # composite identity over random inputs
    worst_identity = 0.0
    for _ in range(1000):
        t_steps = int(rng.integers(1, 5))
        v_size = int(rng.integers(4, 17))
        mat = VadMatrix(values=rng.uniform(size=(v_size, 3)))
        lg = rng.normal(scale=2.0, size=(t_steps, v_size))
        tg = rng.integers(0, v_size, size=t_steps).tolist()
        weights = rng.dirichlet(np.ones(3))
        pol = PolarityDistribution(p_pos=weights[0], p_neg=weights[1], p_neu=weights[2])
        b = pege_loss(lg, tg, rng.uniform(size=3), pol, int(rng.integers(0, 10)), mat)
        worst_identity = max(worst_identity, abs(b.total - (b.nll + 5.0 * b.peg - 2.0 * b.ner)))
    if worst_identity > 1e-9:
        failures.append(f"composite identity worst {worst_identity:.3e} > 1e-9")

    _verdict(
        2,
        "loss-component oracles",
        not failures,
        "; ".join(failures) or f"all component oracles ok, identity worst {worst_identity:.2e}",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_progress_function_contract():
    values = [dialog_progress(k, 7) for k in range(8)]
    endpoints = abs(values[0] - 1.0) <= 1e-12 and abs(values[7] + 1.0) <= 1e-12
    monotone = all(a > b for a, b in zip(values, values[1:]))
    _verdict(
        3,
        "progress-function contract",
        endpoints and monotone,
        f"f(0)={values[0]}, f(7)={values[7]}, strictly decreasing={monotone}",
    )


# --------------------------------------------------------------- criterion 4


def _brute_mean(lexicon, tokens):
    rows = [lexicon.lookup(w) for w in tokens]
    n = len(rows)
    return (
        sum(r.valence for r in rows) / n,
        sum(r.arousal for r in rows) / n,
        sum(r.dominance for r in rows) / n,
    )


def _brute_peg(lexicon, dialog):
    utts = dialog.utterances
    tail = utts[len(utts) - math.ceil(len(utts) / 2):]
    per = [_brute_mean(lexicon, u.tokens) for u in tail if u.speaker == "user"]
    mean = tuple(sum(p[i] for p in per) / len(per) for i in range(3))
    return sum(mean[i] - 0.5 for i in range(3))


def _brute_e(lexicon, dialog):
    utts = dialog.utterances
    u1 = _brute_mean(lexicon, utts[0].tokens)
    per = [_brute_mean(lexicon, u.tokens) for u in utts[: len(utts) // 2] if u.speaker == "agent"]
    mean = tuple(sum(p[i] for p in per) / len(per) for i in range(3))
    return -sum(abs(u1[i] - mean[i]) for i in range(3))


def test_criterion_4_metric_oracles():
    lexicon = default_run_config().lexicon()

    def dialog(*texts):
        return Dialog(
            source_id="mini",
            utterances=tuple(
                Utterance("user" if i % 2 == 0 else "agent", t) for i, t in enumerate(texts)
            ),
        )

    minis = [
        dialog("happy great day", "glad warm smile", "joy wonderful", "calm fine"),
        dialog("awful zzq terrible", "sad lonely", "tired dull", "warm kind", "relieved happy"),
        dialog("day time thing", "work stuff place", "fine okay", "good nice", "great fantastic", "calm"),
        dialog(
            "angry upset mess",
            "sorry rough patch",
            "tense unsure",
            "steady kind words",
            "hopeful lighter",
            "glad easier",
            "cheerful bright thanks",
        ),
        dialog(
            "bored plain evening",
            "quiet simple night",
            "meh okay stuff",
            "warm comfy ideas",
            "curious happier now",
            "lovely gentle plan",
            "excited grateful",
            "delighted wonderful",
        ),
    ]

    worst = 0.0
    for d in minis:
        peg = peg_score(d, lexicon)
        e = e_score(d, lexicon)
        worst = max(
            worst,
            abs(peg - _brute_peg(lexicon, d)),
            abs(e - _brute_e(lexicon, d)),
            abs(pege_score(peg, e) - (_brute_peg(lexicon, d) + _brute_e(lexicon, d))),
        )
    table3 = pege_score(0.160, -0.126) == 0.034 and pege_score(0.090, -0.185) == -0.095
    _verdict(
        4,
        "metric oracles",
        worst <= 1e-12 and table3,
        f"brute-force worst diff {worst:.2e} over {len(minis)} dialogs, table consistency {table3}",
    )


# --------------------------------------------------------------- criterion 5


def _words(band, k0, k1):
    return " ".join(w for w, _, _, _ in WORD_BANK[band][k0:k1])


def _clean_dialog(idx, start_band):
    return Dialog(
        source_id=f"clean-{idx}",
        utterances=(
            Utterance("user", _words(start_band, 0, 3)),
            Utterance("agent", _words("positive", 0, 3)),
            Utterance("user", _words(start_band, 3, 6)),
            Utterance("agent", _words("positive", 3, 6)),
            Utterance("user", _words("very_positive", 0, 3)),
        ),
    )


def _violator(idx, opener=None, closer=None, middle=None):
    return Dialog(
        source_id=f"viol-{idx}",
        utterances=(
            Utterance("user", opener or _words("negative", 0, 3)),
            Utterance("agent", middle or _words("positive", 0, 3)),
            Utterance("user", _words("neutral", 0, 2)),
            Utterance("agent", _words("positive", 3, 5)),
            Utterance("user", closer or _words("very_positive", 0, 3)),
        ),
    )


def test_criterion_5_pipeline_fixture():
    run = default_run_config()
    classifier = run.classifier()
    rules = run.filter_rules()

    ends_with_agent = Dialog(
        source_id="viol-1",
        utterances=(
            Utterance("user", _words("negative", 0, 3)),
            Utterance("agent", _words("positive", 0, 3)),
            Utterance("user", _words("very_positive", 0, 3)),
            Utterance("agent", _words("positive", 3, 6)),
        ),
    )
    fixture = [
        _clean_dialog(0, "negative"),
        ends_with_agent,
        _clean_dialog(1, "neutral"),
        _violator(2, opener="good day day"),
        _clean_dialog(2, "positive"),
        _violator(3, closer="good nice fine"),
        _clean_dialog(3, "negative"),
        _violator(4, middle="invoice deadline ugh"),
        _clean_dialog(4, "neutral"),
        _violator(5, middle="call 555-0199 tonight"),
        _clean_dialog(5, "positive"),
        _violator(6, middle="stupid stuff happens"),
    ]

    retained, report = filter_dialogs(fixture, classifier, rules)
    counts_ok = len(retained) == 6 and report.rejections == (1, 1, 1, 1, 1, 1)
    survivors_ok = all(d.source_id.startswith("clean") for d in retained)

    again, report2 = filter_dialogs(retained, classifier, rules)
    idempotent = again == retained and sum(report2.rejections) == 0

    # thresholds are strict: probability mass exactly at 0.5 / 0.9 is rejected
    probs = {
        "amb": (0.25, 0.25, 0.50),
        "conf": (0.60, 0.20, 0.20),
        "edge": (0.90, 0.05, 0.05),
        "pass": (0.51, 0.29, 0.20),
        "over": (0.91, 0.05, 0.04),
        "mid": (0.40, 0.30, 0.30),
    }

    def stub_classify(tokens):
        p_pos, p_neg, p_neu = probs[tokens[0]]
        return PolarityDistribution(p_pos=p_pos, p_neg=p_neg, p_neu=p_neu)

    def three(opener, closer):
        return Dialog(
            source_id="edge",
            utterances=(
                Utterance("user", opener),
                Utterance("agent", "mid words"),
                Utterance("user", closer),
            ),
        )

    _, rep_first = filter_dialogs([three("amb words", "over words")], stub_classify, rules)
    _, rep_last = filter_dialogs([three("conf words", "edge words")], stub_classify, rules)
    kept, rep_ok = filter_dialogs([three("pass words", "over words")], stub_classify, rules)
    boundary_ok = (
        rep_first.rejections[1] == 1
        and rep_last.rejections[2] == 1
        and len(kept) == 1
        and sum(rep_ok.rejections) == 0
    )

    _verdict(
        5,
        "pipeline fixture",
        counts_ok and survivors_ok and idempotent and boundary_ok,
        f"retained {len(retained)}/12, rejections {report.rejections}, "
        f"idempotent={idempotent}, strict thresholds={boundary_ok}",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_training_sanity(experiment_data, nll_agent, agent_trainer):
    drop = (nll_agent.init_nll - nll_agent.final_nll) / nll_agent.init_nll

    rerun = agent_trainer(experiment_data, "nll_only", seed=11)
    logs_equal = rerun.log == nll_agent.log

    elapsed = nll_agent.seconds + rerun.seconds
    _verdict(
        6,
        "training sanity",
        drop >= 0.30 and logs_equal and elapsed < 300.0,
        f"held-out NLL {nll_agent.init_nll:.3f} -> {nll_agent.final_nll:.3f} "
        f"(drop {drop:.1%}), identical logs={logs_equal}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_ablation_direction(experiment_data, nll_agent, full_agent, user_model):
    run = default_run_config()
    seeds = load_seed_utterances(run.path("seeds"))
    mix = Counter(s.polarity for s in seeds)
    assert len(seeds) == 100 and mix == {"negative": 33, "neutral": 34, "positive": 33}

    chat_config = SelfChatConfig(
        seeds=seeds,
        turns=10,
        decode=DecodeConfig(mode="greedy", max_tokens=12),
        rng_seed=0,
    )

    t0 = time.perf_counter()
    reports = {}
    for name, agent in (("full", full_agent), ("nll_only", nll_agent)):
        chats = self_chat(agent.model, user_model.model, chat_config, experiment_data.classifier)
        reports[name] = evaluate_run(chats, experiment_data.lexicon)
        assert reports[name].skipped == 0 and reports[name].n_dialogs == 100
    chat_seconds = time.perf_counter() - t0

    def margin(attr):
        a = np.array([getattr(d, attr) for d in reports["full"].breakdown])
        b = np.array([getattr(d, attr) for d in reports["nll_only"].breakdown])
        diff = a.mean() - b.mean()
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        return diff, se

    peg_diff, peg_se = margin("peg")
    pege_diff, pege_se = margin("pege")
    total_seconds = (
        full_agent.seconds + nll_agent.seconds + user_model.seconds + chat_seconds
    )
    _verdict(
        7,
        "ablation direction",
        peg_diff > peg_se and pege_diff > pege_se and total_seconds < 1200.0,
        f"PEG {reports['full'].peg_score:+.3f} vs {reports['nll_only'].peg_score:+.3f} "
        f"(diff {peg_diff:+.3f} > SE {peg_se:.3f}), "
        f"PEGE {reports['full'].pege_score:+.3f} vs {reports['nll_only'].pege_score:+.3f} "
        f"(diff {pege_diff:+.3f} > SE {pege_se:.3f}), {total_seconds:.0f}s",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_bleu_distinct_sanity():
    cands = [["good", "morning", "friend"], ["calm", "quiet", "day"]]
    identical = bleu(cands, cands, 1) == 100.0 and bleu(cands, cands, 2) == 100.0
    hand_counts = (
        distinct_n(["happy calm bright"], 1) == 1.0
        and distinct_n(["a a a a"], 1) == 1 / 4
        and distinct_n(["a b a b"], 2) == 2 / 3
    )
    _verdict(
        8,
        "bleu/distinct sanity",
        identical and hand_counts,
        f"identical-list bleu ok={identical}, hand counts ok={hand_counts}",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    seeds = root / "seeds.jsonl"
    seeds.write_text(
        '{"text": "awful terrible day", "polarity": "negative"}\n'
        '{"text": "just a plain morning", "polarity": "neutral"}\n'
        '{"text": "wonderful happy news", "polarity": "positive"}\n'
    )
    config = root / "run.json"
    config.write_text(
        json.dumps(
            {
                "seed": 13,
                "model": {"embed_dim": 8, "hidden_dim": 12, "context_window": 64},
                "train": {"learning_rate": 0.01, "batch_size": 4, "max_steps": 3},
                "synth": {"num_dialogs": 12},
                "selfchat": {"turns": 2, "decode": {"mode": "greedy", "max_tokens": 5}},
                "paths": {"seeds": str(seeds)},
            }
        )
    )

    def run_twice(label, argv_of):
        out_a, out_b = root / f"{label}_a", root / f"{label}_b"
        assert cli_main(argv_of(out_a)) == 0
        assert cli_main(argv_of(out_b)) == 0
        return out_a, out_a.read_bytes() == out_b.read_bytes()

    corpus, synth_ok = run_twice("synth", lambda o: ["synth", str(config), "-o", str(o)])
    ckpt, train_ok = run_twice(
        "train", lambda o: ["train", str(config), "--corpus", str(corpus), "-o", str(o)]
    )
    chats, chat_ok = run_twice(
        "selfchat", lambda o: ["selfchat", str(ckpt), str(ckpt), str(config), "-o", str(o)]
    )
    _, eval_ok = run_twice("eval", lambda o: ["eval", str(chats), str(config), "-o", str(o)])

    _verdict(
        9,
        "determinism",
        synth_ok and train_ok and chat_ok and eval_ok,
        f"byte-identical reruns: synth={synth_ok} train={train_ok} "
        f"selfchat={chat_ok} eval={eval_ok}",
    )
