"""The benchmark's three workloads and the per-layer tracing they share.

Each workload builds its inputs from the workload seed and then goes
through the same phases, driven by ``run.py``:

  fixture()    untimed inputs the set-up reads (self-chat checkpoints)
  setup()      timed; the work a user pays before the first operation.
               Repeated between passes, so it must leave the state the
               passes use as it was
  warm_up()    untimed; the first train() call in a process runs ~15%
               slower than later ones
  run_pass(i)  one timed pass and its output checks
  finish()     checks that need the whole run; named results

An operation is one train step, one self-chat dialog or one corpus
dialog; an item is one train example, one self-chat dialog or one corpus
dialog.  Tokens are the stream tokens of the examples trained on (the
corpus mean per example times the examples), the reply tokens generated,
or the word tokens of the corpus dialogs.

Why these workloads: ``train`` runs batched model forward/backward, the
objective and Adam, and no generation or corpus code; ``selfchat`` runs the
same model one token at a time with no backward, objective or Adam, so a
recurrent-kernel change that helps one and costs the other shows; ``corpus``
is the only workload that runs the corpus, polarity, VAD and metrics
layers, and no model at all.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from emoguide import corpus as corpus_mod
from emoguide import metrics as metrics_mod
from emoguide import model as model_mod
from emoguide import polarity as polarity_mod
from emoguide import selfchat as selfchat_mod
from emoguide.config import default_run_config
from emoguide.corpus import SynthConfig, corpus_words
from emoguide.selfchat import SeedUtterance
from emoguide.train import TrainConfig, TrainingDivergedError
from emoguide.vad import tokenize
from emoguide.vocab import SPECIAL_TOKENS, build_vocab

# the package exports a function named ``train`` that hides the module
train_mod = importlib.import_module("emoguide.train")

from inject import Injector
from spans import Tracer, self_time_by_name

TRAIN_DIALOGS = 400  # ~1350 agent-side examples
HELDOUT_DIALOGS = 100
TRAIN_CHUNK_STEPS = 25  # one timed train() call
TRAIN_FIXED_STEPS = 100  # held-out NLL is taken after this many steps
TRAIN_WARMUP_STEPS = 10

# Every self-chat run serves the same two models, trained from a fixed
# seed; the workload seed picks the openers.  Models trained from the
# workload seed replied with 2.5 to 3.7 tokens on average, depending on the
# seed, which moved dialogs/s more than the machine's own noise does.
FIXTURE_SEED = 0
FIXTURE_DIALOGS = 400
FIXTURE_STEPS = 300  # replies average ~3 tokens; untrained models hit the 12-token cap
SELFCHAT_OPENERS = 60
SELFCHAT_BATCH = 10  # dialogs per self_chat() call, one pass each

CORPUS_DIALOGS = 2000  # dialogs per pass
CORPUS_WARMUP_DIALOGS = 200
INJECT_SHARE = 0.12  # 2% of dialogs per filter rule


def derive(seed: int, *path: int) -> int:
    """Independent sub-seed for one input of the run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Pass:
    seconds: float  # timed part only
    ops: int
    items: int
    tokens: float
    failed: int  # operations whose output check failed


# ------------------------------------------------------------------ train


class TrainWorkload:
    """Timed train() calls with the full objective at the default model size."""

    min_passes = TRAIN_FIXED_STEPS // TRAIN_CHUNK_STEPS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.run = default_run_config()
        self.steps_done = 0
        self.heldout_init = self.heldout_final = None

    def fixture(self) -> None:
        pass

    def setup(self) -> None:
        synth = corpus_mod.synthesize_corpus
        dialogs = synth(SynthConfig(num_dialogs=TRAIN_DIALOGS), derive(self.seed, 1))
        heldout = synth(SynthConfig(num_dialogs=HELDOUT_DIALOGS), derive(self.seed, 2))
        self.classifier = self.run.classifier()
        prepare = corpus_mod.prepare_training_examples
        self.examples = [ex for d in dialogs for ex in prepare(d, self.classifier)]
        self.heldout = [ex for d in heldout for ex in prepare(d, self.classifier)]
        vocab = build_vocab(corpus_words(dialogs + heldout))
        self.model = model_mod.init_model(
            self.run.model_config(len(vocab)), seed=derive(self.seed, 3), vocab=vocab
        )

    def warm_up(self) -> None:
        window = self.model.config.context_window
        self.mean_stream = float(
            np.mean([len(train_mod.encode_example(ex, self.model.vocab, window).ids) for ex in self.examples])
        )
        throwaway = self.model.astype(self.model.dtype)
        self._train(throwaway, TRAIN_WARMUP_STEPS, derive(self.seed, 4))
        self.heldout_init = train_mod.evaluate_nll(self.model, self.heldout)
        # passes train this one; later set-ups replace self.model
        self.trained = self.model

    def _train(self, model, steps: int, seed: int):
        config = TrainConfig(max_steps=steps, ablation="full", seed=seed)
        return train_mod.train(model, self.examples, config, self.run.pege_config(), self.classifier.lexicon)

    def run_pass(self, index: int) -> Pass:
        steps = TRAIN_CHUNK_STEPS
        start = perf_counter()
        try:
            _, log = self._train(self.trained, steps, derive(self.seed, 5, index))
            failed = sum(
                not all(math.isfinite(v) for v in (e.nll, e.peg, e.ner, e.total)) for e in log
            )
        except TrainingDivergedError:
            failed = steps
        seconds = perf_counter() - start
        self.steps_done += steps
        if self.steps_done == TRAIN_FIXED_STEPS:
            self.heldout_final = train_mod.evaluate_nll(self.trained, self.heldout)
        batch = TrainConfig().batch_size
        return Pass(seconds, steps, steps * batch, steps * batch * self.mean_stream, failed)

    def finish(self, items_per_s: float, tokens_per_s: float) -> tuple[int, dict]:
        improved = self.heldout_final is not None and self.heldout_final < self.heldout_init
        named = {
            "train_examples_per_s": (items_per_s, "1/s"),
            "train_heldout_nll": (self.heldout_final, "nats"),
            "train_heldout_nll_init": (self.heldout_init, "nats"),
        }
        return (0 if improved else TRAIN_FIXED_STEPS), named


# --------------------------------------------------------------- selfchat


def fixture_key() -> str:
    """Digest of the emoguide sources and the fixture recipe."""
    h = hashlib.sha256(repr((FIXTURE_SEED, FIXTURE_DIALOGS, FIXTURE_STEPS)).encode())
    package = Path(corpus_mod.__file__).parent
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def train_fixture_models(fixture_dir: Path) -> None:
    """Train the agent (full objective) and the user (likelihood only) and
    store them in ``fixture_dir``, where later runs of the same sources find
    them."""
    run = default_run_config()
    classifier = run.classifier()
    dialogs = corpus_mod.synthesize_corpus(SynthConfig(num_dialogs=FIXTURE_DIALOGS), FIXTURE_SEED)
    vocab = build_vocab(corpus_words(dialogs))
    scratch = fixture_dir.with_name(f"{fixture_dir.name}.tmp-{os.getpid()}")
    scratch.mkdir()
    sides = (
        ("agent.ckpt", corpus_mod.prepare_training_examples, "full", 1),
        ("user.ckpt", corpus_mod.prepare_user_side_examples, "nll_only", 2),
    )
    for filename, prepare, ablation, k in sides:
        examples = [ex for d in dialogs for ex in prepare(d, classifier)]
        model = model_mod.init_model(run.model_config(len(vocab)), seed=derive(FIXTURE_SEED, k), vocab=vocab)
        config = TrainConfig(max_steps=FIXTURE_STEPS, ablation=ablation, seed=derive(FIXTURE_SEED, k, 1))
        train_mod.train(model, examples, config, run.pege_config(), classifier.lexicon)
        model_mod.save_checkpoint(scratch / filename, model)
    scratch.rename(fixture_dir)


def transcript_digest(dialogs) -> str:
    records = [corpus_mod.dialog_to_record(d) for d in dialogs]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


class SelfChatWorkload:
    """self_chat() over seeded openers with greedy decoding, then evaluate_run.

    The openers are split into batches of ``SELFCHAT_BATCH``, one self_chat()
    call each; passes cycle through the batches, so from the second cycle on
    every pass repeats an earlier call and must reproduce its transcript.
    """

    min_passes = SELFCHAT_OPENERS // SELFCHAT_BATCH + 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.run = default_run_config()
        self.fixture_dir = workdir / f"selfchat-fixture-{fixture_key()}"
        self.agent_path = self.fixture_dir / "agent.ckpt"
        self.user_path = self.fixture_dir / "user.ckpt"
        self.transcripts: dict[int, list] = {}  # batch -> first transcript

    def fixture(self) -> None:
        if not self.fixture_dir.is_dir():
            # a child process, so the training's memory stays out of peak_rss_mb
            env = {**os.environ, "PYTHONPATH": str(Path(corpus_mod.__file__).parents[1])}
            subprocess.run([sys.executable, __file__, str(self.fixture_dir)], env=env, check=True)
        classifier = self.run.classifier()
        openers = corpus_mod.synthesize_corpus(SynthConfig(num_dialogs=SELFCHAT_OPENERS), derive(self.seed, 1))
        seeds = [SeedUtterance(d.utterances[0].text, classifier.label(d.utterances[0].tokens)) for d in openers]
        self.batches = [seeds[i : i + SELFCHAT_BATCH] for i in range(0, len(seeds), SELFCHAT_BATCH)]

    def setup(self) -> None:
        self.agent = model_mod.load_checkpoint(self.agent_path)
        self.user = model_mod.load_checkpoint(self.user_path)
        self.classifier = self.run.classifier()
        self.configs = [self.run.selfchat_config(batch) for batch in self.batches]

    def warm_up(self) -> None:
        config = self.run.selfchat_config(self.batches[0][:4])
        selfchat_mod.self_chat(self.agent, self.user, config, self.classifier)

    def run_pass(self, index: int) -> Pass:
        b = index % len(self.batches)
        config = self.configs[b]
        start = perf_counter()
        dialogs = selfchat_mod.self_chat(self.agent, self.user, config, self.classifier, threads=1)
        try:
            metrics_mod.evaluate_run(dialogs, self.classifier.lexicon)
            scored = True
        except ValueError:
            scored = False
        seconds = perf_counter() - start
        expected = len(config.seeds)
        failed = expected - len(dialogs)
        failed += sum(not self._dialog_ok(d, s, config.turns) for d, s in zip(dialogs, config.seeds))
        first = self.transcripts.setdefault(b, dialogs)
        if not scored or transcript_digest(dialogs) != transcript_digest(first):
            failed = expected
        replies = sum(len(u.text.split()) for d in dialogs for u in d.utterances[1:])
        return Pass(seconds, len(dialogs), len(dialogs), replies, failed)

    @staticmethod
    def _dialog_ok(dialog, seed: SeedUtterance, turns: int) -> bool:
        utts = dialog.utterances
        return (
            len(utts) == 2 * turns
            and utts[0].text == " ".join(tokenize(seed.text))
            and not any(w in SPECIAL_TOKENS for u in utts for w in u.text.split())
        )

    def finish(self, items_per_s: float, tokens_per_s: float) -> tuple[int, dict]:
        dialogs = [d for b in sorted(self.transcripts) for d in self.transcripts[b]]
        try:
            report = metrics_mod.evaluate_run(dialogs, self.classifier.lexicon)
        except ValueError:  # already counted as failed passes
            report = None
        score = lambda field: getattr(report, field) if report else None
        named = {
            "selfchat_dialogs_per_s": (items_per_s, "1/s"),
            "selfchat_reply_tokens_per_s": (tokens_per_s, "1/s"),
            "selfchat_pege_score": (score("pege_score"), "score"),
            "selfchat_peg_score": (score("peg_score"), "score"),
            "selfchat_e_score": (score("e_score"), "score"),
            "selfchat_reply_tokens_mean": (
                np.mean([len(u.text.split()) for d in dialogs for u in d.utterances[1:]]),
                "count",
            ),
        }
        return 0, named


# ----------------------------------------------------------------- corpus


class CorpusWorkload:
    """synthesize -> save -> load -> filter -> prepare -> evaluate_run."""

    min_passes = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.run = default_run_config()
        self.path = workdir / f"corpus-{seed}.jsonl"

    def fixture(self) -> None:
        self.injector = Injector(self.run.filter_rules(), self.run.classifier())

    def setup(self) -> None:
        self.classifier = self.run.classifier()
        self.rules = self.run.filter_rules()

    def warm_up(self) -> None:
        self._pipeline(CORPUS_WARMUP_DIALOGS, derive(self.seed, 1))

    def run_pass(self, index: int) -> Pass:
        return self._pipeline(CORPUS_DIALOGS, derive(self.seed, 2, index))

    def _pipeline(self, n: int, seed: int) -> Pass:
        start = perf_counter()
        dialogs = corpus_mod.synthesize_corpus(SynthConfig(num_dialogs=n), seed)
        synth_seconds = perf_counter() - start
        dialogs, injected = self.injector.inject(dialogs, INJECT_SHARE, np.random.default_rng(seed))
        start = perf_counter()
        corpus_mod.save_corpus(self.path, dialogs)
        loaded = corpus_mod.load_corpus(self.path)
        retained, report = corpus_mod.filter_dialogs(loaded, self.classifier, self.rules)
        prepare = corpus_mod.prepare_training_examples
        examples = [ex for d in retained for ex in prepare(d, self.classifier)]
        metrics_mod.evaluate_run(retained, self.classifier.lexicon)
        seconds = synth_seconds + perf_counter() - start
        ok = (
            loaded == dialogs
            and report.input_count == n
            and report.retained_count + sum(report.rejections) == n
            and list(report.rejections) == injected
            and len(examples) == sum((len(d.utterances) - 1) // 2 for d in retained)
        )
        tokens = sum(len(u.tokens) for d in dialogs for u in d.utterances)
        return Pass(seconds, n, n, tokens, 0 if ok else n)

    def finish(self, items_per_s: float, tokens_per_s: float) -> tuple[int, dict]:
        self.path.unlink(missing_ok=True)
        return 0, {"corpus_dialogs_per_s": (items_per_s, "1/s")}


WORKLOADS = {"train": TrainWorkload, "selfchat": SelfChatWorkload, "corpus": CorpusWorkload}


# ---------------------------------------------------------------- tracing


def install_tracing(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    state = {"last_step_end": None}

    def on_generate(t, span, args, kwargs, result):
        t.counters["generate.prefill"] += len(args[1])
        t.counters["generate.new"] += len(result)
        t.samples["generate.latency_ms"].append((span.end - span.start) * 1e3)

    def on_assemble(t, span, args, kwargs, result):
        tail = kwargs.get("tail", args[4] if len(args) > 4 else ())
        full = len(args[0]) + sum(len(s) for s in args[1]) + len(tail)
        t.counters["assemble.truncated"] += len(result) < full

    def on_forward(t, span, args, kwargs, result):
        ids = args[1]
        t.counters["forward.pad"] += int((ids == 0).sum())  # pad id 0, as train() pads
        t.counters["forward.positions"] += ids.size

    def on_adam_step(t, span, args, kwargs, result):
        if state["last_step_end"] is not None:
            t.samples["train.step_ms"].append((span.end - state["last_step_end"]) * 1e3)
        state["last_step_end"] = span.end
        t.new_group()

    def on_train(t, span, args, kwargs, result):
        state["last_step_end"] = None  # step gaps never span two train() calls

    def on_save(t, span, args, kwargs, result):
        t.counters["save.bytes"] += Path(args[0]).stat().st_size

    def on_filter(t, span, args, kwargs, result):
        report = result[1]
        t.counters["filter.input"] += report.input_count
        t.counters["filter.retained"] += report.retained_count
        for k, n in enumerate(report.rejections, start=1):
            t.counters[f"filter.rule_{k}"] += n

    def on_prepare(t, span, args, kwargs, result):
        t.counters["prepare.examples"] += len(result)

    targets = [
        (selfchat_mod, "self_chat", "selfchat.self_chat", None, False),
        (selfchat_mod, "_run_dialog", "selfchat.dialog", None, True),
        (selfchat_mod, "generate", "model.generate", on_generate, False),
        (selfchat_mod, "assemble_stream", "vocab.assemble_stream", on_assemble, False),
        (train_mod, "train", "train.train", on_train, True),
        (train_mod, "encode_example", "train.encode", None, False),
        (train_mod, "_forward_cached", "model.forward", on_forward, False),
        (train_mod, "pege_loss", "objective.pege_loss", None, False),
        (train_mod, "backward", "model.backward", None, False),
        (train_mod.Adam, "step", "train.adam_step", on_adam_step, False),
        (polarity_mod, "classify_polarity", "polarity.classify", None, False),
        (corpus_mod, "utterance_mean_vad", "vad.utterance_mean_vad", None, False),
        (metrics_mod, "utterance_mean_vad", "vad.utterance_mean_vad", None, False),
        (corpus_mod, "synthesize_corpus", "corpus.synthesize", None, True),
        (corpus_mod, "save_corpus", "corpus.save", on_save, False),
        (corpus_mod, "load_corpus", "corpus.load", None, False),
        (corpus_mod, "filter_dialogs", "corpus.filter", on_filter, False),
        (corpus_mod, "prepare_training_examples", "corpus.prepare", on_prepare, False),
        (metrics_mod, "evaluate_run", "metrics.evaluate_run", None, False),
    ]
    for owner, attr, name, observe, new_group in targets:
        tracer.wrap(owner, attr, name, observe, new_group)


# (name, unit, better).  Every workload reports every end-to-end metric;
# items and tokens are counted per workload as the module docstring says.
END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("tokens_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# Per-layer values come from the traced phase and are per operation unless
# the unit says otherwise; a layer a workload never calls reads 0.
PER_LAYER = [
    ("model.generate.calls", "count/op", "lower"),
    ("model.generate.latency_ms_p50", "ms", "lower"),
    ("model.generate.latency_ms_p99", "ms", "lower"),
    ("model.generate.self_ms", "ms/op", "lower"),
    ("model.generate.prefill_tokens", "count/op", "lower"),
    ("model.generate.new_tokens", "count/op", "lower"),
    ("model.generate.steps_per_new_token", "ratio", "lower"),
    ("model.forward.self_ms", "ms/op", "lower"),
    ("model.forward.pad_share", "share", "lower"),
    ("model.backward.self_ms", "ms/op", "lower"),
    ("objective.pege_loss.calls", "count/op", "lower"),
    ("objective.pege_loss.self_ms", "ms/op", "lower"),
    ("train.adam_step.self_ms", "ms/op", "lower"),
    ("train.encode.self_ms", "ms/op", "lower"),
    ("train.step_ms_p50", "ms", "lower"),
    ("train.step_ms_p99", "ms", "lower"),
    ("vocab.assemble_stream.calls", "count/op", "lower"),
    ("vocab.assemble_stream.self_ms", "ms/op", "lower"),
    ("vocab.assemble_stream.truncated", "count/op", "lower"),
    ("selfchat.dialog.self_ms", "ms/op", "lower"),
    ("polarity.classify.calls", "count/op", "lower"),
    ("polarity.classify.self_ms", "ms/op", "lower"),
    ("vad.utterance_mean_vad.calls", "count/op", "lower"),
    ("vad.utterance_mean_vad.self_ms", "ms/op", "lower"),
    ("corpus.synthesize.self_ms", "ms/op", "lower"),
    ("corpus.save.self_ms", "ms/op", "lower"),
    ("corpus.save.bytes", "bytes/op", "lower"),
    ("corpus.load.self_ms", "ms/op", "lower"),
    ("corpus.filter.self_ms", "ms/op", "lower"),
    ("corpus.filter.retained_share", "share", "higher"),
    *[(f"corpus.filter.rejected.rule_{k}", "count/op", "lower") for k in range(1, 7)],
    ("corpus.prepare.self_ms", "ms/op", "lower"),
    ("corpus.prepare.examples", "count/op", "higher"),
    ("metrics.evaluate_run.self_ms", "ms/op", "lower"),
    ("trace.overhead.items_per_s", "1/s", "higher"),
    ("trace.overhead.tokens_per_s", "1/s", "higher"),
]


def per_layer_metrics(tracer: Tracer, ops: int, overhead: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced phase that ran ``ops`` operations."""
    own_ms = {name: s * 1e3 for name, s in self_time_by_name(tracer.spans).items()}
    calls = Counter(s.name for s in tracer.spans)
    c = tracer.counters
    per_op = lambda x: x / ops if ops else 0.0

    def pct(key: str, q: float) -> float:
        values = tracer.samples.get(key)
        return float(np.percentile(values, q)) if values else 0.0

    new = c["generate.new"]
    out = {
        "model.generate.calls": per_op(calls["model.generate"]),
        "model.generate.latency_ms_p50": pct("generate.latency_ms", 50),
        "model.generate.latency_ms_p99": pct("generate.latency_ms", 99),
        "model.generate.prefill_tokens": per_op(c["generate.prefill"]),
        "model.generate.new_tokens": per_op(new),
        "model.generate.steps_per_new_token": (c["generate.prefill"] + new) / new if new else 0.0,
        "model.forward.pad_share": c["forward.pad"] / c["forward.positions"] if c["forward.positions"] else 0.0,
        "objective.pege_loss.calls": per_op(calls["objective.pege_loss"]),
        "train.step_ms_p50": pct("train.step_ms", 50),
        "train.step_ms_p99": pct("train.step_ms", 99),
        "vocab.assemble_stream.calls": per_op(calls["vocab.assemble_stream"]),
        "vocab.assemble_stream.truncated": per_op(c["assemble.truncated"]),
        "polarity.classify.calls": per_op(calls["polarity.classify"]),
        "vad.utterance_mean_vad.calls": per_op(calls["vad.utterance_mean_vad"]),
        "corpus.save.bytes": per_op(c["save.bytes"]),
        "corpus.filter.retained_share": c["filter.retained"] / c["filter.input"] if c["filter.input"] else 0.0,
        "corpus.prepare.examples": per_op(c["prepare.examples"]),
        "trace.overhead.items_per_s": overhead["items_per_s"],
        "trace.overhead.tokens_per_s": overhead["tokens_per_s"],
    }
    for k in range(1, 7):
        out[f"corpus.filter.rejected.rule_{k}"] = per_op(c[f"filter.rule_{k}"])
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = per_op(own_ms.get(name[: -len(".self_ms")], 0.0))
    return out


if __name__ == "__main__":
    # python3 perfbench/workloads.py DIR trains the self-chat fixture into DIR
    train_fixture_models(Path(sys.argv[1]))
