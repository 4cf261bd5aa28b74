"""Command-line entry point.

One executable, one subcommand per pipeline stage, files as the only
channel between stages:

    emoguide lexicon stats <lexicon.tsv> <vocab.txt>
    emoguide synth <config.json> -o corpus.jsonl
    emoguide filter <corpus.jsonl> <config.json> -o filtered.jsonl --report report.json
    emoguide train <config.json> --ablation full -o model.ckpt [--log log.jsonl]
    emoguide gradcheck <config.json>
    emoguide selfchat <agent.ckpt> <user.ckpt> <config.json> -o dialogs.jsonl
    emoguide eval <dialogs.jsonl> <config.json> -o report.json

Every run echoes the resolved config (with its hash and seed) as a JSON
line on stdout, and every output file embeds that hash: JSON-lines files
in a leading ``{"meta": ...}`` record, checkpoints in their header, JSON
reports as a field.  Exit codes: 0 success, 1 precondition failure
(missing/invalid inputs, diverged training, gradcheck above tolerance),
2 malformed config or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

# BLAS reads its thread count once, when numpy first loads.  Unless the user
# set one of these, every command runs BLAS on one thread, so that its output
# files do not depend on the host's core count (README, Determinism).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy as np

from . import objective
from .config import ConfigError, RunConfig, load_run_config
from .corpus import (
    corpus_words,
    filter_dialogs,
    load_blocklist,
    load_corpus,
    prepare_training_examples,
    prepare_user_side_examples,
    save_corpus,
    synthesize_corpus,
    write_jsonl,
)
from .metrics import evaluate_run
from .model import init_model, load_checkpoint, model_checksum, save_checkpoint
from .resources import open_output
from .selfchat import load_seed_utterances, self_chat
from .train import ABLATIONS, TrainingDivergedError, train
from .vad import load_lexicon_file
from .vocab import build_vocab

GRADCHECK_TOLERANCE = 1e-4


def _echo(command: str, config: RunConfig) -> None:
    line = {
        "command": command,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "config": config.resolved(),
    }
    print(json.dumps(line, sort_keys=True))


def _meta(command: str, config: RunConfig, **extra) -> dict:
    return {"command": command, "config_hash": config.config_hash(), "seed": config.seed, **extra}


def _write_json(path, payload: dict) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ------------------------------------------------------------- commands


def cmd_lexicon_stats(args) -> int:
    lexicon = load_lexicon_file(args.lexicon)
    tokens = load_blocklist(args.vocab)
    if not tokens:
        raise ValueError(f"{args.vocab}: no tokens")
    cov = lexicon.coverage(tokens)
    print(
        json.dumps(
            {
                "entries": len(lexicon.entries),
                "collisions": lexicon.collisions,
                "vocab_tokens": len(tokens),
                "listed": cov.listed,
                "defaulted": cov.defaulted,
                "fraction_listed": cov.fraction_listed,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_synth(args, config: RunConfig) -> int:
    dialogs = synthesize_corpus(config.synth_config(), seed=config.seed)
    save_corpus(args.output, dialogs, meta=_meta("synth", config, dialogs=len(dialogs)))
    return 0


def cmd_filter(args, config: RunConfig) -> int:
    dialogs = load_corpus(args.corpus)
    retained, report = filter_dialogs(dialogs, config.classifier(), config.filter_rules())
    save_corpus(args.output, retained, meta=_meta("filter", config, **report.to_dict()))
    if args.report:
        _write_json(args.report, {"config_hash": config.config_hash(), **report.to_dict()})
    return 0


def cmd_train(args, config: RunConfig) -> int:
    corpus_path = args.corpus or config.path("corpus")
    if corpus_path is None:
        raise ValueError("no corpus: pass --corpus or set paths.corpus in the config")
    dialogs = load_corpus(corpus_path)
    if not dialogs:
        raise ValueError(f"{corpus_path}: empty corpus")
    classifier = config.classifier()
    prepare = prepare_training_examples if args.side == "agent" else prepare_user_side_examples
    examples = [ex for d in dialogs for ex in prepare(d, classifier)]
    vocab = build_vocab(corpus_words(dialogs))
    model = init_model(config.model_config(len(vocab)), seed=config.seed, vocab=vocab)
    model, log = train(
        model, examples, config.train_config(), config.pege_config(), classifier.lexicon
    )
    save_checkpoint(args.output, model, config_hash=config.config_hash())
    if args.log:
        write_jsonl(args.log, map(asdict, log), meta=_meta("train", config))
    print(
        json.dumps(
            {
                "examples": len(examples),
                "vocab_size": len(vocab),
                "steps": len(log),
                "final": asdict(log[-1]),
                "model_checksum": model_checksum(model),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_gradcheck(args, config: RunConfig) -> int:
    if np.finfo(objective.REFERENCE_DTYPE).eps >= np.finfo(np.float64).eps:
        print("note: np.longdouble is float64 on this platform, so the finite-difference "
              "reference has no extra precision")
    error = objective.gradient_check_suite(
        seed=config.seed, cases=args.cases, config=config.pege_config()
    )
    ok = error <= GRADCHECK_TOLERANCE
    print(f"max relative error {error:.6e} over {args.cases} cases "
          f"({'within' if ok else 'EXCEEDS'} {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def cmd_selfchat(args, config: RunConfig) -> int:
    agent = load_checkpoint(args.agent_checkpoint)
    user = load_checkpoint(args.user_checkpoint)
    seeds = load_seed_utterances(config.path("seeds"))
    chat_config = config.selfchat_config(seeds)
    dialogs = self_chat(agent, user, chat_config, config.classifier())
    save_corpus(
        args.output,
        dialogs,
        meta=_meta(
            "selfchat",
            config,
            agent_model=model_checksum(agent),
            user_model=model_checksum(user),
            dialogs=len(dialogs),
        ),
    )
    return 0


def cmd_eval(args, config: RunConfig) -> int:
    dialogs = load_corpus(args.dialogs)
    report = evaluate_run(dialogs, config.lexicon())
    payload = {"config_hash": config.config_hash(), "seed": config.seed, **asdict(report)}
    _write_json(args.output, payload)
    print(
        json.dumps(
            {
                "peg_score": report.peg_score,
                "e_score": report.e_score,
                "pege_score": report.pege_score,
                "skipped": report.skipped,
            },
            sort_keys=True,
        )
    )
    return 0


# --------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    """A count argument: anything but a positive integer is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as a count below 1 is
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoguide",
        description="Positive-emotion-guided dialog: corpus, training, and evaluation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lexicon = sub.add_parser("lexicon", help="lexicon inspection")
    lexicon_sub = lexicon.add_subparsers(dest="lexicon_command", required=True)
    stats = lexicon_sub.add_parser("stats", help="coverage of a vocabulary file")
    stats.add_argument("lexicon", help="TSV lexicon path")
    stats.add_argument("vocab", help="text file, one token per line")
    stats.set_defaults(handler=cmd_lexicon_stats)

    def common(p, output=True):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if output:
            p.add_argument("-o", "--output", required=True, help="output file")

    synth = sub.add_parser("synth", help="generate a synthetic dialog corpus")
    synth.add_argument("config")
    common(synth)
    synth.set_defaults(handler=cmd_synth)

    filt = sub.add_parser("filter", help="apply the six filtering rules")
    filt.add_argument("corpus")
    filt.add_argument("config")
    common(filt)
    filt.add_argument("--report", default=None, help="write per-rule rejection counts here")
    filt.set_defaults(handler=cmd_filter)

    tr = sub.add_parser("train", help="train a dialog model")
    tr.add_argument("config")
    common(tr)
    tr.add_argument(
        "--ablation",
        choices=ABLATIONS,
        default=None,
        help="override the config's objective ablation",
    )
    tr.add_argument("--corpus", default=None, help="override paths.corpus")
    tr.add_argument("--side", choices=["agent", "user"], default="agent",
                    help="which speaker's utterances to predict")
    tr.add_argument("--log", default=None, help="write the per-step loss log here (JSON lines)")
    tr.set_defaults(handler=cmd_train)

    grad = sub.add_parser("gradcheck", help="finite-difference check of the loss gradient")
    grad.add_argument("config")
    common(grad, output=False)
    grad.add_argument("--cases", type=_positive_int, default=10)
    grad.set_defaults(handler=cmd_gradcheck)

    chat = sub.add_parser("selfchat", help="simulate dialogs between two checkpoints")
    chat.add_argument("agent_checkpoint")
    chat.add_argument("user_checkpoint")
    chat.add_argument("config")
    common(chat)
    chat.set_defaults(handler=cmd_selfchat)

    ev = sub.add_parser("eval", help="score a dialog file")
    ev.add_argument("dialogs")
    ev.add_argument("config")
    common(ev)
    ev.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "config" not in args:
            return args.handler(args)
        config = load_run_config(args.config)
        ablation = getattr(args, "ablation", None)
        if args.seed is not None or ablation is not None:
            config = config.with_overrides(seed=args.seed, ablation=ablation)
        _echo(args.command, config)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. a valid integer config value too large to allocate
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
