"""Emotion-guided dialog training and evaluation.

The package trains a small recurrent language model whose loss couples
next-word prediction with two emotion terms derived from a VAD lexicon:
a guidance term that pulls generated replies toward the opening
utterance's affect early in a conversation and releases the pull as the
dialog progresses, and a regularizer that suppresses negative-affect
mass.  Around that objective sit a synthetic-corpus pipeline with rule
based filtering, a two-model self-chat harness, and evaluation metrics.

The exports load on first use (PEP 562): importing the package loads none
of its modules, and so not numpy, which lets ``emoguide.cli`` choose BLAS's
thread count before numpy first loads.
"""

import importlib
import sys
import types

# each module's exported names
_MODULE_EXPORTS = {
    "config": ("ConfigError", "RunConfig", "default_run_config", "load_run_config"),
    "corpus": (
        "Dialog",
        "FilterReport",
        "FilterRules",
        "RULE_NAMES",
        "SynthConfig",
        "TrainingExample",
        "Utterance",
        "filter_dialogs",
        "load_corpus",
        "prepare_training_examples",
        "prepare_user_side_examples",
        "save_corpus",
        "synthesize_corpus",
    ),
    "metrics": (
        "MetricsReport",
        "bleu",
        "distinct_n",
        "e_score",
        "evaluate_run",
        "pege_score",
        "peg_score",
    ),
    "model": (
        "DecodeConfig",
        "ModelConfig",
        "generate",
        "generate_batch",
        "init_model",
        "load_checkpoint",
        "model_checksum",
        "save_checkpoint",
    ),
    "objective": ("LossBreakdown", "PegeConfig", "dialog_progress", "pege_loss"),
    "polarity": ("ClassifierParams", "PolarityClassifier", "PolarityDistribution"),
    "selfchat": ("SeedUtterance", "SelfChatConfig", "load_seed_utterances", "self_chat"),
    "train": ("TrainConfig", "TrainingDivergedError", "evaluate_nll", "train"),
    "vad": (
        "NEUTRAL_BASELINE",
        "VadLexicon",
        "VadMatrix",
        "VadVector",
        "align_vocab",
        "load_lexicon_file",
        "tokenize",
        "utterance_mean_vad",
    ),
    "vocab": ("Vocab", "build_vocab"),
}
_MODULE = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    """An export, imported from its module on first use."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package's module type: an exported name stays the export when a
    submodule of the same name loads (the ``train`` function, not the
    ``emoguide.train`` module), as it was when the package imported every
    export at once."""

    def __setattr__(self, name, value):
        if not (name in _MODULE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
