"""Emotion-guided dialog training and evaluation.

The package trains a small recurrent language model whose loss couples
next-word prediction with two emotion terms derived from a VAD lexicon:
a guidance term that pulls generated replies toward the opening
utterance's affect early in a conversation and releases the pull as the
dialog progresses, and a regularizer that suppresses negative-affect
mass.  Around that objective sit a synthetic-corpus pipeline with rule
based filtering, a two-model self-chat harness, and evaluation metrics.
"""

from .config import ConfigError, RunConfig, default_run_config, load_run_config
from .corpus import (
    Dialog,
    FilterReport,
    FilterRules,
    RULE_NAMES,
    SynthConfig,
    TrainingExample,
    Utterance,
    filter_dialogs,
    load_corpus,
    prepare_training_examples,
    prepare_user_side_examples,
    save_corpus,
    synthesize_corpus,
)
from .metrics import (
    MetricsReport,
    bleu,
    distinct_n,
    e_score,
    evaluate_run,
    pege_score,
    peg_score,
)
from .model import (
    DecodeConfig,
    ModelConfig,
    generate,
    generate_batch,
    init_model,
    load_checkpoint,
    model_checksum,
    save_checkpoint,
)
from .objective import LossBreakdown, PegeConfig, dialog_progress, pege_loss
from .polarity import ClassifierParams, PolarityClassifier, PolarityDistribution
from .selfchat import SeedUtterance, SelfChatConfig, load_seed_utterances, self_chat
from .train import TrainConfig, TrainingDivergedError, evaluate_nll, train
from .vad import (
    NEUTRAL_BASELINE,
    VadLexicon,
    VadMatrix,
    VadVector,
    align_vocab,
    load_lexicon_file,
    tokenize,
    utterance_mean_vad,
)
from .vocab import Vocab, build_vocab

__version__ = "0.1.0"

__all__ = [
    "ClassifierParams",
    "ConfigError",
    "DecodeConfig",
    "Dialog",
    "FilterReport",
    "FilterRules",
    "LossBreakdown",
    "MetricsReport",
    "ModelConfig",
    "NEUTRAL_BASELINE",
    "PegeConfig",
    "PolarityClassifier",
    "PolarityDistribution",
    "RULE_NAMES",
    "RunConfig",
    "SeedUtterance",
    "SelfChatConfig",
    "SynthConfig",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingExample",
    "Utterance",
    "VadLexicon",
    "VadMatrix",
    "VadVector",
    "Vocab",
    "align_vocab",
    "bleu",
    "build_vocab",
    "default_run_config",
    "dialog_progress",
    "distinct_n",
    "e_score",
    "evaluate_nll",
    "evaluate_run",
    "filter_dialogs",
    "generate",
    "generate_batch",
    "init_model",
    "load_checkpoint",
    "load_corpus",
    "load_lexicon_file",
    "load_run_config",
    "load_seed_utterances",
    "model_checksum",
    "peg_score",
    "pege_loss",
    "pege_score",
    "prepare_training_examples",
    "prepare_user_side_examples",
    "save_checkpoint",
    "save_corpus",
    "self_chat",
    "synthesize_corpus",
    "tokenize",
    "train",
    "utterance_mean_vad",
]
