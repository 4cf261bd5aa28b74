"""Session-scoped fixtures for the acceptance experiments.

The trained models are expensive (~1 min each), are shared between the
training-sanity and ablation-direction criteria, and are built lazily so
the unit-test modules stay fast when run on their own.

BLAS runs on one thread, as in perfbench: with the library's default of one
thread per core, a second numpy process on the same cores slows training
several-fold.  The variables must be set before numpy is first imported.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import time
from dataclasses import dataclass, field

import pytest

from emoguide.config import default_run_config
from emoguide.corpus import (
    SynthConfig,
    corpus_words,
    prepare_training_examples,
    prepare_user_side_examples,
    synthesize_corpus,
)
from emoguide.model import ModelConfig, init_model
from emoguide.train import TrainConfig, evaluate_nll, train
from emoguide.vocab import build_vocab

# Frozen experiment recipe.  The trajectory mix is stuck-dominant so that
# elicitation is *not* already the likelihood-optimal policy, and training
# dialogs span 17-21 utterances so a 20-utterance self-chat stays inside the
# length distribution the user simulator saw during training.
ACCEPTANCE_SYNTH = SynthConfig(
    num_dialogs=2000,
    turns_range=(17, 21),
    trajectory_mix=(0.2, 0.05, 0.75),
)
CORPUS_SEED = 2024
HELD_OUT_DIALOGS = 200
TRAIN_STEPS = 2000


@dataclass
class ExperimentData:
    classifier: object
    lexicon: object
    pege_config: object
    vocab: object
    model_config: ModelConfig
    agent_examples: list
    held_examples: list
    user_examples: list
    seconds: float


@dataclass
class TrainedModel:
    model: object
    log: list
    seconds: float
    init_nll: float = 0.0
    final_nll: float = 0.0
    train_config: TrainConfig = field(default=None)


@pytest.fixture(scope="session")
def experiment_data() -> ExperimentData:
    t0 = time.perf_counter()
    run = default_run_config()
    classifier = run.classifier()
    dialogs = synthesize_corpus(ACCEPTANCE_SYNTH, seed=CORPUS_SEED)
    train_dialogs = dialogs[:-HELD_OUT_DIALOGS]
    held_dialogs = dialogs[-HELD_OUT_DIALOGS:]
    vocab = build_vocab(corpus_words(train_dialogs))
    return ExperimentData(
        classifier=classifier,
        lexicon=classifier.lexicon,
        pege_config=run.pege_config(),
        vocab=vocab,
        model_config=ModelConfig(
            vocab_size=len(vocab),
            embed_dim=32,
            hidden_dim=96,
            num_layers=1,
            context_window=128,
        ),
        agent_examples=[
            ex for d in train_dialogs for ex in prepare_training_examples(d, classifier)
        ],
        held_examples=[
            ex for d in held_dialogs for ex in prepare_training_examples(d, classifier)
        ],
        user_examples=[
            ex for d in train_dialogs for ex in prepare_user_side_examples(d, classifier)
        ],
        seconds=time.perf_counter() - t0,
    )


def _train_agent(data: ExperimentData, ablation: str, seed: int, examples=None) -> TrainedModel:
    config = TrainConfig(
        learning_rate=2e-3,
        batch_size=32,
        max_steps=TRAIN_STEPS,
        ablation=ablation,
        seed=seed,
    )
    t0 = time.perf_counter()
    model = init_model(data.model_config, seed=seed, vocab=data.vocab)
    init_nll = evaluate_nll(model, data.held_examples)
    model, log = train(
        model,
        data.agent_examples if examples is None else examples,
        config,
        data.pege_config,
        data.lexicon,
    )
    final_nll = evaluate_nll(model, data.held_examples)
    return TrainedModel(
        model=model,
        log=log,
        seconds=time.perf_counter() - t0,
        init_nll=init_nll,
        final_nll=final_nll,
        train_config=config,
    )


@pytest.fixture(scope="session")
def nll_agent(experiment_data) -> TrainedModel:
    return _train_agent(experiment_data, "nll_only", seed=11)


@pytest.fixture(scope="session")
def full_agent(experiment_data) -> TrainedModel:
    return _train_agent(experiment_data, "full", seed=11)


@pytest.fixture(scope="session")
def user_model(experiment_data) -> TrainedModel:
    return _train_agent(
        experiment_data, "nll_only", seed=12, examples=experiment_data.user_examples
    )


@pytest.fixture(scope="session")
def agent_trainer():
    return _train_agent
