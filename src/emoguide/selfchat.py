"""Self-chat simulation: one model plays the user, another plays the agent.

Each seed utterance opens a dialog as the user's first turn.  The opener's
polarity is classified once, quantized into the two-token emotion prefix,
and kept in front of the agent's (and user's) context for every turn, the
same conditioning the models saw in training.  Turns then alternate
agent/user until 2*turns utterances exist, the seed included.  Each dialog
keeps one decode state per model, so a reply feeds only the tokens added
since that model last spoke.

Dialogs are independent, so an optional thread pool can run them
concurrently; per-dialog, per-turn seeded generators keep sampling
deterministic either way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Dialog, Utterance, read_jsonl
from .model import DecodeConfig, DecodeState, Model, generate
from .polarity import NEGATIVE, NEUTRAL, POSITIVE, PolarityClassifier
from .vad import tokenize
from .vocab import AGENT, AGT, EOU, USER, USR, Vocab, assemble_stream, encode_emotion_prefix

POLARITY_LABELS = (NEGATIVE, NEUTRAL, POSITIVE)


@dataclass(frozen=True)
class SeedUtterance:
    text: str
    polarity: str

    def __post_init__(self) -> None:
        if self.polarity not in POLARITY_LABELS:
            raise ValueError(f"polarity must be one of {POLARITY_LABELS}, got {self.polarity!r}")
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, got {type(self.text).__name__}")
        if not tokenize(self.text):
            raise ValueError(f"seed utterance has no word tokens: {self.text!r}")


def load_seed_utterances(path) -> list[SeedUtterance]:
    """Seed fixture reader: JSON lines with string "text" and "polarity" fields."""
    _, seeds = read_jsonl(path, lambda record: SeedUtterance(record["text"], record["polarity"]))
    if not seeds:
        raise ValueError(f"{path}: no seed utterances")
    return seeds


@dataclass(frozen=True)
class SelfChatConfig:
    seeds: tuple[SeedUtterance, ...]
    turns: int = 10
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ValueError("need at least one seed utterance")
        if type(self.turns) is not int or self.turns < 1:
            raise ValueError(f"turns must be a positive integer, got {self.turns!r}")
        if type(self.rng_seed) is not int or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed!r}")
        if self.decode.max_tokens < 1:
            raise ValueError("self-chat needs decode.max_tokens >= 1")


def _run_dialog(
    agent_model: Model,
    user_model: Model,
    config: SelfChatConfig,
    classifier: PolarityClassifier,
    index: int,
    seed: SeedUtterance,
) -> Dialog:
    vocab: Vocab = agent_model.vocab
    opener = tuple(tokenize(seed.text))
    prefix = encode_emotion_prefix(classifier(opener))
    eou_id = vocab.id(EOU)
    forbidden = sorted(vocab.structural_ids)
    marker = {AGENT: vocab.id(AGT), USER: vocab.id(USR)}

    utterances = [Utterance(USER, " ".join(opener))]
    segments = [[marker[USER], *vocab.encode(opener), eou_id]]
    # each model's context extends what it was fed last turn until
    # assemble_stream drops a segment, so it feeds only the new tokens
    states = {AGENT: DecodeState(), USER: DecodeState()}
    for position in range(1, 2 * config.turns):
        speaker = AGENT if position % 2 == 1 else USER
        model = agent_model if speaker == AGENT else user_model
        context = assemble_stream(
            prefix, segments, vocab, model.config.context_window, tail=[marker[speaker]]
        )
        rng = None
        if config.decode.mode != "greedy":
            rng = np.random.default_rng(
                np.random.SeedSequence([config.rng_seed, index, position])
            )
        ids = generate(
            model,
            context,
            config.decode,
            eou_id=eou_id,
            forbidden_ids=forbidden,
            rng=rng,
            state=states[speaker],
        )
        words = [vocab.tokens[t] for t in ids]
        utterances.append(Utterance(speaker, " ".join(words)))
        segments.append([marker[speaker], *ids, eou_id])
    return Dialog(
        source_id=f"selfchat-{index:04d}-{seed.polarity}",
        utterances=tuple(utterances),
    )


def self_chat(
    agent_model: Model,
    user_model: Model,
    config: SelfChatConfig,
    classifier: PolarityClassifier,
    threads: int = 1,
) -> list[Dialog]:
    """One dialog per seed, in seed order.

    The agent model speaks every odd position (the reply to the seed and
    every second utterance after); the user model fills the rest.
    """
    for name, model in (("agent", agent_model), ("user", user_model)):
        if model.vocab is None:
            raise ValueError(f"{name} model has no attached vocabulary")
    if agent_model.vocab.tokens != user_model.vocab.tokens:
        raise ValueError("agent and user models use different vocabularies")
    if type(threads) is not int or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")

    def run(item):
        index, seed = item
        return _run_dialog(agent_model, user_model, config, classifier, index, seed)

    items = list(enumerate(config.seeds))
    if threads == 1:
        return [run(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, items))
