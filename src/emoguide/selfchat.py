"""Self-chat simulation: one model plays the user, another plays the agent.

Each seed utterance opens a dialog as the user's first turn.  The opener's
polarity is classified once, quantized into the two-token emotion prefix,
and kept in front of the agent's (and user's) context for every turn, the
same conditioning the models saw in training.  Turns then alternate
agent/user until 2*turns utterances exist, the seed included.

Each dialog keeps its whole stream (prefix, then every segment) as one id
list, and per model how many of those ids the model has fed and its hidden
states after them.  While the stream and the speaker's marker fit the
speaker's window, a context extends the model's last one by its reply, so
the reply feeds only the new ids, sliced from the list, from the kept
states.  A model's first reply feeds its whole context from zeros, and so
does every reply once the context outgrows the window: only then is it
built by ``assemble_stream``, which drops segments (and it then drops some
on every later reply).  No prefix is compared and no id is re-checked:
every id comes from the vocabulary or from a model that decodes over it,
and ``_prepare_speakers`` checks once that both models' vocabularies have
their ``vocab_size`` tokens.

The dialogs of a call run in lockstep: at each position, one decode call
(``model._decode``) decodes every dialog's reply, one batched GRU step per
token.  A row's bits do not depend on the batch, and each
(dialog, position) pair samples with its own seeded generator, so a dialog
is the same whichever dialogs share its batch.  ``threads`` splits the seeds
into contiguous groups decoded on their own threads; smaller groups decode
slower per dialog.

Each model is prepared once per call (``model._prepare``): its gate weights
joined, layer 0's input projections of every vocabulary row tabled, and the
bans checked.  Every position and thread group shares that preparation
read-only, where ``generate_batch`` would redo it on each of the call's
``2·turns − 1`` positions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checks import MAX_UTTERANCES, check_int
from .corpus import Dialog, Utterance, read_jsonl
from .model import DecodeConfig, Model, _decode, _Decoder, _prepare
from .model import generate  # noqa: F401  perfbench's tracer wraps this name here
from .polarity import NEGATIVE, NEUTRAL, POSITIVE, PolarityClassifier
from .vad import tokenize
from .vocab import AGENT, AGT, EOU, USER, USR, Vocab
from .vocab import assemble_stream, encode_emotion_prefix, utterance_segment

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
        check_int("turns", self.turns, maximum=MAX_UTTERANCES // 2)  # a dialog of 2·turns utterances
        check_int("rng_seed", self.rng_seed, 0)
        check_int("decode.max_tokens", self.decode.max_tokens)  # a reply needs a token


def _run_dialog(
    vocab: Vocab,
    windows: dict[str, int],
    config: SelfChatConfig,
    classifier: PolarityClassifier,
    index: int,
    seed: SeedUtterance,
):
    """One dialog, played reply by reply.  Before each reply it yields the
    speaker, the ids of the speaker's context that its model has not fed yet,
    whether to feed them from zeros, and the reply's rng (None when greedy),
    and is sent the reply's ids; after the last reply it yields the Dialog.

    The dialog keeps its whole stream (prefix, then every segment) as one id
    list, and each model's count of the ids it has fed.  While the stream and
    the speaker's marker fit the speaker's window, the context is that list
    and the marker, and the new ids are sliced from it.  Once they do not,
    ``assemble_stream`` drops segments and the context is fed whole from zeros.
    """
    opener = tuple(tokenize(seed.text))
    prefix = encode_emotion_prefix(classifier(opener))
    eou_id = vocab.id(EOU)
    marker = {AGENT: vocab.id(AGT), USER: vocab.id(USR)}

    utterances = [Utterance(USER, " ".join(opener))]
    segments = [utterance_segment(USER, opener, vocab)]
    stream = [*vocab.encode(prefix), *segments[0]]
    fed = {AGENT: 0, USER: 0}  # each model's fed ids: its last context and reply
    for position in range(1, 2 * config.turns):
        speaker = AGENT if position % 2 == 1 else USER
        rng = None
        if config.decode.mode != "greedy":
            rng = np.random.default_rng(
                np.random.SeedSequence([config.rng_seed, index, position])
            )
        window, tail = windows[speaker], [marker[speaker]]
        if len(stream) < window:
            ids = yield speaker, stream[fed[speaker] :] + tail, not fed[speaker], rng
        else:  # the window drops a segment, on this reply and every later one
            ids = yield speaker, assemble_stream(prefix, segments, vocab, window, tail), True, rng
        fed[speaker] = len(stream) + 1 + len(ids)
        utterances.append(Utterance(speaker, " ".join([vocab.tokens[t] for t in ids])))
        segments.append([*tail, *ids, eou_id])
        stream += segments[-1]
    yield Dialog(
        source_id=f"selfchat-{index:04d}-{seed.polarity}",
        utterances=tuple(utterances),
    )


def _chat(
    decoders: dict[str, _Decoder],
    config: SelfChatConfig,
    classifier: PolarityClassifier,
    items: Sequence[tuple[int, SeedUtterance]],
) -> list[Dialog]:
    """Play the dialogs of ``items`` ((index, seed) pairs) in lockstep: each
    position's replies are one ``_decode`` call with the speaker's prepared
    model, each dialog feeding the ids its model has not fed yet from that
    model's states after its last reply, or its whole context from zeros."""
    vocab = decoders[AGENT].model.vocab
    windows = {speaker: d.model.config.context_window for speaker, d in decoders.items()}
    zeros = lambda m: [np.zeros((len(items), m.config.hidden_dim), m.dtype)] * m.config.num_layers
    states = {speaker: zeros(d.model) for speaker, d in decoders.items()}  # per layer, (dialogs, H)
    dialogs = [_run_dialog(vocab, windows, config, classifier, i, seed) for i, seed in items]
    turns = [next(dialog) for dialog in dialogs]
    for _ in range(1, 2 * config.turns):
        speakers, suffixes, fresh, rngs = zip(*turns)
        speaker = speakers[0]  # every dialog is at the same position
        h0 = states[speaker]
        if any(fresh):
            h0 = [np.where(np.array(fresh)[:, None], 0, h) for h in h0]
        replies, states[speaker] = _decode(decoders[speaker], suffixes, h0, config.decode, rngs)
        turns = [dialog.send(ids) for dialog, ids in zip(dialogs, replies)]
    return turns


def _prepare_speakers(agent_model: Model, user_model: Model) -> dict[str, _Decoder]:
    """Check that both models carry the same vocabulary, of their
    ``vocab_size`` tokens, and prepare each speaker's model to decode with
    its structural ids banned."""
    for name, model in (("agent", agent_model), ("user", user_model)):
        if model.vocab is None:
            raise ValueError(f"{name} model has no attached vocabulary")
        if len(model.vocab) != model.config.vocab_size:
            size = f"{len(model.vocab)} tokens, not vocab_size {model.config.vocab_size}"
            raise ValueError(f"{name} model's vocabulary has {size}")
    if agent_model.vocab.tokens != user_model.vocab.tokens:
        raise ValueError("agent and user models use different vocabularies")
    vocab = agent_model.vocab
    bans = dict(eou_id=vocab.id(EOU), forbidden_ids=sorted(vocab.structural_ids))
    return {AGENT: _prepare(agent_model, **bans), USER: _prepare(user_model, **bans)}


def self_chat(
    agent_model: Model,
    user_model: Model,
    config: SelfChatConfig,
    classifier: PolarityClassifier,
    threads: int = 1,
) -> list[Dialog]:
    """One dialog per seed, in seed order.

    The agent model speaks every odd position (the reply to the seed and
    every second utterance after); the user model fills the rest.  The seeds
    are split into ``threads`` contiguous groups, each decoded in lockstep
    on its own thread; a dialog is the same in any group.
    """
    decoders = _prepare_speakers(agent_model, user_model)
    check_int("threads", threads)
    items = list(enumerate(config.seeds))
    chat = lambda group: _chat(decoders, config, classifier, group)
    k = min(threads, len(items))
    if k == 1:
        return chat(items)
    groups = [items[g * len(items) // k : (g + 1) * len(items) // k] for g in range(k)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return [dialog for group in pool.map(chat, groups) for dialog in group]
