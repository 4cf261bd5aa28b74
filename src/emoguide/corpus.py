"""Synthetic dialog corpus: generation, filtering, and training preparation.

Dialogs alternate user/agent turns, always opened by the user.  The generator
draws words from themed valence bands and follows one of three trajectory
templates (encoded into ``source_id`` so downstream claims can be tested
against known structure):

  uplift  agent mirrors the opener's mood, then walks it upward
  abrupt  agent is strongly positive from its first reply
  stuck   agent never escalates; the user still closes on a positive note

All templates close with a strongly positive user utterance, so well-formed
synthetic dialogs survive filtering; filters exist to drop violators in
real-world-shaped data.

Filtering applies six ordered rules and attributes each rejection to the
first failing rule:

  1. structure: at least 3 utterances, opened and closed by the user
  2. the opener has a confident polarity (max prob strictly > threshold)
  3. the closing utterance is confidently positive (strictly > threshold)
  4. no utterance mentions a blocked non-emotion topic keyword
  5. no utterance matches an entity pattern (names, numbers, handles)
  6. no utterance contains a blocked offensive keyword

Corpus files are UTF-8 JSON lines, one dialog per line:
``{"source_id": ..., "utterances": [{"speaker": "user"|"agent", "text": ...}]}``.
An optional leading ``{"meta": {...}}`` line carries provenance (config hash,
seed).  ``write_jsonl`` and ``read_jsonl`` are the one writer and reader of
this format; self-chat seeds and training logs use them too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .checks import (
    INT64_MAX,
    MAX_UTTERANCES,
    MAX_WORDS,
    _unchecked,
    check_int,
    check_real,
    check_tuple,
)
from .polarity import NEGATIVE, NEUTRAL, POSITIVE, PolarityClassifier, PolarityDistribution
from .resources import open_output, parse_json, read_lines
from .vad import VadVector, tokenize, utterance_mean_vad
from .vocab import AGENT, USER, encode_emotion_prefix

T = TypeVar("T")

# ------------------------------------------------------------- word bank

# (word, valence, arousal, dominance); bands are disjoint valence ranges.  A
# dialog's starting polarity label is also the name of its opener's band.
WORD_BANK: dict[str, list[tuple[str, float, float, float]]] = {
    "negative": [
        ("sad", 0.10, 0.33, 0.26), ("awful", 0.08, 0.52, 0.28),
        ("terrible", 0.07, 0.55, 0.30), ("lonely", 0.14, 0.30, 0.22),
        ("tired", 0.22, 0.24, 0.33), ("hurt", 0.12, 0.45, 0.28),
        ("crying", 0.11, 0.44, 0.24), ("afraid", 0.10, 0.58, 0.20),
        ("angry", 0.13, 0.68, 0.42), ("lost", 0.18, 0.40, 0.26),
        ("painful", 0.09, 0.50, 0.27), ("worried", 0.16, 0.47, 0.30),
        ("gloomy", 0.15, 0.32, 0.31), ("failure", 0.08, 0.42, 0.23),
        ("broken", 0.12, 0.38, 0.25), ("miserable", 0.06, 0.45, 0.21),
        ("stressed", 0.17, 0.60, 0.29), ("upset", 0.14, 0.52, 0.31),
        ("heavy", 0.23, 0.36, 0.34), ("sick", 0.13, 0.41, 0.27),
    ],
    "neutral": [
        ("day", 0.52, 0.40, 0.48), ("time", 0.50, 0.42, 0.50),
        ("thing", 0.49, 0.38, 0.46), ("work", 0.47, 0.52, 0.52),
        ("home", 0.54, 0.36, 0.50), ("evening", 0.51, 0.37, 0.47),
        ("morning", 0.53, 0.41, 0.49), ("week", 0.50, 0.39, 0.48),
        ("weather", 0.50, 0.35, 0.45), ("coffee", 0.54, 0.44, 0.47),
        ("walk", 0.52, 0.43, 0.49), ("book", 0.53, 0.36, 0.48),
        ("garden", 0.54, 0.38, 0.47), ("kitchen", 0.50, 0.37, 0.46),
        ("window", 0.49, 0.34, 0.45), ("street", 0.48, 0.40, 0.46),
        ("quiet", 0.52, 0.28, 0.44), ("usual", 0.50, 0.33, 0.47),
        ("plain", 0.48, 0.35, 0.45), ("ordinary", 0.49, 0.34, 0.46),
    ],
    "positive": [
        ("good", 0.78, 0.48, 0.58), ("nice", 0.76, 0.45, 0.55),
        ("better", 0.75, 0.46, 0.57), ("calm", 0.74, 0.25, 0.56),
        ("warm", 0.77, 0.42, 0.55), ("hopeful", 0.80, 0.50, 0.58),
        ("glad", 0.79, 0.52, 0.57), ("pleasant", 0.78, 0.40, 0.56),
        ("friendly", 0.80, 0.47, 0.58), ("bright", 0.76, 0.50, 0.57),
        ("fine", 0.72, 0.38, 0.54), ("comfort", 0.75, 0.36, 0.55),
        ("smile", 0.82, 0.52, 0.60), ("kind", 0.81, 0.43, 0.59),
    ],
    "very_positive": [
        ("happy", 0.92, 0.60, 0.64), ("great", 0.88, 0.58, 0.65),
        ("wonderful", 0.94, 0.62, 0.66), ("joy", 0.95, 0.64, 0.64),
        ("love", 0.96, 0.65, 0.63), ("amazing", 0.93, 0.66, 0.64),
        ("delighted", 0.91, 0.62, 0.63), ("fantastic", 0.92, 0.64, 0.65),
        ("cheerful", 0.90, 0.60, 0.62), ("sunshine", 0.89, 0.55, 0.58),
        ("laughter", 0.90, 0.63, 0.60), ("grateful", 0.88, 0.54, 0.62),
    ],
    "function": [
        ("i", 0.5, 0.5, 0.5), ("you", 0.5, 0.5, 0.5), ("we", 0.5, 0.5, 0.5),
        ("the", 0.5, 0.5, 0.5), ("and", 0.5, 0.5, 0.5), ("feel", 0.5, 0.5, 0.5),
        ("felt", 0.5, 0.5, 0.5), ("am", 0.5, 0.5, 0.5), ("is", 0.5, 0.5, 0.5),
        ("was", 0.5, 0.5, 0.5), ("so", 0.5, 0.5, 0.5), ("very", 0.5, 0.5, 0.5),
        ("today", 0.5, 0.5, 0.5), ("really", 0.5, 0.5, 0.5),
        ("it", 0.5, 0.5, 0.5), ("still", 0.5, 0.5, 0.5),
    ],
}


def bank_words() -> list[str]:
    return [row[0] for rows in WORD_BANK.values() for row in rows]


# ----------------------------------------------------------------- types


@dataclass(frozen=True, slots=True)
class Utterance:
    """One turn: its speaker, its text and the text's word tokens.

    ``speaker`` is stored as the module's ``USER`` or ``AGENT`` string, not
    the equal string passed in (a JSON reader makes one per record), and
    ``tokens`` holds ``tokenize``'s interned strings, so a corpus keeps one
    string per distinct speaker and word.  Like the other records here, an
    utterance has slots and no per-instance dict.
    """

    speaker: str
    text: str
    tokens: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.speaker not in (USER, AGENT):
            raise ValueError(f"speaker must be 'user' or 'agent', got {self.speaker!r}")
        object.__setattr__(self, "speaker", USER if self.speaker == USER else AGENT)
        if not isinstance(self.text, str):
            raise ValueError(f"text must be a string, got {type(self.text).__name__}")
        toks = tuple(tokenize(self.text))
        if not toks:
            raise ValueError(f"utterance has no word tokens: {self.text!r}")
        object.__setattr__(self, "tokens", toks)


@dataclass(frozen=True, slots=True)
class Dialog:
    source_id: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.source_id, str):
            raise ValueError(f"source_id must be a string, got {type(self.source_id).__name__}")
        utts = tuple(self.utterances)
        object.__setattr__(self, "utterances", utts)
        if not utts:
            raise ValueError(f"{self.source_id}: dialog has no utterances")
        if utts[0].speaker != USER:
            raise ValueError(f"{self.source_id}: dialogs must open with the user")
        for i in range(1, len(utts)):
            if utts[i].speaker == utts[i - 1].speaker:
                raise ValueError(f"{self.source_id}: speakers must alternate (position {i + 1})")


# ------------------------------------------------------------- synthesis


@dataclass(frozen=True)
class SynthConfig:
    num_dialogs: int = 100
    turns_range: tuple[int, int] = (5, 11)
    polarity_mix: tuple[float, float, float] = (0.33, 0.34, 0.33)  # neg, neu, pos
    trajectory_mix: tuple[float, float, float] = (0.5, 0.2, 0.3)  # uplift, abrupt, stuck
    min_words: int = 3
    max_words: int = 7

    def __post_init__(self) -> None:
        # numpy draws and sizes with int64; see checks.py for the other bounds
        check_int("num_dialogs", self.num_dialogs, 1, INT64_MAX)
        lo, hi = check_tuple("turns_range", self.turns_range, 2)
        check_int("turns_range[0]", lo, 3, MAX_UTTERANCES)
        check_int("turns_range[1]", hi, lo, MAX_UTTERANCES)
        if lo == hi and lo % 2 == 0:
            raise ValueError("turns_range contains no odd utterance count")
        for name in ("polarity_mix", "trajectory_mix"):
            mix = check_tuple(name, getattr(self, name), 3)
            if sum(check_real(f"{name}[{i}]", w, 0.0) for i, w in enumerate(mix)) <= 0:
                raise ValueError(f"{name} must have a positive sum, got {mix!r}")
        check_int("min_words", self.min_words, 1, MAX_WORDS)
        check_int("max_words", self.max_words, self.min_words, MAX_WORDS)


def apportion(weights: Sequence[float], total: int) -> list[int]:
    """Largest-remainder split of ``total`` into integer counts per weight."""
    s = float(sum(weights))
    shares = [w / s * total for w in weights]
    counts = [math.floor(x) for x in shares]
    leftovers = sorted(
        range(len(weights)), key=lambda i: (shares[i] - counts[i], -i), reverse=True
    )
    for i in range(total - sum(counts)):
        counts[leftovers[i % len(weights)]] += 1
    return counts


def _agent_band(traj: str, start: str, rho: float) -> str:
    if traj == "abrupt":
        return "very_positive"
    if traj == "stuck":
        if start == "negative":
            return "negative" if rho < 0.4 else "neutral"
        return "neutral" if start == "neutral" else "positive"
    # uplift
    if start == "negative":
        if rho < 0.35:
            return "negative"
        if rho < 0.6:
            return "neutral"
        return "positive" if rho < 0.85 else "very_positive"
    if start == "neutral":
        if rho < 0.45:
            return "neutral"
        return "positive" if rho < 0.75 else "very_positive"
    return "positive" if rho < 0.6 else "very_positive"


_SOFTEN = {"very_positive": "positive", "positive": "neutral", "negative": "neutral", "neutral": "neutral"}


def _sample_words(rng, band: str, n_words: int, function_frac: float) -> list[str]:
    """``n_words`` bank words from ``band``, each a function word instead
    with probability ``function_frac``."""
    words = []
    bank = WORD_BANK[band]
    fn = WORD_BANK["function"]
    for _ in range(n_words):
        if function_frac > 0.0 and rng.random() < function_frac:
            words.append(fn[int(rng.integers(len(fn)))][0])
        else:
            words.append(bank[int(rng.integers(len(bank)))][0])
    return words


def synthesize_corpus(gen: SynthConfig, seed: int) -> list[Dialog]:
    """Deterministic synthetic corpus; every dialog is valid by construction.

    The records are therefore built without their checks.  Each utterance's
    speaker is ``USER`` or ``AGENT``, its text is its bank words joined by
    spaces and its tokens are those words, which equals ``tokenize(text)``
    because every bank word is its own (interned) token.  Each dialog opens
    with the user, alternates and has an odd length, so it also closes with
    the user.
    """
    rng = np.random.default_rng(seed)
    n = gen.num_dialogs
    counts = apportion(gen.polarity_mix, n)
    start_labels = (
        [NEGATIVE] * counts[0] + [NEUTRAL] * counts[1] + [POSITIVE] * counts[2]
    )
    traj_counts = apportion(gen.trajectory_mix, n)
    trajectories = (
        ["uplift"] * traj_counts[0] + ["abrupt"] * traj_counts[1] + ["stuck"] * traj_counts[2]
    )
    start_labels = [start_labels[i] for i in rng.permutation(n)]
    trajectories = [trajectories[i] for i in rng.permutation(n)]

    first_odd, last = gen.turns_range[0] | 1, gen.turns_range[1]
    n_odd = (last - first_odd) // 2 + 1  # the odd utterance counts in turns_range
    dialogs = []
    for i in range(n):
        start, traj = start_labels[i], trajectories[i]
        n_utts = first_odd + 2 * int(rng.integers(n_odd))
        utterances = []
        prev_agent_band = start
        for pos in range(1, n_utts + 1):
            rho = (pos - 1) / (n_utts - 1)
            n_words = int(rng.integers(gen.min_words, gen.max_words + 1))
            if pos == 1:
                band, frac, speaker = start, 0.0, USER
            elif pos == n_utts:
                band, frac, speaker = "very_positive", 0.0, USER
            elif pos % 2 == 0:
                band = _agent_band(traj, start, rho)
                if rng.random() < 0.1:
                    band = _SOFTEN[band]
                prev_agent_band = band
                frac, speaker = 0.25, AGENT
            else:
                band = prev_agent_band
                if rng.random() < 0.15:
                    band = _SOFTEN[band]
                frac, speaker = 0.25, USER
            words = _sample_words(rng, band, n_words, frac)
            utterances.append(_unchecked(Utterance, speaker, " ".join(words), tuple(words)))
        dialogs.append(_unchecked(Dialog, f"synth-{i:05d}-{traj}", tuple(utterances)))
    return dialogs


# ------------------------------------------------------------- filtering


@dataclass(frozen=True)
class FilterRules:
    first_utt_threshold: float = 0.5
    last_utt_pos_threshold: float = 0.9
    topic_blocklist: frozenset[str] = frozenset()
    entity_patterns: tuple[str, ...] = ()
    offensive_blocklist: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("first_utt_threshold", "last_utt_pos_threshold"):
            check_real(name, getattr(self, name), 0.0, 1.0, low_open=True, high_open=True)
        object.__setattr__(self, "topic_blocklist", frozenset(self.topic_blocklist))
        object.__setattr__(self, "offensive_blocklist", frozenset(self.offensive_blocklist))
        object.__setattr__(self, "entity_patterns", tuple(self.entity_patterns))
        for pat in self.entity_patterns:
            try:
                re.compile(pat)
            except re.error as exc:
                raise ValueError(f"entity pattern {pat!r}: {exc}") from None


RULE_NAMES = (
    "rule_1_structure",
    "rule_2_first_confident",
    "rule_3_last_positive",
    "rule_4_topic",
    "rule_5_entity",
    "rule_6_offensive",
)


@dataclass(frozen=True)
class FilterReport:
    input_count: int
    retained_count: int
    rejections: tuple[int, int, int, int, int, int]

    def to_dict(self) -> dict:
        return {
            "input": self.input_count,
            "retained": self.retained_count,
            "rejected": dict(zip(RULE_NAMES, self.rejections)),
        }


def _first_failing_rule(
    dialog: Dialog,
    classify: Callable[[Sequence[str]], PolarityDistribution],
    rules: FilterRules,
    patterns: list[re.Pattern],
) -> int | None:
    """0-based index of the first violated rule, or None if all pass."""
    utts = dialog.utterances
    if len(utts) < 3 or utts[-1].speaker != USER:
        return 0
    first = classify(utts[0].tokens)
    if max(first.as_tuple()) <= rules.first_utt_threshold:
        return 1
    if classify(utts[-1].tokens).p_pos <= rules.last_utt_pos_threshold:
        return 2
    if rules.topic_blocklist and any(
        rules.topic_blocklist.intersection(u.tokens) for u in utts
    ):
        return 3
    if patterns and any(p.search(u.text) for p in patterns for u in utts):
        return 4
    if rules.offensive_blocklist and any(
        rules.offensive_blocklist.intersection(u.tokens) for u in utts
    ):
        return 5
    return None


def filter_dialogs(
    dialogs: Sequence[Dialog],
    classify: Callable[[Sequence[str]], PolarityDistribution],
    rules: FilterRules,
) -> tuple[list[Dialog], FilterReport]:
    """Apply the six ordered rules; order of retained dialogs is preserved."""
    patterns = [re.compile(p, re.IGNORECASE) for p in rules.entity_patterns]
    retained: list[Dialog] = []
    rejections = [0] * 6
    for dialog in dialogs:
        failed = _first_failing_rule(dialog, classify, rules, patterns)
        if failed is None:
            retained.append(dialog)
        else:
            rejections[failed] += 1
    report = FilterReport(
        input_count=len(dialogs),
        retained_count=len(retained),
        rejections=tuple(rejections),
    )
    return retained, report


# -------------------------------------------------- training preparation


@dataclass(frozen=True, slots=True)
class TrainingExample:
    """One teacher-forced response prediction task."""

    source_id: str
    prefix: tuple[str, str]
    context: tuple[Utterance, ...]
    target_speaker: str
    target: tuple[str, ...]
    u1_mean_vad: VadVector
    polarity: PolarityDistribution

    @property
    def context_turns(self) -> int:
        return len(self.context)


def _examples(
    dialog: Dialog, utterances: Sequence[Utterance], speaker: str, classifier: PolarityClassifier
) -> list[TrainingExample]:
    """One example per ``speaker`` utterance after the opener, with the
    utterances before it as context."""
    u1 = dialog.utterances[0]
    polarity = classifier(u1.tokens)
    prefix = encode_emotion_prefix(polarity)
    u1_mean = utterance_mean_vad(classifier.lexicon, u1.tokens)
    return [
        TrainingExample(
            source_id=dialog.source_id,
            prefix=prefix,
            context=utterances[:k],
            target_speaker=speaker,
            target=utt.tokens,
            u1_mean_vad=u1_mean,
            polarity=polarity,
        )
        for k, utt in enumerate(utterances)
        if k > 0 and utt.speaker == speaker
    ]


def prepare_training_examples(
    dialog: Dialog, classifier: PolarityClassifier
) -> list[TrainingExample]:
    """Drop the closing user utterance; one example per agent utterance.

    The example for the agent utterance at position 2k keeps utterances
    1..2k-1 as context, so ``context_turns`` equals the number of context
    utterances.  Targets are always agent-side.
    """
    if dialog.utterances[-1].speaker != USER:
        raise ValueError(f"{dialog.source_id}: expected a user-final dialog")
    remaining = dialog.utterances[:-1]
    if not any(u.speaker == AGENT for u in remaining):
        raise ValueError(f"{dialog.source_id}: no agent utterance to predict")
    return _examples(dialog, remaining, AGENT, classifier)


def prepare_user_side_examples(
    dialog: Dialog, classifier: PolarityClassifier
) -> list[TrainingExample]:
    """User-turn prediction tasks for the self-chat user simulator.

    Unlike agent-side preparation nothing is deleted: the closing positive
    user utterance is the most informative target for a user model.
    """
    return _examples(dialog, dialog.utterances, USER, classifier)


def corpus_words(dialogs: Sequence[Dialog]) -> list[str]:
    """Every word token occurring in the dialogs (duplicates included)."""
    return [w for d in dialogs for u in d.utterances for w in u.tokens]


# -------------------------------------------------------------- file i/o


def write_jsonl(path, records: Iterable[dict], meta: dict | None = None) -> None:
    """Write one JSON object per line, after a ``{"meta": meta}`` header if given."""
    with open_output(path) as fh:
        if meta is not None:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path, parse: Callable[[dict], T]) -> tuple[dict | None, list[T]]:
    """Read a JSON-lines file into (meta, [parse(record), ...]).

    Blank lines are skipped.  Every other line must hold a JSON object; the
    first one is the meta header when it has the key ``"meta"``.  Any other
    line that is not an object, or that ``parse`` rejects, raises one
    ValueError naming the path and the line.
    """
    meta, items = None, []
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = parse_json(line)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: invalid JSON") from None
        try:
            if not isinstance(record, dict):
                raise ValueError(f"expected a JSON object, got {type(record).__name__}")
            if meta is None and not items and "meta" in record:
                meta = record["meta"]
                if not isinstance(meta, dict):
                    raise ValueError("meta must be an object")
            else:
                items.append(parse(record))
        except KeyError as exc:
            raise ValueError(f"{path}: line {line_no}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return meta, items


def dialog_to_record(dialog: Dialog) -> dict:
    return {
        "source_id": dialog.source_id,
        "utterances": [{"speaker": u.speaker, "text": u.text} for u in dialog.utterances],
    }


def dialog_from_record(record: dict) -> Dialog:
    return Dialog(
        source_id=record["source_id"],
        utterances=tuple(
            Utterance(u["speaker"], u["text"]) for u in record["utterances"]
        ),
    )


def save_corpus(path, dialogs: Sequence[Dialog], meta: dict | None = None) -> None:
    write_jsonl(path, (dialog_to_record(d) for d in dialogs), meta)


def load_corpus(path) -> list[Dialog]:
    return read_jsonl(path, dialog_from_record)[1]


def load_blocklist(path) -> list[str]:
    """One entry per line; blank lines and '#' comments are skipped."""
    entries = (line.strip() for line in read_lines(path))
    return [entry for entry in entries if entry and not entry.startswith("#")]
