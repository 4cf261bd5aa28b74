"""Declarative run configuration.

A run config is a single JSON document with fixed sections.  Loading merges
it over the defaults, rejecting unknown keys at any depth, and validates
every section.  A section's defaults are those of the dataclass it builds.
The resolved document has every default spelled out; its canonical
serialization is hashed so output files can be traced back to the exact
settings that produced them.  The file is a run's only source of settings,
apart from the CLI's ``--seed``, ``--ablation`` and ``train --corpus``.

File paths left null fall back to the packaged fixtures where one exists
(lexicon, blocklists, self-chat seeds); the corpus path has no default.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Sequence

from .checks import check_int
from .corpus import FilterRules, SynthConfig, load_blocklist
from .model import DecodeConfig, ModelConfig
from .objective import PegeConfig
from .polarity import NEUTRAL, ClassifierParams, PolarityClassifier
from .resources import (
    ENTITY_FILE,
    LEXICON_FILE,
    OFFENSIVE_FILE,
    SEEDS_FILE,
    TOPIC_FILE,
    data_path,
    parse_json,
)
from .selfchat import SeedUtterance, SelfChatConfig
from .train import TrainConfig
from .vad import VadLexicon, load_lexicon_file


class ConfigError(Exception):
    """Malformed run configuration (bad syntax, unknown key, bad value)."""


_PACKAGED = {
    "lexicon": LEXICON_FILE,
    "topic_blocklist": TOPIC_FILE,
    "entity_patterns": ENTITY_FILE,
    "offensive_blocklist": OFFENSIVE_FILE,
    "seeds": SEEDS_FILE,
}

def _defaults(cls, *skip: str) -> dict:
    """A section's defaults, read from its dataclass; tuples become JSON lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.name not in skip
    }


# A section leaves out the fields set from input files (vocab size, blocklists,
# seed utterances) or from the top-level seed; decode is a section of its own.
_DEFAULTS = {
    "seed": 0,
    "paths": dict.fromkeys([*_PACKAGED, "corpus"]),
    "model": _defaults(ModelConfig, "vocab_size"),
    "train": _defaults(TrainConfig, "seed"),
    "objective": _defaults(PegeConfig),
    "classifier": _defaults(ClassifierParams),
    "filters": _defaults(FilterRules, "topic_blocklist", "entity_patterns", "offensive_blocklist"),
    "synth": _defaults(SynthConfig),
    "selfchat": {
        **_defaults(SelfChatConfig, "seeds", "decode", "rng_seed"),
        "decode": _defaults(DecodeConfig),
    },
}


def _merge(defaults: dict, override: dict, crumb: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {crumb}{key}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{crumb}{key} must be an object")
            out[key] = _merge(defaults[key], value, f"{crumb}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration document."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> RunConfig:
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        data = _merge(_DEFAULTS, raw, crumb="")
        for key, value in data["paths"].items():
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"paths.{key} must be a string or null, got {value!r}")
        config = cls(data=data)
        config._build(check_int, name="seed", value=data["seed"], minimum=0)
        # Build every section once, so any stage rejects any invalid section.
        # The vocabulary size and the seed utterances come from input files;
        # placeholders stand in for them here.
        config.model_config(vocab_size=1)
        config.train_config()
        config.pege_config()
        config.classifier_params()
        config._build(FilterRules, **data["filters"])
        config.synth_config()
        config.selfchat_config([SeedUtterance("placeholder", NEUTRAL)])
        return config

    def with_overrides(self, *, seed: int | None = None, ablation: str | None = None) -> RunConfig:
        data = copy.deepcopy(self.data)
        if seed is not None:
            data["seed"] = seed
        if ablation is not None:
            data["train"]["ablation"] = ablation
        return RunConfig.from_dict(data)

    # ------------------------------------------------------------- basics

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def resolved(self) -> dict:
        return copy.deepcopy(self.data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, name: str) -> str | None:
        """Configured path, or the packaged fixture when one exists."""
        try:
            configured = self.data["paths"][name]
        except KeyError:
            raise ConfigError(f"unknown path name: {name}") from None
        if configured is not None:
            return configured
        if name in _PACKAGED:
            return str(data_path(_PACKAGED[name]))
        return None

    # ----------------------------------------------------------- builders

    def _build(self, factory, **kwargs):
        try:
            return factory(**kwargs)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def model_config(self, vocab_size: int) -> ModelConfig:
        return self._build(ModelConfig, vocab_size=vocab_size, **self.data["model"])

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, seed=self.seed, **self.data["train"])

    def pege_config(self) -> PegeConfig:
        return self._build(PegeConfig, **self.data["objective"])

    def classifier_params(self) -> ClassifierParams:
        return self._build(ClassifierParams, **self.data["classifier"])

    def lexicon(self) -> VadLexicon:
        return load_lexicon_file(self.path("lexicon"))

    def classifier(self) -> PolarityClassifier:
        return PolarityClassifier(self.lexicon(), self.classifier_params())

    def filter_rules(self) -> FilterRules:
        return self._build(
            FilterRules,
            **self.data["filters"],
            topic_blocklist=frozenset(load_blocklist(self.path("topic_blocklist"))),
            entity_patterns=tuple(load_blocklist(self.path("entity_patterns"))),
            offensive_blocklist=frozenset(load_blocklist(self.path("offensive_blocklist"))),
        )

    def synth_config(self) -> SynthConfig:
        raw = self.data["synth"]
        return self._build(
            SynthConfig, **{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        )

    def decode_config(self) -> DecodeConfig:
        return self._build(DecodeConfig, **self.data["selfchat"]["decode"])

    def selfchat_config(self, seeds: Sequence[SeedUtterance]) -> SelfChatConfig:
        return self._build(
            SelfChatConfig,
            seeds=tuple(seeds),
            turns=self.data["selfchat"]["turns"],
            decode=self.decode_config(),
            rng_seed=self.seed,
        )


def default_run_config() -> RunConfig:
    return RunConfig.from_dict({})


def load_run_config(path) -> RunConfig:
    """Parse a JSON run config; syntax errors and unknown keys are ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = parse_json(fh.read())
        except ValueError as exc:  # not JSON, nested too deep, or not UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return RunConfig.from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
