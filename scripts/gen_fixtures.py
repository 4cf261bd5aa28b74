#!/usr/bin/env python3
"""Regenerate the packaged data fixtures that derive from the word bank.

Writes src/emoguide/data/vad_lexicon.tsv and selfchat_seeds.jsonl.  Both are
committed; tests/test_corpus.py regenerates them into a temporary directory
and requires them to be byte-identical to the committed files.

    python scripts/gen_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from emoguide.corpus import WORD_BANK, _sample_words, write_jsonl  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "emoguide" / "data"

SEED_COUNTS = (("negative", 33), ("neutral", 34), ("positive", 33))
SEED_RNG = 20240817


def lexicon_text() -> str:
    lines = ["# synthetic VAD lexicon: token\tvalence\tarousal\tdominance"]
    for band, rows in WORD_BANK.items():
        lines.append(f"# band: {band}")
        for word, v, a, d in rows:
            lines.append(f"{word}\t{v}\t{a}\t{d}")
    return "\n".join(lines) + "\n"


def seeds_records() -> list[dict]:
    rng = np.random.default_rng(SEED_RNG)
    records = []
    for label, count in SEED_COUNTS:
        for _ in range(count):
            n_words = int(rng.integers(3, 8))
            records.append(
                {"text": " ".join(_sample_words(rng, label, n_words, 0.0)), "polarity": label}
            )
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def write_fixtures(out_dir: Path) -> list[Path]:
    lexicon, seeds = out_dir / "vad_lexicon.tsv", out_dir / "selfchat_seeds.jsonl"
    lexicon.write_text(lexicon_text(), encoding="utf-8")
    write_jsonl(seeds, seeds_records())
    return [lexicon, seeds]


def main() -> None:
    for path in write_fixtures(DATA):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
