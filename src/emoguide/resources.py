"""Names and paths of the packaged data files (lexicon, blocklists, seed set).

``RunConfig`` reads them: ``default_run_config().lexicon()`` and
``.filter_rules()`` give the packaged defaults.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

LEXICON_FILE = "vad_lexicon.tsv"
TOPIC_FILE = "topic_blocklist.txt"
ENTITY_FILE = "entity_patterns.txt"
OFFENSIVE_FILE = "offensive_blocklist.txt"
SEEDS_FILE = "selfchat_seeds.jsonl"


def data_path(name: str) -> Path:
    return Path(str(resources.files("emoguide") / "data" / name))
