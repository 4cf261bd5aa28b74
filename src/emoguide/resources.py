"""Names and paths of the packaged data files (lexicon, blocklists, seed set),
the UTF-8 line reader that every text input file goes through, and the JSON
parser that every JSON input goes through.

``RunConfig`` reads them: ``default_run_config().lexicon()`` and
``.filter_rules()`` give the packaged defaults.
"""

from __future__ import annotations

import io
import json
from importlib import resources
from pathlib import Path
from typing import Any, Iterator

LEXICON_FILE = "vad_lexicon.tsv"
TOPIC_FILE = "topic_blocklist.txt"
ENTITY_FILE = "entity_patterns.txt"
OFFENSIVE_FILE = "offensive_blocklist.txt"
SEEDS_FILE = "selfchat_seeds.jsonl"


def data_path(name: str) -> Path:
    return Path(str(resources.files("emoguide") / "data" / name))


def read_lines(path) -> Iterator[str]:
    """Yield a UTF-8 text file's lines, as a text-mode ``open`` splits them.

    A text-mode reader's decode error gives only a position in its read
    buffer, so on that error the file's bytes are decoded here, to raise one
    ValueError naming the path, the line and the byte offset.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
            line_no = before.count("\n") + 1
            raise ValueError(f"{path}: line {line_no}: not UTF-8 (byte {exc.start})") from None
        raise  # the file changed after the first read


def parse_json(text: str | bytes) -> Any:
    """``json.loads``, where a document nested too deep for the parser raises
    ValueError, as every other malformed document does."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
