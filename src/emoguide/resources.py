"""Names and paths of the packaged data files (lexicon, blocklists, seed set),
the UTF-8 line reader that every text input file goes through, the JSON
parser that every JSON input goes through, and the writer that every output
file goes through.

``RunConfig`` reads them: ``default_run_config().lexicon()`` and
``.filter_rules()`` give the packaged defaults.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import stat
from importlib import resources
from pathlib import Path
from typing import IO, Any, Iterator

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


@contextlib.contextmanager
def open_output(path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for writing, so that it ends up whole or unchanged.

    The file is written under a temporary name in the target's directory and
    moved into place with ``os.replace`` when the ``with`` block ends.  On
    any error the temporary file is removed, and a previous file at ``path``
    stays intact.  A new file gets the permissions that ``open`` gives one
    (0o666 less the umask), and a replaced file keeps its own.  A target
    that is not a regular file, such as ``/dev/null`` or a pipe, is written
    in place, as ``open`` would.
    """
    target = os.path.realpath(path)  # through a symlink, as ``open`` writes
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    try:
        old_mode = os.stat(target).st_mode
    except FileNotFoundError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with open(target, mode, encoding=encoding) as fh:
            yield fh
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the output, not the temporary file
        raise
    try:
        with open(fd, mode, encoding=encoding) as fh:
            if old_mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def parse_json(text: str | bytes) -> Any:
    """``json.loads``, where a document nested too deep for the parser raises
    ValueError, as every other malformed document does."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
