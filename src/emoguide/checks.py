"""Argument checks, one per kind of value; they import nothing from the package.

Each returns its value or raises ValueError("<name> must be <kind>, got
<value>").  A bool (JSON ``true``) is neither an integer nor a real here.
``_unchecked`` is the one way around a record's checks, for records computed
from checked parts.
"""

from __future__ import annotations

import math

import numpy as np

INT64_MAX = 2**63 - 1  # the largest integer numpy draws or sizes with

# Upper bounds of the size-like config fields.  The loader checks them, so a
# config it accepts cannot ask for work that no run finishes.  Each sits far
# above PosEmoDial's scale (~820k dialogs, ~3M utterances, so ~3.7 per
# dialog) and the default model's (embed 64, hidden 128, one layer).
MAX_UTTERANCES = 1000  # per dialog: its ~n/2 training examples hold ~n²/4 context utterances in all
MAX_WORDS = 1000  # per utterance or reply: ~8 times the default 128-id window a stream must fit
MAX_WIDTH = 4096  # embed_dim, hidden_dim: a layer's 3·H² recurrent weights take 201 MB in float32
MAX_LAYERS = 64  # each layer is one more sequential pass over every position, forward and back


def check_int(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """A Python int in [minimum, maximum]; no upper bound when ``maximum`` is None."""
    if type(value) is not int or value < minimum or (maximum is not None and value > maximum):
        upper = "" if maximum is None else f" and <= {maximum}"
        raise ValueError(f"{name} must be an integer >= {minimum}{upper}, got {value!r}")
    return value


def check_real(name: str, value, low=-math.inf, high=math.inf, *, low_open=False, high_open=False):
    """A finite real between ``low`` and ``high``, each end closed unless its
    ``*_open`` flag is set."""
    try:  # TypeError for a non-number, OverflowError for an int too large for a float
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    above = finite and (low < value if low_open else low <= value)
    if above and (value < high if high_open else value <= high):
        return value
    lo = "(" if low_open or low == -math.inf else "["
    hi = ")" if high_open or high == math.inf else "]"
    interval = f"{lo}{_bound(low)}, {_bound(high)}{hi}"
    raise ValueError(f"{name} must be a finite real in {interval}, got {value!r}")


def _bound(x: float) -> str:
    """``x`` in short form (``0``, ``inf``) where that reads back as ``x``, else in full."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def check_tuple(name: str, value, n: int) -> tuple:
    """A tuple or list of exactly ``n`` items, returned as a tuple."""
    if not isinstance(value, (tuple, list)) or len(value) != n:
        raise ValueError(f"{name} must be {n} values, got {value!r}")
    return tuple(value)


def _unchecked(cls, *values):
    """A ``cls`` record holding ``values``, one per slot in slot order, built
    without running ``__post_init__``.

    ``cls`` is a slotted frozen dataclass.  Call this only where every value
    was computed from values its checks already passed, so the record is one
    the checked constructor would accept; never on input from outside the
    program.  ``tests/test_package.py`` pins the call sites.
    """
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


def check_token_ids(name: str, ids, vocab_size: int) -> np.ndarray:
    """A 1-D integer (not bool) array of ids in [0, vocab_size), returned as
    int64; an empty sequence passes whatever its dtype."""
    arr = np.asarray(ids)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{name} must be a 1-D integer array, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        bad = arr[(arr < 0) | (arr >= vocab_size)][0]
        raise ValueError(f"{name} must be ids in [0, {vocab_size}), got {int(bad)}")
    return arr.astype(np.int64)
