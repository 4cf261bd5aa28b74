from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoguide.vocab import UNK, assemble_stream, build_vocab

VOCAB = build_vocab(["calm", "day", "fine", "sun"])
PREFIX = ("<pos_3>", "<neg_7>")


def _reference_stream(prefix, segments, vocab, window, tail):
    """The rule spelled out: keep the prefix, the opener and the tail, and
    drop the oldest middle segments until the stream fits the window."""
    head = [vocab.id(prefix[0]), vocab.id(prefix[1])]
    for dropped in range(max(len(segments) - 1, 0) + 1):
        kept = list(segments[:1]) + list(segments[1 + dropped :])
        stream = head + [t for seg in kept for t in seg] + list(tail)
        if len(stream) <= window:
            return stream
    raise ValueError("does not fit")


segment = st.lists(st.integers(0, len(VOCAB) - 1), min_size=1, max_size=9)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(segment, max_size=12),
    st.lists(st.integers(0, len(VOCAB) - 1), max_size=6),
    st.integers(1, 90),
)
def test_assemble_stream_matches_the_reference(segments, tail, window):
    try:
        want = _reference_stream(PREFIX, segments, VOCAB, window, tail)
    except ValueError:
        with pytest.raises(ValueError, match="cannot fit window"):
            assemble_stream(PREFIX, segments, VOCAB, window, tail=tail)
        return
    got = assemble_stream(PREFIX, segments, VOCAB, window, tail=tail)
    assert got == want
    assert assemble_stream(PREFIX, tuple(map(tuple, segments)), VOCAB, window, tuple(tail)) == want


def test_assemble_stream_truncates_from_the_left_and_rejects_what_cannot_fit():
    segments = [[5, 6], [7, 8, 9], [10], [11, 12]]
    full = assemble_stream(PREFIX, segments, VOCAB, 100, tail=[4])
    assert full[2:] == [5, 6, 7, 8, 9, 10, 11, 12, 4]
    assert assemble_stream(PREFIX, segments, VOCAB, 8, tail=[4])[2:] == [5, 6, 10, 11, 12, 4]
    assert assemble_stream(PREFIX, segments, VOCAB, 7, tail=[4])[2:] == [5, 6, 11, 12, 4]
    with pytest.raises(ValueError, match="stream of 5 tokens cannot fit window 4"):
        assemble_stream(PREFIX, segments, VOCAB, 4, tail=[4])
    with pytest.raises(ValueError):
        assemble_stream(PREFIX, segments, VOCAB, 0)


def test_encode_maps_unknown_words_to_unk():
    words = ["sun", "rain", "calm", "", "<eou>", "Sun"]
    assert VOCAB.encode(words) == [VOCAB.id(w) for w in words]
    assert VOCAB.encode(words) == [
        VOCAB.tokens.index(w) if w in VOCAB.tokens else VOCAB.tokens.index(UNK) for w in words
    ]
    assert VOCAB.encode([]) == []
