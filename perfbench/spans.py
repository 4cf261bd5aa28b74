"""In-memory span tracing installed from outside the program.

A span records one call at a layer boundary: its name, start and end (on
``time.perf_counter``), the span that was open when it started (its
parent) and a group id shared by every span of one dialog, training step
or corpus pass.  Spans stay in memory and are written out once, when the
run ends.

Layers are traced by replacing the cross-module names a caller resolves at
call time (``emoguide.selfchat.generate``, ``emoguide.train.Adam.step``,
...) with a wrapper that opens and closes a span around the original.
``Tracer.uninstall`` puts every original back; nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: int


# observe(tracer, span, args, kwargs, result) runs after the span closes
Observer = Callable[["Tracer", Span, tuple, dict, object], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.group = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.group)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed while {top.name!r} is open")

    def new_group(self) -> None:
        self.group += 1

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Observer | None = None,
        new_group: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; for a class the plain function in
        its ``__dict__`` is wrapped, so the wrapper still binds as a method.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if new_group:
                tracer.new_group()
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    spans = list(spans)
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)
