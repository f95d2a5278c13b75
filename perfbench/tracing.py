"""Spans around library functions, recorded from outside the library.

A `Tracer` replaces a function at every place it is bound (module attribute,
class attribute or dict entry) with a wrapper that records one span per call:
name, start, end, the span that was open when it started, and the pass it
belongs to.  Spans stay in memory until `write_spans`.  `restore` puts every
original object back.  Optional probes turn call arguments into counters
(steps, bytes, suppressed axes) at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

# probe(counters, args, kwargs, result, exc) runs after the span has closed
Probe = Callable[[dict, tuple, dict, object, BaseException | None], None]


class Span(NamedTuple):
    span_id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    request: int


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, self.clock()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, self.request)

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = exc = None
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(name, *opened)
                if probe is not None:
                    probe(self.counters, args, kwargs, result, exc)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one pass."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    # -- installing ----------------------------------------------------

    def install(self, name: str, fn: Callable, owners: Iterable[object], probe: Probe | None = None) -> int:
        """Replace `fn` by one traced wrapper wherever an owner binds it.

        Owners are modules, classes or dicts.  Returns the number of bindings
        replaced; every one of them is undone by `restore`.
        """
        wrapper = self.wrap(name, fn, probe)
        count = 0
        for owner in owners:
            is_dict = isinstance(owner, dict)
            for key, val in list((owner if is_dict else vars(owner)).items()):
                if val is fn:
                    self._patches.append((owner, key, val, is_dict))
                    _bind(owner, key, wrapper, is_dict)
                    count += 1
        return count

    def restore(self) -> None:
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            _bind(owner, key, original, is_dict)

    # -- results -------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.finished_spans():
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def _bind(owner, key: str, value, is_dict: bool) -> None:
    if is_dict:
        owner[key] = value
    else:
        setattr(owner, key, value)


class SpanTotals(NamedTuple):
    calls: int
    total_s: float  # sum of span durations, children included
    self_s: float   # sum of span durations minus the time their children cover


def span_totals(spans: Iterable[Span]) -> dict[str, SpanTotals]:
    """Per-name call count, inclusive time and self time.

    Spans come from one thread, so children run one after another inside
    their parent and the time they cover is the sum of their durations.
    """
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        d = s.end - s.start
        calls[s.name] += 1
        total[s.name] += d
        own[s.name] += d - child_time[s.span_id]
    return {n: SpanTotals(calls[n], total[n], own[n]) for n in calls}
