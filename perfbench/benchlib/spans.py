"""In-memory span recorder and self-time arithmetic.

A span is one timed call: ``(span_id, parent_id, name, start, end,
thread)``.  The recorder keeps a per-thread stack so nested calls get
their caller as parent; a thread whose stack is empty (a rank thread, a
service client) parents its spans to the open root span.  Spans are kept
in a list until the run ends and are then written out in one go.

A span's *self time* is its duration minus the part of its interval that
its children cover (the union of the child intervals, clipped to the
parent).  Overlapping children -- concurrent rank threads under one root
-- are therefore not double-subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  #: 0 = no parent
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of one run (shared ``run_id``) in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the ``with`` body as one span; ``root`` adopts orphans."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        if root:
            outer_root, self._root = self._root, span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = outer_root
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident()))

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__perfbench_span__ = name
        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON document (run id + span rows)."""
        doc = {
            "run_id": self.run_id,
            "fields": ["span_id", "parent_id", "name", "start", "end",
                       "thread"],
            "spans": [[s.span_id, s.parent_id, s.name, s.start, s.end,
                       s.thread] for s in self.spans],
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def covered(interval: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(children):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: s.duration - covered((s.start, s.end),
                                        children.get(s.span_id, []))
        for s in spans
    }


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += s.duration
        row["self"] += own[s.span_id]
    return out
