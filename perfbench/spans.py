"""Spans recorded in memory around calls into the program, and their self time.

A ``Tracer`` replaces a module attribute with a wrapper that records one span
per call: name, start, end and the index of the enclosing span. Spans of one
invocation share the tracer's ``trace`` number. Nothing is written while the
program runs; ``Tracer.dump`` returns the spans for writing afterwards.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    trace: int


class Tracer:
    def __init__(self, trace: int = 0) -> None:
        self.trace = trace
        self.spans: list[Span] = []
        # (span name, args, kwargs, result) of calls whose counts are read
        # after the invocation, so counting adds no time to any span
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: bool = False):
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.trace)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                self.calls.append((name, args, kwargs, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, span name, keep)`` targets, restoring them on exit."""
        saved = []
        try:
            for owner, attr, name, keep in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, keep))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out
