"""In-memory span tracing of iakrec's layers, driven from outside the package.

The tracer replaces a function where its callers bind the name (for example
`iakrec.trainer.adapter_step_cached`, which trainer imported by name) with a
wrapper that records one span per call: name, start, end, parent span and an
optional counter taken from the call's arguments or result. Every replaced
name is put back when tracing ends. Spans stay in memory; the benchmark
writes them out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# modules whose spans count as "named layers"; cli.* and bench.* spans are the
# command wrappers and the benchmark's own phases
LAYER_MODULES = ("datagen", "models", "autodiff", "trainer", "iak", "evals", "router", "checkpoint")


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    count: Any = None  # counter recorded by the wrapper, e.g. rows or nodes

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`count(args, result)` runs after the call, outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                s.count = count(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for `(owner, attribute, span name, counter)`
        targets and restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start_ns": s.start, "end_ns": s.end,
                                    "parent": s.parent, "count": s.count}) + "\n")


def covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.dur - covered(kids) for s, kids in zip(spans, children)]


def ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield p
        p = spans[p].parent


def module_of(name: str) -> str:
    return name.split(".", 1)[0]
