"""In-memory spans for the traced run.

A span records a name, start and end (perf_counter seconds), the span that
caused it, the query it belongs to and free-form attributes.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, query: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if query is None and parent is not None:
            query = parent.query
        s = Span(len(self.spans), name, parent.id if parent else None, query,
                 0.0, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, s: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == s.id]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
