"""In-memory span recorder for the traced benchmark run.

A span covers one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that caused it and the
trace id of the study call it belongs to.  Spans stay in memory while the
benchmark measures and are written out once, when it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace_id: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans of one thread; each study call starts a new trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def new_trace(self, trace_id: int) -> None:
        self.trace_id = trace_id

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent=parent,
                  trace_id=self.trace_id, attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = []
        for i, sp in enumerate(self.spans):
            covered, reach = 0.0, sp.start
            for ch in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(sp.duration - covered)
        return out

    def export(self, trace_id: int) -> list[dict]:
        """The spans of one trace as JSON objects, each with its index as id."""
        return [{"id": i, **asdict(sp)} for i, sp in enumerate(self.spans)
                if sp.trace_id == trace_id]


def write_jsonl(path, header: dict, spans) -> None:
    """One JSON object per line: the header, then the spans in order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for record in (header, *spans):
            fh.write(json.dumps(record) + "\n")
