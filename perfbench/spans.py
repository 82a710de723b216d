"""Spans recorded by the benchmark around its calls into taxovec.

A span names the taxovec module it enters (the layer) and the public
function called. Spans nest through a stack, carry the id of the op they
belong to, and are kept in memory until the run writes them out. With
tracing off a span still times its body, because the end-to-end figures
come from the same clock reads, but nothing is stored.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "layer", "name", "op", "start", "end", "parent", "sid")

    def __init__(self, tracer: "Tracer", layer: str, name: str, op: int | None):
        self.tracer = tracer
        self.layer = layer
        self.name = name
        self.op = op
        self.start = self.end = 0.0
        self.parent = self.sid = None

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.sid = tr.opened
        tr.opened += 1
        if tr.stack:
            self.parent = tr.stack[-1].sid
            if self.op is None:
                self.op = tr.stack[-1].op
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        if tr.enabled:
            tr.spans.append(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.opened = 0
        self.stack: list[Span] = []
        self.spans: list[Span] = []  # in closing order

    def span(self, layer: str, name: str, op: int | None = None) -> Span:
        return Span(self, layer, name, op)

    def self_seconds(self, spans: list[Span], scale) -> dict[str, float]:
        """Seconds per layer in `spans` not covered by their child spans,
        each span's share multiplied by scale(span start).

        Calls are sequential, so children never overlap and a span's self
        time is its duration minus the sum of its children's durations.
        """
        child: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        out: dict[str, float] = {}
        for s in spans:
            own = (s.seconds - child.get(s.sid, 0.0)) * scale(s.start)
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "layer": s.layer,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")
