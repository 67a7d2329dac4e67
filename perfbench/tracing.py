"""In-memory spans around functions looked up on a module.

A Tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent) per call, so nested calls through wrapped
attributes become child spans. Spans stay in memory until `write`; every
wrapped attribute is put back by `unwrap_all`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str | Callable[..., str],
        count: Callable[..., None] | None = None,
    ) -> None:
        """Trace every call made through module.attr.

        name is the span name, or a function of the call's arguments that
        returns it. count(counts, result, *args, **kwargs) runs after the
        span has closed, so its cost is not charged to the layer.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += self_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": [asdict(s) for s in self.spans],
                        "counts": dict(self.counts)}) + "\n"
        )
