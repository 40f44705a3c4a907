"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side, around calls into the
public functions of each layer; the program itself is not instrumented.
Each span keeps its name, start, end, parent span and the id of the call
that caused it. Counts are summed per name at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, call id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.call_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.call_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, call = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, call)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "call")
        path.write_text(
            json.dumps(
                {
                    "spans": [dict(zip(fields, s)) for s in self.spans],
                    "counts": self.counts,
                }
            )
        )
