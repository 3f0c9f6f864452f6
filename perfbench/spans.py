"""In-memory spans for the traced benchmark run.

A span records one call into a layer of the program: its name, the op it
belongs to, the span that encloses it, and start and end times from
``time.perf_counter_ns``. Spans stay in memory until the run ends and are
written out once. Self time is a span's duration minus the time its child
spans cover. Each span also carries the machine-speed scale of the window
it ran in (see ``speed.py``); medians are taken over scaled durations.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns


class NullTracer:
    """Stand-in used by untraced ops: records nothing."""

    op: object = None
    spans: list = []

    def span(self, name: str):
        return nullcontext()

    def rescale(self, since: int, scale: float) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        # [name, op, parent index or None, start_ns, end_ns, scale]
        self.spans: list[list] = []
        self.op: object = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, self.op, parent, perf_counter_ns(), 0, 1.0]
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield
        finally:
            record[4] = perf_counter_ns()
            self._open.pop()

    def rescale(self, since: int, scale: float) -> None:
        """Give every span recorded from index ``since`` on its window's scale."""
        for record in self.spans[since:]:
            record[5] = scale

    def durations(self, name: str) -> list[float]:
        """Scaled seconds of every span called ``name``, in recording order."""
        return [(end - start) * scale / 1e9
                for n, _, _, start, end, scale in self.spans if n == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0.0 if there are none."""
        seconds = self.durations(name)
        return statistics.median(seconds) if seconds else 0.0

    def self_ns(self) -> list[int]:
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        own = self.self_ns()
        records = [
            {"name": name, "op": op, "parent": parent, "start_ns": start,
             "end_ns": end, "self_ns": self_ns, "scale": scale}
            for (name, op, parent, start, end, scale), self_ns in zip(self.spans, own)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records}) + "\n")
