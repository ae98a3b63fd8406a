"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds) and
the span that was open when it started.  Spans stay in memory until the run
ends and are then written out as JSON.  A span's self time is its duration
minus the part covered by its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None]
        self._open = []      # indices of the spans currently open

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self, first: int = 0):
        """Per span name: (inclusive seconds, self seconds, count), over the
        spans from index ``first`` on."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _) in enumerate(self.spans[first:], first):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[index]
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def last_duration(self) -> float:
        """Duration of the latest span; right after a span without children
        closes, that is the span itself."""
        _, start, end, _ = self.spans[-1]
        return end - start

    def inclusive(self, name: str) -> float:
        return self.totals().get(name, (0.0, 0.0, 0))[0]

    def covered(self, root_name: str) -> float:
        """Time the direct children of the latest ``root_name`` span cover:
        the summed self time of every span below it."""
        root = max(i for i, s in enumerate(self.spans) if s[0] == root_name)
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == root)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


class _NoTrace:
    """Stands in for a Tracer in untraced passes: records nothing."""

    @staticmethod
    def span(name: str):
        return nullcontext()


NO_TRACE = _NoTrace()
