"""In-memory spans for the traced run, and layer self time derived from them.

A span has a name, a start, an end, a parent span and the id of the op it
belongs to.  Spans are opened by the benchmark around its own calls into the
program's public functions, so they measure each layer from outside.  A
span's self time is its duration minus the durations of its children, which
run one after another on the single benchmark thread.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans and named counts; writes the spans out on request."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    def self_times(self):
        """Seconds of self time per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i])
        return out

    def total(self, name):
        """Summed duration of the spans with this name."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_us": round((s - origin) * 1e6, 1),
                 "end_us": round((e - origin) * 1e6, 1), "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class NullTracer:
    """Stands in for Tracer on the untraced path: records nothing."""

    op = None

    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass
