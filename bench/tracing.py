"""In-memory spans recorded from the benchmark's own code.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span (or -1) and ``run`` identifies the workload run or the
microbenchmark the span belongs to. Spans are kept in memory and written
out once, when the benchmark ends.
"""

from __future__ import annotations

from contextlib import contextmanager
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, run]
        self.run = ""
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                           self.run])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    def timed(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span; return (result, seconds)."""
        index = self._open(name)
        try:
            result = fn(*args)
        finally:
            self._close(index)
        start, end = self.spans[index][1:3]
        return result, (end - start) * 1e-9

    def durations(self, name, run=None):
        """Durations in seconds of the spans called ``name`` (in ``run``)."""
        return [(s[2] - s[1]) * 1e-9 for s in self.spans
                if s[0] == name and (run is None or s[4] == run)]

    def median(self, name, run=None):
        return statistics.median(self.durations(name, run))

    def summary(self):
        """Per span name: count, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - children) * 1e-9
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        document = {
            "columns": ["name", "start_ns", "end_ns", "parent", "run"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "summary": self.summary(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


@contextmanager
def patched(tracer, points):
    """Temporarily replace ``owner.attr`` with a traced wrapper for every
    ``(owner, attr, span_name)`` in ``points``."""
    saved = []
    try:
        for owner, attr, name in points:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
