"""In-memory spans recorded around calls into probkit, from outside it.

A span is (name, start_ns, end_ns, parent index or -1). Spans nest on one
thread, so a span's self time is its duration minus its children's.
Nothing here touches probkit's source: layers are traced by wrapping the
callables the benchmark hands to them (an instance's
``value_and_gradient``, the ``probkit.rng.std_normal`` generator, the
functions ``probkit.cli`` imported) and restoring them afterwards.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def wrap(self, name: str, fn):
        """``fn`` with one span per call; exceptions are counted and re-raised."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                self.errors[(name, type(err).__name__)] += 1
                raise
            finally:
                self._close(idx, name, t0)

        return traced

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, time.perf_counter_ns(), parent)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_ns = defaultdict(int)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += (t1 - t0) / 1e9
            row["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


@contextmanager
def patched(obj, attr: str, value):
    """Set ``obj.attr`` for the duration of the block, then put it back."""
    had = attr in vars(obj)
    old = vars(obj).get(attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(obj, attr, old)
        else:
            delattr(obj, attr)
