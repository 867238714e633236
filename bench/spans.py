"""Spans recorded from the benchmark's side of the API.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``op`` is the
workload's op number, which all spans of one op share.  Spans are kept
in memory and written out when the traced run ends.  Spans *inside* the
program are a later issue; these only bracket the calls the benchmark
makes into a layer.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    """Records a span around every :meth:`call`."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)


class NullTracer:
    """The end-to-end runs' tracer: calls through, records nothing."""

    spans = ()
    op = -1

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
