"""In-memory span recording for the traced benchmark run.

A :class:`SpanRecorder` keeps every span as a :class:`Span` tuple --
layer name, start and end (``perf_counter_ns``), parent span id, the
benchmark call it belongs to, the recording process and a small dict of
counts -- and writes nothing until :meth:`SpanRecorder.write_chrome`
is called at the end of a run.  Self time is a span's duration minus
the part of it that its child spans cover (children that ran in worker
processes may overlap, so coverage is an interval union).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: "int | None"
    name: str
    call: "int | None"
    start: int
    end: int
    pid: int
    counts: dict


class SpanRecorder:
    """Collects spans of the current process.

    ``call`` is the id of the benchmark call in progress; every span
    opened while it is set carries it.  Span ids are unique across
    processes (``pid`` in the high bits), so spans shipped back from
    pool workers can be merged with :meth:`extend`.
    """

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.call: "int | None" = None
        self._stack: "list[int]" = []
        self._next = 0

    def open(self) -> "tuple[int, int | None, int]":
        """Start a span; returns the token :meth:`close` needs."""
        self._next += 1
        sid = (os.getpid() << 32) | self._next
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, token, name: str, counts: "dict | None" = None) -> None:
        end = time.perf_counter_ns()
        sid, parent, start = token
        # pop through spans left open by a call that raised inside them
        while self._stack and self._stack.pop() != sid:
            pass
        self.spans.append(
            Span(sid, parent, name, self.call, start, end, os.getpid(),
                 counts or {})
        )

    def extend(self, spans) -> None:
        self.spans.extend(Span(*s) for s in spans)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> "dict[str, float]":
        """Seconds of self time per layer name."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out: "dict[str, float]" = defaultdict(float)
        for s in self.spans:
            covered = _union_within(children.get(s.sid, ()), s.start, s.end)
            out[s.name] += (s.end - s.start - covered) / 1e9
        return dict(out)

    def counts(self) -> "dict[str, dict[str, int]]":
        """Summed counts per layer name (``{"plan.build": {"plans": 3}}``)."""
        out: "dict[str, dict[str, int]]" = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            for key, value in s.counts.items():
                out[s.name][key] += value
        return {name: dict(c) for name, c in out.items()}

    def covered_ns(self) -> int:
        """Nanoseconds that some span of this process covers."""
        pid = os.getpid()
        roots = [(s.start, s.end) for s in self.spans
                 if s.pid == pid and s.parent is None]
        return _union_within(roots, 0, 1 << 62)

    # -------------------------------------------------------------- export

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome-trace JSON (opens in Perfetto)."""
        t0 = min((s.start for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "cat": "layer",
                "ph": "X",
                "ts": (s.start - t0) / 1e3,
                "dur": (s.end - s.start) / 1e3,
                "pid": s.pid,
                "tid": s.pid,
                "args": {"call": s.call, "span": s.sid, "parent": s.parent,
                         **s.counts},
            }
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)


def _union_within(intervals, lo: int, hi: int) -> int:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total
