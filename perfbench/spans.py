"""Span recorder for the benchmark's calls into the niho_perm layers.

A span holds an id, its parent span, the operation it belongs to, a name of
the form ``<layer>.<call>``, start and end times and a few attributes (k,
m, a loop count).  Spans stay in memory and are written once, when the run
ends.  With tracing off, ``call`` is a plain call and nothing is recorded.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "op": self._op, "name": name, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """One workload operation; every span inside shares its op id."""
        if not self.enabled:
            yield
            return
        self._op += 1
        with self.span("bench.op", label=label):
            yield

    def call(self, name: str, k, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; k is a span attribute."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self.calls[name] += 1
        with self.span(name, k=k):
            return fn(*args, **kwargs)

    def durations(self, name: str, **attrs) -> list[float]:
        """Durations in seconds of the spans with this name and attributes."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name
                and all(s.get(a) == v for a, v in attrs.items())]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer: span time minus the part covered by child spans."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for s in self.spans:
            layer = s["name"].split(".")[0]
            out[layer] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in self.spans]
        body = {**extra, "calls": dict(sorted(self.calls.items())),
                "self_s_by_layer": self.self_seconds_by_layer(),
                "spans": spans}
        with open(path, "w") as fh:
            json.dump(body, fh)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that one traced ``Tracer.call`` adds to an empty call: the
    fastest of a few timed loops, traced minus untraced, per call."""
    def loop(tracer):
        t = time.perf_counter()
        for _ in range(calls):
            tracer.call("bench.noop", 0, _noop)
        return time.perf_counter() - t

    traced = min(loop(Tracer(True)) for _ in range(repeats))
    plain = min(loop(Tracer(False)) for _ in range(repeats))
    return (traced - plain) / calls


def _noop():
    return None
