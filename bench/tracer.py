"""The benchmark's own span tracer.

Spans are recorded from the benchmark's files, around the calls it
makes into each layer of ``repro`` — nothing inside ``src/`` is
instrumented (in-program tracing is ROADMAP item 5).  Each span keeps
its name, start, end, the span that caused it and the id of the
request (op) it belongs to; spans stay in memory and are written as
JSON lines when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the self times of one request add up to the request's
wall time exactly; what stays on the root span is the time no named
layer accounts for (``trace.unattributed_frac``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List

#: name of the root span wrapping one whole op
ROOT = "request"


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes it a no-op so
    the same composed code can run with and without tracing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: finished spans: ``[id, parent, name, start_ns, end_ns, request]``
        self.spans: List[list] = []
        # the open-span stack and current request are per thread: the
        # two rpc-small lanes trace concurrently
        self._local = threading.local()
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append([span_id, parent, name, start, end,
                               getattr(local, "request", None)])

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Root span of one op; child spans inherit ``request_id``."""
        local = self._local
        previous = getattr(local, "request", None)
        local.request = request_id
        try:
            with self.span(ROOT):
                yield
        finally:
            local.request = previous

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{request: {span name: self seconds}}`` (unrequested spans,
        e.g. set-up, are filed under request ``None``)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _id, parent, _name, start, end, _req in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span_id, _parent, name, start, end, req in self.spans:
            out[req][name] += (end - start - child_ns[span_id]) / 1e9
        return out

    def unattributed_frac(self) -> float:
        """Share of the root spans' time that no child span covers."""
        total = sum(self.durations(ROOT))
        if not total:
            return 0.0
        own = sum(spans.get(ROOT, 0.0)
                  for spans in self.self_times().values())
        return own / total

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every span called ``name``, in finish order."""
        return [(end - start) / 1e9
                for _i, _p, n, start, end, _r in self.spans if n == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "request": req,
                }) + "\n")
