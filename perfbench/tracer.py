"""In-memory span recorder for the calls the benchmark makes into betalab.

A span is ``{id, name, parent, start, end, run}``; times are seconds from
the start of the pass. Spans stay in memory and are handed to the parent
process when the pass ends. With tracing off, :meth:`Tracer.call` is a
plain call and nothing is recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str | None = None):
        """Record one span; ``layer`` is set for spans around betalab calls."""
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def call(self, fn, *args, **kwargs):
        """Call a public betalab function inside a span named after it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = fn.__module__.rsplit(".", 1)[-1]
        with self.span(f"{layer}.{fn.__name__}", layer):
            return fn(*args, **kwargs)


def layer_busy(spans: list[dict]) -> dict:
    """Summed duration and count of the betalab-call spans, by span name."""
    busy: dict = {}
    for s in spans:
        if s["layer"] is not None:
            total, calls = busy.get(s["name"], (0.0, 0))
            busy[s["name"]] = (total + s["end"] - s["start"], calls + 1)
    return busy
