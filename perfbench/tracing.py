"""In-memory spans for the traced run, with GC pauses attributed to them.

A span records its name, start, end, parent and counts. Garbage
collections are timed through ``gc.callbacks`` and charged to the
innermost open span, so a collection that happens to land inside a
cheap call shows as GC time rather than as that call's own cost.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._gc_started: float | None = None
        self.gc_outside = {"gc_s": 0.0, "gc_collections": 0}

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            target = self._open[-1] if self._open else self.gc_outside
            target["gc_s"] += time.perf_counter() - self._gc_started
            target["gc_collections"] += 1
            self._gc_started = None

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "counts": counts,
            "gc_s": 0.0,
            "gc_collections": 0,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds, and GC time per span name."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "gc_s": 0.0,
                        "gc_collections": 0}
        )
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
        row["gc_s"] += s["gc_s"]
        row["gc_collections"] += s["gc_collections"]
    return table
