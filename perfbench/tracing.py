"""Spans recorded by the benchmark around calls into the package.

A span covers one call into a module's public function and is named
``<module>.<function>``; its layer is the part before the first dot. Spans
stay in memory and are written out as JSONL once the run ends. Nothing here
patches the package: spans are opened by the benchmark's own code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

HARNESS = "harness"


class Tracer:
    """Collects spans for one run id; ``enabled=False`` makes it a no-op."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if "." in name else HARNESS


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the part
    of it that its child spans cover."""
    covered: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            covered.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - _union(covered.get(span["id"], []))
        layer = layer_of(span["name"])
        out[layer] = out.get(layer, 0.0) + own
    return out


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def write_jsonl(spans: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for span in spans:
            fp.write(json.dumps(span, sort_keys=True) + "\n")
