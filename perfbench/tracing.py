"""The benchmark's own spans: (name, start, end, parent) around public calls.

Spans are kept in memory and written out once, at the end of a run, so the
traced run pays one ``perf_counter`` pair and one list append per span.  A
disabled tracer records nothing and costs one branch.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record: Dict[str, object] = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def durations(spans: List[Dict[str, object]]) -> Dict[str, List[float]]:
    """Wall time of every span, grouped by name."""
    out: Dict[str, List[float]] = {}
    for record in spans:
        out.setdefault(str(record["name"]), []).append(
            float(record["end"]) - float(record["start"])  # type: ignore[arg-type]
        )
    return out


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-name total self time (wall time minus direct children)."""
    child_time = [0.0] * len(spans)
    for record in spans:
        parent: Optional[int] = record["parent"]  # type: ignore[assignment]
        if parent is not None:
            child_time[parent] += float(record["end"]) - float(record["start"])  # type: ignore[arg-type]
    out: Dict[str, float] = {}
    for i, record in enumerate(spans):
        own = float(record["end"]) - float(record["start"]) - child_time[i]  # type: ignore[arg-type]
        out[str(record["name"])] = out.get(str(record["name"]), 0.0) + own
    return out
