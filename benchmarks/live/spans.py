"""Span recorder for the traced run: the benchmark's own layer boundaries.

The harness opens one span around every call it makes into a layer
(``frames.encode_full``, ``daemon.replay`` …).  Spans stay in memory
and are written to ``trace-<workload>.json`` when the run ends, so
recording costs one ``perf_counter`` pair and a list append.  A layer's
*self time* is its span minus the part its child spans cover.

The harness is single-threaded and opens spans only from its own main
flow (never from inside the program's tasks), so a plain stack gives
the parent; the program's *own* spans are read separately from
``repro.obs.trace``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List


@dataclass
class Span:
    """One recorded interval; ``parent`` is 0 at the roots."""

    id: int
    parent: int
    name: str
    workload: str
    start_s: float
    end_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


class SpanRecorder:
    """Collects spans for one workload's traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._epoch = time.perf_counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time the body; the yielded span's ``seconds`` is valid after it."""
        row = Span(
            id=len(self.spans) + 1,
            parent=self._stack[-1] if self._stack else 0,
            name=name,
            workload=self.workload,
            start_s=time.perf_counter() - self._epoch,
            attrs=attrs,
        )
        self.spans.append(row)
        self._stack.append(row.id)
        try:
            yield row
        finally:
            self._stack.pop()
            row.end_s = time.perf_counter() - self._epoch

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, children's time subtracted."""
        child_time: Dict[int, float] = {}
        for row in self.spans:
            child_time[row.parent] = child_time.get(row.parent, 0.0) + row.seconds
        totals: Dict[str, float] = {}
        for row in self.spans:
            own = row.seconds - child_time.get(row.id, 0.0)
            totals[row.name] = totals.get(row.name, 0.0) + own
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "spans": [
                {
                    "id": row.id,
                    "parent": row.parent,
                    "name": row.name,
                    "workload": row.workload,
                    "start_s": row.start_s,
                    "end_s": row.end_s,
                    "attrs": row.attrs,
                }
                for row in self.spans
            ],
            "self_time_s": self.self_times(),
        }

    def write(self, path: Path, **extra: Any) -> None:
        """Write every span (plus ``extra`` top-level keys) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**self.to_dict(), **extra}, indent=1) + "\n")
