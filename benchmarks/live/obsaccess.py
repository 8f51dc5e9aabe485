"""The benchmark's only reads of ``repro.obs``: counters and program spans.

Kept apart, and tolerant of the module moving, because ROADMAP item 2
plans to replace the string-keyed registry with typed handles.  A
counter that cannot be read is ``None`` (the caller reports a note and
skips the check); it never stops a run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional


def counter(name: str) -> Optional[float]:
    """Current value of the process-registry counter ``name``."""
    try:
        from repro.obs import get_registry

        return float(get_registry().counter(name).value)
    except Exception:  # noqa: BLE001 - any breakage here means "unreadable"
        return None


@contextmanager
def program_tracing(into: List[Any]) -> Iterator[None]:
    """Turn the program's own tracer on for the body.

    The finished span records (objects with ``name``, ``duration_s`` and
    ``attrs``) are appended to ``into`` once the body has ended.
    """
    from repro.obs import trace

    trace.reset()
    trace.enable()
    try:
        yield
    finally:
        trace.disable()
        into.extend(trace.get_tracer().finished())
        trace.reset()
