"""Daemon-side fault injection: one object the daemon consults.

A :class:`~repro.runtime.daemon.CheckpointDaemon` asks its
:class:`FaultInjector` at each protocol point where a fault can be
injected — before READY, after each applied batch, while RESULT is on
the wire, when a TELEMETRY probe arrives.  The default injector has
every budget at zero and never fires; tests and the :mod:`repro.chaos`
soak assign an armed one to ``daemon.faults``.  Every field is
deterministic — no randomness, so runs are seed-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class FaultInjector:
    """What to disturb, and how many times.

    Each fault has its own occurrence budget, so one injector can
    compose several; a ``take_*`` method spends one occurrence when it
    reports that the fault fires.
    """

    after_messages: int = 0
    """Abort the connection once this many page frames were applied."""
    times: int = 0
    """Occurrence budget shared by the two aborts."""
    mid_result: bool = False
    """Abort while the RESULT frame is on the wire (the session is
    already completed and persisted) instead of mid-transfer."""
    stall_ready_s: float = 0.0
    """Sleep this long before sending READY — chosen just over the
    source's ``io_timeout_s`` it looks like a dead peer (transport
    retry), just under it models a slow link that must NOT fail."""
    stall_times: int = 0
    truncate_ready_bytes: int = 0
    """Send READY short by this many bytes and *keep talking* on the
    live connection: the source desyncs mid-stream instead of seeing a
    clean EOF — the fault that distinguishes a retryable desync from a
    genuine codec violation."""
    truncate_times: int = 0
    drop_telemetry_times: int = 0
    """Abort this many TELEMETRY probes instead of answering them."""
    on_abort: Optional[Callable[[str], None]] = None
    """Called with the daemon's name when one of the two aborts fires
    there: how a cluster-wide budget tells its holder who spent it."""

    @property
    def armed(self) -> bool:
        """True while any occurrence budget is unspent."""
        return (
            self.times > 0
            or self.stall_times > 0
            or self.truncate_times > 0
            or self.drop_telemetry_times > 0
        )

    def abort_due_in(self, total_applied: int) -> Optional[int]:
        """Frames left to apply before an armed mid-transfer abort fires
        (0: it is due now); None when no such abort is armed."""
        if self.times <= 0 or self.mid_result:
            return None
        return max(self.after_messages - total_applied, 0)

    def take_abort(self, total_applied: int) -> bool:
        """True when the mid-transfer abort fires now."""
        if self.abort_due_in(total_applied) != 0:
            return False
        self.times -= 1
        return True

    def take_result_abort(self) -> bool:
        """True when the RESULT frame should be cut short."""
        if not self.mid_result or self.times <= 0:
            return False
        self.times -= 1
        return True

    def take_ready_stall(self) -> float:
        """Seconds to sleep before this READY (0.0: none)."""
        if self.stall_times <= 0 or self.stall_ready_s <= 0:
            return 0.0
        self.stall_times -= 1
        return self.stall_ready_s

    def take_ready_truncation(self) -> int:
        """Bytes to cut off this READY (0: none)."""
        if self.truncate_times <= 0 or self.truncate_ready_bytes <= 0:
            return 0
        self.truncate_times -= 1
        return self.truncate_ready_bytes

    def take_telemetry_drop(self) -> bool:
        """True when this TELEMETRY probe should go unanswered."""
        if self.drop_telemetry_times <= 0:
            return False
        self.drop_telemetry_times -= 1
        return True
