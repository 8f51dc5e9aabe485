"""Structured per-migration metrics for the live runtime.

The analytic :class:`~repro.migration.report.MigrationReport` records
*predicted* quantities; :class:`MigrationMetrics` records what one live
migration actually did on the socket — bytes and message counts by
frame type, per-round progress, retries, wall-clock versus modelled
time — in a shape the cross-validation harness can compare against the
analytic prediction field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

MIB = 2**20


@dataclass
class RoundMetrics:
    """One transfer round as observed on the wire."""

    round_no: int
    messages: int = 0
    bytes_sent: int = 0
    duration_s: float = 0.0


@dataclass
class MigrationMetrics:
    """Everything measured about one live migration — one
    :meth:`~repro.runtime.source.MigrationSource.migrate` call, every
    connection it opened.

    Attributes:
        vm_id / mode / link: What migrated, how, and over which link.
        bytes_by_type: Payload bytes by data-frame kind ("full",
            "checksum", "ref", "plain") — the runtime counterpart of the
            analytic payload split.
        messages_by_type: Message counts by the same kinds.
        announce_bytes: Destination → source bulk-announce traffic
            (framed; 0 under the ping-pong shortcut).
        control_bytes: HELLO/READY/ROUND/COMPLETE/RESULT framing — the
            runtime-only overhead the analytic model ignores.
        retries: Reconnects — connections opened minus one, whether
            the reconnect resumed the session (transport failure) or
            took a fresh one (stream desync).
        retransmitted_bytes: Data-frame bytes sent again after a
            reconnect; with ``payload_bytes`` and the sent share of
            ``control_bytes`` it accounts for every byte the source wrote.
        pages_*: First-round transfer-set composition, matching
            :class:`~repro.core.transfer.TransferSet` semantics.
        checksummed_pages: Pages the source had to hash (the CPU cost
            dirty tracking saves, §4.3).
        wall_time_s: Real elapsed time, including retry backoff.
        modelled_time_s: The link model's full-scale clock for the same
            transfer — what the run *would* take at ``time_scale=1``.
        outcome: "completed" or "failed".
        error: Structured failure description when ``outcome="failed"``.
    """

    vm_id: str
    mode: str
    link: str
    bytes_by_type: Dict[str, int] = field(default_factory=dict)
    messages_by_type: Dict[str, int] = field(default_factory=dict)
    announce_bytes: int = 0
    control_bytes: int = 0
    retries: int = 0
    retransmitted_bytes: int = 0
    pages_full: int = 0
    pages_ref: int = 0
    pages_checksum_only: int = 0
    pages_skipped: int = 0
    checksummed_pages: int = 0
    rounds: List[RoundMetrics] = field(default_factory=list)
    wall_time_s: float = 0.0
    modelled_time_s: float = 0.0
    outcome: str = "pending"
    error: Optional[str] = None
    sink_stats: Dict[str, Any] = field(default_factory=dict)

    def count(self, kind: str, num_bytes: int, messages: int = 1) -> None:
        """Record ``messages`` sent data frames of ``kind``, ``num_bytes``
        in total."""
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + num_bytes
        self.messages_by_type[kind] = (
            self.messages_by_type.get(kind, 0) + messages
        )

    @property
    def payload_bytes(self) -> int:
        """Source → destination data-frame bytes (all rounds)."""
        return sum(self.bytes_by_type.values())

    @property
    def total_bytes(self) -> int:
        """All bytes the migration put on the wire, both directions."""
        return self.payload_bytes + self.announce_bytes + self.control_bytes

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def downtime_s(self) -> float:
        """Stop-and-copy downtime: the final round's wall duration.

        Pre-copy keeps the VM running through every round but the last;
        the final round *is* the pause (the §2 downtime the paper's
        Fig. 6 reports), so its wall duration is the live runtime's
        downtime measurement.  Zero for runs that never reached a round.
        """
        return self.rounds[-1].duration_s if self.rounds else 0.0

    @property
    def messages(self) -> int:
        return sum(self.messages_by_type.values())

    def validate(self) -> None:
        """Internal-consistency checks; raises ``ValueError`` on violation.

        The resume path counts a frame either as fresh payload
        (``bytes_by_type``) or as a retransmission — never both.  Each
        reconnect can re-send at most everything counted so far (a
        round aborted twice at the same point is re-sent twice), so
        retransmitted bytes are bounded by ``retries * payload_bytes``,
        and a retransmission implies at least one retry happened.
        Called when a migration completes, so a double-count bug fails
        loudly at the source instead of skewing cross-validation silently.
        """
        if self.retransmitted_bytes < 0:
            raise ValueError(
                f"retransmitted_bytes is negative: {self.retransmitted_bytes}"
            )
        if self.retransmitted_bytes and not self.retries:
            raise ValueError(
                f"{self.retransmitted_bytes} retransmitted bytes recorded "
                "without any retry"
            )
        if self.retransmitted_bytes > self.retries * self.payload_bytes:
            raise ValueError(
                "retransmitted bytes exceed what the retries could re-send "
                f"({self.retransmitted_bytes} > {self.retries} x "
                f"{self.payload_bytes}): a resumed round double-counted frames"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON round-trip view; :meth:`from_dict` inverts it exactly."""
        return {
            "vm_id": self.vm_id,
            "mode": self.mode,
            "link": self.link,
            "outcome": self.outcome,
            "error": self.error,
            "payload_bytes": self.payload_bytes,
            "announce_bytes": self.announce_bytes,
            "control_bytes": self.control_bytes,
            "total_bytes": self.total_bytes,
            "bytes_by_type": dict(self.bytes_by_type),
            "messages_by_type": dict(self.messages_by_type),
            "rounds": [
                {
                    "round_no": r.round_no,
                    "messages": r.messages,
                    "bytes": r.bytes_sent,
                    "duration_s": r.duration_s,
                }
                for r in self.rounds
            ],
            "retries": self.retries,
            "retransmitted_bytes": self.retransmitted_bytes,
            "pages": {
                "full": self.pages_full,
                "ref": self.pages_ref,
                "checksum_only": self.pages_checksum_only,
                "skipped": self.pages_skipped,
                "checksummed": self.checksummed_pages,
            },
            "wall_time_s": self.wall_time_s,
            "modelled_time_s": self.modelled_time_s,
            "sink": dict(self.sink_stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MigrationMetrics":
        """Rebuild metrics from :meth:`to_dict` output (JSONL ingestion)."""
        pages = data.get("pages", {})
        metrics = cls(
            vm_id=data["vm_id"],
            mode=data["mode"],
            link=data["link"],
            bytes_by_type=dict(data.get("bytes_by_type", {})),
            messages_by_type=dict(data.get("messages_by_type", {})),
            announce_bytes=int(data.get("announce_bytes", 0)),
            control_bytes=int(data.get("control_bytes", 0)),
            retries=int(data.get("retries", 0)),
            retransmitted_bytes=int(data.get("retransmitted_bytes", 0)),
            pages_full=int(pages.get("full", 0)),
            pages_ref=int(pages.get("ref", 0)),
            pages_checksum_only=int(pages.get("checksum_only", 0)),
            pages_skipped=int(pages.get("skipped", 0)),
            checksummed_pages=int(pages.get("checksummed", 0)),
            rounds=[
                RoundMetrics(
                    round_no=int(r["round_no"]),
                    messages=int(r["messages"]),
                    bytes_sent=int(r["bytes"]),
                    duration_s=float(r["duration_s"]),
                )
                for r in data.get("rounds", [])
            ],
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            modelled_time_s=float(data.get("modelled_time_s", 0.0)),
            outcome=data.get("outcome", "pending"),
            error=data.get("error"),
            sink_stats=dict(data.get("sink", {})),
        )
        return metrics

    def report(self) -> str:
        """Multi-line human-readable report for the CLI."""
        lines = [
            f"runtime migration  vm={self.vm_id}  mode={self.mode}  "
            f"link={self.link}  -> {self.outcome}"
        ]
        if self.error:
            lines.append(f"  error: {self.error}")
        lines.append(
            f"  time: wall={self.wall_time_s:.3f}s  "
            f"modelled={self.modelled_time_s:.3f}s  "
            f"rounds={self.num_rounds}  retries={self.retries}"
        )
        lines.append(
            f"  traffic: payload={self.payload_bytes / MIB:.3f} MiB  "
            f"announce={self.announce_bytes / MIB:.3f} MiB  "
            f"control={self.control_bytes} B  "
            f"retransmit={self.retransmitted_bytes} B"
        )
        per_type = "  ".join(
            f"{kind}={self.messages_by_type[kind]} ({self.bytes_by_type[kind]} B)"
            for kind in sorted(self.messages_by_type)
        )
        if per_type:
            lines.append(f"  messages: {per_type}")
        lines.append(
            f"  pages: full={self.pages_full}  ref={self.pages_ref}  "
            f"checksum-only={self.pages_checksum_only}  "
            f"skipped={self.pages_skipped}  hashed={self.checksummed_pages}"
        )
        if self.sink_stats:
            lines.append(
                "  sink: reused-in-place={in_place}  reused-from-store={store}  "
                "unique-contents={unique}".format(
                    in_place=self.sink_stats.get("reused_in_place", 0),
                    store=self.sink_stats.get("reused_from_store", 0),
                    unique=self.sink_stats.get("unique_contents", 0),
                )
            )
        return "\n".join(lines)
