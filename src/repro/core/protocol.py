"""Wire format and traffic accounting for the migration protocol.

Section 3.2/3.3: every first-round message carries a page number plus
either the page's checksum (content already at the destination) or the
full page *and* its checksum (sending both saves the receiver from
re-computing it).  Before the migration, the destination announces the
checksums of all locally available pages in bulk — e.g. 16 MiB of MD5
hashes for a 4 GiB VM — unless the source already learned them while
receiving the previous incoming migration (the ping-pong shortcut).

The paper also sketches a rejected alternative: querying the destination
per page, which the authors expect to lose to round-trip latency.  Both
schemes are modelled so the ablation benchmark can quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from repro.core.checksum import PAGE_SIZE, ChecksumAlgorithm, MD5
from repro.core.dedup import DEDUP_REF_BYTES
from repro.core.transfer import KIND_NAMES, TransferSet

ANNOUNCE_FRAME_OVERHEAD = 5
"""Framing overhead of one bulk-announce message on a real byte stream
(1-byte type tag + 4-byte checksum count).  The analytic model charges
only the checksums themselves; the live runtime
(:mod:`repro.runtime.frames`) pays this constant on top, which is why
cross-validation compares announce traffic with a tolerance instead of
exact equality."""


@dataclass(frozen=True)
class WireFormat:
    """Message sizes of the migration protocol.

    Attributes:
        page_size: Guest page size (4 KiB).
        header_bytes: Per-message header: page number + message type.
        checksum_bytes: Digest size of the configured checksum algorithm.
        ref_bytes: Size of a dedup cache reference.
    """

    page_size: int = PAGE_SIZE
    header_bytes: int = 9
    checksum_bytes: int = MD5.digest_size
    ref_bytes: int = DEDUP_REF_BYTES

    @classmethod
    def for_algorithm(cls, algorithm: ChecksumAlgorithm) -> "WireFormat":
        return cls(checksum_bytes=algorithm.digest_size)

    @property
    def full_page_message(self) -> int:
        """Bytes for 'page number + checksum + page bytes' (§3.2)."""
        return self.header_bytes + self.checksum_bytes + self.page_size

    @property
    def checksum_message(self) -> int:
        """Bytes for 'page number + checksum' (content reusable)."""
        return self.header_bytes + self.checksum_bytes

    @property
    def ref_message(self) -> int:
        """Bytes for 'page number + dedup cache reference'."""
        return self.header_bytes + self.ref_bytes

    @property
    def plain_page_message(self) -> int:
        """Bytes for a page without checksum (baseline QEMU migration)."""
        return self.header_bytes + self.page_size

    @cached_property
    def _message_sizes(self) -> Dict[str, int]:
        # Built on first use and kept: the codec asks per frame kind and
        # the instance is frozen, so the table can never go stale.
        return {
            "full": self.full_page_message,
            "checksum": self.checksum_message,
            "ref": self.ref_message,
            "plain": self.plain_page_message,
        }

    def message_bytes(self, kind: str) -> int:
        """Wire size of one data message by kind.

        The live runtime's frame codec and the analytic traffic model
        both resolve message sizes through this single table, so a
        framing change cannot silently diverge the two paths.  Kinds:
        ``"full"``, ``"checksum"``, ``"ref"``, ``"plain"``.
        """
        sizes = self._message_sizes
        try:
            return sizes[kind]
        except KeyError:
            known = ", ".join(sorted(sizes))
            raise ValueError(f"unknown message kind {kind!r}; known: {known}") from None

    def announce_frame_bytes(self, unique_pages: int) -> int:
        """On-the-wire size of a framed bulk announce (runtime path)."""
        if unique_pages < 0:
            raise ValueError(f"unique_pages must be >= 0, got {unique_pages}")
        return ANNOUNCE_FRAME_OVERHEAD + unique_pages * self.checksum_bytes


@dataclass(frozen=True)
class TrafficBreakdown:
    """Bytes moved by one first copy round, by direction and purpose.

    Attributes:
        payload_bytes: Source → destination migration stream.
        announce_bytes: Destination → source bulk checksum announce
            (zero when the ping-pong shortcut applies or the method does
            not use content hashes).
        messages: Number of source → destination messages.
    """

    payload_bytes: int
    announce_bytes: int
    messages: int

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.announce_bytes


def first_round_traffic(
    transfer_set: TransferSet,
    wire: WireFormat = WireFormat(),
    announce_unique_pages: int = 0,
) -> TrafficBreakdown:
    """Traffic for one first copy round described by ``transfer_set``.

    Args:
        transfer_set: Per-slot handling computed by
            :func:`repro.core.transfer.compute_transfer_set`.
        wire: Message sizes.
        announce_unique_pages: Number of distinct checksums the
            destination announces up front; pass 0 when the source
            already knows them (ping-pong, §3.2) or for methods that do
            not exchange hashes.
    """
    counts = transfer_set.message_counts
    payload = sum(
        count * wire.message_bytes(KIND_NAMES[kind]) for kind, count in counts.items()
    )
    return TrafficBreakdown(
        payload_bytes=payload,
        announce_bytes=announce_unique_pages * wire.checksum_bytes,
        messages=sum(counts.values()),
    )


def per_page_query_traffic(
    num_pages: int, wire: WireFormat = WireFormat()
) -> TrafficBreakdown:
    """Extra traffic of the rejected per-page query scheme (§3.2).

    Instead of one bulk announce, the source asks the destination about
    every page: a checksum-sized query per page plus a one-byte verdict
    back.  The byte volume is similar to the bulk announce; the killer
    (modelled by the link layer, not here) is that each query is a
    synchronous round trip unless deeply pipelined.
    """
    if num_pages < 0:
        raise ValueError(f"num_pages must be >= 0, got {num_pages}")
    query_bytes = num_pages * (wire.header_bytes + wire.checksum_bytes)
    verdict_bytes = num_pages * 1
    return TrafficBreakdown(
        payload_bytes=query_bytes, announce_bytes=verdict_bytes, messages=num_pages
    )
