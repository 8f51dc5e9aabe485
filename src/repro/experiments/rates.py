"""Section 3.4: checksum rates vs wire rates, and the announce cost.

Two quantitative claims to reproduce:

* The benchmark machines compute MD5 at ~350 MiB/s on one core, about 3×
  the 120 MiB/s payload rate of gigabit Ethernet — so checksumming is
  not the bottleneck on a 1 Gbit link, but *becomes* the lower bound on
  migration time for 10/40 GbE (the motivation for cheaper checksums).
* A 4 GiB VM has 2^20 pages, so the bulk announce of MD5 checksums is
  ``2^20 * 2^4 = 16 MiB`` (§3.2) — negligible next to the savings.

The table also measures ``sha256-128``, the runtime's default, and marks
it: on a CPU with SHA extensions it out-hashes MD5, on one without it
does not, and the measured column shows which this machine is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.checksum import (
    DEFAULT_CHECKSUM,
    ChecksumAlgorithm,
    PAGE_SIZE,
    available_algorithms,
    get_algorithm,
    measure_throughput,
)
from repro.net.link import LAN_1GBE, LAN_10GBE, LAN_40GBE, Link

MIB = 2**20
GIB = 2**30


@dataclass(frozen=True)
class RateRow:
    """One checksum algorithm's rates against the link presets."""

    algorithm: str
    modelled_mib_s: float
    measured_mib_s: float
    bottleneck_on: List[str]


def run(
    algorithms: Sequence[str] = (
        "md5", "sha1", "sha256", "sha256-128", "blake2b", "fnv1a",
    ),
    links: Sequence[Link] = (LAN_1GBE, LAN_10GBE, LAN_40GBE),
    measure_bytes: int = 8 * MIB,
) -> List[RateRow]:
    """Model and measure each algorithm; find where it becomes the
    migration bottleneck (checksum rate < link payload rate)."""
    rows: List[RateRow] = []
    for name in algorithms:
        algorithm = get_algorithm(name)
        measured = measure_throughput(algorithm, total_bytes=measure_bytes)
        bottleneck = [
            link.name
            for link in links
            if algorithm.throughput < link.effective_bandwidth
        ]
        rows.append(
            RateRow(
                algorithm=name,
                modelled_mib_s=algorithm.throughput / MIB,
                measured_mib_s=measured / MIB,
                bottleneck_on=bottleneck,
            )
        )
    return rows


def announce_size_bytes(vm_bytes: int, algorithm: ChecksumAlgorithm) -> int:
    """Size of the bulk checksum announce for a VM of ``vm_bytes``."""
    return algorithm.announce_bytes(vm_bytes // PAGE_SIZE)


def format_table(rows: List[RateRow]) -> str:
    """Render the rate table plus the 16 MiB announce check."""
    lines = [
        f"{'Algorithm':<10s} {'model':>10s} {'measured':>10s}  bottleneck on",
        "-" * 60,
    ]
    for row in rows:
        where = ", ".join(row.bottleneck_on) if row.bottleneck_on else "-"
        name = row.algorithm + ("*" if row.algorithm == DEFAULT_CHECKSUM.name else "")
        lines.append(
            f"{name:<11s}{row.modelled_mib_s:7.0f}MiB {row.measured_mib_s:7.0f}MiB  {where}"
        )
    md5 = get_algorithm("md5")
    lines += [
        f"* the runtime's default ({DEFAULT_CHECKSUM.name}); the model keeps "
        "the paper's 2015 rates",
        "",
        f"bulk announce for a 4 GiB VM (MD5): "
        f"{announce_size_bytes(4 * GIB, md5) / MIB:.0f} MiB "
        "(paper: 16 MiB)",
    ]
    return "\n".join(lines)
