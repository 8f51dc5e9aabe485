"""Seeded fault schedules: which fault fires in which soak round.

A :class:`FaultSchedule` is a pure function of its seed — two runs with
the same seed inject exactly the same faults at exactly the same
points, which is what makes a chaos failure a *reproducible* failure.
Schedules serialize to JSON so a failing seed can be committed next to
the regression test it produced.

At most one fault fires per round.  That restraint is deliberate: some
fault pairs would break the accounting the invariants rely on (a
telemetry drop and a daemon restart in the same round would lose the
dying daemon's unpolled counters, turning an injected fault into a
false-positive rollup violation).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple


class FaultKind(str, Enum):
    """The fault vocabulary: one member per fault the soak can inject.

    Iterating the enum *is* the sweep, and the member order is part of
    what a seed means: :meth:`FaultSchedule.generate` draws from the
    members in this order with these weights, so reordering or
    re-weighting changes every pinned schedule.  Protocol-level faults
    dominate (they exercise the retry/resume machinery, where the bugs
    historically were); restarts and corruption are rarer, like in
    production.

    A member is its wire/JSON string (``FaultKind("restart")`` parses
    one); use ``.value`` wherever the string is formatted, because
    ``format()`` of a ``str`` enum differs between Python 3.10 and 3.11.
    """

    def __new__(cls, value: str, weight: int, doc: str) -> "FaultKind":
        member = str.__new__(cls, value)
        member._value_ = value
        member.weight = weight
        member.__doc__ = doc
        return member

    @classmethod
    def _missing_(cls, value: object) -> "FaultKind":
        raise ValueError(f"unknown fault kind {value!r}")

    DISCONNECT = (
        "disconnect", 4,
        "Daemon aborts the connection after ``param`` applied page frames: "
        "transport retry and session resume.")
    MID_RESULT = (
        "mid_result", 3,
        "Daemon sends half the RESULT frame, then aborts: idempotent "
        "RESULT replay.")
    STALL_OVER = (
        "stall_over", 2,
        "Daemon stalls before READY for longer than the source's "
        "``io_timeout_s``: timeout and reconnect.")
    STALL_UNDER = (
        "stall_under", 2,
        "Daemon stalls before READY for just under the source's "
        "``io_timeout_s``: a slow link must *not* fail.")
    TRUNCATE_READY = (
        "truncate_ready", 3,
        "Daemon drops the last ``param`` bytes of a READY frame but keeps "
        "the connection open: stream desync classification.")
    RESTART = (
        "restart", 2,
        "Daemon is killed mid-session and restarted on the same port: "
        "durable recovery, RESULT replay across a restart.")
    CORRUPT_SEGMENT = (
        "corrupt_segment", 2,
        "One durable segment's bytes are flipped on disk: the next scrub "
        "must quarantine it and nothing else; re-adoption re-spills.")
    TELEMETRY_LOSS = (
        "telemetry_loss", 2,
        "One aggregator telemetry poll of one host is dropped: "
        "cumulative-counter catch-up.")
    HEARTBEAT_LOSS = (
        "heartbeat_loss", 2,
        "One registry heartbeat of one host is dropped (it looks dead "
        "until the next poll): liveness bookkeeping, placement starvation.")
    SLOW_LINK = (
        "slow_link", 2,
        "The migration runs over a shaped WAN link instead of loopback "
        "(modelled time, no wall-clock sleeps): shaping under the "
        "orchestrator.")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        round_no: Zero-based soak round the fault fires in.
        kind: A :class:`FaultKind` (its string value is accepted and
            converted).
        param: Kind-specific integer (message count for disconnects and
            restarts, bytes cut for truncation, digest selector for
            corruption; unused otherwise).
        host_index: Deterministic host selector for faults that target
            a specific host (probe drops, corruption); taken modulo the
            live host list at runtime.
    """

    round_no: int
    kind: FaultKind
    param: int = 0
    host_index: int = 0

    def __post_init__(self) -> None:
        if self.round_no < 0:
            raise ValueError(f"round_no must be >= 0, got {self.round_no}")
        object.__setattr__(self, "kind", FaultKind(self.kind))

    def describe(self) -> str:
        """One human-readable line, stable across runs."""
        return (
            f"round {self.round_no:3d}: {self.kind.value}"
            f"(param={self.param}, host_index={self.host_index})"
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, serializable list of faults for one soak run."""

    seed: int
    faults: Tuple[FaultSpec, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        rounds: int,
        intensity: float = 0.8,
        kinds: Optional[Sequence[FaultKind]] = None,
    ) -> "FaultSchedule":
        """Draw at most one weighted fault per round from ``seed``.

        Args:
            seed: The PRNG seed; the whole schedule is a pure function
                of it (plus the other arguments).
            rounds: Number of soak rounds to schedule for.
            intensity: Probability that a given round has a fault.
            kinds: Restrict the vocabulary (default: all kinds).
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        chosen = tuple(
            FaultKind(kind) for kind in (FaultKind if kinds is None else kinds)
        )
        rng = random.Random(seed)
        weights = [kind.weight for kind in chosen]
        faults: List[FaultSpec] = []
        for round_no in range(rounds):
            if rng.random() >= intensity:
                continue
            kind = rng.choices(chosen, weights=weights, k=1)[0]
            faults.append(
                FaultSpec(
                    round_no=round_no,
                    kind=kind,
                    param=rng.randrange(1, 9),
                    host_index=rng.randrange(64),
                )
            )
        return cls(seed=seed, faults=tuple(faults))

    def for_round(self, round_no: int) -> Tuple[FaultSpec, ...]:
        """The faults scheduled for ``round_no`` (empty or length one)."""
        return tuple(f for f in self.faults if f.round_no == round_no)

    def kind_counts(self) -> Dict[str, int]:
        """How many times each kind appears (only non-zero entries)."""
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind.value] = counts.get(fault.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        """The whole schedule, one line per fault."""
        header = f"fault schedule seed={self.seed} ({len(self.faults)} faults)"
        return "\n".join([header] + [f.describe() for f in self.faults])

    # --- serialization --------------------------------------------------

    def to_json(self) -> str:
        """Stable JSON encoding (committable next to a regression)."""
        return json.dumps(
            {
                "version": 1,
                "seed": self.seed,
                "faults": [
                    {
                        "round": f.round_no,
                        "kind": f.kind.value,
                        "param": f.param,
                        "host_index": f.host_index,
                    }
                    for f in self.faults
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Inverse of :meth:`to_json`; validates kinds and version."""
        data = json.loads(text)
        version = data.get("version")
        if version != 1:
            raise ValueError(f"unsupported schedule version {version!r}")
        faults = tuple(
            FaultSpec(
                round_no=int(entry["round"]),
                kind=entry["kind"],
                param=int(entry.get("param", 0)),
                host_index=int(entry.get("host_index", 0)),
            )
            for entry in data.get("faults", [])
        )
        return cls(seed=int(data["seed"]), faults=faults)
