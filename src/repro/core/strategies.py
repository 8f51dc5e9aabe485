"""Named migration strategies: the systems the evaluation compares.

A strategy bundles a first-round transfer :class:`~repro.core.transfer.Method`
with a checksum algorithm and a wire format.  The registry mirrors the
systems in the paper:

* ``qemu``          — stock QEMU 2.0 pre-copy: every page, every round.
* ``dedup``         — CloudNet-style sender-side deduplication.
* ``miyakodori``    — dirty-page tracking against the stored checkpoint.
* ``miyakodori+dedup`` — the strongest prior combination in Figure 5.
* ``vecycle``       — content-based redundancy elimination (the paper's
  contribution).
* ``vecycle+dedup`` — VeCycle with sender-side dedup on the residual.
* ``vecycle+dirty`` — VeCycle using dirty tracking only to skip
  checksum computation on known-clean pages (§4.3 last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.checksum import DEFAULT_CHECKSUM, ChecksumAlgorithm, get_algorithm
from repro.core.protocol import WireFormat
from repro.core.transfer import Method


@dataclass(frozen=True)
class MigrationStrategy:
    """A configured migration approach.

    Attributes:
        name: Registry name.
        method: First-round transfer-set semantics.
        checksum: Page checksum algorithm (cost model + digest size).
        reuses_checkpoint: Whether the destination loads an old
            checkpoint during setup.
    """

    name: str
    method: Method
    checksum: ChecksumAlgorithm = DEFAULT_CHECKSUM

    @property
    def reuses_checkpoint(self) -> bool:
        return self.method.uses_checkpoint

    @property
    def wire(self) -> WireFormat:
        return WireFormat.for_algorithm(self.checksum)

    def with_checksum(self, algorithm_name: str) -> "MigrationStrategy":
        """A copy of this strategy using a different checksum algorithm."""
        return replace(self, checksum=get_algorithm(algorithm_name))


QEMU = MigrationStrategy(name="qemu", method=Method.FULL)
DEDUP = MigrationStrategy(name="dedup", method=Method.DEDUP)
MIYAKODORI = MigrationStrategy(name="miyakodori", method=Method.DIRTY)
MIYAKODORI_DEDUP = MigrationStrategy(name="miyakodori+dedup", method=Method.DIRTY_DEDUP)
VECYCLE = MigrationStrategy(name="vecycle", method=Method.HASHES)
VECYCLE_DEDUP = MigrationStrategy(name="vecycle+dedup", method=Method.HASHES_DEDUP)
VECYCLE_DIRTY = MigrationStrategy(name="vecycle+dirty", method=Method.DIRTY_HASHES)

_REGISTRY = {
    strategy.name: strategy
    for strategy in (
        QEMU,
        DEDUP,
        MIYAKODORI,
        MIYAKODORI_DEDUP,
        VECYCLE,
        VECYCLE_DEDUP,
        VECYCLE_DIRTY,
    )
}


def get_strategy(name: str) -> MigrationStrategy:
    """Look up a strategy by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown strategy {name!r}; known: {known}") from None


def available_strategies() -> list[str]:
    """All registered strategy names, sorted."""
    return sorted(_REGISTRY)
