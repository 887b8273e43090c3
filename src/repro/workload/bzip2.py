"""Block-structured bzip2 model and the ``bzip2recover`` triage.

bzip2 compresses independent blocks of (at the default ``-9`` level)
900 kB of input; a corrupted archive can therefore be salvaged block by
block, which is exactly what the paper did: "While inspecting the tarball
with the bzip2recover utility, it became clear that only a single one of
the 396 bzip2 compression blocks had been corrupted."

:class:`Bzip2Model` turns a source tree plus a set of uncorrected memory
faults into an :class:`Archive` whose corrupted-block set reflects where
the flipped bits landed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

import numpy as np

from repro.workload.digest import fingerprint_digest, reference_digest, tree_fingerprint
from repro.workload.kernel_tree import KernelSourceTree

#: bzip2 -9 block size (uncompressed input per block).
BZIP2_BLOCK_BYTES = 900 * 1000


@dataclass(frozen=True)
class Archive:
    """One compressed tarball.

    Attributes
    ----------
    host_id / time:
        Provenance of the cycle that produced it.
    block_count:
        Number of bzip2 blocks (396 for the paper's tree).
    corrupted_blocks:
        Indices of blocks whose content a memory fault damaged.  Empty for
        a clean archive.
    """

    host_id: int
    time: float
    block_count: int
    corrupted_blocks: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.block_count <= 0:
            raise ValueError("archive must have at least one block")
        bad = [b for b in self.corrupted_blocks if not 0 <= b < self.block_count]
        if bad:
            raise ValueError(f"corrupted block indices out of range: {bad}")

    @property
    def clean(self) -> bool:
        """Whether every block carries the intended bytes."""
        return not self.corrupted_blocks


@dataclass(frozen=True)
class RecoveryReport:
    """What ``bzip2recover`` finds when fed a damaged archive."""

    total_blocks: int
    damaged_blocks: FrozenSet[int]

    @property
    def recoverable_blocks(self) -> int:
        """Blocks that extract cleanly."""
        return self.total_blocks - len(self.damaged_blocks)

    def summary(self) -> str:
        """The paper-style sentence about the damage extent."""
        n = len(self.damaged_blocks)
        noun = "block" if n == 1 else "blocks"
        return f"{n} of the {self.total_blocks} bzip2 compression {noun} corrupted"


def bzip2recover(archive: Archive) -> RecoveryReport:
    """Triage a damaged archive block by block."""
    return RecoveryReport(
        total_blocks=archive.block_count, damaged_blocks=archive.corrupted_blocks
    )


class Bzip2Model:
    """Compression pipeline: source tree + memory faults -> archive.

    Parameters
    ----------
    tree:
        The source being archived.
    """

    def __init__(self, tree: Optional[KernelSourceTree] = None) -> None:
        self.tree = tree if tree is not None else KernelSourceTree()
        #: Blocks in the archive of this tree (396 for the default tree).
        self.block_count = -(-self.tree.total_bytes // BZIP2_BLOCK_BYTES)
        #: Page operations of one archive-and-verify cycle of this tree.
        self.page_ops_per_cycle = self.tree.page_ops_per_cycle()
        #: md5 of the clean archive: "an initial value calculated before
        #: installation".
        self.reference_digest = reference_digest(self.tree)
        self._fingerprint = tree_fingerprint(self.tree)

    def __repr__(self) -> str:
        return f"Bzip2Model(blocks={self.block_count})"

    def corrupted_blocks(
        self, uncorrected_faults: int, rng: np.random.Generator
    ) -> FrozenSet[int]:
        """The blocks a cycle's uncorrected memory faults damage.

        Each fault lands in one uniformly random block (a flipped bit in
        the compressor's working set damages whatever block was in
        flight).  Multiple faults may collide on a block; the result is
        whatever distinct blocks were hit.  No draw without faults.
        """
        if uncorrected_faults < 0:
            raise ValueError("fault count cannot be negative")
        if uncorrected_faults == 0:
            return _CLEAN
        hits = rng.integers(0, self.block_count, size=uncorrected_faults)
        return frozenset(int(h) for h in hits)

    def digest(self, corrupted_blocks: FrozenSet[int]) -> str:
        """md5 of this tree's archive with ``corrupted_blocks`` damaged."""
        return fingerprint_digest(self._fingerprint, corrupted_blocks)

    def compress(
        self,
        host_id: int,
        time: float,
        uncorrected_faults: int,
        rng: np.random.Generator,
    ) -> Archive:
        """Produce the cycle's archive (see :meth:`corrupted_blocks`)."""
        return Archive(
            host_id=host_id,
            time=time,
            block_count=self.block_count,
            corrupted_blocks=self.corrupted_blocks(uncorrected_faults, rng),
        )


_CLEAN: FrozenSet[int] = frozenset()
