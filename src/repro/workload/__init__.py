"""The synthetic load of Section 3.5.

Every host packs a Linux kernel source directory with ``tar`` and ``bzip2``
every 10 minutes, verifies the tarball's ``md5sum`` against a reference
computed before installation, and stores the tarball if the hashes differ.
A 0-119 second start fuzz de-synchronises the fleet.

The reproduction models the pipeline at the level the paper's analysis
needs: page operations through the memory bank (where bit flips originate),
a 396-block bzip2 archive structure (so a single flip corrupts exactly one
block, recoverable by ``bzip2recover``-style triage), and digest
verification that fails precisely when at least one block is corrupted.
"""

from repro.workload.archiver import ArchiverProcess, CycleResult, WorkloadLedger
from repro.workload.bzip2 import Archive, Bzip2Model, bzip2recover
from repro.workload.digest import block_digest, reference_digest
from repro.workload.kernel_tree import KernelSourceTree
from repro.workload.tar import FileCensus, synthetic_kernel_census

__all__ = [
    "KernelSourceTree",
    "FileCensus",
    "synthetic_kernel_census",
    "Bzip2Model",
    "Archive",
    "bzip2recover",
    "block_digest",
    "reference_digest",
    "ArchiverProcess",
    "CycleResult",
    "WorkloadLedger",
]
