"""The Section 4.2.2 memory-error arithmetic.

The paper: "By calculating the size of the source directory to be
compressed, the average block size of the compressed tarball, and the
amount of cycles we have estimated the amount of memory pages read and
written to lie in the ballpark of 3.2 billion.  If the estimate is
correct, and the six faulty archives are caused by a single memory page
fault each, the failure ratio is around one in 570 million."

:func:`estimate_memory_error_ratio` performs that estimate over a
reproduction run: page ops from the tree's per-cycle census times the run
count, divided by the number of faulty archives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workload.archiver import WorkloadLedger
from repro.workload.kernel_tree import KernelSourceTree

#: The paper's headline ratio: one fault per ~570 million page operations.
PAPER_RATIO_ONE_IN = 570e6
#: The paper's page-op ballpark across its 27,627 runs.
PAPER_TOTAL_PAGE_OPS = 3.2e9
#: The paper's run census at the time of writing.
PAPER_TOTAL_RUNS = 27_627


@dataclass(frozen=True)
class MemoryErrorEstimate:
    """Result of the page-op failure-ratio estimate."""

    total_runs: int
    total_page_ops: int
    faulty_archives: int

    def __post_init__(self) -> None:
        if self.total_runs < 0 or self.total_page_ops < 0 or self.faulty_archives < 0:
            raise ValueError("censuses cannot be negative")

    @property
    def ratio_one_in(self) -> Optional[float]:
        """Page ops per fault ("one in N"); ``None`` with zero faults."""
        if self.faulty_archives == 0:
            return None
        return self.total_page_ops / self.faulty_archives

    @property
    def fault_probability_per_page_op(self) -> Optional[float]:
        """The inverse view; ``None`` with zero faults or zero ops."""
        if self.faulty_archives == 0 or self.total_page_ops == 0:
            return None
        return self.faulty_archives / self.total_page_ops

    def within_factor_of_paper(self, factor: float = 3.0) -> bool:
        """Whether the ratio lands within ``factor``x of the paper's 570 M."""
        ratio = self.ratio_one_in
        if ratio is None:
            return False
        return PAPER_RATIO_ONE_IN / factor <= ratio <= PAPER_RATIO_ONE_IN * factor

    def describe(self) -> str:
        """Paper-style sentence."""
        ratio = self.ratio_one_in
        if ratio is None:
            return (
                f"{self.total_runs} runs, {self.total_page_ops / 1e9:.1f} B page ops, "
                f"no faulty archives"
            )
        return (
            f"{self.total_runs} runs, {self.total_page_ops / 1e9:.1f} B page ops, "
            f"{self.faulty_archives} faulty archives -> failure ratio around "
            f"one in {ratio / 1e6:.0f} million"
        )


def estimate_memory_error_ratio(
    ledger: WorkloadLedger, tree: Optional[KernelSourceTree] = None
) -> MemoryErrorEstimate:
    """Run the paper's estimate over a reproduction's workload ledger."""
    tree = tree if tree is not None else KernelSourceTree()
    return MemoryErrorEstimate(
        total_runs=ledger.total_runs,
        total_page_ops=tree.estimated_page_ops(ledger.total_runs),
        faulty_archives=ledger.total_wrong_hashes,
    )


def paper_estimate() -> MemoryErrorEstimate:
    """The estimate exactly as the paper states it.

    Note the paper's own wrinkle: it counts five problematic archives in
    the census but divides by "the six faulty archives" in the ratio
    sentence; 3.2 B / 6 is approximately 533 M, rounded in the paper to
    "around one in 570 million".  We keep the six, as the text does.
    """
    return MemoryErrorEstimate(
        total_runs=PAPER_TOTAL_RUNS,
        total_page_ops=int(PAPER_TOTAL_PAGE_OPS),
        faulty_archives=6,
    )
