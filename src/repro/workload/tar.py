"""A tar-stream model over a synthetic file census.

``tar`` is the first stage of the paper's pipeline and its format shapes
the byte counts the rest of the model consumes: every file costs a 512 B
header plus its payload rounded up to 512 B blocks, and the archive ends
with two zero blocks.  This module generates a deterministic synthetic
file census shaped like a Linux source tree (tens of thousands of small
files, a long tail of large ones) and computes the exact tar-stream size
for it -- grounding :class:`~repro.workload.kernel_tree.KernelSourceTree`'s
``total_bytes`` in an actual file population rather than a bare constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

TAR_BLOCK_BYTES = 512
#: Every member costs one header block.
HEADER_BLOCKS = 1
#: An archive ends with two zero blocks.
TRAILER_BLOCKS = 2


@dataclass(frozen=True)
class FileCensus:
    """A population of file sizes (bytes), plus derived tar arithmetic."""

    sizes: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes)
        if sizes.ndim != 1:
            raise ValueError("sizes must be a 1-D array")
        if len(sizes) == 0:
            raise ValueError("census cannot be empty")
        if np.any(sizes < 0):
            raise ValueError("file sizes cannot be negative")

    @property
    def file_count(self) -> int:
        """Number of files in the tree."""
        return len(self.sizes)

    @property
    def content_bytes(self) -> int:
        """Raw payload bytes (what ``du --apparent-size`` would say)."""
        return int(self.sizes.sum())

    @property
    def tar_stream_bytes(self) -> int:
        """Exact size of the tar stream for this census.

        Header block per file, payload padded to 512 B, two trailer
        blocks.  (Directory entries are ignored: they are a sub-percent
        correction on a kernel tree.)
        """
        payload_blocks = -(-self.sizes // TAR_BLOCK_BYTES)  # ceil div
        member_blocks = int(payload_blocks.sum()) + HEADER_BLOCKS * self.file_count
        return (member_blocks + TRAILER_BLOCKS) * TAR_BLOCK_BYTES

    @property
    def padding_overhead(self) -> float:
        """Fraction of the tar stream that is headers and padding."""
        stream = self.tar_stream_bytes
        if stream == 0:
            return 0.0
        return 1.0 - self.content_bytes / stream

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.file_count} files, {self.content_bytes / 1e6:.0f} MB content, "
            f"{self.tar_stream_bytes / 1e6:.0f} MB tar stream "
            f"({100 * self.padding_overhead:.1f} % header/padding overhead)"
        )


def synthetic_kernel_census(
    file_count: int = 30_826,
    target_content_bytes: Optional[int] = None,
    seed: int = 2010,
) -> FileCensus:
    """A deterministic file-size population shaped like kernel source.

    Kernel trees are dominated by small C files with a heavy tail of
    large generated/firmware files; a log-normal (median ~6 KiB,
    sigma ~1.3) matches that shape.  When ``target_content_bytes`` is
    given, sizes are rescaled so the census content matches it exactly
    (the paper's arithmetic fixes the total, not the distribution).
    """
    if file_count <= 0:
        raise ValueError("file count must be positive")
    rng = np.random.default_rng(seed)
    sizes = rng.lognormal(mean=np.log(6144.0), sigma=1.3, size=file_count)
    if target_content_bytes is not None:
        if target_content_bytes <= 0:
            raise ValueError("target content size must be positive")
        sizes *= target_content_bytes / sizes.sum()
    census = FileCensus(sizes=np.floor(sizes).astype(np.int64))
    if target_content_bytes is not None:
        # Flooring undershoots by < file_count bytes; put the remainder on
        # the largest file so the total is exact.
        deficit = target_content_bytes - census.content_bytes
        if deficit:
            adjusted = census.sizes.copy()
            adjusted[int(np.argmax(adjusted))] += deficit
            census = FileCensus(sizes=adjusted)
    return census
