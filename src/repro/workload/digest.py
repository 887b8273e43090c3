"""md5sum verification of archives.

The paper's loads compare each cycle's tarball hash with "an initial value
calculated before installation".  Content is not simulated byte-for-byte;
instead a digest is a deterministic function of the tree identity and the
archive's corrupted-block set, which preserves the only property the
experiment uses: *digest mismatch iff at least one block is corrupted*.

Real MD5 (via :mod:`hashlib`) is used over a canonical encoding, so digests
look and behave like the 32-hex-digit strings the monitoring host rsyncs.
"""

from __future__ import annotations

import functools
import hashlib
from typing import TYPE_CHECKING, FrozenSet, Iterable

from repro.workload.kernel_tree import KernelSourceTree

if TYPE_CHECKING:
    from repro.workload.bzip2 import Archive


def tree_fingerprint(tree: KernelSourceTree) -> str:
    """Stable identity of the source content."""
    return f"{tree.total_bytes}:{tree.file_count}:{tree.compression_ratio:.6f}"


def block_digest(tree: KernelSourceTree, corrupted_blocks: Iterable[int]) -> str:
    """MD5 hex digest of an archive of ``tree`` with the given damage."""
    return fingerprint_digest(tree_fingerprint(tree), frozenset(corrupted_blocks))


@functools.lru_cache(maxsize=1024)
def fingerprint_digest(fingerprint: str, blocks: FrozenSet[int]) -> str:
    """:func:`block_digest` keyed by the tree's :func:`tree_fingerprint`."""
    # Every cycle hashes its archive; almost all are clean, so the same
    # few (tree, damage) pairs recur and are hashed once each.
    payload = fingerprint + "|" + ",".join(str(b) for b in sorted(blocks))
    return hashlib.md5(payload.encode("ascii")).hexdigest()


def reference_digest(tree: KernelSourceTree) -> str:
    """The "initial value calculated before installation": a clean archive."""
    return block_digest(tree, ())


def archive_digest(tree: KernelSourceTree, archive: Archive) -> str:
    """Digest of a concrete archive produced by one cycle."""
    return block_digest(tree, archive.corrupted_blocks)
