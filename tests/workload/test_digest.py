"""Tests for the md5sum verification model."""

import hashlib

import numpy as np
import pytest

from repro.workload.bzip2 import Archive, Bzip2Model
from repro.workload.digest import block_digest, reference_digest
from repro.workload.kernel_tree import KernelSourceTree


@pytest.fixture
def tree():
    return KernelSourceTree()


class TestReferenceDigest:
    def test_is_32_hex_chars(self, tree):
        digest = reference_digest(tree)
        assert len(digest) == 32
        int(digest, 16)  # parses as hex

    def test_deterministic(self, tree):
        assert reference_digest(tree) == reference_digest(KernelSourceTree())

    def test_different_trees_different_digests(self, tree):
        other = KernelSourceTree(total_bytes=tree.total_bytes + 4096)
        assert reference_digest(tree) != reference_digest(other)


def _verifies(tree, archive):
    """The md5sum comparison each cycle performs."""
    return block_digest(tree, archive.corrupted_blocks) == reference_digest(tree)


class TestVerification:
    def test_clean_archive_verifies(self, tree):
        archive = Archive(host_id=1, time=0.0, block_count=396)
        assert _verifies(tree, archive)

    def test_corrupted_archive_fails(self, tree):
        archive = Archive(
            host_id=1, time=0.0, block_count=396, corrupted_blocks=frozenset({12})
        )
        assert not _verifies(tree, archive)

    def test_mismatch_iff_corrupted_end_to_end(self, tree):
        model = Bzip2Model(tree)
        rng = np.random.default_rng(2)
        clean = model.compress(1, 0.0, 0, rng)
        dirty = model.compress(1, 0.0, 1, rng)
        assert _verifies(tree, clean)
        assert not _verifies(tree, dirty)

    def test_damage_location_changes_digest(self, tree):
        a = block_digest(tree, {3})
        b = block_digest(tree, {4})
        assert a != b

    def test_block_order_irrelevant(self, tree):
        assert block_digest(tree, [3, 5]) == block_digest(tree, [5, 3])


class TestDigestContract:
    """``block_digest`` is real MD5 over ``"<bytes>:<files>:<ratio>|<blocks>"``,
    memoised or not."""

    @staticmethod
    def _by_hand(tree, blocks):
        payload = (
            f"{tree.total_bytes}:{tree.file_count}:{tree.compression_ratio:.6f}|"
            + ",".join(str(b) for b in sorted(set(blocks)))
        )
        return hashlib.md5(payload.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("blocks", [(), {3}, [5, 3, 3]], ids=["clean", "one", "repeat"])
    def test_matches_hand_computed_md5(self, tree, blocks):
        expected = self._by_hand(tree, blocks)
        assert block_digest(tree, blocks) == expected
        assert block_digest(tree, blocks) == expected  # repeated call, same string

    def test_payload_spelled_out(self):
        tree = KernelSourceTree(total_bytes=1000, file_count=2, compression_ratio=0.5)
        payload = b"1000:2:0.500000|3,5"
        assert block_digest(tree, [5, 3, 3]) == hashlib.md5(payload).hexdigest()

    def test_reference_is_the_clean_digest(self, tree):
        assert reference_digest(tree) == self._by_hand(tree, ())

    def test_verify_clean_and_damaged(self, tree):
        clean = Archive(host_id=3, time=60.0, block_count=396)
        damaged = Archive(
            host_id=3, time=60.0, block_count=396, corrupted_blocks=frozenset({0, 395})
        )
        for _ in range(2):
            assert _verifies(tree, clean)
            assert not _verifies(tree, damaged)
