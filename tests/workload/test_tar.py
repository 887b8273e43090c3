"""Tests for the tar-stream model and synthetic file census."""

import numpy as np
import pytest

from repro.workload.kernel_tree import KernelSourceTree
from repro.workload.tar import (
    TAR_BLOCK_BYTES,
    FileCensus,
    synthetic_kernel_census,
)


class TestTarArithmetic:
    def test_single_empty_file(self):
        census = FileCensus(sizes=np.array([0]))
        # Header block + two trailer blocks.
        assert census.tar_stream_bytes == 3 * TAR_BLOCK_BYTES

    def test_payload_padded_to_blocks(self):
        census = FileCensus(sizes=np.array([1]))
        # Header + one padded payload block + trailer.
        assert census.tar_stream_bytes == 4 * TAR_BLOCK_BYTES

    def test_exact_block_needs_no_padding(self):
        exact = FileCensus(sizes=np.array([512]))
        off = FileCensus(sizes=np.array([513]))
        assert off.tar_stream_bytes == exact.tar_stream_bytes + TAR_BLOCK_BYTES

    def test_stream_larger_than_content(self):
        census = synthetic_kernel_census(file_count=1000, seed=1)
        assert census.tar_stream_bytes > census.content_bytes
        assert 0.0 < census.padding_overhead < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            FileCensus(sizes=np.array([]))
        with pytest.raises(ValueError):
            FileCensus(sizes=np.array([-1]))
        with pytest.raises(ValueError):
            FileCensus(sizes=np.zeros((2, 2)))


class TestSyntheticCensus:
    def test_deterministic(self):
        a = synthetic_kernel_census(seed=5)
        b = synthetic_kernel_census(seed=5)
        assert np.array_equal(a.sizes, b.sizes)

    def test_target_content_hit_exactly(self):
        target = 356_400_000
        census = synthetic_kernel_census(target_content_bytes=target)
        assert census.content_bytes == target

    def test_kernel_shape_mostly_small_files(self):
        census = synthetic_kernel_census(seed=3)
        median = float(np.median(census.sizes))
        assert median < 20_000  # most source files are small
        assert census.sizes.max() > 50 * median  # heavy tail exists

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_kernel_census(file_count=0)
        with pytest.raises(ValueError):
            synthetic_kernel_census(target_content_bytes=-5)

    def test_describe(self):
        text = synthetic_kernel_census(file_count=100, seed=1).describe()
        assert "files" in text and "overhead" in text


def _census_for(tree):
    """The synthetic census matching a tree's stated totals."""
    return synthetic_kernel_census(
        file_count=tree.file_count, target_content_bytes=tree.total_bytes
    )


class TestCensusForTree:
    def test_matches_tree_totals(self):
        tree = KernelSourceTree()
        census = _census_for(tree)
        assert census.file_count == tree.file_count
        assert census.content_bytes == tree.total_bytes

    def test_tar_overhead_is_modest_for_kernel_tree(self):
        # ~31k files x ~512 B average overhead ~ 2-7 % of a 356 MB tree.
        census = _census_for(KernelSourceTree())
        assert census.padding_overhead < 0.10
