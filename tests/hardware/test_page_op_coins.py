"""Served page-op coins (``MemoryBank`` on ``RngStreams.uniforms``).

A host's memory bank draws from a served stream: it reads the one double
that numpy's ``binomial`` would consume and answers 0 itself when that
double is below the quiet bound, and only otherwise hands the generator
to ``binomial`` and ``integers``.  Its faults, fault pages and stream
positions must be exactly those of a raw generator making the
``binomial`` + ``integers`` calls, wherever a capture falls, including
past a fault (whose ``integers`` leaves PCG64 a buffered half-word) and
for ratios outside numpy's inversion regime.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.components import MemoryBank, _quiet_below
from repro.hardware.vendors import VENDOR_A
from repro.sim.rng import (
    _BLOCK,
    RngStreams,
    _decode_bitgen_state,
    _encode_bitgen_state,
)

NAME = "memory"

ratios = st.one_of(
    # Inversion regime, from the paper's 1/570e6 up to a fault most calls.
    st.floats(1e-9, 2e-3),
    # Outside it: p > 0.5, or count * p > 30 for the larger counts.
    st.sampled_from([0.05, 0.3, 0.5, 0.6, 0.97]),
)


def _encoded(generator):
    """``generator``'s position as a family snapshot stores it."""
    return _encode_bitgen_state(generator.bit_generator.state)


def _raw_faults(generator, count, p):
    """What the bank's draws are defined as: ``binomial`` then one
    ``integers`` per fault."""
    n_faults = int(generator.binomial(count, p))
    return [int(generator.integers(0, count)) for _ in range(n_faults)]


class TestAgainstNumpy:
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=ratios,
        counts=st.lists(st.integers(0, 400), min_size=1, max_size=3 * _BLOCK),
        capture_every=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_faults_and_positions_match_raw_draws(self, seed, p, counts, capture_every):
        family = RngStreams(seed)
        bank = MemoryBank(VENDOR_A, family.uniforms(NAME), fault_ratio=p)
        raw = RngStreams(seed).stream(NAME)
        pages = []
        for k, count in enumerate(counts):
            expected = _raw_faults(raw, count, p) if count else []
            assert bank.perform_page_ops(count, float(k)) == len(expected)
            pages.extend(expected)
            if k % capture_every == 0:
                assert family.state_dict()["streams"][NAME] == _encoded(raw)
        assert bank.faults.column("page_index").tolist() == pages
        assert family.state_dict()["streams"][NAME] == _encoded(raw)

    def test_capture_after_a_fault_keeps_the_buffered_half_word(self):
        # A fault's ``integers`` draw leaves PCG64 holding half a 64-bit
        # word; quiet draws after it do not touch it, so a capture must
        # still carry it, at a block boundary or inside a block.
        seed, p, count = 3, 0.01, 100
        family = RngStreams(seed)
        bank = MemoryBank(VENDOR_A, family.uniforms(NAME), fault_ratio=p)
        raw = RngStreams(seed).stream(NAME)
        while True:
            faults = _raw_faults(raw, count, p)
            assert bank.perform_page_ops(count, 0.0) == len(faults)
            if len(faults) % 2:
                break
        # Right after the integers draw: the generator's own state.
        assert raw.bit_generator.state["has_uint32"] == 1
        assert family.state_dict()["streams"][NAME] == _encoded(raw)
        bank.fault_ratio = 1e-9
        for _ in range(2 * _BLOCK):
            assert bank.perform_page_ops(1, 0.0) == len(_raw_faults(raw, 1, 1e-9))
            assert family.state_dict()["streams"][NAME] == _encoded(raw)
        assert raw.bit_generator.state["has_uint32"] == 1

    def test_a_restored_bank_continues_the_stream(self):
        seed, p, count = 11, 0.004, 300
        family = RngStreams(seed)
        bank = MemoryBank(VENDOR_A, family.uniforms(NAME), fault_ratio=p)
        for k in range(700):
            bank.perform_page_ops(count, float(k))
        state = family.state_dict()
        resumed_family = RngStreams(seed)
        resumed = MemoryBank(VENDOR_A, resumed_family.uniforms(NAME), fault_ratio=p)
        resumed_family.load_state_dict(state)
        raw = RngStreams(seed).stream(NAME)
        raw.bit_generator.state = _decode_bitgen_state(state["streams"][NAME])
        for k in range(700):
            assert resumed.perform_page_ops(count, float(k)) == len(
                _raw_faults(raw, count, p)
            )
        assert resumed_family.state_dict()["streams"][NAME] == _encoded(raw)

    def test_standalone_bank_serves_a_raw_generator(self):
        bank = MemoryBank(VENDOR_A, np.random.default_rng(99), fault_ratio=0.01)
        raw = np.random.default_rng(99)
        for k in range(50):
            assert bank.perform_page_ops(500, float(k)) == len(
                _raw_faults(raw, 500, 0.01)
            )


class TestQuietBound:
    def test_bound_is_below_the_zero_probability(self):
        for count, p in [(130_000, 1 / 570e6), (300, 0.1), (60, 0.5)]:
            assert 0.0 < _quiet_below(count, p) < (1.0 - p) ** count

    def test_outside_the_inversion_regime_nothing_is_quiet(self):
        assert _quiet_below(10, 0.6) < 0.0
        assert _quiet_below(1000, 0.05) < 0.0

