"""Block-served uniform streams (``RngStreams.uniforms``).

A served stream must be indistinguishable from a raw generator making
the same scalar ``random()`` calls: the same values, the same snapshot
positions wherever a capture falls (block boundaries included), and the
same tail after a restore, also one that lands mid-block.  The served
path rests on two facts of numpy's PCG64, and the served page-op coins
(``MemoryBank``) on one of its ``binomial``, checked here directly so
that a numpy release that changes any of them fails by name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import _BLOCK, RngStreams

SEED = 11
NAME = "coin"


def _copy(generator):
    """An independent generator at ``generator``'s position."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = generator.bit_generator.state
    return twin


class TestNumpyContract:
    @pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 5])
    def test_filling_a_block_gives_the_next_scalar_draws(self, n):
        block_rng = np.random.default_rng(3)
        block = np.empty(n)
        block_rng.random(out=block)
        scalar_rng = np.random.default_rng(3)
        assert block.tolist() == [scalar_rng.random() for _ in range(n)]
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("k", [0, 1, 100, _BLOCK, 1000])
    def test_advancing_k_steps_equals_k_draws(self, k):
        drawn = np.random.default_rng(3)
        for _ in range(k):
            drawn.random()
        advanced = np.random.PCG64()
        advanced.state = np.random.default_rng(3).bit_generator.state
        advanced.advance(k)
        assert advanced.state == drawn.bit_generator.state

    @pytest.mark.parametrize("n, p", [(130_000, 1 / 570e6), (400, 0.02), (60, 0.5)])
    def test_binomial_inversion_returns_zero_from_one_double(self, n, p):
        # With p <= 0.5 and n * p <= 30, binomial(n, p) reads one double U
        # and returns 0 exactly when U <= exp(n * log(1 - p)).
        quiet = np.exp(n * np.log(1.0 - p))
        for seed in range(200):
            drawn, doubles = np.random.default_rng(seed), np.random.default_rng(seed)
            u = doubles.random()
            if drawn.binomial(n, p) == 0:
                assert u <= quiet
                assert drawn.bit_generator.state == doubles.bit_generator.state
            else:
                assert u > quiet


class TestServedDraws:
    @given(
        segments=st.lists(st.integers(0, 3 * _BLOCK), min_size=1, max_size=5),
        tail=st.integers(1, _BLOCK + 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_and_positions_match_scalar_draws(self, segments, tail):
        served_family, plain_family = RngStreams(SEED), RngStreams(SEED)
        served = served_family.uniforms(NAME)
        plain = plain_family.stream(NAME)
        for n in segments:
            assert [served.random() for _ in range(n)] == [
                plain.random() for _ in range(n)
            ]
            state = served_family.state_dict()
            assert state == plain_family.state_dict()
            ahead = _copy(plain)
            expected = [ahead.random() for _ in range(tail)]

            # A restore into a served stream holding a block elsewhere,
            # and one into a family that has not created the stream yet.
            busy = RngStreams(SEED)
            busy.uniforms(NAME).random()
            busy.load_state_dict(state)
            fresh = RngStreams(SEED)
            fresh.load_state_dict(state)
            for family in (busy, fresh):
                coin = family.uniforms(NAME)
                assert [coin.random() for _ in range(tail)] == expected
        # Capturing did not move the served stream.
        assert [served.random() for _ in range(tail)] == [
            plain.random() for _ in range(tail)
        ]

    def test_served_and_raw_streams_share_one_snapshot(self):
        family = RngStreams(SEED)
        family.uniforms("a").random()
        family.stream("b").random()
        family.spawn("host.01").uniforms("c").random()
        plain = RngStreams(SEED)
        plain.stream("a").random()
        plain.stream("b").random()
        plain.spawn("host.01").stream("c").random()
        assert family.state_dict() == plain.state_dict()

    def test_same_name_returns_same_object(self):
        family = RngStreams(SEED)
        assert family.uniforms(NAME) is family.uniforms(NAME)


class TestGuard:
    def test_raw_stream_cannot_be_served(self):
        family = RngStreams(SEED)
        family.stream(NAME)
        with pytest.raises(ValueError, match="raw generator"):
            family.uniforms(NAME)

    def test_served_stream_cannot_be_drawn_raw(self):
        family = RngStreams(SEED)
        family.uniforms(NAME)
        with pytest.raises(ValueError, match="served"):
            family.stream(NAME)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(SEED).uniforms("")
