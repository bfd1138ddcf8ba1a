"""Philox streams: `fill_substreams` against one generator per stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import AreaKind, DomainError, LegalArea, RulePopulation, simulate, substream
from lexsim.rng import fill_substreams

U64_MAX = 2**64 - 1


def fill_by_substream(seed, shape, n):
    """Reference: build every stream on its own, as simulate once did."""
    out = np.empty(shape + (n,))
    for i in range(n):
        out[..., i] = substream(seed, i).random(shape)
    return out


class TestFillSubstreams:
    @pytest.mark.parametrize("seed", [0, 1, U64_MAX])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_bit_equal_to_one_generator_per_stream(self, seed, n):
        out = fill_substreams(seed, np.empty((5, 3, n)))
        assert np.array_equal(out, fill_by_substream(seed, (5, 3), n))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, U64_MAX),
        n=st.integers(1, 200),
        periods=st.integers(1, 8),
    )
    def test_bit_equal_property(self, seed, n, periods):
        out = fill_substreams(seed, np.empty((periods, 3, n)))
        assert np.array_equal(out, fill_by_substream(seed, (periods, 3), n))

    @pytest.mark.parametrize("n, k", [(1, 1), (63, 2), (64, 65), (100, 29)])
    def test_growing_the_stream_count_keeps_the_prefix(self, n, k):
        small = fill_substreams(9, np.empty((7, 3, n)))
        large = fill_substreams(9, np.empty((7, 3, n + k)))
        assert np.array_equal(large[..., :n], small)

    def test_fills_in_place_and_returns_out(self):
        out = np.empty((4, 2))
        assert fill_substreams(3, out) is out
        assert np.array_equal(out[:, 1], substream(3, 1).random(4))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_keeps_substreams_message(self, seed):
        with pytest.raises(DomainError) as expected:
            substream(seed, 0)
        with pytest.raises(DomainError) as got:
            fill_substreams(seed, np.empty((2, 3)))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_bad_seed_through_simulate(self, seed):
        area = LegalArea(name="negligence", kind=AreaKind.TORT, dispute_rate=0.8,
                         stakes_j=100.0, cost_q=18.0, cost_g=18.0)
        with pytest.raises(DomainError) as exc:
            simulate(area, RulePopulation(5, 0.5), periods=3, seed=seed)
        assert str(exc.value) == f"seed must be an integer in [0, 2^64): got {seed!r}"

    @pytest.mark.parametrize("out", [np.empty((2, 3), dtype=np.float32), np.empty(()), [0.0]])
    def test_rejects_out_that_is_not_a_float64_stream_array(self, out):
        with pytest.raises(DomainError):
            fill_substreams(0, out)
