"""Philox streams: `fill_substreams` against one generator per stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import AreaKind, DomainError, LegalArea, RulePopulation, simulate, substream
from lexsim.rng import fill_substreams

U64_MAX = 2**64 - 1


def fill_by_substream(seed, first, n, shape):
    """Reference: build every stream on its own, as simulate once did."""
    return np.stack([substream(seed, first + k).random(shape) for k in range(n)])


class TestFillSubstreams:
    @pytest.mark.parametrize("seed", [0, 1, U64_MAX])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_bit_equal_to_one_generator_per_stream(self, seed, n):
        for first in (0, 5, 2**64 - n):
            out = fill_substreams(seed, first, np.empty((n, 5, 3)))
            assert np.array_equal(out, fill_by_substream(seed, first, n, (5, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, U64_MAX),
        first=st.one_of(st.integers(0, 4096), st.integers(0, U64_MAX - 200)),
        n=st.integers(1, 200),
        periods=st.integers(1, 8),
    )
    def test_bit_equal_property(self, seed, first, n, periods):
        out = fill_substreams(seed, first, np.empty((n, periods, 3)))
        assert np.array_equal(out, fill_by_substream(seed, first, n, (periods, 3)))

    @pytest.mark.parametrize("n, k", [(1, 1), (63, 2), (64, 65), (100, 29)])
    def test_growing_the_stream_count_keeps_the_prefix(self, n, k):
        for first in (0, 3):
            small = fill_substreams(9, first, np.empty((n, 7, 3)))
            large = fill_substreams(9, first, np.empty((n + k, 7, 3)))
            assert np.array_equal(large[:n], small)

    def test_fills_in_place_and_returns_out(self):
        out = np.empty((4, 2))
        assert fill_substreams(3, 6, out) is out
        assert np.array_equal(out[1], substream(3, 7).random(2))
        flat = fill_substreams(3, 6, np.empty(4))
        assert flat[1] == substream(3, 7).random()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_keeps_substreams_message(self, seed):
        with pytest.raises(DomainError) as expected:
            substream(seed, 0)
        with pytest.raises(DomainError) as got:
            fill_substreams(seed, 0, np.empty((2, 3)))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("first, n", [(-1, 1), (2**64 - 1, 2), (2**64, 1), (1.5, 1),
                                          (True, 1)])
    def test_bad_stream_ids_are_refused(self, first, n):
        with pytest.raises(DomainError, match="stream id must be an integer in"):
            fill_substreams(0, first, np.empty((n, 3)))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_bad_seed_through_simulate(self, seed):
        area = LegalArea(name="negligence", kind=AreaKind.TORT, dispute_rate=0.8,
                         stakes_j=100.0, cost_q=18.0, cost_g=18.0)
        with pytest.raises(DomainError) as exc:
            simulate(area, RulePopulation(5, 0.5), periods=3, seed=seed)
        assert str(exc.value) == f"seed must be an integer in [0, 2^64): got {seed!r}"

    @pytest.mark.parametrize("out", [
        np.empty((2, 3), dtype=np.float32), np.empty(()), [0.0], np.empty((3, 2)).T,
        np.empty((4, 6, 3))[:, ::2], np.empty((2, 3), dtype=np.int64),
        np.lib.stride_tricks.as_strided(np.empty(3), (2, 3), writeable=False),
    ])
    def test_rejects_out_that_is_not_a_float64_stream_array(self, out):
        with pytest.raises(DomainError):
            fill_substreams(0, 0, out)


class TestBoolIsNotAnId:
    """bool is an int subclass; True must not quietly mean stream or seed 1."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_substream_rejects_bool_seed_and_stream(self, flag):
        with pytest.raises(DomainError) as exc:
            substream(flag, 0)
        assert str(exc.value) == f"seed must be an integer in [0, 2^64): got {flag!r}"
        with pytest.raises(DomainError) as exc:
            substream(0, flag)
        assert str(exc.value) == f"stream id must be an integer in [0, 2^64): got {flag!r}"

    @pytest.mark.parametrize("flag", [True, False])
    def test_fill_substreams_rejects_bool_seed(self, flag):
        with pytest.raises(DomainError) as exc:
            fill_substreams(flag, 0, np.empty((2, 3)))
        assert str(exc.value) == f"seed must be an integer in [0, 2^64): got {flag!r}"

    def test_simulate_rejects_bool_seed(self):
        area = LegalArea(name="negligence", kind=AreaKind.TORT, dispute_rate=0.8,
                         stakes_j=100.0, cost_q=18.0, cost_g=18.0)
        with pytest.raises(DomainError) as exc:
            simulate(area, RulePopulation(5, 0.5), periods=3, seed=True)
        assert str(exc.value) == "seed must be an integer in [0, 2^64): got True"
