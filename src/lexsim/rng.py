"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from a counter-based Philox
generator keyed by the run seed. Stream `i` starts the 256-bit Philox counter
at `i << 192`, so each stream owns 2^192 blocks and streams can never collide.
Two consequences the simulators rely on:

* the same (seed, stream) pair always reproduces the same draws, on any
  machine and regardless of how many other streams exist;
* adding or removing streams (say, growing the rule population) never
  reshuffles the draws of an unrelated stream.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_U64_MAX = 2**64 - 1
_BLOCK_STREAMS = 64  # streams drawn into one C-contiguous staging block


def _is_u64(v) -> bool:
    # bool is an int subclass, but True is not a seed or a stream id
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= _U64_MAX


def _check_ids(seed: int, stream: int) -> None:
    if not _is_u64(seed):
        raise DomainError(f"seed must be an integer in [0, 2^64): got {seed!r}")
    if not _is_u64(stream):
        raise DomainError(f"stream id must be an integer in [0, 2^64): got {stream!r}")


def substream(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for stream `stream` under `seed` (both u64)."""
    _check_ids(seed, stream)
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 192))


def fill_substreams(seed: int, out: np.ndarray) -> np.ndarray:
    """Fill `out[..., i]` with `substream(seed, i).random(out.shape[:-1])` for every i.

    The draws are bit-identical to building each stream on its own, but one
    Philox serves them all: stream i only moves the top counter word to i, and
    assigning the state also empties the generator's output buffer. Streams
    are drawn in blocks of 64 into a contiguous staging array, then copied
    into `out` transposed. Returns `out`.
    """
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.ndim >= 1):
        raise DomainError("out must be a float64 array with a trailing stream axis")
    n = out.shape[-1]
    _check_ids(seed, max(n - 1, 0))
    bits = np.random.Philox(key=seed, counter=0)
    gen = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    block = np.empty((min(n, _BLOCK_STREAMS),) + out.shape[:-1])
    for lo in range(0, n, _BLOCK_STREAMS):
        m = min(_BLOCK_STREAMS, n - lo)
        for k in range(m):
            counter[3] = lo + k  # counter = stream << 192
            bits.state = state
            gen.random(out=block[k])
        out[..., lo : lo + m] = np.moveaxis(block[:m], 0, -1)
    return out
