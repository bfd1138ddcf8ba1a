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


def fill_substreams(seed: int, first: int, out: np.ndarray) -> np.ndarray:
    """Fill `out[k]` with `substream(seed, first + k).random(out.shape[1:])` for every k.

    The draws are bit-identical to building each stream on its own, but one
    Philox serves them all: stream i only moves the top counter word to i, and
    assigning the state also empties the generator's output buffer. Each
    stream is drawn straight into its slot of the C-contiguous `out`. Returns
    `out`.
    """
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.ndim >= 1
            and out.flags.c_contiguous and out.flags.writeable):
        raise DomainError("out must be a writable C-contiguous float64 array "
                          "with a leading stream axis")
    _check_ids(seed, first)
    _check_ids(seed, first + max(len(out) - 1, 0))
    bits = np.random.Philox(key=seed, counter=0)
    gen = np.random.Generator(bits)
    state = bits.state
    counter = state["state"]["counter"]
    for k in range(len(out)):
        counter[3] = first + k  # counter = stream << 192
        bits.state = state
        gen.random(out=out[k : k + 1])  # a view, also where out[k] is a scalar
    return out
