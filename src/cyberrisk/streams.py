"""Counter-addressable deterministic random streams.

Every random draw in this package comes from the Philox-4x64-10 block
cipher (via ``numpy.random.Philox``) keyed with ``(seed, stream_id)``.
A stream is a pure function of that key: word ``i`` of the stream is lane
``i % 4`` of the cipher block at counter ``i // 4``, so streams can be
re-derived and skipped to any position on any host or worker without
shared state. Distinct ``stream_id`` values address distinct cipher keys
and are independent for simulation purposes.

Uniform mapping (format version 1): a raw 64-bit word ``w`` maps to the
open-closed unit interval as ``u = ((w >> 11) + 1) * 2**-53``, i.e.
``u in (0, 1]``. The +1 keeps 0 out of the range so ``log(u)`` is always
finite. Changing this mapping, or any sampler built on it, is a breaking
change of STREAM_FORMAT_VERSION.

Concurrency: streams may be created on any thread and sent between
threads, but a RandomStream instance is confined to one consumer at a
time - its counter is ordinary mutable state. Concurrent work partitions
the id/counter space instead of sharing stream objects, which is how the
engine stays deterministic under any worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

__all__ = ["RandomStream", "derive_stream", "pack_stream_id", "STREAM_FORMAT_VERSION"]

STREAM_FORMAT_VERSION = 1

_U64_MASK = (1 << 64) - 1
_WORDS_PER_BLOCK = 4
# u = ((w >> 11) + 1) * 2**-53
_SHIFT = np.uint64(11)
_ONE = np.uint64(1)
_TWO_NEG53 = 2.0 ** -53


def pack_stream_id(domain: int, level_code: int, index: int) -> int:
    """Pack a (domain, level, index) triple into one 64-bit stream id.

    Layout (fixed for format version 1): 4 domain bits, 8 level bits,
    52 index bits. Collision-free by construction for index < 2**52.
    """
    if not 0 <= domain < 16:
        raise ValueError(f"domain {domain} out of range [0, 16)")
    if not 0 <= level_code < 256:
        raise ValueError(f"level_code {level_code} out of range [0, 256)")
    if not 0 <= index < (1 << 52):
        raise ValueError(f"index {index} out of range [0, 2**52)")
    return (domain << 60) | (level_code << 52) | index


class RandomStream:
    """One deterministic draw sequence, identified by (seed, stream_id).

    The ``counter`` attribute is the number of 64-bit words consumed so
    far; two streams with equal (seed, stream_id, counter) produce the
    same remaining sequence on any platform and worker count.
    """

    __slots__ = ("seed", "stream_id", "counter")

    def __init__(self, seed: int, stream_id: int, counter: int = 0):
        if not 0 <= seed <= _U64_MASK:
            raise ValueError(f"seed {seed} is not a 64-bit unsigned integer")
        if not 0 <= stream_id <= _U64_MASK:
            raise ValueError(f"stream_id {stream_id} is not a 64-bit unsigned integer")
        if counter < 0:
            raise ValueError(f"counter {counter} is negative")
        self.seed = seed
        self.stream_id = stream_id
        self.counter = counter

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def raw_words(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw 64-bit words and advance the counter."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        start_block, offset = divmod(self.counter, _WORDS_PER_BLOCK)
        bit_gen = Philox(key=self._key(), counter=start_block)
        words = bit_gen.random_raw(offset + n)[offset:]
        self.counter += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """Return ``n`` uniforms in (0, 1] using the versioned word mapping."""
        words = self.raw_words(n)
        return ((words >> _SHIFT) + _ONE) * _TWO_NEG53

    def uniform(self) -> float:
        """Return a single uniform in (0, 1]."""
        return float(self.uniforms(1)[0])


def derive_stream(seed: int, stream_id: int) -> RandomStream:
    """Return the stream for (seed, stream_id), positioned at counter 0."""
    return RandomStream(seed, stream_id)


def chunk_words(seed: int, stream_id: int, first_region: int, n_regions: int,
                blocks_per_region: int) -> np.ndarray:
    """Read ``n_regions`` consecutive fixed-stride counter regions at once.

    Region ``r`` of a stream owns cipher blocks
    ``[r * blocks_per_region, (r+1) * blocks_per_region)``; this helper
    returns the words of regions ``first_region .. first_region+n_regions``
    as a ``(n_regions, 4 * blocks_per_region)`` array. Reading regions in
    bulk or one at a time yields identical words, which is what makes the
    engine's chunked execution independent of the worker partition.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    bit_gen = Philox(key=key, counter=first_region * blocks_per_region)
    total = n_regions * blocks_per_region * _WORDS_PER_BLOCK
    return bit_gen.random_raw(total).reshape(n_regions, blocks_per_region * _WORDS_PER_BLOCK)


def words_to_uniforms(words: np.ndarray) -> np.ndarray:
    """Vectorized version of the versioned word -> (0, 1] mapping."""
    return ((words >> _SHIFT) + _ONE) * _TWO_NEG53
