"""Counter-addressable deterministic random streams.

Every random draw in this package comes from the Philox-4x64-10 block
cipher (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) keyed with ``(seed, stream_id)``. A stream is a pure function of
that key, so streams can be re-derived and skipped to any position on any
host or worker without shared state. Distinct ``stream_id`` values address
distinct cipher keys and are independent for simulation purposes.

Counter convention: word ``i`` of a stream is lane ``i % 4`` of the cipher
of the 256-bit counter ``(i // 4 + 1, 0, 0, 0)``. That is what
``numpy.random.Philox(key=[seed, stream_id], counter=c)`` emits, since it
increments its counter before enciphering: its first four words are block
``c + 1``. Single streams are read through numpy's Philox
(``RandomStream``, ``chunk_words``); many streams at once are read through
``philox_blocks``, the same cipher in numpy ``uint64`` arithmetic,
vectorized over (key, counter) pairs. Its 64x64 -> 128-bit multiply-high
is assembled from the four products of 32-bit halves. The counter's upper
three words stay 0 because every address the engine's layout forms has
``i // 4 + 1 < 2**64``.

Uniform mapping (format version 1): a raw 64-bit word ``w`` maps to the
open-closed unit interval as ``u = ((w >> 11) + 1) * 2**-53``, i.e.
``u in (0, 1]``. The +1 keeps 0 out of the range so ``log(u)`` is always
finite. Changing this mapping, or any sampler built on it, is a breaking
change of STREAM_FORMAT_VERSION.

Concurrency: streams may be created on any thread and sent between
threads, but a RandomStream or RaggedStreams instance is confined to one
consumer at a time - its counters are ordinary mutable state. Concurrent
work partitions the id/counter space instead of sharing stream objects,
which is how the engine stays deterministic under any worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

__all__ = [
    "RandomStream",
    "RaggedStreams",
    "derive_stream",
    "pack_stream_id",
    "philox_blocks",
    "ragged_words",
    "STREAM_FORMAT_VERSION",
]

STREAM_FORMAT_VERSION = 1

_U64_MASK = (1 << 64) - 1
_WORDS_PER_BLOCK = 4
# u = ((w >> 11) + 1) * 2**-53
_SHIFT = np.uint64(11)
_ONE = np.uint64(1)
_TWO_NEG53 = 2.0 ** -53

# Philox-4x64-10 constants (Salmon et al. 2011): round multipliers for
# counter words 0 and 2, and the Weyl key increments.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
# (multiplier, its low and high 32-bit halves) for each row order of the
# (word 0, word 2) pair; the rows swap places every round.
_PHILOX_MULTS = tuple((m, m & _LOW32, m >> _HALF) for m in (_PHILOX_M, _PHILOX_M[::-1].copy()))
# Blocks enciphered per pass: the working arrays of one pass stay in cache.
_CIPHER_PASS_BLOCKS = 8192


def pack_stream_id(domain: int, level_code: int, index):
    """Pack a (domain, level, index) triple into one 64-bit stream id.

    Layout (fixed for format version 1): 4 domain bits, 8 level bits,
    52 index bits. Collision-free by construction for index < 2**52.
    ``index`` may also be an integer array, giving a ``uint64`` id array.
    """
    if not 0 <= domain < 16:
        raise ValueError(f"domain {domain} out of range [0, 16)")
    if not 0 <= level_code < 256:
        raise ValueError(f"level_code {level_code} out of range [0, 256)")
    prefix = (domain << 60) | (level_code << 52)
    if isinstance(index, np.ndarray):
        if index.size and not (0 <= index.min() and index.max() < (1 << 52)):
            raise ValueError("index out of range [0, 2**52)")
        return np.uint64(prefix) | index.astype(np.uint64)
    if not 0 <= index < (1 << 52):
        raise ValueError(f"index {index} out of range [0, 2**52)")
    return prefix | index


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


def philox_blocks(seed: int, stream_ids: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Philox-4x64-10 of many (key, counter) pairs in one call.

    Row ``i`` of the ``(n, 4)`` result is the cipher of counter
    ``(blocks[i], 0, 0, 0)`` under key ``(seed, stream_ids[i])``: the four
    words ``numpy.random.Philox(key=[seed, stream_ids[i]],
    counter=blocks[i] - 1)`` emits first.
    """
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
    blocks = np.asarray(blocks, dtype=np.uint64)
    out = np.empty((len(stream_ids), _WORDS_PER_BLOCK), dtype=np.uint64)
    for lo in range(0, len(stream_ids), _CIPHER_PASS_BLOCKS):
        hi = lo + _CIPHER_PASS_BLOCKS
        out[lo:hi] = _philox_pass(seed, stream_ids[lo:hi], blocks[lo:hi])
    return out


def _philox_pass(seed: int, stream_ids: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    n = len(stream_ids)
    # x holds counter words (0, 2) and y words (1, 3), both in that row
    # order after an even number of rounds and swapped after an odd one.
    x = np.zeros((2, n), dtype=np.uint64)
    x[0] = blocks
    y = np.zeros((2, n), dtype=np.uint64)
    key1 = stream_ids.copy()
    x_lo, x_hi, low, mid, upper, hi, lo = (np.empty((2, n), dtype=np.uint64) for _ in range(7))
    for r in range(_PHILOX_ROUNDS):
        m, m_lo, m_hi = _PHILOX_MULTS[r & 1]
        # hi:lo = m * x from the four 32x32-bit partial products
        np.bitwise_and(x, _LOW32, out=x_lo)
        np.right_shift(x, _HALF, out=x_hi)
        np.multiply(m_lo, x_lo, out=low)
        low >>= _HALF
        np.multiply(m_lo, x_hi, out=mid)
        mid += low
        np.multiply(m_hi, x_lo, out=upper)
        np.bitwise_and(mid, _LOW32, out=x_lo)
        upper += x_lo
        np.multiply(m_hi, x_hi, out=hi)
        mid >>= _HALF
        hi += mid
        upper >>= _HALF
        hi += upper
        np.multiply(m, x, out=lo)
        # new word 0 = hi(word 2) ^ word 1 ^ key 0, new word 2 = hi(word 0)
        # ^ word 3 ^ key 1, new words 1 and 3 = lo(word 2), lo(word 0)
        np.bitwise_xor(hi, y[::-1], out=x)
        x[1 - (r & 1)] ^= np.uint64((seed + r * _PHILOX_W0) & _U64_MASK)
        x[r & 1] ^= key1
        key1 += _PHILOX_W1
        y, lo = lo, y
    out = np.empty((n, _WORDS_PER_BLOCK), dtype=np.uint64)
    out[:, 0::2] = x.T
    out[:, 1::2] = y.T
    return out


def row_positions(lengths: np.ndarray) -> np.ndarray:
    """0, 1, .., lengths[0]-1, 0, 1, .., lengths[1]-1, ...: each element's
    position within its row of a ragged array."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def ragged_words(seed: int, stream_ids: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Words ``[starts[i], starts[i] + counts[i])`` of stream
    ``(seed, stream_ids[i])`` for every row ``i``, concatenated in row order."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    first = starts // _WORDS_PER_BLOCK
    n_blocks = np.where(counts > 0, (starts + counts - 1) // _WORDS_PER_BLOCK - first + 1, 0)
    block_row = np.repeat(np.arange(len(counts)), n_blocks)
    offsets = np.cumsum(n_blocks) - n_blocks
    blocks = first[block_row] + row_positions(n_blocks) + 1
    cipher = philox_blocks(seed, np.asarray(stream_ids, dtype=np.uint64)[block_row], blocks).ravel()
    row_first = offsets * _WORDS_PER_BLOCK + starts % _WORDS_PER_BLOCK
    return cipher[np.repeat(row_first, counts) + row_positions(counts)]


class RaggedStreams:
    """Many streams read side by side, one row each.

    Row ``i`` is the stream ``(seed, stream_ids[i])`` from word 0 on, and
    ``counter[i]`` counts the words it has consumed. Each read returns the
    same words a ``RandomStream`` of that row would. When ``prefix`` is
    given, the first ``prefix[i]`` words of every row are read in one
    cipher call as the rows are built; a read past a row's prefix goes to
    the cipher again, one call for all such rows.
    """

    __slots__ = ("seed", "stream_ids", "counter", "_prefix", "_buffered", "_first")

    def __init__(self, seed: int, stream_ids: np.ndarray, prefix: np.ndarray | None = None):
        self.seed = seed
        self.stream_ids = np.asarray(stream_ids, dtype=np.uint64)
        self.counter = np.zeros(len(self.stream_ids), dtype=np.int64)
        if prefix is None:
            prefix = self.counter
        self._buffered = np.asarray(prefix, dtype=np.int64)
        self._first = np.cumsum(self._buffered) - self._buffered
        self._prefix = ragged_words(seed, self.stream_ids, self.counter, self._buffered)

    def raw_words(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The next ``counts[j]`` words of each row ``rows[j]``,
        concatenated in the order of ``rows``; advances those rows."""
        start = self.counter[rows]
        end = start + counts
        buffered = end <= self._buffered[rows]
        in_prefix = np.repeat(buffered, counts)
        source = np.repeat(self._first[rows] + start, counts) + row_positions(counts)
        words = np.empty(len(source), dtype=np.uint64)
        words[in_prefix] = self._prefix[source[in_prefix]]
        if not buffered.all():
            late = ~buffered
            words[~in_prefix] = ragged_words(self.seed, self.stream_ids[rows[late]],
                                             start[late], counts[late])
        self.counter[rows] = end
        return words

    def uniforms(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``raw_words`` mapped to (0, 1] with the versioned word mapping."""
        return words_to_uniforms(self.raw_words(rows, counts))
