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
``c + 1``. Single streams are read through numpy's Philox, which only
``RandomStream`` constructs (``chunk_words`` reads through it). A
``RandomStream`` keeps one Philox and continues it from read to read,
since numpy's four-word buffer resumes exactly where a read of any
length stopped; it builds a new one only when ``counter`` was moved.

Many streams at once are read through ``philox_blocks``, the same cipher
vectorized over (key, counter) pairs, in passes of at most 8,192 blocks.
A pass runs in a compiled kernel, ``_PHILOX_C``, when one loads: a C loop
with a native 64x64 -> 128-bit multiply (``unsigned __int128``). On first
use in a process, never at import, ``_philox_kernel`` compiles it with the
system ``cc`` into the per-user cache, ``$XDG_CACHE_HOME/cyberrisk`` (else
``~/.cache/cyberrisk``), named by a hash of the source, the command and
the platform, and loads it through ``ctypes``; later processes load the
cached file without compiling. Where that fails (no ``cc``, no
``__int128``, no POSIX file owners, an unwritable cache, or a cache
directory or file that another user owns or may write), every pass runs
``_philox_pass_numpy``, which gives the same words and is the reference the
kernel is tested against. It does the cipher in numpy ``uint64``
arithmetic, its multiply-high assembled from the four products of 32-bit
halves. The counter's upper three words stay 0 because every
address the engine's layout forms has ``i // 4 + 1 < 2**64``. So rounds 0
and 1 multiply one word each, with the same result: round 0's word-2
product is 0, and word 0 leaves round 0 as the seed in every block, so
round 1's word-0 product is the one Python int ``M0 * seed``. Each pass
writes its words lane-major, one row per lane; ``philox_blocks`` returns
them as an ``(n, 4)`` view whose columns are contiguous.

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

import functools
import operator
import os
import stat

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
# counter words 0 and 2, and the Weyl key increments. The cipher's operands
# are 0-d arrays, which a ufunc takes as they are; it converts a numpy
# scalar again on every call.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = np.array(0xBB67AE8584CAA73B, dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_HALF = np.array(32, dtype=np.uint64)
# (multiplier, its low and high 32-bit halves) for each row order of the
# (word 0, word 2) pair; the rows swap places every round.
_PHILOX_MULTS = tuple((m, m & _LOW32, m >> _HALF) for m in (_PHILOX_M, _PHILOX_M[::-1].copy()))
# Blocks enciphered per pass: the working arrays of one pass stay in cache.
_CIPHER_PASS_BLOCKS = 8192

# The compiled pass: block i is the cipher of counter (blocks[i], 0, 0, 0)
# under key (seed, ids[i]), written lane-major into out's 4 rows of n.
_PHILOX_C = r"""
#include <stdint.h>

void philox_pass(uint64_t seed, const uint64_t *ids, const uint64_t *blocks,
                 uint64_t *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t x0 = blocks[i], x1 = 0, x2 = 0, x3 = 0, k0 = seed, k1 = ids[i];
        for (int r = 0; r < 10; r++) {
            unsigned __int128 p0 = (unsigned __int128)UINT64_C(0xD2E7470EE14C6C93) * x0;
            unsigned __int128 p2 = (unsigned __int128)UINT64_C(0xCA5A826395121157) * x2;
            x0 = (uint64_t)(p2 >> 64) ^ x1 ^ k0;
            x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
            x1 = (uint64_t)p2;
            x3 = (uint64_t)p0;
            k0 += UINT64_C(0x9E3779B97F4A7C15);
            k1 += UINT64_C(0xBB67AE8584CAA73B);
        }
        out[i] = x0;
        out[n + i] = x1;
        out[2 * n + i] = x2;
        out[3 * n + i] = x3;
    }
}
"""
# The compile command; the source is read from stdin
_COMPILE = ("cc", "-O2", "-shared", "-fPIC")


def pack_stream_id(domain: int, level_code, index):
    """Pack a (domain, level, index) triple into one 64-bit stream id.

    Layout (fixed for format version 1): 4 domain bits, 8 level bits,
    52 index bits. Collision-free by construction for index < 2**52.
    ``level_code`` and ``index`` may also be integer arrays, which give a
    ``uint64`` id array, broadcast elementwise.
    """
    if not 0 <= domain < 16:
        raise ValueError(f"domain {domain} out of range [0, 16)")
    return (domain << 60) | (_field(level_code, 8, "level_code") << 52) | _field(index, 52, "index")


def _field(value, bits: int, name: str):
    """``value`` checked to lie in [0, 2**bits): an integer as a Python int,
    an integer array as ``uint64``, every element checked."""
    if isinstance(value, np.ndarray):
        if value.size and not (0 <= value.min() and value.max() < (1 << bits)):
            raise ValueError(f"{name} out of range [0, 2**{bits})")
        return value.astype(np.uint64)
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} {value} out of range [0, 2**{bits})")
    return operator.index(value)


class RandomStream:
    """One deterministic draw sequence, identified by (seed, stream_id).

    The ``counter`` attribute is the number of 64-bit words consumed so
    far; two streams with equal (seed, stream_id, counter) produce the
    same remaining sequence on any platform and worker count. ``counter``
    may be moved between reads; ``seed`` and ``stream_id`` are fixed for
    the stream's life.
    """

    __slots__ = ("seed", "stream_id", "counter", "_bit_gen", "_bit_gen_at")

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
        # numpy's Philox from the last read, and the counter it stands at
        self._bit_gen = None
        self._bit_gen_at = -1

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def raw_words(self, n: int) -> np.ndarray:
        """Return the next ``n`` raw 64-bit words and advance the counter.

        A read that starts where the last one ended continues its
        generator; one that starts elsewhere (``counter`` was moved)
        builds a new one there."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        if self._bit_gen_at != self.counter:
            start_block, offset = divmod(self.counter, _WORDS_PER_BLOCK)
            self._bit_gen = Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64),
                                   counter=start_block)
            if offset:
                self._bit_gen.random_raw(offset)
        words = self._bit_gen.random_raw(n)
        self.counter += n
        self._bit_gen_at = self.counter
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """Return ``n`` uniforms in (0, 1] using the versioned word mapping."""
        return words_to_uniforms(self.raw_words(n))


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
    words = blocks_per_region * _WORDS_PER_BLOCK
    stream = RandomStream(seed, stream_id, counter=first_region * words)
    return stream.raw_words(n_regions * words).reshape(n_regions, words)


def words_to_uniforms(words: np.ndarray) -> np.ndarray:
    """The versioned word -> (0, 1] mapping, elementwise."""
    return ((words >> _SHIFT) + _ONE) * _TWO_NEG53


def philox_blocks(seed: int, stream_ids: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Philox-4x64-10 of many (key, counter) pairs in one call.

    Row ``i`` of the ``(n, 4)`` result is the cipher of counter
    ``(blocks[i], 0, 0, 0)`` under key ``(seed, stream_ids[i])``: the four
    words ``numpy.random.Philox(key=[seed, stream_ids[i]],
    counter=blocks[i] - 1)`` emits first. It is the transposed view of a
    lane-major ``(4, n)`` array: each column is contiguous, and ``ravel()``
    copies it into row order. Counter words 1-3 are 0, so word 0 leaves
    round 0 as the seed: rounds 0 and 1 multiply one word each, not two.
    """
    if not 0 <= seed <= _U64_MASK:
        raise ValueError(f"seed {seed} is not a 64-bit unsigned integer")
    stream_ids = np.ascontiguousarray(stream_ids, dtype=np.uint64)
    blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
    if stream_ids.ndim != 1 or stream_ids.shape != blocks.shape:
        raise ValueError("stream_ids and blocks must be 1-d arrays of equal length")
    passes = [_philox_pass(seed, stream_ids[lo:lo + _CIPHER_PASS_BLOCKS],
                           blocks[lo:lo + _CIPHER_PASS_BLOCKS])
              for lo in range(0, len(stream_ids), _CIPHER_PASS_BLOCKS)]
    # one pass is returned as it is, more are copied once into one array
    lanes = passes[0] if len(passes) == 1 else np.concatenate(
        passes or [np.empty((_WORDS_PER_BLOCK, 0), dtype=np.uint64)], axis=1)
    return lanes.T


def _philox_pass(seed: int, stream_ids: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The lane-major ``(4, n)`` words of one pass of ``philox_blocks``
    over contiguous ``uint64`` arrays of equal length n: from the compiled
    kernel when it loaded, else from ``_philox_pass_numpy``."""
    kernel = _philox_kernel()
    if kernel is None:
        return _philox_pass_numpy(seed, stream_ids, blocks)
    out = np.empty((_WORDS_PER_BLOCK, len(stream_ids)), dtype=np.uint64)
    kernel(seed, stream_ids.ctypes.data, blocks.ctypes.data, out.ctypes.data, len(stream_ids))
    return out


@functools.cache
def _philox_kernel():
    """``_PHILOX_C``'s ``philox_pass`` as a ``ctypes`` function, or None
    where it cannot be built or loaded; the answer holds for the process.

    The library is ``philox-<hash>.so`` in the per-user cache directory,
    the hash taken over the source, the compile command and the platform
    tag. A cached library is loaded without compiling. A missing one is
    compiled into a temporary file beside it and renamed into place, so
    processes that compile at once each install a whole library. The
    directory is created 0700; a directory or library that is a link,
    that another user owns, or that its group or others may write is
    refused. A compile that takes over 60 s is given up."""
    import ctypes
    import hashlib
    import subprocess
    import sysconfig
    import tempfile

    if not hasattr(os, "geteuid"):  # no file owners to check the cache by
        return None
    key = "\0".join([_PHILOX_C, *_COMPILE, sysconfig.get_platform()])
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory: never a cache under the working directory
        return None
    directory = os.path.join(base, "cyberrisk")
    path = os.path.join(directory, f"philox-{hashlib.sha256(key.encode()).hexdigest()[:32]}.so")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _private(directory, stat.S_ISDIR):
            return None
        if not os.path.lexists(path):
            fd, temp = tempfile.mkstemp(prefix="philox-", suffix=".tmp", dir=directory)
            os.close(fd)
            try:
                subprocess.run([*_COMPILE, "-x", "c", "-", "-o", temp], input=_PHILOX_C.encode(),
                               capture_output=True, timeout=60, check=True)
                os.chmod(temp, 0o700)
                os.replace(temp, path)
            finally:
                if os.path.lexists(temp):
                    os.unlink(temp)
        if not _private(path, stat.S_ISREG):
            return None
        kernel = ctypes.CDLL(path).philox_pass
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    kernel.argtypes = [ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_int64]
    kernel.restype = None
    return kernel


def _private(path: str, is_kind) -> bool:
    """Whether ``path``, not followed if it is a link, passes ``is_kind``
    (``stat.S_ISDIR`` or ``stat.S_ISREG``), is owned by this process's
    user, and is not writable by its group or others."""
    info = os.lstat(path)
    return (is_kind(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _mulhi(m_lo, m_hi, x, x_lo, x_hi, low, mid) -> np.ndarray:
    """hi of m * x from the four 32x32-bit partial products: hi is built in
    x_hi's array and upper in low's, each once its first value is read."""
    np.bitwise_and(x, _LOW32, out=x_lo)
    np.right_shift(x, _HALF, out=x_hi)
    np.multiply(m_lo, x_lo, out=low)
    low >>= _HALF
    np.multiply(m_lo, x_hi, out=mid)
    mid += low
    upper = np.multiply(m_hi, x_lo, out=low)
    np.bitwise_and(mid, _LOW32, out=x_lo)
    upper += x_lo
    hi = np.multiply(m_hi, x_hi, out=x_hi)
    mid >>= _HALF
    hi += mid
    upper >>= _HALF
    hi += upper
    return hi


def _philox_pass_numpy(seed: int, stream_ids: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``_philox_pass`` in numpy ``uint64`` arithmetic: the reference for
    the compiled kernel, and the pass where none loads."""
    n = len(stream_ids)
    # the (4, n) result; x holds words (0, 2) and y words (1, 3), both in
    # that row order after an even number of rounds, swapped after an odd
    # one; y and lo swap 8 times, so round 9 writes lo into the result
    out = np.empty((_WORDS_PER_BLOCK, n), dtype=np.uint64)
    x, y = out[0::2], out[1::2]
    lo, x_lo, x_hi, low, mid = (np.empty((2, n), dtype=np.uint64) for _ in range(5))
    # key word 0 of each round, one (1,) row per round
    key0 = np.array([(seed + r * _PHILOX_W0) & _U64_MASK for r in range(_PHILOX_ROUNDS)],
                    dtype=np.uint64)[:, None]
    m, m_lo, m_hi = _PHILOX_MULTS[0]
    # Round 0: word 2 is 0, so only word 0 is multiplied; word 0 becomes
    # the seed and word 1 becomes 0. Word 3 is parked in x[1], word 2 in x[0].
    np.multiply(m[0], blocks, out=x[1])
    np.bitwise_xor(_mulhi(m_lo[0], m_hi[0], blocks, x_lo[0], x_hi[0], low[0], mid[0]), stream_ids,
                   out=x[0])
    # Round 1: word 0 is the seed, so its product is one Python int, whose
    # low half is the new word 3 and whose high half goes into word 2
    np.multiply(m[1], x[0], out=y[0])
    np.bitwise_xor(_mulhi(m_lo[1], m_hi[1], x[0], x_lo[0], x_hi[0], low[0], mid[0]), key0[1],
                   out=x[0])
    seed_hi, y[1] = divmod(int(m[0, 0]) * seed, 1 << 64)
    key1 = stream_ids + _PHILOX_W1
    x[1] ^= key1
    x[1] ^= seed_hi
    for r in range(2, _PHILOX_ROUNDS):
        key1 += _PHILOX_W1
        m, m_lo, m_hi = _PHILOX_MULTS[r & 1]
        hi = _mulhi(m_lo, m_hi, x, x_lo, x_hi, low, mid)
        np.multiply(m, x, out=lo)
        # new word 0 = hi(word 2) ^ word 1 ^ key 0, new word 2 = hi(word 0)
        # ^ word 3 ^ key 1, new words 1 and 3 = lo(word 2), lo(word 0)
        np.bitwise_xor(hi, y[::-1], out=x)
        x[1 - (r & 1)] ^= key0[r]
        x[r & 1] ^= key1
        y, lo = lo, y
    return out


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[i], starts[i] + lengths[i])``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def ragged_words(seed: int, stream_ids: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Words ``[starts[i], starts[i] + counts[i])`` of stream
    ``(seed, stream_ids[i])`` for every row ``i``, concatenated in row order."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    first = starts >> 2
    n_blocks = np.where(counts > 0, ((starts + counts - 1) >> 2) - first + 1, 0)
    block_row = np.repeat(np.arange(len(counts)), n_blocks)
    blocks = philox_blocks(seed, np.asarray(stream_ids, dtype=np.uint64)[block_row],
                           ragged_ranges(first + 1, n_blocks))
    if not (starts & 3).any() and not (counts & 3).any():
        return blocks.ravel()  # whole blocks from a block's first word: the words in row order
    # word w of the n blocks in row order is lane w & 3 of block w >> 2,
    # which the lane-major array ``blocks.T`` holds at (w & 3) * n + (w >> 2)
    word = ragged_ranges(4 * (np.cumsum(n_blocks) - n_blocks) + (starts & 3), counts)
    return blocks.T.ravel()[(word & 3) * len(blocks) + (word >> 2)]


class RaggedStreams:
    """Many streams read side by side, one row each.

    Row ``i`` is the stream ``(seed, stream_ids[i])`` from word 0 on, and
    ``counter[i]`` counts the words it has consumed. Each read returns the
    same words a ``RandomStream`` of that row would. The first
    ``prefix[i]`` words of every row (none when ``prefix`` is not given)
    are read in one cipher call as the rows are built; a read that does
    not lie inside a row's prefix goes to the cipher again, one call for
    all such rows.
    """

    __slots__ = ("seed", "stream_ids", "counter", "_prefix", "_buffered", "_first")

    def __init__(self, seed: int, stream_ids: np.ndarray, prefix: np.ndarray | None = None):
        self.seed = seed
        self.stream_ids = np.asarray(stream_ids, dtype=np.uint64)
        self.counter = np.zeros(len(self.stream_ids), dtype=np.int64)
        self._buffered = (np.zeros_like(self.counter) if prefix is None
                          else np.asarray(prefix, dtype=np.int64))
        if self._buffered.any():
            self._first = np.cumsum(self._buffered) - self._buffered
            self._prefix = ragged_words(seed, self.stream_ids, self.counter, self._buffered)

    def raw_words(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The next ``counts[j]`` words of each row ``rows[j]``,
        concatenated in the order of ``rows``; advances those rows."""
        start = self.counter[rows]
        end = self.counter[rows] = start + counts
        limit = self._buffered[rows]
        late = (start >= limit) | (end > limit)
        if late.all():
            return ragged_words(self.seed, self.stream_ids[rows], start, counts)
        in_prefix = np.repeat(~late, counts)
        words = np.empty(len(in_prefix), dtype=np.uint64)
        words[in_prefix] = self._prefix[ragged_ranges(self._first[rows] + start, counts)[in_prefix]]
        if late.any():
            words[~in_prefix] = ragged_words(self.seed, self.stream_ids[rows[late]],
                                             start[late], counts[late])
        return words
