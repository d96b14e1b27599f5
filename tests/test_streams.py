"""Stream determinism and counter semantics."""

import subprocess
import sys

import numpy as np
import pytest

from numpy.random import Philox
import cyberrisk.streams as streams

from cyberrisk.streams import (
    RaggedStreams,
    RandomStream,
    chunk_words,
    derive_stream,
    pack_stream_id,
    philox_blocks,
    ragged_ranges,
    ragged_words,
    words_to_uniforms,
)


def test_same_key_same_bytes():
    a = derive_stream(42, 0).raw_words(10)
    b = derive_stream(42, 0).raw_words(10)
    assert np.array_equal(a, b)


def test_same_key_same_bytes_across_processes():
    code = (
        "from cyberrisk.streams import derive_stream;"
        "print(','.join(map(str, derive_stream(42, 0).raw_words(10))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    child = np.array([int(x) for x in out.stdout.strip().split(",")], dtype=np.uint64)
    assert np.array_equal(child, derive_stream(42, 0).raw_words(10))


def test_distinct_stream_ids_differ():
    a = derive_stream(42, 0).raw_words(1)[0]
    b = derive_stream(42, 1).raw_words(1)[0]
    assert a != b


def test_counter_skip_matches_advanced_stream():
    advanced = derive_stream(42, 7)
    advanced.raw_words(5)
    fresh = derive_stream(42, 7)
    fresh.raw_words(5)
    assert advanced.raw_words(1)[0] == fresh.raw_words(1)[0]

    # explicit counter construction addresses the same position
    positioned = RandomStream(42, 7, counter=5)
    assert positioned.raw_words(1)[0] == derive_stream(42, 7).raw_words(6)[5]


def test_reads_are_size_invariant():
    whole = derive_stream(9, 3).raw_words(40)
    s = derive_stream(9, 3)
    pieces = np.concatenate([s.raw_words(1), s.raw_words(7), s.raw_words(2), s.raw_words(30)])
    assert np.array_equal(whole, pieces)


def test_interleaved_reads_equal_fresh_stream_reads():
    """Two streams read in turn, the counter moved forward and back
    between some reads: every read equals a fresh stream's read from the
    same counter, whether the stream continues its generator or builds a
    new one."""
    pair = [RandomStream(9, 3), RandomStream(9, pack_stream_id(5, 2, 11), counter=6)]
    steps = [(1, None), (3, None), (5, None), (65_537, None), (1, 70_001), (3, 2),
             (5, None), (65_537, 4), (1, None), (3, 65_541), (5, 0), (1, None)]
    for n, move in steps:
        for stream in pair:
            if move is not None:
                stream.counter = move
            start = stream.counter
            words = stream.raw_words(n)
            assert stream.counter == start + n
            assert np.array_equal(words, RandomStream(9, stream.stream_id, start).raw_words(n))


def test_uniforms_open_closed_interval():
    u = derive_stream(1, 1).uniforms(100_000)
    assert (u > 0).all() and (u <= 1).all()
    # mapping is the documented (w >> 11 + 1) * 2^-53
    w = derive_stream(1, 1).raw_words(4)
    expect = ((w >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    assert np.array_equal(derive_stream(1, 1).uniforms(4), expect)


def test_chunk_words_matches_region_reads():
    seed, sid, bpr = 13, pack_stream_id(1, 2, 0), 8
    bulk = chunk_words(seed, sid, first_region=3, n_regions=5, blocks_per_region=bpr)
    for i in range(5):
        region_stream = RandomStream(seed, sid, counter=(3 + i) * bpr * 4)
        assert np.array_equal(bulk[i], region_stream.raw_words(bpr * 4))


def test_words_to_uniforms_matches_stream_uniforms():
    w = derive_stream(5, 5).raw_words(16)
    assert np.array_equal(words_to_uniforms(w), derive_stream(5, 5).uniforms(16))


def test_pack_stream_id_layout():
    assert pack_stream_id(0, 0, 0) == 0
    assert pack_stream_id(1, 0, 0) == 1 << 60
    assert pack_stream_id(0, 1, 0) == 1 << 52
    assert pack_stream_id(0, 0, 1) == 1
    # distinct triples map to distinct ids
    ids = {pack_stream_id(d, l, i) for d in (0, 1, 2) for l in (0, 1, 4) for i in (0, 1, 99)}
    assert len(ids) == 27
    with pytest.raises(ValueError):
        pack_stream_id(16, 0, 0)
    with pytest.raises(ValueError):
        pack_stream_id(0, 0, 1 << 52)


def test_invalid_stream_arguments():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(0, 2 ** 64)
    with pytest.raises(ValueError):
        RandomStream(0, 0, counter=-1)


def test_pack_stream_id_arrays_match_scalars():
    index = np.array([0, 1, 77, (1 << 52) - 1])
    ids = pack_stream_id(6, 3, index)
    assert ids.dtype == np.uint64
    assert [int(x) for x in ids] == [pack_stream_id(6, 3, int(i)) for i in index]
    with pytest.raises(ValueError):
        pack_stream_id(6, 3, np.array([1 << 52]))


def test_pack_stream_id_level_code_arrays_match_scalars():
    codes = np.arange(256)
    index = np.array([0, 1, 77, 2 ** 40 + 3, (1 << 52) - 1])
    every_code = np.repeat(codes, len(index))
    every_index = np.tile(index, len(codes))
    for code_dtype in (np.uint8, np.int64):
        ids = pack_stream_id(9, every_code.astype(code_dtype), every_index)
        assert ids.dtype == np.uint64
        assert [int(x) for x in ids] == [pack_stream_id(9, int(c), int(i))
                                         for c, i in zip(every_code, every_index)]
    # a scalar on either side is taken for every element
    assert [int(x) for x in pack_stream_id(2, codes, 5)] == [pack_stream_id(2, int(c), 5)
                                                             for c in codes]
    assert [int(x) for x in pack_stream_id(2, np.uint8(7), index)] == [pack_stream_id(2, 7, int(i))
                                                                       for i in index]
    assert [int(x) for x in pack_stream_id(2, 7, index)] == [pack_stream_id(2, 7, int(i))
                                                             for i in index]
    empty = np.array([], dtype=np.int64)
    for code, idx in ((empty, empty), (empty, 0), (3, empty)):
        ids = pack_stream_id(2, code, idx)
        assert ids.dtype == np.uint64 and ids.shape == (0,)
    for code, idx in ((np.array([-1]), 0), (np.array([256]), 0), (np.array([0, 255, 256]), index[:3]),
                      (np.array([3]), np.array([1 << 52])), (0, np.array([-1])), (-1, index),
                      (256, index)):
        with pytest.raises(ValueError):
            pack_stream_id(2, code, idx)


def _random_u64(rng, size):
    return rng.integers(0, 2 ** 64, size=size, dtype=np.uint64, endpoint=False)


def test_philox_blocks_equal_numpy_philox():
    """Word i of a stream is lane i % 4 of the cipher of block i // 4 + 1."""
    rng = np.random.default_rng(2024)
    seeds = [0, 1, 2 ** 63, 2 ** 64 - 1] + [int(x) for x in _random_u64(rng, 6)]
    for seed in seeds:
        ids = np.concatenate([np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
                              _random_u64(rng, 5)])
        counters = np.concatenate([np.array([0, 2 ** 63, 2 ** 64 - 3], dtype=np.uint64),
                                   _random_u64(rng, 5) >> np.uint64(1)])
        got = philox_blocks(seed, np.repeat(ids, 2),
                            np.repeat(counters, 2) + np.tile(np.array([1, 2], dtype=np.uint64), 8))
        for i, (sid, counter) in enumerate(zip(ids, counters)):
            bit_gen = Philox(key=np.array([seed, sid], dtype=np.uint64), counter=int(counter))
            assert np.array_equal(got[2 * i:2 * i + 2].ravel(), bit_gen.random_raw(8))


def test_philox_blocks_spanning_several_passes():
    rng = np.random.default_rng(7)
    n = 20_000
    ids = _random_u64(rng, n)
    blocks = _random_u64(rng, n) >> np.uint64(2)
    got = philox_blocks(99, ids, blocks)
    for i in list(rng.integers(0, n, 25)) + [0, n - 1]:
        bit_gen = Philox(key=np.array([99, ids[i]], dtype=np.uint64), counter=int(blocks[i]) - 1)
        assert np.array_equal(got[i], bit_gen.random_raw(4))


# Philox-4x64 Weyl key increments (Salmon et al. 2011)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def test_philox_blocks_where_keys_and_counters_wrap():
    """Round r's key is (seed + r W0, id + r W1) mod 2**64: seeds and ids
    that wrap past 2**64 in some round, and the counters 0 and 2**64 - 1,
    which numpy's Philox emits after counters 2**256 - 1 and 2**64 - 2."""
    ids = np.array([0, 2 ** 64 - 1, 2 ** 64 - _W1, 2 ** 63 + 5], dtype=np.uint64)
    blocks = np.array([0, 1, 2 ** 64 - 1, 2 ** 64 - 2], dtype=np.uint64)
    for seed in (0, 2 ** 64 - 1, 2 ** 64 - _W0, (2 ** 64 - 3 * _W0) % 2 ** 64):
        got = philox_blocks(seed, np.repeat(ids, len(blocks)), np.tile(blocks, len(ids)))
        for row, (sid, block) in enumerate((sid, block) for sid in ids for block in blocks):
            bit_gen = Philox(key=np.array([seed, sid], dtype=np.uint64),
                             counter=(int(block) - 1) % 2 ** 256)
            assert np.array_equal(got[row], bit_gen.random_raw(4)), (seed, sid, block)


@pytest.mark.parametrize("n", [0, 1, streams._CIPHER_PASS_BLOCKS, streams._CIPHER_PASS_BLOCKS + 1,
                               2 * streams._CIPHER_PASS_BLOCKS + 1])
def test_philox_blocks_pass_sizes(n):
    """Every row of a call of n rows, over zero to three passes, equals
    numpy's Philox, and every column of the result is contiguous: the
    engine reads them as arrays of their own."""
    ids = np.array([2 ** 64 - 1, 7, 2 ** 64 - _W1], dtype=np.uint64)
    rows = np.arange(n)
    # row i is block i // 3 + 1 of stream ids[i % 3], so each stream's rows
    # are its first blocks in order
    got = philox_blocks(2 ** 64 - _W0, ids[rows % 3], rows // 3 + 1)
    assert got.shape == (n, 4) and got.dtype == np.uint64
    assert all(got[:, lane].flags.c_contiguous for lane in range(4))
    for k, sid in enumerate(ids):
        bit_gen = Philox(key=np.array([2 ** 64 - _W0, sid], dtype=np.uint64))
        assert np.array_equal(got[k::3].ravel(), bit_gen.random_raw(4 * len(rows[k::3])))


def test_ragged_words_equal_per_row_reads():
    rng = np.random.default_rng(11)
    n = 60
    ids = _random_u64(rng, n)
    starts = rng.integers(0, 40, size=n)
    starts[:6] = [0, 3, 4, 2 ** 40 + 1, 3, 2]  # offsets that straddle blocks
    counts = rng.integers(0, 14, size=n)
    counts[4:6] = [9, 14]                     # mid-block rows across two block boundaries
    counts[6:10] = 0                          # zero-length rows
    assert (counts % 4).any()
    # then every row from a block's first word
    for row_starts in (starts, 4 * starts):
        flat = ragged_words(5, ids, row_starts, counts)
        assert len(flat) == counts.sum()
        pieces = np.split(flat, np.cumsum(counts)[:-1])
        for sid, start, count, piece in zip(ids, row_starts, counts, pieces):
            assert np.array_equal(piece, RandomStream(5, int(sid), int(start)).raw_words(int(count)))
    assert len(ragged_words(5, ids[:0], starts[:0], counts[:0])) == 0
    # one read of more than 8,192 blocks, so a row crosses a cipher pass
    starts, counts = np.array([1, 6, 2]), np.array([3, 4 * 8192 + 11, 5])
    flat = ragged_words(5, ids[:3], starts, counts)
    for sid, start, count, piece in zip(ids, starts, counts, np.split(flat, np.cumsum(counts)[:-1])):
        assert np.array_equal(piece, RandomStream(5, int(sid), int(start)).raw_words(int(count)))


def test_ragged_streams_follow_each_row_stream():
    rng = np.random.default_rng(12)
    n = 30
    ids = _random_u64(rng, n)
    for prefix in (None, rng.integers(0, 12, size=n)):
        batch = RaggedStreams(8, ids, prefix)
        singles = [RandomStream(8, int(sid)) for sid in ids]
        for _ in range(12):
            rows = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            counts = rng.integers(0, 7, size=len(rows))
            expect = [singles[r].raw_words(int(c)) for r, c in zip(rows, counts)]
            assert np.array_equal(batch.raw_words(rows, counts), np.concatenate(expect))
        assert [int(c) for c in batch.counter] == [s.counter for s in singles]


def test_ragged_streams_without_prefix_read_only_on_request(monkeypatch):
    # built without a prefix, the rows read nothing until asked, and each
    # read is one cipher call over the rows asked for
    calls = []
    real = streams.ragged_words
    monkeypatch.setattr(streams, "ragged_words", lambda *args: calls.append(args[3]) or real(*args))
    ids = np.arange(5, dtype=np.uint64)
    batch = RaggedStreams(8, ids)
    assert calls == []
    words = batch.raw_words(np.array([1, 3]), np.array([0, 6]))
    assert np.array_equal(words, RandomStream(8, 3).raw_words(6))
    assert [list(counts) for counts in calls] == [[0, 6]]
    assert list(batch.counter) == [0, 0, 0, 6, 0]


def test_ragged_ranges():
    lengths = np.array([3, 0, 1, 2])
    assert list(ragged_ranges(np.zeros(4, dtype=np.int64), lengths)) == [0, 1, 2, 0, 0, 1]
    # nonzero and decreasing starts, and a zero length between them
    assert list(ragged_ranges(np.array([10, 7, 5, 0]), lengths)) == [10, 11, 12, 5, 0, 1]
    assert list(ragged_ranges(np.array([9, 4]), np.array([0, 0]))) == []
    empty = np.array([], dtype=np.int64)
    assert len(ragged_ranges(empty, empty)) == 0
