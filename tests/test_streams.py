"""Stream determinism and counter semantics."""

import subprocess
import sys

import numpy as np
import pytest

from numpy.random import Philox

from cyberrisk.streams import (
    RaggedStreams,
    RandomStream,
    chunk_words,
    derive_stream,
    pack_stream_id,
    philox_blocks,
    ragged_words,
    row_positions,
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


def test_ragged_words_equal_per_row_reads():
    rng = np.random.default_rng(11)
    n = 60
    ids = _random_u64(rng, n)
    starts = rng.integers(0, 40, size=n)
    starts[:4] = [0, 3, 4, 2 ** 40 + 1]       # offsets that straddle blocks
    counts = rng.integers(0, 14, size=n)
    counts[4:8] = 0                           # zero-length rows
    flat = ragged_words(5, ids, starts, counts)
    assert len(flat) == counts.sum()
    pieces = np.split(flat, np.cumsum(counts)[:-1])
    for sid, start, count, piece in zip(ids, starts, counts, pieces):
        assert np.array_equal(piece, RandomStream(5, int(sid), int(start)).raw_words(int(count)))
    assert len(ragged_words(5, ids[:0], starts[:0], counts[:0])) == 0


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
    rows = np.arange(3)
    counts = np.array([2, 0, 5])
    assert np.array_equal(RaggedStreams(8, ids[:3]).uniforms(rows, counts),
                          words_to_uniforms(RaggedStreams(8, ids[:3]).raw_words(rows, counts)))


def test_row_positions():
    assert list(row_positions(np.array([3, 0, 1, 2]))) == [0, 1, 2, 0, 0, 1]
    assert len(row_positions(np.array([], dtype=np.int64))) == 0
