import numpy as np
import pytest

from ambigil.rng import SplitMix64, mix64, substream


def test_reference_sequence_seed_zero():
    # canonical splitmix64 outputs for seed 0
    s = SplitMix64(0)
    assert s.next_u64() == 0xE220A8397B1DCDAF
    assert s.next_u64() == 0x6E789E6AA1B965F4
    assert s.next_u64() == 0x06C45D188009454F


def test_uniform_range_and_determinism():
    s1 = SplitMix64(99)
    s2 = SplitMix64(99)
    us = [s1.uniform() for _ in range(1000)]
    assert us == [s2.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(sum(us) / len(us) - 0.5) < 0.05


def test_randint():
    s = SplitMix64(5)
    draws = [s.randint(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        s.randint(0)


def test_substreams_differ_and_replay():
    a = [substream(42, 0).next_u64() for _ in range(4)]
    b = [substream(42, 1).next_u64() for _ in range(4)]
    assert a != b
    assert a == [substream(42, 0).next_u64() for _ in range(4)]
    with pytest.raises(ValueError):
        substream(42, -1)


def test_mix64_masks_to_64_bits():
    assert 0 <= mix64(2 ** 70 + 123) < 2 ** 64


def test_mix64_array_matches_scalar_and_leaves_input():
    a = np.random.default_rng(3).integers(0, 2 ** 64, size=(4, 5), dtype=np.uint64)
    a[0, :3] = [0, 2 ** 64 - 1, 2 ** 63]
    before = a.copy()
    out = mix64(a)
    assert out.dtype == np.uint64 and out.shape == a.shape
    assert out.tolist() == [[mix64(int(v)) for v in row] for row in before.tolist()]
    assert np.array_equal(a, before)  # the caller's array is never written


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_array_stream_matches_scalar_streams(seed):
    # indices 0..3, then six where mix64(seed) + i wraps past 2**64; mix64(0)
    # is 0, so seed 0 cannot wrap and takes the six largest indices instead
    start = min(2 ** 64 - mix64(seed) - 3, 2 ** 64 - 6)
    idx = np.array(list(range(4)) + [start + i for i in range(6)], dtype=np.uint64)
    assert any(mix64(seed) + int(i) >= 2 ** 64 for i in idx) == (seed != 0)
    before = idx.copy()
    row = substream(seed, idx)
    scalars = [substream(seed, int(i)) for i in idx]
    for _ in range(3):
        assert row.next_u64().tolist() == [s.next_u64() for s in scalars]
        u = row.uniform()
        assert u.dtype == np.float64
        assert u.tolist() == [s.uniform() for s in scalars]
    assert np.array_equal(idx, before)  # the caller's array is never written
    assert np.array_equal(substream(seed, idx[:4].astype(np.int64)).next_u64(),
                          substream(seed, idx[:4]).next_u64())


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_uniform_rows_match_successive_uniforms(seed):
    # the index rows of test_array_stream_matches_scalar_streams, counters
    # wrapping past 2**64; a block of k rows is k uniform() rows, and leaves
    # the stream where k calls would
    start = min(2 ** 64 - mix64(seed) - 3, 2 ** 64 - 6)
    idx = np.array(list(range(4)) + [start + i for i in range(6)], dtype=np.uint64)
    for k in (1, 2, 7):
        block, rows = substream(seed, idx), substream(seed, idx)
        block.next_u64(), rows.next_u64()
        got = block.uniform_rows(k)
        assert got.shape == (k, len(idx)) and got.dtype == np.float64
        assert got.tolist() == [rows.uniform().tolist() for _ in range(k)]
        assert block.next_u64().tolist() == rows.next_u64().tolist()
        scalars = [substream(seed, int(i)) for i in idx]
        assert substream(seed, idx).uniform_rows(k).T.tolist() == [
            [s.uniform() for _ in range(k)] for s in scalars]
    # raw counters: the last two wrap past 2**64 on the first and second draw
    state = np.array([0, 12345, 2 ** 64 - 1, 2 ** 64 - 2 ** 62], dtype=np.uint64)
    before = state.copy()
    stream = SplitMix64(state)
    stream.uniform_rows(5)
    stream.uniform_rows(3)
    assert np.array_equal(state, before)  # the caller's array is never written
    scalars = [SplitMix64(int(s)) for s in before]
    for s in scalars:
        for _ in range(8):
            s.next_u64()
    assert stream.next_u64().tolist() == [s.next_u64() for s in scalars]


def test_uniform_rows_checks():
    with pytest.raises(ValueError, match="row stream"):
        SplitMix64(5).uniform_rows(2)
    with pytest.raises(ValueError, match="k >= 1"):
        substream(5, np.arange(3)).uniform_rows(0)


def test_substream_index_checks():
    with pytest.raises(ValueError, match="nonnegative"):
        substream(7, np.array([0, -1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="nonnegative"):
        substream(7, -1)
    with pytest.raises(ValueError, match="1-D integers"):
        substream(7, np.zeros((2, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="1-D integers"):
        substream(7, np.array([0.0, 1.0]))
    # a NumPy integer scalar index gives the Python-int stream
    assert substream(7, np.int64(3)).next_u64() == substream(7, 3).next_u64()
    assert type(substream(7, np.uint64(3)).next_u64()) is int
