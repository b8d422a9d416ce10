import hashlib
import re

import numpy as np
import pytest

from ctxbias import rng


def _grid_cells(rows, cols) -> np.ndarray:
    """The composed grid index ``row * 2**32 + col`` of the cells rows x cols,
    kept as the oracle for the fields' grid form."""
    rows = np.asarray(rows, dtype=np.uint64)[:, None]
    cols = np.asarray(cols, dtype=np.uint64)[None, :]
    return rows * np.uint64(1 << 32) + cols


def _grid_index(n_rows: int, n_cols: int) -> np.ndarray:
    return _grid_cells(np.arange(n_rows), np.arange(n_cols))


def test_stream_key_is_deterministic():
    a = rng.stream_key(7, "noise", 3)
    b = rng.stream_key(7, "noise", 3)
    assert a == b
    assert a != rng.stream_key(7, "noise", 4)
    assert a != rng.stream_key(8, "noise", 3)
    assert rng.stream_key("alpha") != rng.stream_key("beta")


def test_uniform_field_range_and_shape():
    key = rng.stream_key(1, "u")
    idx = _grid_index(64, 128)
    u = rng.uniform_field(key, idx)
    assert u.shape == (64, 128)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # mean of 8k draws should sit near 1/2
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_field_composition_independence():
    # a cell's value depends only on (key, index), not on the grid it sits in
    key = rng.stream_key(5, "iso")
    small = rng.uniform_field(key, _grid_index(10, 20))
    big = rng.uniform_field(key, _grid_index(40, 80))
    assert np.array_equal(small, big[:10, :20])


def test_uniform_field_distinct_keys_decorrelate():
    idx = _grid_index(50, 50)
    a = rng.uniform_field(rng.stream_key(1, "x"), idx)
    b = rng.uniform_field(rng.stream_key(2, "x"), idx)
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(corr) < 0.1


def test_normal_field_moments():
    key = rng.stream_key(3, "z")
    z = rng.normal_field(key, np.arange(200_000, dtype=np.uint64))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_grid_index_row_major_uniqueness():
    idx = _grid_index(7, 9)
    assert idx.shape == (7, 9)
    assert len(np.unique(idx)) == 63
    assert idx.dtype == np.uint64
    # the grid form draws at exactly these indices, cell by cell
    key = rng.stream_key(4, "grid")
    u = rng.uniform_field(key, np.arange(7), np.arange(9))
    want = [[rng.uniform_field(key, int(i) * 2**32 + int(j)) for j in range(9)] for i in range(7)]
    assert u.shape == (7, 9) and np.array_equal(u, want)


# -- the numpy-scalar implementation, kept as the bit-level oracle -----------

_R_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_R_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_R_MIX2 = np.uint64(0x94D049BB133111EB)
_R_U53 = np.float64(1.0 / (1 << 53))


def _ref_mix(x):
    x = (x + _R_GOLDEN).astype(np.uint64) if isinstance(x, np.ndarray) else np.uint64(x + _R_GOLDEN)
    x = x ^ (x >> np.uint64(30))
    x = x * _R_MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _R_MIX2
    return x ^ (x >> np.uint64(31))


def _ref_part(part):
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return np.uint64(int.from_bytes(digest, "little"))
    return np.uint64(np.int64(part).view(np.uint64))


def _ref_stream_key(*parts):
    acc = np.uint64(0x6A09E667F3BCC908)
    with np.errstate(over="ignore"):
        for part in parts:
            acc = _ref_mix(acc ^ _ref_part(part))
    return acc


def _ref_uniform_field(key, index):
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _ref_mix(idx * _R_GOLDEN ^ key)
    return ((h >> np.uint64(11)).astype(np.float64)) * _R_U53


def _ref_normal_field(key, index):
    with np.errstate(over="ignore"):
        k1 = _ref_mix(key ^ np.uint64(0x9E3779B97F4A7C15))
        k2 = _ref_mix(key ^ np.uint64(0xC2B2AE3D27D4EB4F))
    u1 = _ref_uniform_field(k1, index)
    u2 = _ref_uniform_field(k2, index)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stream_key_matches_reference():
    gen = np.random.default_rng(11)
    cases = [(), (0,), (7, "noise", 3), (-1,), (-5, "qphr", "utt0007"), ("",), ("ü",),
             (2**63 - 1,), (-(2**63),), (True,), (np.int64(-3), "x"), (np.uint64(2**63 + 5),),
             (np.int32(9),)]
    cases += [tuple(int(p) for p in gen.integers(-(2**63), 2**63 - 1, size=3)) for _ in range(50)]
    for parts in cases:
        key = rng.stream_key(*parts)
        assert type(key) is np.uint64
        assert key == _ref_stream_key(*parts), parts


def test_stream_key_rejects_parts_outside_int64_like_reference():
    for part in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(OverflowError):
            _ref_stream_key(part)
        with pytest.raises(OverflowError):
            rng.stream_key(7, part)


@pytest.mark.parametrize("part", [1.5, np.float64(2.7), 2.0, None, b"7"])
def test_stream_key_rejects_a_part_that_is_no_str_or_integer(part):
    # a float seed once folded to its truncation: 1.5 drew seed 1's stream
    with pytest.raises(TypeError, match=re.escape(repr(part))):
        rng.stream_key(7, part)


def test_fields_match_reference_bit_for_bit():
    gen = np.random.default_rng(12)
    indices = [
        np.uint64(5),
        np.array(7, dtype=np.uint64),
        np.array([], dtype=np.uint64),
        np.zeros((0, 4), dtype=np.uint64),
        [1, 2, 3],
        3,
        np.arange(40),
        gen.integers(0, 2**64, size=(17, 33), dtype=np.uint64),
        np.array([2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
        _grid_index(16, 1196),
        _grid_index(5, 9) + np.uint64(2**32),  # rows shifted by one
        _grid_index(3, 7)[:, ::2],  # non-contiguous
    ]
    keys = [rng.stream_key(1, "u"), np.uint64(0), np.uint64(2**64 - 1)]
    keys += [np.uint64(k) for k in gen.integers(0, 2**64, size=12, dtype=np.uint64)]
    for key in keys:
        for index in indices:
            for fast, ref in ((rng.uniform_field, _ref_uniform_field),
                              (rng.normal_field, _ref_normal_field)):
                got, want = fast(key, index), ref(key, index)
                assert type(got) is type(want), (fast.__name__, type(index))
                assert _same_bits(got, want), (fast.__name__, key, index)


def test_grid_cells_are_the_grid_index_sub_block():
    full = _grid_index(9, 30)
    rows, cols = np.meshgrid(np.arange(9), np.arange(30), indexing="ij")
    assert np.array_equal(full, rows.astype(np.uint64) * np.uint64(2**32) + cols.astype(np.uint64))
    rows, cols = np.arange(2, 7), np.array([0, 3, 4, 29])
    key = rng.stream_key(5, "block")
    for field in (rng.uniform_field, rng.normal_field):
        full = field(key, np.arange(9), np.arange(30))
        assert _same_bits(field(key, rows, cols), full[2:7][:, cols])


def test_grid_fields_match_reference_bit_for_bit():
    """The grid form, ``field(key, rows, cols)``, on the shapes the scorer
    draws, against the reference fields over the composed index."""
    gen = np.random.default_rng(14)
    grids = [
        (np.arange(16), np.arange(1196)),  # the phrase jitter at M=1196
        (np.arange(3), np.arange(7)),
        (np.arange(1), np.arange(1)),
        (np.array([1, 4, 5, 11]), np.arange(82)),  # confused token rows x vocabulary
        (np.arange(6, 9), np.array([2, 17, 40, 41, 600, 1195])),  # span rows x sharers
        (np.arange(0), np.arange(5)),
        ([2**32 - 1, 2**32 + 3], [0, 2**32 - 1, 2**40]),  # wrapping rows and columns
        (gen.integers(0, 2**64, size=5, dtype=np.uint64),
         gen.integers(0, 2**64, size=9, dtype=np.uint64)),
    ]
    keys = [rng.stream_key(0, "qphr", "utt0001"), np.uint64(0), np.uint64(2**64 - 1)]
    keys += [np.uint64(k) for k in gen.integers(0, 2**64, size=4, dtype=np.uint64)]
    for key in keys:
        for rows, cols in grids:
            index = _grid_cells(rows, cols)
            for fast, ref in ((rng.uniform_field, _ref_uniform_field),
                              (rng.normal_field, _ref_normal_field)):
                got = fast(key, rows, cols)
                assert _same_bits(got, ref(key, index)), (fast.__name__, key, len(rows))
                assert got.flags.c_contiguous


def test_normal_field_rows_are_the_documented_uniform_streams():
    """The two uniform streams a normal draw fuses into one buffer are each
    exactly what ``uniform_field`` gives under its sub-key."""
    gen = np.random.default_rng(13)
    indices = [np.uint64(9), np.arange(18, dtype=np.uint64), _grid_index(16, 51),
               _grid_cells([2, 5], np.arange(82)), np.zeros((0, 3), dtype=np.uint64)]
    for key in [rng.stream_key(0, "qphr", "utt0001"), np.uint64(2**64 - 1),
                *gen.integers(0, 2**64, size=5, dtype=np.uint64)]:
        k1 = np.uint64(rng._mix_int(int(key) ^ rng._NORMAL_K1))
        k2 = np.uint64(rng._mix_int(int(key) ^ rng._NORMAL_K2))
        for index in indices:
            u1, u2 = rng.uniform_field(k1, index), rng.uniform_field(k2, index)
            want = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
            assert _same_bits(rng.normal_field(key, index), want)


def test_stream_key_string_cache_changes_no_key():
    parts = [(7, "noise", 3), (0, "qphr", "utt0001"), (0, "qtok", "utt0001"), ("ü", ""),
             (-5, "qphr", "utt0007")]
    rng._str_to_int.cache_clear()
    cold = [rng.stream_key(*p) for p in parts]
    warm = [rng.stream_key(*p) for p in parts]
    assert rng._str_to_int.cache_info().hits >= 7
    assert cold == warm == [_ref_stream_key(*p) for p in parts]
    # a str subclass folds like the plain string
    assert rng.stream_key(np.str_("qphr"), 2) == rng.stream_key("qphr", 2)
