"""Deterministic counter-based random fields.

Every noise value used by the synthetic scorer bank is a pure function of
(seed, stream tag, entity index). Drawing a value for one entity never
advances shared generator state, which is what makes group scoring
independent of group composition and keeps outputs bit-reproducible when
the same entities are scored in a different order or subset.

The field values are a bit-level contract: keys fold their parts through
splitmix64 steps, a uniform is the top 53 bits of the splitmix64 finalizer
of ``index * GOLDEN ^ key`` scaled by 2**-53, and a normal is Box-Muller
over two uniform streams. Any rewrite must reproduce these bits exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 1.0 / (1 << 53)
# the two sub-stream keys of a normal draw
_NORMAL_K1 = 0x9E3779B97F4A7C15
_NORMAL_K2 = 0xC2B2AE3D27D4EB4F


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2**64)."""
    x = (x + _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix_inplace(h: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 buffer, in place, with ``tmp`` (same
    shape) as scratch; uint64 arithmetic wraps by design."""
    h += np.uint64(_GOLDEN)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(30), out=tmp), out=h)
    h *= np.uint64(_MIX1)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(27), out=tmp), out=h)
    h *= np.uint64(_MIX2)
    np.bitwise_xor(h, np.right_shift(h, np.uint64(31), out=tmp), out=h)


def _part_to_int(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if isinstance(part, int):
        # negative seeds allowed; reinterpret as two's complement
        if not -(1 << 63) <= part < 1 << 63:
            raise OverflowError(f"stream key part {part} does not fit in int64")
        return part & _MASK
    return int(np.int64(part).view(np.uint64))


def stream_key(*parts: int | str) -> np.uint64:
    """Fold seed/tag/id parts into a single 64-bit stream key."""
    acc = 0x6A09E667F3BCC908
    for part in parts:
        acc = _mix_int(acc ^ _part_to_int(part))
    return np.uint64(acc)


def _golden_index(index) -> np.ndarray:
    """``index * GOLDEN`` as a fresh uint64 array (0-d for a scalar index)."""
    idx = np.asarray(index, dtype=np.uint64)
    return np.multiply(idx, np.uint64(_GOLDEN), out=np.empty(idx.shape, np.uint64))


def _to_uniform(h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Uniforms from a fresh buffer of ``index * GOLDEN ^ key``, in place."""
    _mix_inplace(h, tmp)
    h >>= np.uint64(11)
    # below 2**53 every value converts exactly, and int64 converts faster
    out = h.view(np.float64)
    np.multiply(h.view(np.int64), _U53, out=out)
    return out


def uniform_field(key: np.uint64, index: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) values addressed by integer index under a stream key."""
    h = _golden_index(index)
    h ^= np.uint64(key)
    # a 0-d index gives a scalar, as numpy's scalar arithmetic does
    return _to_uniform(h, np.empty_like(h))[()]


def normal_field(key: np.uint64, index: np.ndarray) -> np.ndarray:
    """Standard normal values addressed by integer index (Box-Muller)."""
    key = int(key)
    golden = _golden_index(index)
    tmp = np.empty_like(golden)
    k1 = np.uint64(_mix_int(key ^ _NORMAL_K1))
    u1 = _to_uniform(np.bitwise_xor(golden, k1, out=np.empty_like(golden)), tmp)
    golden ^= np.uint64(_mix_int(key ^ _NORMAL_K2))
    u2 = _to_uniform(golden, tmp)
    # 1 - u1 lies in (0, 1], so the log is finite
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1[()]


def grid_index(n_rows: int, n_cols: int) -> np.ndarray:
    """Row-major (u, m) index grid usable with the field functions."""
    return grid_cells(np.arange(n_rows), np.arange(n_cols))


def grid_cells(rows, cols) -> np.ndarray:
    """Indices of the cells (rows x cols) of the grid ``grid_index`` spans,
    so a field drawn over them equals that sub-block of the full field."""
    rows = np.asarray(rows, dtype=np.uint64)[:, None]
    cols = np.asarray(cols, dtype=np.uint64)[None, :]
    return rows * np.uint64(1 << 32) + cols
