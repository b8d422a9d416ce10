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

A field over a grid, the cells (row, col) of ``rows x cols``, is the field
over the indices ``row * 2**32 + col``. Since
``(row * 2**32 + col) * GOLDEN == row * (2**32 * GOLDEN) + col * GOLDEN``
modulo 2**64, the hashed grid is one outer sum of two short vectors, and the
index grid itself is never built.
"""

from __future__ import annotations

import functools
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
# the same constants as numpy scalars, made once: building a np.uint64 costs
# about as much as a small ufunc call
_GOLDEN_U64 = np.uint64(_GOLDEN)
_GOLDEN_ROW_U64 = np.uint64((_GOLDEN << 32) & _MASK)  # a grid row's step
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(n) for n in (11, 27, 30, 31))


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
    h += _GOLDEN_U64
    np.bitwise_xor(h, np.right_shift(h, _S30, out=tmp), out=h)
    h *= _MIX1_U64
    np.bitwise_xor(h, np.right_shift(h, _S27, out=tmp), out=h)
    h *= _MIX2_U64
    np.bitwise_xor(h, np.right_shift(h, _S31, out=tmp), out=h)


@functools.lru_cache(maxsize=1 << 14)
def _str_to_int(part: str) -> int:
    """A string part folded to 64 bits; a sweep asks for the same few tags
    and utterance ids over and over, so the hashes are kept."""
    digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _part_to_int(part: int | str) -> int:
    if isinstance(part, str):
        return _str_to_int(part)
    if isinstance(part, int):
        # negative seeds allowed; reinterpret as two's complement
        if not -(1 << 63) <= part < 1 << 63:
            raise OverflowError(f"stream key part {part} does not fit in int64")
        return part & _MASK
    if isinstance(part, np.integer):
        return int(np.int64(part).view(np.uint64))
    # a float seed would otherwise be truncated to a different stream
    raise TypeError(f"stream key part {part!r} is not a str or an integer")


def stream_key(*parts: int | str) -> np.uint64:
    """Fold seed/tag/id parts into a single 64-bit stream key."""
    acc = 0x6A09E667F3BCC908
    for part in parts:
        acc = _mix_int(acc ^ _part_to_int(part))
    return np.uint64(acc)


def _golden_index(index, cols, rows: int = 1) -> np.ndarray:
    """A fresh uint64 buffer of shape ``(rows, *shape)`` whose first row holds
    ``index * GOLDEN``, the others left for the caller to fill. With ``cols``
    the index is the grid ``index x cols`` (see the module docstring), of
    shape ``(*index.shape, *cols.shape)``."""
    idx = np.asarray(index, dtype=np.uint64)
    if cols is None:
        h = np.empty((rows, *idx.shape), np.uint64)
        np.multiply(idx, _GOLDEN_U64, out=h[0, ...])
        return h
    cols = np.asarray(cols, dtype=np.uint64)
    h = np.empty((rows, *idx.shape, *cols.shape), np.uint64)
    np.add.outer(idx * _GOLDEN_ROW_U64, cols * _GOLDEN_U64, out=h[0, ...])
    return h


def _to_uniform(h: np.ndarray) -> np.ndarray:
    """Uniforms from a buffer of ``index * GOLDEN ^ key``, in place."""
    _mix_inplace(h, np.empty_like(h))
    h >>= _S11
    # below 2**53 every value converts exactly, and int64 converts faster
    out = h.view(np.float64)
    np.multiply(h.view(np.int64), _U53, out=out)
    return out


def uniform_field(key: np.uint64, index: np.ndarray, cols=None) -> np.ndarray:
    """Uniform [0, 1) values addressed by integer index under a stream key;
    with ``cols``, over the grid cells ``index x cols``."""
    h = _golden_index(index, cols)[0, ...]
    h ^= np.uint64(key)
    # a 0-d index gives a scalar, as numpy's scalar arithmetic does
    return _to_uniform(h)[()]


def normal_field(key: np.uint64, index: np.ndarray, cols=None) -> np.ndarray:
    """Standard normal values addressed by integer index (Box-Muller); with
    ``cols``, over the grid cells ``index x cols``.

    The two uniform streams, keyed by ``key`` folded with each sub-stream
    key, are drawn together in one (2, ...) buffer; each row holds exactly
    what ``uniform_field`` gives for its sub-key."""
    key = int(key)
    h = _golden_index(index, cols, 2)
    np.bitwise_xor(h[0, ...], np.uint64(_mix_int(key ^ _NORMAL_K2)), out=h[1, ...])
    h[0, ...] ^= np.uint64(_mix_int(key ^ _NORMAL_K1))
    u = _to_uniform(h)
    u1, u2 = u[0, ...], u[1, ...]
    # 1 - u1 lies in (0, 1], so the log is finite
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1[()]
