"""Deterministic splittable random source.

Every stochastic component in the package draws uniforms from a
:class:`RandomSource`.  A source is identified by a 64-bit key; draws are
counter-based SplitMix64 outputs, so the i-th draw from a given key is a pure
function of (key, i).  ``derive`` folds child-key components into a new key,
giving cheap, statistically independent substreams without any shared mutable
state.  Identical seed + identical call sequence reproduces every draw
bit-for-bit; that property is what the determinism and paired-seed guarantees
of the decoders rest on.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)
_CLIP = 2.0**-53
NORMAL_BOUND = -float(ndtri(_CLIP))  # about 8.21


def _mix(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mix with full avalanche."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _component(part: int | str) -> int:
    kind = type(part)  # exact type checks: bool (an int subclass) is rejected
    if kind is int:
        return part & _MASK
    if kind is str:
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "big")
    raise TypeError(f"key components must be int or str, got {kind.__name__}")


class RandomSource:
    """Keyed uniform generator with derivable substreams.

    A source is single-owner: callers that need parallel or order-independent
    randomness derive child sources with distinct keys instead of sharing one
    stream.
    """

    __slots__ = ("_key", "_count")

    def __init__(self, seed: int):
        self._key = _mix(_mix(seed & _MASK) ^ _GOLDEN)
        self._count = 0

    @property
    def key(self) -> int:
        """The 64-bit stream key (stable identifier for this substream)."""
        return self._key

    def derive(self, *key_parts: int | str) -> "RandomSource":
        """Return an independent child source keyed by ``key_parts``.

        Distinct key paths yield independent streams; the same path always
        yields the same stream.  Deriving does not consume draws from the
        parent, so the layout of derived streams is independent of how much
        any sibling stream was consumed.
        """
        if not key_parts:
            raise ValueError("derive requires at least one key component")
        k = self._key
        for part in key_parts:
            k = _mix((k + _GOLDEN + _component(part)) & _MASK)
        return RandomSource.from_key(k)

    @classmethod
    def from_key(cls, key: int) -> "RandomSource":
        """The source whose stream key is ``key``, with no draws consumed."""
        source = cls.__new__(cls)
        source._key, source._count = key & _MASK, 0
        return source

    def draw_uniform01(self) -> float:
        """One uniform draw in [0, 1) with 53-bit resolution."""
        self._count += 1
        z = _mix((self._key + self._count * _GOLDEN) & _MASK)
        return (z >> 11) * _INV53

    def uniforms(self, n: int) -> np.ndarray:
        """Vector of ``n`` uniform draws, identical to ``n`` scalar draws.

        The counter advances exactly as if :meth:`draw_uniform01` had been
        called ``n`` times, so scalar and vectorized consumers can be mixed
        freely without desynchronizing replays.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        steps = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return uniforms_at(self._key, steps)

    def uniform_blocks(self, n: int, size: int) -> Iterator[np.ndarray]:
        """The draws of ``uniforms(n)`` in consecutive blocks of ``size``
        (the last may be shorter), each written over the previous one in a
        buffer made once: a block is valid until the next is drawn, and the
        caller may overwrite it.  The counter advances by each block as it
        is drawn."""
        steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z, scratch, u = np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size)
        for done in range(0, n, size):
            m = min(size, n - done)
            offset = np.uint64((self._key + self._count * _GOLDEN) & _MASK)
            self._count += m
            yield _draws(np.add(steps[:m], offset, out=z[:m]), scratch[:m], u[:m])


def normals_of(u: np.ndarray) -> np.ndarray:
    """Standard normals: the inverse normal CDF of the uniforms ``u``.

    The uniforms are clipped into [2**-53, 1 - 2**-53], so a zero draw maps
    to a finite value and every normal lies within +-``NORMAL_BOUND``.
    """
    return ndtri(np.clip(u, _CLIP, 1.0 - _CLIP))


# Keys and draws over uint64 arrays, entry for entry equal to the scalar
# methods.  All arithmetic stays on arrays, where numpy wraps uint64 overflow
# silently (numpy scalars would warn), as SplitMix64 requires.


def _mix_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`_mix` of every entry, in place: ``z`` must be a fresh array
    the caller owns.  ``scratch``, if given, is a buffer of ``z``'s shape
    used in place of a new one.  Returns ``z``."""
    t = np.right_shift(z, np.uint64(30), out=scratch)  # the one scratch buffer
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def derive_keys(keys, *key_parts) -> np.ndarray:
    """Stream keys of ``RandomSource.from_key(k).derive(*key_parts)`` for
    every key ``k`` in ``keys``.

    A part is an int, a str, or an integer array broadcast against ``keys``
    (negative entries wrap modulo 2**64, as int parts do); the result has the
    broadcast shape (at least 1-D).
    """
    k = np.array(keys, dtype=np.uint64, ndmin=1)
    for part in key_parts:
        if isinstance(part, np.ndarray):
            k = _mix_array(k + np.uint64(_GOLDEN) + part.astype(np.uint64))
        else:
            k = _mix_array(k + np.uint64((_GOLDEN + _component(part)) & _MASK))
    return k


def uniforms_at(keys, counters) -> np.ndarray:
    """Draw number ``counters`` (1-based) of the streams keyed by ``keys``.

    ``uniforms_at(k, i)`` equals the i-th ``draw_uniform01`` of
    ``RandomSource.from_key(k)``; ``keys`` and ``counters`` broadcast.
    """
    k = np.array(keys, dtype=np.uint64, ndmin=1)
    return _draws(k + np.asarray(counters, dtype=np.uint64) * np.uint64(_GOLDEN))


def _draws(z: np.ndarray, scratch: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in [0, 1) of the states ``z`` (key + counter * golden), a
    fresh array mixed in place; ``scratch`` goes to :func:`_mix_array`, and
    the uniforms to ``out`` (a new array if None)."""
    z = _mix_array(z, scratch)
    z >>= np.uint64(11)
    if out is None:
        out = z.astype(np.float64)
    else:
        np.copyto(out, z)
    out *= _INV53
    return out
