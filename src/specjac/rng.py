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

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)

# sha256 of string key components, memoized (the set of labels is tiny)
_STR_HASHES: dict[str, int] = {}


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
        h = _STR_HASHES.get(part)
        if h is None:
            h = int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "big")
            _STR_HASHES[part] = h
        return h
    raise TypeError(f"key components must be int or str, got {kind.__name__}")


def label_hash(label: str) -> int:
    """Precompute a string key component for hot derive loops.

    ``rng.derive(label_hash(s), ...)`` is equivalent to ``rng.derive(s, ...)``.
    """
    return _component(label)


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
        child = RandomSource.__new__(RandomSource)
        child._key = k
        child._count = 0
        return child

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
        z = np.uint64(self._key) + steps * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * _INV53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals: the inverse normal CDF of ``n`` uniforms.

        The uniforms are clipped into [2**-53, 1 - 2**-53], so a zero draw
        maps to a finite value.
        """
        return ndtri(np.clip(self.uniforms(n), 2.0**-53, 1.0 - 2.0**-53))
