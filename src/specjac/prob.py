"""Exact arithmetic over finite categorical distributions.

Distributions are plain normalized vectors over a token vocabulary (a
matrix holds one per row, for building many target laws at once); all
operations here are pure functions of their inputs.  Everything downstream
(couplers, decoders, the oracle) reasons in terms of these objects, so the
invariants enforced at construction time (non-negative entries, unit mass)
are what make the statistical guarantees of the rest of the package exact
rather than approximate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ZeroMassError

# Maximum tolerated deviation of the entry sum from 1 before renormalizing;
# larger deviations are construction errors rather than silently absorbed.
SUM_TOLERANCE = 1e-9


class Categorical:
    """Normalized probability vector over a finite vocabulary.

    Entries are non-negative, and the vector is renormalized on construction
    provided the raw sum is within ``SUM_TOLERANCE`` of 1.  A matrix holds
    one such law per row, checked and renormalized row by row (the bulk
    output of :func:`apply_processors`); the functions over single laws take
    vectors.  Instances are immutable after construction and safe to share
    across threads.
    """

    __slots__ = ("probs",)

    def __init__(self, probs) -> None:
        arr = np.ascontiguousarray(probs, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
            raise ValueError("probs must be a non-empty 1-D vector or a matrix of rows")
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite")
        if (arr < 0.0).any():
            raise ValueError("probabilities must be non-negative")
        total = arr.sum(axis=-1, keepdims=True)
        off = np.abs(total - 1.0) > SUM_TOLERANCE
        if off.any():
            raise ValueError(
                f"probabilities sum to {float(total[off][0])!r}; "
                f"deviation from 1 exceeds {SUM_TOLERANCE}"
            )
        self._attach(arr / total)

    def _attach(self, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        self.probs = arr

    @classmethod
    def _from_normalized(cls, arr: np.ndarray) -> "Categorical":
        """Wrap an already-validated, unit-mass vector (internal fast path)."""
        self = cls.__new__(cls)
        self._attach(arr)
        return self

    @classmethod
    def uniform(cls, vocab_size: int) -> "Categorical":
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        return cls(np.full(vocab_size, 1.0 / vocab_size))

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Categorical({self.probs.tolist()})"


class Logits:
    """Unnormalized log-odds over a vocabulary.

    Entries are finite reals, or exactly -inf to denote masked tokens; at
    least one entry must be unmasked.  A matrix holds one logit vector per
    row, each checked on its own.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
            raise ValueError("values must be a non-empty 1-D vector or a matrix of rows")
        if not (arr < np.inf).all():  # NaN or +inf
            raise ValueError("logits must be finite or -inf")
        if not (arr > -np.inf).any(axis=-1).all():
            raise ValueError("at least one logit must be unmasked")
        arr.flags.writeable = False
        self.values = arr

    @property
    def vocab_size(self) -> int:
        return self.values.shape[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Logits({self.values.tolist()})"


def _check_sizes(a, b) -> None:
    if a.vocab_size != b.vocab_size:
        raise DimensionMismatchError(
            f"vocab sizes differ: {a.vocab_size} vs {b.vocab_size}"
        )


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance: half the L1 distance between the vectors."""
    _check_sizes(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def renyi2_entropy(p: Categorical) -> float:
    """Renyi-2 (collision) entropy in nats: -log sum_x p(x)^2."""
    return -math.log(float(p.probs @ p.probs))


def independent_collision(p: Categorical, q: Categorical) -> float:
    """Probability that independent samples from p and q coincide: sum_x p(x) q(x)."""
    _check_sizes(p, q)
    return float(p.probs @ q.probs)


def positive_residual(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of p - q, for two probability vectors of one
    size (unchecked).

    The unnormalized mass equals their TV distance; raises
    :class:`ZeroMassError` when p == q elementwise (nothing to resample).
    """
    pos = np.maximum(p - q, 0.0)
    mass = float(pos.sum())
    if mass <= 0.0:
        raise ZeroMassError("residual of identical distributions has zero mass")
    return pos / mass


def residual_distribution(p: Categorical, q: Categorical) -> Categorical:
    """Normalized positive part of p - q as a law: :func:`positive_residual`
    of their vectors, after the size check."""
    _check_sizes(p, q)
    return Categorical._from_normalized(positive_residual(p.probs, q.probs))


def mix_cfg(cond: Logits, uncond: Logits, scale: float) -> Logits:
    """Guided logit mix: ``(1 + scale) * cond - scale * uncond``, entry by entry.

    ``scale == 0`` returns ``cond`` unchanged.  Positions masked (-inf) in
    both inputs stay masked; callers must keep the masks of the two inputs
    aligned.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    _check_sizes(cond, uncond)
    if scale == 0.0:
        return cond
    c = cond.values
    u = uncond.values
    with np.errstate(invalid="ignore"):
        mixed = (1.0 + scale) * c - scale * u
    both_masked = np.isneginf(c) & np.isneginf(u)
    if both_masked.any():
        mixed = np.where(both_masked, -np.inf, mixed)
    return Logits(mixed)


def softmax(values: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis; -inf entries map to
    exactly zero."""
    shifted = values - values.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def _keep_ranks(values: np.ndarray, order: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``values`` with -inf wherever the rank of the entry in ``order`` (its
    row's ordering) is not marked in ``kept`` (a mask over ranks)."""
    mask = np.empty(values.shape, dtype=bool)
    np.put_along_axis(mask, order, kept, axis=-1)
    return np.where(mask, values, -np.inf)


def apply_processors(
    logits: Logits,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
) -> Categorical:
    """Turn logits into the sampling distribution, row by row.

    Order of application: temperature scaling, then top-k masking, then
    top-p (nucleus) masking, then softmax.  Ties at the top-k cutoff keep
    lower token ids; top-p keeps the smallest descending-probability prefix
    whose cumulative mass reaches ``top_p``.  A matrix of logits gives a
    matrix of laws, one per row.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    values = logits.values / temperature
    ranks = np.arange(logits.vocab_size)

    if top_k is not None:
        if not 1 <= top_k <= logits.vocab_size:
            raise ValueError("top_k must be in [1, vocab_size]")
        if top_k < logits.vocab_size:
            # stable sort on negated values: descending, lower ids first on ties
            order = np.argsort(-values, axis=-1, kind="stable")
            values = _keep_ranks(values, order, ranks < top_k)

    if top_p is not None:
        if not 0.0 < top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        probs = softmax(values)
        order = np.argsort(-probs, axis=-1, kind="stable")
        csum = np.cumsum(np.take_along_axis(probs, order, axis=-1), axis=-1)
        # keep ranks up to the first reaching top_p; float drift can leave
        # csum just short of 1.0, and then the whole row stays
        cut = (csum < top_p).sum(axis=-1, keepdims=True)
        values = _keep_ranks(values, order, ranks <= cut)

    return Categorical(softmax(values))
