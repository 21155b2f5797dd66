"""Exact arithmetic over finite categorical distributions.

Distributions are plain normalized vectors over a token vocabulary; all
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
    provided the raw sum is within ``SUM_TOLERANCE`` of 1.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("probs", "_cdf", "_cdf_list", "_probs_list")

    def __init__(self, probs) -> None:
        arr = np.ascontiguousarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probs must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite")
        if (arr < 0.0).any():
            raise ValueError("probabilities must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(
                f"probabilities sum to {total!r}; deviation from 1 exceeds {SUM_TOLERANCE}"
            )
        self._attach(arr / total)

    def _attach(self, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        self.probs = arr
        self._cdf = None
        self._cdf_list = None
        self._probs_list = None

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
        return self.probs.shape[0]

    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, cached for repeated inverse-CDF sampling."""
        if self._cdf is None:
            cdf = np.cumsum(self.probs)
            cdf.flags.writeable = False
            self._cdf = cdf
        return self._cdf

    def cdf_list(self) -> tuple[float, ...]:
        """Cumulative probabilities as a plain tuple (fast scalar bisection)."""
        if self._cdf_list is None:
            self._cdf_list = tuple(self.cdf().tolist())
        return self._cdf_list

    def probs_list(self) -> tuple[float, ...]:
        """Probabilities as a plain tuple (fast scalar indexing)."""
        if self._probs_list is None:
            self._probs_list = tuple(self.probs.tolist())
        return self._probs_list

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Categorical({self.probs.tolist()})"


class Logits:
    """Unnormalized log-odds over a vocabulary.

    Entries are finite reals, or exactly -inf to denote masked tokens; at
    least one entry must be unmasked.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a non-empty 1-D vector")
        if not (arr < np.inf).all():  # NaN or +inf
            raise ValueError("logits must be finite or -inf")
        if not (arr > -np.inf).any():
            raise ValueError("at least one logit must be unmasked")
        arr.flags.writeable = False
        self.values = arr

    @property
    def vocab_size(self) -> int:
        return self.values.shape[0]

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


def residual_distribution(p: Categorical, q: Categorical) -> Categorical:
    """Normalized positive part of p - q.

    The unnormalized mass equals ``tv_distance(p, q)``; raises
    :class:`ZeroMassError` when p == q elementwise (nothing to resample).
    """
    _check_sizes(p, q)
    pos = np.maximum(p.probs - q.probs, 0.0)
    mass = float(pos.sum())
    if mass <= 0.0:
        raise ZeroMassError("residual of identical distributions has zero mass")
    return Categorical._from_normalized(pos / mass)


def mix_cfg(cond: Logits, uncond: Logits, scale: float) -> Logits:
    """Guided logit mix: ``(1 + scale) * cond - scale * uncond``.

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
    """Numerically stable softmax; -inf entries map to exactly zero."""
    shifted = values - values.max()
    with np.errstate(invalid="ignore"):
        expd = np.exp(shifted)
    expd = np.where(values == -np.inf, 0.0, expd)
    return expd / expd.sum()


def apply_processors(
    logits: Logits,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
) -> Categorical:
    """Turn logits into the sampling distribution.

    Order of application: temperature scaling, then top-k masking, then
    top-p (nucleus) masking, then softmax.  Ties at the top-k cutoff keep
    lower token ids; top-p keeps the smallest descending-probability prefix
    whose cumulative mass reaches ``top_p``.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    values = logits.values / temperature

    if top_k is not None:
        if not 1 <= top_k <= logits.vocab_size:
            raise ValueError("top_k must be in [1, vocab_size]")
        if top_k < logits.vocab_size:
            # stable sort on negated values: descending, lower ids first on ties
            order = np.argsort(-values, kind="stable")
            masked = np.full_like(values, -np.inf)
            keep = order[:top_k]
            masked[keep] = values[keep]
            values = masked

    if top_p is not None:
        if not 0.0 < top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        probs = softmax(values)
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        cut = int(np.searchsorted(csum, top_p, side="left"))
        if cut < order.size:  # float drift can leave csum just short of 1.0
            masked = np.full_like(values, -np.inf)
            keep = order[: cut + 1]
            masked[keep] = values[keep]
            values = masked

    return Categorical(softmax(values))
