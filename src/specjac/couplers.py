"""Token samplers: independent draws, modified rejection sampling, Gumbel sharing.

All three draw a token whose marginal law is an arbitrary target Categorical;
they differ in how strongly the draw is coupled to a previously drawn token
from a (possibly different) distribution.  Modified rejection sampling
realizes the maximal coupling (collision probability 1 - TV); sharing one
Gumbel noise vector across two argmax samples realizes a communication-free
coupling whose collision probability is at least (1 - TV) / (1 + TV).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BudgetError, DimensionMismatchError, ZeroMassError
from .prob import Categorical, _check_sizes, positive_residual
from .rng import RandomSource


class MrsOutcome(NamedTuple):
    """Result of one modified-rejection-sampling step."""

    accepted: bool
    token: int


def inverse_cdf(probs: np.ndarray, u: float | np.ndarray) -> int | np.ndarray:
    """Map uniform draws to tokens via the cumulative sum of the probability
    vector ``probs``.

    Token k is returned when u falls in [cdf(k-1), cdf(k)): the number of
    cumulative entries <= u.  Zero-probability tokens have empty intervals
    and are never returned.  A scalar ``u`` gives an int, an array ``u`` an
    array of tokens.
    """
    idx = np.add.accumulate(probs).searchsorted(u, "right")  # cumsum, less dispatch
    # cumulative sum drifted below 1.0 and u fell past it: last positive token
    over = idx == probs.size
    if isinstance(u, np.ndarray):
        idx[over] = np.flatnonzero(probs)[-1]
        return idx
    return int(np.flatnonzero(probs)[-1] if over else idx)


def inverse_cdf_rows(
    probs: np.ndarray, cdf: np.ndarray, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`inverse_cdf`: entry i maps ``u[i]`` through
    row ``rows[i]`` of the ``probs`` / ``cdf`` tables.  The token is the
    number of cumulative entries <= u, as ``searchsorted`` finds it; drift
    past the last entry falls back the same way."""
    idx = (cdf[rows] <= u[:, None]).sum(axis=1)
    over = idx == cdf.shape[1]
    if over.any():  # cumulative sum drifted below 1.0: last positive token
        positive = probs[rows[over]] > 0.0
        idx[over] = cdf.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return idx


def mrs_accepts(
    u: float | np.ndarray, p_x: float | np.ndarray, q_x: float | np.ndarray
) -> bool | np.ndarray:
    """Accept tests of one or many :func:`mrs` steps with first uniforms ``u``:
    x is kept when u < p(x) / q(x), strictly, since u == 0.0 is representable
    and u <= 0 would accept a token with p(x) == 0."""
    return u < p_x / q_x


def mrs_residual_rows(
    probs: np.ndarray, p_rows: np.ndarray, q_rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Residual tokens of many rejecting :func:`mrs` steps: entry i maps its
    second uniform ``u[i]`` through the normalized positive part of
    ``probs[p_rows[i]] - probs[q_rows[i]]``, as ``mrs`` does for one law.
    Raises :class:`ZeroMassError` when a row has p == q."""
    pos = np.maximum(probs[p_rows] - probs[q_rows], 0.0)
    mass = pos.sum(axis=1, keepdims=True)
    if (mass <= 0.0).any():
        raise ZeroMassError("residual of identical distributions has zero mass")
    residual = pos / mass
    return inverse_cdf_rows(residual, residual.cumsum(axis=1), np.arange(len(u)), u)


def sample_independent(dist: Categorical, rng: RandomSource) -> int:
    """Draw one token from ``dist`` using a single uniform."""
    return inverse_cdf(dist.probs, rng.draw_uniform01())


def mrs(p: Categorical, q: Categorical, x: int, rng: RandomSource) -> MrsOutcome:
    """Modified rejection sampling: given x ~ q, return a token distributed as p.

    Accepts x with probability min(1, p(x)/q(x)); on rejection returns a draw
    from the normalized positive part of p - q.  Consumes exactly one uniform
    for the accept test and one more only on rejection, so seeded replays stay
    aligned across call sites.  Viewed as a joint law over (input, output),
    this is the maximal coupling of q and p.  The residual is drawn from the
    bare vectors (:func:`positive_residual`, :func:`inverse_cdf`).
    """
    _check_sizes(p, q)
    pv, qv = p.probs, q.probs
    if not 0 <= x < qv.size:
        raise ValueError(f"draft token {x} is outside the vocabulary 0..{qv.size - 1}")
    qx = qv.item(x)
    if qx <= 0.0:
        raise ValueError(f"draft token {x} has zero probability under q")
    if mrs_accepts(rng.draw_uniform01(), pv.item(x), qx):
        return MrsOutcome(True, x)
    return MrsOutcome(False, inverse_cdf(positive_residual(pv, qv), rng.draw_uniform01()))


def negated_gumbel(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Negated Gumbel(0, 1) variates log(-log(u)) of uniforms in [0, 1).

    Inputs are clamped into [tiny, 1 - 2^-53] so the double logarithm is
    always finite.  The clamped values go to ``out`` (a new array if None)
    and the logarithms work there in place, so ``u`` is left as it was.
    """
    h = np.clip(u, np.finfo(np.float64).tiny, 1.0 - 2.0**-53, out=out)
    np.log(h, out=h)
    np.negative(h, out=h)
    return np.log(h, out=h)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """Transform uniforms in [0, 1) to Gumbel(0, 1) via -log(-log(u)): the
    negation of :func:`negated_gumbel`, in a new array."""
    g = negated_gumbel(u)
    return np.negative(g, out=g)


def sample_gumbel_noise(vocab_size: int, rng: RandomSource) -> np.ndarray:
    """Vector of ``vocab_size`` i.i.d. Gumbel(0, 1) variates."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    return gumbel_from_uniform(rng.uniforms(vocab_size))


def gumbel_argmax(probs: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Gumbel-max draws: argmax(log p + g) over the last axis.

    ``probs`` and ``noise`` broadcast against each other, so one law can
    meet many noise rows or one row per law.  Zero-probability tokens enter
    the argmax as -inf and can never win; ties break toward the lower token
    id.
    """
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(probs) + noise, axis=-1)


def gs_couple(p: Categorical, q: Categorical, noise: np.ndarray) -> tuple[int, int]:
    """Couple samples from p and q by sharing one Gumbel noise vector.

    Returns (X, Y) with X = argmax(log p + g) and Y = argmax(log q + g);
    marginally X ~ p and Y ~ q (see :func:`gumbel_argmax`).
    """
    _check_sizes(p, q)
    if noise.shape[0] != p.vocab_size:
        raise DimensionMismatchError(f"noise length {noise.shape[0]} vs vocab size {p.vocab_size}")
    return int(gumbel_argmax(p.probs, noise)), int(gumbel_argmax(q.probs, noise))


def mrs_joint_distribution(
    p: Categorical, q: Categorical, max_vocab: int = 256
) -> np.ndarray:
    """Exact joint law of (input x, output y) for one ``mrs`` step.

    Entry (x, y) is q(x) * [alpha(x) * 1{x==y} + (1 - alpha(x)) * r(y)] with
    alpha(x) = min(1, p(x)/q(x)) and r the normalized positive part of p - q.
    Row sums equal q, column sums equal p, and the diagonal mass equals
    1 - TV(p, q).
    """
    _check_sizes(p, q)
    n = p.vocab_size
    if n > max_vocab:
        raise BudgetError(f"vocab size {n} exceeds enumeration budget {max_vocab}")
    pv = p.probs
    qv = q.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.minimum(1.0, pv / qv)
    alpha = np.where(qv == 0.0, 1.0, alpha)
    try:
        residual = positive_residual(pv, qv)
    except ZeroMassError:  # p - q has no positive part: no residual draw
        residual = np.zeros(n)
    joint = qv[:, None] * ((1.0 - alpha)[:, None] * residual[None, :])
    joint[np.arange(n), np.arange(n)] += qv * alpha
    return joint
