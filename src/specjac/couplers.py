"""Token samplers: independent draws, modified rejection sampling, Gumbel sharing.

All three draw a token whose marginal law is an arbitrary target Categorical;
they differ in how strongly the draw is coupled to a previously drawn token
from a (possibly different) distribution.  Modified rejection sampling
realizes the maximal coupling (collision probability 1 - TV); sharing one
Gumbel noise vector across two argmax samples realizes a communication-free
coupling whose collision probability is at least (1 - TV) / (1 + TV).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .errors import BudgetError
from .prob import Categorical, residual_distribution, tv_distance
from .rng import RandomSource


class MrsOutcome(NamedTuple):
    """Result of one modified-rejection-sampling step."""

    accepted: bool
    token: int


def inverse_cdf_sample(dist: Categorical, u: float) -> int:
    """Map one uniform draw to a token via the cumulative distribution.

    Token k is returned when u falls in [cdf(k-1), cdf(k)); zero-probability
    tokens have empty intervals and are never returned.
    """
    cdf = dist.cdf_list()
    idx = bisect_right(cdf, u)
    if idx >= len(cdf):  # cumulative sum drifted below 1.0
        idx = len(cdf) - 1
        probs = dist.probs_list()
        while idx > 0 and probs[idx] == 0.0:
            idx -= 1
    return idx


def inverse_cdf_rows(
    probs: np.ndarray, cdf: np.ndarray, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`inverse_cdf_sample`: entry i maps ``u[i]`` through
    row ``rows[i]`` of the ``probs`` / ``cdf`` tables.  The token is the
    number of cumulative entries <= u, as bisection finds it; drift past
    the last entry falls back the same way."""
    idx = (cdf[rows] <= u[:, None]).sum(axis=1)
    over = idx == cdf.shape[1]
    if over.any():  # cumulative sum drifted below 1.0: last positive token
        positive = probs[rows[over]] > 0.0
        idx[over] = cdf.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    return idx


def mrs_accepts(u: np.ndarray, p_x: np.ndarray, q_x: np.ndarray) -> np.ndarray:
    """Accept tests of many :func:`mrs` steps with first uniforms ``u``.
    Strict, as in ``mrs``: u == 0 rejects a token with p(x) == 0."""
    return u < p_x / q_x


def sample_independent(dist: Categorical, rng: RandomSource) -> int:
    """Draw one token from ``dist`` using a single uniform."""
    return inverse_cdf_sample(dist, rng.draw_uniform01())


def mrs(p: Categorical, q: Categorical, x: int, rng: RandomSource) -> MrsOutcome:
    """Modified rejection sampling: given x ~ q, return a token distributed as p.

    Accepts x with probability min(1, p(x)/q(x)); on rejection returns a draw
    from the normalized positive part of p - q.  Consumes exactly one uniform
    for the accept test and one more only on rejection, so seeded replays stay
    aligned across call sites.  Viewed as a joint law over (input, output),
    this is the maximal coupling of q and p.
    """
    q_list = q.probs_list()
    p_list = p.probs_list()
    if len(p_list) != len(q_list):
        raise ValueError(f"vocab sizes differ: {len(p_list)} vs {len(q_list)}")
    qx = q_list[x]
    if qx <= 0.0:
        raise ValueError(f"draft token {x} has zero probability under q")
    accept_prob = p_list[x] / qx
    # Strict inequality: u == 0.0 is representable, and u <= 0 would otherwise
    # accept a token with p(x) == 0.
    if rng.draw_uniform01() < accept_prob:
        return MrsOutcome(True, x)
    residual = residual_distribution(p, q)
    return MrsOutcome(False, inverse_cdf_sample(residual, rng.draw_uniform01()))


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """Transform uniforms in [0, 1) to Gumbel(0, 1) via -log(-log(u)).

    Inputs are clamped into [tiny, 1 - 2^-53] so the double logarithm is
    always finite.
    """
    tiny = np.finfo(np.float64).tiny
    clamped = np.clip(u, tiny, 1.0 - 2.0**-53)
    return -np.log(-np.log(clamped))


def sample_gumbel_noise(vocab_size: int, rng: RandomSource) -> np.ndarray:
    """Vector of ``vocab_size`` i.i.d. Gumbel(0, 1) variates."""
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    return gumbel_from_uniform(rng.uniforms(vocab_size))


def _masked_log(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(probs)


def gs_couple(p: Categorical, q: Categorical, noise: np.ndarray) -> tuple[int, int]:
    """Couple samples from p and q by sharing one Gumbel noise vector.

    Returns (X, Y) with X = argmax(log p + g) and Y = argmax(log q + g);
    marginally X ~ p and Y ~ q.  Zero-probability tokens enter the argmax as
    -inf and can never win; ties break toward the lower token id.
    """
    if p.vocab_size != q.vocab_size or p.vocab_size != noise.shape[0]:
        raise ValueError("p, q, and noise must share one vocab size")
    x = int(np.argmax(_masked_log(p.probs) + noise))
    y = int(np.argmax(_masked_log(q.probs) + noise))
    return x, y


def maximal_coupling_cost(p: Categorical, q: Categorical) -> float:
    """Collision probability of the maximal coupling: 1 - TV(p, q).

    This is also the upper bound on the collision probability of any
    coupling of p and q.
    """
    return 1.0 - tv_distance(p, q)


def mrs_joint_distribution(
    p: Categorical, q: Categorical, max_vocab: int = 256
) -> np.ndarray:
    """Exact joint law of (input x, output y) for one ``mrs`` step.

    Entry (x, y) is q(x) * [alpha(x) * 1{x==y} + (1 - alpha(x)) * r(y)] with
    alpha(x) = min(1, p(x)/q(x)) and r the normalized positive part of p - q.
    Row sums equal q, column sums equal p, and the diagonal mass equals
    1 - TV(p, q).
    """
    if p.vocab_size != q.vocab_size:
        raise ValueError(f"vocab sizes differ: {p.vocab_size} vs {q.vocab_size}")
    n = p.vocab_size
    if n > max_vocab:
        raise BudgetError(f"vocab size {n} exceeds enumeration budget {max_vocab}")
    pv = p.probs
    qv = q.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.minimum(1.0, pv / qv)
    alpha = np.where(qv == 0.0, 1.0, alpha)
    pos = np.maximum(pv - qv, 0.0)
    mass = pos.sum()
    residual = pos / mass if mass > 0.0 else np.zeros(n)
    joint = qv[:, None] * ((1.0 - alpha)[:, None] * residual[None, :])
    joint[np.arange(n), np.arange(n)] += qv * alpha
    return joint
