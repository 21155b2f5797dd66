"""Reference composition of one modified-rejection-sampling step.

The step as the package composed it before ``couplers.mrs`` drew its
residual from bare probability vectors: the positive part of p - q built
as a :class:`Categorical` (``prob.residual_distribution``), then that law's
inverse CDF (this module's own ``inverse_cdf_sample``).  On two laws of
one size, ``couplers.mrs`` and its two vector functions must reproduce it
outcome for outcome and bit for bit.
"""

import numpy as np

from specjac.couplers import MrsOutcome
from specjac.errors import ZeroMassError
from specjac.prob import Categorical


def residual_distribution(p: Categorical, q: Categorical) -> Categorical:
    pos = np.maximum(p.probs - q.probs, 0.0)
    mass = float(pos.sum())
    if mass <= 0.0:
        raise ZeroMassError("residual of identical distributions has zero mass")
    return Categorical._from_normalized(pos / mass)


def inverse_cdf_sample(dist: Categorical, u: float) -> int:
    probs = dist.probs
    idx = probs.cumsum().searchsorted(u, "right")
    return int(np.flatnonzero(probs)[-1] if idx == probs.size else idx)


def mrs(p: Categorical, q: Categorical, x: int, rng) -> MrsOutcome:
    qx = q.probs.item(x)
    if qx <= 0.0:
        raise ValueError(f"draft token {x} has zero probability under q")
    if rng.draw_uniform01() < p.probs.item(x) / qx:
        return MrsOutcome(True, x)
    residual = residual_distribution(p, q)
    return MrsOutcome(False, inverse_cdf_sample(residual, rng.draw_uniform01()))
