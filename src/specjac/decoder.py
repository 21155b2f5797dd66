"""Generation engines: vanilla autoregressive decoding and the speculative
Jacobi engine with pluggable draft coupling.

The Jacobi engine keeps a window of future draft tokens.  Each iteration
re-drafts the window from the latest evaluated distributions (optionally
coupled to the previous draft), evaluates the whole window in one model call,
then verifies drafts in order with modified rejection sampling until the
first rejection.  Token cost is measured as NFE: the number of sequential
window evaluations.  For every coupler the law of the finalized sequence is
identical to vanilla decoding; the couplers differ only in how fast drafts
stabilize, and therefore in NFE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import numpy as np

from .couplers import gs_couple, mrs, sample_gumbel_noise, sample_independent
from .model import SamplingParams, TabularModel, TargetSampler, TokenSequence
from .prob import Categorical, tv_distance
from .rng import RandomSource, label_hash

_DRAFT = label_hash("draft")
_VERIFY = label_hash("verify")
_GUMBEL = label_hash("gumbel")

_UNIFORM_CACHE: dict[int, Categorical] = {}


def _uniform(vocab_size: int) -> Categorical:
    dist = _UNIFORM_CACHE.get(vocab_size)
    if dist is None:
        dist = Categorical.uniform(vocab_size)
        _UNIFORM_CACHE[vocab_size] = dist
    return dist


class CouplerKind(Enum):
    """Strategy for drawing a window draft from the current distribution."""

    INDEPENDENT = "independent"
    MAXIMAL = "maximal"
    GUMBEL = "gumbel"


@dataclass
class IterationRecord:
    """Per-iteration decode statistics."""

    finalized: int
    hamming: int | None  # draft tokens changed vs previous iteration
    compared: int  # positions present in both this and the previous window
    betas: list[float] = field(default_factory=list)


@dataclass
class DecodeStats:
    """Accounting for one decode run."""

    nfe: int = 0
    total_tokens: int = 0
    per_iteration: list[IterationRecord] = field(default_factory=list)
    beta_trajectories: dict[int, list[float]] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.per_iteration)

    def finalized_counts(self) -> list[int]:
        return [rec.finalized for rec in self.per_iteration]

    def mean_finalized_per_iteration(self) -> float:
        if not self.per_iteration:
            return 0.0
        return self.total_tokens / len(self.per_iteration)

    def mean_hamming(self) -> float | None:
        values = [rec.hamming for rec in self.per_iteration if rec.hamming is not None]
        if not values:
            return None
        return float(np.mean(values))

    def mean_beta(self) -> float | None:
        values = [b for rec in self.per_iteration for b in rec.betas]
        if not values:
            return None
        return float(np.mean(values))


class _Slot:
    """State of one window position.

    ``prev_dist``/``prev_token`` are present exactly when the position
    survived the previous iteration's verify scan; only such positions are
    re-drafted by the coupler.  ``model_dist`` records whether ``dist`` came
    from a model evaluation (as opposed to the uniform initialization), which
    gates acceptance-rate bookkeeping.
    """

    __slots__ = ("token", "dist", "prev_token", "prev_dist", "noise", "model_dist")

    def __init__(self, token: int, dist: Categorical):
        self.token = token
        self.dist = dist
        self.prev_token: int | None = None
        self.prev_dist: Categorical | None = None
        self.noise: np.ndarray | None = None
        self.model_dist = False


class DecodeState:
    """Jacobi window state: finalized prefix plus per-position slots."""

    def __init__(self, stats: DecodeStats):
        self.accepted: list[int] = []
        self.slots: dict[int, _Slot] = {}
        self.window: list[int] = []
        self.evaluated: list[Categorical] = []
        self.stats = stats


def record_beta(state: DecodeState) -> dict[int, float]:
    """Record analytic acceptance rates for the just-evaluated window.

    For each position whose draft distribution is itself a model evaluation,
    the acceptance rate of the imminent verify step is 1 - TV(new, draft);
    positions still carrying the uniform initializer are skipped (there is no
    previous model distribution to compare against).
    """
    betas: dict[int, float] = {}
    for pos, new_dist in zip(state.window, state.evaluated):
        slot = state.slots[pos]
        if not slot.model_dist:
            continue
        beta = 1.0 - tv_distance(new_dist, slot.dist)
        betas[pos] = beta
        state.stats.beta_trajectories.setdefault(pos, []).append(beta)
    return betas


def record_hamming(state: DecodeState) -> tuple[int | None, int]:
    """Count draft tokens changed versus the previous iteration.

    Only positions present in both windows (those with a previous draft) are
    comparable; returns (changed, compared) with ``changed`` None when no
    position is comparable.
    """
    changed = 0
    compared = 0
    for pos in state.window:
        slot = state.slots[pos]
        if slot.prev_token is None:
            continue
        compared += 1
        if slot.token != slot.prev_token:
            changed += 1
    if compared == 0:
        return None, 0
    return changed, compared


def decode_vanilla(
    model: TabularModel,
    sampling: SamplingParams,
    n: int,
    rng: RandomSource,
    sampler: TargetSampler | None = None,
) -> tuple[TokenSequence, DecodeStats]:
    """Sequential decoding: one model evaluation per emitted token."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sampler is None:
        sampler = TargetSampler(model, sampling)
    stats = DecodeStats(total_tokens=n)
    tokens: list[int] = []
    for i in range(n):
        dist = sampler.dist(tokens)
        stats.nfe += 1
        tokens.append(sample_independent(dist, rng.derive("vanilla", i)))
        stats.per_iteration.append(IterationRecord(finalized=1, hamming=None, compared=0))
    return tuple(tokens), stats


def decode_sjd(
    model: TabularModel,
    sampling: SamplingParams,
    n: int,
    window: int,
    coupler: CouplerKind,
    rng: RandomSource,
    redraft: bool = False,
    sampler: TargetSampler | None = None,
) -> tuple[TokenSequence, DecodeStats]:
    """Speculative Jacobi decoding with the chosen draft coupler.

    ``redraft`` selects the rejection convention: by default the residual
    token drawn at the first rejection is finalized and the window advances
    past it; with ``redraft=True`` that token instead becomes the position's
    draft for the next iteration (it is then accepted with certainty, since
    its context is already final).  Both conventions produce sequences
    distributed exactly as ``decode_vanilla``; the default finalizes at least
    one token per iteration so nfe <= n, while redraft admits zero-progress
    iterations and guarantees only nfe <= 2n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    if sampler is None:
        sampler = TargetSampler(model, sampling)

    vocab = model.vocab_size
    uniform_init = _uniform(vocab)
    stats = DecodeStats(total_tokens=n)
    state = DecodeState(stats)
    slots = state.slots
    accepted = state.accepted
    max_iterations = 4 * n + 64  # stall guard; progress is guaranteed per convention

    t = 0
    while len(accepted) < n:
        if t >= max_iterations:
            raise RuntimeError("decode_sjd failed to make progress")
        start = len(accepted)
        width = min(window, n - start)
        positions = list(range(start, start + width))
        state.window = positions

        # Drafting.  Fresh positions sample independently from the uniform
        # initializer; surviving positions re-draw through the coupler;
        # redraft carry-overs (prev_* cleared) keep their verify-produced token.
        for pos in positions:
            slot = slots.get(pos)
            if slot is None:
                slot = _Slot(
                    sample_independent(uniform_init, rng.derive(_DRAFT, t, pos)),
                    uniform_init,
                )
                slots[pos] = slot
                if coupler is CouplerKind.GUMBEL:
                    slot.noise = sample_gumbel_noise(vocab, rng.derive(_GUMBEL, pos))
            elif slot.prev_dist is not None:
                if coupler is CouplerKind.INDEPENDENT:
                    slot.token = sample_independent(slot.dist, rng.derive(_DRAFT, t, pos))
                elif coupler is CouplerKind.MAXIMAL:
                    slot.token = mrs(
                        slot.dist, slot.prev_dist, slot.prev_token, rng.derive(_DRAFT, t, pos)
                    ).token
                else:
                    slot.token, _ = gs_couple(slot.dist, slot.prev_dist, slot.noise)

        hamming, compared = record_hamming(state)

        # Evaluate the whole window in one parallel model call.
        window_tokens = [slots[pos].token for pos in positions]
        state.evaluated = sampler.window_dists(accepted, window_tokens)
        stats.nfe += 1
        betas = record_beta(state)

        # Verify in order until the first rejection.
        finalized = 0
        rejected_idx: int | None = None
        for idx, pos in enumerate(positions):
            slot = slots[pos]
            outcome = mrs(
                state.evaluated[idx], slot.dist, slot.token, rng.derive(_VERIFY, t, pos)
            )
            if outcome.accepted:
                accepted.append(slot.token)
                del slots[pos]
                finalized += 1
                continue
            if redraft:
                slot.token = outcome.token
                slot.dist = state.evaluated[idx]
                slot.model_dist = True
                slot.prev_token = None
                slot.prev_dist = None
            else:
                accepted.append(outcome.token)
                del slots[pos]
                finalized += 1
            rejected_idx = idx
            break

        # Slide: survivors past the scan stop carry the new evaluation as
        # their draft distribution and their current draft as previous data.
        carry_from = width if rejected_idx is None else rejected_idx + 1
        for idx in range(carry_from, width):
            slot = slots[positions[idx]]
            slot.prev_token = slot.token
            slot.prev_dist = slot.dist
            slot.dist = state.evaluated[idx]
            slot.model_dist = True

        stats.per_iteration.append(
            IterationRecord(
                finalized=finalized,
                hamming=hamming,
                compared=compared,
                betas=list(betas.values()),
            )
        )
        t += 1

    return tuple(accepted), stats
