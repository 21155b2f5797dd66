"""Order-k tabular autoregressive models with exactly enumerable sequence laws.

The model stores (lazily generates) one logit vector per context: i.i.d.
standard normals keyed by (seed, context), divided by a flatness knob.  High
flatness gives near-uniform, high-entropy conditionals; low flatness gives
peaky ones.  Because every conditional is an explicit finite table, the full
sequence distribution can be enumerated and used as ground truth for the
decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError
from .prob import Categorical, Logits, apply_processors, mix_cfg
from .rng import RandomSource

# Context padding symbol for positions closer to the sequence start than the
# model order; never a valid token id.
BOS = -1

# Largest number of sequences ``enumerate_sequence_distribution`` will list.
ENUMERATION_BUDGET = 10**6

TokenSequence = tuple[int, ...]


@dataclass(frozen=True)
class SamplingParams:
    """Target-law shaping: temperature, truncation masks, guidance scale."""

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    cfg_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature: must be positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k: must be >= 1")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p: must be in (0, 1]")
        if self.cfg_scale < 0:
            raise ValueError("cfg_scale: must be >= 0")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of a tabular model.

    ``context_order`` is the number of history tokens a conditional depends
    on; ``flatness`` divides the stored logits (higher means flatter,
    higher-entropy conditionals).  ``cfg_seed`` seeds the unconditional
    variant used for guided sampling and defaults to ``seed + 1``.
    """

    vocab_size: int
    context_order: int = 2
    flatness: float = 1.0
    seed: int = 0
    cfg_seed: int | None = None

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size: must be >= 2")
        if self.context_order < 0:
            raise ValueError("context_order: must be >= 0")
        if self.flatness <= 0:
            raise ValueError("flatness: must be positive")


class TabularModel:
    """Autoregressive model with seeded random logit tables.

    The conditional at each position depends on the last ``context_order``
    tokens of the prefix (left-padded with BOS).  Tables for the conditional
    and the unconditional (guidance) variant are generated lazily per context
    and cached; evaluation is pure and instances are safe to share.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._tables: dict[tuple, Logits] = {}
        cfg_seed = spec.cfg_seed if spec.cfg_seed is not None else spec.seed + 1
        self._roots = {
            False: RandomSource(spec.seed).derive("logit-table"),
            True: RandomSource(cfg_seed).derive("logit-table"),
        }

    @property
    def vocab_size(self) -> int:
        return self.spec.vocab_size

    def context_key(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Last ``context_order`` tokens, left-padded with BOS."""
        k = self.spec.context_order
        if k == 0:
            return ()
        tail = tuple(prefix[-k:])
        if len(tail) < k:
            tail = (BOS,) * (k - len(tail)) + tail
        return tail

    def logits(self, context: tuple[int, ...], uncond: bool = False) -> Logits:
        """Stored logits of one context (a ``context_key``).

        ``uncond`` selects the unconditional variant used for guidance
        mixing.
        """
        key = (uncond, context)
        logits = self._tables.get(key)
        if logits is None:
            root = self._roots[uncond]
            stream = root.derive(*context) if context else root.derive("root")
            logits = Logits(stream.normals(self.spec.vocab_size) / self.spec.flatness)
            self._tables[key] = logits
        return logits


class TargetSampler:
    """The target law at every position: guidance mix plus processors.

    This is the distribution every decoder must reproduce; losslessness is
    defined relative to it.  Conditionals depend only on the order-k context,
    so one small cache keyed by context serves every position of every trial
    that shares a model and sampling configuration.
    """

    def __init__(self, model: TabularModel, sampling: SamplingParams):
        self.model = model
        self.sampling = sampling
        self._cache: dict[tuple[int, ...], Categorical] = {}

    def _dist_for_key(self, key: tuple[int, ...]) -> Categorical:
        dist = self._cache.get(key)
        if dist is None:
            logits = self.model.logits(key)
            if self.sampling.cfg_scale > 0:
                logits = mix_cfg(
                    logits,
                    self.model.logits(key, uncond=True),
                    self.sampling.cfg_scale,
                )
            dist = apply_processors(
                logits,
                self.sampling.temperature,
                self.sampling.top_k,
                self.sampling.top_p,
            )
            self._cache[key] = dist
        return dist

    def dist(self, prefix: Sequence[int]) -> Categorical:
        """Target law at the next position after ``prefix``."""
        return self._dist_for_key(self.model.context_key(prefix))

    def window_dists(
        self, context: Sequence[int], window: Sequence[int]
    ) -> list[Categorical]:
        """Target laws for all window positions in one parallel evaluation.

        Position j is conditioned on ``context`` followed by window tokens
        strictly before j, so the result equals ``len(window)`` sequential
        ``dist`` calls on the corresponding prefixes.
        """
        out = []
        key = self.model.context_key(context)
        k = self.model.spec.context_order
        for token in window:
            out.append(self._dist_for_key(key))
            if k > 0:
                key = key[1:] + (token,)
        return out


def enumerate_sequence_distribution(
    model: TabularModel,
    sampling: SamplingParams,
    length: int,
) -> dict[TokenSequence, float]:
    """Exact probability of every length-n sequence under sequential sampling.

    Raises :class:`BudgetError` when ``vocab_size ** length`` exceeds
    ``ENUMERATION_BUDGET``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    total = model.vocab_size**length
    if total > ENUMERATION_BUDGET:
        raise BudgetError(
            f"{model.vocab_size}^{length} = {total} sequences exceed the "
            f"enumeration budget of {ENUMERATION_BUDGET}; reduce the "
            "vocabulary size or the length"
        )
    sampler = TargetSampler(model, sampling)
    law: dict[TokenSequence, float] = {}
    stack: list[tuple[TokenSequence, float]] = [((), 1.0)]
    while stack:
        prefix, mass = stack.pop()
        if len(prefix) == length:
            law[prefix] = mass
            continue
        dist = sampler.dist(prefix)
        for token in range(model.vocab_size):
            p = float(dist.probs[token])
            if p > 0.0:
                stack.append((prefix + (token,), mass * p))
    return law
