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

import numpy as np

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
    defined relative to it.  It is a row table over context ids: an id names
    one ``context_key``, ``next_ctx`` moves ids on by one token, and
    ``rows`` maps ids to rows of ``probs`` / ``cdf``, built on first use.
    Row ``UNIFORM_ROW`` is the uniform law (the Jacobi draft initializer).
    One table serves every trial of a model and sampling configuration.
    """

    UNIFORM_ROW = 0

    def __init__(self, model: TabularModel, sampling: SamplingParams):
        self.model = model
        self.sampling = sampling
        self._ids: dict[tuple[int, ...], int] = {}
        self._keys: list[tuple[int, ...]] = []
        self._next = np.full((16, model.vocab_size), -1, dtype=np.int32)  # id x token
        self._row = np.full(16, -1)  # context id -> row, -1 until built
        self.probs = np.empty((16, model.vocab_size))
        self.cdf = np.empty_like(self.probs)
        self._rows = 0
        self._add_rows([Categorical.uniform(model.vocab_size)])

    def _add_rows(self, dists: list[Categorical]) -> range:
        new = range(self._rows, self._rows + len(dists))
        while new.stop > len(self.probs):  # full: double the tables
            self.probs = np.concatenate([self.probs, np.empty_like(self.probs)])
            self.cdf = np.concatenate([self.cdf, np.empty_like(self.cdf)])
        block = self.probs[new.start : new.stop]
        block[:] = [dist.probs for dist in dists]
        np.cumsum(block, axis=1, out=self.cdf[new.start : new.stop])
        self._rows = new.stop
        return new

    def _intern(self, key: tuple[int, ...]) -> int:
        cid = self._ids.get(key)
        if cid is None:
            cid = self._ids[key] = len(self._keys)
            self._keys.append(key)
            if cid == len(self._row):  # full: double the tables
                self._next = np.concatenate([self._next, np.full_like(self._next, -1)])
                self._row = np.concatenate([self._row, np.full_like(self._row, -1)])
        return cid

    def context(self, prefix: Sequence[int]) -> int:
        """Context id of the position after ``prefix``."""
        return self._intern(self.model.context_key(prefix))

    def next_ctx(self, ids: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Context ids after appending ``tokens[i]`` to context ``ids[i]``."""
        out = self._next[ids, tokens]
        if out.size and out.min() < 0:
            missing, order = out < 0, self.model.spec.context_order
            for cid, token in zip(ids[missing].tolist(), tokens[missing].tolist()):
                key = self._keys[cid][1:] + (token,) if order else ()
                self._next[cid, token] = self._intern(key)
            out = self._next[ids, tokens]
        return out

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Row of the target law of each context id, built on first use."""
        out = self._row[ids]
        if out.size and out.min() < 0:
            missing = np.unique(ids[out < 0])
            self._row[missing] = self._add_rows([self._build(cid) for cid in missing.tolist()])
            out = self._row[ids]
        return out

    def _build(self, cid: int) -> Categorical:
        key, sampling = self._keys[cid], self.sampling
        logits = self.model.logits(key)
        if sampling.cfg_scale > 0:
            logits = mix_cfg(logits, self.model.logits(key, uncond=True), sampling.cfg_scale)
        return apply_processors(logits, sampling.temperature, sampling.top_k, sampling.top_p)

    def categorical(self, row: int) -> Categorical:
        """Row ``row`` as a :class:`Categorical` (a read-only view)."""
        return Categorical._from_normalized(self.probs[row])

    def dist(self, prefix: Sequence[int]) -> Categorical:
        """Target law at the next position after ``prefix``."""
        return self.categorical(self.rows(np.array([self.context(prefix)]))[0])

    def window_dists(
        self, context: Sequence[int], window: Sequence[int]
    ) -> list[Categorical]:
        """Target laws for all window positions in one parallel evaluation.

        Position j is conditioned on ``context`` followed by window tokens
        strictly before j, so the result equals ``len(window)`` sequential
        ``dist`` calls on the corresponding prefixes.
        """
        ids = [self.context([*context, *window[:j]]) for j in range(len(window))]
        return [self.categorical(row) for row in self.rows(np.array(ids, dtype=np.int64))]


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
