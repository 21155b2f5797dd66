"""Order-k tabular autoregressive models with exactly enumerable sequence laws.

The model defines one logit vector per context: i.i.d. standard normals
keyed by (seed, context), divided by a flatness knob.  High flatness gives
near-uniform, high-entropy conditionals; low flatness gives peaky ones.
Because every conditional is an explicit finite table, the full sequence
distribution can be enumerated and used as ground truth for the decoders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError
from .prob import Categorical, Logits, apply_processors, mix_cfg
from .rng import RandomSource, derive_keys, normals_of, uniforms_at

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
        if not self.temperature > 0:  # also rejects NaN
            raise ValueError("temperature: must be positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k: must be >= 1")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p: must be in (0, 1]")
        if not 0 <= self.cfg_scale < math.inf:  # also rejects NaN
            raise ValueError("cfg_scale: must be finite and >= 0")


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
        # context codes are int64 (TargetSampler); (vocab_size + 1) ** 63 >= 2**63 already
        if (self.vocab_size + 1) ** min(self.context_order, 63) >= 2**63:
            raise ValueError("context_order: (vocab_size + 1) ** context_order must be < 2**63")
        if not self.flatness > 0:  # also rejects NaN
            raise ValueError("flatness: must be positive")


class TabularModel:
    """Autoregressive model with seeded random logit tables.

    The conditional at each position depends on the last ``context_order``
    tokens of the prefix (left-padded with BOS).  The logits of the
    conditional and the unconditional (guidance) variant are regenerated on
    each call from (seed, context), with nothing cached: evaluation is pure,
    instances are safe to share, and ``TargetSampler`` keeps the rows it
    builds.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        cfg_seed = spec.cfg_seed if spec.cfg_seed is not None else spec.seed + 1
        self._roots = {
            False: RandomSource(spec.seed).derive("logit-table"),
            True: RandomSource(cfg_seed).derive("logit-table"),
        }

    @property
    def vocab_size(self) -> int:
        return self.spec.vocab_size

    def logit_rows(self, contexts: np.ndarray, uncond: bool = False) -> Logits:
        """Stored logits of every row of an ``(R, context_order)`` array of
        contexts (token ids, BOS-padded), as an ``(R, vocab_size)`` matrix.

        Row r holds the normals of the stream ``root.derive(*contexts[r])``
        (``root.derive("root")`` at order 0), divided by the flatness; BOS
        folds into the key as ``2**64 - 1``, as a negative int part does.
        ``uncond`` selects the unconditional variant used for guidance
        mixing.
        """
        root = self._roots[uncond]
        if contexts.shape[1]:
            keys = derive_keys(root.key, *contexts.T)
        else:
            keys = np.broadcast_to(derive_keys(root.key, "root"), len(contexts))
        draws = uniforms_at(keys[:, None], np.arange(1, self.spec.vocab_size + 1))
        return Logits(normals_of(draws) / self.spec.flatness)


class TargetSampler:
    """The target law at every position: guidance mix plus processors.

    This is the distribution every decoder must reproduce; losslessness is
    defined relative to it.  It is a row table over context codes: the code
    of a context (the last ``context_order`` tokens, BOS-padded) is its
    base-(V+1) number, digit 0 for BOS and digit t + 1 for token t, and
    ``codes`` reads the codes of many positions of a token matrix at once.
    ``rows`` maps codes to rows of ``probs`` / ``cdf`` through one
    sorted-code lookup; rows are built on first use, all missing rows of a
    call in one bulk build.
    Row ``UNIFORM_ROW`` is the uniform law (the Jacobi draft initializer).
    One table serves every trial of a model and sampling configuration.
    """

    UNIFORM_ROW = 0

    def __init__(self, model: TabularModel, sampling: SamplingParams):
        self.model = model
        self.sampling = sampling
        self._base = model.vocab_size + 1
        # place value of each digit of a code, most significant first
        self._place = self._base ** np.arange(model.spec.context_order, dtype=np.int64)[::-1]
        # sorted codes of built rows, closed by a sentinel above every code; the row of each
        self._codes, self._code_rows = np.array([np.iinfo(np.int64).max]), np.array([-1])
        self.probs, self.cdf = np.empty((2, 256, model.vocab_size))
        self._rows = 0
        self._add_rows(Categorical.uniform(model.vocab_size).probs[None])

    def _add_rows(self, block: np.ndarray) -> range:
        used = self._rows
        new = range(used, used + len(block))
        if new.stop > len(self.probs):  # full: at least double, one copy of the used rows
            grown = np.empty((2, max(2 * len(self.probs), new.stop), self.model.vocab_size))
            grown[0, :used], grown[1, :used] = self.probs[:used], self.cdf[:used]
            self.probs, self.cdf = grown
        self.probs[new.start : new.stop] = block
        np.cumsum(block, axis=1, out=self.cdf[new.start : new.stop])
        self._rows = new.stop
        return new

    def _digits(self, codes: np.ndarray) -> np.ndarray:
        """``(..., context_order)`` digits of each code, most significant first."""
        return codes[..., None] // self._place % self._base

    def codes(self, seq: np.ndarray, rows, pos) -> np.ndarray:
        """Context codes of positions ``pos`` of rows ``rows`` (broadcast
        together) of the token matrix ``seq``: for the offset vector
        context_order..1, digit t + 1 for the token that many places earlier,
        and digit 0 (BOS) before position 0.  Only tokens before ``pos``
        count, and ``pos`` may equal the width of ``seq``."""
        if not seq.shape[1]:  # no token to read: every digit is BOS
            seq = np.zeros((len(seq), 1), dtype=np.int64)
        rows, pos = np.broadcast_arrays(rows, pos)
        # digits at the offsets k..1 as (k, positions): inner loops run over positions
        at = pos.ravel() - np.arange(len(self._place), 0, -1)[:, None]
        digits = np.where(at >= 0, seq[rows.ravel(), np.maximum(at, 0)] + 1, 0)
        return (self._place @ digits).reshape(pos.shape)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Row of the target law of each context code, built on first use.

        The missing rows are built together: their logits in one matrix,
        then the guidance mix and the processors row by row.
        """
        at = self._codes.searchsorted(ids)
        miss = self._codes[at] != ids
        if miss.any():
            missing = np.unique(ids[miss])
            contexts = self._digits(missing) - 1  # digit 0 is BOS
            model, sampling = self.model, self.sampling
            logits = model.logit_rows(contexts)
            if sampling.cfg_scale > 0:
                uncond = model.logit_rows(contexts, uncond=True)
                logits = mix_cfg(logits, uncond, sampling.cfg_scale)
            dists = apply_processors(logits, sampling.temperature, sampling.top_k, sampling.top_p)
            # merge: new codes land at their sorted slots, old ones fill the rest
            slot = self._codes.searchsorted(missing) + np.arange(len(missing))
            old = np.ones(len(self._codes) + len(missing), dtype=bool)
            old[slot] = False
            codes, code_rows = np.empty((2, len(old)), dtype=np.int64)
            codes[slot], code_rows[slot] = missing, self._add_rows(dists.probs)
            codes[old], code_rows[old] = self._codes, self._code_rows
            self._codes, self._code_rows = codes, code_rows
            at = self._codes.searchsorted(ids)
        return self._code_rows[at]

    def categorical(self, row: int) -> Categorical:
        """Row ``row`` as a :class:`Categorical` (a read-only view)."""
        return Categorical._from_normalized(self.probs[row])

    def dist(self, prefix: Sequence[int]) -> Categorical:
        """Target law at the next position after ``prefix``."""
        seq = np.array(prefix, dtype=np.int64).reshape(1, -1)
        return self.categorical(self.rows(self.codes(seq, [0], [seq.shape[1]]))[0])

    def window_dists(
        self, context: Sequence[int], window: Sequence[int]
    ) -> list[Categorical]:
        """Target laws for all window positions in one parallel evaluation.

        Position j is conditioned on ``context`` followed by window tokens
        strictly before j, so the result equals ``len(window)`` sequential
        ``dist`` calls on the corresponding prefixes.
        """
        seq = np.array([*context, *window], dtype=np.int64).reshape(1, -1)
        ids = self.codes(seq, 0, len(context) + np.arange(len(window)))
        return [self.categorical(row) for row in self.rows(ids)]


def sequence_codes(seqs: np.ndarray, vocab: int) -> np.ndarray:
    """Base-``vocab`` number of each row of a token matrix, first token most
    significant (descending codes list sequences reverse lexicographically);
    -1 for a row with a token outside ``0..vocab-1``.  Codes are int64, so
    ``vocab ** width`` must not exceed 2**63."""
    width = seqs.shape[1]
    if int(vocab) ** width > 2**63:
        raise ValueError(f"sequence codes: vocab ** width = {vocab}^{width} must be <= 2**63")
    codes = seqs @ vocab ** np.arange(seqs.shape[1], dtype=np.int64)[::-1]
    return np.where(((seqs < 0) | (seqs >= vocab)).any(axis=1), -1, codes)


def enumerate_sequence_distribution(
    model: TabularModel,
    sampling: SamplingParams,
    length: int,
) -> np.ndarray:
    """Exact probability of every length-n sequence under sequential sampling,
    as a vector indexed by :func:`sequence_codes` (0.0 off the support).

    The law is built one position at a time over all prefixes with positive
    mass, each mass the left-to-right product of its conditionals.  Raises
    :class:`BudgetError` when ``vocab_size ** length`` exceeds ``ENUMERATION_BUDGET``.
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
    seqs, mass = np.empty((1, 0), dtype=np.int64), np.ones(1)
    for i in range(length):
        probs = sampler.probs[sampler.rows(sampler.codes(seqs, np.arange(len(seqs)), i))]
        prefix, token = np.nonzero(probs > 0.0)
        seqs = np.column_stack([seqs[prefix], token])
        mass = mass[prefix] * probs[prefix, token]
    return np.bincount(sequence_codes(seqs, model.vocab_size), weights=mass, minlength=total)
