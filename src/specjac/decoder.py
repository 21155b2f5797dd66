"""The decode engine: vanilla autoregressive decoding and speculative Jacobi
decoding with pluggable draft coupling, for a batch of trials in lockstep.

Jacobi decoding keeps a window of future draft tokens.  Each iteration
re-drafts the window from the latest evaluated distributions (optionally
coupled to the previous draft), evaluates the whole window in one model call,
then verifies drafts in order with modified rejection sampling until the
first rejection.  Token cost is measured as NFE: the number of sequential
window evaluations.  For every coupler the law of the finalized sequence is
identical to vanilla decoding; the couplers differ only in how fast drafts
stabilize, and therefore in NFE.  Every trial draws from its own keyed
streams, so a batch decodes each trial exactly as a one-trial call would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .couplers import (
    gumbel_argmax, gumbel_from_uniform, inverse_cdf_rows, mrs, mrs_accepts, mrs_residual_rows,
)
from .model import SamplingParams, TabularModel, TargetSampler, TokenSequence
from .rng import RandomSource, derive_keys, uniforms_at

# Trials decoded in lockstep at a time: larger runs go in chunks, so the
# engine's memory does not grow with the trial count.
TRIAL_CHUNK = 1024


class CouplerKind(Enum):
    """Strategy for drawing a window draft from the current distribution."""

    INDEPENDENT = "independent"
    MAXIMAL = "maximal"
    GUMBEL = "gumbel"


@dataclass(frozen=True, eq=False)
class DecodeStats:
    """Statistics of one decode run, as flat columns.

    ``nfe`` has one entry per trial.  ``finalized`` (tokens finalized),
    ``changed`` (draft tokens changed versus the previous iteration) and
    ``compared`` (slots with a previous draft) have one entry per (trial,
    iteration), trial-major in iteration order: trial i owns the next
    ``nfe[i]`` entries.  ``betas`` has one entry per recorded analytic
    acceptance rate, trial-major in (iteration, slot) order, with its trial
    in ``beta_trials`` and its sequence position in ``beta_positions``.
    """

    nfe: np.ndarray
    finalized: np.ndarray
    changed: np.ndarray
    compared: np.ndarray
    betas: np.ndarray
    beta_trials: np.ndarray
    beta_positions: np.ndarray

    def mean_hamming(self) -> list[float | None]:
        """Per trial: mean draft tokens changed over the iterations with a
        previous draft, None without one (sums of small counts are exact)."""
        trial, seen = np.repeat(np.arange(len(self.nfe)), self.nfe), self.compared > 0
        counts = np.bincount(trial, seen, len(self.nfe)).tolist()
        sums = np.bincount(trial, np.where(seen, self.changed, 0), len(self.nfe)).tolist()
        return [s / c if c else None for s, c in zip(sums, counts)]

    def mean_beta(self) -> list[float | None]:
        """Per trial: mean recorded beta, None without one.  ``np.mean`` of a
        trial's contiguous slice sums pairwise in the order of a list of its
        betas; segmented sums (``reduceat``, weighted ``bincount``) do not."""
        bounds = np.searchsorted(self.beta_trials, np.arange(len(self.nfe) + 1)).tolist()
        return [float(np.mean(self.betas[a:b])) if b > a else None
                for a, b in zip(bounds, bounds[1:])]


def record_beta(new_probs: np.ndarray, draft_probs: np.ndarray) -> np.ndarray:
    """Analytic acceptance rates of the imminent verify step: row i is
    1 - TV(just-evaluated law, law the draft was drawn from).  The engine
    scores only slots whose draft law is a model evaluation, not the
    uniform initializer."""
    return 1.0 - 0.5 * np.abs(new_probs - draft_probs).sum(axis=1)


def record_hamming(
    tokens: np.ndarray, prev_tokens: np.ndarray, comparable: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per trial (row): draft tokens changed versus the previous iteration,
    over the ``comparable`` slots (those with a previous draft); returns the
    per-row (changed, compared) counts."""
    changed = (comparable & (tokens != prev_tokens)).sum(axis=1)
    return changed, comparable.sum(axis=1)


def trial_keys(master: RandomSource, trials: int) -> np.ndarray:
    """Stream keys of ``master.derive("trial", k)`` for k < ``trials``."""
    return derive_keys(master.key, "trial", np.arange(trials))


def decode_trials(
    sampler: TargetSampler,
    n: int,
    keys: np.ndarray,
    coupler: CouplerKind | None = None,
    window: int = 1,
    redraft: bool = False,
    stats: bool = True,
) -> tuple[np.ndarray, DecodeStats | None]:
    """Decode one length-``n`` sequence per trial key, all trials in lockstep.

    ``keys[i]`` is the stream key of trial i's random source, and trial i
    draws exactly what a one-key call on ``keys[i]`` draws.  ``coupler``
    None selects vanilla decoding; otherwise speculative Jacobi decoding
    with that draft coupler, ``window`` and rejection convention (see
    :func:`decode_sjd`).  Returns the (trials, n) token matrix and, when
    ``stats`` is true, the run's :class:`DecodeStats` (else None).  Trials
    run in chunks of ``TRIAL_CHUNK``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    keys = np.asarray(keys, dtype=np.uint64)
    tokens = np.empty((len(keys), n), dtype=np.int64)
    # per iteration: (trial, finalized, changed, compared) rows, the (trial,
    # position) of each beta, and the betas; trial ids count across chunks
    empty = (np.empty((4, 0), np.int64), np.empty((2, 0), np.int64), np.empty(0))
    log = [empty] if stats else None
    for lo in range(0, len(keys), TRIAL_CHUNK):
        chunk, part = keys[lo : lo + TRIAL_CHUNK], slice(lo, lo + TRIAL_CHUNK)
        if coupler is None:
            tokens[part] = _vanilla_chunk(sampler, n, chunk)
        else:
            tokens[part] = _sjd_chunk(sampler, n, window, coupler, chunk, redraft, log, lo)
    if log is None:
        return tokens, None
    if coupler is None:  # one model call per token, which it finalizes
        steps = np.zeros((4, len(keys) * n), np.int64)
        steps[0], steps[1] = np.repeat(np.arange(len(keys)), n), 1
        log.append((steps, *empty[1:]))
    # trial-major: stable sorts keep each trial's entries in log order
    steps, spots, betas = (np.concatenate(part, axis=-1) for part in zip(*log))
    steps = steps[:, np.argsort(steps[0], kind="stable")]
    order = np.argsort(spots[0], kind="stable")
    nfe = np.bincount(steps[0], minlength=len(keys))
    return tokens, DecodeStats(nfe, *steps[1:], betas[order], *spots[:, order])


def _vanilla_chunk(sampler, n, keys):
    token_keys, trials = derive_keys(keys, "vanilla"), np.arange(len(keys))
    out = np.empty((len(keys), n), dtype=np.int64)
    for i in range(n):
        rows = sampler.rows(sampler.codes(out, trials, i))
        u = uniforms_at(derive_keys(token_keys, i), 1)
        out[:, i] = inverse_cdf_rows(sampler.probs, sampler.cdf, rows, u)
    return out


def _sjd_chunk(sampler, n, window, coupler, keys, redraft, log, offset):
    """Jacobi decoding of one chunk of trials in lockstep (shared iteration t).
    With a ``log``, each iteration appends its statistics to it, naming the
    chunk's trial i as the run's trial ``offset + i``.

    Slot state is window-relative: column j of row i is position
    ``start[i] + j`` of trial ``live[i]``; columns below ``made[i]`` hold
    slots that survived earlier iterations.  ``drow``/``prow`` are table rows
    of a slot's draft law and previous draft law (``prow`` -1: no previous
    draft, not re-drafted).  Finished trials leave the arrays; the rest
    shift left by their progress.  ``out`` holds each trial's finalized
    tokens, then its current drafts at the window's positions, where the
    context codes of the window slots are read.

    :func:`_redraft` is the one per-coupler function.  A slot's Gumbel noise
    is a function of its trial and position, so it is computed where it is
    used and does not move with the slots.
    """
    count, uniform = len(keys), sampler.UNIFORM_ROW
    cols = np.arange(window)
    live = np.arange(count)
    start, made = np.zeros(count, np.int64), np.zeros(count, np.int64)
    slots = np.zeros((4, count, window), dtype=np.int64)  # tok, ptok, drow, prow
    slots[2], slots[3] = uniform, -1
    tok, ptok, drow, prow = slots
    keyring = np.stack([derive_keys(keys, label) for label in ("draft", "verify", "gumbel")], 1)
    out = np.empty((count, n), dtype=np.int64)

    t = 0
    while len(live):
        if t >= 4 * n + 64:  # stall guard; progress is guaranteed per convention
            raise RuntimeError("decode_sjd failed to make progress")
        width = np.minimum(window, n - start)
        in_win = cols < width[:, None]
        pos = start[:, None] + cols
        dkeys, vkeys = derive_keys(keyring[:, :2, None], t, pos[:, None]).swapaxes(0, 1)

        # Drafting.  Fresh slots sample independently from the uniform
        # initializer; surviving slots re-draw through the coupler; redraft
        # carry-overs (no previous draft) keep their verify-produced token.
        fb, fj = np.nonzero(in_win & (cols >= made[:, None]))
        drow[fb, fj], prow[fb, fj] = uniform, -1
        tok[fb, fj] = inverse_cdf_rows(
            sampler.probs, sampler.cdf, drow[fb, fj], uniforms_at(dkeys[fb, fj], 1)
        )
        redo = in_win & (prow >= 0)
        rb, rj = np.nonzero(redo)
        tok[rb, rj] = _redraft(sampler, coupler, drow[rb, rj], prow[rb, rj], ptok[rb, rj],
                               dkeys[rb, rj], keyring[rb, 2], pos[rb, rj])

        # Evaluate every window in one parallel model call per trial.
        wb, wj = np.nonzero(in_win)
        out[live[wb], pos[wb, wj]] = tok[wb, wj]
        ev = np.zeros_like(tok)
        ev[wb, wj] = sampler.rows(sampler.codes(out, live[wb], pos[wb, wj]))
        probs = sampler.probs
        if log is not None:
            changed, compared = record_hamming(tok, ptok, redo)
            sb, sj = np.nonzero(in_win & (drow != uniform))
            betas = record_beta(probs[ev[sb, sj]], probs[drow[sb, sj]])

        # Verify in order until the first rejection; one scalar residual
        # draw per rejecting trial, through ``decoder.mrs`` (see _residuals).
        x = tok[wb, wj]
        accept = np.ones_like(in_win)
        accept[wb, wj] = mrs_accepts(
            uniforms_at(vkeys[wb, wj], 1), probs[ev[wb, wj], x], probs[drow[wb, wj], x]
        )
        rejected = ~accept.all(axis=1)
        stop = np.where(rejected, np.argmin(accept, axis=1), width)
        xb = np.flatnonzero(rejected)
        xj = stop[xb]
        residual = _residuals(sampler, ev[xb, xj], drow[xb, xj], tok[xb, xj], vkeys[xb, xj])
        final = tok.copy()
        if redraft:
            # the residual token becomes the slot's next draft, its law the
            # new evaluation; it is accepted with certainty next iteration
            done = stop
            tok[xb, xj], drow[xb, xj], prow[xb, xj] = residual, ev[xb, xj], -1
        else:
            done = stop + rejected
            final[xb, xj] = residual
        ab, aj = np.nonzero(cols < done[:, None])
        out[live[ab], start[ab] + aj] = final[ab, aj]

        # Slide: survivors past the scan stop carry the new evaluation as
        # their draft law and their current draft as previous data.
        slide = in_win & (cols > stop[:, None])
        ptok[slide], prow[slide], drow[slide] = tok[slide], drow[slide], ev[slide]

        if log is not None:
            trial = offset + live
            log.append((np.stack([trial, done, changed, compared]),
                        np.stack([trial[sb], start[sb] + sj]), betas))
        start, made = start + done, width - done

        keep = start < n
        shift = np.minimum(cols + done[:, None], window - 1)[keep]
        live, start, made, keyring = (a[keep] for a in (live, start, made, keyring))
        tok, ptok, drow, prow = slots = np.take_along_axis(slots[:, keep], shift[None], axis=2)
        t += 1
    return out


def _redraft(sampler, coupler, rows, prev_rows, prev_tokens, keys, gumbel_keys, positions):
    """New drafts of surviving slots through the coupler, the engine's only
    per-coupler code.  ``keys`` are the slots' draft streams this iteration;
    a slot's Gumbel noise is uniforms 1..V of ``derive_keys(gumbel_key, pos)``."""
    probs = sampler.probs
    if coupler is CouplerKind.INDEPENDENT:
        return inverse_cdf_rows(probs, sampler.cdf, rows, uniforms_at(keys, 1))
    if coupler is CouplerKind.GUMBEL:
        slot_keys = derive_keys(gumbel_keys, positions)[:, None]
        noise = gumbel_from_uniform(uniforms_at(slot_keys, np.arange(1, probs.shape[1] + 1)))
        return gumbel_argmax(probs[rows], noise)
    # maximal: modified rejection sampling of the previous draft; rejected
    # slots draw their residual row-wise on the second uniform, as mrs would
    drafts = prev_tokens.copy()
    reject = ~mrs_accepts(
        uniforms_at(keys, 1), probs[rows, prev_tokens], probs[prev_rows, prev_tokens]
    )
    drafts[reject] = mrs_residual_rows(
        probs, rows[reject], prev_rows[reject], uniforms_at(keys[reject], 2)
    )
    return drafts


def _residuals(sampler, p_rows, q_rows, tokens, keys) -> np.ndarray:
    """Outputs of rejecting verify steps, one scalar :func:`mrs` call each on
    the slot's own stream (its first draw repeats the vectorised accept test).

    Verify-only: redraft residuals go through :func:`mrs_residual_rows`.
    The scalar call stays because mutation checks of the losslessness gate
    (acceptance criterion 11, the benchmark's self-test) patch
    ``decoder.mrs`` with a scalar signature."""
    return np.array([
        mrs(sampler.categorical(p), sampler.categorical(q), x, RandomSource.from_key(k)).token
        for p, q, x, k in zip(p_rows.tolist(), q_rows.tolist(), tokens.tolist(), keys.tolist())
    ], dtype=np.int64)


def decode_vanilla(
    model: TabularModel,
    sampling: SamplingParams,
    n: int,
    rng: RandomSource,
    sampler: TargetSampler | None = None,
) -> tuple[TokenSequence, DecodeStats]:
    """Sequential decoding: one model evaluation per emitted token.

    Token i is the inverse-CDF draw of the first uniform of
    ``rng.derive("vanilla", i)``.  A one-trial call of
    :func:`decode_trials`.
    """
    sampler = sampler or TargetSampler(model, sampling)
    tokens, stats = decode_trials(sampler, n, np.array([rng.key], dtype=np.uint64))
    return tuple(tokens[0].tolist()), stats


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
    iterations and guarantees only nfe <= 2n.  A one-trial call of
    :func:`decode_trials`.
    """
    sampler = sampler or TargetSampler(model, sampling)
    keys = np.array([rng.key], dtype=np.uint64)
    tokens, stats = decode_trials(sampler, n, keys, coupler, window, redraft)
    return tuple(tokens[0].tolist()), stats
