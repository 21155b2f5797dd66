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


def record_hamming(tokens: np.ndarray, prev_tokens: np.ndarray, comparable: np.ndarray,
                   rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per trial: draft tokens changed versus the previous iteration, over
    the ``comparable`` slots (those with a previous draft).  Slot i belongs to
    trial ``rows[i]`` of ``count``; returns the per-trial (changed, compared)
    counts."""
    changed = comparable & (tokens != prev_tokens)
    return (np.bincount(rows[changed], minlength=count),
            np.bincount(rows[comparable], minlength=count))


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
    u = uniforms_at(derive_keys(keys, "vanilla", np.arange(n)[:, None]), 1)
    out, trials = np.empty((len(keys), n), dtype=np.int64), np.arange(len(keys))
    for i in range(n):
        rows = sampler.rows(sampler.codes(out, trials, i))
        out[:, i] = inverse_cdf_rows(sampler.probs, sampler.cdf, rows, u[i])
    return out


def _sjd_chunk(sampler, n, window, coupler, keys, redraft, log, offset):
    """Jacobi decoding of one chunk of trials in lockstep (shared iteration t).
    With a ``log``, each iteration appends its statistics to it, naming the
    chunk's trial i as the run's trial ``offset + i``.

    Slot state lives at (trial, position), where the tokens are: ``out``
    holds finalized tokens, then current drafts; ``drow``, ``prow`` and
    ``ptok`` hold a slot's draft-law row, previous draft-law row (-1: none,
    not re-drafted) and previous draft token.  A window is the flat list of
    slots ``start[i] + j``, j < width, of trial ``live[i]``: sliding it moves
    nothing, and finished trials leave ``live``.  A slot still on the uniform
    initializer's row (never a model row) has not been in a window: fresh.

    Each iteration draws every slot's draft uniforms 1, 2 and verify uniform
    1 in one ``uniforms_at`` call; :func:`_residuals` draws the verify
    residual's uniform 2.  :func:`_redraft`, the one per-coupler function,
    takes the draft uniforms.  A slot's Gumbel noise is a function of its
    trial and position, so it is computed where it is used, not stored.
    """
    count, uniform = len(keys), sampler.UNIFORM_ROW
    live, start = np.arange(count), np.zeros(count, np.int64)
    drow, prow, ptok = np.full((3, count, n), np.reshape([uniform, -1, 0], (3, 1, 1)), np.int64)
    keyring = np.stack([derive_keys(keys, label) for label in ("draft", "verify", "gumbel")], 1)
    out = np.empty((count, n), dtype=np.int64)

    t = 0
    while len(live):
        if t >= 4 * n + 64:  # stall guard; progress is guaranteed per convention
            raise RuntimeError("decode_sjd failed to make progress")
        width = np.minimum(window, n - start)
        first = np.cumsum(width) - width  # flat index of each trial's first slot
        wb = np.repeat(np.arange(len(live)), width)
        wj = np.arange(len(wb)) - first[wb]
        tr, ps = live[wb], start[wb] + wj
        dkeys, vkeys = derive_keys(keyring[wb, :2], t, ps[:, None]).T
        u = uniforms_at(np.stack([dkeys, dkeys, vkeys]), [[1], [2], [1]])

        # Drafting.  Fresh slots sample independently from the uniform
        # initializer; surviving slots re-draw through the coupler; redraft
        # carry-overs (no previous draft) keep their verify-produced token.
        dr, pr = drow[tr, ps], prow[tr, ps]
        fresh, redo = dr == uniform, pr >= 0
        out[tr[fresh], ps[fresh]] = inverse_cdf_rows(
            sampler.probs, sampler.cdf, dr[fresh], u[0, fresh]
        )
        at = tr[redo], ps[redo]
        out[at] = _redraft(sampler, coupler, dr[redo], pr[redo], ptok[at], u[:2, redo],
                           keyring[wb[redo], 2], ps[redo])

        # Evaluate every window in one parallel model call per trial.
        tok = out[tr, ps]
        ev = sampler.rows(sampler.codes(out, tr, ps))
        probs = sampler.probs
        if log is not None:
            changed, compared = record_hamming(tok, ptok[tr, ps], redo, wb, len(live))
            seen = ~fresh
            betas = record_beta(probs[ev[seen]], probs[dr[seen]])

        # Verify in order until the first rejection; one scalar residual
        # draw per rejecting trial, through ``decoder.mrs`` (see _residuals).
        reject = ~mrs_accepts(u[2], probs[ev, tok], probs[dr, tok])
        stop = width.copy()
        np.minimum.at(stop, wb[reject], wj[reject])
        rejected = stop < width
        x = (first + stop)[rejected]
        at = tr[x], ps[x]
        out[at] = _residuals(sampler, ev[x], dr[x], tok[x], vkeys[x])
        if redraft:
            # the residual token becomes the slot's next draft, its law the
            # new evaluation; it is accepted with certainty next iteration
            done = stop
            drow[at], prow[at] = ev[x], -1
        else:
            done = stop + rejected

        # Slide: survivors past the scan stop carry the new evaluation as
        # their draft law and their current draft as previous data.
        slide = wj > stop[wb]
        at = tr[slide], ps[slide]
        ptok[at], prow[at], drow[at] = tok[slide], dr[slide], ev[slide]

        if log is not None:
            log.append((np.stack([offset + live, done, changed, compared]),
                        np.stack([offset + tr[seen], ps[seen]]), betas))
        start = start + done
        keep = start < n
        live, start, keyring = live[keep], start[keep], keyring[keep]
        t += 1
    return out


def _redraft(sampler, coupler, rows, prev_rows, prev_tokens, u, gumbel_keys, positions):
    """New drafts of surviving slots through the coupler, the engine's only
    per-coupler code.  Rows 0 and 1 of ``u`` are the slots' draft uniforms 1
    and 2 this iteration; a slot's Gumbel noise is uniforms 1..V of
    ``derive_keys(gumbel_key, pos)``."""
    probs = sampler.probs
    if coupler is CouplerKind.INDEPENDENT:
        return inverse_cdf_rows(probs, sampler.cdf, rows, u[0])
    if coupler is CouplerKind.GUMBEL:
        slot_keys = derive_keys(gumbel_keys, positions)[:, None]
        noise = gumbel_from_uniform(uniforms_at(slot_keys, np.arange(1, probs.shape[1] + 1)))
        return gumbel_argmax(probs[rows], noise)
    # maximal: modified rejection sampling of the previous draft; rejected
    # slots draw their residual row-wise on the second uniform, as mrs would
    drafts = prev_tokens.copy()
    reject = ~mrs_accepts(u[0], probs[rows, prev_tokens], probs[prev_rows, prev_tokens])
    drafts[reject] = mrs_residual_rows(probs, rows[reject], prev_rows[reject], u[1, reject])
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
