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
        previous draft, None without one.  ``changed`` is 0 wherever ``compared``
        is 0, so it sums unmasked (sums of small counts are exact)."""
        trial = np.repeat(np.arange(len(self.nfe)), self.nfe)
        counts = np.bincount(trial, self.compared > 0, len(self.nfe)).tolist()
        sums = np.bincount(trial, self.changed, len(self.nfe)).tolist()
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
    with that draft coupler and ``window``.  Returns the (trials, n) token
    matrix and, when ``stats`` is true, the run's :class:`DecodeStats` (else
    None).  Trials run in chunks of ``TRIAL_CHUNK``, and each chunk's function
    logs its statistics as it decodes; this function only sorts the log.

    ``redraft`` selects the rejection convention: by default the residual
    token drawn at the first rejection is finalized and the window advances
    past it; with ``redraft=True`` that token instead becomes the position's
    draft for the next iteration (it is then accepted with certainty, since
    its context is already final).  Both conventions produce sequences
    distributed exactly as vanilla decoding; the default finalizes at least
    one token per iteration so nfe <= n, while redraft admits zero-progress
    iterations and guarantees only nfe <= 2n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    keys = np.asarray(keys, dtype=np.uint64)
    tokens = np.empty((len(keys), n), dtype=np.int64)
    # per model call: (trial, finalized, changed, compared) rows, the (trial,
    # position) of each beta, and the betas; trial ids count across chunks,
    # and the first entry is empty
    empty = (np.empty((4, 0), np.int64), np.empty((2, 0), np.int64), np.empty(0))
    log = [empty] if stats else None
    for lo in range(0, len(keys), TRIAL_CHUNK):
        chunk, out = keys[lo : lo + TRIAL_CHUNK], tokens[lo : lo + TRIAL_CHUNK]
        if coupler is None:
            _vanilla_chunk(sampler, n, chunk, log, lo, out)
        else:
            _sjd_chunk(sampler, n, window, coupler, chunk, redraft, log, lo, out)
    if log is None:
        return tokens, None
    # trial-major: stable sorts keep each trial's entries in log order
    steps, spots, betas = (np.concatenate(part, axis=-1) for part in zip(*log))
    steps = steps[:, np.argsort(steps[0], kind="stable")]
    order = np.argsort(spots[0], kind="stable")
    nfe = np.bincount(steps[0], minlength=len(keys))
    return tokens, DecodeStats(nfe, *steps[1:], betas[order], *spots[:, order])


def _vanilla_chunk(sampler, n, keys, log, offset, out):
    """Vanilla decoding of one chunk into its token matrix ``out``.  With a
    ``log``, each model call appends a row per trial ``offset + i``, as in
    :func:`_sjd_chunk`: one token finalized, no slot compared, no beta."""
    u = uniforms_at(derive_keys(keys, "vanilla", np.arange(n)[:, None]), 1)
    trials = np.arange(len(keys))
    step = np.stack(np.broadcast_arrays(offset + trials, 1, 0, 0))
    for i in range(n):
        rows = sampler.rows(sampler.codes(out, trials, i))
        out[:, i] = inverse_cdf_rows(sampler.probs, sampler.cdf_of(rows), rows, u[i])
        if log is not None:
            log.append((step, *log[0][1:]))  # no beta: the log's empty entry


def _sjd_chunk(sampler, n, window, coupler, keys, redraft, log, offset, out):
    """Jacobi decoding of one chunk of trials in lockstep (shared iteration t)
    into the chunk's token matrix ``out``.  With a ``log``, each iteration
    appends its statistics to it, naming trial i as the run's ``offset + i``.

    Slot state lives at (trial, position), where the tokens are: ``out`` holds
    finalized tokens, then current drafts; ``drow`` and ``prow`` hold a slot's
    draft-law row and previous draft-law row (-1: none, not re-drafted).
    Until :func:`_draft` writes, a re-drafted slot's ``out`` entry is its
    previous draft: :func:`_verify` writes only scan-stop slots, which are
    never re-drafted.  A window is the flat list of slots ``start[i] + j``,
    j < width, of trial ``live[i]``: sliding it moves nothing, and finished
    trials leave ``live``.  A slot still on the uniform initializer's row
    (never a model row) is fresh: it has not been in a window.

    Each iteration draws every slot's draft uniforms 1, 2 and verify uniform
    1 in one ``uniforms_at`` call.  :func:`_draft`, the one per-coupler
    function, takes the draft uniforms; :func:`_verify` takes verify
    uniform 1 and draws the rejected slots' verify uniform 2.  Between the two,
    the window is evaluated in one model call per trial.
    """
    count, uniform = len(keys), sampler.UNIFORM_ROW
    live, start = np.arange(count), np.zeros(count, np.int64)
    drow, prow = np.full((2, count, n), np.reshape([uniform, -1], (2, 1, 1)), np.int64)
    keyring = np.stack([derive_keys(keys, label) for label in ("draft", "verify", "gumbel")], 1)

    t = 0
    while len(live):
        if t >= 2 * n:  # stall guard at the proven bound nfe <= 2n (see decode_trials)
            raise RuntimeError("decode_trials failed to make progress")
        width = np.minimum(window, n - start)
        first = np.cumsum(width) - width  # flat index of each trial's first slot
        wb = np.repeat(np.arange(len(live)), width)
        wj = np.arange(len(wb)) - first[wb]
        tr, ps = live[wb], start[wb] + wj
        dkeys, vkeys = derive_keys(keyring[tr, :2], t, ps[:, None]).T
        u = uniforms_at(np.stack([dkeys, dkeys, vkeys]), [[1], [2], [1]])
        dr, pr, prev = drow[tr, ps], prow[tr, ps], out[tr, ps]
        fresh, redo = dr == uniform, pr >= 0
        _draft(sampler, coupler, out, tr, ps, dr, pr, prev, fresh, redo, u[:2], keyring[tr, 2])
        tok = out[tr, ps]
        ev = sampler.rows(sampler.codes(out, tr, ps))
        stop, x = _verify(sampler, out, tr, ps, wb, wj, width, first, u[2], vkeys, dr, tok, ev)
        if redraft:
            # the residual token becomes the slot's next draft, its law the
            # new evaluation; it is accepted with certainty next iteration
            done, at = stop, (tr[x], ps[x])
            drow[at], prow[at] = ev[x], -1
        else:
            done = stop + (stop < width)
        if log is not None:
            seen, probs = ~fresh, sampler.probs
            changed, compared = record_hamming(tok, prev, redo, wb, len(live))
            log.append((np.stack([offset + live, done, changed, compared]),
                        np.stack([offset + tr[seen], ps[seen]]),
                        record_beta(probs[ev[seen]], probs[dr[seen]])))

        # Slide: survivors past the scan stop carry the new evaluation as
        # their draft law; their draft stays in ``out`` as the previous one.
        slide = wj > stop[wb]
        at = tr[slide], ps[slide]
        prow[at], drow[at] = dr[slide], ev[slide]
        start = start + done
        keep = start < n
        live, start = live[keep], start[keep]
        t += 1


def _draft(sampler, coupler, out, tr, ps, rows, prev_rows, prev, fresh, redo, u, gumbel_keys):
    """Write every window slot's new draft to ``out``: the engine's only
    per-coupler code.  Slot i is (``tr[i]``, ``ps[i]``), its draft law row
    ``rows[i]``.  Fresh slots draw by inverse CDF, and so do surviving slots
    (``redo``) under the independent coupler; the other couplers re-draw a
    survivor from its previous draft ``prev[i]`` (law ``prev_rows[i]``).
    Redraft carry-overs (neither) keep their verify-produced token.  Rows 0
    and 1 of ``u`` are the slots' draft uniforms 1 and 2; a slot's Gumbel
    noise is uniforms 1..V of ``derive_keys(gumbel_key, pos)``."""
    probs = sampler.probs
    new = fresh | redo if coupler is CouplerKind.INDEPENDENT else fresh
    drawn = rows[new]
    out[tr[new], ps[new]] = inverse_cdf_rows(probs, sampler.cdf_of(drawn), drawn, u[0, new])
    at, rows, u = (tr[redo], ps[redo]), rows[redo], u[:, redo]
    if coupler is CouplerKind.GUMBEL:
        slot_keys = derive_keys(gumbel_keys[redo], at[1])[:, None]
        noise = gumbel_from_uniform(uniforms_at(slot_keys, np.arange(1, probs.shape[1] + 1)))
        out[at] = gumbel_argmax(probs[rows], noise)
    elif coupler is CouplerKind.MAXIMAL:  # modified rejection sampling of the
        # previous draft; rejected slots draw their residual row-wise on uniform 2
        prev_rows, drafts = prev_rows[redo], prev[redo]
        reject = ~mrs_accepts(u[0], probs[rows, drafts], probs[prev_rows, drafts])
        drafts[reject] = mrs_residual_rows(probs, rows[reject], prev_rows[reject], u[1, reject])
        out[at] = drafts


def _verify(sampler, out, tr, ps, wb, wj, width, first, u, keys, rows, tokens, evals):
    """Verify each window's drafts in order until its first rejection, by
    modified rejection sampling of draft ``tokens`` (drawn from ``rows``)
    against the new evaluations ``evals`` on verify uniforms ``u``.  Slot i
    is slot ``wj[i]`` of window ``wb[i]``, which starts at flat index
    ``first[wb[i]]`` and holds ``width[wb[i]]`` slots.  Returns each
    window's scan stop (its first rejected slot, else its width) and the
    flat indices of the rejected slots.

    Each rejected slot's residual goes to ``out``: one scalar :func:`mrs`
    call each on the slot's own stream ``keys[i]``, each distinct row
    wrapped as a :class:`Categorical` once per call and shared.  The
    stream's two uniforms are handed over, not drawn again in Python
    (:meth:`RandomSource._from_draws`): uniform 1 is ``u[i]``, which the
    vectorised accept test read, and uniform 2 comes from one
    ``uniforms_at`` call over the rejected slots.  The maximal redraft's
    residuals are row-wise (:func:`_draft`); this call stays scalar because
    mutation checks of the losslessness gate (acceptance criterion 11, the
    benchmark's self-test) patch ``decoder.mrs`` with a scalar signature."""
    probs = sampler.probs
    reject = ~mrs_accepts(u, probs[evals, tokens], probs[rows, tokens])
    stop = width.copy()
    np.minimum.at(stop, wb[reject], wj[reject])
    x = (first + stop)[stop < width]
    p_rows, q_rows, kx = evals[x].tolist(), rows[x].tolist(), keys[x]
    law = {row: sampler.categorical(row) for row in {*p_rows, *q_rows}}
    from_draws = RandomSource._from_draws
    out[tr[x], ps[x]] = np.array([
        mrs(law[p], law[q], token, from_draws(k, draws)).token
        for p, q, token, k, draws in zip(p_rows, q_rows, tokens[x].tolist(), kx.tolist(),
                                         zip(u[x].tolist(), uniforms_at(kx, 2).tolist()))
    ], dtype=np.int64)
    return stop, x


def decode_vanilla(
    model: TabularModel,
    sampling: SamplingParams,
    n: int,
    rng: RandomSource,
) -> tuple[TokenSequence, DecodeStats]:
    """Sequential decoding: one model evaluation per emitted token.

    Token i is the inverse-CDF draw of the first uniform of
    ``rng.derive("vanilla", i)``.  A one-trial call of
    :func:`decode_trials` on a row table of its own; to share one table
    across calls, call :func:`decode_trials`.
    """
    sampler = TargetSampler(model, sampling)
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
) -> tuple[TokenSequence, DecodeStats]:
    """Speculative Jacobi decoding with the chosen draft coupler and
    rejection convention (``redraft``; see :func:`decode_trials`).  A
    one-trial call of :func:`decode_trials` on a row table of its own; to
    share one table across calls, call :func:`decode_trials`.
    """
    sampler, keys = TargetSampler(model, sampling), np.array([rng.key], dtype=np.uint64)
    tokens, stats = decode_trials(sampler, n, keys, coupler, window, redraft)
    return tuple(tokens[0].tolist()), stats
