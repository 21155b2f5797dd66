"""Reference decoder: one trial, slot by slot, through the scalar layer.

This is the algorithm of ``decoder.decode_trials`` written for one sequence
the way a reader would write it: vanilla decoding, then speculative Jacobi
decoding with a draft coupler.  It draws on the engine's keyed streams
(``derive_keys``, ``uniforms_at``) and samples with the one-law functions
(``inverse_cdf``, ``mrs``, ``gumbel_from_uniform``, ``TargetSampler.dist``),
so the lockstep engine must reproduce it token for token and statistics row
for statistics row.
"""

import numpy as np

from specjac.couplers import gumbel_from_uniform, inverse_cdf, mrs
from specjac.decoder import CouplerKind
from specjac.rng import RandomSource, derive_keys, uniforms_at


def _key(*parts) -> int:
    return int(derive_keys(*parts)[0])


def _uniform(key: int, counter: int) -> float:
    return float(uniforms_at(key, counter)[0])


def reference_decode(sampler, n, key, coupler=None, window=1, redraft=False):
    """Decode one length-``n`` trial on stream key ``key``.  Returns its
    tokens, its NFE and one (finalized, changed, compared) row per model
    call; ``coupler`` None is vanilla decoding."""
    if coupler is None:  # token i: the first uniform of the trial's ("vanilla", i) stream
        tokens = []
        for i in range(n):
            u = _uniform(_key(key, "vanilla", i), 1)
            tokens.append(inverse_cdf(sampler.dist(tokens).probs, u))
        return tokens, n, [(1, 0, 0)] * n

    draft_key, verify_key, gumbel_key = (_key(key, part) for part in ("draft", "verify", "gumbel"))
    uniform = sampler.categorical(sampler.UNIFORM_ROW)
    tokens = [0] * n
    law = {}  # position -> the law its draft was drawn from; absent: fresh
    previous = {}  # position -> the law of its previous draft, while it awaits a re-draw
    rows, start = [], 0
    while start < n:
        t, span = len(rows), range(start, min(start + window, n))
        changed = compared = 0
        for pos in span:  # draft
            stream = _key(draft_key, t, pos)
            if pos not in law:  # fresh: an independent draw from the uniform initializer
                law[pos] = uniform
                tokens[pos] = inverse_cdf(uniform.probs, _uniform(stream, 1))
            elif pos in previous:  # a survivor: re-drawn from its new law through the coupler
                p, q, old = law[pos], previous.pop(pos), tokens[pos]
                if coupler is CouplerKind.INDEPENDENT:
                    tokens[pos] = inverse_cdf(p.probs, _uniform(stream, 1))
                elif coupler is CouplerKind.MAXIMAL:  # couple to the previous draft
                    tokens[pos] = mrs(p, q, old, RandomSource.from_key(stream)).token
                else:  # the slot's own Gumbel noise, the same at every re-draw
                    vocab = np.arange(1, len(p.probs) + 1)
                    noise = gumbel_from_uniform(uniforms_at(_key(gumbel_key, pos), vocab))
                    with np.errstate(divide="ignore"):
                        tokens[pos] = int(np.argmax(np.log(p.probs) + noise))
                changed += tokens[pos] != old
                compared += 1
            # else a redraft carry-over keeps its residual token
        evals = {pos: sampler.dist(tokens[:pos]) for pos in span}  # the one model call
        stop = span.stop
        for pos in span:  # verify in order until the first rejection
            stream = RandomSource.from_key(_key(verify_key, t, pos))
            step = mrs(evals[pos], law[pos], tokens[pos], stream)
            if not step.accepted:
                stop, tokens[pos] = pos, step.token
                break
        if redraft and stop < span.stop:  # the residual token becomes the next draft
            law[stop], done = evals[stop], stop - start
        else:
            done = min(stop + 1, span.stop) - start
        for pos in range(stop + 1, span.stop):  # slide: survivors draft from the new law
            previous[pos], law[pos] = law[pos], evals[pos]
        rows.append((done, changed, compared))
        start += done
    return tokens, len(rows), rows
