"""Reference formulas for the oracle's law arithmetic and estimators.

An exact law here is a dict from token tuples to probabilities, listed in
reverse lexicographic order; an empirical law is a ``Counter`` of decoded
rows.  These are the TV, noise-band and chi-square computations the oracle
made on that format before it kept laws as code-indexed vectors; the
vector versions must reproduce them bit for bit.  The shared-noise collision
estimate is the one-shot formula, every trial's noise drawn in one matrix.
"""

import math
from collections import Counter

import numpy as np
from scipy.stats import chi2 as chi2_dist

from specjac.oracle import TestReport


def dict_law(exact: np.ndarray, vocab: int, length: int) -> dict:
    """The exact law vector as a dict in listing order, support only."""
    return {
        tuple(int(d) for d in np.unravel_index(code, (vocab,) * length)): float(exact[code])
        for code in np.flatnonzero(exact)[::-1]
    }


def count_rows(rows: np.ndarray) -> Counter:
    return Counter(map(tuple, rows.tolist()))


def tv_to_exact(counts: Counter, total: int, exact: dict) -> float:
    tv = 0.0
    for seq, prob in exact.items():
        tv += abs(counts.get(seq, 0) / total - prob)
    for seq, count in counts.items():
        if seq not in exact:
            tv += count / total
    return 0.5 * tv


def expected_sampling_tv(exact: dict, trials: int) -> float:
    acc = 0.0
    for prob in exact.values():
        acc += math.sqrt(2.0 * prob * (1.0 - prob) / (math.pi * trials))
    return 0.5 * acc


def expected_sampling_tv_std(exact: dict, trials: int) -> float:
    acc = 0.0
    for prob in exact.values():
        acc += (1.0 - 2.0 / math.pi) * prob * (1.0 - prob) / trials
    return 0.5 * math.sqrt(acc)


def gof_test(
    counts: Counter, total: int, exact: dict, name: str = "gof", alpha: float = 0.001
) -> TestReport:
    out_of_support = sum(c for s, c in counts.items() if s not in exact)
    if out_of_support:
        return TestReport(
            name, 0.0, alpha, False, total,
            notes=f"{out_of_support} observations outside the exact support",
        )
    keys = list(exact.keys())
    probs = np.array([exact[k] for k in keys])
    observed = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
    small = probs < 5.0 / total
    kept_obs = observed[~small]
    kept_exp = probs[~small] * total
    tail_p = float(probs[small].sum())
    cells_obs = list(kept_obs)
    cells_exp = list(kept_exp)
    if tail_p > 0.0:
        cells_obs.append(float(observed[small].sum()))
        cells_exp.append(tail_p * total)
    ncells = len(cells_obs)
    if ncells <= 1:
        matches = ncells == 1 and cells_obs[0] == total
        return TestReport(
            name, 1.0 if matches else 0.0, alpha, matches, total,
            notes="degenerate single-cell law",
        )
    obs = np.array(cells_obs)
    exp = np.array(cells_exp)
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = ncells - 1
    p_value = float(chi2_dist.sf(statistic, dof))
    return TestReport(
        name, p_value, alpha, p_value > alpha, total,
        notes=f"chi2={statistic:.3f} dof={dof} pooled={int(small.sum())}",
    )


def estimate_gumbel_collision(p, q, trials: int, rng) -> float:
    """Shared-noise collision rate from one ``trials x V`` matrix of Gumbel
    noise, the transform and argmax written out."""
    vocab = p.vocab_size
    u = np.clip(rng.uniforms(trials * vocab), np.finfo(np.float64).tiny, 1.0 - 2.0**-53)
    noise = (-np.log(-np.log(u))).reshape(trials, vocab)
    with np.errstate(divide="ignore"):
        x = np.argmax(np.log(p.probs) + noise, axis=-1)
        y = np.argmax(np.log(q.probs) + noise, axis=-1)
    return float(np.mean(x == y))
