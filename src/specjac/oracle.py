"""Ground-truth machinery: exact enumeration targets, empirical collection,
the statistical tests that decide losslessness, and the coupling estimators.

The losslessness verdict is two-sided: an interpretable total-variation gate
whose threshold is calibrated from the vanilla decoder (trusted by
construction) plus the analytic noise band of an honest multinomial sample,
and a chi-square goodness-of-fit gate that is powerful against localized
mass shifts.  Both must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtrc

from .couplers import inverse_cdf, negated_gumbel
from .decoder import CouplerKind, decode_trials, trial_keys
from .model import TargetSampler, enumerate_sequence_distribution, sequence_codes
from .prob import Categorical, independent_collision, renyi2_entropy, softmax, tv_distance
from .rng import RandomSource, normals_of


@dataclass
class EmpiricalLaw:
    """Occurrence counts of finalized sequences by code (``sequence_codes``);
    ``total`` counts every decode, rows outside the vocabulary included."""

    counts: np.ndarray
    total: int


@dataclass
class TestReport:
    """One statistical verdict: a named value checked against a threshold."""

    name: str
    value: float
    threshold: float
    passed: bool
    samples: int
    notes: str = ""


def collect(sequences: np.ndarray, vocab: int) -> EmpiricalLaw:
    """Count the rows of a decoded (trials, n) sequence matrix by code over
    a ``vocab``-token alphabet."""
    if len(sequences) < 1:
        raise ValueError("trials must be >= 1")
    codes = sequence_codes(sequences, vocab)
    counts = np.bincount(codes[codes >= 0], minlength=vocab ** sequences.shape[1])
    return EmpiricalLaw(counts, len(sequences))


def _listed(exact: np.ndarray) -> np.ndarray:
    """Codes of the support of an exact law in its listing order (descending)."""
    return np.flatnonzero(exact)[::-1]


def tv_to_exact(law: EmpiricalLaw, exact: np.ndarray) -> float:
    """Total variation between empirical frequencies and the exact law,
    summed over the support in listing order, then the other codes in the
    same order, then the rows outside the vocabulary."""
    freq, p = law.counts[::-1] / law.total, exact[::-1]  # descending codes
    on = p > 0.0
    stray = (law.total - int(law.counts.sum())) / law.total
    terms = np.concatenate([np.abs(freq[on] - p[on]), freq[~on], [stray]])
    return 0.5 * float(np.cumsum(terms)[-1])  # left to right: the order is in the report bytes


def sampling_tv_moments(exact: np.ndarray, trials: int) -> tuple[float, float]:
    """Mean and standard deviation of the TV of an honest multinomial sample
    of ``trials`` draws from the exact law.

    Normal approximation: E|freq_s - p_s| ~ sqrt(2 p_s (1 - p_s) / (pi m))
    and Var|freq_s - p_s| ~ (1 - 2/pi) p_s (1 - p_s) / m per cell, summed as
    if independent; with many comparable cells the statistic concentrates to
    a few percent of its mean, so the band stays tight at scale while small
    runs get an honest width.
    """
    p = exact[_listed(exact)]
    mean = 0.5 * float(np.cumsum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * trials)))[-1])
    var = np.cumsum((1.0 - 2.0 / math.pi) * p * (1.0 - p) / trials)[-1]
    return mean, 0.5 * math.sqrt(var)


def gof_test(law: EmpiricalLaw, exact: np.ndarray, name: str = "gof") -> TestReport:
    """Pearson chi-square of the empirical law against exact probabilities.

    Cells with expected count below 5 are pooled into one tail cell.  Passes
    when the p-value exceeds ``GOF_ALPHA``.  Observations outside the exact
    support fail outright (the exact law assigns them probability zero).
    """
    total, listed = law.total, _listed(exact)
    out_of_support = total - int(law.counts[listed].sum())
    if out_of_support:
        return TestReport(
            name, 0.0, GOF_ALPHA, False, total,
            notes=f"{out_of_support} observations outside the exact support",
        )
    probs, observed = exact[listed], law.counts[listed].astype(np.float64)
    small = probs < 5.0 / total
    obs, exp = observed[~small], probs[~small] * total
    tail_p = float(probs[small].sum())
    if tail_p > 0.0:
        obs = np.append(obs, observed[small].sum())
        exp = np.append(exp, tail_p * total)
    ncells = len(obs)
    if ncells <= 1:
        matches = ncells == 1 and bool(obs[0] == total)
        return TestReport(
            name, 1.0 if matches else 0.0, GOF_ALPHA, matches, total,
            notes="degenerate single-cell law",
        )
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = ncells - 1
    p_value = float(chdtrc(dof, statistic))  # the chi-square survival function
    return TestReport(
        name, p_value, GOF_ALPHA, p_value > GOF_ALPHA, total,
        notes=f"chi2={statistic:.3f} dof={dof} pooled={int(small.sum())}",
    )


# ---------------------------------------------------------------------------
# Coupler-level Monte Carlo estimators: the couplers' own inverse CDF and
# Gumbel noise, applied to whole arrays of draws.
# ---------------------------------------------------------------------------

# Gumbel noise entries drawn and reduced at a time (128 KB of float64): a
# block's counters, uniforms (overwritten by the noise) and scores stay in
# cache.  Their buffers are made once per estimate, not once per block, so
# the estimate's speed does not hang on whether the C allocator reuses freed
# block-sized arrays or pages in new ones.
NOISE_BLOCK = 2**14


def estimate_independent_collision(
    p: Categorical, q: Categorical, trials: int, rng: RandomSource
) -> float:
    """Empirical collision rate of two independent sampling streams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = inverse_cdf(p.probs, rng.derive("x").uniforms(trials))
    y = inverse_cdf(q.probs, rng.derive("y").uniforms(trials))
    return float(np.mean(x == y))


def estimate_gumbel_collision(
    p: Categorical, q: Categorical, trials: int, rng: RandomSource
) -> float:
    """Empirical collision rate of shared-noise Gumbel argmax sampling.

    Trial i's noise is uniforms ``i*V + 1 .. (i+1)*V`` of ``rng``, drawn in
    blocks of whole trials (at least one) of about ``NOISE_BLOCK`` entries;
    ``rng`` ends as one call of ``trials * V`` uniforms would leave it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vocab = p.vocab_size
    per_block = max(1, NOISE_BLOCK // vocab)
    with np.errstate(divide="ignore"):  # zero-probability tokens score -inf
        log_p, log_q = np.log(p.probs), np.log(q.probs)
    # score log p - h with h = -noise, in IEEE arithmetic equal to log p + noise;
    # h overwrites the block's uniforms
    score = np.empty((per_block, vocab))
    hits = 0
    for u in rng.uniform_blocks(trials * vocab, per_block * vocab):
        m = len(u) // vocab
        h, s = negated_gumbel(u, u).reshape(m, vocab), score[:m]
        x = np.argmax(np.subtract(log_p, h, out=s), axis=1)
        y = np.argmax(np.subtract(log_q, h, out=s), axis=1)
        hits += int(np.count_nonzero(x == y))
    return hits / trials


def random_pair(
    vocab: int,
    rng: RandomSource,
    sharpness: float = 1.0,
    closeness: float | None = None,
) -> tuple[Categorical, Categorical]:
    """Random pair; ``closeness`` perturbs the first logits instead of
    drawing independent ones, producing small-TV pairs."""
    base = normals_of(rng.derive("base").uniforms(vocab))
    p = Categorical(softmax(sharpness * base))
    other = normals_of(rng.derive("other").uniforms(vocab))
    if closeness is None:
        q = Categorical(softmax(sharpness * other))
    else:
        q = Categorical(softmax(sharpness * base + closeness * other))
    return p, q


def generate_pairs(
    vocab: int,
    count: int,
    rng: RandomSource,
    sharpness_range: tuple[float, float] = (0.25, 3.0),
) -> list[tuple[Categorical, Categorical]]:
    """Pairs spanning entropy regimes and TV ranges (half independent,
    half perturbed-close)."""
    lo, hi = sharpness_range
    pairs = []
    for i in range(count):
        sub = rng.derive("pair", i)
        sharpness = lo + (hi - lo) * sub.draw_uniform01()
        closeness = None if i % 2 == 0 else 0.05 + 1.5 * sub.draw_uniform01()
        pairs.append(random_pair(vocab, sub, sharpness, closeness))
    return pairs


def pair_coupling(
    p: Categorical, q: Categorical, trials: int, rng: RandomSource
) -> tuple[float, ...]:
    """Coupling statistics of one pair in ``coupling-stats`` column order: TV,
    the independent collision (analytic, estimated), 1 - TV, the shared-noise
    collision (estimated), its bound (1 - TV) / (1 + TV) and the Renyi-2 bound.
    Each estimate takes ``trials`` draws from its own child of ``rng``."""
    tv = tv_distance(p, q)
    return (
        tv, independent_collision(p, q),
        estimate_independent_collision(p, q, trials, rng.derive("independent")),
        1.0 - tv, estimate_gumbel_collision(p, q, trials, rng.derive("gumbel")),
        (1.0 - tv) / (1.0 + tv), float(np.exp(-0.5 * (renyi2_entropy(p) + renyi2_entropy(q)))),
    )


# ---------------------------------------------------------------------------
# Losslessness suite
# ---------------------------------------------------------------------------

# Head room of the TV gate over its calibration (vanilla TV or noise band).
TV_MARGIN = 1.2
# Level of the chi-square gate: it fails when the p-value is at most this.
GOF_ALPHA = 0.001


def run_lossless_suite(
    sampler: TargetSampler,
    n: int,
    window: int,
    trials: int,
    rng: RandomSource,
    conventions: Sequence[bool] = (False,),
    couplers: Sequence[CouplerKind] = tuple(CouplerKind),
) -> list[TestReport]:
    """Compare vanilla and every requested SJD variant to the exact sequence
    law of ``sampler``; the enumeration and every decode share its row table.

    The TV threshold is ``TV_MARGIN`` times the larger of the vanilla
    decoder's measured TV (trusted by construction) and the analytic noise
    band of an honest multinomial sample (mean + 3 std of the TV statistic).
    Once that calibration is known, vanilla and each variant get the same two
    reports, a TV gate and a chi-square gate, in that order.  ``conventions``
    selects the rejection conventions to exercise (False = finalize the
    residual token, True = redraft with it).
    """
    exact = enumerate_sequence_distribution(sampler, n)

    def law_of(label: str, coupler: CouplerKind | None = None, redraft: bool = False):
        keys = trial_keys(rng.derive("collect", label), trials)
        sequences = decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)[0]
        return collect(sequences, sampler.model.vocab_size)

    vanilla_law = law_of("vanilla")
    tv_vanilla = tv_to_exact(vanilla_law, exact)
    mean, std = sampling_tv_moments(exact, trials)
    noise_band = mean + 3.0 * std  # honest-sampling noise band of the TV statistic
    threshold = TV_MARGIN * max(tv_vanilla, noise_band)
    calibration = f"vanilla_tv={tv_vanilla:.6f} noise_band={noise_band:.6f}"

    def gates(label: str, law: EmpiricalLaw, tv: float) -> list[TestReport]:
        return [
            TestReport(f"lossless.tv.{label}", tv, threshold, tv <= threshold, trials,
                       notes=calibration),
            gof_test(law, exact, f"lossless.gof.{label}"),
        ]

    reports = gates("vanilla", vanilla_law, tv_vanilla)
    for redraft in conventions:
        suffix = "-redraft" if redraft else ""
        for coupler in couplers:
            label = coupler.value + suffix
            law = law_of(label, coupler, redraft)
            reports += gates(label, law, tv_to_exact(law, exact))
    return reports
