"""Ground-truth machinery: exact enumeration targets, empirical collection,
and the statistical tests that decide losslessness and coupling-cost claims.

The losslessness verdict is two-sided: an interpretable total-variation gate
whose threshold is calibrated from the vanilla decoder (trusted by
construction) plus the analytic noise band of an honest multinomial sample,
and a chi-square goodness-of-fit gate that is powerful against localized
mass shifts.  Both must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import chi2 as chi2_dist
from scipy.stats import pearsonr

from .couplers import gumbel_argmax, gumbel_from_uniform, inverse_cdf_sample, mrs_accepts
from .decoder import CouplerKind, DecodeStats, decode_trials, trial_keys
from .model import (
    SamplingParams,
    TabularModel,
    TargetSampler,
    enumerate_sequence_distribution,
    sequence_codes,
)
from .prob import Categorical, independent_collision, renyi2_entropy, softmax, tv_distance
from .rng import RandomSource


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


def collect(
    decode_fn: Callable[[np.ndarray], np.ndarray],
    trials: int,
    rng: RandomSource,
    vocab: int,
) -> EmpiricalLaw:
    """Decode ``trials`` independent substreams in one call and count outputs:
    ``decode_fn`` maps ``trial_keys(rng, trials)`` to the sequence matrix,
    whose rows are counted by code over a ``vocab``-token alphabet."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sequences = decode_fn(trial_keys(rng, trials))
    codes = sequence_codes(sequences, vocab)
    counts = np.bincount(codes[codes >= 0], minlength=vocab ** sequences.shape[1])
    return EmpiricalLaw(counts, trials)


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


def expected_sampling_tv(exact: np.ndarray, trials: int) -> float:
    """Expected TV of an honest multinomial sample from the exact law.

    Normal approximation: E|freq_s - p_s| ~ sqrt(2 p_s (1 - p_s) / (pi m)).
    """
    p = exact[_listed(exact)]
    return 0.5 * float(np.cumsum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * trials)))[-1])


def expected_sampling_tv_std(exact: np.ndarray, trials: int) -> float:
    """Standard deviation of the TV of an honest multinomial sample.

    Var|freq_s - p_s| ~ (1 - 2/pi) p_s (1 - p_s) / m per cell, summed as if
    independent; with many comparable cells the statistic concentrates to a
    few percent of its mean, so the band stays tight at scale while small
    runs get an honest width.
    """
    p = exact[_listed(exact)]
    return 0.5 * math.sqrt(np.cumsum((1.0 - 2.0 / math.pi) * p * (1.0 - p) / trials)[-1])


def gof_test(
    law: EmpiricalLaw,
    exact: np.ndarray,
    name: str = "gof",
    alpha: float = 0.001,
) -> TestReport:
    """Pearson chi-square of the empirical law against exact probabilities.

    Cells with expected count below 5 are pooled into one tail cell.  Passes
    when the p-value exceeds ``alpha``.  Observations outside the exact
    support fail outright (the exact law assigns them probability zero).
    """
    total, listed = law.total, _listed(exact)
    out_of_support = total - int(law.counts[listed].sum())
    if out_of_support:
        return TestReport(
            name, 0.0, alpha, False, total,
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
            name, 1.0 if matches else 0.0, alpha, matches, total,
            notes="degenerate single-cell law",
        )
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = ncells - 1
    p_value = float(chi2_dist.sf(statistic, dof))
    return TestReport(
        name, p_value, alpha, p_value > alpha, total,
        notes=f"chi2={statistic:.3f} dof={dof} pooled={int(small.sum())}",
    )


# ---------------------------------------------------------------------------
# Coupler-level Monte Carlo estimators: the couplers' own inverse CDF,
# Gumbel argmax and accept test, applied to whole arrays of draws.
# ---------------------------------------------------------------------------

# Gumbel noise entries drawn and reduced at a time (256 KB of float64): a
# block's uniforms, noise and scores stay in cache.
NOISE_BLOCK = 2**15


def estimate_independent_collision(
    p: Categorical, q: Categorical, trials: int, rng: RandomSource
) -> float:
    """Empirical collision rate of two independent sampling streams."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = inverse_cdf_sample(p, rng.derive("x").uniforms(trials))
    y = inverse_cdf_sample(q, rng.derive("y").uniforms(trials))
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
    hits = 0
    for start in range(0, trials, per_block):
        m = min(per_block, trials - start)
        noise = gumbel_from_uniform(rng.uniforms(m * vocab)).reshape(m, vocab)
        x, y = gumbel_argmax(p.probs, noise), gumbel_argmax(q.probs, noise)
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
    base = rng.derive("base").normals(vocab)
    p = Categorical(softmax(sharpness * base))
    other = rng.derive("other").normals(vocab)
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


def acceptance_rate_check(
    p: Categorical,
    q: Categorical,
    trials: int,
    rng: RandomSource,
    name: str = "acceptance-rate",
) -> TestReport:
    """Empirical accept fraction of rejection sampling vs the analytic rate.

    Draws every x ~ q from the ``draft`` substream, runs the engine's accept
    test (:func:`mrs_accepts`, as strict as ``mrs``) on the ``accept``
    substream, and compares the accept fraction to 1 - TV(p, q) within three
    binomial standard errors.
    """
    if trials < 10**3:
        raise ValueError("trials must be >= 1000")
    expected = 1.0 - tv_distance(p, q)
    x = inverse_cdf_sample(q, rng.derive("draft").uniforms(trials))
    u = rng.derive("accept").uniforms(trials)
    observed = int(mrs_accepts(u, p.probs[x], q.probs[x]).sum()) / trials
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    diff = abs(observed - expected)
    return TestReport(
        name, observed, 3.0 * sigma, diff <= 3.0 * sigma + 1e-12, trials,
        notes=f"analytic={expected:.6f} diff={diff:.6f}",
    )


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


def coupling_bound_sweep(
    pairs: Sequence[tuple[Categorical, Categorical]],
    trials: int,
    rng: RandomSource,
) -> list[TestReport]:
    """Check the coupling-cost bounds on every pair.

    Per pair: (i) shared-noise collision is at least (1-TV)/(1+TV) - 3 sigma,
    (ii) and at most (1-TV) + 3 sigma, (iii) independent-stream collision
    matches sum p*q within 3 sigma, (iv) sum p*q stays below the Renyi-2
    bound (analytic, no sampling).
    """
    reports: list[TestReport] = []
    for i, (p, q) in enumerate(pairs):
        tv, analytic, emp, upper, gumbel, lower, bound = pair_coupling(
            p, q, trials, rng.derive("sweep", i)
        )
        sigma_lo = math.sqrt(lower * (1.0 - lower) / trials)
        sigma_hi = math.sqrt(upper * (1.0 - upper) / trials)
        reports.append(TestReport(
            f"coupling.gumbel-lower.{i}", gumbel, lower - 3.0 * sigma_lo,
            gumbel >= lower - 3.0 * sigma_lo - 1e-12, trials,
            notes=f"tv={tv:.6f} bound={lower:.6f}",
        ))
        reports.append(TestReport(
            f"coupling.gumbel-upper.{i}", gumbel, upper + 3.0 * sigma_hi,
            gumbel <= upper + 3.0 * sigma_hi + 1e-12, trials,
            notes=f"tv={tv:.6f} bound={upper:.6f}",
        ))
        sigma_c = math.sqrt(analytic * (1.0 - analytic) / trials)
        reports.append(TestReport(
            f"coupling.independent.{i}", emp, 3.0 * sigma_c,
            abs(emp - analytic) <= 3.0 * sigma_c + 1e-12, trials,
            notes=f"analytic={analytic:.6f}",
        ))
        reports.append(TestReport(
            f"coupling.renyi-bound.{i}", analytic, bound + 1e-12,
            analytic <= bound + 1e-12, 0,
            notes="analytic Cauchy-Schwarz bound",
        ))
    return reports


def hamming_nfe_correlation(
    decode_fn: Callable[[np.ndarray], DecodeStats],
    runs: int,
    rng: RandomSource,
    threshold: float = 0.3,
    name: str = "hamming-nfe-correlation",
) -> TestReport:
    """Pearson correlation between per-run mean draft churn and per-run NFE;
    ``decode_fn`` maps ``trial_keys(rng, runs)`` to the DecodeStats of the
    runs; a run without a hamming value is skipped."""
    if runs < 100:
        raise ValueError("runs must be >= 100")
    stats = decode_fn(trial_keys(rng, runs))
    hammings = np.array(stats.mean_hamming(), dtype=np.float64)  # None reads NaN
    seen = ~np.isnan(hammings)
    hammings, nfes = hammings[seen], stats.nfe[seen]
    if len(hammings) < 2 or np.std(hammings) == 0.0 or np.std(nfes) == 0.0:
        return TestReport(
            name, 1.0, threshold, True, len(hammings),
            notes="skipped: degenerate (zero-variance) statistics",
        )
    r = float(pearsonr(hammings, nfes).statistic)
    return TestReport(name, r, threshold, r > threshold, len(hammings))


# ---------------------------------------------------------------------------
# Losslessness suite
# ---------------------------------------------------------------------------

# Head room of the TV gate over its calibration (vanilla TV or noise band).
TV_MARGIN = 1.2


def run_lossless_suite(
    model: TabularModel,
    sampling: SamplingParams,
    n: int,
    window: int,
    trials: int,
    rng: RandomSource,
    conventions: Sequence[bool] = (False,),
    couplers: Sequence[CouplerKind] = tuple(CouplerKind),
) -> list[TestReport]:
    """Compare vanilla and every requested SJD variant to the exact law.

    The TV threshold is ``TV_MARGIN`` times the larger of the vanilla
    decoder's measured TV (trusted by construction) and the analytic noise
    band of an honest multinomial sample (mean + 3 std of the TV statistic);
    every variant must also pass the chi-square gate.  ``conventions`` selects the
    rejection conventions to exercise (False = finalize the residual token,
    True = redraft with it).
    """
    sampler = TargetSampler(model, sampling)
    exact = enumerate_sequence_distribution(model, sampling, n)
    reports: list[TestReport] = []

    def law_of(label: str, coupler: CouplerKind | None = None, redraft: bool = False):
        def decode(keys):
            return decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)[0]

        return collect(decode, trials, rng.derive("collect", label), model.vocab_size)

    vanilla_law = law_of("vanilla")
    tv_vanilla = tv_to_exact(vanilla_law, exact)
    # honest-sampling noise band: mean + 3 std of the TV statistic
    noise_band = expected_sampling_tv(exact, trials) + 3.0 * expected_sampling_tv_std(
        exact, trials
    )
    threshold = TV_MARGIN * max(tv_vanilla, noise_band)
    calibration = f"vanilla_tv={tv_vanilla:.6f} noise_band={noise_band:.6f}"

    reports.append(TestReport(
        "lossless.tv.vanilla", tv_vanilla, threshold,
        tv_vanilla <= threshold, trials, notes=calibration,
    ))
    reports.append(gof_test(vanilla_law, exact, "lossless.gof.vanilla"))

    for redraft in conventions:
        suffix = "-redraft" if redraft else ""
        for coupler in couplers:
            label = coupler.value + suffix
            law = law_of(label, coupler, redraft)
            tv = tv_to_exact(law, exact)
            reports.append(TestReport(
                f"lossless.tv.{label}", tv, threshold,
                tv <= threshold, trials, notes=calibration,
            ))
            reports.append(gof_test(law, exact, f"lossless.gof.{label}"))
    return reports
