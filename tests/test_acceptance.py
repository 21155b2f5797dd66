"""Acceptance gate: the release-blocking statistical properties.

One test per criterion; each prints a PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -s``) before asserting.  Criterion 1 is
the flagship run and takes a few minutes; everything else finishes in
seconds.
"""

import math

import numpy as np
from scipy.stats import ttest_rel

import specjac.decoder as decoder_mod
from specjac.cli import EXIT_OK, main
from specjac.couplers import MrsOutcome, inverse_cdf_rows, mrs, mrs_joint_distribution
from specjac.decoder import CouplerKind, decode_trials, trial_keys
from specjac.model import ModelSpec, SamplingParams, TabularModel, TargetSampler
from specjac.oracle import (
    acceptance_rate_check,
    estimate_gumbel_collision,
    estimate_independent_collision,
    generate_pairs,
    hamming_nfe_correlation,
    random_pair,
    run_lossless_suite,
)
from specjac.prob import independent_collision, renyi2_entropy, tv_distance
from specjac.rng import RandomSource

# Desk scale: 1024-point exact law, enumerable in milliseconds.
DESK_MODEL = ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=11)
DESK_N = 5
DESK_WINDOW = 4
DESK_TRIALS = 200000
MASTER_SEED = 1234

# Flat regime: high-entropy conditionals where independent drafting churns.
FLAT_MODEL = ModelSpec(vocab_size=16, context_order=2, flatness=4.0, seed=5)
FLAT_N = 64

SAMPLING = SamplingParams()


def _verdict(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {num}: {name}: {detail}"


def _paired_nfe(model, sampling, n, window, couplers, runs, master):
    sampler = TargetSampler(model, sampling)
    keys = trial_keys(master, runs)  # run k decodes master.derive("trial", k)
    return {
        c: decode_trials(sampler, n, keys, c, window)[1].nfe.astype(np.float64)
        for c in couplers
    }


def test_criterion_01_lossless_output_law():
    """Every decoder variant reproduces the exact sequence law."""
    model = TabularModel(DESK_MODEL)
    reports = run_lossless_suite(
        model, SAMPLING, DESK_N, DESK_WINDOW, DESK_TRIALS,
        RandomSource(MASTER_SEED).derive("lossless"),
        conventions=(False, True),
    )
    failing = [r.name for r in reports if not r.passed]
    detail = (
        f"{len(reports)} reports (vanilla + 3 couplers x 2 rejection conventions), "
        f"m={DESK_TRIALS}, failing={failing or 'none'}"
    )
    _verdict(1, "losslessness", not failing, detail)


def test_criterion_02_acceptance_rate_identity():
    """Empirical rejection-sampling accept rate equals 1 - TV."""
    master = RandomSource(MASTER_SEED).derive("acceptance-rate")
    vocabs = [2, 8, 64]
    failures = []
    count = 0
    for vocab in vocabs:
        pairs = generate_pairs(vocab, 17 if vocab != 64 else 16, master.derive("pairs", vocab))
        for i, (p, q) in enumerate(pairs):
            report = acceptance_rate_check(
                p, q, 10**5, master.derive("mc", vocab, i), name=f"ar.{vocab}.{i}"
            )
            count += 1
            if not report.passed:
                failures.append(report.name)
    _verdict(2, "accept rate = 1 - TV", not failures,
             f"{count} pairs over vocab {vocabs}, m=1e5, failing={failures or 'none'}")


def test_criterion_03_maximal_coupling_cost_exact():
    """The rejection-sampling joint law attains cost 1 - TV exactly."""
    master = RandomSource(MASTER_SEED).derive("joint")
    worst = 0.0
    for i in range(100):
        sub = master.derive("pair", i)
        vocab = 2 + i % 5  # vocab sizes 2..6
        sharp = 0.3 + 2.4 * sub.draw_uniform01()
        close = None if i % 2 == 0 else 1.0
        p, q = random_pair(vocab, sub, sharp, close)
        joint = mrs_joint_distribution(p, q)
        diag_err = abs(float(np.trace(joint)) - (1.0 - tv_distance(p, q)))
        row_err = float(np.abs(joint.sum(axis=1) - q.probs).max())
        col_err = float(np.abs(joint.sum(axis=0) - p.probs).max())
        worst = max(worst, diag_err, row_err, col_err)
    _verdict(3, "maximal coupling cost exact", worst <= 1e-12,
             f"100 pairs vocab<=6, worst deviation {worst:.2e} (tol 1e-12)")


def test_criterion_04_gumbel_collision_bounds():
    """Shared-noise collision sits between its lower bound and 1 - TV."""
    master = RandomSource(MASTER_SEED).derive("gumbel-bands")
    trials = 10**5
    failures = []
    npairs = 0
    for vocab in (4, 16, 64):
        pairs = generate_pairs(vocab, 17 if vocab == 4 else 17 if vocab == 16 else 16,
                               master.derive("pairs", vocab))
        for i, (p, q) in enumerate(pairs):
            npairs += 1
            tv = tv_distance(p, q)
            upper = 1.0 - tv
            lower = upper / (1.0 + tv)
            coll = estimate_gumbel_collision(p, q, trials, master.derive("mc", vocab, i))
            s_lo = math.sqrt(lower * (1 - lower) / trials)
            s_hi = math.sqrt(upper * (1 - upper) / trials)
            if not (lower - 3 * s_lo - 1e-12 <= coll <= upper + 3 * s_hi + 1e-12):
                failures.append(f"{vocab}.{i}")
    binary_failures = []
    binary_pairs = generate_pairs(2, 10, master.derive("binary"))
    for i, (p, q) in enumerate(binary_pairs):
        expected = 1.0 - tv_distance(p, q)
        coll = estimate_gumbel_collision(p, q, trials, master.derive("binary-mc", i))
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / trials)
        if abs(coll - expected) > 3 * sigma + 1e-9:
            binary_failures.append(i)
    ok = not failures and not binary_failures
    _verdict(4, "gumbel collision bounds", ok,
             f"{npairs} pairs in bands, 10 binary pairs at 1-TV, m=1e5, "
             f"failing={failures + binary_failures or 'none'}")


def test_criterion_05_collision_formula_and_renyi_bound():
    """Independent collision equals sum p*q and obeys the entropy bound."""
    master = RandomSource(MASTER_SEED).derive("independent-collision")
    worst_excess = -1.0
    for i in range(1000):
        sub = master.derive("analytic", i)
        vocab = 2 + i % 15
        sharp = 0.2 + 2.8 * sub.draw_uniform01()
        p, q = random_pair(vocab, sub, sharp, None if i % 2 == 0 else 0.7)
        bound = math.exp(-0.5 * (renyi2_entropy(p) + renyi2_entropy(q)))
        worst_excess = max(worst_excess, independent_collision(p, q) - bound)
    analytic_ok = worst_excess <= 1e-12

    uniform_gap = 0.0
    for k in (2, 5, 16, 100):
        from specjac.prob import Categorical

        u = Categorical.uniform(k)
        bound = math.exp(-0.5 * (renyi2_entropy(u) + renyi2_entropy(u)))
        uniform_gap = max(uniform_gap, abs(independent_collision(u, u) - bound))
    equality_ok = uniform_gap <= 1e-12

    failures = []
    for i in range(50):
        sub = master.derive("empirical", i)
        p, q = random_pair(8, sub, 0.3 + 2.0 * sub.draw_uniform01())
        analytic = independent_collision(p, q)
        emp = estimate_independent_collision(p, q, 10**5, sub.derive("mc"))
        sigma = math.sqrt(analytic * (1 - analytic) / 10**5)
        if abs(emp - analytic) > 3 * sigma + 1e-12:
            failures.append(i)
    ok = analytic_ok and equality_ok and not failures
    _verdict(5, "collision formula + Renyi-2 bound", ok,
             f"1000 analytic pairs (worst excess {worst_excess:.1e}), uniform "
             f"equality gap {uniform_gap:.1e}, 50 empirical pairs failing={failures or 'none'}")


def test_criterion_06_nfe_ordering():
    """Coupled drafting reduces NFE: maximal < gumbel (comparable) < independent < n."""
    model = TabularModel(FLAT_MODEL)
    master = RandomSource(MASTER_SEED).derive("nfe-ordering")
    nfes = _paired_nfe(
        model, SAMPLING, FLAT_N, 16, list(CouplerKind), 200, master
    )
    mc = nfes[CouplerKind.MAXIMAL]
    gs = nfes[CouplerKind.GUMBEL]
    ind = nfes[CouplerKind.INDEPENDENT]
    p_value = float(ttest_rel(mc, ind, alternative="less").pvalue)
    diffs = gs - mc
    comparable = mc.mean() <= gs.mean() + 2.0 * diffs.std(ddof=1) / math.sqrt(len(diffs))
    checks = {
        "mc<ind (p<0.01)": mc.mean() < ind.mean() and p_value < 0.01,
        "gs<ind": gs.mean() < ind.mean(),
        "mc<=gs+noise": comparable,
        "all<n": max(mc.mean(), gs.mean(), ind.mean()) < FLAT_N,
    }
    ok = all(checks.values())
    _verdict(6, "NFE ordering", ok,
             f"mean nfe mc={mc.mean():.2f} gs={gs.mean():.2f} ind={ind.mean():.2f} "
             f"n={FLAT_N}, paired p={p_value:.2e}, checks={checks}")


def test_criterion_07_window_size_behavior():
    """Maximal coupling keeps improving with window size; independent plateaus."""
    model = TabularModel(FLAT_MODEL)
    master = RandomSource(MASTER_SEED).derive("window-sweep")
    windows = (4, 8, 16, 32)
    runs = 150
    means = {}
    per_run = {}
    for coupler in (CouplerKind.MAXIMAL, CouplerKind.INDEPENDENT):
        per_run[coupler] = {}
        for window in windows:
            nfes = _paired_nfe(
                model, SAMPLING, FLAT_N, window, [coupler], runs, master
            )[coupler]
            per_run[coupler][window] = nfes
            means[(coupler, window)] = nfes.mean()
    monotone = True
    for a, b in zip(windows, windows[1:]):
        diffs = per_run[CouplerKind.MAXIMAL][b] - per_run[CouplerKind.MAXIMAL][a]
        slack = 2.0 * diffs.std(ddof=1) / math.sqrt(runs)
        if diffs.mean() > slack:
            monotone = False
    crossover = (
        means[(CouplerKind.MAXIMAL, 32)] < means[(CouplerKind.INDEPENDENT, 32)]
    )
    ok = monotone and crossover
    mc_means = [round(means[(CouplerKind.MAXIMAL, w)], 2) for w in windows]
    ind_means = [round(means[(CouplerKind.INDEPENDENT, w)], 2) for w in windows]
    _verdict(7, "window-size behavior", ok,
             f"L={list(windows)}: maximal {mc_means} (non-increasing={monotone}), "
             f"independent {ind_means}, maximal(32)<independent(32)={crossover}")


def test_criterion_08_hamming_nfe_correlation():
    """Draft churn predicts NFE under independent drafting."""
    model = TabularModel(FLAT_MODEL)
    sampler = TargetSampler(model, SAMPLING)

    def decode_fn(keys):
        return decode_trials(sampler, FLAT_N, keys, CouplerKind.INDEPENDENT, 8)[1]

    report = hamming_nfe_correlation(
        decode_fn, 300, RandomSource(MASTER_SEED).derive("hamming-nfe")
    )
    _verdict(8, "hamming-NFE correlation", report.passed,
             f"pearson r={report.value:.3f} over {report.samples} runs (threshold 0.3)")


def test_criterion_09_beta_stabilization():
    """Coupled drafting yields higher, steadier analytic acceptance rates."""
    # very flat small-vocab regime: contexts differ rarely under coupling,
    # so recorded rates sit near 1 with little spread
    model = TabularModel(ModelSpec(vocab_size=4, context_order=1, flatness=8.0, seed=3))
    sampler = TargetSampler(model, SAMPLING)
    master = RandomSource(99).derive("beta")
    pools = {}
    for coupler in (CouplerKind.MAXIMAL, CouplerKind.INDEPENDENT):
        pools[coupler] = decode_trials(
            sampler, FLAT_N, trial_keys(master, 100), coupler, 16
        )[1].betas
    mc, ind = pools[CouplerKind.MAXIMAL], pools[CouplerKind.INDEPENDENT]
    var_ok = mc.var() < ind.var()
    mean_ok = mc.mean() >= ind.mean()
    _verdict(9, "beta stabilization", var_ok and mean_ok,
             f"pooled var mc={mc.var():.2e} < ind={ind.var():.2e}: {var_ok}; "
             f"mean mc={mc.mean():.4f} >= ind={ind.mean():.4f}: {mean_ok} "
             f"({len(mc)} vs {len(ind)} records, 100 paired runs)")


def test_criterion_10_byte_identical_determinism(tmp_path):
    """Repeating any command with the same config and seed reproduces files."""
    commands = {
        "generate": ["generate", "--run.trials", "25", "--decode.coupler", "gumbel"],
        "verify-lossless": [
            "verify-lossless", "--model.vocab_size", "3", "--decode.length", "3",
            "--decode.window", "2", "--run.trials", "3000",
        ],
        "coupling-stats": ["coupling-stats", "--pairs", "6", "--trials", "5000"],
        "sweep": ["sweep", "--axis", "L", "--values", "2,4", "--run.trials", "20"],
    }
    mismatched = []
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        code_a = main(argv + ["--out", str(a)])
        code_b = main(argv + ["--out", str(b)])
        if code_a != code_b or a.read_bytes() != b.read_bytes():
            mismatched.append(name)
        if name != "verify-lossless" and code_a != EXIT_OK:
            mismatched.append(f"{name}:exit={code_a}")
    _verdict(10, "byte-identical determinism", not mismatched,
             f"4 commands run twice each, mismatched={mismatched or 'none'}")


def test_criterion_11_mutation_detection(monkeypatch):
    """Breaking residual sampling must make the losslessness gate fail."""

    def broken_mrs(p, q, x, rng):
        out = mrs(p, q, x, rng)
        if out.accepted:
            return out
        return MrsOutcome(False, x)  # keep the rejected draft: skips the residual draw

    monkeypatch.setattr(decoder_mod, "mrs", broken_mrs)
    model = TabularModel(DESK_MODEL)
    reports = run_lossless_suite(
        model, SAMPLING, DESK_N, DESK_WINDOW, DESK_TRIALS,
        RandomSource(MASTER_SEED).derive("lossless"),
        conventions=(False,), couplers=(CouplerKind.MAXIMAL,),
    )
    by_name = {r.name: r for r in reports}
    vanilla_ok = (
        by_name["lossless.tv.vanilla"].passed and by_name["lossless.gof.vanilla"].passed
    )
    corrupted_detected = not (
        by_name["lossless.tv.maximal"].passed and by_name["lossless.gof.maximal"].passed
    )
    ok = vanilla_ok and corrupted_detected
    _verdict(11, "mutation detection", ok,
             f"vanilla still green={vanilla_ok}, corrupted coupler flagged="
             f"{corrupted_detected} (gof p={by_name['lossless.gof.maximal'].value:.2e})")


def test_criterion_11_gate_flags_a_row_wise_redraft_residual_drawn_from_p(monkeypatch):
    """Criterion 11's suite on a defect of the row-wise redraft residuals,
    which no longer pass through ``decoder.mrs``: a classic MRS bug that
    draws the residual from p itself instead of the normalized (p - q)+."""

    def residual_from_p(probs, p_rows, q_rows, u):
        p = probs[p_rows]
        return inverse_cdf_rows(p, p.cumsum(axis=1), np.arange(len(u)), u)

    monkeypatch.setattr(decoder_mod, "mrs_residual_rows", residual_from_p)
    model = TabularModel(DESK_MODEL)
    reports = run_lossless_suite(
        model, SAMPLING, DESK_N, DESK_WINDOW, DESK_TRIALS,
        RandomSource(MASTER_SEED).derive("lossless"),
        conventions=(False,), couplers=(CouplerKind.MAXIMAL,),
    )
    by_name = {r.name: r for r in reports}
    vanilla_ok = (
        by_name["lossless.tv.vanilla"].passed and by_name["lossless.gof.vanilla"].passed
    )
    corrupted_detected = not (
        by_name["lossless.tv.maximal"].passed and by_name["lossless.gof.maximal"].passed
    )
    assert vanilla_ok and corrupted_detected, (
        f"vanilla still green={vanilla_ok}, corrupted coupler flagged={corrupted_detected} "
        f"(gof p={by_name['lossless.gof.maximal'].value:.2e})"
    )
