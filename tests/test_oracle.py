"""Statistical harness: empirical laws, goodness of fit, bound sweeps."""

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle as reference

import specjac.oracle as oracle_mod
from specjac.cli import EXIT_OK, main
from specjac.couplers import (
    gs_couple,
    sample_gumbel_noise,
    sample_independent,
)
from specjac.decoder import (
    CouplerKind,
    DecodeStats,
    decode_trials,
    decode_vanilla,
)
from specjac.model import (
    ModelSpec,
    SamplingParams,
    TabularModel,
    TargetSampler,
    enumerate_sequence_distribution,
    sequence_codes,
)
from specjac.oracle import (
    EmpiricalLaw,
    acceptance_rate_check,
    collect,
    coupling_bound_sweep,
    estimate_gumbel_collision,
    estimate_independent_collision,
    expected_sampling_tv,
    expected_sampling_tv_std,
    generate_pairs,
    gof_test,
    hamming_nfe_correlation,
    pair_coupling,
    random_pair,
    run_lossless_suite,
    tv_to_exact,
)
from specjac.prob import Categorical, tv_distance
from specjac.rng import RandomSource

SPEC = ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=11)


class TestCollect:
    def test_single_run(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        law = collect(lambda keys: decode_trials(sampler, 3, keys)[0], 1, RandomSource(1), 4)
        assert law.total == 1
        assert law.counts.sum() == 1

    def test_greedy_gives_single_entry(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams(top_k=1))
        law = collect(lambda keys: decode_trials(sampler, 4, keys)[0], 50, RandomSource(2), 4)
        assert np.count_nonzero(law.counts) == 1
        assert law.total == 50

    def test_replay_identical(self):
        model = TabularModel(SPEC)
        decoded = []

        def decode(keys):
            decoded.append(decode_trials(TargetSampler(model, SamplingParams()), 4, keys)[0])
            return decoded[-1]

        laws = [collect(decode, 200, RandomSource(3), 4) for _ in range(2)]
        assert np.array_equal(laws[0].counts, laws[1].counts)
        # trial k decodes the stream rng.derive("trial", k), as one-trial calls do
        singles = [
            decode_vanilla(model, SamplingParams(), 4, RandomSource(3).derive("trial", k))[0]
            for k in range(200)
        ]
        assert list(map(tuple, decoded[0].tolist())) == singles
        assert np.array_equal(
            laws[0].counts, np.bincount(sequence_codes(decoded[0], 4), minlength=4**4)
        )
        assert laws[0].counts.sum() == 200


class TestTvToExact:
    def test_exact_counts_give_zero(self):
        exact = np.array([0.25, 0.75])
        law = EmpiricalLaw(np.array([25, 75]), 100)
        assert tv_to_exact(law, exact) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_support_mass_counts(self):
        exact = np.array([1.0, 0.0])
        law = EmpiricalLaw(np.array([50, 50]), 100)
        assert tv_to_exact(law, exact) == pytest.approx(0.5)

    def test_consistency_as_samples_grow(self):
        exact = np.array([0.4, 0.3, 0.2, 0.1])
        rng = np.random.default_rng(4)
        tvs = []
        for m in (100, 10000, 1000000):
            draws = rng.multinomial(m, [0.4, 0.3, 0.2, 0.1])
            tvs.append(tv_to_exact(EmpiricalLaw(draws, m), exact))
        assert tvs[2] < tvs[0]
        assert tvs[2] < 0.005

    def test_expected_noise_of_uniform_1024_point_law(self):
        # hand value: 0.5 * 1024 * sqrt(2 * (1/1024) * (1023/1024) / (pi * 2e5))
        exact = np.full(1024, 1.0 / 1024)
        noise = expected_sampling_tv(exact, 2 * 10**5)
        assert noise == pytest.approx(0.0285, abs=0.001)
        assert noise < 0.05

    def test_expected_sampling_tv_predicts_noise(self):
        exact = np.full(64, 1.0 / 64)
        rng = np.random.default_rng(5)
        m = 20000
        measured = []
        for _ in range(50):
            draws = rng.multinomial(m, exact)
            measured.append(tv_to_exact(EmpiricalLaw(draws, m), exact))
        predicted = expected_sampling_tv(exact, m)
        assert np.mean(measured) == pytest.approx(predicted, rel=0.15)


class TestGofTest:
    def _exact_law(self):
        model = TabularModel(SPEC)
        return enumerate_sequence_distribution(model, SamplingParams(), 5)

    def _sample_law(self, exact, m, rng, shift=None):
        # draws over the support in listing order (descending codes)
        listed = np.flatnonzero(exact)[::-1]
        probs = exact[listed]
        if shift is not None:
            src, dst, mass = shift
            probs = probs.copy()
            probs[dst] += probs[src] * mass
            probs[src] *= 1.0 - mass
        counts = np.zeros(len(exact), dtype=np.int64)
        counts[listed] = rng.multinomial(m, probs / probs.sum())
        return EmpiricalLaw(counts, m)

    def test_null_hypothesis_passes(self):
        exact = self._exact_law()
        law = self._sample_law(exact, 10**5, np.random.default_rng(6))
        report = gof_test(law, exact)
        assert report.passed

    def test_shifted_law_fails(self):
        # move 5% of the total mass onto one sequence
        exact = self._exact_law()
        listed = np.flatnonzero(exact)[::-1]
        probs = exact[listed] * 0.95
        probs[17] += 0.05
        counts = np.zeros(len(exact), dtype=np.int64)
        counts[listed] = np.random.default_rng(7).multinomial(2 * 10**5, probs / probs.sum())
        report = gof_test(EmpiricalLaw(counts, 2 * 10**5), exact)
        assert not report.passed

    def test_exact_counts_statistic_zero(self):
        exact = np.array([0.5, 0.25, 0.25])
        law = EmpiricalLaw(np.array([500, 250, 250]), 1000)
        report = gof_test(law, exact)
        assert report.passed
        assert report.value == pytest.approx(1.0)

    def test_degenerate_single_cell(self):
        exact = np.array([0.0, 1.0, 0.0, 0.0])  # V=2, n=2: all mass on (0, 1)
        law = EmpiricalLaw(np.array([0, 10, 0, 0]), 10)
        assert gof_test(law, exact).passed is True
        law = EmpiricalLaw(np.array([0, 0, 0, 10]), 10)  # (1, 1)
        assert gof_test(law, exact).passed is False

    def test_out_of_support_fails(self):
        exact = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        law = EmpiricalLaw(np.array([9, 0, 0, 0, 0, 1]), 10)
        assert not gof_test(law, exact).passed

    def test_nominal_failure_rate(self):
        # data truly drawn from the exact law must fail at most at the
        # nominal rate: with alpha 0.001 and 1000 resamples, <= 5 failures
        exact = self._exact_law()
        rng = np.random.default_rng(8)
        failures = 0
        for _ in range(1000):
            law = self._sample_law(exact, 2 * 10**4, rng)
            if not gof_test(law, exact).passed:
                failures += 1
        assert failures <= 5


def _random_law(vocab: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Chain-rule law over codes: softmax conditionals, each cut to a random top-k."""
    law = np.ones(1)
    for _ in range(length):
        logits = rng.normal(size=(len(law), vocab))
        ranks = np.argsort(np.argsort(-logits, axis=1), axis=1)
        keep = ranks < rng.integers(1, vocab + 1, size=(len(law), 1))
        probs = np.where(keep, np.exp(logits), 0.0)
        law = (law[:, None] * probs / probs.sum(axis=1, keepdims=True)).ravel()
    return law


class TestVectorMatchesDictReference:
    """The code-indexed laws give the bits and verdicts of the dict-of-tuples
    reference.  The reference adds out-of-support cells in ``Counter`` order
    (first occurrence, one term per distinct row); the vector adds the
    zero-mass codes in descending order, then every out-of-vocabulary row as
    one term.  Listed that way (the strays last, one repeated bad row), the
    TV bits agree; with the strays shuffled in and distinct bad rows only the
    summation order of those few terms differs, so the TV agrees within a
    few ulps.  Everything else is order-free and agrees bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        vocab=st.integers(2, 4),
        length=st.integers(1, 4),
        trials=st.integers(1, 3000),
        zero_mass=st.integers(0, 3),
        out_of_vocab=st.integers(0, 3),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_and_verdicts(
        self, vocab, length, trials, zero_mass, out_of_vocab, shuffled, seed
    ):
        rng = np.random.default_rng(seed)
        exact = _random_law(vocab, length, rng)
        codes = np.arange(vocab**length)
        strays = np.concatenate([codes[exact == 0.0][::-1][:zero_mass], np.full(out_of_vocab, -1)])
        drawn = rng.multinomial(max(trials - len(strays), 1), exact)
        rows_codes = np.concatenate([rng.permutation(np.repeat(codes, drawn)), strays])
        if shuffled:
            rows_codes = rng.permutation(rows_codes)
        rows = np.array(np.unravel_index(np.maximum(rows_codes, 0), (vocab,) * length)).T
        bad = rows_codes < 0
        # tokens outside the vocabulary: one repeated row, or distinct rows on both sides
        distinct = [vocab + j if j % 2 else -1 - j for j in range(bad.sum())]
        rows[bad, 0] = distinct if shuffled else vocab
        total = len(rows)
        law = collect(lambda keys: rows, total, RandomSource(seed), vocab)
        ref_law, ref_exact = reference.count_rows(rows), reference.dict_law(exact, vocab, length)

        assert law.total == total
        tv, ref_tv = tv_to_exact(law, exact), reference.tv_to_exact(ref_law, total, ref_exact)
        if shuffled and len(strays):
            assert abs(tv - ref_tv) <= 8 * math.ulp(ref_tv)
        else:
            assert tv.hex() == ref_tv.hex()
        for vector_fn, dict_fn in (
            (expected_sampling_tv, reference.expected_sampling_tv),
            (expected_sampling_tv_std, reference.expected_sampling_tv_std),
        ):
            assert vector_fn(exact, total).hex() == dict_fn(ref_exact, total).hex()
        got, want = gof_test(law, exact), reference.gof_test(ref_law, total, ref_exact)
        assert type(got.passed) is bool
        assert (got.value.hex(), got.passed, got.notes) == (
            float(want.value).hex(), bool(want.passed), want.notes,
        )


class TestAcceptanceRateCheck:
    def test_identical_is_exactly_one(self):
        d = Categorical([0.3, 0.7])
        report = acceptance_rate_check(d, d, 2000, RandomSource(9))
        assert report.passed
        assert report.value == 1.0

    def test_disjoint_is_exactly_zero(self):
        report = acceptance_rate_check(
            Categorical([1, 0]), Categorical([0, 1]), 2000, RandomSource(10)
        )
        assert report.passed
        assert report.value == 0.0

    def test_hand_pair_within_three_sigma(self):
        report = acceptance_rate_check(
            Categorical([0.6, 0.4]), Categorical([0.4, 0.6]), 10**5, RandomSource(11)
        )
        assert report.passed
        assert report.value == pytest.approx(0.8, abs=0.012)

    def test_minimum_trials(self):
        d = Categorical([0.5, 0.5])
        with pytest.raises(ValueError):
            acceptance_rate_check(d, d, 10, RandomSource(12))


class TestBatchedEstimators:
    def test_gumbel_batch_matches_scalar_calls(self):
        p, q = random_pair(6, RandomSource(13), 1.5)
        batched_rng = RandomSource(14)
        scalar_rng = RandomSource(14)
        trials = 200
        noise = batched_rng.uniforms(trials * 6).reshape(trials, 6)
        hits = 0
        for i in range(trials):
            x, y = gs_couple(p, q, sample_gumbel_noise(6, scalar_rng))
            hits += x == y
        assert estimate_gumbel_collision(p, q, trials, RandomSource(14)) == hits / trials

    def test_independent_batch_matches_scalar_calls(self):
        p, q = random_pair(5, RandomSource(15), 1.0)
        trials = 300
        root = RandomSource(16)
        xs = root.derive("x")
        ys = root.derive("y")
        hits = sum(
            sample_independent(p, xs) == sample_independent(q, ys)
            for _ in range(trials)
        )
        assert estimate_independent_collision(p, q, trials, RandomSource(16)) == hits / trials

    @pytest.mark.parametrize(
        "estimate", [estimate_gumbel_collision, estimate_independent_collision]
    )
    def test_zero_trials_rejected(self, estimate):
        # an empty estimate has no rate: not nan, not a division by zero
        p, q = random_pair(4, RandomSource(18))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate(p, q, 0, RandomSource(19))

    def test_independent_estimate_matches_analytic(self):
        p = Categorical([0.6, 0.4])
        q = Categorical([0.4, 0.6])
        est = estimate_independent_collision(p, q, 10**5, RandomSource(17))
        sigma = math.sqrt(0.48 * 0.52 / 10**5)
        assert abs(est - 0.48) <= 3 * sigma

    def test_collision_estimator_deviations_are_unit_normal(self):
        # calibration behind the 3-sigma gates: normalized deviations of the
        # Monte Carlo collision estimate across many pairs behave like a
        # standard normal (no bias, no substream correlation)
        from specjac.oracle import random_pair

        master = RandomSource(777).derive("calibration")
        devs = []
        for i in range(200):
            sub = master.derive("empirical", i)
            p, q = random_pair(8, sub, 0.3 + 2.0 * sub.draw_uniform01())
            analytic = float(p.probs @ q.probs)
            emp = estimate_independent_collision(p, q, 2 * 10**4, sub.derive("mc"))
            sigma = math.sqrt(analytic * (1 - analytic) / (2 * 10**4))
            devs.append((emp - analytic) / sigma)
        devs = np.array(devs)
        assert abs(devs.mean()) < 4.0 / math.sqrt(len(devs))
        assert 0.8 < devs.std() < 1.2


class TestBlockedGumbelEstimate:
    # (vocab, trials, noise elements per block; None keeps the module's block)
    CASES = {
        "below-one-block": (6, 50, None),
        "many-default-blocks": (64, 5000, None),
        "ragged-last-block": (6, 23, 24),  # 4 trials per block: 5 full, then 3
        "exact-multiple": (6, 24, 24),  # 6 full blocks of 4 trials
        "vocab-above-block": (40, 7, 16),  # one trial per block
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_one_shot_formula(self, case, monkeypatch):
        vocab, trials, block = self.CASES[case]
        if block is not None:
            monkeypatch.setattr(oracle_mod, "NOISE_BLOCK", block)
        p, q = random_pair(vocab, RandomSource(31), 1.5, closeness=0.8)
        blocked, one_shot = RandomSource(32), RandomSource(32)
        got = estimate_gumbel_collision(p, q, trials, blocked)
        assert 0.0 < got < 1.0
        assert got == reference.estimate_gumbel_collision(p, q, trials, one_shot)
        # the stream ends where one call of trials * V uniforms leaves it
        assert blocked.draw_uniform01() == one_shot.draw_uniform01()


class TestCouplingBoundSweep:
    def test_identical_pairs_trivially_pass(self):
        d = Categorical([0.25, 0.25, 0.5])
        reports = coupling_bound_sweep([(d, d)], 5000, RandomSource(18))
        assert all(r.passed for r in reports)
        gumbel = [r for r in reports if "gumbel-lower" in r.name][0]
        assert gumbel.value == 1.0

    def test_uniform_pairs_hit_renyi_bound_with_equality(self):
        u = Categorical.uniform(8)
        reports = coupling_bound_sweep([(u, u)], 20000, RandomSource(19))
        renyi = [r for r in reports if "renyi" in r.name][0]
        assert renyi.value == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert renyi.value == pytest.approx(renyi.threshold, abs=1e-11)

    def test_generated_pairs_all_pass(self):
        pairs = generate_pairs(8, 12, RandomSource(20))
        reports = coupling_bound_sweep(pairs, 20000, RandomSource(21))
        failures = [r for r in reports if not r.passed]
        assert failures == []

    def test_reports_read_the_pair_statistics(self):
        pairs = generate_pairs(8, 3, RandomSource(20))
        reports = coupling_bound_sweep(pairs, 2000, RandomSource(21))
        for i, (p, q) in enumerate(pairs):
            tv, analytic, emp, maximal, gumbel, lower, bound = pair_coupling(
                p, q, 2000, RandomSource(21).derive("sweep", i)
            )
            assert (tv, maximal, lower) == (
                tv_distance(p, q), 1.0 - tv_distance(p, q), (1.0 - tv) / (1.0 + tv)
            )
            by_name = {r.name.rsplit(".", 1)[0]: r for r in reports[4 * i : 4 * i + 4]}
            assert by_name["coupling.gumbel-lower"].value == gumbel
            assert by_name["coupling.gumbel-upper"].notes == f"tv={tv:.6f} bound={maximal:.6f}"
            assert by_name["coupling.independent"].value == emp
            assert by_name["coupling.renyi-bound"].value == analytic
            assert by_name["coupling.renyi-bound"].threshold == bound + 1e-12

    def test_binary_pairs_attain_maximal_cost(self):
        rng = RandomSource(22)
        pairs = generate_pairs(2, 10, rng.derive("pairs"))
        trials = 10**5
        for i, (p, q) in enumerate(pairs):
            coll = estimate_gumbel_collision(p, q, trials, rng.derive("mc", i))
            expected = 1.0 - tv_distance(p, q)
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / trials)
            assert abs(coll - expected) <= 3 * sigma + 1e-9


class TestHammingNfeCorrelation:
    def _stats(self, hammings, nfes):
        """Run k takes nfes[k] iterations, each changing hammings[k] of 8 slots."""
        nfe = np.array(nfes)
        steps = np.repeat(hammings, nfe)
        none = np.zeros(0, np.int64)
        return DecodeStats(nfe, np.ones_like(steps), steps, np.full_like(steps, 8),
                           np.zeros(0), none, none)

    def test_perfect_correlation(self):
        def fn(keys):
            assert len(keys) == 100
            return self._stats(range(len(keys)), range(1, len(keys) + 1))

        report = hamming_nfe_correlation(fn, 100, RandomSource(23))
        assert report.passed
        assert report.value == pytest.approx(1.0)

    def test_degenerate_statistics_skip(self):
        report = hamming_nfe_correlation(
            lambda keys: self._stats([3] * len(keys), [7] * len(keys)), 100, RandomSource(24)
        )
        assert report.passed
        assert "skipped" in report.notes


class TestLosslessSuite:
    def test_small_scale_with_processors_passes(self):
        spec = ModelSpec(vocab_size=3, context_order=1, flatness=1.5, seed=21)
        model = TabularModel(spec)
        sampling = SamplingParams(temperature=0.9, top_k=2, cfg_scale=2.0)
        reports = run_lossless_suite(
            model, sampling, 3, 2, 6000, RandomSource(2024).derive("suite"),
            conventions=(False, True),
        )
        assert len(reports) == 14
        assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]

    def test_corrupted_residual_sampling_is_detected(self, monkeypatch):
        # a coupler that keeps the rejected draft instead of residual
        # sampling must blow the fit; vanilla stays green
        import specjac.decoder as decoder_mod
        from specjac.couplers import MrsOutcome
        from specjac.couplers import mrs as real_mrs

        def broken_mrs(p, q, x, rng):
            out = real_mrs(p, q, x, rng)
            if out.accepted:
                return out
            return MrsOutcome(False, x)

        monkeypatch.setattr(decoder_mod, "mrs", broken_mrs)
        model = TabularModel(SPEC)
        reports = run_lossless_suite(
            model, SamplingParams(), 5, 4, 2 * 10**4,
            RandomSource(99).derive("suite"), couplers=(CouplerKind.MAXIMAL,),
        )
        by_name = {r.name: r for r in reports}
        assert by_name["lossless.tv.vanilla"].passed
        assert by_name["lossless.gof.vanilla"].passed
        assert not by_name["lossless.gof.maximal"].passed


class TestOutOfVocabulary:
    """A decoded row with a token outside 0..V-1 is outside the exact support:
    it fails the chi-square gate and its mass counts in the TV.  Row (0, 5) at
    V=4 would read as (1, 1) if its tokens were taken as base-4 digits."""

    @pytest.mark.parametrize("bad", [
        [(0, 5)], [(4, 0)], [(2, -1)], [(-1, 3)], [(0, 5), (4, 0), (2, -1)],
    ])
    def test_bad_rows_stay_out_of_support(self, monkeypatch, bad):
        model, trials = TabularModel(SPEC), 40
        sampler = TargetSampler(model, SamplingParams())
        exact = {
            seq: float(sampler.dist([]).probs[seq[0]]) * float(sampler.dist(seq[:1]).probs[seq[1]])
            for seq in itertools.product(range(4), repeat=2)
        }
        good = trials - len(bad)

        def fake_decode(sampler, n, keys, *args, **kwargs):
            assert len(keys) == trials
            return np.array([(0, 0)] * good + bad, dtype=np.int64), None

        monkeypatch.setattr(oracle_mod, "decode_trials", fake_decode)
        reports = run_lossless_suite(model, SamplingParams(), 2, 2, trials, RandomSource(5))
        expected_tv = 0.5 * (
            abs(good / trials - exact[(0, 0)])
            + sum(p for seq, p in exact.items() if seq != (0, 0))
            + len(bad) / trials
        )
        tvs = [r for r in reports if r.name.startswith("lossless.tv.")]
        gofs = [r for r in reports if r.name.startswith("lossless.gof.")]
        assert len(tvs) == len(gofs) == 4
        for report in tvs:
            assert report.value == pytest.approx(expected_tv, rel=1e-12)
        for report in gofs:
            assert report.passed is False
            assert report.notes == f"{len(bad)} observations outside the exact support"


class TestReportTypes:
    # at 300 trials every cell of the desk law pools into one tail cell; under
    # top-k 1 the one sequence is a single cell of its own
    @pytest.mark.parametrize("sampling, trials, single", [
        (SamplingParams(), 300, 4),
        (SamplingParams(), 2000, 0),
        (SamplingParams(top_k=1), 300, 4),
    ])
    def test_passed_is_a_python_bool(self, sampling, trials, single):
        reports = run_lossless_suite(
            TabularModel(SPEC), sampling, 5, 4, trials, RandomSource(1234).derive("lossless"),
        )
        assert sum(r.notes == "degenerate single-cell law" for r in reports) == single
        assert all(type(r.passed) is bool for r in reports)

    @pytest.mark.parametrize("extra", [[], ["--sampling.top_k", "1"]])
    def test_csv_writes_lowercase_verdicts(self, tmp_path, extra):
        out = tmp_path / "reports.csv"
        argv = ["verify-lossless", "--model.seed", "11", "--run.trials", "300", *extra]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        with open(out, newline="") as handle:
            verdicts = [row["passed"] for row in csv.DictReader(handle)]
        assert len(verdicts) == 8
        assert set(verdicts) <= {"true", "false"}
