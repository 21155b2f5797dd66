"""Decode engines: progress, determinism, greedy agreement, stats recording."""

import math

import numpy as np
import pytest

import specjac.decoder as decoder_mod
from specjac.couplers import inverse_cdf_rows
from specjac.decoder import (
    CouplerKind,
    decode_sjd,
    decode_trials,
    decode_vanilla,
    record_beta,
    record_hamming,
    trial_keys,
)
from specjac.model import ModelSpec, SamplingParams, TabularModel, TargetSampler
from specjac.prob import Categorical
from specjac.rng import RandomSource

SPEC = ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=11)
FLAT_SPEC = ModelSpec(vocab_size=16, context_order=2, flatness=4.0, seed=5)


class TestVanilla:
    def test_single_token(self):
        seq, stats = decode_vanilla(TabularModel(SPEC), SamplingParams(), 1, RandomSource(1))
        assert len(seq) == 1
        assert stats.nfe == 1

    def test_nfe_equals_length(self):
        _, stats = decode_vanilla(TabularModel(SPEC), SamplingParams(), 9, RandomSource(2))
        assert stats.nfe == 9
        assert stats.total_tokens == 9
        assert sum(stats.finalized_counts()) == 9

    def test_greedy_is_seed_independent(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams(top_k=1)
        a, _ = decode_vanilla(model, sampling, 6, RandomSource(1))
        b, _ = decode_vanilla(model, sampling, 6, RandomSource(999))
        assert a == b

    def test_deterministic_replay(self):
        model = TabularModel(SPEC)
        a = decode_vanilla(model, SamplingParams(), 5, RandomSource(42))
        b = decode_vanilla(model, SamplingParams(), 5, RandomSource(42))
        assert a[0] == b[0]
        assert a[1].nfe == b[1].nfe


class TestSjdEngine:
    @pytest.mark.parametrize("coupler", list(CouplerKind))
    def test_degenerate_window_nfe_equals_n(self, coupler):
        _, stats = decode_sjd(
            TabularModel(SPEC), SamplingParams(), 7, 1, coupler, RandomSource(3)
        )
        assert stats.nfe == 7

    @pytest.mark.parametrize("coupler", list(CouplerKind))
    @pytest.mark.parametrize("redraft", [False, True])
    def test_progress_bounds(self, coupler, redraft):
        model = TabularModel(SPEC)
        for seed in range(20):
            _, stats = decode_sjd(
                model, SamplingParams(), 10, 4, coupler, RandomSource(seed),
                redraft=redraft,
            )
            if redraft:
                assert stats.nfe <= 2 * 10
            else:
                assert stats.nfe <= 10
            assert sum(stats.finalized_counts()) == 10

    @pytest.mark.parametrize("coupler", list(CouplerKind))
    @pytest.mark.parametrize("redraft", [False, True])
    def test_greedy_matches_vanilla(self, coupler, redraft):
        model = TabularModel(SPEC)
        sampling = SamplingParams(top_k=1)
        greedy, _ = decode_vanilla(model, sampling, 8, RandomSource(1))
        seq, _ = decode_sjd(
            model, sampling, 8, 4, coupler, RandomSource(77), redraft=redraft
        )
        assert seq == greedy

    @pytest.mark.parametrize("coupler", list(CouplerKind))
    def test_deterministic_replay(self, coupler):
        model = TabularModel(FLAT_SPEC)
        a_seq, a_stats = decode_sjd(
            model, SamplingParams(), 32, 8, coupler, RandomSource(5).derive("run")
        )
        b_seq, b_stats = decode_sjd(
            model, SamplingParams(), 32, 8, coupler, RandomSource(5).derive("run")
        )
        assert a_seq == b_seq
        assert a_stats.nfe == b_stats.nfe
        assert a_stats.finalized_counts() == b_stats.finalized_counts()
        assert a_stats.beta_trajectories == b_stats.beta_trajectories

    def test_window_shrinks_at_tail(self):
        _, stats = decode_sjd(
            TabularModel(SPEC), SamplingParams(), 3, 8, CouplerKind.MAXIMAL, RandomSource(6)
        )
        assert sum(stats.finalized_counts()) == 3

    def test_first_iteration_records_no_beta(self):
        _, stats = decode_sjd(
            TabularModel(SPEC), SamplingParams(), 5, 4, CouplerKind.MAXIMAL, RandomSource(7)
        )
        assert stats.per_iteration[0].betas == []
        assert stats.per_iteration[0].hamming is None

    def test_verify_stream_alignment_across_couplers(self):
        # paired seeds: the first iteration consumes identical draft and
        # verify randomness for every coupler, so the first window of
        # finalized tokens matches across couplers
        model = TabularModel(FLAT_SPEC)
        outs = {}
        for coupler in CouplerKind:
            seq, stats = decode_sjd(
                model, SamplingParams(), 32, 8, coupler, RandomSource(9).derive("t")
            )
            outs[coupler] = (seq, stats.finalized_counts()[0])
        first_counts = {c: outs[c][1] for c in outs}
        k = min(first_counts.values())
        prefixes = {outs[c][0][:k] for c in outs}
        assert len(prefixes) == 1

    def test_invalid_arguments(self):
        model = TabularModel(SPEC)
        with pytest.raises(ValueError):
            decode_sjd(model, SamplingParams(), 0, 4, CouplerKind.MAXIMAL, RandomSource(1))
        with pytest.raises(ValueError):
            decode_sjd(model, SamplingParams(), 5, 0, CouplerKind.MAXIMAL, RandomSource(1))


class TestCouplerOrderings:
    def test_maximal_stabilizes_drafts_vs_independent(self):
        model = TabularModel(FLAT_SPEC)
        sampler = TargetSampler(model, SamplingParams())
        master = RandomSource(31)
        hams = {}
        for coupler in (CouplerKind.MAXIMAL, CouplerKind.INDEPENDENT):
            fracs = []
            for k in range(40):
                _, stats = decode_sjd(
                    model, SamplingParams(), 48, 12, coupler,
                    master.derive("trial", k), sampler=sampler,
                )
                changed = sum(r.hamming for r in stats.per_iteration if r.hamming is not None)
                compared = sum(r.compared for r in stats.per_iteration)
                if compared:
                    fracs.append(changed / compared)
            hams[coupler] = float(np.mean(fracs))
        assert hams[CouplerKind.MAXIMAL] < hams[CouplerKind.INDEPENDENT]


class TestLockstepBatch:
    """The engine over B keys returns, per trial, exactly its one-key call."""

    CASES = {
        "V4-topk3": (SPEC, SamplingParams(top_k=3), 7, 4),
        "V16-topk12": (FLAT_SPEC, SamplingParams(top_k=12), 24, 6),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "coupler, redraft",
        [(None, False)] + [(c, r) for c in CouplerKind for r in (False, True)],
    )
    def test_batch_equals_single_calls(self, case, coupler, redraft, monkeypatch):
        # 11 trials in chunks of 4: every chunk boundary is crossed
        monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 4)
        spec, sampling, n, window = self.CASES[case]
        sampler = TargetSampler(TabularModel(spec), sampling)
        keys = trial_keys(RandomSource(8), 11)
        tokens, stats = decode_trials(sampler, n, keys, coupler, window, redraft)
        assert tokens.shape == (11, n) and len(stats) == 11
        for i in range(len(keys)):
            one_tokens, one_stats = decode_trials(
                sampler, n, keys[i : i + 1], coupler, window, redraft
            )
            assert tokens[i].tolist() == one_tokens[0].tolist()
            assert stats[i] == one_stats[0]  # nfe, every IterationRecord, betas
            assert list(stats[i].beta_trajectories) == list(one_stats[0].beta_trajectories)
        if coupler is not None:
            # trials leave the lockstep at different iterations
            assert len({s.nfe for s in stats}) > 1
        bare, none = decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)
        assert np.array_equal(bare, tokens) and none == []

    def test_one_key_calls_are_decode_sjd_and_decode_vanilla(self):
        model = TabularModel(FLAT_SPEC)
        sampler = TargetSampler(model, SamplingParams())
        master = RandomSource(12)
        keys = trial_keys(master, 3)
        tokens, stats = decode_trials(sampler, 20, keys, CouplerKind.GUMBEL, 5)
        vanilla, _ = decode_trials(sampler, 20, keys)
        for k in range(3):
            seq, one = decode_sjd(
                model, SamplingParams(), 20, 5, CouplerKind.GUMBEL, master.derive("trial", k)
            )
            assert seq == tuple(tokens[k].tolist()) and one == stats[k]
            seq, _ = decode_vanilla(model, SamplingParams(), 20, master.derive("trial", k))
            assert seq == tuple(vanilla[k].tolist())


class TestRecordBeta:
    def test_values_against_hand_computation(self):
        betas = record_beta(np.array([[0.4, 0.6]]), np.array([[0.6, 0.4]]))
        assert betas.tolist() == [pytest.approx(0.8)]

    def test_identical_and_disjoint(self):
        betas = record_beta(
            np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[0.5, 0.5], [1.0, 0.0]])
        )
        assert betas.tolist() == [1.0, 0.0]

    def test_uniform_initializer_skipped(self):
        # only slots whose draft law is a model evaluation are scored: under
        # the default convention those are exactly the slid, re-drafted slots
        sampler = TargetSampler(TabularModel(FLAT_SPEC), SamplingParams())
        keys = trial_keys(RandomSource(4), 20)
        _, stats = decode_trials(sampler, 32, keys, CouplerKind.MAXIMAL, 8)
        for trial in stats:
            assert trial.per_iteration[0].betas == []
            for rec in trial.per_iteration:
                assert len(rec.betas) == rec.compared
            assert sum(len(v) for v in trial.beta_trajectories.values()) == sum(
                rec.compared for rec in trial.per_iteration
            )


class TestRecordHamming:
    def test_no_comparable_positions(self):
        tokens = np.array([[1, 2], [0, 3]])
        changed, compared = record_hamming(tokens, tokens + 1, np.zeros((2, 2), dtype=bool))
        assert changed.tolist() == [0, 0] and compared.tolist() == [0, 0]

    def test_counts_changes(self):
        changed, compared = record_hamming(
            np.array([[1, 2, 0, 2]]), np.array([[1, 3, 1, 2]]), np.ones((1, 4), dtype=bool)
        )
        assert (changed.tolist(), compared.tolist()) == ([2], [4])

    def test_uniform8_expected_change_rate(self):
        # four comparable positions redrawn independently from uniform-8:
        # expected changes per iteration = 4 * 7/8 = 3.5
        dist = Categorical.uniform(8)
        iterations = 10**4
        u = RandomSource(17).uniforms(2 * 4 * iterations)
        rows = np.zeros(u.size, dtype=np.int64)
        draws = inverse_cdf_rows(dist.probs[None], dist.cdf()[None], rows, u)
        tokens, prev = draws.reshape(2, iterations, 4)
        changed, compared = record_hamming(tokens, prev, np.ones((iterations, 4), dtype=bool))
        assert np.all(compared == 4)
        mean = changed.mean()
        sigma = math.sqrt(4 * (7 / 8) * (1 / 8) / iterations)
        assert abs(mean - 3.5) <= 3 * sigma
