"""Decode engines: progress, determinism, greedy agreement, stats recording."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specjac.decoder as decoder_mod
from specjac.cli import _aggregate
from specjac.couplers import inverse_cdf_rows
from specjac.decoder import (
    CouplerKind,
    DecodeStats,
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
COLUMNS = [f.name for f in dataclasses.fields(DecodeStats)]


def _trial(stats, i):
    """Trial i's slice of every column, its trial id left out."""
    end = int(stats.nfe[: i + 1].sum())
    steps = slice(end - int(stats.nfe[i]), end)
    mine = stats.beta_trials == i
    return {
        "nfe": int(stats.nfe[i]),
        **{c: getattr(stats, c)[steps].tolist() for c in ("finalized", "changed", "compared")},
        "betas": stats.betas[mine].tolist(),
        "beta_positions": stats.beta_positions[mine].tolist(),
    }


def _beta_counts(monkeypatch):
    """Spy on the engine's ``record_beta``: the betas each iteration records."""
    counts = []

    def spy(new_probs, draft_probs):
        betas = record_beta(new_probs, draft_probs)
        counts.append(len(betas))
        return betas

    monkeypatch.setattr(decoder_mod, "record_beta", spy)
    return counts


class TestVanilla:
    def test_single_token(self):
        seq, stats = decode_vanilla(TabularModel(SPEC), SamplingParams(), 1, RandomSource(1))
        assert len(seq) == 1
        assert stats.nfe == 1

    def test_nfe_equals_length(self):
        _, stats = decode_vanilla(TabularModel(SPEC), SamplingParams(), 9, RandomSource(2))
        assert stats.nfe.tolist() == [9]
        assert len(stats.finalized) == 9  # one entry per iteration
        assert stats.finalized.sum() == 9

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
                assert stats.nfe[0] <= 2 * 10
            else:
                assert stats.nfe[0] <= 10
            assert stats.finalized.sum() == 10

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
        for column in COLUMNS:
            assert getattr(a_stats, column).tolist() == getattr(b_stats, column).tolist()

    def test_window_shrinks_at_tail(self):
        _, stats = decode_sjd(
            TabularModel(SPEC), SamplingParams(), 3, 8, CouplerKind.MAXIMAL, RandomSource(6)
        )
        assert stats.finalized.sum() == 3

    def test_first_iteration_records_no_beta(self, monkeypatch):
        counts = _beta_counts(monkeypatch)
        _, stats = decode_sjd(
            TabularModel(SPEC), SamplingParams(), 5, 4, CouplerKind.MAXIMAL, RandomSource(7)
        )
        assert counts[0] == 0
        assert stats.compared[0] == 0  # no hamming value

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
            outs[coupler] = (seq, int(stats.finalized[0]))
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
                changed = int(stats.changed[stats.compared > 0].sum())
                compared = int(stats.compared.sum())
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
        assert tokens.shape == (11, n) and len(stats.nfe) == 11
        assert len(stats.finalized) == stats.nfe.sum()
        assert (np.diff(stats.beta_trials) >= 0).all()  # trial-major
        for i in range(len(keys)):
            one_tokens, one_stats = decode_trials(
                sampler, n, keys[i : i + 1], coupler, window, redraft
            )
            assert tokens[i].tolist() == one_tokens[0].tolist()
            # nfe, every (iteration) entry, betas and their positions, in order
            assert _trial(stats, i) == _trial(one_stats, 0)
        if coupler is not None:
            # trials leave the lockstep at different iterations
            assert len(set(stats.nfe.tolist())) > 1
        bare, none = decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)
        assert np.array_equal(bare, tokens) and none is None

    @pytest.mark.parametrize("coupler", [None, CouplerKind.MAXIMAL])
    def test_zero_keys(self, coupler):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        tokens, stats = decode_trials(sampler, 5, np.empty(0, np.uint64), coupler, 4)
        assert tokens.shape == (0, 5)
        for column in COLUMNS:
            assert len(getattr(stats, column)) == 0

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
            assert seq == tuple(tokens[k].tolist()) and _trial(one, 0) == _trial(stats, k)
            seq, _ = decode_vanilla(model, SamplingParams(), 20, master.derive("trial", k))
            assert seq == tuple(vanilla[k].tolist())


def _assert_list_means(stats, n):
    """Per-trial means and the CLI aggregate equal ``np.mean`` over Python
    lists rebuilt per trial, to the bit."""
    nfes, ends = stats.nfe.tolist(), np.cumsum(stats.nfe).tolist()
    hammings, betas = [], []
    for k, (nfe, end) in enumerate(zip(nfes, ends)):
        steps = slice(end - nfe, end)
        changes = [
            c for c, m in zip(stats.changed[steps].tolist(), stats.compared[steps].tolist()) if m
        ]
        trial_betas = stats.betas[stats.beta_trials == k].tolist()
        hammings.append(float(np.mean(changes)) if changes else None)
        betas.append(float(np.mean(trial_betas)) if trial_betas else None)

    def mean(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else None

    expected = {
        "nfe": float(np.array(nfes, dtype=np.float64).mean()),
        "nfe_std": float(np.array(nfes, dtype=np.float64).std()),
        "iterations": mean(nfes),
        "accepted": mean([n / nfe for nfe in nfes]),
        "hamming": mean(hammings),
        "beta": mean(betas),
    }
    for got, want in ((stats.mean_hamming(), hammings), (stats.mean_beta(), betas),
                      (_aggregate(stats, n), expected)):
        assert got == want and repr(got) == repr(want)


class TestColumnMeans:
    @settings(max_examples=40, deadline=None)
    @given(
        coupler=st.sampled_from([None, *CouplerKind]),
        redraft=st.booleans(),
        flatness=st.sampled_from([0.5, 1.0, 4.0]),
        window=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_means_equal_list_means(self, coupler, redraft, flatness, window, seed):
        spec = ModelSpec(vocab_size=16, context_order=2, flatness=flatness, seed=5)
        sampler = TargetSampler(TabularModel(spec), SamplingParams())
        keys = trial_keys(RandomSource(seed), 9)
        _, stats = decode_trials(sampler, 32, keys, coupler, window, redraft)
        _assert_list_means(stats, 32)

    @pytest.mark.parametrize("coupler", list(CouplerKind))
    @pytest.mark.parametrize("redraft", [False, True])
    def test_long_trials_equal_list_means(self, coupler, redraft):
        # peaked conditionals: about one token per iteration, so a trial
        # records hundreds of betas and np.mean sums them pairwise in blocks
        spec = ModelSpec(vocab_size=16, context_order=2, flatness=0.5, seed=5)
        sampler = TargetSampler(TabularModel(spec), SamplingParams())
        _, stats = decode_trials(sampler, 64, trial_keys(RandomSource(3), 6), coupler, 16, redraft)
        assert np.bincount(stats.beta_trials).max() > 128
        _assert_list_means(stats, 64)


class TestRecordBeta:
    def test_values_against_hand_computation(self):
        betas = record_beta(np.array([[0.4, 0.6]]), np.array([[0.6, 0.4]]))
        assert betas.tolist() == [pytest.approx(0.8)]

    def test_identical_and_disjoint(self):
        betas = record_beta(
            np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[0.5, 0.5], [1.0, 0.0]])
        )
        assert betas.tolist() == [1.0, 0.0]

    def test_uniform_initializer_skipped(self, monkeypatch):
        # only slots whose draft law is a model evaluation are scored: under
        # the default convention those are exactly the slid, re-drafted slots
        sampler = TargetSampler(TabularModel(FLAT_SPEC), SamplingParams())
        keys = trial_keys(RandomSource(4), 20)
        _, stats = decode_trials(sampler, 32, keys, CouplerKind.MAXIMAL, 8)
        counts = _beta_counts(monkeypatch)
        for k in range(len(keys)):
            counts.clear()
            _, one = decode_trials(sampler, 32, keys[k : k + 1], CouplerKind.MAXIMAL, 8)
            assert counts[0] == 0
            assert counts == one.compared.tolist()  # per iteration
            assert (stats.beta_trials == k).sum() == sum(_trial(stats, k)["compared"])


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
        draws = inverse_cdf_rows(dist.probs[None], np.cumsum(dist.probs)[None], rows, u)
        tokens, prev = draws.reshape(2, iterations, 4)
        changed, compared = record_hamming(tokens, prev, np.ones((iterations, 4), dtype=bool))
        assert np.all(compared == 4)
        mean = changed.mean()
        sigma = math.sqrt(4 * (7 / 8) * (1 / 8) / iterations)
        assert abs(mean - 3.5) <= 3 * sigma
