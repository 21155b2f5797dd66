"""Decode engines: progress, determinism, greedy agreement, stats recording."""

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specjac.decoder as decoder_mod
from reference_decoder import reference_decode
from specjac.cli import _aggregate
from specjac.couplers import inverse_cdf_rows, mrs
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

    def test_stall_guard_stops_a_verify_step_that_finalizes_nothing(self, monkeypatch):
        # stop 0 and no rejected slot: under the redraft convention no
        # trial advances, so the guard must end the loop after 2n calls
        calls = []

        def stalled(sampler, out, tr, ps, wb, wj, width, *rest):
            calls.append(len(width))
            return np.zeros_like(width), np.empty(0, np.int64)

        monkeypatch.setattr(decoder_mod, "_verify", stalled)
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        keys = trial_keys(RandomSource(1), 3)
        with pytest.raises(RuntimeError, match="^decode_trials failed to make progress$"):
            decode_trials(sampler, 5, keys, CouplerKind.MAXIMAL, 4, redraft=True)
        assert calls == [3] * (2 * 5)

    @pytest.mark.parametrize("coupler", list(CouplerKind))
    @pytest.mark.parametrize("redraft", [False, True])
    @pytest.mark.parametrize("spec, n, window", [(SPEC, 7, 4), (FLAT_SPEC, 24, 6)])
    def test_redrawn_slot_reads_its_last_iteration_draft(
        self, spec, n, window, coupler, redraft, monkeypatch
    ):
        # the engine keeps no copy of a slot's previous draft: it reads it
        # from the token matrix before drafting, so every re-drawn slot's
        # ``prev`` must be the token that slot was drafted one iteration before
        monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 3)
        drafted, checked = {}, [0]  # chunk -> {(trial, position): last iteration's draft}
        draft = decoder_mod._draft

        def spy(sampler, coupler, out, tr, ps, rows, prev_rows, prev, fresh, redo, u, gkeys):
            draft(sampler, coupler, out, tr, ps, rows, prev_rows, prev, fresh, redo, u, gkeys)
            last = drafted.get(out.ctypes.data, {})  # chunks own disjoint rows of one matrix
            for slot in np.flatnonzero(redo).tolist():
                assert last[tr[slot], ps[slot]] == prev[slot]
            checked[0] += int(redo.sum())
            slots = zip(tr.tolist(), ps.tolist())
            drafted[out.ctypes.data] = dict(zip(slots, out[tr, ps].tolist()))

        monkeypatch.setattr(decoder_mod, "_draft", spy)
        sampler = TargetSampler(TabularModel(spec), SamplingParams())
        keys = trial_keys(RandomSource(n + window), 7)  # chunks of 3, 3 and 1
        decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)
        assert len(drafted) == 3 and checked[0] > 0


class TestCouplerOrderings:
    def test_maximal_stabilizes_drafts_vs_independent(self):
        sampler = TargetSampler(TabularModel(FLAT_SPEC), SamplingParams())
        master = RandomSource(31)
        hams = {}
        for coupler in (CouplerKind.MAXIMAL, CouplerKind.INDEPENDENT):
            fracs = []
            for k in range(40):
                keys = np.array([master.derive("trial", k).key], dtype=np.uint64)
                _, stats = decode_trials(sampler, 48, keys, coupler, 12)
                changed = int(stats.changed[stats.compared > 0].sum())
                compared = int(stats.compared.sum())
                if compared:
                    fracs.append(changed / compared)
            hams[coupler] = float(np.mean(fracs))
        assert hams[CouplerKind.MAXIMAL] < hams[CouplerKind.INDEPENDENT]


class TestLockstepBatch:
    """The engine over B keys returns, per trial, exactly its one-key call
    and the reference decoder's tokens, NFE and statistics rows."""

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
            mine = _trial(stats, i)
            assert mine == _trial(one_stats, 0)
            # the one-trial reference decoder, slot by slot, agrees
            rows = list(zip(*(mine[c] for c in ("finalized", "changed", "compared"))))
            assert reference_decode(sampler, n, int(keys[i]), coupler, window, redraft) == (
                tokens[i].tolist(), mine["nfe"], rows
            )
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


class TestEngineDigest:
    """The bytes of the engine's tokens and of every ``DecodeStats`` column
    over a fixed grid, chunk boundaries crossed: a refactor of the engine's
    bookkeeping must leave this digest unchanged."""

    # (spec, sampling, n, window)
    GRID = [
        (SPEC, SamplingParams(), 1, 3),  # n = 1, the window wider than n
        (SPEC, SamplingParams(top_k=3, cfg_scale=1.5), 9, 1),  # W = 1, guided top-k
        (ModelSpec(vocab_size=6, context_order=0, flatness=1.5, seed=2),
         SamplingParams(), 7, 11),  # order 0, W > n
        (FLAT_SPEC, SamplingParams(top_p=0.9, temperature=0.7, cfg_scale=1.5), 24, 6),
        (ModelSpec(vocab_size=8, context_order=3, flatness=2.0, seed=4),
         SamplingParams(top_k=5, temperature=1.3), 16, 5),
        (FLAT_SPEC, SamplingParams(), 40, 12),
    ]
    VARIANTS = [(None, False)] + [(c, r) for c in CouplerKind for r in (False, True)]
    DIGEST = "c2e25833b4a566f982621a1a71ff5d0fc93b82875aee0a0c21d583aa64d0fef1"

    def test_digest(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 3)
        digest = hashlib.sha256()
        for spec, sampling, n, window in self.GRID:
            sampler = TargetSampler(TabularModel(spec), sampling)
            keys = trial_keys(RandomSource(n * window), 8)
            for coupler, redraft in self.VARIANTS:
                tokens, stats = decode_trials(sampler, n, keys, coupler, window, redraft)
                for array in (tokens, *(getattr(stats, c) for c in COLUMNS)):
                    digest.update(f"{array.dtype.str}{array.shape}".encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestVerifySeamDigest:
    """Every ``decoder.mrs`` call of the verify step, in call order: the
    bytes of both laws, the draft token, the stream key and the returned
    token.  Mutation checks patch this seam, so a refactor around it must
    leave the calls, their arguments and their order unchanged."""

    # (spec, n, window, trials): desk and flat models, TRIAL_CHUNK patched to 4
    GRID = [(SPEC, 5, 4, 9), (FLAT_SPEC, 24, 8, 6)]
    VARIANTS = [(c, r) for c in CouplerKind for r in (False, True)]
    CALLS, DIGEST = 181, "8867afc43a2a326e7bc8f2ac377d55bbd58484d1b89b6029a2c3a90fa1bbd6cd"

    def test_digest(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 4)
        digest, calls = hashlib.sha256(), [0]

        def recorder(p, q, x, rng):
            key = rng.key
            out = mrs(p, q, x, rng)
            for part in (p.probs.tobytes(), q.probs.tobytes(), f"{x},{key},{out.token};"):
                digest.update(part if isinstance(part, bytes) else part.encode())
            calls[0] += 1
            return out

        monkeypatch.setattr(decoder_mod, "mrs", recorder)
        for spec, n, window, trials in self.GRID:
            sampler = TargetSampler(TabularModel(spec), SamplingParams())
            keys = trial_keys(RandomSource(n + window), trials)
            for coupler, redraft in self.VARIANTS:
                decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)
        assert (calls[0], digest.hexdigest()) == (self.CALLS, self.DIGEST)

    def test_sources_carry_their_streams_draws(self, monkeypatch):
        # the verify step hands each call its stream's first two draws; a
        # copy taken before mrs draws must replay the stream from its key
        monkeypatch.setattr(decoder_mod, "TRIAL_CHUNK", 4)
        calls = [0]

        def recorder(p, q, x, rng):
            replay, stream = copy.copy(rng), RandomSource.from_key(rng.key)
            got, want = ([s.draw_uniform01() for _ in range(2)] for s in (replay, stream))
            assert got == want, f"stream {rng.key}: handed draws {got}, the stream's {want}"
            assert len(rng._given) == 2, f"stream {rng.key}: {len(rng._given)} draws handed"
            calls[0] += 1
            return mrs(p, q, x, rng)

        monkeypatch.setattr(decoder_mod, "mrs", recorder)
        for spec, n, window, trials in self.GRID:
            sampler = TargetSampler(TabularModel(spec), SamplingParams())
            keys = trial_keys(RandomSource(n + window), trials)
            for coupler, redraft in self.VARIANTS:
                decode_trials(sampler, n, keys, coupler, window, redraft, stats=False)
        assert calls[0] == self.CALLS


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
        "accepted": mean([n / nfe for nfe in nfes]),
        "hamming": mean(hammings),
        "beta": mean(betas),
    }
    for got, want in ((stats.mean_hamming(), hammings), (stats.mean_beta(), betas),
                      (_aggregate(stats, n, stats.mean_hamming(), stats.mean_beta()),
                       expected)):
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
        tokens = np.array([1, 2, 0, 3])
        changed, compared = record_hamming(
            tokens, tokens + 1, np.zeros(4, dtype=bool), np.array([0, 0, 1, 1]), 2
        )
        assert changed.tolist() == [0, 0] and compared.tolist() == [0, 0]

    def test_counts_changes(self):
        changed, compared = record_hamming(
            np.array([1, 2, 0, 2]), np.array([1, 3, 1, 2]), np.ones(4, dtype=bool),
            np.zeros(4, dtype=np.int64), 1,
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
        tokens, prev = draws.reshape(2, 4 * iterations)
        changed, compared = record_hamming(
            tokens, prev, np.ones(4 * iterations, dtype=bool),
            np.repeat(np.arange(iterations), 4), iterations,
        )
        assert np.all(compared == 4)
        mean = changed.mean()
        sigma = math.sqrt(4 * (7 / 8) * (1 / 8) / iterations)
        assert abs(mean - 3.5) <= 3 * sigma
