"""Tabular model: Markov structure, parallel evaluation, exact enumeration."""

import itertools
import math

import numpy as np
import pytest

from specjac.errors import BudgetError
from specjac.model import (
    BOS,
    ModelSpec,
    SamplingParams,
    TabularModel,
    TargetSampler,
    enumerate_sequence_distribution,
)
from specjac.prob import Logits, apply_processors, mix_cfg, renyi2_entropy, softmax

SPEC = ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=11)


class TestEvalNext:
    """Next-position logits: ``TabularModel.logits`` of a ``context_key``."""

    def test_deterministic_across_calls_and_instances(self):
        a = TabularModel(SPEC)
        b = TabularModel(SPEC)
        assert np.array_equal(a.logits((BOS, BOS)).values, a.logits((BOS, BOS)).values)
        assert np.array_equal(a.logits((1, 2)).values, b.logits((1, 2)).values)

    def test_markov_property(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        base = sampler.dist([3, 1, 2]).probs
        same_tail = sampler.dist([0, 0, 0, 1, 2]).probs
        assert np.array_equal(base, same_tail)
        different_tail = sampler.dist([3, 1, 3]).probs
        assert not np.array_equal(base, different_tail)

    def test_bos_padding_defines_short_prefixes(self):
        model = TabularModel(SPEC)
        assert model.context_key([]) == (BOS, BOS)
        assert model.context_key([3]) == (BOS, 3)
        assert model.context_key([1, 2, 3]) == (2, 3)
        assert model.logits(model.context_key([])).vocab_size == 4

    def test_flatness_limit_approaches_uniform(self):
        spec = ModelSpec(vocab_size=8, context_order=1, flatness=1e6, seed=0)
        probs = softmax(TabularModel(spec).logits((2,)).values)
        assert probs.max() - probs.min() < 1e-4

    def test_distinct_seeds_give_distinct_tables(self):
        other = TabularModel(ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=12))
        model = TabularModel(SPEC)
        assert not np.array_equal(model.logits((BOS, BOS)).values, other.logits((BOS, BOS)).values)


class TestEvalWindow:
    """One parallel window evaluation: ``TargetSampler.window_dists``."""

    def test_single_slot_equals_eval_next(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        window = sampler.window_dists([1, 2], [3])
        assert len(window) == 1
        assert np.array_equal(window[0].probs, sampler.dist([1, 2]).probs)

    def test_matches_sequential_eval_next_exactly(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        context = [2, 0]
        window = [1, 3, 0, 2, 1]
        parallel = sampler.window_dists(context, window)
        assert len(parallel) == len(window)
        for j in range(len(window)):
            sequential = sampler.dist(context + window[:j])
            assert np.array_equal(parallel[j].probs, sequential.probs)

    def test_causality_under_suffix_permutation(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        a = sampler.window_dists([0], [1, 2, 3, 0])
        b = sampler.window_dists([0], [1, 2, 0, 3])
        for j in range(3):
            assert np.array_equal(a[j].probs, b[j].probs)

    def test_empty_window(self):
        assert TargetSampler(TabularModel(SPEC), SamplingParams()).window_dists([0], []) == []


class TestTargetDistribution:
    """``TargetSampler.dist`` against the guidance + processor pipeline."""

    def test_plain_softmax_when_unprocessed(self):
        model = TabularModel(SPEC)
        dist = TargetSampler(model, SamplingParams()).dist([1])
        assert np.allclose(dist.probs, softmax(model.logits((BOS, 1)).values))

    def test_greedy_limit_is_point_mass(self):
        model = TabularModel(SPEC)
        dist = TargetSampler(model, SamplingParams(top_k=1)).dist([1])
        assert np.count_nonzero(dist.probs) == 1
        assert dist.probs[np.argmax(model.logits((BOS, 1)).values)] == 1.0

    def test_guided_mix_with_zero_unconditional_sharpens(self, monkeypatch):
        model = TabularModel(SPEC)
        stored = model.logits
        monkeypatch.setattr(
            model, "logits",
            lambda context, uncond=False: Logits(np.zeros(4)) if uncond else stored(context),
        )
        dist = TargetSampler(model, SamplingParams(cfg_scale=3.0)).dist([0])
        assert np.allclose(dist.probs, softmax(4.0 * stored((BOS, 0)).values))

    def test_composition_matches_manual_pipeline(self):
        spec = ModelSpec(vocab_size=6, context_order=1, flatness=1.0, seed=3)
        model = TabularModel(spec)
        sampling = SamplingParams(temperature=0.7, top_k=4, top_p=0.9, cfg_scale=2.5)
        dist = TargetSampler(model, sampling).dist([2])
        mixed = mix_cfg(model.logits((2,)), model.logits((2,), uncond=True), 2.5)
        manual = apply_processors(mixed, 0.7, 4, 0.9)
        assert np.allclose(dist.probs, manual.probs)

    def test_unconditional_table_defaults_to_seed_plus_one(self):
        model = TabularModel(SPEC)
        shadow = TabularModel(ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=12))
        assert np.array_equal(
            model.logits((1, 2), uncond=True).values, shadow.logits((1, 2)).values
        )


class TestTargetSampler:
    def test_matches_target_distribution(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams(temperature=1.3, top_k=3, cfg_scale=1.5)
        sampler = TargetSampler(model, sampling)
        for prefix in ([], [1], [3, 2], [0, 1, 2, 3]):
            k = model.context_key(prefix)
            expected = apply_processors(
                mix_cfg(model.logits(k), model.logits(k, uncond=True), 1.5), 1.3, 3, None
            )
            assert np.array_equal(sampler.dist(prefix).probs, expected.probs)

    def test_window_matches_sequential(self):
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        context = [1, 0]
        window = [2, 2, 3]
        dists = sampler.window_dists(context, window)
        assert len(dists) == len(window)
        for j, dist in enumerate(dists):
            assert np.array_equal(dist.probs, sampler.dist(context + window[:j]).probs)

    def test_cache_returns_same_object(self):
        # the row table holds one row per context: prefixes that agree on the
        # last context_order tokens share its id and its row
        sampler = TargetSampler(TabularModel(SPEC), SamplingParams())
        a, b = sampler.context([1, 2]), sampler.context([0, 1, 2])
        assert a == b
        row_a, row_b = sampler.rows(np.array([a, b])).tolist()
        assert row_a == row_b != TargetSampler.UNIFORM_ROW
        assert sampler.next_ctx(np.array([sampler.context([1])]), np.array([2]))[0] == a


class TestEnumerate:
    def test_single_step_equals_target_distribution(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams()
        law = enumerate_sequence_distribution(model, sampling, 1)
        dist = TargetSampler(model, sampling).dist([])
        for token in range(4):
            assert law[(token,)] == pytest.approx(float(dist.probs[token]), abs=1e-15)

    def test_chain_rule_by_hand(self):
        spec = ModelSpec(vocab_size=2, context_order=1, flatness=1.0, seed=9)
        model = TabularModel(spec)
        sampling = SamplingParams()
        law = enumerate_sequence_distribution(model, sampling, 2)
        assert len(law) == 4
        sampler = TargetSampler(model, sampling)
        first = sampler.dist([])
        for a in range(2):
            cond = sampler.dist([a])
            for b in range(2):
                expected = float(first.probs[a]) * float(cond.probs[b])
                assert law[(a, b)] == pytest.approx(expected, abs=1e-15)

    def test_total_mass(self):
        law = enumerate_sequence_distribution(TabularModel(SPEC), SamplingParams(), 5)
        assert len(law) == 1024
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)

    def test_marginal_consistency(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams(top_k=3)
        law_n = enumerate_sequence_distribution(model, sampling, 4)
        law_m = enumerate_sequence_distribution(model, sampling, 3)
        reduced: dict = {}
        for seq, mass in law_n.items():
            reduced[seq[:-1]] = reduced.get(seq[:-1], 0.0) + mass
        assert set(reduced) == set(law_m)
        for seq, mass in law_m.items():
            assert reduced[seq] == pytest.approx(mass, abs=1e-9)

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="reduce the vocabulary size or the length"):
            enumerate_sequence_distribution(TabularModel(SPEC), SamplingParams(), 13)


class TestFlatnessEntropy:
    def test_mean_renyi2_weakly_increases_with_flatness(self):
        # prefixes of length 0..2 reach every order-2 context, BOS-padded ones included
        prefixes = [p for n in range(3) for p in itertools.product(range(4), repeat=n)]
        means = []
        for flatness in (0.5, 1.0, 4.0, 16.0):
            spec = ModelSpec(vocab_size=4, context_order=2, flatness=flatness, seed=7)
            sampler = TargetSampler(TabularModel(spec), SamplingParams())
            means.append(np.mean([renyi2_entropy(sampler.dist(p)) for p in prefixes]))
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] <= math.log(4) + 1e-12


class TestModelSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="vocab_size"):
            ModelSpec(vocab_size=1)
        with pytest.raises(ValueError):
            ModelSpec(vocab_size=4, flatness=0.0)
        with pytest.raises(ValueError):
            ModelSpec(vocab_size=4, context_order=-1)
