"""Tabular model: Markov structure, parallel evaluation, exact enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specjac.decoder import CouplerKind, decode_sjd
from specjac.errors import BudgetError
from specjac.model import (
    BOS,
    ModelSpec,
    SamplingParams,
    TabularModel,
    TargetSampler,
    enumerate_sequence_distribution,
    sequence_codes,
)
from specjac.prob import (
    Categorical,
    Logits,
    apply_processors,
    mix_cfg,
    renyi2_entropy,
    softmax,
)
from specjac.rng import RandomSource

SPEC = ModelSpec(vocab_size=4, context_order=2, flatness=2.0, seed=11)


def _code(sampler, prefix):
    """Context code of the position after ``prefix``."""
    seq = np.array(prefix, dtype=np.int64).reshape(1, -1)
    return int(sampler.codes(seq, [0], [seq.shape[1]])[0])


def _key_code(key, vocab):
    """Reference: the base-(vocab + 1) number of a ``context_key``."""
    code = 0
    for token in key:
        code = code * (vocab + 1) + token + 1
    return code


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
        stored = model.logit_rows
        monkeypatch.setattr(
            model, "logit_rows",
            lambda contexts, uncond=False: (
                Logits(np.zeros((len(contexts), 4))) if uncond else stored(contexts)
            ),
        )
        dist = TargetSampler(model, SamplingParams(cfg_scale=3.0)).dist([0])
        assert np.allclose(dist.probs, softmax(4.0 * stored(np.array([[BOS, 0]])).values[0]))

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
        a, b = _code(sampler, [1, 2]), _code(sampler, [0, 1, 2])
        assert a == b
        row_a, row_b = sampler.rows(np.array([a, b])).tolist()
        assert row_a == row_b != TargetSampler.UNIFORM_ROW
        assert sampler.codes(np.array([[3, 1, 2, 0]]), [0], [3])[0] == a


class TestContextCodes:
    """A context id is the base-(V+1) code of the ``context_key``: digit 0
    for BOS, digit t + 1 for token t."""

    @settings(max_examples=100, deadline=None)
    @given(
        vocab=st.integers(2, 64),
        order=st.integers(0, 4),
        prefixes=st.lists(st.lists(st.integers(0, 63), max_size=6), min_size=1, max_size=8),
        token=st.integers(0, 63),
        cfg_scale=st.sampled_from([0.0, 1.5]),
        data=st.data(),
    )
    def test_codes_match_context_keys(self, vocab, order, prefixes, token, cfg_scale, data):
        # prefixes shorter than the order are BOS-padded
        model = TabularModel(ModelSpec(vocab, order, seed=3))
        sampling = SamplingParams(cfg_scale=cfg_scale)
        sampler = TargetSampler(model, sampling)
        prefixes = [[t % vocab for t in prefix] for prefix in prefixes]
        token %= vocab
        # row r: prefix r, then the token, then filler
        seq = np.zeros((len(prefixes), 7), dtype=np.int64)
        for r, prefix in enumerate(prefixes):
            seq[r, : len(prefix) + 1] = prefix + [token]
        lengths, trials = np.array([len(p) for p in prefixes]), np.arange(len(prefixes))
        codes = sampler.codes(seq, trials, lengths)
        keys = [model.context_key(prefix) for prefix in prefixes]
        assert codes.tolist() == [_key_code(key, vocab) for key in keys]
        assert all(0 <= code < (vocab + 1) ** order for code in codes.tolist())
        stepped = sampler.codes(seq, trials, lengths + 1)
        assert stepped.tolist() == [_code(sampler, prefix + [token]) for prefix in prefixes]
        for a, b in itertools.product(range(len(keys)), repeat=2):
            assert (codes[a] == codes[b]) == (keys[a] == keys[b])

        # every position of a token matrix, the width included, has the code
        # of its prefix's key, read one column or all columns at a time
        width = data.draw(st.integers(0, 6))
        matrix = np.array(
            data.draw(st.lists(
                st.lists(st.integers(0, vocab - 1), min_size=width, max_size=width),
                min_size=len(codes), max_size=len(codes),
            )),
            dtype=np.int64,
        ).reshape(len(codes), width)
        grid = sampler.codes(matrix, trials[:, None], np.arange(width + 1))
        assert grid.shape == (len(codes), width + 1)
        for j in range(width + 1):
            expected = [_key_code(model.context_key(row[:j]), vocab) for row in matrix.tolist()]
            assert sampler.codes(matrix, trials, j).tolist() == expected
            assert grid[:, j].tolist() == expected
        assert sampler.codes(np.empty((1, 0), dtype=np.int64), [0], [0]).tolist() == [0]

        # rows built from decoded codes equal the target law on the keys
        contexts = np.array(keys, dtype=np.int64).reshape(len(keys), order)
        logits = model.logit_rows(contexts)
        if cfg_scale:
            logits = mix_cfg(logits, model.logit_rows(contexts, uncond=True), cfg_scale)
        expected = apply_processors(logits, 1.0, None, None).probs
        for row, law in zip(sampler.rows(codes).tolist(), expected):
            assert sampler.probs[row].tobytes() == law.tobytes()
            assert sampler.cdf[row].tobytes() == np.cumsum(law).tobytes()


def _one_law_processors(values, temperature, top_k, top_p):
    """Reference: the processors of a single logit vector, one token mask at
    a time (top-p cut by ``searchsorted``)."""
    values = values / temperature
    if top_k is not None and top_k < values.size:
        keep = np.argsort(-values, kind="stable")[:top_k]
        masked = np.full_like(values, -np.inf)
        masked[keep] = values[keep]
        values = masked
    if top_p is not None:
        probs = softmax(values)
        order = np.argsort(-probs, kind="stable")
        cut = int(np.searchsorted(np.cumsum(probs[order]), top_p, side="left"))
        if cut < order.size:
            masked = np.full_like(values, -np.inf)
            keep = order[: cut + 1]
            masked[keep] = values[keep]
            values = masked
    probs = softmax(values)
    return probs / probs.sum()


class TestBulkBuild:
    """``TargetSampler.rows`` builds every missing row of a call at once."""

    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.integers(2, 64),
        order=st.integers(0, 3),
        flatness=st.sampled_from([0.3, 1.0, 4.0]),
        seed=st.integers(0, 2**32),
        prefixes=st.lists(st.lists(st.integers(0, 63), max_size=5), min_size=1, max_size=12),
        temperature=st.sampled_from([0.3, 0.7, 1.0, 2.5]),
        top_k=st.one_of(st.none(), st.integers(1, 64)),
        top_p=st.one_of(st.none(), st.floats(0.05, 1.0)),
        cfg_scale=st.sampled_from([0.0, 0.5, 3.0]),
    )
    def test_bulk_rows_equal_one_row_builds(
        self, vocab, order, flatness, seed, prefixes, temperature, top_k, top_p, cfg_scale
    ):
        # prefixes shorter than the order are BOS-padded
        spec = ModelSpec(vocab, order, flatness, seed)
        top_k = None if top_k is None else min(top_k, vocab)
        sampling = SamplingParams(temperature, top_k, top_p, cfg_scale)
        prefixes = [[token % vocab for token in prefix] for prefix in prefixes]
        bulk, single = (TargetSampler(TabularModel(spec), sampling) for _ in range(2))
        ids = [_code(bulk, prefix) for prefix in prefixes]
        assert [_code(single, prefix) for prefix in prefixes] == ids
        for cid, row in zip(ids, bulk.rows(np.array(ids)).tolist()):
            one = single.rows(np.array([cid]))[0]
            assert bulk.probs[row].tobytes() == single.probs[one].tobytes()
            assert bulk.cdf[row].tobytes() == single.cdf[one].tobytes()
        # stored logits: the scalar stream of each context, as before batching
        model = bulk.model
        root = RandomSource(seed).derive("logit-table")
        for prefix in prefixes:
            key = model.context_key(prefix)
            stream = root.derive(*key) if key else root.derive("root")
            expected = stream.normals(vocab) / flatness
            assert model.logits(key).values.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_processors_of_a_matrix_equal_the_one_law_reference(self, data):
        # logits from a small grid, so top-k cutoffs and top-p prefixes see ties
        vocab = data.draw(st.integers(2, 8))
        grid = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0])
        row = st.lists(grid, min_size=vocab, max_size=vocab).filter(lambda r: max(r) > -np.inf)
        values = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
        temperature = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
        top_k = data.draw(st.one_of(st.none(), st.integers(1, vocab)))
        top_p = data.draw(st.one_of(st.none(), st.floats(0.05, 1.0)))
        bulk = apply_processors(Logits(values), temperature, top_k, top_p).probs
        for r, vector in enumerate(values):
            expected = _one_law_processors(vector, temperature, top_k, top_p)
            assert bulk[r].tobytes() == expected.tobytes()
            one = apply_processors(Logits(vector), temperature, top_k, top_p).probs
            assert one.tobytes() == expected.tobytes()

    def test_row_checks_survive_batching(self, monkeypatch):
        logits = np.zeros((3, 4))
        for bad, message in ((np.nan, "finite or -inf"), (np.inf, "finite or -inf")):
            matrix = logits.copy()
            matrix[1, 2] = bad
            with pytest.raises(ValueError, match=message):
                Logits(matrix)
        matrix = logits.copy()
        matrix[2] = -np.inf
        with pytest.raises(ValueError, match="unmasked"):
            Logits(matrix)
        for bad, message in ((np.nan, "finite"), (-0.25, "non-negative"), (0.5, "sum to")):
            probs = np.full((3, 4), 0.25)
            probs[1, 0] = bad
            with pytest.raises(ValueError, match=message):
                Categorical(probs)
        # through the sampler, with unchecked logits: a NaN row or a fully
        # masked row among good ones still fails the build, at the law check
        model = TabularModel(SPEC)
        stored = model.logit_rows
        for bad in (np.nan, -np.inf):

            def one_bad_row(contexts, uncond=False):
                logits = Logits.__new__(Logits)
                logits.values = stored(contexts, uncond).values.copy()
                logits.values[-1] = bad
                return logits

            monkeypatch.setattr(model, "logit_rows", one_bad_row)
            sampler = TargetSampler(model, SamplingParams(top_k=2, top_p=0.9))
            ids = np.array([_code(sampler, [token]) for token in range(3)])
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
                sampler.rows(ids)


class TestSequenceCodes:
    def test_first_token_most_significant(self):
        seqs = np.array(list(itertools.product(range(3), repeat=4)))
        assert sequence_codes(seqs, 3).tolist() == list(range(81))  # lexicographic order

    def test_rows_outside_the_vocabulary_have_no_code(self):
        # (0, 5) would read as (1, 1) and (2, -1) as (1, 3) if taken as base-4 digits
        seqs = np.array([[1, 1], [0, 5], [2, -1], [4, 0], [-1, 0], [3, 3]])
        assert sequence_codes(seqs, 4).tolist() == [5, -1, -1, -1, -1, 15]


class TestEnumerate:
    def test_single_step_equals_target_distribution(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams()
        law = enumerate_sequence_distribution(model, sampling, 1)
        dist = TargetSampler(model, sampling).dist([])
        for token in range(4):
            assert law[token] == pytest.approx(float(dist.probs[token]), abs=1e-15)

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
                assert law[2 * a + b] == pytest.approx(expected, abs=1e-15)

    def test_total_mass(self):
        law = enumerate_sequence_distribution(TabularModel(SPEC), SamplingParams(), 5)
        assert np.count_nonzero(law) == 1024
        assert law.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginal_consistency(self):
        model = TabularModel(SPEC)
        sampling = SamplingParams(top_k=3)
        law_n = enumerate_sequence_distribution(model, sampling, 4)
        law_m = enumerate_sequence_distribution(model, sampling, 3)
        # the code of seq[:-1] is the code of seq divided by V
        reduced = law_n.reshape(-1, 4).sum(axis=1)
        assert np.array_equal(reduced > 0.0, law_m > 0.0)
        np.testing.assert_allclose(reduced, law_m, rtol=0, atol=1e-9)

    def test_budget_error(self):
        with pytest.raises(BudgetError, match="reduce the vocabulary size or the length"):
            enumerate_sequence_distribution(TabularModel(SPEC), SamplingParams(), 13)

    @pytest.mark.parametrize("spec, sampling, length", [
        (SPEC, SamplingParams(), 4),
        (ModelSpec(vocab_size=3, context_order=5, seed=4), SamplingParams(), 3),
        (ModelSpec(vocab_size=5, context_order=0, seed=2), SamplingParams(), 3),
        (SPEC, SamplingParams(top_k=2), 4),
        (ModelSpec(vocab_size=5, seed=8), SamplingParams(top_p=0.7, cfg_scale=1.5), 3),
    ])
    def test_listing_order_and_masses(self, spec, sampling, length):
        # the TV and chi-square reports sum the law in its listing order, so
        # the order is part of their bytes: descending codes (reverse
        # lexicographic), zero-mass tokens skipped, each mass the
        # left-to-right product along its prefix
        model = TabularModel(spec)
        sampler = TargetSampler(model, sampling)
        expected = {}
        for seq in itertools.product(range(spec.vocab_size), repeat=length):
            probs = [float(sampler.dist(seq[:i]).probs[t]) for i, t in enumerate(seq)]
            if all(p > 0.0 for p in probs):
                expected[seq] = math.prod(probs, start=1.0)
        law = enumerate_sequence_distribution(model, sampling, length)
        assert law.shape == (spec.vocab_size**length,)
        listed = np.flatnonzero(law)[::-1]
        support = [
            tuple(int(d) for d in np.unravel_index(c, (spec.vocab_size,) * length))
            for c in listed
        ]
        assert support == sorted(expected, reverse=True)
        assert [float(m).hex() for m in law[listed]] == [expected[s].hex() for s in support]
        if sampling.top_k or sampling.top_p:  # the masks do skip tokens
            assert len(support) < spec.vocab_size**length


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
        with pytest.raises(ValueError, match="flatness"):
            ModelSpec(vocab_size=4, flatness=math.nan)
        with pytest.raises(ValueError):
            ModelSpec(vocab_size=4, context_order=-1)

    def test_context_codes_must_fit_int64(self):
        # codes of order k are below (vocab_size + 1) ** k; 3**40 > 2**63 > 3**39
        with pytest.raises(ValueError, match="context_order"):
            ModelSpec(vocab_size=2, context_order=40)
        spec = ModelSpec(vocab_size=2, context_order=39)
        model = TabularModel(spec)
        sampler = TargetSampler(model, SamplingParams())
        top = _code(sampler, [1] * 39)
        assert top == 3**39 - 1
        assert sampler.codes(np.ones((1, 40), dtype=np.int64), [0], [40])[0] == top
        # 45 tokens: the last contexts hold no BOS digit
        tokens, stats = decode_sjd(
            model, SamplingParams(), 45, 8, CouplerKind.MAXIMAL, RandomSource(2), sampler=sampler
        )
        assert len(tokens) == 45 and set(tokens) <= {0, 1} and stats.nfe <= 45
