"""Samplers and couplings: marginal laws, collision rates, exact joint law."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from specjac.couplers import (
    MrsOutcome,
    gs_couple,
    gumbel_from_uniform,
    inverse_cdf_rows,
    inverse_cdf_sample,
    mrs,
    mrs_accepts,
    mrs_joint_distribution,
    mrs_residual_rows,
    sample_gumbel_noise,
    sample_independent,
)
from specjac.errors import BudgetError, ZeroMassError
from specjac.prob import Categorical, softmax, tv_distance
from specjac.rng import RandomSource

EULER_GAMMA = 0.5772156649015329


def _random_dist(rng: np.random.Generator, vocab: int, sharpness: float = 1.0):
    return Categorical(softmax(sharpness * rng.standard_normal(vocab)))


class TestInverseCdf:
    def test_threshold(self):
        d = Categorical([0.6, 0.4])
        assert inverse_cdf_sample(d, 0.59) == 0
        assert inverse_cdf_sample(d, 0.61) == 1

    def test_zero_probability_token_skipped(self):
        d = Categorical([0.5, 0.0, 0.5])
        assert inverse_cdf_sample(d, 0.499) == 0
        assert inverse_cdf_sample(d, 0.5) == 2
        assert inverse_cdf_sample(d, 0.999) == 2

    def test_u_zero_returns_first_positive(self):
        d = Categorical([0.0, 1.0])
        assert inverse_cdf_sample(d, 0.0) == 1


class TestSampleIndependent:
    def test_point_mass(self):
        d = Categorical([0, 0, 1, 0])
        rng = RandomSource(1)
        assert all(sample_independent(d, rng) == 2 for _ in range(100))

    def test_uniform_frequencies_within_3_sigma(self):
        d = Categorical.uniform(4)
        rng = RandomSource(2)
        n = 10**6
        tokens = np.fromiter(
            (sample_independent(d, rng) for _ in range(n)), dtype=np.int64, count=n
        )
        sigma = math.sqrt(0.25 * 0.75 / n)
        for t in range(4):
            freq = float(np.mean(tokens == t))
            assert abs(freq - 0.25) <= 3 * sigma


class TestMrs:
    def test_identical_distributions_always_accept(self):
        d = Categorical([0.3, 0.7])
        rng = RandomSource(3)
        for x in (0, 1):
            for _ in range(200):
                out = mrs(d, d, x, rng)
                assert out == MrsOutcome(True, x)

    def test_disjoint_supports_always_reject_to_residual(self):
        p = Categorical([1.0, 0.0])
        q = Categorical([0.0, 1.0])
        rng = RandomSource(4)
        out = mrs(p, q, 1, rng)
        assert out.accepted is False
        assert out.token == 0

    def test_zero_probability_draft_rejected(self):
        p = Categorical([0.5, 0.5])
        q = Categorical([1.0, 0.0])
        with pytest.raises(ValueError):
            mrs(p, q, 1, RandomSource(5))

    def test_vocab_mismatch(self):
        with pytest.raises(ValueError):
            mrs(Categorical([1.0]), Categorical([0.5, 0.5]), 0, RandomSource(6))

    def test_acceptance_rate_matches_one_minus_tv(self):
        p = Categorical([0.6, 0.4])
        q = Categorical([0.4, 0.6])
        rng = RandomSource(7)
        n = 10**5
        accepted = 0
        for _ in range(n):
            x = sample_independent(q, rng)
            accepted += mrs(p, q, x, rng).accepted
        rate = accepted / n
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(rate - 0.8) <= 3 * sigma

    def test_uniform_consumption_pattern(self):
        p = Categorical([0.6, 0.4])
        q = Categorical([0.4, 0.6])
        rng = RandomSource(8)
        # acceptance consumes one uniform, rejection exactly two
        for _ in range(500):
            before = rng._count
            out = mrs(p, q, 1, rng)
            consumed = rng._count - before
            assert consumed == (1 if out.accepted else 2)

    def test_output_marginal_is_p(self):
        # draft from q, output through mrs, compare against p by chi-square
        rng = RandomSource(9)
        np_rng = np.random.default_rng(10)
        p = _random_dist(np_rng, 5, 1.5)
        q = _random_dist(np_rng, 5, 1.5)
        n = 2 * 10**5
        counts = np.zeros(5)
        for _ in range(n):
            x = sample_independent(q, rng)
            counts[mrs(p, q, x, rng).token] += 1
        result = chisquare(counts, f_exp=p.probs * n)
        assert result.pvalue > 0.001

    def test_coupled_redraw_collision_beats_independent(self):
        # redrawing through mrs collides at 1 - TV, independent at sum p*q
        np_rng = np.random.default_rng(11)
        p_new = _random_dist(np_rng, 6, 1.0)
        p_old = _random_dist(np_rng, 6, 1.0)
        rng = RandomSource(12)
        n = 10**5
        coupled = independent = 0
        for _ in range(n):
            x_old = sample_independent(p_old, rng)
            coupled += mrs(p_new, p_old, x_old, rng).token == x_old
            independent += sample_independent(p_new, rng) == x_old
        expect_c = 1.0 - tv_distance(p_new, p_old)
        expect_i = float(p_new.probs @ p_old.probs)
        assert abs(coupled / n - expect_c) <= 3 * math.sqrt(expect_c * (1 - expect_c) / n)
        assert abs(independent / n - expect_i) <= 3 * math.sqrt(expect_i * (1 - expect_i) / n)
        assert coupled > independent


class TestGumbelNoise:
    def test_inverse_transform_at_one_over_e(self):
        g = gumbel_from_uniform(np.array([1.0 / math.e]))
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_extreme_uniforms_stay_finite(self):
        g = gumbel_from_uniform(np.array([0.0, 1.0 - 2.0**-53]))
        assert np.all(np.isfinite(g))

    def test_input_left_unchanged(self):
        # the transform works on a copy: a read-only input must not raise
        u = np.array([0.0, 0.25, 1.0 / math.e, 0.5, 1.0 - 2.0**-53])
        u.flags.writeable = False
        g = gumbel_from_uniform(u)
        assert g.flags.writeable and not np.shares_memory(g, u)
        clipped = np.clip(u, np.finfo(np.float64).tiny, 1.0 - 2.0**-53)
        assert g.tolist() == (-np.log(-np.log(clipped))).tolist()

    def test_moments(self):
        n = 10**6
        g = sample_gumbel_noise(n, RandomSource(13))
        mean_sigma = math.sqrt(math.pi**2 / 6.0 / n)
        assert abs(g.mean() - EULER_GAMMA) <= 3 * mean_sigma
        # var of the sample variance via the fourth central moment
        # (excess kurtosis of Gumbel is 12/5)
        var = math.pi**2 / 6.0
        var_sigma = math.sqrt((12.0 / 5.0 + 2.0) * var**2 / n)
        assert abs(g.var() - var) <= 3 * var_sigma

    def test_vector_length_and_validation(self):
        assert sample_gumbel_noise(5, RandomSource(14)).shape == (5,)
        with pytest.raises(ValueError):
            sample_gumbel_noise(0, RandomSource(14))


class TestGsCouple:
    def test_identical_distributions_always_collide(self):
        d = Categorical([0.2, 0.5, 0.3])
        rng = RandomSource(15)
        for _ in range(300):
            x, y = gs_couple(d, d, sample_gumbel_noise(3, rng))
            assert x == y

    def test_marginals_follow_inputs(self):
        np_rng = np.random.default_rng(16)
        p = _random_dist(np_rng, 6, 1.2)
        q = _random_dist(np_rng, 6, 1.2)
        rng = RandomSource(17)
        n = 10**6
        noise = gumbel_from_uniform(rng.uniforms(n * 6)).reshape(n, 6)
        xs = np.argmax(np.log(p.probs) + noise, axis=1)
        ys = np.argmax(np.log(q.probs) + noise, axis=1)
        assert chisquare(np.bincount(xs, minlength=6), f_exp=p.probs * n).pvalue > 0.001
        assert chisquare(np.bincount(ys, minlength=6), f_exp=q.probs * n).pvalue > 0.001

    def test_binary_vocabulary_attains_maximal_cost(self):
        # on a binary vocabulary the shared-noise collision equals 1 - TV:
        # argmax comparisons reduce to thresholding one logistic variate, and
        # the logistic CDF evaluated at log(p0/p1) is exactly p0
        p = Categorical([0.6, 0.4])
        q = Categorical([0.4, 0.6])
        rng = RandomSource(18)
        n = 10**5
        hits = 0
        for _ in range(n):
            x, y = gs_couple(p, q, sample_gumbel_noise(2, rng))
            hits += x == y
        rate = hits / n
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert rate >= (1 - 0.2) / (1 + 0.2) - 3 * sigma
        assert abs(rate - 0.8) <= 3 * sigma

    def test_ties_break_to_lower_token_id(self):
        d = Categorical([0.5, 0.5])
        x, y = gs_couple(d, d, np.zeros(2))
        assert (x, y) == (0, 0)

    def test_zero_probability_tokens_never_win(self):
        p = Categorical([1.0, 0.0])
        q = Categorical([0.5, 0.5])
        noise = np.array([-50.0, 50.0])
        x, _ = gs_couple(p, q, noise)
        assert x == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            gs_couple(Categorical([1.0]), Categorical([0.5, 0.5]), np.zeros(2))


class TestMrsJointDistribution:
    def test_identical_is_diagonal(self):
        d = Categorical([0.5, 0.5])
        joint = mrs_joint_distribution(d, d)
        assert np.allclose(joint, np.diag([0.5, 0.5]))

    def test_disjoint_mass_at_certain_rejection(self):
        joint = mrs_joint_distribution(Categorical([1, 0]), Categorical([0, 1]))
        expected = np.zeros((2, 2))
        expected[1, 0] = 1.0
        assert np.allclose(joint, expected)

    def test_marginals_and_diagonal_exact(self):
        np_rng = np.random.default_rng(19)
        for _ in range(100):
            vocab = int(np_rng.integers(2, 7))
            p = _random_dist(np_rng, vocab, float(np_rng.uniform(0.3, 2.5)))
            q = _random_dist(np_rng, vocab, float(np_rng.uniform(0.3, 2.5)))
            joint = mrs_joint_distribution(p, q)
            assert np.allclose(joint.sum(axis=1), q.probs, atol=1e-12)
            assert np.allclose(joint.sum(axis=0), p.probs, atol=1e-12)
            diag = float(np.trace(joint))
            assert diag == pytest.approx(1.0 - tv_distance(p, q), abs=1e-12)

    def test_hand_pair(self):
        p = Categorical([0.6, 0.4])
        q = Categorical([0.4, 0.6])
        joint = mrs_joint_distribution(p, q)
        assert float(np.trace(joint)) == pytest.approx(0.8, abs=1e-12)
        assert np.allclose(joint.sum(axis=1), q.probs, atol=1e-12)
        assert np.allclose(joint.sum(axis=0), p.probs, atol=1e-12)

    def test_budget(self):
        d = Categorical.uniform(10)
        with pytest.raises(BudgetError):
            mrs_joint_distribution(d, d, max_vocab=8)


class TestBatchedPrimitives:
    def test_inverse_cdf_rows_drift_maps_to_last_positive_token(self):
        # ten 0.1 entries sum to 0.9999999999999999; the last token is masked
        dist = Categorical._from_normalized(np.array([0.1] * 10 + [0.0]))
        cdf = np.cumsum(dist.probs)
        assert cdf[-1] < 1.0
        u = np.array([cdf[-1], np.nextafter(cdf[-1], 1.0), 0.0, 0.05])
        got = inverse_cdf_rows(dist.probs[None], cdf[None], np.zeros(4, dtype=np.int64), u)
        assert got.tolist() == [9, 9, 0, 0]
        assert got.tolist() == [inverse_cdf_sample(dist, float(v)) for v in u]

    def test_inverse_cdf_rows_never_draws_zero_probability_tokens(self):
        probs = np.array([[0.0, 0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]])
        cdf = np.cumsum(probs, axis=1)
        u = np.concatenate([[0.0, 0.5, np.nextafter(0.5, 0.0), 1.0 - 2.0**-53],
                            RandomSource(3).uniforms(200)])
        for row in (0, 1):
            rows = np.full(u.size, row)
            tokens = inverse_cdf_rows(probs, cdf, rows, u)
            assert np.all(probs[row, tokens] > 0.0)
            expected = [inverse_cdf_sample(Categorical(probs[row]), float(v)) for v in u]
            assert tokens.tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1,
                         max_size=16).filter(any),
        drift=st.booleans(),
        u=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True,
                                                     exclude_max=True),
                             st.just(1.0 - 2.0**-53)), min_size=1, max_size=8),
    )
    def test_inverse_cdf_scalar_array_and_rows_agree(self, weights, drift, u):
        # zero weights are masked tokens; with ``drift`` the law is scaled so
        # its cumulative sum ends below 1 and u = 1 - 2**-53 falls past it
        probs = np.array(weights) / sum(weights)
        if drift:
            probs *= 1.0 - 2.0**-50
        dist, u = Categorical._from_normalized(probs), np.array(u)
        tokens = inverse_cdf_sample(dist, u)
        assert tokens.tolist() == [inverse_cdf_sample(dist, float(v)) for v in u]
        rows = np.zeros(u.size, dtype=np.int64)
        by_rows = inverse_cdf_rows(probs[None], np.cumsum(probs)[None], rows, u)
        assert tokens.tolist() == by_rows.tolist()
        assert np.all(probs[tokens] > 0.0)

    def test_accept_is_strict_at_zero(self):
        # u == 0 must reject a token with p(x) == 0, as mrs does
        got = mrs_accepts(np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.2, 0.2]),
                          np.array([0.5, 0.5, 0.4]))
        assert got.tolist() == [False, True, False]

    @settings(max_examples=200, deadline=None)
    @given(vocab=st.integers(2, 64), pairs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           masked=st.floats(0.0, 0.9), drift=st.booleans(),
           interior=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(vocab=11, pairs=0, seed=0, masked=0.0, drift=False, interior=0.5)
    def test_residual_rows_equal_scalar_mrs(self, vocab, pairs, seed, masked, drift, interior):
        # rows 2r and 2r + 1 of one table are pair r's p and q; a ``masked``
        # share of entries is zero, ties copy p into q, and with ``drift``
        # every row is scaled so its cumulative sum ends below 1.  The
        # example (pairs=0) is a residual whose cdf ends below 1 - 2**-53.
        if pairs:
            gen = np.random.default_rng(seed)
            probs = gen.random((2 * pairs, vocab)) * (gen.random((2 * pairs, vocab)) >= masked)
            ties = gen.random((pairs, vocab)) < 0.3
            probs[1::2][ties] = probs[0::2][ties]
            probs[np.arange(2 * pairs), gen.integers(vocab, size=2 * pairs)] += 0.5
        else:
            probs = np.array([[0.05] * 10 + [0.0], [0.0] * 10 + [1.0]])
        probs /= probs.sum(axis=1, keepdims=True)
        if drift:
            probs *= 1.0 - 2.0**-50
        p_rows, q_rows, tokens = [], [], []
        for p, q in zip(range(0, len(probs), 2), range(1, len(probs), 2)):
            rejecting = np.flatnonzero(probs[p] < probs[q])
            if rejecting.size:  # p == q rows never reject
                p_rows.append(p)
                q_rows.append(q)
                tokens.append(int(rejecting[0]))
        for u in (0.0, interior, 1.0 - 2.0**-53):
            got = mrs_residual_rows(probs, np.array(p_rows, dtype=np.int64),
                                    np.array(q_rows, dtype=np.int64), np.full(len(p_rows), u))
            for token, p, q, x in zip(got.tolist(), p_rows, q_rows, tokens, strict=True):
                stream = _Scripted(1.0 - 2.0**-53, u)  # the first draw rejects x
                out = mrs(Categorical._from_normalized(probs[p]),
                          Categorical._from_normalized(probs[q]), x, stream)
                assert out == MrsOutcome(False, token)
                assert probs[p, token] > probs[q, token]  # positive residual mass

    def test_residual_rows_raise_on_identical_rows(self):
        probs = np.array([[0.25, 0.75], [0.5, 0.5], [0.25, 0.75]])
        u = np.array([0.3, 0.3])
        assert mrs_residual_rows(probs, np.array([0, 1]), np.array([1, 0]), u).tolist() == [1, 0]
        with pytest.raises(ZeroMassError):
            mrs_residual_rows(probs, np.array([1, 0]), np.array([0, 2]), u)


class _Scripted:
    """A stream that returns the given uniforms in order."""

    def __init__(self, *draws: float):
        self._draws = list(draws)

    def draw_uniform01(self) -> float:
        return self._draws.pop(0)
