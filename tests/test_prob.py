"""Categorical arithmetic: distances, entropies, residuals, logit processing."""

import math

import numpy as np
import pytest

from specjac.errors import DimensionMismatchError, ZeroMassError
from specjac.prob import (
    Categorical,
    Logits,
    apply_processors,
    independent_collision,
    mix_cfg,
    renyi2_entropy,
    residual_distribution,
    softmax,
    tv_distance,
)


def _random_dist(rng: np.random.Generator, vocab: int, sharpness: float = 1.0):
    return Categorical(softmax(sharpness * rng.standard_normal(vocab)))


class TestCategorical:
    def test_renormalizes_small_drift(self):
        c = Categorical([0.5, 0.5 + 5e-10])
        assert c.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            Categorical([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Categorical([1.1, -0.1])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Categorical([])
        with pytest.raises(ValueError):
            Categorical([np.nan, 1.0])

    def test_immutable(self):
        c = Categorical([0.5, 0.5])
        with pytest.raises(ValueError):
            c.probs[0] = 1.0

    def test_point_mass_and_uniform(self):
        assert Categorical([0, 0, 1, 0]).probs[2] == 1.0
        assert np.allclose(Categorical.uniform(4).probs, 0.25)


class TestTvDistance:
    def test_identical(self):
        c = Categorical([0.5, 0.5])
        assert tv_distance(c, c) == 0.0

    def test_disjoint(self):
        assert tv_distance(Categorical([1, 0]), Categorical([0, 1])) == 1.0

    def test_hand_value(self):
        assert tv_distance(Categorical([0.6, 0.4]), Categorical([0.4, 0.6])) == pytest.approx(0.2)

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            tv_distance(Categorical([1.0]), Categorical([0.5, 0.5]))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, q, r = (_random_dist(rng, 6, 2.0) for _ in range(3))
            assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        p = _random_dist(rng, 5)
        q = _random_dist(rng, 5)
        assert tv_distance(p, q) > 0.0


class TestRenyi2:
    def test_point_mass(self):
        assert renyi2_entropy(Categorical([1, 0, 0])) == pytest.approx(0.0, abs=1e-15)

    def test_uniform(self):
        assert renyi2_entropy(Categorical.uniform(4)) == pytest.approx(math.log(4))

    def test_hand_value(self):
        assert renyi2_entropy(Categorical([0.5, 0.25, 0.25])) == pytest.approx(-math.log(0.375))


class TestIndependentCollision:
    def test_uniform_matches_bound_exactly(self):
        u = Categorical.uniform(4)
        coll = independent_collision(u, u)
        assert coll == pytest.approx(0.25)
        bound = math.exp(-0.5 * (renyi2_entropy(u) + renyi2_entropy(u)))
        assert coll == pytest.approx(bound, abs=1e-12)

    def test_disjoint(self):
        assert independent_collision(Categorical([1, 0]), Categorical([0, 1])) == 0.0

    def test_hand_value(self):
        c = independent_collision(Categorical([0.6, 0.4]), Categorical([0.4, 0.6]))
        assert c == pytest.approx(0.48)

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            independent_collision(Categorical([1.0]), Categorical([0.5, 0.5]))

    def test_cauchy_schwarz_bound_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            vocab = int(rng.integers(2, 12))
            p = _random_dist(rng, vocab, float(rng.uniform(0.2, 3.0)))
            q = _random_dist(rng, vocab, float(rng.uniform(0.2, 3.0)))
            bound = math.exp(-0.5 * (renyi2_entropy(p) + renyi2_entropy(q)))
            assert independent_collision(p, q) <= bound + 1e-12

    def test_self_collision_equals_exp_neg_renyi2(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = _random_dist(rng, 7, 1.5)
            assert independent_collision(p, p) == pytest.approx(
                math.exp(-renyi2_entropy(p)), abs=1e-14
            )


class TestResidual:
    def test_hand_values(self):
        r = residual_distribution(Categorical([0.7, 0.3]), Categorical([0.3, 0.7]))
        assert np.allclose(r.probs, [1.0, 0.0])
        r = residual_distribution(Categorical([1, 0]), Categorical([0, 1]))
        assert np.allclose(r.probs, [1.0, 0.0])
        r = residual_distribution(
            Categorical([0.5, 0.3, 0.2]), Categorical([0.2, 0.5, 0.3])
        )
        assert np.allclose(r.probs, [1.0, 0.0, 0.0])

    def test_identical_raises_zero_mass(self):
        c = Categorical([0.5, 0.5])
        with pytest.raises(ZeroMassError):
            residual_distribution(c, c)

    def test_support_and_mass_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = _random_dist(rng, 6, 1.5)
            q = _random_dist(rng, 6, 1.5)
            tv = tv_distance(p, q)
            assert tv > 0.0
            pos = np.maximum(p.probs - q.probs, 0.0)
            assert pos.sum() == pytest.approx(tv, abs=1e-12)
            r = residual_distribution(p, q)
            assert r.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(r.probs > 0, p.probs > q.probs)


class TestMixCfg:
    def test_scale_zero_is_identity(self):
        c = Logits([2.0, 0.0])
        u = Logits([1.0, 1.0])
        assert mix_cfg(c, u, 0.0) is c

    def test_hand_values(self):
        out = mix_cfg(Logits([2.0, 0.0]), Logits([1.0, 1.0]), 1.0)
        assert np.allclose(out.values, [3.0, -1.0])
        out = mix_cfg(Logits([1.0, 0.0]), Logits([0.0, 0.0]), 3.0)
        assert np.allclose(out.values, [4.0, 0.0])

    def test_argmax_preserved_with_constant_uncond(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            c = Logits(rng.standard_normal(8))
            u = Logits(np.full(8, 0.3))
            mixed = mix_cfg(c, u, float(rng.uniform(0, 8)))
            assert int(np.argmax(mixed.values)) == int(np.argmax(c.values))

    def test_agreeing_masks_stay_masked(self):
        c = Logits([1.0, -np.inf, 0.0])
        u = Logits([0.5, -np.inf, 0.2])
        out = mix_cfg(c, u, 2.0)
        assert np.isneginf(out.values[1])
        assert np.all(np.isfinite(out.values[[0, 2]]))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            mix_cfg(Logits([1.0]), Logits([1.0]), -0.5)


class TestApplyProcessors:
    def test_symmetric_softmax(self):
        out = apply_processors(Logits([0.0, 0.0]), 1.0)
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_softmax_hand_value(self):
        out = apply_processors(Logits([math.log(3), 0.0]), 1.0)
        assert np.allclose(out.probs, [0.75, 0.25])

    def test_top_k_masks_to_renormalized_head(self):
        out = apply_processors(Logits([2.0, 1.0, 0.0]), 1.0, top_k=2)
        e = math.e
        expected = np.array([e**2, e, 0.0]) / (e**2 + e)
        assert np.allclose(out.probs, expected)

    def test_plain_softmax_without_masks(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(10)
        out = apply_processors(Logits(values), 1.0)
        assert np.allclose(out.probs, softmax(values))

    def test_higher_temperature_flattens(self):
        logits = Logits([2.0, 1.0, -1.0])
        p1 = apply_processors(logits, 1.0).probs.max()
        p2 = apply_processors(logits, 2.0).probs.max()
        assert p2 < p1

    def test_top_k_ties_keep_lower_ids(self):
        out = apply_processors(Logits([1.0, 1.0, 1.0, 0.0]), 1.0, top_k=2)
        assert out.probs[0] > 0 and out.probs[1] > 0
        assert out.probs[2] == 0.0 and out.probs[3] == 0.0

    def test_top_p_keeps_smallest_covering_prefix(self):
        logits = Logits(np.log([0.4, 0.3, 0.2, 0.1]))
        out = apply_processors(logits, 1.0, top_p=0.7)
        assert np.allclose(out.probs, [4 / 7, 3 / 7, 0.0, 0.0])
        out = apply_processors(logits, 1.0, top_p=0.3)
        assert np.allclose(out.probs, [1.0, 0.0, 0.0, 0.0])
        out = apply_processors(logits, 1.0, top_p=1.0)
        assert np.all(out.probs > 0.0)

    def test_order_temperature_topk_topp(self):
        # temperature flattens before top-p measures cumulative mass, so a
        # high temperature widens the nucleus
        logits = Logits([3.0, 1.0, 0.0, -1.0])
        cold = apply_processors(logits, 0.5, top_p=0.9)
        hot = apply_processors(logits, 10.0, top_p=0.9)
        assert np.count_nonzero(hot.probs) > np.count_nonzero(cold.probs)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            apply_processors(Logits([0.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            apply_processors(Logits([0.0, 1.0]), 1.0, top_k=3)
        with pytest.raises(ValueError):
            apply_processors(Logits([0.0, 1.0]), 1.0, top_p=0.0)


class TestLogits:
    def test_rejects_nan_and_posinf(self):
        with pytest.raises(ValueError):
            Logits([np.nan, 0.0])
        with pytest.raises(ValueError):
            Logits([np.inf, 0.0])

    def test_rejects_all_masked(self):
        with pytest.raises(ValueError):
            Logits([-np.inf, -np.inf])
