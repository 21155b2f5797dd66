"""Determinism and independence of the splittable random source."""

import warnings

import numpy as np
import pytest

from specjac.rng import NORMAL_BOUND, RandomSource, derive_keys, normals_of, uniforms_at


def test_same_seed_same_stream():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.draw_uniform01() for _ in range(100)] == [
        b.draw_uniform01() for _ in range(100)
    ]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.draw_uniform01() for _ in range(8)] != [
        b.draw_uniform01() for _ in range(8)
    ]


def test_uniforms_match_scalar_draws():
    a = RandomSource(7)
    b = RandomSource(7)
    vec = a.uniforms(64)
    scalars = np.array([b.draw_uniform01() for _ in range(64)])
    assert np.array_equal(vec, scalars)


def test_uniforms_continue_counter():
    a = RandomSource(7)
    b = RandomSource(7)
    a.draw_uniform01()
    first = a.uniforms(3)
    b.uniforms(1)
    second = b.uniforms(3)
    assert np.array_equal(first, second)


def test_range_is_half_open_unit_interval():
    u = RandomSource(3).uniforms(100000)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_derive_is_deterministic_and_keyed():
    root = RandomSource(5)
    a = root.derive("draft", 0, 3).draw_uniform01()
    b = root.derive("draft", 0, 3).draw_uniform01()
    c = root.derive("draft", 0, 4).draw_uniform01()
    d = root.derive("verify", 0, 3).draw_uniform01()
    assert a == b
    assert a != c
    assert a != d


def test_derive_does_not_consume_parent():
    a = RandomSource(5)
    b = RandomSource(5)
    a.derive("child")
    assert a.draw_uniform01() == b.draw_uniform01()


def test_bool_key_rejected():
    with pytest.raises(TypeError):
        RandomSource(1).derive(True)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        RandomSource(1).derive()


def test_substreams_are_statistically_independent():
    root = RandomSource(11)
    x = root.derive("a").uniforms(200000)
    y = root.derive("b").uniforms(200000)
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.01
    # means of both streams near 1/2 within 5 sigma of a uniform mean
    sigma = np.sqrt(1.0 / 12.0 / 200000)
    assert abs(x.mean() - 0.5) < 5 * sigma
    assert abs(y.mean() - 0.5) < 5 * sigma


def test_normals_stay_within_the_bound():
    # the extreme uniforms map to exactly -+NORMAL_BOUND; configuration
    # checks bound the processed logits by it
    assert normals_of(np.array([0.0, 1.0 - 2.0**-53])).tolist() == [-NORMAL_BOUND, NORMAL_BOUND]
    assert np.abs(RandomSource(3).normals(100000)).max() < NORMAL_BOUND


class TestBatchedKeys:
    # keys near 2**64 make every add and multiply of the mix wrap
    KEYS = [0, 1, 12345, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]

    def test_derive_keys_equal_scalar_derive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on overflow
            keys = derive_keys(np.array(self.KEYS, dtype=np.uint64), "draft", 7, "x")
            indexed = derive_keys(2**64 - 1, "trial", np.arange(5))
            signed = derive_keys(7, np.array([-1, 0, 3]))
        for key, got in zip(self.KEYS, keys.tolist()):
            assert got == RandomSource.from_key(key).derive("draft", 7, "x").key
        source = RandomSource.from_key(2**64 - 1)
        assert indexed.tolist() == [source.derive("trial", k).key for k in range(5)]
        # negative array entries fold in modulo 2**64, as int parts do
        assert signed.tolist() == [RandomSource.from_key(7).derive(k).key for k in (-1, 0, 3)]

    def test_uniforms_at_equal_scalar_draws(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = uniforms_at(np.array(self.KEYS, dtype=np.uint64)[:, None], np.arange(1, 5))
        for key, row in zip(self.KEYS, u.tolist()):
            source = RandomSource.from_key(key)
            assert row == [source.draw_uniform01() for _ in range(4)]

    def test_from_key_round_trips(self):
        child = RandomSource(3).derive("a", 1)
        assert RandomSource.from_key(child.key).uniforms(3).tolist() == child.uniforms(3).tolist()
