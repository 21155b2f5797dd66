"""Determinism and independence of the splittable random source."""

import warnings

import numpy as np
import pytest

from specjac.rng import (
    _GOLDEN, _MASK, _MIX1, _MIX2, NORMAL_BOUND, RandomSource, derive_keys, normals_of, uniforms_at,
)


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


@pytest.mark.parametrize("n, size", [(1, 4), (12, 4), (13, 4), (3, 8)])
def test_uniform_blocks_are_the_uniforms_in_one_buffer(n, size):
    blocked, one_shot = RandomSource(7), RandomSource(7)
    blocked.draw_uniform01(), one_shot.draw_uniform01()
    blocks, buffers = [], set()
    for block in blocked.uniform_blocks(n, size):
        blocks.append(block.copy())
        buffers.add(block.__array_interface__["data"][0])
    assert [len(b) for b in blocks] == [size] * (n // size) + [n % size] * (n % size > 0)
    assert np.concatenate(blocks).tolist() == one_shot.uniforms(n).tolist()
    assert len(buffers) == 1  # every block is written over the first
    assert blocked.draw_uniform01() == one_shot.draw_uniform01()


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
    assert np.abs(normals_of(RandomSource(3).uniforms(100000))).max() < NORMAL_BOUND


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


class TestFromDraws:
    """A source handed its first draws behaves as the stream it claims."""

    KEYS = TestBatchedKeys.KEYS

    def _handed(self, key):
        return RandomSource._from_draws(key, tuple(uniforms_at(key, [1, 2]).tolist()))

    def test_first_draws_then_the_stream(self):
        for key in self.KEYS:
            handed, stream = self._handed(key), RandomSource.from_key(key)
            got = [handed.draw_uniform01() for _ in range(4)]
            assert got == [stream.draw_uniform01() for _ in range(4)], key
            assert got[2:] == uniforms_at(key, [3, 4]).tolist()

    def test_handed_draws_are_returned_not_recomputed(self):
        # off the contract, to see the mechanism: draws come from the
        # tuple while it lasts, then from the stream at the next counter
        handed = RandomSource._from_draws(7, (0.25, 0.75))
        got = [handed.draw_uniform01() for _ in range(3)]
        assert got == [0.25, 0.75, *uniforms_at(7, 3).tolist()]

    @pytest.mark.parametrize("drawn", [1, 2])
    def test_uniforms_continue_after_handed_draws(self, drawn):
        for key in self.KEYS:
            handed, stream = self._handed(key), RandomSource.from_key(key)
            for _ in range(drawn):
                handed.draw_uniform01(), stream.draw_uniform01()
            assert handed.uniforms(5).tolist() == stream.uniforms(5).tolist()
            assert handed.draw_uniform01() == stream.draw_uniform01()

    def test_blocks_continue_after_handed_draws(self):
        handed, stream = self._handed(2**64 - 1), RandomSource.from_key(2**64 - 1)
        handed.draw_uniform01(), stream.draw_uniform01()
        blocks = [b.copy() for b in handed.uniform_blocks(7, 3)]
        assert np.concatenate(blocks).tolist() == stream.uniforms(7).tolist()

    def test_key_and_derive_unaffected(self):
        for key in self.KEYS:
            handed, stream = self._handed(key), RandomSource.from_key(key)
            assert handed.key == stream.key == key
            handed.draw_uniform01()
            child, plain = handed.derive("x", 3), stream.derive("x", 3)
            assert child.key == plain.key
            assert child.uniforms(3).tolist() == plain.uniforms(3).tolist()

    def test_other_sources_have_no_draws(self):
        for source in (RandomSource(5), RandomSource.from_key(5), RandomSource(5).derive("a")):
            assert source._given == ()


def _unmix(z: int) -> int:
    """Inverse of the SplitMix64 finalizer ``rng._mix``."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(_MIX2, -1, 1 << 64)) & _MASK, 27)
    return unshift((z * pow(_MIX1, -1, 1 << 64)) & _MASK, 30)


def test_top_draw_converts_exactly():
    # a mixed state whose top 53 bits are all ones is the largest uniform
    top = 1.0 - 2.0**-53
    for low in (0, 2**11 - 1):
        key = (_unmix(_MASK - low) - _GOLDEN) & _MASK  # the state of draw 1
        assert RandomSource.from_key(key).draw_uniform01() == top
        assert uniforms_at(key, 1).tolist() == [top]
        assert next(RandomSource.from_key(key).uniform_blocks(1, 1)).tolist() == [top]


def _frozen(a) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestFreshOutputs:
    # the engine passes slices of its key tables to these functions: each
    # must leave its inputs as they were (read-only here, so a stray
    # in-place write raises) and return an array of its own
    TABLE = _frozen(np.array(TestBatchedKeys.KEYS * 2, dtype=np.uint64).reshape(7, 2))

    def _check(self, out, *inputs):
        assert out.flags.writeable
        for a in inputs:
            assert not np.shares_memory(out, a)

    def test_derive_keys(self):
        keys, parts = self.TABLE[:, 0], _frozen(np.arange(7))
        for args in [(), ("draft",), (parts,), ("verify", parts, 3)]:
            self._check(derive_keys(keys, *args), keys, parts)

    def test_uniforms_at(self):
        keys = self.TABLE[:, 1:]
        for counters in [_frozen(np.arange(1, 5, dtype=np.uint64)), _frozen(np.arange(1, 5))]:
            self._check(uniforms_at(keys, counters), keys, counters)
        self._check(uniforms_at(self.TABLE[0, 0], 1), self.TABLE)

    def test_uniforms(self):
        source, replay = RandomSource(9), RandomSource(9)
        first = source.uniforms(6)
        first[:] = -1.0  # the caller owns what it got
        second = source.uniforms(6)
        self._check(second, first)
        replay.uniforms(6)
        assert second.tolist() == replay.uniforms(6).tolist()
