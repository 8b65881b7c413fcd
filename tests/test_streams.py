"""Counter-based random stream: determinism, quality, batch independence."""

import operator

import numpy as np
import pytest
import scipy.stats

from mlmcsr.streams import (
    _counter_words,
    derive_key,
    mix64,
    normal_at,
    uniform_at,
)

KEY = derive_key(12345, 3, 0)
GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def words_at(key, counters):
    return _counter_words(key, counters, np.empty(counters.shape, dtype=np.uint64))


def salt_walk(seed, *salts):
    """A key by the definition: one salted splitmix64 step per salt."""
    key = mix64(operator.index(seed))
    for s in salts:
        key = mix64((key + (operator.index(s) + 1) * GOLDEN) & MASK)
    return key


def test_mix64_is_a_bijection_probe():
    # a finalizer must not collide on a dense probe set
    xs = [mix64(i) for i in range(10_000)]
    assert len(set(xs)) == 10_000
    assert all(0 <= x < 2 ** 64 for x in xs)


def test_derive_key_order_sensitivity():
    assert derive_key(7, 1, 2) != derive_key(7, 2, 1)
    assert derive_key(7, 1) != derive_key(8, 1)
    assert derive_key(7, 0) != derive_key(7)


def test_derive_key_takes_numpy_integers_and_rejects_floats():
    assert derive_key(np.int64(5), np.int64(1), 0) == derive_key(5, 1, 0)
    assert derive_key(np.uint64(2 ** 63 + 1), 3) == derive_key(2 ** 63 + 1, 3)
    derive_key(5)  # a float equal to a cached int must not hit its entry
    for bad in (5.0, 5.5, "5"):
        with pytest.raises(TypeError):
            derive_key(bad)
    derive_key(5, 1)
    with pytest.raises(TypeError):
        derive_key(5, 1.0)


def test_derive_key_cache_returns_the_uncached_keys():
    assert derive_key.cache_info().maxsize is not None
    seeds = [0, 1, 7, 2 ** 64 - 1, 2 ** 70, -3, np.int64(9), np.uint32(11)]
    salts = [(), (0,), (3, 0), (2, 5, 1), (np.int64(4), 2), (3, 0, 6)]
    derive_key.cache_clear()
    # longest paths first, so that later ones find their prefixes cached;
    # the second pass reads every key from the cache
    for order in (salts[::-1], salts):
        for seed in seeds:
            for path in order:
                assert derive_key(seed, *path) == salt_walk(seed, *path)


def test_counters_are_random_access():
    # evaluating a scattered subset equals slicing the full range
    idx = np.array([5, 999_983, 42, 0], dtype=np.uint64)
    full = uniform_at(KEY, np.arange(1_000_000, dtype=np.uint64))
    np.testing.assert_array_equal(uniform_at(KEY, idx), full[idx])


def test_batch_boundaries_do_not_matter():
    a = uniform_at(KEY, np.arange(1000, dtype=np.uint64))
    b = np.concatenate([
        uniform_at(KEY, np.arange(0, 300, dtype=np.uint64)),
        uniform_at(KEY, np.arange(300, 1000, dtype=np.uint64)),
    ])
    np.testing.assert_array_equal(a, b)


def test_raw_values_unique_over_a_million():
    raw = words_at(KEY, np.arange(1_000_000, dtype=np.uint64))
    assert np.unique(raw).size == 1_000_000


def test_uniforms_live_strictly_inside_unit_interval():
    u = uniform_at(KEY, np.arange(1_000_000, dtype=np.uint64))
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniform_moments():
    u = uniform_at(KEY, np.arange(1_000_000, dtype=np.uint64))
    # se(mean) ~ 2.9e-4, se(var) ~ 8e-5; allow 5 sigma
    assert abs(u.mean() - 0.5) < 1.5e-3
    assert abs(u.var() - 1.0 / 12.0) < 5e-4


def test_uniform_distribution_ks():
    u = uniform_at(KEY, np.arange(100_000, dtype=np.uint64))
    stat = scipy.stats.kstest(u, "uniform")
    assert stat.pvalue > 1e-6


def test_normal_moments_and_shape():
    z = normal_at(KEY, np.arange(1_000_000, dtype=np.uint64))
    assert abs(z.mean()) < 5e-3
    assert abs(z.var() - 1.0) < 1e-2
    assert abs(scipy.stats.skew(z)) < 2e-2
    stat = scipy.stats.kstest(z[:100_000], "norm")
    assert stat.pvalue > 1e-6


def test_out_buffer_matches_allocating_path():
    counters = np.arange(7, 70_007, dtype=np.uint64)
    before = counters.copy()
    for draw in (uniform_at, normal_at):
        fresh = draw(KEY, counters)
        buf = np.full(counters.shape, np.nan)
        assert draw(KEY, counters, out=buf) is buf
        np.testing.assert_array_equal(buf.view(np.uint64), fresh.view(np.uint64))
    np.testing.assert_array_equal(counters, before)  # counters are never written


def test_counter_edges_match_splitmix64_reference():
    # the word at counter c is mix64(key + (c + 1) * GOLDEN) modulo 2**64,
    # also where c + 1 wraps around
    counters = [0, 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]
    arr = np.array(counters, dtype=np.uint64)
    for key in (0, MASK, KEY):
        words = [mix64((key + (c + 1) * GOLDEN) & MASK) for c in counters]
        assert words_at(key, arr).tolist() == words
        expected = [((w >> 11) + 0.5) * 2.0 ** -53 for w in words]
        assert uniform_at(key, arr).tolist() == expected
    assert arr.tolist() == counters


def test_distinct_keys_decorrelate():
    other = derive_key(12345, 3, 1)
    u0 = uniform_at(KEY, np.arange(100_000, dtype=np.uint64))
    u1 = uniform_at(other, np.arange(100_000, dtype=np.uint64))
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.02
