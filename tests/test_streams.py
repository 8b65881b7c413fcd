"""Counter-based random stream: determinism, quality, batch independence."""

import operator

import math
import statistics

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from mlmcsr.streams import (
    _counter_words,
    _inverse_normal_cdf,
    derive_key,
    mix64,
    normal_at,
    uniform_at,
)

KEY = derive_key(12345, 3, 0)
GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1
U_MAX = 1.0 - 2.0 ** -53


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


def test_normal_batch_boundaries_do_not_matter():
    # the tails are gathered per call, so a row's normal must not depend on
    # which rows share its call
    counters = np.arange(50_000, dtype=np.uint64)
    whole = normal_at(KEY, counters)
    rng = np.random.default_rng(5)
    for pieces in (2, 7, 60, 900):
        cuts = np.sort(rng.choice(np.arange(1, counters.size), pieces - 1, replace=False))
        parts = [normal_at(KEY, c) for c in np.split(counters, cuts)]
        np.testing.assert_array_equal(np.concatenate(parts).view(np.uint64),
                                      whole.view(np.uint64))


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
    fresh = normal_at(KEY, counters)
    buf = np.full(counters.shape, np.nan)
    assert normal_at(KEY, counters, out=buf) is buf
    np.testing.assert_array_equal(buf.view(np.uint64), fresh.view(np.uint64))
    uniform_at(KEY, counters)
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


# ---------------------------------------------------------------------------
# the all-ones word, and the inverse normal CDF against scipy's ndtri
# ---------------------------------------------------------------------------

def unmix64(z):
    """Inverse of ``mix64``: undo each xorshift and odd multiply in turn."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return z ^ (z >> 30) ^ (z >> 60)


def counter_of_word(key, word):
    """The counter whose splitmix64 output under ``key`` is ``word``."""
    return ((unmix64(word) - key) * pow(GOLDEN, -1, 1 << 64) - 1) & MASK


def test_all_ones_word_gives_the_largest_uniform_below_one():
    # (2**53 - 1) + 0.5 rounds to 2**53, which read 1.0 and a normal of +inf
    cases = [(derive_key(7, 3, 0), 8302822365848677447)]
    for key in (KEY, derive_key(0, 0, 0), derive_key(99, 5, 2), 0, MASK):
        for low in (0, 0x400, 0x7FF):
            cases.append((key, counter_of_word(key, ((2 ** 53 - 1) << 11) | low)))
    for key, c in cases:
        counters = np.array([c], dtype=np.uint64)
        assert words_at(key, counters)[0] >> 11 == 2 ** 53 - 1
        u = uniform_at(key, counters)
        assert u[0] == U_MAX
        z = normal_at(key, counters)
        assert np.isfinite(z[0])
        assert z[0] == inverse_cdf([U_MAX])[0]
        assert z[0] == pytest.approx(ndtri(U_MAX), rel=4e-16)
    # the word just below keeps its centre
    c = counter_of_word(KEY, (2 ** 53 - 2) << 11)
    assert uniform_at(KEY, np.array([c], dtype=np.uint64))[0] == (2 ** 53 - 1.5) * 2.0 ** -53


def ulps_from_ndtri(u, x):
    ref = ndtri(u)
    return np.abs(x - ref) / np.spacing(np.abs(ref))


def inverse_cdf(u):
    u = np.array(u, dtype=np.float64)
    return _inverse_normal_cdf(u.copy(), np.empty((2,) + u.shape))


def test_normals_stay_within_16_ulps_of_ndtri_over_ten_million_draws():
    block = 1 << 20
    worst = 0.0
    for key in (KEY, derive_key(0, 0, 0), derive_key(7, 1, 0), derive_key(2 ** 40, 6, 3),
                derive_key(31337, 2, 1)):
        for lo in range(0, 2 * block, block):
            counters = np.arange(lo, lo + block, dtype=np.uint64)
            z = normal_at(key, counters)
            worst = max(worst, ulps_from_ndtri(uniform_at(key, counters), z).max())
    assert worst <= 16


def test_inverse_cdf_matches_the_standard_library_algorithm():
    # statistics.NormalDist.inv_cdf is AS241 too: the same coefficients
    # and, in the centre, the same operations; the tails may differ by
    # the last bits of log
    u = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 20_001),
                        np.geomspace(2.0 ** -54, 0.1, 2_001),
                        1.0 - np.geomspace(2.0 ** -53, 0.1, 2_001)])
    ref = np.array([statistics.NormalDist().inv_cdf(v) for v in u])
    x = inverse_cdf(u)
    assert (np.abs(x - ref) / np.spacing(np.abs(ref))).max() <= 4


def test_normal_at_is_the_inverse_cdf_of_uniform_at():
    counters = np.arange(3, 200_003, dtype=np.uint64)
    u = uniform_at(KEY, counters)
    np.testing.assert_array_equal(normal_at(KEY, counters).view(np.uint64),
                                  inverse_cdf(u).view(np.uint64))


def test_extreme_uniforms():
    lo, hi = 2.0 ** -54, U_MAX   # the smallest and largest uniforms
    x = inverse_cdf([lo, hi, 1.0])
    assert np.all(np.isfinite(x))
    assert ulps_from_ndtri(np.array([lo, hi]), x[:2]).max() <= 16
    assert x[2] == x[1]   # 1.0 is read as the largest uniform below it


def near(p):
    """Uniforms within 100 ulps and within a relative 1e-13 of ``p``."""
    steps = np.arange(-100, 101)
    u = np.concatenate([p + steps * np.spacing(p), p * (1.0 + steps * 1e-15)])
    return np.unique(u[(u > 0.0) & (u < 1.0)])


@pytest.mark.parametrize("point, side", [
    (0.075, lambda u: np.abs(u - 0.5) <= 0.425),
    (0.925, lambda u: np.abs(u - 0.5) <= 0.425),
    (math.exp(-25.0), lambda u: np.sqrt(-np.log(np.minimum(u, 1.0 - u))) <= 5.0),
    (1.0 - math.exp(-25.0), lambda u: np.sqrt(-np.log(np.minimum(u, 1.0 - u))) <= 5.0),
])
def test_both_sides_of_each_branch_point(point, side):
    # |u - 0.5| = 0.425 splits centre and tail; r = sqrt(-log(min(u, 1-u))) = 5
    # splits the two tail rationals
    u = near(point)
    inside = side(u)
    assert inside.any() and not inside.all()
    assert ulps_from_ndtri(u, inverse_cdf(u)).max() <= 16


def test_half_maps_to_exactly_zero():
    x = inverse_cdf([0.5])
    assert x[0] == 0.0 and not np.signbit(x[0])


@pytest.mark.parametrize("n", [16_384, 32_768])
def test_normal_out_buffer_at_model_block_sizes(n):
    counters = np.arange(n, 2 * n, dtype=np.uint64)
    fresh = normal_at(KEY, counters)
    buf = np.full(n, np.nan)
    assert normal_at(KEY, counters, out=buf) is buf
    np.testing.assert_array_equal(buf.view(np.uint64), fresh.view(np.uint64))
    # a strided 2D out gets the same bits in the same places
    wide = np.full((n // 64, 128), np.nan)
    view = wide[:, ::2]
    assert normal_at(KEY, counters.reshape(view.shape), out=view) is view
    np.testing.assert_array_equal(view.reshape(-1), fresh)
    assert np.isnan(wide[:, 1::2]).all()
