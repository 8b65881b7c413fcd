"""Estimator core: moment bounds, allocation, combination, termination."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmcsr import estimators
from mlmcsr.estimators import (
    CorrectorTally,
    EstimatorConfig,
    InsufficientSamplesError,
    LevelSchedule,
    MomentEstimates,
    allocate,
    bias_bound,
    corrector_moments,
    cost_per_sample,
    level0_moments,
    mlmc_combine,
    optimal_allocation,
    shrinkage_estimate,
    termination_check,
)


def tally_from_values(values):
    """Level-0 tally from raw indicator observations."""
    v = np.asarray(values)
    return CorrectorTally(0, n=v.size, n_plus=int(v.sum()))


# ---------------------------------------------------------------------------
# shrinkage estimator
# ---------------------------------------------------------------------------

def test_shrinkage_point_values():
    assert shrinkage_estimate(3, 7, 1.0) == 0.5
    assert shrinkage_estimate(0, 0, 1.0) == 1.0
    assert shrinkage_estimate(0, 100, 1.0) == pytest.approx(1 / 101)


def test_shrinkage_rejects_bad_arguments():
    with pytest.raises(ValueError):
        shrinkage_estimate(8, 7, 1.0)
    with pytest.raises(ValueError):
        shrinkage_estimate(1, 7, 0.0)
    with pytest.raises(ValueError):
        shrinkage_estimate(-1, 7, 1.0)


@given(n=st.integers(0, 10_000), frac=st.floats(0, 1), k=st.floats(0.1, 10))
def test_shrinkage_never_returns_zero(n, frac, k):
    x = int(round(frac * n))
    est = shrinkage_estimate(x, n, k)
    assert 0.0 < est <= 1.0


def exact_relative_variance(n, p, k=1.0):
    """V[p~]/E[p~]^2 summed over the full binomial pmf."""
    xs = np.arange(n + 1)
    pmf = scipy.stats.binom.pmf(xs, n, p)
    est = (xs + k) / (n + k)
    mean = float(np.dot(pmf, est))
    second = float(np.dot(pmf, est * est))
    return (second - mean * mean) / mean ** 2


def test_shrinkage_relative_variance_spot_grid():
    # the dense-grid version is an acceptance criterion; spot-check here
    for n in (1, 3, 17, 60, 200):
        for p in (0.001, 0.05, 0.4, 0.97):
            assert exact_relative_variance(n, p) <= 0.25


def test_shrinkage_conservative_in_low_information_regime():
    # E[p~] >= p whenever n*p <= k (exact binomial expectation)
    k = 1.0
    for n in range(1, 21):
        p = k / n
        xs = np.arange(n + 1)
        pmf = scipy.stats.binom.pmf(xs, n, p)
        mean = float(np.dot(pmf, (xs + k) / (n + k)))
        assert mean >= p - 1e-12


# ---------------------------------------------------------------------------
# moment bounds
# ---------------------------------------------------------------------------

def test_corrector_moments_point_values():
    m = corrector_moments(CorrectorTally(1, n=100, n_plus=5, n_minus=2), k=1.0)
    assert m.mean_bound == pytest.approx(6 / 101)
    assert m.var_bound == pytest.approx(8 / 101)


def test_corrector_moments_prior_only():
    m = corrector_moments(CorrectorTally(2), k=1.0)
    assert m.mean_bound == 1.0
    assert m.var_bound == 1.0


def test_corrector_moments_match_the_shrinkage_estimates_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(5000):
        n = int(rng.choice([0, 1, 2, int(rng.integers(0, 1000)), int(rng.integers(0, 2 ** 53))]))
        n_plus = int(rng.integers(0, n + 1))
        n_minus = int(rng.integers(0, n - n_plus + 1))
        k = float(rng.choice([1.0, 0.5, 1e-300, 1e300, float(rng.uniform(0.01, 100.0))]))
        tally = CorrectorTally(int(rng.integers(1, 31)), n=n, n_plus=n_plus, n_minus=n_minus)
        expected = MomentEstimates(
            tally.level,
            max(shrinkage_estimate(n_plus, n, k), shrinkage_estimate(n_minus, n, k)),
            shrinkage_estimate(n_plus + n_minus, n, k),
        )
        assert corrector_moments(tally, k) == expected
    for k in (0.0, -1.0):
        with pytest.raises(ValueError):
            corrector_moments(CorrectorTally(1, n=3, n_plus=1), k)


def test_corrector_moments_rejects_level0():
    with pytest.raises(ValueError):
        corrector_moments(tally_from_values([1, 0]), k=1.0)


def test_level0_moments_point_values():
    m = level0_moments(tally_from_values([1, 0, 1, 1]))
    assert m.mean_bound == 0.75
    assert m.var_bound == pytest.approx(0.25)

    m = level0_moments(tally_from_values([1] * 10))
    assert m.mean_bound == 1.0
    assert m.var_bound == 0.0

    m = level0_moments(tally_from_values([1, 0]))
    assert m.mean_bound == 0.5
    assert m.var_bound == pytest.approx(0.5)


def test_level0_moments_needs_two_observations():
    with pytest.raises(InsufficientSamplesError):
        level0_moments(tally_from_values([1]))


def test_tally_merge_and_invariants():
    # counts merge by adding to the fields, as the drivers do per chunk
    a = CorrectorTally(3, n=10, n_plus=2, n_minus=1)
    a.n += 5
    a.n_minus += 3
    a.check()
    assert (a.n, a.n_plus, a.n_minus) == (15, 2, 4)
    a.n_plus += 10
    with pytest.raises(ValueError):
        a.check()
    with pytest.raises(ValueError):
        CorrectorTally(1, n=2, n_plus=2, n_minus=1)
    with pytest.raises(ValueError):
        CorrectorTally(0, n=2, n_minus=1)


# ---------------------------------------------------------------------------
# cost model and allocation
# ---------------------------------------------------------------------------

def test_cost_per_sample_point_values():
    sched = LevelSchedule(gamma=0.5, q=2.0)
    assert cost_per_sample(3, sched) == 15.0
    assert cost_per_sample(5, LevelSchedule(0.5, 1.0)) == 6.0


def test_allocation_charges_each_corrector_its_fine_refinement():
    # the level-(l-1) functional is the level-l refinement before its
    # last rung, so a level-l corrector costs cost_per_sample(l) alone
    sched = LevelSchedule(gamma=0.5, q=1.0)
    moments = [MomentEstimates(l, 0.0, 1.0) for l in range(4)]
    np.testing.assert_array_equal(optimal_allocation(moments, sched, 0.1),
                                  allocate([1.0] * 4, [1.0, 2.0, 3.0, 4.0], 0.1))


def test_allocate_single_level_closed_form():
    sizes = allocate([1.0], [1.0], epsilon=0.1)
    assert sizes.tolist() == [200]
    assert 1.0 / 200 == pytest.approx(0.1 ** 2 / 2)


def test_allocate_two_level_closed_form():
    sizes = allocate([1.0, 0.5], [1.0, 2.0], epsilon=0.1)
    assert sizes.tolist() == [400, 200]
    assert 1.0 / 400 + 0.5 / 200 == pytest.approx(0.1 ** 2 / 2)


def test_allocate_geometric_rates_give_geometric_sizes():
    # V ~ gamma^l and c ~ gamma^((1-q) l) with q=2, gamma=0.5 make the
    # per-level ratio exactly gamma^(q/2) = 0.5, with integer sizes here
    v = [0.5 ** l for l in range(4)]
    c = [2.0 ** l for l in range(4)]
    sizes = allocate(v, c, epsilon=0.1)
    assert sizes.tolist() == [800, 400, 200, 100]


def test_allocate_degenerate_all_zero_variance():
    sizes = allocate([0.0, 0.0, 0.0], [1.0, 2.0, 4.0], epsilon=0.1)
    assert sizes.tolist() == [1, 1, 1]


def test_allocate_floors_at_one():
    sizes = allocate([1e-30, 1.0], [1.0, 1.0], epsilon=0.1)
    assert sizes[0] == 1


def test_allocate_keeps_ordinary_sizes():
    assert allocate([0.25, 0.1], [1.0, 3.0], 0.01).tolist() == [10478, 3826]
    # 2**61 is exact in float64 and fits an int64 count
    assert allocate([1.0], [1.0], 2.0 ** -30).tolist() == [2 ** 61]


def test_allocate_rejects_sizes_beyond_int64():
    # ~1e24 samples used to wrap around in the int64 cast and come out as 1
    with pytest.raises(ValueError, match="64-bit"):
        allocate([0.25, 0.1], [1, 3], 1e-12)
    with pytest.raises(ValueError):
        allocate([1.0], [1.0], 2.0 ** -31)  # exactly 2**63
    with pytest.raises(ValueError):
        allocate([math.inf, 1.0], [1.0, 1.0], 0.1)


def reference_allocate(variances, costs, epsilon):
    """The numpy formulation of ``allocate``: the same sizes, dtype and errors."""
    v = np.asarray(variances, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if v.shape != c.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("variances and costs must be equal-length 1-D sequences")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if np.any(v < 0.0) or np.any(c <= 0.0):
        raise ValueError("variances must be >= 0 and costs > 0")
    total = np.sum(np.sqrt(v * c))
    if total == 0.0:
        return np.ones(v.size, dtype=np.int64)
    raw = 2.0 * epsilon ** -2 * np.sqrt(v / c) * total
    if not np.all(raw < 2.0 ** 63):  # also catches NaN and inf
        raise ValueError(f"sample sizes {raw.tolist()} do not fit a 64-bit count")
    return np.maximum(np.ceil(raw).astype(np.int64), 1)


def outcome(fn, *args):
    """(sizes, dtype) of a returned allocation, or ("error", message)."""
    try:
        sizes = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return sizes.tolist(), sizes.dtype


def random_allocation_inputs(rng):
    """Variances, costs and epsilon mixing ordinary, zero, tiny, huge and
    non-finite values; about a third of the epsilons put the largest
    size within a few ulps of 2**63."""
    levels = int(rng.integers(1, 32))
    pools = {
        "ordinary": lambda: float(rng.uniform(1e-6, 10.0)),
        "zero": lambda: 0.0,
        "tiny": lambda: float(10.0 ** rng.uniform(-320, -30)),
        "huge": lambda: float(10.0 ** rng.uniform(30, 308)),
        "non-finite": lambda: float(rng.choice([np.nan, np.inf, -np.inf])),
        "negative": lambda: -float(rng.uniform(0.0, 1.0)),
    }
    weights = {"ordinary": 0.7, "zero": 0.08, "tiny": 0.08, "huge": 0.08,
               "non-finite": 0.03, "negative": 0.03}
    names, p = list(weights), list(weights.values())

    def draw():
        return pools[names[rng.choice(len(names), p=p)]]()

    mixed = rng.random() < 0.5
    v = [draw() if mixed else pools["ordinary"]() for _ in range(levels)]
    c = [draw() if mixed else float(rng.uniform(1.0, 1e4)) for _ in range(levels)]
    kind = rng.integers(3)
    if kind == 0:
        epsilon = float(10.0 ** rng.uniform(-6, 0))
    elif kind == 1:
        epsilon = float(rng.choice([0.0, -0.1, 1e-200]))
    else:
        with np.errstate(all="ignore"):
            va, ca = np.asarray(v), np.asarray(c)
            largest = np.max(np.sqrt(va / ca)) * np.sum(np.sqrt(va * ca))
            epsilon = float(np.sqrt(2.0 * largest / 2.0 ** 63))
        if math.isfinite(epsilon) and epsilon > 0.0:
            for _ in range(int(rng.integers(-3, 4))):
                epsilon = math.nextafter(epsilon, math.inf)
        else:
            epsilon = 0.1
    return v, c, epsilon


def test_allocate_matches_the_numpy_formulation_bit_for_bit():
    rng = np.random.default_rng(20260417)
    seen = set()
    for _ in range(3000):
        v, c, epsilon = random_allocation_inputs(rng)
        for args in ((v, c, epsilon), (np.asarray(v), np.asarray(c), np.float64(epsilon))):
            try:
                with np.errstate(all="ignore"):
                    expected = outcome(reference_allocate, *args)
            except OverflowError:  # epsilon ** -2 of a Python float
                with pytest.raises(ValueError, match="too small"):
                    allocate(*args)
                continue
            with np.errstate(all="ignore"):  # the same of a numpy float: inf
                assert outcome(allocate, *args) == expected, args
            if expected[0] == "error":
                seen.add(expected[1].split()[0])
            else:
                seen.add("sizes")
                if max(expected[0]) > 2 ** 62:
                    seen.add("near 2**63")
    assert seen >= {"sizes", "near 2**63", "sample", "variances", "epsilon"}
    for args in (([1.0, 2.0], [1.0], 0.1), ([], [], 0.1), ([[1.0]], [[1.0]], 0.1),
                 (1.0, 1.0, 0.1), ([1, 0], [3, 1], 0.01), ([0.0], [1.0], 0.5)):
        assert outcome(allocate, *args) == outcome(reference_allocate, *args)


def test_cost_ladder_sums_each_level_left_to_right():
    # optimal_allocation builds the ladder once per call; every entry must
    # have the bits of its own left-to-right sum, and allocating over more
    # than eight levels must match allocate on those costs bit for bit
    rng = np.random.default_rng(7)
    for sched in (LevelSchedule(0.5, 2.0), LevelSchedule(0.3, 1.5), LevelSchedule(0.5, 1),
                  LevelSchedule(np.float64(0.7), np.float64(2.5)),
                  LevelSchedule(np.float32(0.7), np.float32(2.5))):
        r = sched.gamma ** (1.0 - sched.q)
        costs = [float(sum(r ** j for j in range(level + 1))) for level in range(32)]
        assert [cost_per_sample(level, sched) for level in range(32)] == costs
        assert estimators._cost_ladder(32, sched) == costs
        for levels in (1, 8, 9, 20, 32):
            v = rng.uniform(1e-6, 1.0, levels).tolist()
            moments = [MomentEstimates(l, 0.0, vl) for l, vl in enumerate(v)]
            assert (optimal_allocation(moments, sched, 1e-3).tolist()
                    == reference_allocate(v, costs[:levels], 1e-3).tolist())
    with pytest.raises(ValueError):
        cost_per_sample(-1, LevelSchedule())


@pytest.mark.parametrize("q, levels", [(2000.0, 1), (40.0, 28), (40.0, 40)])
def test_cost_ladder_overflow_is_a_value_error_naming_q_and_gamma(q, levels):
    # q=2000: gamma**(1 - q) itself overflows; q=40: r**27 = 2**1053 does
    sched = LevelSchedule(0.5, q)
    with pytest.raises(ValueError, match=r"q=.*gamma=0\.5"):
        estimators._cost_ladder(levels, sched)
    with pytest.raises(ValueError, match="q="):
        optimal_allocation([MomentEstimates(l, 0.0, 1.0) for l in range(levels)], sched, 0.1)
    assert estimators._cost_ladder(27, LevelSchedule(0.5, 40.0))[-1] < math.inf


def test_optimal_allocation_wires_cost_model():
    sched = LevelSchedule(gamma=0.5, q=2.0)
    moments = [MomentEstimates(l, 0.0, v) for l, v in enumerate([1.0, 0.25])]
    by_hand = allocate([1.0, 0.25], [1.0, cost_per_sample(1, sched)], 0.1)
    auto = optimal_allocation(moments, sched, 0.1)
    np.testing.assert_array_equal(auto, by_hand)
    with pytest.raises(ValueError):
        optimal_allocation([MomentEstimates(1, 0.0, 1.0)], sched, 0.1)


@given(
    levels=st.integers(1, 8),
    eps=st.floats(1e-3, 1.0),
    data=st.data(),
)
@settings(max_examples=60, derandomize=True)
def test_allocation_meets_variance_budget_pre_ceiling(levels, eps, data):
    v = [data.draw(st.floats(1e-6, 10.0)) for _ in range(levels)]
    c = [data.draw(st.floats(1e-3, 100.0)) for _ in range(levels)]
    total = sum(math.sqrt(a * b) for a, b in zip(v, c))
    raw = [2.0 * eps ** -2 * math.sqrt(a / b) * total for a, b in zip(v, c)]
    budget = sum(a / n for a, n in zip(v, raw))
    assert budget == pytest.approx(eps ** 2 / 2, rel=1e-12)
    # the shipped allocation only rounds up from these reals
    sizes = allocate(v, c, eps)
    assert all(s >= math.floor(r) for s, r in zip(sizes, raw))
    assert sum(a / n for a, n in zip(v, sizes)) <= budget * (1 + 1e-12)


# ---------------------------------------------------------------------------
# combination, bias, termination
# ---------------------------------------------------------------------------

def test_mlmc_combine_single_level():
    assert mlmc_combine([tally_from_values([1, 0, 1, 1])]) == 0.75


def test_mlmc_combine_telescopes():
    t0 = tally_from_values([1, 1, 1, 1, 0])  # mean 0.8
    t1 = CorrectorTally(1, n=100, n_plus=3, n_minus=1)
    assert mlmc_combine([t0, t1]) == pytest.approx(0.82)


def test_mlmc_combine_requires_samples_everywhere():
    with pytest.raises(InsufficientSamplesError):
        mlmc_combine([tally_from_values([1, 0]), CorrectorTally(1)])
    with pytest.raises(ValueError):
        mlmc_combine([])


def test_mlmc_combine_equals_direct_mc_on_shared_samples():
    # same sample set at every level: the telescope collapses to the
    # plain mean of the finest indicators, exactly
    rng = np.random.default_rng(7)
    n, L = 500, 4
    q = rng.integers(0, 2, size=(L + 1, n))
    tallies = [tally_from_values(q[0])]
    for l in range(1, L + 1):
        d = q[l] - q[l - 1]
        tallies.append(
            CorrectorTally(l, n=n, n_plus=int((d > 0).sum()), n_minus=int((d < 0).sum()))
        )
    assert mlmc_combine(tallies) == pytest.approx(q[L].mean(), abs=1e-15)


def test_bias_bound_point_values():
    assert bias_bound(MomentEstimates(5, 0.04, 0.0), gamma=0.5) == pytest.approx(0.04)
    assert bias_bound(MomentEstimates(5, 0.0, 0.0), gamma=0.9) == 0.0
    assert bias_bound(MomentEstimates(5, 0.1, 0.0), gamma=0.25) == pytest.approx(0.1 / 3)
    with pytest.raises(ValueError):
        bias_bound(MomentEstimates(5, 0.1, 0.0), gamma=1.0)


def test_termination_check_point_cases():
    sched = LevelSchedule(gamma=0.5, q=1.0)
    zero = MomentEstimates(1, 0.0, 0.0)
    accepted, lhs, rhs = termination_check(zero, zero, sched, epsilon=1e-9)
    assert accepted
    assert lhs == 0.0 and rhs == pytest.approx(1e-9 / math.sqrt(2.0))

    prev = MomentEstimates(2, 0.02, 0.0)
    last = MomentEstimates(3, 0.005, 0.0)
    accepted, lhs, rhs = termination_check(prev, last, sched, epsilon=0.01)
    assert not accepted
    assert lhs == 0.01 and lhs >= rhs  # gamma * 0.02 beats 0.005

    prev = MomentEstimates(2, 0.06, 0.0)
    last = MomentEstimates(3, 0.05, 0.0)
    accepted, lhs, rhs = termination_check(prev, last, sched, epsilon=0.1)
    assert accepted
    assert lhs == 0.05 and lhs < rhs


@given(
    m_prev=st.floats(0, 1),
    m_last=st.floats(0, 1),
    eps=st.floats(1e-6, 1.0),
    bump=st.floats(1.0, 100.0),
)
@settings(max_examples=100, derandomize=True)
def test_termination_monotone_in_epsilon(m_prev, m_last, eps, bump):
    sched = LevelSchedule(gamma=0.5, q=1.0)
    prev = MomentEstimates(2, m_prev, 0.0)
    last = MomentEstimates(3, m_last, 0.0)
    accepted, _, _ = termination_check(prev, last, sched, eps)
    if accepted:
        assert termination_check(prev, last, sched, eps * bump)[0]


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

def test_level_schedule_validation():
    with pytest.raises(ValueError):
        LevelSchedule(gamma=1.0)
    with pytest.raises(ValueError):
        LevelSchedule(gamma=0.5, q=0.0)
    for q in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            LevelSchedule(0.5, q)
    with pytest.raises(ValueError, match="finite"):
        LevelSchedule(0.5, True)
    assert LevelSchedule(0.5, 2.0).tolerance(3) == 0.125


def test_estimator_config_validation():
    cfg = EstimatorConfig(y=0.8, epsilon=0.05)
    assert cfg.schedule == LevelSchedule(0.5, 1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(y=0.8, epsilon=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(y=0.8, epsilon=0.1, N=0)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(y=nan, epsilon=nan), dict(y=0.8, epsilon=inf),
                dict(y=0.8, epsilon=0.1, q=nan, k=inf), dict(y=-inf, epsilon=0.1),
                dict(y=0.8, epsilon=0.1, gamma=nan), dict(y=0.8, epsilon=0.1, k=inf)):
        with pytest.raises(ValueError, match="finite"):
            EstimatorConfig(**bad)
    # a bool is not a real-valued parameter, though Python counts it as an int
    for bad in (dict(y=True, q=True), dict(y=0.8, epsilon=True), dict(y=0.8, k=True),
                dict(y=np.float64(0.8), epsilon=0.1, q=False), dict(y="0.8")):
        with pytest.raises(ValueError, match="finite and a real number"):
            EstimatorConfig(**{"epsilon": 0.1, **bad})
    with pytest.raises(ValueError, match="gamma"):
        EstimatorConfig(y=0.8, epsilon=0.1, gamma=True)
    for bad in (dict(N=2.5), dict(N=True), dict(max_level=7.5), dict(max_level="9")):
        with pytest.raises(ValueError, match="integer"):
            EstimatorConfig(y=0.8, epsilon=0.1, **bad)
    # 2 * epsilon**-2 must be a finite float: the allocation scales by it
    for tiny in (1e-200, 1e-154, 5e-324, np.float64(1e-200)):
        with pytest.raises(ValueError, match="too small"):
            EstimatorConfig(y=0.8, epsilon=tiny)
    assert EstimatorConfig(y=0.8, epsilon=1.1e-154).epsilon == 1.1e-154
    with pytest.raises(ValueError, match="too small"):
        allocate([1.0], [1.0], 1e-200)
