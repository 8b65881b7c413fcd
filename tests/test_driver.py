"""Run orchestration: determinism, record invariants, baseline behaviour."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlmcsr import driver
from mlmcsr.driver import NonConvergenceError, OutcomeStore, run_mc_baseline, run_mlmc_sr
from mlmcsr.estimators import (
    CorrectorTally,
    EstimatorConfig,
    MomentEstimates,
    corrector_moments,
    level0_allocation_variance,
    level0_moments,
    mlmc_combine,
    optimal_allocation,
    termination_check,
)
from mlmcsr.models import EllipticFlux1D, SyntheticNormalModel, standard_normal_cdf
from mlmcsr.refinement import sample_corrector_batch

Y = 0.8
P_TRUE = standard_normal_cdf(Y)


class ConstantModel:
    """Minimal batch-contract model whose answer never moves: X = value exactly."""

    name = "constant"
    batch_chunk = 7  # small, so runs span several chunks

    def __init__(self, value):
        self.value = float(value)

    def draw_batch(self, seed, level, lo, hi):
        return hi - lo

    def work_units(self, tolerance):
        return 1.0 / tolerance

    def solve_batch(self, batch, sel, tolerance, tol_index):
        n = len(sel)
        return np.full(n, self.value), np.full(n, self.work_units(tolerance))


class OscillatingModel:
    """Indicator flips on every level, so the bias bound never shrinks.

    The returned value sits at distance 0.1 * tol from y on alternating
    sides, which keeps |X - value| <= tol satisfiable (X = y) while the
    refinement guard re-solves all the way down on every realization.
    """

    name = "oscillating"
    batch_chunk = 1 << 16

    def draw_batch(self, seed, level, lo, hi):
        return hi - lo

    def work_units(self, tolerance):
        return 1.0 / tolerance

    def solve_batch(self, batch, sel, tolerance, tol_index):
        j = round(math.log(tolerance, 0.5))
        sign = 1.0 if j % 2 == 0 else -1.0
        n = len(sel)
        return np.full(n, Y + sign * 0.1 * tolerance), np.full(n, self.work_units(tolerance))


def record_pairs_equal(a, b):
    assert a.estimate_raw == b.estimate_raw
    assert a.total_cost == b.total_cost
    assert a.final_L == b.final_L
    assert a.n_drawn == b.n_drawn
    assert a.termination_trace == b.termination_trace
    for la, lb in zip(a.per_level, b.per_level):
        assert la.tally == lb.tally
        assert np.array_equal(la.histogram, lb.histogram)
        assert la.cost == lb.cost


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeat_run_is_bit_identical():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.02)
    record_pairs_equal(run_mlmc_sr(model, cfg, seed=11),
                       run_mlmc_sr(model, cfg, seed=11))


def test_thread_count_does_not_change_mlmc_sr():
    # epsilon small enough that level 0 spans several fixed-size chunks,
    # so the pool actually has work to interleave
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.005)
    one = run_mlmc_sr(model, cfg, seed=4, threads=1)
    many = run_mlmc_sr(model, cfg, seed=4, threads=4)
    assert one.per_level[0].n_drawn > model.batch_chunk
    record_pairs_equal(one, many)


def test_thread_count_does_not_change_mc_baseline():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.002)
    one = run_mc_baseline(model, cfg, seed=4, threads=1)
    many = run_mc_baseline(model, cfg, seed=4, threads=4)
    assert one.per_level[0].n_drawn > model.batch_chunk
    record_pairs_equal(one, many)


def test_thread_count_does_not_change_elliptic_mlmc_sr():
    # each draw_batch call builds its own field workspace, so two threads
    # drawing chunks of one model at once cannot see each other's buffers
    model = EllipticFlux1D(master_cells=64)
    cfg = EstimatorConfig(y=0.99, epsilon=0.01)
    one = run_mlmc_sr(model, cfg, seed=6, threads=1)
    two = run_mlmc_sr(model, cfg, seed=6, threads=2)
    assert one.per_level[0].n_drawn > model.batch_chunk
    record_pairs_equal(one, two)


@pytest.mark.parametrize("q", [2.0, 1.5])
def test_records_do_not_depend_on_the_synthetic_chunk_size(q):
    # chunk cuts move only where each per-chunk cost sum ends: at q=2 every
    # row's work is an integer (4**t), so the sums are exact at any cut; at
    # q=1.5 only the cost ledger's last bits may follow the cuts
    cfg = EstimatorConfig(y=Y, epsilon=0.008, q=q)
    runs = []
    for chunk in (1 << 14, 1 << 15, 7):
        model = SyntheticNormalModel(q=q)
        model.batch_chunk = chunk
        runs.append(run_mlmc_sr(model, cfg, seed=3))
    first = runs[0]
    assert first.per_level[0].n_drawn > 1 << 15
    for other in runs[1:]:
        if q == 2.0:
            records_equal(first, other)
            continue
        assert other.total_cost == pytest.approx(first.total_cost, rel=1e-12)
        for la, lb in zip(first.per_level, other.per_level):
            assert lb.cost == pytest.approx(la.cost, rel=1e-12)
        records_equal(first, dataclasses.replace(
            other, total_cost=first.total_cost,
            per_level=[dataclasses.replace(lb, cost=la.cost)
                       for la, lb in zip(first.per_level, other.per_level)]))


def test_different_seeds_differ():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.05)
    a = run_mlmc_sr(model, cfg, seed=0)
    b = run_mlmc_sr(model, cfg, seed=1)
    assert a.estimate_raw != b.estimate_raw


@pytest.mark.parametrize("runner, model", [
    (run_mlmc_sr, SyntheticNormalModel(q=1.0)),
    (run_mlmc_sr, EllipticFlux1D(master_cells=64)),
    (run_mc_baseline, SyntheticNormalModel(q=1.0)),
])
def test_numpy_integer_seed_equals_int_seed(runner, model):
    cfg = EstimatorConfig(y=0.99 if isinstance(model, EllipticFlux1D) else Y, epsilon=0.05)
    record_pairs_equal(runner(model, cfg, seed=np.int64(7)), runner(model, cfg, seed=7))


@pytest.mark.parametrize("runner", [run_mlmc_sr, run_mc_baseline])
def test_thread_count_validated(runner):
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.1)
    with pytest.raises(ValueError):
        runner(model, cfg, seed=0, threads=0)
    with pytest.raises(ValueError):
        runner(model, cfg, seed=0, threads=1.5)


# ---------------------------------------------------------------------------
# exactly solvable runs (constant model)
# ---------------------------------------------------------------------------

def test_constant_model_mlmc_sr_is_exact():
    model = ConstantModel(-3.0)  # far below y: every indicator is 1
    cfg = EstimatorConfig(y=Y, epsilon=0.1)
    rec = run_mlmc_sr(model, cfg, seed=0)
    assert rec.converged
    assert rec.estimate_raw == 1.0
    assert rec.estimate_clamped == 1.0
    assert rec.final_L == 2  # earliest level the stop rule may fire at
    for ls in rec.per_level:
        # |value - y| = 3.8 > 1 kills the guard immediately: one solve at
        # tolerance 1 (unit work) per corrector, which both functionals share
        assert ls.cost == ls.n_drawn
        assert ls.histogram[0] == ls.n_drawn
        assert np.sum(ls.histogram[1:]) == 0
    assert rec.total_cost == sum(ls.cost for ls in rec.per_level)


def test_constant_model_mc_baseline_is_exact():
    model = ConstantModel(-3.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.1)
    rec = run_mc_baseline(model, cfg, seed=0)
    assert rec.converged
    assert rec.method == "mc"
    assert rec.estimate_raw == 1.0
    # first pilot level already passes: bias bound 1/21 < 0.1/sqrt(2),
    # and p_hat = 1 gives zero variance, so n_mc stays at the pilot size
    assert rec.final_L == 1
    (state,) = rec.per_level
    assert state.n_drawn == 20
    assert state.histogram[1] == 20
    # 20 coarse solves at tolerance 1 plus 20 reused fine solves at 1/2
    assert rec.total_cost == 20 * 1.0 + 20 * 2.0


# ---------------------------------------------------------------------------
# record invariants on a real model
# ---------------------------------------------------------------------------

def reference_level_loop(model, config, seed):
    """The level loop with every level's moments recomputed for each
    allocation and after it: (levels, termination trace)."""
    levels, trace, k = [], [], config.k

    def moments():
        return ([level0_moments(levels[0].tally)]
                + [corrector_moments(ls.tally, k) for ls in levels[1:]])

    for L in range(config.max_level + 1):
        levels.append(driver.LevelState(L, CorrectorTally(L),
                                        histogram=np.zeros(L + 1, dtype=np.int64)))
        driver._extend_level(model, seed, levels[L], driver._level_size(config, L),
                             config, map)
        alloc = moments()
        alloc[0] = MomentEstimates(0, alloc[0].mean_bound,
                                   level0_allocation_variance(levels[0].tally, k))
        for ls, n in zip(levels, optimal_allocation(alloc, config.schedule, config.epsilon)):
            driver._extend_level(model, seed, ls, int(n), config, map)
        for ls, m in zip(levels, moments()):
            ls.moments = m
        if L >= 2:
            accepted, lhs, rhs = termination_check(
                levels[L - 1].moments, levels[L].moments, config.schedule, config.epsilon)
            trace.append((L, lhs, rhs))
            if accepted:
                break
    return levels, trace


@pytest.mark.parametrize("q, fields", [
    (1.0, dict(epsilon=0.02)),
    (2.0, dict(epsilon=0.01, N=3)),
    (1.5, dict(epsilon=0.03, k=0.5)),
    (2.0, dict(epsilon=0.05, gamma=0.3, N=40)),
])
def test_level_loop_reuses_only_moments_whose_tally_stood_still(q, fields):
    model = SyntheticNormalModel(q=q)
    cfg = EstimatorConfig(y=Y, q=q, **fields)
    record = run_mlmc_sr(model, cfg, 21)
    levels, trace = reference_level_loop(model, cfg, 21)
    assert record.termination_trace == trace
    assert len(record.per_level) == len(levels)
    for got, want in zip(record.per_level, levels):
        assert (got.tally, got.moments, got.cost) == (want.tally, want.moments, want.cost)
        np.testing.assert_array_equal(got.histogram, want.histogram)


def test_mandatory_draws_and_monotone_sizes():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.05)
    rec = run_mlmc_sr(model, cfg, seed=3)
    for ls in rec.per_level:
        assert ls.n_drawn >= math.ceil(cfg.N * cfg.gamma ** -ls.level)
        assert ls.n_drawn == ls.tally.n
        assert int(np.sum(ls.histogram)) == ls.n_drawn
        assert ls.histogram.size == ls.level + 1
    mat = rec.refinement_histogram
    assert mat.shape == (rec.final_L + 1, rec.final_L + 1)
    assert list(np.sum(mat, axis=0)) == rec.n_drawn


def test_termination_trace_is_a_failure_run_then_success():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.05)
    rec = run_mlmc_sr(model, cfg, seed=3)
    levels = [row[0] for row in rec.termination_trace]
    assert levels == list(range(2, rec.final_L + 1))
    rhs = (1.0 / cfg.gamma - 1.0) * cfg.epsilon / math.sqrt(2.0)
    for _, lhs_val, rhs_val in rec.termination_trace[:-1]:
        assert lhs_val >= rhs_val == rhs
    assert rec.termination_trace[-1][1] < rhs


def test_clamping_and_estimate_sanity():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.1)
    for seed in range(20):
        rec = run_mlmc_sr(model, cfg, seed=seed)
        assert rec.estimate_clamped == min(max(rec.estimate_raw, 0.0), 1.0)
        assert 0.0 <= rec.estimate_clamped <= 1.0


def test_rmse_meets_budget_at_coarse_epsilon():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.1)
    errs = [run_mlmc_sr(model, cfg, seed=s).estimate_raw - P_TRUE
            for s in range(60)]
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse <= 1.2 * cfg.epsilon


def test_mlmc_sr_cost_near_theory_at_q2():
    # q = 2 is the log-corrected regime: eps^-2 log(1/eps)^2 with a
    # modest constant; factor 4 brackets the measured ratio of ~1.3
    model = SyntheticNormalModel(q=2.0)
    cfg = EstimatorConfig(y=Y, epsilon=1e-2, q=2.0)
    mean_cost = np.mean([run_mlmc_sr(model, cfg, seed=s).total_cost
                         for s in range(50)])
    ref = 2.0 * math.log(1.0 / cfg.epsilon) ** 2 * cfg.epsilon ** -2
    assert ref / 4.0 <= mean_cost <= 4.0 * ref


# ---------------------------------------------------------------------------
# tallies recounted from the samples they summarize
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, cfg", [
    (SyntheticNormalModel(q=1.0), EstimatorConfig(y=Y, epsilon=0.02)),
    (EllipticFlux1D(master_cells=64), EstimatorConfig(y=0.99, epsilon=0.02)),
])
def test_mlmc_sr_tallies_recount_from_samples(model, cfg):
    seed = 5
    rec = run_mlmc_sr(model, cfg, seed)
    for ls in rec.per_level:
        batch = sample_corrector_batch(model, seed, ls.level, 0, ls.n_drawn, cfg.y,
                                       cfg.schedule)
        assert ls.tally.n == ls.n_drawn == batch.sign.size
        assert ls.tally.n_plus == np.count_nonzero(batch.sign == 1)
        assert ls.tally.n_minus == np.count_nonzero(batch.sign == -1)
        if ls.level == 0:
            assert ls.tally.n_plus == np.count_nonzero(batch.sign) > 0
    assert rec.estimate_raw == mlmc_combine([ls.tally for ls in rec.per_level])


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_mlmc_sr_ledger_charges_each_corrector_once(q):
    # works are powers of two, so every summation order gives the same sum
    model = SyntheticNormalModel(q=q)
    cfg = EstimatorConfig(y=Y, epsilon=0.02, q=q)
    seed = 6
    rec = run_mlmc_sr(model, cfg, seed)
    for ls in rec.per_level:
        batch = sample_corrector_batch(model, seed, ls.level, 0, ls.n_drawn, cfg.y,
                                       cfg.schedule)
        assert ls.cost == float(batch.cost_fine.sum())
    assert rec.total_cost == sum(ls.cost for ls in rec.per_level)


@pytest.mark.parametrize("model, cfg", [
    # n_mc spans several chunks past the pilot
    (SyntheticNormalModel(q=1.0), EstimatorConfig(y=Y, epsilon=0.003)),
    (EllipticFlux1D(master_cells=64), EstimatorConfig(y=0.99, epsilon=0.02)),
])
def test_mc_baseline_tally_recounts_from_samples(model, cfg):
    seed = 5
    rec = run_mc_baseline(model, cfg, seed)
    (state,) = rec.per_level
    n_mc, star = state.n_drawn, rec.final_L
    values, _ = model.solve_batch(model.draw_batch(seed, star, 0, n_mc),
                                  np.arange(n_mc), cfg.schedule.tolerance(star), star)
    hits = int(np.count_nonzero(values <= cfg.y))
    assert (state.tally.n, state.tally.n_plus, state.tally.n_minus) == (n_mc, hits, 0)
    assert rec.estimate_raw == hits / n_mc


def test_mc_baseline_pilot_chunks_leave_the_record_alone():
    # the pilot of the deciding level (q=1, epsilon=0.003) spans 20 chunks of 32
    cfg = EstimatorConfig(y=Y, epsilon=0.003)
    small = SyntheticNormalModel(q=1.0)
    small.batch_chunk = 32
    a = run_mc_baseline(SyntheticNormalModel(q=1.0), cfg, seed=4)
    b = run_mc_baseline(small, cfg, seed=4, threads=2)
    assert math.ceil(cfg.N * cfg.gamma ** -a.final_L) == 20 * small.batch_chunk
    record_pairs_equal(a, b)
    assert a.per_level[0].moments == b.per_level[0].moments


# ---------------------------------------------------------------------------
# outcome store
# ---------------------------------------------------------------------------

def records_equal(a, b):
    record_pairs_equal(a, b)
    assert len(a.per_level) == len(b.per_level)
    assert [ls.moments for ls in a.per_level] == [ls.moments for ls in b.per_level]


def count_kernel_calls(monkeypatch):
    calls = []
    kernel = driver.sample_corrector_batch

    def counting(model, seed, level, lo, hi, *args, **kwargs):
        calls.append((level, lo, hi))
        return kernel(model, seed, level, lo, hi, *args, **kwargs)

    monkeypatch.setattr(driver, "sample_corrector_batch", counting)
    return calls


def test_store_serves_covered_chunks_without_the_kernel(monkeypatch):
    model = SyntheticNormalModel(q=2.0)
    model.batch_chunk = 64  # many chunks
    fine = EstimatorConfig(y=Y, epsilon=0.01, q=2.0)
    coarse = EstimatorConfig(y=Y, epsilon=0.03, q=2.0)
    store = OutcomeStore(model, 8, fine)
    calls = count_kernel_calls(monkeypatch)
    first = run_mlmc_sr(model, fine, 8, store=store)
    assert calls and store.rows == sum(first.n_drawn)
    calls.clear()
    records_equal(run_mlmc_sr(model, fine, 8, store=store), first)
    assert calls == []
    # a coarser run refines only the chunks that reach past the fine run's rows
    served = run_mlmc_sr(model, coarse, 8, store=store)
    assert all(hi > n for level, lo, hi in calls
               for n in [first.n_drawn[level] if level < len(first.n_drawn) else 0])
    calls.clear()
    records_equal(served, run_mlmc_sr(model, coarse, 8))
    assert len(calls) > 0


def test_fully_served_run_makes_no_kernel_call(monkeypatch):
    model = SyntheticNormalModel(q=2.0)
    fine = EstimatorConfig(y=Y, epsilon=0.01, q=2.0)
    coarse = EstimatorConfig(y=Y, epsilon=0.03, q=2.0)
    store = OutcomeStore(model, 12, fine)
    run_mlmc_sr(model, fine, 12, store=store)
    alone = run_mlmc_sr(model, coarse, 12)
    assert all(n <= store.covered(level) for level, n in enumerate(alone.n_drawn))

    def refuse(*args, **kwargs):
        raise AssertionError("a fully served run refined rows")

    monkeypatch.setattr(driver, "_map_chunks", refuse)
    monkeypatch.setattr(driver, "sample_corrector_batch", refuse)
    records_equal(run_mlmc_sr(model, coarse, 12, store=store), alone)


@pytest.mark.parametrize("target", [99, 100, 101, 150, 230])
def test_store_serves_exactly_the_rows_it_holds(target):
    # the store holds rows 0..99 of level 2; chunks of 64 from 0 end at
    # 64, 128, ...: the one past row 100 must be refined, not read
    model = SyntheticNormalModel(q=2.0)
    model.batch_chunk = 64
    cfg = EstimatorConfig(y=Y, epsilon=0.05, q=2.0)
    store = OutcomeStore(model, 9, cfg)

    def extended(target, store):
        state = driver.LevelState(2, driver.CorrectorTally(2),
                                  histogram=np.zeros(3, dtype=np.int64))
        driver._extend_level(model, 9, state, target, cfg, map, store)
        return state

    extended(100, store)
    served, alone = extended(target, store), extended(target, None)
    assert served.tally == alone.tally
    np.testing.assert_array_equal(served.histogram, alone.histogram)
    assert served.cost == alone.cost
    assert store.covered(2) == max(100, target)


@pytest.mark.parametrize("threads", [1, 2])
def test_store_with_a_tiny_budget_gives_the_same_records(monkeypatch, threads):
    monkeypatch.setattr(driver, "STORE_ROWS", 300)
    model = SyntheticNormalModel(q=1.5)
    model.batch_chunk = 50
    configs = [EstimatorConfig(y=Y, epsilon=e, q=1.5) for e in (0.1, 0.02, 0.05)]
    store = OutcomeStore(model, 3, configs[0])
    for cfg in configs:
        records_equal(run_mlmc_sr(model, cfg, 3, threads=threads, store=store),
                      run_mlmc_sr(model, cfg, 3))
    assert store.rows == 300


def test_store_doubles_each_level_within_the_budget(monkeypatch):
    monkeypatch.setattr(driver, "STORE_ROWS", 1000)
    store = OutcomeStore(ConstantModel(Y), 0, EstimatorConfig(y=Y, epsilon=0.1))

    def rows(a, b):
        index = np.arange(a, b)
        return (index % 7).astype(np.uint8), index * 0.5

    def size(level):
        return {column.size for column in store._columns[level]}

    store.record(0, 0, *rows(0, 400))
    store.record(1, 0, *rows(0, 100))
    store.record(0, 400, *rows(400, 450))    # doubles level 0
    store.record(0, 500, *rows(500, 600))    # past its rows: not recorded
    assert (size(0), store.covered(0), store.rows) == ({800}, 450, 550)
    store.record(1, 50, *rows(50, 250))      # 150 new rows, past twice 100
    store.record(0, 440, *rows(440, 600))    # fills level 0's 800 rows
    assert (size(1), store.covered(0), store.rows) == ({250}, 600, 850)
    store.record(1, 250, *rows(250, 400))    # doubling would pass the budget
    assert (size(1), store.covered(1), store.rows) == ({400}, 400, 1000)
    store.record(0, 600, *rows(600, 700))    # the budget is spent
    assert store.covered(0) == 600
    for level, n in [(0, 600), (1, 400)]:
        for got, want in zip(store.take(level, 0, n), rows(0, n)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and got.base is not None  # a view


def test_mc_store_gives_the_records_of_runs_made_alone():
    # pilot sums are kept per (level, pilot size), so runs of another N
    # or epsilon read only the pilots they would have drawn themselves
    model = SyntheticNormalModel(q=2.0)
    configs = [EstimatorConfig(y=Y, epsilon=e, q=2.0, N=n)
               for e, n in [(0.05, 10), (0.1, 10), (0.05, 20), (0.02, 10), (0.1, 20)]]
    store = OutcomeStore(model, 6, configs[0])
    for cfg in configs:
        records_equal(run_mc_baseline(model, cfg, 6, store=store),
                      run_mc_baseline(model, cfg, 6))
    assert store.rows == 0
    assert {(1, 20), (1, 40), (3, 80), (3, 160)} <= set(store.pilots)


GRID_EPSILONS = (0.04, 0.06, 0.09, 0.14)


@st.composite
def epsilon_grids(draw):
    """An epsilon grid, repeats allowed, ascending, descending or shuffled."""
    grid = draw(st.lists(st.sampled_from(GRID_EPSILONS), min_size=2, max_size=5))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "shuffled":
        return draw(st.permutations(grid))
    return sorted(grid, reverse=order == "descending")


def record_of(runner, *args, **kwargs):
    try:
        return runner(*args, **kwargs)
    except NonConvergenceError as exc:
        return exc.record


@given(grid=epsilon_grids(), q=st.sampled_from([1.0, 1.5, 2.0]),
       chunk=st.sampled_from([16, 100, 1000]), seed=st.integers(0, 1000))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_store_backed_grids_equal_runs_made_alone(grid, q, chunk, seed):
    # whatever the grid's order, a seed's runs through one store (served in
    # full, in part or not at all) give the records of runs made alone
    model = SyntheticNormalModel(q=q)
    model.batch_chunk = chunk
    for runner in (run_mlmc_sr, run_mc_baseline):
        store = OutcomeStore(model, seed, EstimatorConfig(y=Y, epsilon=grid[0], q=q))
        for epsilon in grid:
            cfg = EstimatorConfig(y=Y, epsilon=epsilon, q=q)
            records_equal(record_of(runner, model, cfg, seed, store=store),
                          record_of(runner, model, cfg, seed))


STORE_MISMATCHES = [
    dict(model=SyntheticNormalModel(q=2.0)),  # an equal model, but not the same object
    dict(seed=4),
    dict(y=0.81), dict(gamma=0.25), dict(q=1.0),
]


@pytest.mark.parametrize("change, runner", [
    pytest.param(change, runner, id=f"{prefix}change{i}")
    for prefix, runner in [("", run_mlmc_sr), ("mc-", run_mc_baseline)]
    for i, change in enumerate(STORE_MISMATCHES)
])
def test_store_refuses_a_run_it_was_not_made_for(change, runner):
    model = SyntheticNormalModel(q=2.0)
    store = OutcomeStore(model, 3, EstimatorConfig(y=Y, epsilon=0.1, q=2.0))
    args = dict(model=model, seed=3, y=Y, gamma=0.5, q=2.0)
    args.update(change)
    cfg = EstimatorConfig(y=args["y"], epsilon=0.1, gamma=args["gamma"], q=args["q"])
    with pytest.raises(ValueError, match="OutcomeStore"):
        runner(args["model"], cfg, args["seed"], store=store)
    # epsilon, N, k and max_level leave every row's outcome alone
    runner(model, EstimatorConfig(y=Y, epsilon=0.05, q=2.0, N=20, k=2.0, max_level=12),
           3, store=store)


def new_level_state(level):
    return driver.LevelState(level, driver.CorrectorTally(level),
                             histogram=np.zeros(level + 1, dtype=np.int64))


def level_sums(state):
    return (state.tally.n, state.tally.n_plus, state.tally.n_minus,
            state.histogram.tolist(), state.cost)


def test_store_keeps_stop_rungs_past_an_int8():
    # X = y exactly straddles y at every rung, so each row refines to the last
    model = ConstantModel(Y)
    cfg = EstimatorConfig(y=Y, epsilon=0.1, max_level=300)
    batch = sample_corrector_batch(model, 0, 300, 0, 20, Y, cfg.schedule)
    assert batch.stop.tolist() == [300] * 20
    assert batch.counts[3 * 300 + 1] == 20 and batch.counts.sum() == 20
    store = OutcomeStore(model, 0, cfg)
    store.record(300, 0, batch.code, batch.cost_fine)
    assert store.covered(300) == 20 and store.covered(299) == 0
    got_code, got_cost = store.take(300, 0, 20)
    assert got_code.dtype == np.uint16
    assert got_code.tolist() == (3 * 300 + 1 + batch.sign.astype(int)).tolist()
    np.testing.assert_array_equal(got_cost, batch.cost_fine)
    # the row codes a store serves and the counts the kernel returns fold alike
    served, refined = new_level_state(300), new_level_state(300)
    driver._fold(served, np.bincount(got_code, minlength=3 * 300 + 3), got_cost)
    driver._fold(refined, batch.counts, batch.cost_fine)
    assert level_sums(served) == level_sums(refined)
    assert served.histogram[300] == 20 and served.histogram.sum() == 20


@pytest.mark.parametrize("level", [0, 1, 5, 84, 85, 300])
def test_count_stops_matches_bincount(level):
    # the one fold reads the stop histogram and the tally off code counts:
    # against np.bincount of the rows' stops and the signs' own counts, with
    # any sign at any rung, so the fold leans on nothing but the code layout;
    # row codes take one byte up to level 84 and two from level 85
    rng = np.random.default_rng(level)
    dtype = np.min_scalar_type(3 * level + 2)
    for n in (0, 1, 37, 5000):
        # rungs cluster low, as they do in a kernel chunk, but reach the top
        stop = np.minimum(rng.geometric(0.5, n) - 1, level)
        if n:
            stop[-1] = level
        sign = rng.integers(-1, 2, n)
        code = (3 * stop + sign + 1).astype(dtype)
        cost = rng.random(n)
        state = new_level_state(level)
        driver._fold(state, np.bincount(code, minlength=3 * level + 3), cost)
        assert level_sums(state) == (
            n, np.count_nonzero(sign > 0), np.count_nonzero(sign < 0),
            np.bincount(stop, minlength=level + 1).tolist(), float(cost.sum()))


@pytest.mark.parametrize("rows", [4095, 4096])
def test_refined_and_served_chunks_fold_the_kernel_rows(rows):
    # the same rows refined with a store (recorded), then served from it,
    # then refined alone, in chunks of 1000 rows: one fold, one tally; the
    # works are integers, so the chunked cost sums are exact
    model = SyntheticNormalModel(q=2.0)
    model.batch_chunk = 1000
    cfg = EstimatorConfig(y=Y, epsilon=0.05, q=2.0)
    batch = sample_corrector_batch(model, 5, 3, 0, rows, Y, cfg.schedule)
    want = (rows, np.count_nonzero(batch.sign > 0), np.count_nonzero(batch.sign < 0),
            np.bincount(batch.stop, minlength=4).tolist(), float(batch.cost_fine.sum()))
    store = OutcomeStore(model, 5, cfg)
    for s in (store, store, None):
        state = new_level_state(3)
        driver._extend_level(model, 5, state, rows, cfg, map, s)
        assert level_sums(state) == want
    assert store.covered(3) == rows


# ---------------------------------------------------------------------------
# non-convergence
# ---------------------------------------------------------------------------

def test_mlmc_sr_nonconvergence_carries_partial_record():
    model = OscillatingModel()
    cfg = EstimatorConfig(y=Y, epsilon=0.1, max_level=4)
    with pytest.raises(NonConvergenceError) as info:
        run_mlmc_sr(model, cfg, seed=0)
    rec = info.value.record
    assert not rec.converged
    assert rec.final_L == 4
    assert len(rec.per_level) == 5
    assert math.isfinite(rec.estimate_raw)
    for _, lhs_val, rhs_val in rec.termination_trace:
        assert lhs_val >= rhs_val
    assert "level 4" in str(info.value)


def test_mc_baseline_nonconvergence():
    model = OscillatingModel()
    cfg = EstimatorConfig(y=Y, epsilon=0.1, max_level=2)
    with pytest.raises(NonConvergenceError) as info:
        run_mc_baseline(model, cfg, seed=0)
    rec = info.value.record
    assert rec.per_level == []
    assert math.isnan(rec.estimate_raw)
    assert len(rec.termination_trace) == 2


class NeverDrawnModel(ConstantModel):
    """Fails the test on any draw."""

    def draw_batch(self, seed, level, lo, hi):
        raise AssertionError(f"drew rows [{lo}, {hi}) of level {level}")


@pytest.mark.parametrize("runner", [run_mlmc_sr, run_mc_baseline])
@pytest.mark.parametrize("fields", [dict(gamma=1e-300), dict(N=10 ** 30)])
def test_uncountable_level_size_raises_before_drawing(runner, fields):
    # level 1 would need N * gamma**-1 >= 2**63 rows; mlmc-sr's level 0
    # is small at gamma=1e-300, but every run needs levels 0..2
    cfg = EstimatorConfig(y=Y, epsilon=0.1, **fields)
    with pytest.raises(ValueError, match=r"2\*\*63 rows"):
        runner(NeverDrawnModel(-3.0), cfg, seed=0)


def test_mlmc_sr_refuses_a_single_row_level_before_drawing():
    # level 0 opens with N rows, and level0_moments needs two of them
    with pytest.raises(ValueError, match="N=1"):
        run_mlmc_sr(NeverDrawnModel(Y), EstimatorConfig(y=Y, epsilon=0.1, N=1), seed=0)


def test_level_size_stops_short_of_2_to_the_63_rows():
    cfg = EstimatorConfig(y=Y, epsilon=0.1, N=2 ** 61)
    assert driver._level_size(cfg, 1) == 2 ** 62
    with pytest.raises(ValueError, match="level 2"):
        driver._level_size(cfg, 2)


@pytest.mark.parametrize("runner", [run_mlmc_sr, run_mc_baseline])
def test_uncountable_max_level_alone_is_no_refusal(runner):
    # level 100 would need 10 * 2**100 rows, but the run stops long before
    model, seed = SyntheticNormalModel(q=1.0), 0
    deep = runner(model, EstimatorConfig(y=Y, epsilon=0.1, max_level=100), seed)
    record_pairs_equal(deep, runner(model, EstimatorConfig(y=Y, epsilon=0.1), seed))


# ---------------------------------------------------------------------------
# baseline sizing, accuracy, and cost rate
# ---------------------------------------------------------------------------

def test_mc_baseline_sample_size_follows_pilot_variance():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.05)
    rec = run_mc_baseline(model, cfg, seed=0)
    (state,) = rec.per_level
    n_pilot = math.ceil(cfg.N * cfg.gamma ** -rec.final_L)
    s2 = state.moments.var_bound
    assert state.n_drawn == max(n_pilot, math.ceil(2.0 * s2 / cfg.epsilon ** 2))
    assert state.histogram[rec.final_L] == state.n_drawn
    assert state.tally.n == state.n_drawn


def test_mc_baseline_coverage():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=Y, epsilon=0.05)
    hits = sum(
        abs(run_mc_baseline(model, cfg, seed=s).estimate_raw - P_TRUE) <= 3 * cfg.epsilon
        for s in range(100)
    )
    assert hits >= 95


def test_mc_baseline_cost_rate_q2():
    # full-solve baseline pays eps^-(2+q); the fitted exponent sits a
    # little shallow of -4 on a finite grid, hence the +/- 0.4 band
    model = SyntheticNormalModel(q=2.0)
    grid = np.logspace(-2.75, -1, 7)
    means = []
    for eps in grid:
        cfg = EstimatorConfig(y=Y, epsilon=float(eps), q=2.0)
        means.append(np.mean([run_mc_baseline(model, cfg, seed=s).total_cost
                              for s in range(20)]))
    slope = np.polyfit(np.log(grid), np.log(means), 1)[0]
    assert -4.0 - 0.4 <= slope <= -4.0 + 0.4
