"""Run orchestration: the level loop and the single-level baseline.

``run_mlmc_sr`` drives the estimator proper: open level L with its
mandatory draw, update the work-optimal allocation from the variance
bounds, extend every level monotonically, and stop once the remaining
bias fits its half of the error budget.  ``run_mc_baseline`` is the
comparison method: pick one deep-enough level from a pilot, then plain
Monte Carlo with every realization solved fully to that tolerance.

Determinism contract: RunRecords are bit-identical for identical
(model, config, seed) regardless of thread count.  That falls out of
three choices: counter-based streams addressed by absolute sample
index, extension work split into fixed-size chunks whose boundaries
depend only on the extension range, and chunk results folded in range
order no matter which worker finished first.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimators import (
    CorrectorTally,
    EstimatorConfig,
    MomentEstimates,
    corrector_moments,
    level0_allocation_variance,
    level0_moments,
    mlmc_combine,
    bias_bound,
    optimal_allocation,
    termination_check,
    is_integer,
)
from .refinement import ModelContract, sample_corrector_batch

__all__ = [
    "LevelState",
    "RunRecord",
    "NonConvergenceError",
    "OutcomeStore",
    "run_mlmc_sr",
    "run_mc_baseline",
]

@dataclass(slots=True)
class LevelState:
    """Accumulated per-level data: tally, stop histogram, work.

    ``n_drawn`` reads the tally's count, which only the fold writes.
    """

    level: int
    tally: CorrectorTally
    moments: MomentEstimates | None = None
    histogram: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cost: float = 0.0

    @property
    def n_drawn(self) -> int:
        return self.tally.n


@dataclass
class RunRecord:
    """Everything one run produced, sufficient to audit its decisions.

    ``termination_trace`` rows are (level, lhs, rhs) of the stopping
    comparison: every row but the last has lhs >= rhs.  The histogram
    matrix counts, per level (columns), how many realizations stopped
    refining at each ladder index (rows).  ``estimate_clamped`` and
    ``final_L`` are derived: the raw estimate clamped to [0, 1], and the
    last level in ``per_level`` (``config.max_level`` when it is empty).
    """

    config: EstimatorConfig
    seed: int
    method: str
    converged: bool
    estimate_raw: float
    per_level: list[LevelState]
    total_cost: float
    termination_trace: list[tuple[int, float, float]]

    @property
    def estimate_clamped(self) -> float:
        return min(max(self.estimate_raw, 0.0), 1.0)

    @property
    def final_L(self) -> int:
        return self.per_level[-1].level if self.per_level else self.config.max_level

    @property
    def refinement_histogram(self) -> np.ndarray:
        """Stop counts by ladder index (rows) and level 0..final_L (columns);
        the columns of levels a run has no entry for (below an mc run's
        one level) are zeros."""
        size = max((ls.level + 1 for ls in self.per_level), default=0)
        mat = np.zeros((size, size), dtype=np.int64)
        for ls in self.per_level:
            mat[: ls.histogram.size, ls.level] = ls.histogram
        return mat

    @property
    def n_drawn(self) -> list[int]:
        return [ls.n_drawn for ls in self.per_level]


class NonConvergenceError(RuntimeError):
    """Level cap reached before the bias criterion was met."""

    def __init__(self, record: RunRecord):
        self.record = record
        cap = record.config.max_level
        super().__init__(
            f"no convergence by level {cap} "
            f"(epsilon={record.config.epsilon}, seed={record.seed})"
        )


@contextmanager
def _worker_pool(threads: int):
    """A thread pool for ``threads`` > 1; None (work runs inline) for 1."""
    if not (is_integer(threads) and threads >= 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if threads == 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool


def _map_chunks(fn, lo: int, hi: int, chunk: int, pool: ThreadPoolExecutor | None):
    """``fn((a, b))`` over [lo, hi) cut every ``chunk`` indices from lo.

    The cuts depend only on the range, and results arrive in range
    order whichever worker finishes first, so folding them is
    deterministic.
    """
    ranges = [(a, min(a + chunk, hi)) for a in range(lo, hi, chunk)]
    return pool.map(fn, ranges) if pool is not None else map(fn, ranges)


# An OutcomeStore records at most STORE_ROWS rows (about 10 bytes each).
STORE_ROWS = 1 << 20


class OutcomeStore:
    """Refinement outcomes of one seed, shared by the runs of a grid.

    Realization (seed, level, index) is drawn and refined to the same
    bits by every run with the same model, y, gamma and q, whatever its
    epsilon.  A store records, per level, the (sign, stop, cost) outcome
    of each refined row for indices 0..n-1 in one array per column,
    grown by doubling, and ``run_mlmc_sr`` folds any chunk the store
    covers in full from those arrays instead of drawing and refining
    it.  The counts and the per-chunk cost sums are the same numbers, so
    records are bit-identical with or without a store.  At most
    STORE_ROWS rows are recorded; rows past that are refined and not
    recorded.  ``pilots`` keeps the sums of each mc pilot level, keyed
    (level, pilot size), for ``run_mc_baseline``.
    """

    def __init__(self, model: ModelContract, seed: int, config: EstimatorConfig):
        self._key = (model, seed, config.y, config.gamma, config.q)
        self._columns: dict[int, tuple[np.ndarray, ...]] = {}
        self._covered: dict[int, int] = {}
        self.rows = 0
        self.pilots: dict[tuple[int, int], tuple] = {}

    def check(self, model: ModelContract, seed: int, config: EstimatorConfig) -> None:
        """Raise ValueError unless the store was made for this model, seed and config."""
        bound_model, *key = self._key
        if model is not bound_model or [seed, config.y, config.gamma, config.q] != key:
            raise ValueError("an OutcomeStore serves only runs of the model object, "
                             "seed, y, gamma and q it was made for")

    def covered(self, level: int) -> int:
        """How many rows of ``level``, from index 0, the store holds."""
        return self._covered.get(level, 0)

    def take(self, level: int, a: int, b: int) -> tuple[np.ndarray, ...]:
        """Views of (sign, stop, cost) of rows a..b-1 of a level; 0 <= a < b <= covered."""
        return tuple(column[a:b] for column in self._columns[level])

    def record(self, level: int, a: int, outcomes: tuple[np.ndarray, ...]) -> None:
        """Record the (sign, stop, cost) rows a, a+1, ... of a level past
        those it holds, while the STORE_ROWS budget lasts; none when a is
        past them, because the store holds a prefix of each level."""
        n = self.covered(level)
        start, room = n - a, STORE_ROWS - self.rows
        m = min(len(outcomes[0]) - start, room)
        if start < 0 or m <= 0:
            return
        columns = self._columns.get(level)
        if columns is None or columns[0].size < n + m:
            size = min(max(2 * n, n + m), n + room)
            grown = tuple(np.empty(size, src.dtype) for src in outcomes)
            for dst, old in zip(grown, columns or ()):
                dst[:n] = old[:n]
            self._columns[level] = columns = grown
        for dst, src in zip(columns, outcomes):
            dst[n:n + m] = src[start:start + m]
        self._covered[level] = n + m
        self.rows += m


def _level_size(config: EstimatorConfig, level: int) -> int:
    """ceil(N * gamma**-level): the rows a level opens with, mlmc-sr's
    mandatory draw and the mc pilot alike.  Raises ValueError when that
    is 2**63 rows or more, as ``allocate`` does for its sizes."""
    try:
        n = math.ceil(config.N * config.gamma ** -level)
    except OverflowError:
        n = math.inf
    if not n < 2 ** 63:
        raise ValueError(f"level {level} would need N * gamma**-{level} >= 2**63 rows "
                         f"(N={config.N}, gamma={config.gamma})")
    return n


def _deepest_countable_level(config: EstimatorConfig) -> int:
    """The deepest level up to max_level that ``_level_size`` counts, or -1
    if none: a bisection, since the size grows with the level."""
    lo, hi = -1, config.max_level + 1   # lo counts (or is -1), hi does not (or is past)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _level_size(config, mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _count_stops(stop: np.ndarray, level: int) -> np.ndarray:
    """How many of the per-row ``stop`` rungs equal each of 0..level.

    Counts the rows at or past each rung, with no pass once none is
    left; on a chunk of small ints that is several times faster than
    ``np.bincount``, which first casts the whole array to intp.
    """
    past = [stop.size]
    for t in range(1, level + 1):
        past.append(int(np.count_nonzero(stop >= t)) if past[-1] else 0)
    past.append(0)
    return np.array([a - b for a, b in zip(past, past[1:])], dtype=np.int64)


def _fold(state: LevelState, sign: np.ndarray, stop: np.ndarray, cost: np.ndarray) -> None:
    """Add one chunk's per-row outcomes to a level's tally, histogram and cost."""
    tally = state.tally
    tally.n += sign.size
    tally.n_plus += int(np.count_nonzero(sign > 0))
    tally.n_minus += int(np.count_nonzero(sign < 0))
    state.histogram += _count_stops(stop, state.level)
    state.cost += float(cost.sum())  # the coarse solves are in it


def _extend_level(
    model: ModelContract,
    seed: int,
    state: LevelState,
    target: int,
    config: EstimatorConfig,
    pool: ThreadPoolExecutor | None,
    store: OutcomeStore | None = None,
) -> None:
    """Draw and refine samples [n_drawn, target) of one level, in chunks.

    Chunks that ``store`` covers in full are folded from it; the others
    are refined, and their rows are recorded in it.
    """
    lo, hi = state.n_drawn, target
    if hi <= lo:
        return
    level, sched, chunk = state.level, config.schedule, model.batch_chunk
    served = lo
    if store is not None:
        covered = store.covered(level)
        served = hi if hi <= covered else max(lo, lo + (covered - lo) // chunk * chunk)
        for a in range(lo, served, chunk):
            _fold(state, *store.take(level, a, min(a + chunk, served)))

    def work(bounds):
        a, b = bounds
        return sample_corrector_batch(model, seed, level, a, b, config.y, sched)

    for batch in _map_chunks(work, served, hi, chunk, pool):
        outcomes = (batch.sign, batch.stop, batch.cost_fine)
        _fold(state, *outcomes)
        if store is not None:
            store.record(level, batch.lo, outcomes)
    state.tally.check()


def _moments(levels: list[LevelState], k: float) -> list[MomentEstimates]:
    out = [level0_moments(levels[0].tally)]
    out.extend(corrector_moments(ls.tally, k) for ls in levels[1:])
    return out


def _allocation_moments(levels: list[LevelState], k: float) -> list[MomentEstimates]:
    """Moments for the allocation: level 0 gets the never-zero variance."""
    out = _moments(levels, k)
    out[0] = MomentEstimates(
        0, out[0].mean_bound, level0_allocation_variance(levels[0].tally, k)
    )
    return out


def run_mlmc_sr(
    model: ModelContract,
    config: EstimatorConfig,
    seed: int,
    threads: int = 1,
    store: OutcomeStore | None = None,
) -> RunRecord:
    """Estimate Pr(X <= y) to RMSE epsilon by the multilevel method.

    Raises NonConvergenceError (with the partial record attached) if
    the bias criterion is still unmet at config.max_level.  A ``store``
    serves the rows earlier runs of the same seed refined and records
    the rows this run refines; the record is the same without it.
    Raises ValueError if the store was made for another model, seed, y,
    gamma or q, or if a level would open with 2**63 rows or more.
    """
    if store is not None:
        store.check(model, seed, config)
    _level_size(config, 2)  # every run opens levels 0..2: refuse, undrawn, one that cannot
    levels: list[LevelState] = []
    trace: list[tuple[int, float, float]] = []
    sched = config.schedule
    converged = False
    with _worker_pool(threads) as pool:
        for L in range(config.max_level + 1):
            levels.append(LevelState(
                L, CorrectorTally(L), histogram=np.zeros(L + 1, dtype=np.int64)
            ))
            mandatory = _level_size(config, L)
            _extend_level(model, seed, levels[L], mandatory, config, pool, store)

            sizes = optimal_allocation(_allocation_moments(levels, config.k), sched,
                                       config.epsilon)
            for ls, n in zip(levels, sizes):
                _extend_level(model, seed, ls, int(n), config, pool, store)

            moments = _moments(levels, config.k)
            for ls, m in zip(levels, moments):
                ls.moments = m

            if L >= 2:
                accepted, lhs, rhs = termination_check(
                    moments[L - 1], moments[L], sched, config.epsilon)
                trace.append((L, lhs, rhs))
                if accepted:
                    converged = True
                    break

    record = RunRecord(
        config=config,
        seed=seed,
        method="mlmc-sr",
        converged=converged,
        estimate_raw=mlmc_combine([ls.tally for ls in levels]),
        per_level=levels,
        total_cost=sum(ls.cost for ls in levels),
        termination_trace=trace,
    )
    if not converged:
        raise NonConvergenceError(record)
    return record


# ---------------------------------------------------------------------------
# single-level baseline
# ---------------------------------------------------------------------------

def _solve_rows(model, seed, level, y, tolerances, bounds):
    """Draw rows a..b-1 of a level once and solve them all fully at each
    of ``tolerances``: one (indicators, works) pair per tolerance.

    Every solve passes tol_index = ``level``, whatever its tolerance.
    The index picks a model's solver noise (the synthetic model couples
    a pilot's fine and coarse noise through it on purpose), so an index
    per tolerance would change the records: seed 4's q=1 run at epsilon
    0.003 would stop at level 7 instead of 6.
    """
    a, b = bounds
    batch = model.draw_batch(seed, level, a, b)
    every = np.arange(b - a, dtype=np.int64)
    solved = (model.solve_batch(batch, every, tol, level) for tol in tolerances)
    return [(v <= y, w) for v, w in solved]


def run_mc_baseline(
    model: ModelContract,
    config: EstimatorConfig,
    seed: int,
    threads: int = 1,
    store: OutcomeStore | None = None,
) -> RunRecord:
    """Single-level Monte Carlo comparison run.

    A pilot walks down the ladder until the estimated remaining bias
    fits epsilon/sqrt(2); plain MC then runs at that one level with a
    sample size meeting the variance half of the budget.  Every solve
    is a full solve; a pilot level L solves each row at gamma**L and at
    gamma**(L-1), and both solves pass tol_index L, as the main phase's
    do.  The pilot draws in chunks, and a pilot that could not meet the
    threshold even at ``max_level`` (or at the deepest level short of
    2**63 rows) fails before it draws anything.  The record's single
    level entry's tally counts the hits in ``n_plus`` (there are no
    correctors in this method); the termination trace holds the
    pilot's (level, bias_bound, threshold) rows.

    A ``store`` keeps each pilot level's sums: a pilot level is the
    same realizations solved at the same tolerances for every epsilon,
    so a later run of the seed reads them instead of drawing and
    solving the level again; the record is the same without it.
    Raises ValueError if the store was made for another model, seed, y,
    gamma or q, or if a pilot level would need 2**63 rows or more.
    """
    if store is not None:
        store.check(model, seed, config)
    pilots = {} if store is None else store.pilots
    sched, chunk = config.schedule, model.batch_chunk
    threshold = config.epsilon / math.sqrt(2.0)
    trace: list[tuple[int, float, float]] = []
    # A pilot tally of n rows has a mean bound of at least k / (n + k), by
    # the float operations of corrector_moments and bias_bound, and n grows
    # with the level: no pilot level's bias bound falls below that of the
    # deepest level the pilot can count, for _level_size refuses any level
    # past it.  A pilot that cannot get under the threshold fails before it
    # draws.
    last = _deepest_countable_level(config)
    n_last = _level_size(config, last) if last >= 1 else math.inf  # inf: no floor
    floor = config.k / (n_last + config.k) / (1.0 / config.gamma - 1.0)
    pilot_levels = range(1, config.max_level + 1) if floor < threshold else ()

    pilot_cost = 0.0
    with _worker_pool(threads) as pool:
        for L in pilot_levels:
            n_pilot = _level_size(config, L)
            if (L, n_pilot) not in pilots:
                solve = partial(_solve_rows, model, seed, L, config.y,
                                (sched.tolerance(L), sched.tolerance(L - 1)))
                sums = [0, 0, 0, 0.0, 0.0]  # n_plus, n_minus, hits, fine and coarse cost
                for (qf, wf), (qc, wc) in _map_chunks(solve, 0, n_pilot, chunk, pool):
                    sums = [a + b for a, b in zip(sums, (
                        int(np.count_nonzero(qf > qc)), int(np.count_nonzero(qf < qc)),
                        int(np.count_nonzero(qf)), float(wf.sum()), float(wc.sum())))]
                pilots[L, n_pilot] = tuple(sums)
            n_plus, n_minus, n_hits, fine_cost, coarse_cost = pilots[L, n_pilot]
            tally = CorrectorTally(L, n=n_pilot, n_plus=n_plus, n_minus=n_minus)
            pilot_cost += coarse_cost
            bias = bias_bound(corrector_moments(tally, config.k), config.gamma)
            trace.append((L, bias, threshold))
            if bias < threshold:
                break
            pilot_cost += fine_cost
        else:
            raise NonConvergenceError(RunRecord(config, seed, "mc", False, math.nan, [],
                                                pilot_cost, trace))

        p_hat = n_hits / n_pilot
        s2 = n_pilot / (n_pilot - 1) * p_hat * (1.0 - p_hat) if n_pilot > 1 else 0.0
        n_mc = max(n_pilot, math.ceil(2.0 * s2 / config.epsilon ** 2))
        hits = CorrectorTally(L, n=n_pilot, n_plus=n_hits)
        state = LevelState(L, hits, MomentEstimates(L, p_hat, s2),
                           np.zeros(L + 1, dtype=np.int64), fine_cost)
        solve = partial(_solve_rows, model, seed, L, config.y, (sched.tolerance(L),))
        for ((q, w),) in _map_chunks(solve, n_pilot, n_mc, chunk, pool):
            hits.n += q.size
            hits.n_plus += int(np.count_nonzero(q))
            state.cost += float(w.sum())
    hits.check()
    state.histogram[L] = n_mc
    return RunRecord(config, seed, "mc", True, hits.n_plus / n_mc, [state],
                     pilot_cost + state.cost, trace)
