"""Spans around the package's layer boundaries, recorded from outside ``src/``.

The package binds names with ``from .x import y``, so each wrapper
replaces the binding at the call site: ``mlmcsr.models.normal_at`` (not
``mlmcsr.streams.normal_at``), ``mlmcsr.driver.sample_corrector_batch``
and the estimator functions bound in ``mlmcsr.driver``, and the runners
bound in ``mlmcsr.experiment``.  Model hooks are wrapped on the class,
because ``run_experiment`` builds its own model instance.

A span is ``(id, parent, name, start, end, run, count)``.  ``count`` is
the work the call was handed: draws for a stream call, realizations
for ``draw_batch``, solves for ``solve_batch``, samples for the
refinement kernel, and threads for ``run_experiment``.  Spans opened
on a pool thread with nothing open on that thread take the main thread's innermost open span as parent, so
``run_experiment``'s runners are its children even when they run in
parallel; self time therefore subtracts the union of the children's
intervals, found by parent id.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "layer_metrics", "PER_LAYER"]

Span = tuple  # (id, parent, name, start, end, run, count)

# name -> unit; the order is the order they are printed in
PER_LAYER = {
    "streams.normal_at.calls": "count",
    "streams.normal_at.ns_per_draw": "ns",
    "streams.uniform_at.calls": "count",
    "streams.uniform_at.ns_per_draw": "ns",
    "streams.busy_share": "ratio",
    "models.init_s": "s",
    "models.draw_batch.calls": "count",
    "models.draw_batch.us_per_realization": "us",
    "models.solve_batch.calls": "count",
    "models.solve_batch.ns_per_solve": "ns",
    "models.busy_share": "ratio",
    "refinement.calls": "count",
    "refinement.samples_per_call": "count",
    "refinement.ns_per_sample": "ns",
    "refinement.solves_per_sample": "ratio",
    "refinement.busy_share": "ratio",
    "estimators.calls": "count",
    "estimators.us_per_call": "us",
    "estimators.busy_share": "ratio",
    "driver.self_share": "ratio",
    "driver.levels_per_run": "count",
    "driver.var_budget_used": "ratio",
    "driver.bias_budget_used": "ratio",
    "experiment.self_s": "s",
    "experiment.io_s": "s",
    "experiment.parallel_efficiency": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

ROOT_SPAN = "bench.pass"
_ESTIMATOR_FUNCTIONS = (
    "corrector_moments", "level0_allocation_variance", "level0_moments",
    "mlmc_combine", "bias_bound", "optimal_allocation", "termination_check",
)


def _draws(args):
    return len(args[1])          # normal_at / uniform_at(key, counters)


def _index_range(args):
    return args[4] - args[3]     # draw_batch(self, seed, level, lo, hi) and
                                 # sample_corrector_batch(model, seed, level, lo, hi, ...)


def _selected(args):
    return len(args[2])          # solve_batch(self, batch, sel, tol, tol_index)


def _threads(args):
    return args[0].threads       # run_experiment(config)


def _targets(runners_only: bool):
    """(owner, attribute, span name, count function, is a runner)."""
    from mlmcsr import driver, experiment, models

    targets = [
        (driver, "run_mlmc_sr", "driver.run_mlmc_sr", None, True),
        (experiment, "run_mlmc_sr", "driver.run_mlmc_sr", None, True),
        (experiment, "run_mc_baseline", "driver.run_mc_baseline", None, True),
    ]
    if runners_only:
        return targets
    targets += [
        (models, "normal_at", "streams.normal_at", _draws, False),
        (models, "uniform_at", "streams.uniform_at", _draws, False),
        (driver, "sample_corrector_batch", "refinement.sample_corrector_batch",
         _index_range, False),
        (experiment, "run_experiment", "experiment.run_experiment", _threads, False),
        (experiment, "write_runs_csv", "experiment.io.write_runs_csv", None, False),
        (experiment, "write_summary_csv", "experiment.io.write_summary_csv", None, False),
        (experiment, "emit_histogram", "experiment.io.emit_histogram", None, False),
    ]
    targets += [(driver, fn, f"estimators.{fn}", None, False)
                for fn in _ESTIMATOR_FUNCTIONS]
    for cls in (models.SyntheticNormalModel, models.EllipticFlux1D):
        targets += [
            (cls, "__init__", "models.init", None, False),
            (cls, "draw_batch", "models.draw_batch", _index_range, False),
            (cls, "solve_batch", "models.solve_batch", _selected, False),
        ]
    return targets


class Tracer:
    """Installs span-recording wrappers and collects spans and run records.

    ``install(full=False)`` wraps only the estimator runs, which is what
    the untraced benchmark needs for per-run times and records;
    ``full=True`` wraps every layer boundary.  Spans and records stay in
    memory until ``collect``.  Create the tracer on the main thread.
    """

    def __init__(self) -> None:
        from mlmcsr.driver import NonConvergenceError

        self._nonconvergence = NonConvergenceError
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._local.stack = self._main_stack
        self.spans: list[Span] = []
        self.records: list = []

    # -- installing -----------------------------------------------------------

    def install(self, full: bool) -> None:
        for owner, attr, name, count, runner in _targets(runners_only=not full):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, runner))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self) -> tuple[list[Span], list]:
        """Spans and run records since the last collect, and a fresh start."""
        spans, records = self.spans, self.records
        self.spans, self.records = [], []
        return spans, records

    # -- recording ------------------------------------------------------------

    def _open(self, runner: bool):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        top = stack or self._main_stack
        parent, run = top[-1] if top else (0, 0)
        sid = next(self._ids)
        if runner:
            run = sid
        stack.append((sid, run))
        return stack, sid, parent, run

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one pass."""
        stack, sid, parent, run = self._open(False)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, run, 0))

    def _wrap(self, fn, name, count, runner):
        clock = time.perf_counter
        nonconvergence = self._nonconvergence

        def wrapper(*args, **kwargs):
            stack, sid, parent, run = self._open(runner)
            n = count(args) if count is not None else 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except nonconvergence as exc:
                result = exc.record  # a failed run still counts, with its partial record
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, run, n))
                if runner and result is not None:
                    self.records.append(result)

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, t0, t1, _, _ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(children.get(sid, []), t0, t1)
            for sid, _, _, t0, t1, _, _ in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[list[Span]], records: list, init_spans: list[Span],
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics over the traced passes; counts are per pass.

    ``init_spans`` are model constructions traced during set-up, which
    the passes of workloads that build their model once do not repeat.
    Shares are of the summed self time of all spans, which on one thread
    is the traced wall.
    """
    k = len(passes)
    self_by = defaultdict(float)     # span name -> self time
    calls = defaultdict(int)         # span name -> calls
    work = defaultdict(int)          # span name -> summed count
    refine_solves = 0
    pooled_busy = pooled_capacity = 0.0   # over run_experiment calls with threads > 1
    for spans in passes:
        st = self_times(spans)
        names = {s[0]: s[2] for s in spans}
        pooled = {s[0]: s[6] > 1 for s in spans if s[2] == "experiment.run_experiment"}
        for sid, parent, name, t0, t1, _, n in spans:
            self_by[name] += st[sid]
            calls[name] += 1
            work[name] += n
            parent_name = names.get(parent, "")
            if name == "models.solve_batch" and parent_name.startswith("refinement."):
                refine_solves += n
            if name.startswith("driver.") and pooled.get(parent):
                pooled_busy += t1 - t0
            if name == "experiment.run_experiment" and n > 1:
                pooled_capacity += n * (t1 - t0)

    def layer(prefix):
        return [n for n in self_by if n.startswith(prefix + ".")]

    def layer_self(prefix):
        return sum(self_by[n] for n in layer(prefix))

    def layer_calls(prefix):
        return sum(calls[n] for n in layer(prefix))

    inits = [s[4] - s[3] for spans in [init_spans, *passes] for s in spans
             if s[2] == "models.init"]
    busy = sum(self_by.values())
    named = busy - self_by.get(ROOT_SPAN, 0.0)
    refine = "refinement.sample_corrector_batch"

    levels = [len(r.per_level) for r in records]
    var_used, bias_used = [], []
    for r in records:
        budget = r.config.epsilon ** 2 / 2.0
        v = sum(ls.moments.var_bound / ls.n_drawn for ls in r.per_level
                if ls.moments is not None and ls.n_drawn > 0)
        var_used.append(v / budget)
        if r.termination_trace:
            _, lhs, rhs = r.termination_trace[-1]
            bias_used.append(lhs / rhs)

    return {
        "streams.normal_at.calls": calls["streams.normal_at"] / k,
        "streams.normal_at.ns_per_draw":
            1e9 * _ratio(self_by["streams.normal_at"], work["streams.normal_at"]),
        "streams.uniform_at.calls": calls["streams.uniform_at"] / k,
        "streams.uniform_at.ns_per_draw":
            1e9 * _ratio(self_by["streams.uniform_at"], work["streams.uniform_at"]),
        "streams.busy_share": _ratio(layer_self("streams"), busy),
        "models.init_s": statistics.median(inits) if inits else 0.0,
        "models.draw_batch.calls": calls["models.draw_batch"] / k,
        "models.draw_batch.us_per_realization":
            1e6 * _ratio(self_by["models.draw_batch"], work["models.draw_batch"]),
        "models.solve_batch.calls": calls["models.solve_batch"] / k,
        "models.solve_batch.ns_per_solve":
            1e9 * _ratio(self_by["models.solve_batch"], work["models.solve_batch"]),
        "models.busy_share": _ratio(layer_self("models"), busy),
        "refinement.calls": calls[refine] / k,
        "refinement.samples_per_call": _ratio(work[refine], calls[refine]),
        "refinement.ns_per_sample": 1e9 * _ratio(self_by[refine], work[refine]),
        "refinement.solves_per_sample": _ratio(refine_solves, work[refine]),
        "refinement.busy_share": _ratio(layer_self("refinement"), busy),
        "estimators.calls": layer_calls("estimators") / k,
        "estimators.us_per_call":
            1e6 * _ratio(layer_self("estimators"), layer_calls("estimators")),
        "estimators.busy_share": _ratio(layer_self("estimators"), busy),
        "driver.self_share": _ratio(layer_self("driver"), busy),
        "driver.levels_per_run": statistics.fmean(levels) if levels else 0.0,
        "driver.var_budget_used": statistics.fmean(var_used) if var_used else 0.0,
        "driver.bias_budget_used": statistics.fmean(bias_used) if bias_used else 0.0,
        "experiment.self_s": self_by["experiment.run_experiment"] / k,
        "experiment.io_s": layer_self("experiment.io") / k,
        "experiment.parallel_efficiency": _ratio(pooled_busy, pooled_capacity),
        "trace.coverage": _ratio(named, busy),
        "trace.overhead_frac": overhead_frac,
    }
