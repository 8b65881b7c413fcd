"""Experiment engine: config handling, CSV round-trips, rate arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mlmcsr import driver, experiment
from mlmcsr.driver import NonConvergenceError, RunRecord, run_mlmc_sr
from mlmcsr.estimators import EstimatorConfig, InsufficientSamplesError
from mlmcsr.experiment import (
    _run_row,
    ConfigError,
    ExperimentConfig,
    emit_histogram,
    fit_cost_slope,
    read_runs_csv,
    read_summary_csv,
    run_experiment,
    summarize_runs,
    theoretical_cost,
    write_runs_csv,
    write_summary_csv,
)
from mlmcsr.models import MODELS, SyntheticNormalModel


class OpaqueConstant:
    """Deterministic far-from-y model with no closed-form probability."""

    name = "constant-opaque"
    batch_chunk = 1 << 16

    def __init__(self, value=-3.0):
        self.value = float(value)

    def draw_batch(self, seed, level, lo, hi):
        return hi - lo

    def work_units(self, tolerance):
        return 1.0 / tolerance

    def solve_batch(self, batch, sel, tolerance, tol_index):
        n = len(sel)
        return np.full(n, self.value), np.full(n, self.work_units(tolerance))


class RegisteredConstant(OpaqueConstant):
    """Same, but the truth is available for RMSE."""

    name = "constant-test"

    def exact_probability(self, y):
        return 1.0 if self.value <= y else 0.0


def small_config(**overrides):
    base = dict(model_name="synthetic-normal", epsilons=[0.1], runs=4,
                y=0.8, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_json_round_trip():
    cfg = small_config(epsilons=[0.1, 0.05], q=2.0, method="mc",
                       model_params={"b": 0.2}, reference_p=0.5)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_keeps_epsilons_as_a_list_of_floats():
    cfg = small_config(epsilons=(np.float64(0.1), 1))
    assert cfg.epsilons == [0.1, 1.0]
    assert [type(e) for e in cfg.epsilons] == [float, float]
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("mutation, fragment", [
    (dict(epsilons=[]), "nonempty"),
    (dict(epsilons=[0.1, -0.1]), "positive"),
    (dict(runs=0), "runs"),
    (dict(method="smc"), "method"),
    (dict(threads=0), "threads"),
    (dict(gamma=1.5), "gamma"),
    (dict(epsilons=[0.1, float("nan")]), "finite"),
    (dict(epsilons=[float("inf")]), "finite"),
    (dict(y=float("nan")), "y must be finite"),
    (dict(k=float("inf")), "k must be finite"),
    (dict(reference_p=float("nan")), "reference_p"),
    (dict(output_dir=5), "output_dir"),
    (dict(runs=2.5), "runs must be an integer"),
    (dict(seed=1.5), "seed must be an integer"),
    (dict(threads=1.5), "threads must be an integer"),
    (dict(threads=True), "threads must be an integer"),
    (dict(N=2.5), "N must be an integer"),
    (dict(max_level=7.5), "max_level must be an integer"),
    (dict(model_name=["x"]), "model_name must be a string"),
    (dict(model_params=5), "model_params must be a dict"),
    (dict(model_params=[1]), "model_params must be a dict"),
    (dict(epsilons=[True]), "epsilons must be finite"),
    (dict(epsilons=[0.1, np.True_]), "epsilons must be finite"),
    (dict(y=True), "y must be finite"),
    (dict(k=True), "k must be finite"),
    (dict(q=True), "q must be finite"),
    (dict(gamma=False), "gamma"),
    (dict(reference_p=True), "reference_p"),
    (dict(epsilons=0.1), "epsilons must be a nonempty list"),
    (dict(epsilons=np.array([0.1, 0.05])), "epsilons must be a nonempty list"),
    (dict(epsilons={0.1: 1}), "epsilons must be a nonempty list"),
])
def test_config_validation(mutation, fragment):
    with pytest.raises(ConfigError, match=fragment):
        small_config(**mutation)


@pytest.mark.parametrize("text, fragment", [
    ("{not json", "valid JSON"),
    ("[1, 2]", "JSON object"),
    ('{"model": "synthetic-normal"}', "model"),
    ('{"model": {"name": "synthetic-normal"}, "y": 0.8, "epsilons": [0.1], '
     '"runs": 1, "bogus": 1}', "bogus"),
    ('{"model": {"name": "synthetic-normal"}, "epsilons": [0.1], "runs": 1}',
     "y"),
    ('{"model": {"name": ["x"], "params": {}}, "y": 0.8, "epsilons": [0.1], '
     '"runs": 1}', "model_name must be a string"),
    ('{"model": {"name": "synthetic-normal", "params": 5}, "y": 0.8, '
     '"epsilons": [0.1], "runs": 1}', "model_params must be a dict"),
    ('{"model_name": "synthetic-normal", "model_params": [1], "y": 0.8, '
     '"epsilons": [0.1], "runs": 1}', "model_params must be a dict"),
])
def test_config_from_json_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_json(text)


def test_synthetic_model_inherits_schedule_q():
    assert small_config(q=2.0).build_model().q == 2.0
    explicit = small_config(q=2.0, model_params={"q": 3.0})
    assert explicit.build_model().q == 3.0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_theoretical_cost_reference_points():
    assert theoretical_cost("mc", 2.0, 0.1) == pytest.approx(1e4)
    assert theoretical_cost("mlmc", 3.0, 0.1) == pytest.approx(1e4)
    assert theoretical_cost("mlmc-sr", 3.0, 0.1) == pytest.approx(1e3)
    log2 = math.log(10.0) ** 2
    assert theoretical_cost("mlmc", 1.0, 0.1) == pytest.approx(100.0 * log2)
    assert theoretical_cost("mlmc-sr", 2.0, 0.1) == pytest.approx(100.0 * log2)
    assert theoretical_cost("mlmc", 0.5, 0.1) == pytest.approx(100.0)
    assert theoretical_cost("mlmc-sr", 1.9, 0.1) == pytest.approx(100.0)


def test_theoretical_cost_power_law_scaling():
    # doubling 1/eps scales pure power laws by exactly 2**power
    for method, q, power in [("mc", 2.0, 4.0), ("mlmc", 3.0, 4.0),
                             ("mlmc-sr", 3.0, 3.0), ("mlmc-sr", 0.5, 2.0)]:
        ratio = theoretical_cost(method, q, 0.05) / theoretical_cost(method, q, 0.1)
        assert ratio == pytest.approx(2.0 ** power, rel=1e-12)


def test_theoretical_cost_rejects():
    with pytest.raises(ValueError):
        theoretical_cost("qmc", 1.0, 0.1)
    with pytest.raises(ValueError):
        theoretical_cost("mc", -1.0, 0.1)
    with pytest.raises(ValueError):
        theoretical_cost("mc", 1.0, 0.0)


def test_theoretical_cost_rejects_non_finite_and_overflowing_inputs():
    nan, inf = float("nan"), float("inf")
    for q, epsilon, name in ((nan, 0.1, "q"), (inf, 0.1, "q"), (-inf, 0.1, "q"),
                             (1.0, nan, "epsilon"), (1.0, inf, "epsilon")):
        for method in ("mc", "mlmc", "mlmc-sr"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                theoretical_cost(method, q, epsilon)
    # a power beyond the float range (OverflowError), and a finite power
    # whose product with the log factor is inf
    for method, q, epsilon in (("mc", 1.0, 1e-320), ("mlmc-sr", 3.0, 1e-200),
                               ("mlmc", 1.0, 1e-154), ("mc", 1e6, 0.5)):
        with pytest.raises(ValueError, match="overflows"):
            theoretical_cost(method, q, epsilon)
    assert theoretical_cost("mlmc-sr", 1.0, 1e-150) == pytest.approx(1e300)


def test_fit_cost_slope_exact_power_law():
    eps = np.logspace(-3, -1, 8)
    fit = fit_cost_slope([(e, 20.0 * e ** -2) for e in eps], q=1.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.compensated_slope is None
    assert not fit.log_corrected


def test_fit_cost_slope_log_corrected_at_q2():
    eps = np.logspace(-3, -1, 8)
    rows = [(e, 2.0 * math.log(1 / e) ** 2 * e ** -2) for e in eps]
    fit = fit_cost_slope(rows, q=2.0)
    assert fit.log_corrected
    assert fit.compensated_slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.slope < -2.0  # raw slope is steepened by the log factor


def test_fit_cost_slope_needs_four_points():
    with pytest.raises(InsufficientSamplesError):
        fit_cost_slope([(0.1, 1.0), (0.05, 4.0), (0.025, 16.0)], q=1.0)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_single_run_deterministic_model_has_zero_rmse(monkeypatch, tmp_path):
    monkeypatch.setitem(MODELS, RegisteredConstant.name, RegisteredConstant)
    cfg = ExperimentConfig(model_name=RegisteredConstant.name, epsilons=[0.1],
                           runs=1, y=0.8, output_dir=str(tmp_path / "out"))
    report = run_experiment(cfg)
    assert report.reference == 1.0
    assert report.summaries[0].rmse == 0.0
    assert report.rows[0].estimate_raw == 1.0
    # far from y: nothing refines, so only the j = 0 histogram row fills
    hist = report.histograms[0]
    assert np.all(hist[1:] == 0.0)
    assert np.all(hist[0] > 0.0)


def test_missing_reference_warns_and_yields_nan(monkeypatch):
    monkeypatch.setitem(MODELS, OpaqueConstant.name, OpaqueConstant)
    cfg = ExperimentConfig(model_name=OpaqueConstant.name, epsilons=[0.1],
                           runs=1, y=0.8)
    with pytest.warns(UserWarning, match="reference_p"):
        report = run_experiment(cfg)
    assert math.isnan(report.summaries[0].rmse)
    assert math.isnan(report.rows[0].abs_error)
    assert math.isfinite(report.summaries[0].mean_cost)


def test_reference_p_overrides_missing_exact_probability(monkeypatch):
    monkeypatch.setitem(MODELS, OpaqueConstant.name, OpaqueConstant)
    cfg = ExperimentConfig(model_name=OpaqueConstant.name, epsilons=[0.1],
                           runs=1, y=0.8, reference_p=0.75)
    report = run_experiment(cfg)
    assert report.reference == 0.75
    assert report.rows[0].abs_error == 0.25


def test_seed_isolation_from_experiment_context():
    cfg = small_config(epsilons=[0.1, 0.05], runs=5, seed=100)
    report = run_experiment(cfg)
    model = SyntheticNormalModel(q=1.0)
    for row in report.rows:
        ecfg = cfg.estimator_config(row.epsilon)
        solo = run_mlmc_sr(model, ecfg, seed=100 + row.run_id)
        assert solo.estimate_raw == row.estimate_raw
        assert solo.total_cost == row.total_cost


def solo_report(model, cfg, reference, runner=run_mlmc_sr):
    """Rows, summaries and histograms of ``cfg`` from one store-less run per (epsilon, seed)."""
    rows, summaries, histograms = [], [], []
    for epsilon in cfg.epsilons:
        records = [runner(model, cfg.estimator_config(epsilon), cfg.seed + i)
                   for i in range(cfg.runs)]
        group = [_run_row(rec, i, reference) for i, rec in enumerate(records)]
        rows += group
        summaries.append(summarize_runs(group))
        histograms.append(emit_histogram(records))
    return rows, summaries, histograms


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_seed_major_grid_equals_solo_runs(q, order, threads):
    # each seed's runs share one outcome store; every row, summary and
    # histogram must still equal a run made on its own
    epsilons = [0.02, 0.05, 0.1] if order == "ascending" else [0.1, 0.05, 0.02]
    cfg = small_config(q=q, epsilons=epsilons, runs=4, seed=200, threads=threads)
    report = run_experiment(cfg)
    rows, summaries, histograms = solo_report(SyntheticNormalModel(q=q), cfg,
                                              report.reference)
    assert report.rows == rows
    assert report.summaries == summaries
    for a, b in zip(report.histograms, histograms):
        np.testing.assert_array_equal(a, b)


def test_seed_major_elliptic_grid_equals_solo_runs():
    cfg = ExperimentConfig(model_name="elliptic-flux-1d", model_params={"master_cells": 64},
                           epsilons=[0.05, 0.02], runs=3, y=0.99, seed=40, reference_p=0.8)
    report = run_experiment(cfg)
    rows, summaries, histograms = solo_report(cfg.build_model(), cfg, report.reference)
    assert report.rows == rows
    assert report.summaries == summaries
    for a, b in zip(report.histograms, histograms):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_mc_grid_shares_pilot_levels_and_equals_solo_runs(monkeypatch, order, threads):
    # a seed's mc runs read each pilot level from the first run that drew it
    epsilons = [0.02, 0.05, 0.1] if order == "ascending" else [0.1, 0.05, 0.02]
    cfg = small_config(q=2.0, epsilons=epsilons, runs=3, seed=300, threads=threads,
                       method="mc")
    draws = []
    draw = SyntheticNormalModel.draw_batch

    def counting(self, seed, level, lo, hi):
        draws.append((seed, level, lo, hi))
        return draw(self, seed, level, lo, hi)

    monkeypatch.setattr(SyntheticNormalModel, "draw_batch", counting)
    report = run_experiment(cfg)
    pilot_draws = [d for d in draws if d[2] == 0]
    assert len(pilot_draws) == len(set(pilot_draws))
    rows, summaries, histograms = solo_report(SyntheticNormalModel(q=2.0), cfg,
                                              report.reference, driver.run_mc_baseline)
    assert report.rows == rows
    assert report.summaries == summaries
    for a, b in zip(report.histograms, histograms):
        np.testing.assert_array_equal(a, b)


def test_each_seed_refines_a_realization_once(monkeypatch):
    # the second run at the same epsilon is served whole from its seed's store
    calls = []
    kernel = driver.sample_corrector_batch

    def counting(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(driver, "sample_corrector_batch", counting)
    once = run_experiment(small_config(epsilons=[0.05], runs=3, threads=2))
    n_once = len(calls)
    twice = run_experiment(small_config(epsilons=[0.05, 0.05], runs=3, threads=2))
    assert len(calls) == 2 * n_once
    assert twice.rows[:3] == twice.rows[3:] == once.rows


def test_first_failing_seed_raises_and_writes_no_file(monkeypatch, tmp_path):
    failing = {101, 103}
    real = experiment.run_mlmc_sr

    def run(model, config, seed, **kwargs):
        if seed in failing:
            raise NonConvergenceError(RunRecord(config, seed, "mlmc-sr", False, math.nan,
                                                [], 0.0, []))
        return real(model, config, seed, **kwargs)

    monkeypatch.setattr(experiment, "run_mlmc_sr", run)
    cfg = small_config(epsilons=[0.1, 0.05], runs=4, seed=100, threads=2,
                       output_dir=str(tmp_path / "out"))
    with pytest.raises(NonConvergenceError) as info:
        run_experiment(cfg)
    assert info.value.record.seed == 101
    assert not (tmp_path / "out").exists()


def test_numpy_integer_seed_equals_int_seed(tmp_path):
    cfg = small_config(epsilons=[0.1, 0.05], runs=3, seed=np.int64(3),
                       output_dir=str(tmp_path / "out"))
    report = run_experiment(cfg)
    plain = run_experiment(small_config(epsilons=[0.1, 0.05], runs=3, seed=3))
    assert report.rows == plain.rows
    assert report.summaries == plain.summaries
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_thread_count_does_not_change_report():
    one = run_experiment(small_config(runs=6))
    many = run_experiment(small_config(runs=6, threads=3))
    assert one.rows == many.rows
    assert one.summaries == many.summaries


def test_pooled_runs_share_one_model_like_a_single_thread():
    # two runs at once on one model object, for both methods, and twice in
    # a row: every row and summary equals the one-thread report
    for method in ("mc", "mlmc-sr"):
        cfg = small_config(model_name="synthetic-normal", q=2.0, runs=32, method=method,
                           epsilons=[0.1, 0.046415888336127774], seed=100_000)
        one = run_experiment(cfg)
        for _ in range(2):
            two = run_experiment(replace(cfg, threads=2))
            assert two.rows == one.rows
            assert two.summaries == one.summaries
            for a, b in zip(two.histograms, one.histograms):
                np.testing.assert_array_equal(a, b)


def test_csv_round_trip_is_bit_exact(tmp_path):
    cfg = small_config(epsilons=[0.1, 0.07], runs=5,
                       output_dir=str(tmp_path / "out"))
    report = run_experiment(cfg)
    out = tmp_path / "out"
    parsed_rows = read_runs_csv(out / "runs.csv")
    assert parsed_rows == report.rows
    parsed_summaries = read_summary_csv(out / "summary.csv")
    assert parsed_summaries == report.summaries
    # recomputing the summaries from the parsed rows reproduces them bitwise
    for eps, summary in zip(cfg.epsilons, parsed_summaries):
        group = [r for r in parsed_rows if r.epsilon == eps]
        assert summarize_runs(group) == summary


def test_runs_csv_pads_shorter_runs(tmp_path):
    for method in ("mlmc-sr", "mc"):
        out = tmp_path / method
        cfg = small_config(epsilons=[0.05], runs=8, method=method, output_dir=str(out))
        report = run_experiment(cfg)
        assert len({r.final_L for r in report.rows}) > 1  # rows of unequal width
        parsed = read_runs_csv(out / "runs.csv")
        assert parsed == report.rows
        for row in parsed:
            assert len(row.n_per_level) == row.final_L + 1
        lines = (out / "runs.csv").read_text().splitlines()[1:]
        assert len({len(line.split(",")) for line in lines}) == 1  # no ragged line
    # an mc run's n sits under its own level, with zeros below, and its
    # stop counts sit in its own level's histogram column
    hist = report.histograms[0]
    for row in report.rows:
        assert row.n_per_level == [0] * row.final_L + [row.n_per_level[-1]]
    for level in range(hist.shape[1]):
        stopped = [r.n_per_level[-1] for r in report.rows if r.final_L == level]
        assert hist[:, level].sum() == sum(stopped) / len(report.rows)


def test_schema_line_is_enforced(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text("run_id,epsilon\n0,0.1\n")
    with pytest.raises(ConfigError, match="schema"):
        read_runs_csv(path)


def test_summarize_runs_needs_rows():
    with pytest.raises(InsufficientSamplesError):
        summarize_runs([])


# ---------------------------------------------------------------------------
# histogram aggregation
# ---------------------------------------------------------------------------

def test_histogram_mean_column_sums_match_mean_sizes():
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=0.8, epsilon=0.05)
    records = [run_mlmc_sr(model, cfg, seed=s) for s in range(6)]
    mean = emit_histogram(records)
    levels = mean.shape[1]
    sizes = np.zeros(levels)
    for rec in records:
        sizes[: len(rec.n_drawn)] += rec.n_drawn
    assert np.allclose(mean.sum(axis=0), sizes / len(records))


def test_histogram_occupancy_decays_with_stop_index():
    # later stop indices hold fewer realizations; checked only where the
    # mean count is large enough to be statistically meaningful
    model = SyntheticNormalModel(q=2.0)
    cfg = EstimatorConfig(y=0.8, epsilon=1e-2, q=2.0)
    records = [run_mlmc_sr(model, cfg, seed=s) for s in range(100)]
    mean = emit_histogram(records)
    pairs = violations = 0
    for col in range(mean.shape[1]):
        support = mean[1: col + 1, col]
        for a, b in zip(support, support[1:]):
            if a >= 5.0:
                pairs += 1
                violations += bool(b >= a)
    assert pairs >= 10
    assert violations <= 0.1 * pairs


def test_histogram_csv_write(tmp_path):
    model = SyntheticNormalModel(q=1.0)
    cfg = EstimatorConfig(y=0.8, epsilon=0.1)
    records = [run_mlmc_sr(model, cfg, seed=s) for s in range(3)]
    path = tmp_path / "hist.csv"
    mean = emit_histogram(records, path)
    text = path.read_text().splitlines()
    assert text[0] == "# mlmcsr-csv 1"
    assert text[1].startswith("j,L0,L1")
    assert len(text) == 2 + mean.shape[0]


def test_emit_histogram_needs_records():
    with pytest.raises(InsufficientSamplesError):
        emit_histogram([])
