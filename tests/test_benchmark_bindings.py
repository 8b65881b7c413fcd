"""The benchmark's tracer (perfbench/tracing.py) finds every package
binding it wraps, sees a span from every layer the runs go through, and
puts the originals back afterwards."""

import importlib.util
from pathlib import Path

from mlmcsr import driver, experiment, models
from mlmcsr.estimators import EstimatorConfig
from mlmcsr.experiment import ExperimentConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    owners = (driver, experiment, models,
              models.SyntheticNormalModel, models.EllipticFlux1D)
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_tracing().Tracer()
    try:
        tracer.install(full=True)  # a KeyError names a binding that is gone
        assert driver.sample_corrector_batch is not before[0]["sample_corrector_batch"]
        assert vars(models.EllipticFlux1D)["draw_batch"] is not before[4]["draw_batch"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_sees_every_layer_the_runs_call():
    # a run that calls around a wrapped name (an allocation computed
    # inline, a stream called through another module) would leave its
    # layer's per-layer metrics at zero
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(full=True)
        driver.run_mlmc_sr(models.SyntheticNormalModel(q=2.0),
                           EstimatorConfig(y=0.8, epsilon=0.05, q=2.0), 100_000)
        experiment.run_experiment(ExperimentConfig(
            model_name="synthetic-normal", q=2.0, y=0.8, epsilons=[0.1], runs=4,
            seed=100_000, method="mc", threads=2))
    finally:
        tracer.uninstall()
    spans, records = tracer.collect()
    names = {span[2] for span in spans}
    expected = {
        "refinement.sample_corrector_batch", "models.draw_batch", "models.solve_batch",
        "streams.normal_at", "streams.uniform_at",
        *(f"estimators.{fn}" for fn in tracing._ESTIMATOR_FUNCTIONS),
    }
    assert expected <= names, sorted(expected - names)
    assert [r.method for r in records] == ["mlmc-sr"] + ["mc"] * 4


def test_tracer_times_every_run_of_a_store_backed_grid():
    # an mlmc-sr grid of two epsilons shares one outcome store per seed; its
    # runs must still go through the binding the benchmark times
    tracer = load_tracing().Tracer()
    try:
        tracer.install(full=False)
        experiment.run_experiment(ExperimentConfig(
            model_name="synthetic-normal", q=2.0, y=0.8, epsilons=[0.1, 0.05], runs=3,
            seed=100_000, threads=2))
    finally:
        tracer.uninstall()
    spans, records = tracer.collect()
    assert sum(span[2] == "driver.run_mlmc_sr" for span in spans) == 6
    assert sorted((r.config.epsilon, r.seed) for r in records) == [
        (e, s) for e in (0.05, 0.1) for s in (100_000, 100_001, 100_002)]
