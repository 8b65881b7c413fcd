"""The benchmark's tracer (perfbench/tracing.py) finds every package
binding it wraps and puts the originals back afterwards."""

import importlib.util
from pathlib import Path

from mlmcsr import driver, experiment, models

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
