"""Failure-probability estimation by multilevel Monte Carlo with
selective refinement.

The package estimates p = Pr(X <= y) for a scalar quantity of interest
that can only be computed approximately, to a prescribed root mean
square error, at near-optimal total work.  Accuracy is split evenly
between sampling variance and the bias left by the finest tolerance;
per realization, the solver is refined only while the attained
tolerance straddles the decision boundary y.

The package root re-exports what the command line, the demos and the
quick start use; everything else is imported from its submodule
(``mlmcsr.driver``, ``mlmcsr.estimators``, ``mlmcsr.experiment``,
``mlmcsr.models``, ``mlmcsr.refinement``, ``mlmcsr.streams``).
"""

from .estimators import EstimatorConfig, LevelSchedule, shrinkage_estimate
from .experiment import (
    ExperimentConfig,
    emit_histogram,
    fit_cost_slope,
    run_experiment,
    theoretical_cost,
)
from .models import EllipticFlux1D, SyntheticNormalModel, build_model, standard_normal_cdf

__version__ = "0.1.0"

__all__ = [
    "EllipticFlux1D",
    "EstimatorConfig",
    "ExperimentConfig",
    "LevelSchedule",
    "SyntheticNormalModel",
    "build_model",
    "emit_histogram",
    "fit_cost_slope",
    "run_experiment",
    "shrinkage_estimate",
    "standard_normal_cdf",
    "theoretical_cost",
    "__version__",
]
