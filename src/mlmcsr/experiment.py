"""Repeated-run experiments: RMSE over an epsilon grid, cost summaries,
rate fits, and the CSV files the plots are made from.

One experiment = one model, one method, one epsilon grid, M runs per
grid point with seeds base+0 .. base+M-1 (the same seed set at every
epsilon, so grid points differ only through the accuracy parameter).
Everything lands in three kinds of CSV: a per-run file, a one-row-per-
epsilon summary, and a mean refinement histogram per grid point.  All
files open with a schema version line; floats are written with repr()
so that parsing them back returns the identical bits, which is what
makes the summary round-trip exact.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .driver import OutcomeStore, RunRecord, _worker_pool, run_mc_baseline, run_mlmc_sr
from .estimators import EstimatorConfig, InsufficientSamplesError, is_finite_real, is_integer
from .models import build_model

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "RunRow",
    "SummaryRow",
    "ExperimentReport",
    "CostSlopeFit",
    "run_experiment",
    "summarize_runs",
    "fit_cost_slope",
    "theoretical_cost",
    "emit_histogram",
    "write_runs_csv",
    "read_runs_csv",
    "write_summary_csv",
    "read_summary_csv",
]

SCHEMA_VERSION = "# mlmcsr-csv 1"

_METHODS = ("mlmc-sr", "mc")


class ConfigError(ValueError):
    """Raised for an experiment configuration that cannot be run."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; mirrors the JSON config file.

    ``reference_p`` supplies the truth for models without a closed-form
    probability (the elliptic demonstrator uses a brute-force pilot
    value here).
    """

    model_name: str
    epsilons: list[float]
    runs: int
    y: float
    model_params: dict = field(default_factory=dict)
    gamma: float = 0.5
    q: float = 1.0
    N: int = 10
    k: float = 1.0
    seed: int = 0
    method: str = "mlmc-sr"
    output_dir: str | None = None
    threads: int = 1
    max_level: int = 30
    reference_p: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model_name, str):
            raise ConfigError(f"model_name must be a string, got {self.model_name!r}")
        if not isinstance(self.model_params, dict):
            raise ConfigError(f"model_params must be a dict, got {self.model_params!r}")
        if not isinstance(self.epsilons, (list, tuple)) or not self.epsilons:
            raise ConfigError(f"epsilons must be a nonempty list, got {self.epsilons!r}")
        if not all(is_finite_real(e) and e > 0.0 for e in self.epsilons):
            raise ConfigError(f"epsilons must be finite and positive, got {self.epsilons}")
        self.epsilons = [float(e) for e in self.epsilons]
        if self.reference_p is not None and not is_finite_real(self.reference_p):
            raise ConfigError(f"reference_p must be finite and a real number, "
                              f"got {self.reference_p!r}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string or null, got {self.output_dir!r}")
        for name in ("runs", "seed", "threads"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # numpy integers do not serialize to JSON
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        try:
            for epsilon in self.epsilons:
                self.estimator_config(epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def estimator_config(self, epsilon: float) -> EstimatorConfig:
        return EstimatorConfig(
            y=self.y, epsilon=epsilon, gamma=self.gamma, q=self.q,
            N=self.N, k=self.k, max_level=self.max_level,
        )

    def build_model(self):
        params = dict(self.model_params)
        # the synthetic model's work exponent is the same knob as the
        # schedule's q; only an explicit param may say otherwise
        if self.model_name == "synthetic-normal":
            params.setdefault("q", self.q)
        return build_model(self.model_name, params)

    def to_json(self) -> str:
        doc = asdict(self)
        doc["model"] = {"name": doc.pop("model_name"),
                        "params": doc.pop("model_params")}
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        model = doc.pop("model", None)
        if model is not None:
            if not isinstance(model, dict) or "name" not in model:
                raise ConfigError('"model" must be {"name": ..., "params": {...}}')
            doc["model_name"] = model["name"]
            doc["model_params"] = model.get("params", {})
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# rows and summaries
# ---------------------------------------------------------------------------

@dataclass
class RunRow:
    """One line of the per-run file."""

    run_id: int
    epsilon: float
    q: float
    estimate_raw: float
    estimate_clamped: float
    abs_error: float
    total_cost: float
    final_L: int
    n_per_level: list[int]


@dataclass
class SummaryRow:
    """One line of the summary file: the statistics of M runs."""

    epsilon: float
    q: float
    rmse: float
    mean_cost: float
    median_cost: float
    mean_L: float


@dataclass
class ExperimentReport:
    """What run_experiment hands back, files aside."""

    config: ExperimentConfig
    reference: float
    rows: list[RunRow]
    summaries: list[SummaryRow]
    histograms: list[np.ndarray]
    files: list[Path]


def _run_row(record: RunRecord, run_id: int, reference: float) -> RunRow:
    """The record's CSV row; ``n_per_level`` has one count per level
    0..final_L, zero for a level the run has no entry for (below an mc
    run's one level)."""
    n_per_level = [0] * (record.final_L + 1)
    for ls in record.per_level:
        n_per_level[ls.level] = ls.n_drawn
    return RunRow(
        run_id=run_id,
        epsilon=record.config.epsilon,
        q=record.config.q,
        estimate_raw=record.estimate_raw,
        estimate_clamped=record.estimate_clamped,
        abs_error=abs(record.estimate_raw - reference),
        total_cost=record.total_cost,
        final_L=record.final_L,
        n_per_level=n_per_level,
    )


def summarize_runs(rows: list[RunRow]) -> SummaryRow:
    """Collapse the M rows of one grid point into its summary row."""
    if not rows:
        raise InsufficientSamplesError("summarize_runs needs at least one row")
    errs = np.array([r.abs_error for r in rows])
    costs = np.array([r.total_cost for r in rows])
    return SummaryRow(
        epsilon=rows[0].epsilon,
        q=rows[0].q,
        rmse=float(np.sqrt(np.mean(errs * errs))),
        mean_cost=float(np.mean(costs)),
        median_cost=float(np.median(costs)),
        mean_L=float(np.mean([r.final_L for r in rows])),
    )


def emit_histogram(records: list[RunRecord], path: Path | None = None) -> np.ndarray:
    """Mean refinement histogram over runs: rows are stop indices j,
    columns are levels; written as CSV when a path is given."""
    if not records:
        raise InsufficientSamplesError("emit_histogram needs at least one record")
    rows = max(r.refinement_histogram.shape[0] for r in records)
    cols = max(r.refinement_histogram.shape[1] for r in records)
    acc = np.zeros((rows, cols))
    for r in records:
        h = r.refinement_histogram
        acc[: h.shape[0], : h.shape[1]] += h
    mean = acc / len(records)
    if path is not None:
        _write_csv(path, ["j"] + [f"L{c}" for c in range(cols)],
                   ([j] + [repr(float(v)) for v in mean[j]] for j in range(rows)))
    return mean


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the schema line, ``header`` and ``rows`` (lists of cells)."""
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_runs_csv(path: Path, rows: list[RunRow]) -> None:
    max_l = max(r.final_L for r in rows)
    header = ["run_id", "epsilon", "q", "estimate_raw", "estimate_clamped",
              "abs_error", "total_cost", "final_L"]
    header += [f"N_{l}" for l in range(max_l + 1)]
    _write_csv(path, header, (
        [r.run_id, repr(r.epsilon), repr(r.q), repr(r.estimate_raw),
         repr(r.estimate_clamped), repr(r.abs_error), repr(r.total_cost), r.final_L]
        + [str(n) for n in r.n_per_level] + [""] * (max_l - r.final_L)
        for r in rows))


def _read_schema_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != SCHEMA_VERSION:
            raise ConfigError(f"{path}: expected schema line {SCHEMA_VERSION!r}, "
                              f"got {first!r}")
        return list(csv.DictReader(fh))


def read_runs_csv(path: Path) -> list[RunRow]:
    rows = []
    for rec in _read_schema_csv(path):
        n_cols = sorted((k for k in rec if k.startswith("N_")),
                        key=lambda k: int(k[2:]))
        rows.append(RunRow(
            run_id=int(rec["run_id"]),
            epsilon=float(rec["epsilon"]),
            q=float(rec["q"]),
            estimate_raw=float(rec["estimate_raw"]),
            estimate_clamped=float(rec["estimate_clamped"]),
            abs_error=float(rec["abs_error"]),
            total_cost=float(rec["total_cost"]),
            final_L=int(rec["final_L"]),
            n_per_level=[int(rec[k]) for k in n_cols if rec[k] not in ("", None)],
        ))
    return rows


def write_summary_csv(path: Path, summaries: list[SummaryRow]) -> None:
    _write_csv(path, ["epsilon", "q", "rmse", "mean_cost", "median_cost", "mean_L"],
               ([repr(s.epsilon), repr(s.q), repr(s.rmse), repr(s.mean_cost),
                 repr(s.median_cost), repr(s.mean_L)] for s in summaries))


def read_summary_csv(path: Path) -> list[SummaryRow]:
    return [SummaryRow(epsilon=float(r["epsilon"]), q=float(r["q"]),
                       rmse=float(r["rmse"]), mean_cost=float(r["mean_cost"]),
                       median_cost=float(r["median_cost"]), mean_L=float(r["mean_L"]))
            for r in _read_schema_csv(path)]


# ---------------------------------------------------------------------------
# the experiment proper
# ---------------------------------------------------------------------------

def _resolve_reference(model, config: ExperimentConfig) -> float:
    exact_probability = getattr(model, "exact_probability", None)  # an optional oracle
    if exact_probability is not None:
        return float(exact_probability(config.y))
    if config.reference_p is not None:
        return float(config.reference_p)
    warnings.warn(
        f"model {config.model_name!r} has no exact probability and the config "
        "carries no reference_p: abs_error and rmse columns will be NaN",
        stacklevel=3,
    )
    return math.nan


def _seed_runs(model, method: str, configs: list[EstimatorConfig],
               seed: int) -> list[RunRecord]:
    """The records of one seed over the epsilon grid, in config order.

    The runs of a seed share one OutcomeStore: mlmc-sr runs refine each
    realization once, and mc runs share their pilot levels.
    """
    runner = run_mlmc_sr if method == "mlmc-sr" else run_mc_baseline
    store = OutcomeStore(model, seed, configs[0])
    return [runner(model, c, seed, store=store) for c in configs]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full epsilon grid and (if output_dir is set) write CSVs.

    Each seed runs the whole grid in config order as one task; with
    threads > 1 the seeds run in parallel.  Results are regrouped per
    epsilon in seed order, so the files never depend on the thread
    count.  A run that hits max_level raises NonConvergenceError out of
    here unchanged: the first failing run in seed order raises, and no
    file is written, since every file is written only after all runs
    have finished.
    """
    model = config.build_model()
    reference = _resolve_reference(model, config)
    seeds = [config.seed + i for i in range(config.runs)]
    configs = [config.estimator_config(epsilon) for epsilon in config.epsilons]
    run = partial(_seed_runs, model, config.method, configs)
    with _worker_pool(config.threads) as pool:
        by_seed = list(pool.map(run, seeds) if pool is not None else map(run, seeds))

    out = Path(config.output_dir) if config.output_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    all_rows: list[RunRow] = []
    summaries: list[SummaryRow] = []
    histograms: list[np.ndarray] = []
    files: list[Path] = []
    for idx in range(len(config.epsilons)):
        records = [runs[idx] for runs in by_seed]
        rows = [_run_row(rec, i, reference) for i, rec in enumerate(records)]
        all_rows.extend(rows)
        summaries.append(summarize_runs(rows))
        if out is not None:
            hist_path = out / f"histogram_e{idx}.csv"
            histograms.append(emit_histogram(records, hist_path))
            files.append(hist_path)
        else:
            histograms.append(emit_histogram(records))

    if out is not None:
        runs_path, summary_path = out / "runs.csv", out / "summary.csv"
        write_runs_csv(runs_path, all_rows)
        write_summary_csv(summary_path, summaries)
        files[:0] = [runs_path, summary_path]

    return ExperimentReport(config=config, reference=reference, rows=all_rows,
                            summaries=summaries, histograms=histograms, files=files)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@dataclass
class CostSlopeFit:
    """Least-squares exponent of mean cost vs epsilon.

    ``compensated_slope`` is only set at q = 2, where the theory says
    eps^-2 log(eps^-1)^2: it is the slope after dividing the log^2
    factor out, and should sit near -2 when the data follows theory.
    """

    slope: float
    compensated_slope: float | None

    @property
    def log_corrected(self) -> bool:
        return self.compensated_slope is not None


def fit_cost_slope(points: list[tuple[float, float]], q: float) -> CostSlopeFit:
    """Fit log(mean_cost) ~ slope * log(epsilon) over grid points."""
    if len(points) < 4:
        raise InsufficientSamplesError(
            f"cost-slope fit needs >= 4 grid points, got {len(points)}")
    eps = np.array([p[0] for p in points])
    cost = np.array([p[1] for p in points])
    slope = float(np.polyfit(np.log(eps), np.log(cost), 1)[0])
    compensated = None
    if q == 2.0:
        comp = cost / np.log(1.0 / eps) ** 2
        compensated = float(np.polyfit(np.log(eps), np.log(comp), 1)[0])
    return CostSlopeFit(slope=slope, compensated_slope=compensated)


def theoretical_cost(method: str, q: float, epsilon: float) -> float:
    """Asymptotic work of each method, constant 1 (callers scale).

    mc:      eps^-(2+q)
    mlmc:    eps^-2 (q<1), eps^-2 log(1/eps)^2 (q=1), eps^-(1+q) (q>1)
    mlmc-sr: eps^-2 (q<2), eps^-2 log(1/eps)^2 (q=2), eps^-q  (q>2)
    Raises ValueError unless q and epsilon are finite and positive and
    the work fits a float."""
    for name, value in (("q", q), ("epsilon", epsilon)):
        if not (is_finite_real(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    try:
        work = _theoretical_cost(method, q, epsilon)
    except OverflowError:
        work = math.inf
    if not math.isfinite(work):
        raise ValueError(f"{method} work at epsilon={epsilon}, q={q} overflows a float")
    return work


def _theoretical_cost(method: str, q: float, epsilon: float) -> float:
    log2 = math.log(1.0 / epsilon) ** 2
    if method == "mc":
        return epsilon ** -(2.0 + q)
    if method == "mlmc":
        if q < 1.0:
            return epsilon ** -2.0
        if q == 1.0:
            return epsilon ** -2.0 * log2
        return epsilon ** -(1.0 + q)
    if method == "mlmc-sr":
        if q < 2.0:
            return epsilon ** -2.0
        if q == 2.0:
            return epsilon ** -2.0 * log2
        return epsilon ** -q
    raise ValueError(f"unknown method {method!r}; expected mc, mlmc, or mlmc-sr")
