"""Command-line front end: single runs, experiment grids, rate tables.

Exit codes: 0 success, 2 configuration error, 3 a run hit the level cap
without converging, 4 I/O failure.  Config files are JSON documents
mirroring ExperimentConfig field for field; a handful of flags override
the file so grid sweeps don't need one file per variant.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .driver import NonConvergenceError, run_mc_baseline, run_mlmc_sr
from .experiment import ConfigError, ExperimentConfig, run_experiment, theoretical_cost
from .models import MODELS, ModelInitError

__all__ = ["main"]


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed")
    parser.add_argument("--output-dir", default=None, metavar="DIR",
                        help="override the config's output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the config's thread count")
    parser.add_argument("--method", choices=("mlmc-sr", "mc"), default=None,
                        help="override the config's method")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmcsr",
        description="failure-probability estimation by multilevel Monte Carlo "
                    "with selective refinement",
    )
    parser.add_argument("--version", action="version", version=f"mlmcsr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one run at the first grid epsilon, "
                                          "printed as key-value lines")
    _shared_flags(est)

    exp = sub.add_parser("experiment", help="run the full epsilon grid and "
                                            "write the CSV files")
    _shared_flags(exp)

    rates = sub.add_parser("rates", help="print the asymptotic work of each "
                                         "method (constant 1)")
    rates.add_argument("--epsilon", type=float, default=0.01)
    rates.add_argument("--q", type=float, nargs="+", default=[0.5, 1.0, 2.0, 3.0])

    models = sub.add_parser("models", help="model registry")
    models.add_argument("action", choices=("list",))

    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.output_dir is not None:
        updates["output_dir"] = args.output_dir
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.method is not None:
        updates["method"] = args.method
    return replace(cfg, **updates) if updates else cfg


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    runner = run_mlmc_sr if cfg.method == "mlmc-sr" else run_mc_baseline
    record = runner(model, cfg.estimator_config(cfg.epsilons[0]), cfg.seed,
                    threads=cfg.threads)
    print(f"method: {record.method}")
    print(f"model: {cfg.model_name}")
    print(f"epsilon: {record.config.epsilon!r}")
    print(f"seed: {record.seed}")
    print(f"converged: {record.converged}")
    print(f"estimate_raw: {record.estimate_raw!r}")
    print(f"estimate_clamped: {record.estimate_clamped!r}")
    print(f"final_L: {record.final_L}")
    print(f"total_cost: {record.total_cost!r}")
    print("N_per_level: " + " ".join(str(n) for n in record.n_drawn))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.output_dir is None:
        raise ConfigError("experiment needs an output directory "
                          "(config output_dir or --output-dir)")
    report = run_experiment(cfg)
    print(f"wrote {len(report.files)} files to {cfg.output_dir}")
    print("epsilon q rmse mean_cost median_cost mean_L")
    for s in report.summaries:
        print(f"{s.epsilon:g} {s.q:g} {s.rmse:.6g} {s.mean_cost:.6g} "
              f"{s.median_cost:.6g} {s.mean_L:.3g}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    print(f"asymptotic work at epsilon = {args.epsilon:g} (constant 1)")
    print(f"{'q':>5}  {'mc':>12}  {'mlmc':>12}  {'mlmc-sr':>12}")
    for q in args.q:
        cells = [theoretical_cost(m, q, args.epsilon)
                 for m in ("mc", "mlmc", "mlmc-sr")]
        print(f"{q:>5g}  " + "  ".join(f"{c:>12.6g}" for c in cells))
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    for name, cls in sorted(MODELS.items()):
        blurb = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        print(f"{name}: {blurb}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "rates": _cmd_rates,
        "models": _cmd_models,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, ModelInitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
