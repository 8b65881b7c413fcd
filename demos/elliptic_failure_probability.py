#!/usr/bin/env python3
"""Failure probability of a random medium, end to end.

The model is the effective flux through a one-dimensional layered
medium with a lognormal conductivity field; "failure" is the flux
dropping below a threshold y.  No closed form exists here, so the
script first draws a pilot on the master grid to place y at a chosen
quantile (failure probability by construction), then estimates that
probability with the multilevel selective estimator and compares.

This is the expensive demo: the draw of each realization (its
coefficient field on the master grid and the pyramid of coarse-grid
fluxes) dominates the run, and a solve only picks one of those fluxes.
The defaults finish in about a minute.
"""

import argparse
import math
import time

import numpy as np

from mlmcsr import EllipticFlux1D, ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--master-cells", type=int, default=256)
    ap.add_argument("--quantile", type=float, default=0.8)
    ap.add_argument("--pilot", type=int, default=20_000)
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=500)
    args = ap.parse_args()

    t0 = time.perf_counter()
    model = EllipticFlux1D(master_cells=args.master_cells)
    chunk = 10_000
    values = []
    for lo in range(0, args.pilot, chunk):
        batch = model.draw_batch(99991, 0, lo, min(lo + chunk, args.pilot))
        values.append(model.exact_batch(batch))
    pilot = np.concatenate(values)
    y = float(np.quantile(pilot, args.quantile))
    p_ref = float(np.mean(pilot <= y))
    print(f"pilot ({args.pilot} master-grid draws, {time.perf_counter()-t0:.1f}s): "
          f"y = {y:.5f} at the {args.quantile:g}-quantile, p = {p_ref:.4f}")

    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        model_name="elliptic-flux-1d",
        model_params={"master_cells": args.master_cells},
        epsilons=[args.epsilon], runs=args.runs, y=y,
        seed=args.seed, reference_p=p_ref,
    )
    report = run_experiment(cfg)
    print(f"\n{args.runs} estimator runs at epsilon {args.epsilon:g} "
          f"({time.perf_counter()-t0:.1f}s):")
    print(f"{'run':>4}  {'estimate':>9}  {'|err|':>8}  {'cost':>12}  {'L':>2}")
    for r in report.rows:
        print(f"{r.run_id:>4}  {r.estimate_clamped:>9.4f}  {r.abs_error:>8.4f}  "
              f"{r.total_cost:>12.4g}  {r.final_L:>2}")
    s = report.summaries[0]
    print(f"\nrmse vs pilot {s.rmse:.4f} (target {args.epsilon:g}, "
          f"sampling share {args.epsilon/math.sqrt(2):.4f})")


if __name__ == "__main__":
    main()
