#!/usr/bin/env python3
"""One-off calibration of the elliptic-m512 workload's threshold and reference.

Draws a master-grid pilot of ``EllipticFlux1D(sigma=1, rho=0.1,
master_cells=512)`` with the acceptance gate C9's recipe: seed 99991,
level 0, exact fluxes from ``draw_batch`` / ``exact_batch``.  The
benchmark's run seeds start at 100000, so they never share a
realization with the pilot.

The first ``QUANTILE_SIZE`` realizations place y at their empirical
0.8-quantile, rounded to four decimals.  The next ``REFERENCE_SIZE``
realizations, disjoint from those, estimate p_ref = Pr(X <= y) with its
binomial standard error.  The printed constants are pasted into
``workloads.py`` so that the benchmark's set-up never pays for a pilot.

Run from the repository root:

    python3 perfbench/calibrate_elliptic.py
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PILOT_SEED = 99991
QUANTILE_SIZE = 20_000
REFERENCE_SIZE = 100_000
CHUNK = 10_000


def main() -> None:
    import numpy as np
    from mlmcsr import EllipticFlux1D

    t0 = time.perf_counter()
    model = EllipticFlux1D(sigma=1.0, rho=0.1, master_cells=512)
    total = QUANTILE_SIZE + REFERENCE_SIZE
    parts = []
    for lo in range(0, total, CHUNK):
        batch = model.draw_batch(PILOT_SEED, 0, lo, min(lo + CHUNK, total))
        parts.append(model.exact_batch(batch))
    flux = np.concatenate(parts)
    elapsed = time.perf_counter() - t0

    y = round(float(np.quantile(flux[:QUANTILE_SIZE], 0.8)), 4)
    ref = flux[QUANTILE_SIZE:]
    p_ref = float(np.mean(ref <= y))
    stderr = math.sqrt(p_ref * (1.0 - p_ref) / ref.size)

    print(f"# pilot: seed {PILOT_SEED}, level 0, {QUANTILE_SIZE} realizations "
          f"for y, {ref.size} disjoint ones for p_ref, {elapsed:.1f} s")
    print(f"ELLIPTIC_Y = {y!r}")
    print(f"ELLIPTIC_P_REF = {p_ref!r}")
    print(f"ELLIPTIC_P_STDERR = {stderr!r}")


if __name__ == "__main__":
    main()
