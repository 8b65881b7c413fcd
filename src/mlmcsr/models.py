"""Models exposing tunable-accuracy solvers for the estimator.

Both models honor one batched contract (``refinement.ModelContract``):
``draw_batch(seed, level, lo, hi)`` materializes realizations lo..hi-1
of a level, each from its (seed, level, index) identity alone, so a
row has the same bits however the range is chunked; ``solve_batch``
returns values of the selected rows certified to the requested
tolerance together with the work charged, and repeated solves of the
same (realization, tolerance index) reproduce the same value bit for
bit; ``batch_chunk`` is the chunk size the drivers draw in.  A single
realization is a batch of one.  ``exact_batch`` and, where a closed
form exists, ``exact_probability`` are test oracles.

Both models address a stream one way: row s of a batch drawn from lo
reads counter s under ``streams.offset_key(key, lo)``, which is counter
lo + s under ``key`` (an elliptic row takes m counters, so a block from
row ``start`` is keyed at ``start * m``).

The sampling path keeps each chunk's arrays small (a few hundred KiB)
and writes into arrays it already holds where it can: large temporaries
freed and allocated again on every chunk go back to the operating
system and cost fresh page faults each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import is_finite_real, is_integer
from .streams import derive_key, normal_at, offset_key, uniform_at

__all__ = [
    "ModelInitError",
    "SyntheticNormalModel",
    "EllipticFlux1D",
    "MODELS",
    "build_model",
    "standard_normal_cdf",
]


class ModelInitError(RuntimeError):
    """Raised when a model cannot be constructed from its parameters."""


def standard_normal_cdf(y: float) -> float:
    """Phi(y) through the C library's erfc; absolute error well under 1e-10."""
    return 0.5 * math.erfc(-y / math.sqrt(2.0))


# stream slots within one (seed, level): slot 0 feeds the realization
# itself (omega, or the coefficient field), slot j+1 feeds the solver
# randomness of tolerance index j.
_REALIZATION_SLOT = 0


# ---------------------------------------------------------------------------
# synthetic normal model
# ---------------------------------------------------------------------------

@dataclass
class _SyntheticBatch:
    seed: int
    level: int
    lo: int
    omega: np.ndarray


class SyntheticNormalModel:
    """Standard-normal quantity with an explicitly controllable solver.

    The exact quantity is X = omega ~ N(0, 1).  A solve to tolerance h
    returns

        X_h = omega + h * (2 U - 1 + b) / (1 + b),

    where U is uniform on (0, 1), so |X_h - X| <= h always, with a
    slight positive skew controlled by b.  One solve to tolerance h
    costs h**-q work units.  U is keyed to the realization and the
    tolerance index, never re-drawn on recomputation.

    ``uniform_source`` replaces the keyed uniforms for testing; it is
    called as uniform_source(level, index, tol_index).
    """

    name = "synthetic-normal"
    batch_chunk = 1 << 15

    def __init__(
        self,
        q: float = 1.0,
        b: float = 0.1,
        uniform_source: Callable[[int, int, int], float] | None = None,
    ) -> None:
        if not (is_finite_real(q) and q > 0.0):
            raise ModelInitError(f"work exponent q must be finite and positive, got {q!r}")
        if not (is_finite_real(b) and -1.0 < b < 1.0):
            raise ModelInitError(f"skew b must lie in (-1, 1), got {b!r}")
        if uniform_source is not None and not callable(uniform_source):
            raise ModelInitError(f"uniform_source must be callable, got {uniform_source!r}")
        self.q = q
        self.b = b
        self.uniform_source = uniform_source

    def from_omega(self, omega: float, level: int = 0, index: int = 0, seed: int = 0) -> _SyntheticBatch:
        """Batch of one realization with a prescribed omega, for hand-traced fixtures."""
        return _SyntheticBatch(seed, level, index, np.array([omega], dtype=np.float64))

    def work_units(self, tolerance: float) -> float:
        """tolerance**-q; raises ValueError when that overflows a float."""
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        try:
            return tolerance ** -self.q
        except OverflowError:
            raise ValueError(f"the work tolerance**-q of one solve overflows a float "
                             f"(q={self.q}, tolerance={tolerance})") from None

    def exact_probability(self, y: float) -> float:
        return standard_normal_cdf(y)

    def draw_batch(self, seed: int, level: int, lo: int, hi: int) -> _SyntheticBatch:
        key = offset_key(derive_key(seed, level, _REALIZATION_SLOT), lo)
        omega = normal_at(key, np.arange(hi - lo, dtype=np.uint64))
        return _SyntheticBatch(seed, level, lo, omega)

    def solve_batch(
        self, batch: _SyntheticBatch, sel: np.ndarray, tolerance: float, tol_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.uniform_source is not None:
            u = np.array([self.uniform_source(batch.level, batch.lo + int(s), tol_index)
                          for s in sel], dtype=np.float64)
        else:
            key = derive_key(batch.seed, batch.level, tol_index + 1)
            u = uniform_at(offset_key(key, batch.lo), sel)
        # omega + tolerance * (2u - 1 + b) / (1 + b), in place, in that order
        u *= 2.0
        u -= 1.0
        u += self.b
        u *= tolerance
        u /= 1.0 + self.b
        # sel is strictly increasing, so a full-length sel is every row
        u += batch.omega if len(sel) == batch.omega.size else batch.omega[sel]
        works = np.empty(len(sel))
        works.fill(self.work_units(tolerance))
        return u, works

    def exact_batch(self, batch: _SyntheticBatch) -> np.ndarray:
        return batch.omega


# ---------------------------------------------------------------------------
# one-dimensional elliptic flux model
# ---------------------------------------------------------------------------

@dataclass
class _EllipticBatch:
    seed: int
    level: int
    lo: int
    fluxes: np.ndarray   # (n, grids): coarse flux per dyadic grid, coarsest first
    errors: np.ndarray   # (n, grids): |flux - exact| per grid
    exact: np.ndarray    # (n,)


# field elements generated at once by ``EllipticFlux1D.draw_batch``: bounds
# its buffers (256 KiB each) independently of the master grid size
_FIELD_BLOCK = 1 << 15


class EllipticFlux1D:
    """Effective flux through a random layered medium on the unit interval.

    The log-conductivity is a stationary Gaussian field with covariance
    sigma**2 * exp(-|x1 - x2| / rho), sampled at the midpoints of a
    fine master grid of m cells.  On uniform midpoints that covariance
    is the AR(1) (Kac-Murdock-Szego) matrix, whose Cholesky factor is
    exactly the recursion

        g_0 = sigma * z_0,  g_i = phi * g_(i-1) + sigma * sqrt(1 - phi**2) * z_i,

    with phi = exp(-1 / (m * rho)), so a realization costs O(m).  The
    recursion runs as log2(m) doubling steps, each one flat pass over a
    block of rows with the products that would cross a row seam zeroed
    (see ``_fill_fields``), which keeps the row-wise result bit for bit.
    Under a unit pressure drop the exact flux is the harmonic mean
    formula X = 1 / sum_i(h / a_i) on the master grid.

    A solve to tolerance t evaluates coarse fluxes on dyadic grids with
    arithmetically averaged coefficients, coarsest first, and returns
    the first one whose true error (against the cached exact flux) is
    within t.  The work charged is that grid's cell count.  The master
    grid reproduces the exact flux bit for bit, so every tolerance is
    reachable.  There is no known closed form for the flux distribution,
    hence no ``exact_probability``.
    """

    name = "elliptic-flux-1d"
    batch_chunk = 2048

    def __init__(
        self,
        sigma: float = 1.0,
        rho: float = 0.1,
        master_cells: int = 4096,
    ) -> None:
        if not (is_finite_real(sigma) and sigma >= 0.0):
            raise ModelInitError(f"sigma must be finite and >= 0, got {sigma!r}")
        if not (is_finite_real(rho) and rho > 0.0):
            raise ModelInitError(
                f"correlation length rho must be finite and positive, got {rho!r}")
        if not is_integer(master_cells):
            raise ModelInitError(f"master_cells must be an integer, got {master_cells!r}")
        m = int(master_cells)
        if m < 1 or m & (m - 1):
            raise ModelInitError(f"master_cells must be a power of two, got {master_cells}")
        self.sigma = sigma
        self.rho = rho
        self.master_cells = m
        self._grids = [2 ** g for g in range(m.bit_length())]  # 1, 2, ..., m
        # AR(1) coefficient phi and innovation scale sigma * sqrt(1 - phi**2)
        self._phi = math.exp(-1.0 / (m * rho))
        self._innovation = sigma * math.sqrt(-math.expm1(-2.0 / (m * rho)))

    def _fill_fields(self, key: int, counters: np.ndarray,
                     field: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Fields of the rows whose normals sit at ``counters`` under ``key``.

        Row i's normals sit at counters i*m .. i*m + m-1 (``key`` is offset
        to the block's first row), and its field goes to ``field``.  The
        AR(1) recursion runs as log2(m) doubling steps
        ``g[:, s:] += phi**s * g[:, :-s]``, with ``scratch`` (as large as
        ``field``) holding each step's products.  Each step runs as flat
        passes over the whole block, because numpy's 2D strided views cost
        about 3x more per element.  A flat step would also carry the last s
        cells of a row into the first s cells of the next, so those products
        are zeroed first: every cell gets the same product from the same old
        value as in the row-wise step, and a seam cell gets ``+ 0.0``, which
        leaves its bits as they are (a -0.0, as sigma=0 gives, turns into
        +0.0, and ``exp`` maps both to 1.0).
        """
        m = self.master_cells
        g = normal_at(key, counters, out=field)
        first = g[::m] * self.sigma
        g *= self._innovation
        g[::m] = first
        s = 1
        while s < m:
            np.multiply(g[:-s], self._phi ** s, out=scratch[:-s])
            scratch.reshape(-1, m)[:, m - s:] = 0.0
            g[s:] += scratch[:-s]
            s *= 2
        return np.exp(g, out=g).reshape(-1, m)

    def draw_batch(self, seed: int, level: int, lo: int, hi: int) -> _EllipticBatch:
        m, grids = self.master_cells, self._grids
        fluxes = np.empty((hi - lo, len(grids)))
        block = max(1, _FIELD_BLOCK // m)
        # one workspace per call, reused by every block: never kept on the
        # model, whose draws may run on several threads at once
        rows = min(block, hi - lo)
        key = derive_key(seed, level, _REALIZATION_SLOT)
        counters = np.arange(rows * m, dtype=np.uint64)
        field, scratch = np.empty(rows * m), np.empty(rows * m)
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            n = stop - start
            a_bar = self._fill_fields(offset_key(key, start * m), counters[: n * m],
                                      field[: n * m], scratch[: n * m])
            # master grid first, then pool neighbouring cells pairwise; the
            # reciprocals and pair sums go to scratch, the means to field
            for col in range(len(grids) - 1, -1, -1):
                width = grids[col]
                inverse = np.divide(1.0, a_bar, out=scratch[: n * width].reshape(n, width))
                resistance = (1.0 / width) * np.sum(inverse, axis=1)
                fluxes[start - lo : stop - lo, col] = 1.0 / resistance
                if col:
                    half = width // 2
                    pairs = np.add(a_bar[:, 0::2], a_bar[:, 1::2],
                                   out=scratch[: n * half].reshape(n, half))
                    a_bar = np.multiply(pairs, 0.5, out=field[: n * half].reshape(n, half))
        exact = fluxes[:, -1].copy()  # master grid: averaging is the identity
        errors = np.abs(fluxes - exact[:, None])
        return _EllipticBatch(seed, level, lo, fluxes, errors, exact)

    def solve_batch(
        self, batch: _EllipticBatch, sel: np.ndarray, tolerance: float, tol_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        rows = slice(None) if len(sel) == len(batch.fluxes) else sel
        pick = np.argmax(batch.errors[rows] <= tolerance, axis=1)
        values = batch.fluxes[sel, pick]
        works = np.asarray(self._grids, dtype=np.float64)[pick]
        return values, works

    def exact_batch(self, batch: _EllipticBatch) -> np.ndarray:
        return batch.exact


MODELS: dict[str, type] = {
    SyntheticNormalModel.name: SyntheticNormalModel,
    EllipticFlux1D.name: EllipticFlux1D,
}


def build_model(name: str, params: dict | None = None):
    """Instantiate a registered model from its name and parameter map."""
    if name not in MODELS:
        known = ", ".join(sorted(MODELS))
        raise ModelInitError(f"unknown model {name!r}; available: {known}")
    try:
        return MODELS[name](**(params or {}))
    except TypeError as exc:
        raise ModelInitError(f"bad parameters for model {name!r}: {exc}") from exc
