"""Both shipped models: certified tolerances, exact oracles, field statistics."""

import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from mlmcsr.estimators import LevelSchedule
from mlmcsr.experiment import ExperimentConfig
from mlmcsr import models
from mlmcsr.models import (
    EllipticFlux1D,
    ModelInitError,
    SyntheticNormalModel,
    build_model,
    standard_normal_cdf,
)
from mlmcsr.refinement import sample_corrector_batch
from mlmcsr.streams import derive_key, normal_at, offset_key, uniform_at

Y = 0.8
B = 0.1


def solve_one(model, batch, tolerance, tol_index):
    """Value and work of row 0 of ``batch`` solved to ``tolerance``."""
    v, w = model.solve_batch(batch, np.array([0]), tolerance, tol_index)
    return float(v[0]), float(w[0])


def assert_draw_is_chunk_invariant(model, seed, level):
    """Rows of one draw over [5, 15) equal the single-realization (one-row)
    draws bit for bit."""
    batch = model.draw_batch(seed, level, 5, 15)
    for pos, idx in enumerate(range(5, 15)):
        one = model.draw_batch(seed, level, idx, idx + 1)
        np.testing.assert_array_equal(model.exact_batch(batch)[pos : pos + 1],
                                      model.exact_batch(one))
        for tol_index in (0, 3):
            v, w = model.solve_batch(batch, np.array([pos]), 0.5 ** tol_index, tol_index)
            assert (v[0], w[0]) == solve_one(model, one, 0.5 ** tol_index, tol_index)


# ---------------------------------------------------------------------------
# synthetic model
# ---------------------------------------------------------------------------

class TestSyntheticSolve:
    def test_plug_in_values_with_fixture_stream(self):
        model = SyntheticNormalModel(uniform_source=lambda l, i, j: 0.5)
        v, w = solve_one(model, model.from_omega(0.0), 1.0, 0)
        assert v == pytest.approx(0.0909090909090909, abs=1e-15)
        v, _ = solve_one(model, model.from_omega(0.79), 0.25, 2)
        assert v == pytest.approx(0.8127272727272727, abs=1e-15)

    def test_boundary_uniforms(self):
        up = SyntheticNormalModel(uniform_source=lambda l, i, j: 1.0)
        v, _ = solve_one(up, up.from_omega(0.3), 0.5, 1)
        assert v == pytest.approx(0.3 + 0.5)
        centered = SyntheticNormalModel(uniform_source=lambda l, i, j: (1 - B) / 2)
        v, _ = solve_one(centered, centered.from_omega(0.3), 0.5, 1)
        assert v == pytest.approx(0.3, abs=1e-15)

    def test_work_units(self):
        assert SyntheticNormalModel(q=1.0).work_units(1.0) == 1.0
        assert SyntheticNormalModel(q=3.0).work_units(0.5) == pytest.approx(8.0)
        assert SyntheticNormalModel(q=2.0).work_units(0.25) == pytest.approx(16.0)
        with pytest.raises(ValueError):
            SyntheticNormalModel().work_units(0.0)

    def test_work_units_overflow_is_a_value_error_naming_q(self):
        model = SyntheticNormalModel(q=2000.0)
        assert model.work_units(1.0) == 1.0
        with pytest.raises(ValueError, match="q=2000"):
            model.work_units(0.5)
        with pytest.raises(ValueError, match="q=2000"):
            model.solve_batch(model.draw_batch(0, 1, 0, 4), np.arange(4), 0.5, 1)

    @pytest.mark.parametrize("sel", [np.array([1, 4]), np.arange(6)])
    def test_uniform_source_gets_absolute_indices(self, sel):
        # a batch drawn at lo=100: row s is realization 100 + s, under a
        # partial and under a full-length sel, and a source that reads the
        # keyed stream at those indices reproduces the keyed solve
        seed, level, tol_index = 5, 3, 2
        key = derive_key(seed, level, tol_index + 1)
        calls = []

        def source(l, index, j):
            calls.append((l, index, j))
            return float(uniform_at(key, np.array([index], dtype=np.uint64))[0])

        keyed = SyntheticNormalModel()
        fixture = SyntheticNormalModel(uniform_source=source)
        batch = keyed.draw_batch(seed, level, 100, 106)
        v, _ = fixture.solve_batch(batch, sel, 0.25, tol_index)
        assert calls == [(level, 100 + int(s), tol_index) for s in sel]
        np.testing.assert_array_equal(v, keyed.solve_batch(batch, sel, 0.25, tol_index)[0])

    def test_certified_bound_holds_exactly(self):
        # |value - omega| <= tolerance for a million keyed draws
        model = SyntheticNormalModel(q=1.0)
        batch = model.draw_batch(404, 3, 0, 1_000_000)
        sel = np.arange(1_000_000)
        for tol in (1.0, 0.125):
            v, _ = model.solve_batch(batch, sel, tol, 3)
            assert np.max(np.abs(v - batch.omega)) <= tol

    def test_solve_is_reproducible_per_tolerance_index(self):
        model = SyntheticNormalModel()
        h = model.draw_batch(9, 2, 13, 14)
        assert solve_one(model, h, 0.25, 2) == solve_one(model, h, 0.25, 2)
        v1, _ = solve_one(model, h, 0.25, 2)
        v2, _ = solve_one(model, h, 0.25, 3)  # different index, fresh uniform
        assert v1 != v2

    def test_batch_draw_matches_scalar_draw(self):
        assert_draw_is_chunk_invariant(SyntheticNormalModel(), 77, 4)


def test_standard_normal_cdf_values():
    assert standard_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert standard_normal_cdf(0.8) == pytest.approx(0.788145, abs=1e-6)
    assert standard_normal_cdf(-40.0) < 1e-300
    for y in (-3.7, -0.9, 0.0, 0.44, 2.5):
        assert standard_normal_cdf(y) == pytest.approx(
            scipy.stats.norm.cdf(y), abs=1e-10
        )
    model = SyntheticNormalModel()
    assert model.exact_probability(0.8) == standard_normal_cdf(0.8)


def test_full_refinement_mean_matches_quadrature():
    # E[1(X_l <= y)] integrated over (omega, U) against a 1e6-draw MC
    level, gamma = 3, 0.5
    tol = gamma ** level

    def integrand(u):
        return standard_normal_cdf(Y - tol * (2 * u - 1 + B) / (1 + B))

    target, quad_err = scipy.integrate.quad(integrand, 0.0, 1.0)
    assert quad_err < 1e-9

    model = SyntheticNormalModel(q=1.0)
    n = 1_000_000
    batch = model.draw_batch(2024, level, 0, n)
    v, _ = model.solve_batch(batch, np.arange(n), tol, level)
    p_hat = np.mean(v <= Y)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(p_hat - target) < 4 * se


def test_corrector_variance_scales_geometrically():
    # var bound at level 3 vs level 1 tracks gamma^2 within a factor 2
    from mlmcsr.estimators import corrector_moments, CorrectorTally

    model = SyntheticNormalModel(q=1.0)
    sched = LevelSchedule(0.5, 1.0)
    n = 200_000
    bounds = {}
    for level in (1, 3):
        batch = sample_corrector_batch(model, 8, level, 0, n, Y, sched)
        d = batch.sign
        tally = CorrectorTally(level, n=n, n_plus=int((d > 0).sum()), n_minus=int((d < 0).sum()))
        bounds[level] = corrector_moments(tally, k=1.0).var_bound
    ratio = bounds[3] / bounds[1]
    assert 0.5 * 0.25 < ratio < 2.0 * 0.25


def test_synthetic_rejects_bad_parameters():
    with pytest.raises(ModelInitError):
        SyntheticNormalModel(q=0.0)
    with pytest.raises(ModelInitError):
        SyntheticNormalModel(b=1.0)
    for bad in (dict(q=math.nan), dict(q=math.inf), dict(b=math.nan), dict(b=-math.inf),
                dict(q=True), dict(b=False), dict(q="1")):
        with pytest.raises(ModelInitError):
            SyntheticNormalModel(**bad)


@pytest.mark.parametrize("source", [5, 0.5, "u", [0.5]])
def test_synthetic_rejects_a_uniform_source_that_is_not_callable(source):
    with pytest.raises(ModelInitError, match="uniform_source"):
        SyntheticNormalModel(uniform_source=source)
    with pytest.raises(ModelInitError, match="uniform_source"):
        build_model("synthetic-normal", {"uniform_source": source})


# ---------------------------------------------------------------------------
# elliptic flux model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def elliptic():
    return EllipticFlux1D(master_cells=256)


def test_elliptic_validation():
    with pytest.raises(ModelInitError):
        EllipticFlux1D(master_cells=100)
    with pytest.raises(ModelInitError):
        EllipticFlux1D(sigma=-1.0)
    with pytest.raises(ModelInitError):
        EllipticFlux1D(rho=0.0)
    for bad in (dict(sigma=math.nan), dict(sigma=math.inf), dict(rho=math.nan),
                dict(rho=math.inf), dict(sigma=True), dict(rho=True), dict(sigma=False),
                dict(master_cells=512.7), dict(master_cells=True),
                dict(master_cells="512")):
        with pytest.raises(ModelInitError):
            EllipticFlux1D(**bad)
    with pytest.raises(ModelInitError):
        ExperimentConfig.from_json(json.dumps({
            "model": {"name": "elliptic-flux-1d", "params": {"rho": math.nan}},
            "y": 0.9, "epsilons": [0.1], "runs": 1})).build_model()


def test_elliptic_draw_is_deterministic(elliptic):
    a = elliptic.draw_batch(5, 2, 9, 10)
    b = elliptic.draw_batch(5, 2, 9, 10)
    np.testing.assert_array_equal(a.fluxes, b.fluxes)
    assert a.exact[0] == b.exact[0]


def test_elliptic_master_grid_reproduces_exact_flux(elliptic):
    h = elliptic.draw_batch(1, 0, 0, 1)
    v, w = solve_one(elliptic, h, 1e-300, 0)
    assert v == elliptic.exact_batch(h)[0]  # bitwise: the master grid is the truth
    assert w == 256.0
    assert h.errors[0, -1] == 0.0


def test_elliptic_selected_cells_monotone_in_tolerance(elliptic):
    h = elliptic.draw_batch(2, 0, 3, 4)
    t, prev_cells = 1.0, 0.0
    for _ in range(20):
        _, cells = solve_one(elliptic, h, t, 0)
        assert cells >= prev_cells
        prev_cells = cells
        t /= 2.0


def fields(model, seed, level, lo, hi):
    """Coefficient fields of realizations lo..hi-1, one row each, as
    ``EllipticFlux1D.draw_batch`` builds them with ``_fill_fields``: counters
    from 0 under the key offset to row lo's first counter, lo * m."""
    m = model.master_cells
    counters = np.arange((hi - lo) * m, dtype=np.uint64)
    return model._fill_fields(offset_key(derive_key(seed, level, 0), lo * m), counters,
                              np.empty(counters.size), np.empty(counters.size))


def cholesky_fields(model, seed, level, lo, hi):
    """Fields of rows lo..hi-1 through a dense Cholesky factor of the
    covariance sigma**2 * exp(-|x1 - x2| / rho) on the master midpoints."""
    m = model.master_cells
    x = (np.arange(m) + 0.5) / m
    cov = model.sigma ** 2 * np.exp(-np.abs(x[:, None] - x[None, :]) / model.rho)
    chol = np.linalg.cholesky(cov) if model.sigma > 0.0 else np.zeros((m, m))
    z = normal_at(derive_key(seed, level, 0), np.arange(lo * m, hi * m, dtype=np.uint64))
    return np.exp(z.reshape(hi - lo, m) @ chol.T)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize("rho", [0.1, 0.01])
def test_elliptic_fields_match_dense_cholesky(sigma, rho):
    model = EllipticFlux1D(sigma=sigma, rho=rho, master_cells=64)
    np.testing.assert_allclose(fields(model, 17, 3, 40, 240),
                               cholesky_fields(model, 17, 3, 40, 240),
                               rtol=1e-12, atol=1e-12)


def rowwise_fill_fields(model, key, counters, field, scratch):
    """The AR(1) doubling steps run row by row on 2D views of the block: the
    reference the flat passes of ``EllipticFlux1D._fill_fields`` must match
    bit for bit."""
    m = model.master_cells
    g = normal_at(key, counters, out=field).reshape(-1, m)
    step = scratch.reshape(-1, m)
    g[:, 0] *= model.sigma
    g[:, 1:] *= model._innovation
    s = 1
    while s < m:
        np.multiply(g[:, :-s], model._phi ** s, out=step[:, :-s])
        g[:, s:] += step[:, :-s]
        s *= 2
    return np.exp(g, out=g)


@pytest.mark.parametrize("m", [1, 2, 4, 64, 512])
@pytest.mark.parametrize("rho, sigma", [(0.01, 1.0), (0.1, 1.0), (10.0, 1.0), (0.1, 0.0)])
def test_elliptic_fields_match_rowwise_reference_bitwise(monkeypatch, m, rho, sigma):
    model = EllipticFlux1D(sigma=sigma, rho=rho, master_cells=m)
    block = max(1, models._FIELD_BLOCK // m)
    lo, hi = 3, 3 + 3 * block + block // 2  # three whole blocks and a partial one
    flat_fields = fields(model, 9, 2, lo, hi)
    # the reference reads absolute counters under the level's own key, so it
    # also checks that the offset key of ``fields`` addresses the same normals
    counters = np.arange(lo * m, hi * m, dtype=np.uint64)
    reference = rowwise_fill_fields(model, derive_key(9, 2, 0), counters,
                                    np.empty(counters.size), np.empty(counters.size))
    assert flat_fields.shape == reference.shape == (hi - lo, m)
    assert flat_fields.tobytes() == reference.tobytes()
    if sigma == 0.0:
        assert np.all(flat_fields == 1.0)
    flat = model.draw_batch(9, 2, lo, hi)
    monkeypatch.setattr(model, "_fill_fields",
                        lambda *args: rowwise_fill_fields(model, *args))
    rowwise = model.draw_batch(9, 2, lo, hi)
    assert flat.fluxes.tobytes() == rowwise.fluxes.tobytes()


def test_elliptic_flux_between_extreme_conductivities(elliptic):
    # series-network bound against the coefficient field
    for i, a in enumerate(fields(elliptic, 3, 0, 0, 10)):
        exact = elliptic.exact_batch(elliptic.draw_batch(3, 0, i, i + 1))[0]
        assert a.min() - 1e-12 <= exact <= a.max() + 1e-12


def test_elliptic_field_variance_and_correlation(elliptic):
    n = 10_000
    m = elliptic.master_cells
    probes = [0, m // 3, m // 2, m - 1]
    rows = np.log(fields(elliptic, 60, 0, 0, n))
    kappa = rows[:, probes]
    var = kappa.var(axis=0)
    assert np.all(var > 0.94) and np.all(var < 1.06)
    # correlation at one correlation length ~ 1/e
    d = int(round(elliptic.rho * m))
    corr = np.corrcoef(rows[:, m // 4], rows[:, m // 4 + d])[0, 1]
    assert abs(corr - math.exp(-1.0)) < 0.05


def test_elliptic_error_decay_rate(elliptic):
    # median coarse-grid error decays roughly like the mesh width
    batch = elliptic.draw_batch(71, 0, 0, 1000)
    med = np.median(batch.errors, axis=0)
    cells = np.array(elliptic._grids, dtype=float)
    lo, hi = 2, 7  # skip the coarsest grids and the exact master grid
    slope = np.polyfit(np.log(cells[lo:hi]), np.log(med[lo:hi]), 1)[0]
    assert -1.5 < slope < -0.7


def test_elliptic_zero_variance_field():
    model = EllipticFlux1D(sigma=0.0, master_cells=64)
    h = model.draw_batch(0, 0, 0, 1)
    assert h.exact[0] == 1.0
    v, w = solve_one(model, h, 0.5, 0)
    assert v == 1.0 and w == 1.0  # constant field: coarsest grid is exact


def test_elliptic_batch_draw_matches_scalar(elliptic):
    assert_draw_is_chunk_invariant(elliptic, 13, 2)


def test_elliptic_draw_reuses_its_workspace_across_blocks(elliptic):
    # three whole field blocks and a partial fourth in one draw: the rows on
    # both sides of every block edge equal one-row draws bit for bit
    block = models._FIELD_BLOCK // elliptic.master_cells
    lo = 3
    batch = elliptic.draw_batch(21, 1, lo, lo + 3 * block + block // 2)
    rows = [0, batch.exact.size - 1]
    rows += [edge + side for edge in (block, 2 * block, 3 * block) for side in (-1, 0)]
    for pos in rows:
        one = elliptic.draw_batch(21, 1, lo + pos, lo + pos + 1)
        np.testing.assert_array_equal(batch.fluxes[pos], one.fluxes[0])
        np.testing.assert_array_equal(batch.errors[pos], one.errors[0])


def test_elliptic_work_units_is_master_bound(elliptic):
    # the worst-case work of a solve is the master grid's cell count
    batch = elliptic.draw_batch(8, 0, 0, 50)
    _, works = elliptic.solve_batch(batch, np.arange(50), 1e-300, 0)
    assert np.all(works == 256.0)
    _, works = elliptic.solve_batch(batch, np.arange(50), 0.01, 0)
    assert np.all(works <= 256.0)
    assert not hasattr(elliptic, "exact_probability")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [SyntheticNormalModel(q=1.5), EllipticFlux1D(master_cells=64)])
def test_all_rows_solve_equals_solves_of_halves(model):
    # a full-length sel reads the rows directly; partial sels pick theirs
    n = 37
    starts = [100]
    if isinstance(model, SyntheticNormalModel):
        # its partial sels fold lo into the stream key as lo * GOLDEN, which
        # wraps modulo 2**64 here (the elliptic counters lo * m would overflow)
        starts.append(2 ** 62 + 3)
    for lo in starts:
        batch = model.draw_batch(4, 3, lo, lo + n)
        for tol, j in ((1.0, 0), (0.125, 3)):
            full = model.solve_batch(batch, np.arange(n), tol, j)
            halves = [model.solve_batch(batch, np.arange(a, b), tol, j)
                      for a, b in ((0, n // 2), (n // 2, n))]
            third = model.solve_batch(batch, np.arange(0, n, 3), tol, j)
            for k in range(2):
                joined = np.concatenate([h[k] for h in halves])
                assert full[k].tobytes() == joined.tobytes()
                assert full[k][::3].tobytes() == third[k].tobytes()


def test_build_model_registry():
    m = build_model("synthetic-normal", {"q": 2.0})
    assert isinstance(m, SyntheticNormalModel) and m.q == 2.0
    e = build_model("elliptic-flux-1d", {"master_cells": 32})
    assert isinstance(e, EllipticFlux1D)
    with pytest.raises(ModelInitError):
        build_model("galton-board")
    with pytest.raises(ModelInitError):
        build_model("synthetic-normal", {"qq": 2.0})
