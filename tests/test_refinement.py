"""Selective refinement kernel: hand traces, contract checks, reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlmcsr.estimators import LevelSchedule
from mlmcsr.models import EllipticFlux1D, SyntheticNormalModel
from mlmcsr.refinement import (
    SampleId,
    _refine,
    assumption_holds,
    sample_corrector_batch,
    solve_selective,
)

SCHED = LevelSchedule(gamma=0.5, q=1.0)
Y = 0.8


def fixture_model(q=2.0):
    """Synthetic model with the U = 0.5 fixture stream."""
    return SyntheticNormalModel(q=q, uniform_source=lambda level, index, j: 0.5)


def reference_refine(model, handle, level, y, rule):
    """The refinement guards written as a scalar loop over one drawn row.

    Independent of the kernel under test: every solve is a one-row
    ``solve_batch`` call.  Returns (value, cost, achieved index).
    """
    def solve(tol, j):
        v, w = model.solve_batch(handle, np.array([0]), tol, j)
        return float(v[0]), float(w[0])

    value, cost = solve(1.0, 0)
    if rule == "certified":
        t = 0
        while t < level and SCHED.tolerance(t) > abs(value - y):
            t += 1
            value, work = solve(SCHED.tolerance(t), t)
            cost += work
        return value, cost, t
    achieved = j = 0
    while j <= level and SCHED.tolerance(j) > abs(value - y):
        value, work = solve(SCHED.tolerance(j), j)
        cost += work
        achieved = j
        j += 1
    return value, cost, achieved


def reference_batch(model, seed, level, lo, hi, rule, y=Y):
    """Per-realization reference for ``sample_corrector_batch``: each row
    drawn alone and refined by ``reference_refine`` for both functionals."""
    n = hi - lo
    q_f, q_c = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    c_f = np.zeros(n)
    stop = np.zeros(n, dtype=np.int64)
    for pos, i in enumerate(range(lo, hi)):
        handle = model.draw_batch(seed, level, i, i + 1)
        value, c_f[pos], stop[pos] = reference_refine(model, handle, level, y, rule)
        q_f[pos] = value <= y
        if level >= 1:
            value, _, _ = reference_refine(model, handle, level - 1, y, rule)
            q_c[pos] = value <= y
    return q_f, q_c, c_f, stop


def kernel_chunk(model, seed, level, lo, hi, rule):
    """(sign, stop, cost) of the kernel on rows lo..hi-1 under ``rule``;
    the certified rule runs through ``sample_corrector_batch``."""
    if rule == "certified":
        batch = sample_corrector_batch(model, seed, level, lo, hi, Y, SCHED)
        return batch.sign, batch.stop, batch.cost_fine
    drawn = model.draw_batch(seed, level, lo, hi)
    _, cost, stop, sign = _refine(model, drawn, hi - lo, level, Y, SCHED, rule)
    return sign, stop, cost


def corrector(q_f, q_c):
    return q_f.astype(np.int8) - q_c.astype(np.int8)


# ---------------------------------------------------------------------------
# hand-traced fixtures (printed rule: guard and re-solve share the ladder
# index, including the redundant tolerance-1 re-solve at j = 0)
# ---------------------------------------------------------------------------

def test_printed_trace_flat_realization():
    model = fixture_model()
    st = solve_selective(model, model.from_omega(0.0, level=2), 2, Y, SCHED, rule="printed")
    # omega = 0: value 1/11 stays far from y, only j = 0 runs
    assert st.value == pytest.approx(0.0909090909090909, abs=1e-15)
    assert st.cost == 2.0
    # the whole trace runs at j = 0 (a tolerance-1 solve and its redundant
    # re-solve): stopping at level 0 gives the same state
    lvl0 = solve_selective(model, model.from_omega(0.0, level=2), 0, Y, SCHED, rule="printed")
    assert (lvl0.value, lvl0.cost, lvl0.achieved_tolerance_index) == (st.value, st.cost, 0)
    assert st.achieved_tolerance_index == 0


def test_printed_trace_near_critical_realization():
    model = fixture_model(q=2.0)
    st = solve_selective(model, model.from_omega(0.79, level=2), 2, Y, SCHED, rule="printed")
    assert st.value == pytest.approx(0.8127272727272727, abs=1e-15)
    assert st.cost == 22.0  # 1 + 1 + 4 + 16
    assert st.achieved_tolerance_index == 2
    h = model.from_omega(0.79, level=2)
    traced = [solve_selective(model, h, lev, Y, SCHED, rule="printed") for lev in range(3)]
    assert [round(s.value, 4) for s in traced] == [0.8809, 0.8355, 0.8127]
    assert [s.cost for s in traced] == [2.0, 6.0, 22.0]  # 1 + 1, + 4, + 16


def test_certified_trace_flat_realization():
    # certified guard: one refinement past the initial solve, because the
    # tolerance actually certified (1.0) still straddles y after it
    model = fixture_model(q=2.0)
    st = solve_selective(model, model.from_omega(0.0, level=2), 2, Y, SCHED, rule="certified")
    assert st.value == pytest.approx(0.5 / 11.0, abs=1e-15)
    assert st.cost == 1.0 + 4.0
    assert st.achieved_tolerance_index == 1


def test_certified_trace_near_critical_realization():
    model = fixture_model(q=2.0)
    st = solve_selective(model, model.from_omega(0.79, level=2), 2, Y, SCHED, rule="certified")
    assert st.value == pytest.approx(0.8127272727272727, abs=1e-15)
    assert st.cost == 21.0  # 1 + 4 + 16: no duplicate tolerance-1 solve
    assert st.achieved_tolerance_index == 2


def test_far_realization_costs_one_initial_solve():
    # |value - y| > 1 fails the guard immediately under either rule
    model = fixture_model()
    for rule in ("certified", "printed"):
        st = solve_selective(model, model.from_omega(-5.0, level=3), 3, Y, SCHED, rule=rule)
        assert st.cost == model.work_units(1.0)
        assert st.achieved_tolerance_index == 0


def test_cost_ledger_replays_exactly():
    # the kernel's ledger equals the reference loop's sum of solve works
    model = SyntheticNormalModel(q=2.0)
    for i in range(30):
        st = solve_selective(model, SampleId(11, 4, i), 4, Y, SCHED)
        value, cost, achieved = reference_refine(
            model, model.draw_batch(11, 4, i, i + 1), 4, Y, "certified")
        assert (st.value, st.cost, st.achieved_tolerance_index) == (value, cost, achieved)


def test_state_invariants_on_random_draws():
    model = SyntheticNormalModel(q=1.0)
    for i in range(200):
        st = solve_selective(model, SampleId(3, 5, i), 5, Y, SCHED)
        assert 0 <= st.achieved_tolerance_index <= 5
        handle = model.draw_batch(st.sid.seed, st.sid.level, st.sid.index, st.sid.index + 1)
        assert assumption_holds(model, st, Y, SCHED, handle=handle)
        # outside-band exits decide the indicator exactly
        exact = model.exact_batch(handle)[0]
        err = abs(exact - st.value)
        if err < abs(st.value - Y):
            assert (st.value <= Y) == (exact <= Y)


def test_assumption_holds_on_elliptic_spot_sample():
    model = EllipticFlux1D(master_cells=256)
    sched = LevelSchedule(gamma=0.5, q=1.0)
    for i in range(40):
        sid = SampleId(21, 4, i)
        st = solve_selective(model, sid, 4, 1.0, sched)
        assert assumption_holds(model, st, 1.0, sched)


def test_rule_name_is_validated():
    model = fixture_model()
    with pytest.raises(ValueError):
        solve_selective(model, model.from_omega(0.0), 2, Y, SCHED, rule="eager")


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", ["certified", "printed"])
@pytest.mark.parametrize("level", [0, 1, 4])
def test_batch_matches_scalar_loop_bitwise(rule, level):
    for model in (SyntheticNormalModel(q=2.0), EllipticFlux1D(master_cells=128)):
        sign, stop, cost = kernel_chunk(model, 99, level, 10, 60, rule)
        q_f, q_c, c_f, ref_stop = reference_batch(model, 99, level, 10, 60, rule)
        np.testing.assert_array_equal(sign, corrector(q_f, q_c))
        np.testing.assert_array_equal(cost, c_f)
        np.testing.assert_array_equal(stop, ref_stop)
        for i, expected in enumerate(ref_stop):
            state = solve_selective(model, SampleId(99, level, 10 + i), level, Y, SCHED,
                                    rule=rule)
            assert state.achieved_tolerance_index == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    level=st.integers(0, 6),
    lo=st.integers(0, 1 << 40),
    n=st.integers(0, 40),
    rule=st.sampled_from(["certified", "printed"]),
    q=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_batch_matches_reference_property(level, lo, n, rule, q):
    model = SyntheticNormalModel(q=q)
    sign, stop, cost = kernel_chunk(model, 7, level, lo, lo + n, rule)
    q_f, q_c, c_f, ref_stop = reference_batch(model, 7, level, lo, lo + n, rule)
    assert sign.dtype == np.int8
    np.testing.assert_array_equal(sign, corrector(q_f, q_c))
    assert cost.tobytes() == c_f.tobytes()
    np.testing.assert_array_equal(stop, ref_stop)


@pytest.mark.parametrize("model", [SyntheticNormalModel(q=1.0), SyntheticNormalModel(q=2.0),
                                   EllipticFlux1D(master_cells=64)],
                         ids=["synthetic-q1", "synthetic-q2", "elliptic-m64"])
def test_sign_is_the_corrector_and_sits_on_the_last_rung(model):
    # the kernel decides each sign from rung l's active set alone; the
    # reference refines every row to both levels from scratch
    rng = np.random.default_rng(1408)
    y = 0.99 if isinstance(model, EllipticFlux1D) else Y
    nonzero = 0
    for level in range(9):
        lo = int(rng.integers(0, 1 << 30))
        batch = sample_corrector_batch(model, 23, level, lo, lo + 120, y, SCHED)
        q_f, q_c, _, _ = reference_batch(model, 23, level, lo, lo + 120, "certified", y)
        np.testing.assert_array_equal(batch.sign, corrector(q_f, q_c))
        if level:
            assert np.all(batch.stop[batch.sign != 0] == level)
            nonzero += np.count_nonzero(batch.sign)
    assert nonzero > 0


def test_batch_coarse_is_fine_truncated():
    # the coarse functional shares the fine trajectory, capped one rung
    # earlier
    model = SyntheticNormalModel(q=2.0)
    batch = sample_corrector_batch(model, 31, 5, 0, 2000, Y, SCHED)
    # correctors are sparse: most realizations agree across levels
    assert np.mean(batch.sign != 0) < 0.1


def test_entry_probability_decays_geometrically():
    # fraction of realizations refining past rung j ~ gamma^j
    model = SyntheticNormalModel(q=1.0)
    n = 100_000
    batch = sample_corrector_batch(model, 17, 8, 0, n, Y, SCHED)
    frac = np.array([np.count_nonzero(batch.stop >= j) / n for j in range(1, 7)])
    slope = np.polyfit(np.arange(1, 7), np.log(frac), 1)[0]
    assert -1.3 * np.log(2) < slope < -0.7 * np.log(2)


def test_batch_empty_range():
    model = SyntheticNormalModel()
    batch = sample_corrector_batch(model, 1, 2, 5, 5, Y, SCHED)
    assert batch.sign.size == batch.stop.size == batch.cost_fine.size == 0
    with pytest.raises(ValueError):
        sample_corrector_batch(model, 1, 2, 5, 4, Y, SCHED)


@pytest.mark.parametrize("level, lo, hi", [(-1, 0, 4), (2, -1, 4), (2, -3, -1)])
def test_batch_rejects_negative_level_and_index(level, lo, hi):
    with pytest.raises(ValueError, match=">= 0"):
        sample_corrector_batch(SyntheticNormalModel(), 7, level, lo, hi, Y, SCHED)


@pytest.mark.parametrize("level, index", [(-1, 0), (2, -1)])
def test_sample_id_rejects_negative_level_and_index(level, index):
    with pytest.raises(ValueError, match=">= 0"):
        SampleId(7, level, index)
