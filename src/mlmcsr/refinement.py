"""Selective refinement of realizations, one batched kernel.

A realization only needs to be solved accurately enough to decide its
indicator 1(X <= y).  Starting from a cheap tolerance-1 solve, the
kernel halves the tolerance (by factor gamma) while the certified error
band still straddles y, and stops as soon as either the level's target
tolerance gamma**level is reached or the value is provably on one side
of y.  At exit the realization satisfies the accuracy contract

    |X - value| <= gamma**level   or   |X - value| < |value - y|,

which is exactly what the multilevel telescope needs from samples.

The kernel refines every row of a drawn batch at once through the
model's ``solve_batch``: ``sample_corrector_batch`` runs it on a range
of indices and returns each row's corrector sign, stop rung and cost,
and ``solve_selective`` is the same kernel on a batch of one realization.

Two guard variants run the same loop: a row is solved at rung t while
the guard tolerance exceeds |value - y|.  They differ only in which
rung's tolerance is the guard:

* ``certified`` (default): rung t - 1's, the one just certified.  At a
  guard exit the certified error is at most |value - y|, so the
  contract above holds by construction.
* ``printed``: rung t's own, as the loop is usually printed (with a
  redundant tolerance-1 re-solve at t = 0).  This stops one rung
  earlier and can exit with a certified tolerance looser than
  |value - y|, so the contract can fail for a few percent of
  realizations near y.  It is kept for reproducing hand traces and for
  comparison, not for production estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .estimators import LevelSchedule

__all__ = [
    "SampleId",
    "ModelContract",
    "RealizationState",
    "CorrectorBatch",
    "solve_selective",
    "sample_corrector_batch",
    "assumption_holds",
]


@dataclass(frozen=True)
class SampleId:
    """Identity of one realization: (run seed, level, sample index).

    The realization's entire random stream is derived from these three
    integers, so any sample can be regenerated from its id alone.
    """

    seed: int
    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or self.index < 0:
            raise ValueError(f"level and index must be >= 0, got {self}")


class ModelContract(Protocol):
    """What a model must provide to be driven by this package.

    ``draw_batch(seed, level, lo, hi)`` materializes realizations
    lo..hi-1 of a level; row i depends on (seed, level, lo + i) alone.
    ``solve_batch(batch, sel, tolerance, tol_index)`` returns (values,
    works) for the selected rows with the hard guarantee
    |X - value| <= tolerance; repeated calls with the same tol_index
    return the same values.  ``sel`` is an int array of strictly
    increasing row positions, so a ``sel`` as long as the batch selects
    every row in order and the model may read its rows without
    gathering them.  Both results are new float64 arrays owned by the
    caller, which refines them in place.  ``batch_chunk`` is the number
    of realizations the drivers hand to one ``draw_batch`` call; keep a
    chunk's arrays to a few hundred KiB, because large per-chunk
    temporaries go back to the operating system when freed and cost
    fresh page faults on every chunk.

    Models may additionally provide ``exact_batch(batch)`` and
    ``exact_probability(y)`` as test oracles.
    """

    name: str
    batch_chunk: int

    def draw_batch(self, seed: int, level: int, lo: int, hi: int) -> Any: ...

    def solve_batch(
        self, batch: Any, sel: np.ndarray, tolerance: float, tol_index: int
    ) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass
class RealizationState:
    """Outcome of refining one realization.

    ``achieved_tolerance_index`` is the ladder index j such that
    |X - value| <= gamma**j is certified; ``cost`` is the summed work of
    every solve the refinement made.
    """

    sid: SampleId
    level: int
    value: float
    achieved_tolerance_index: int
    cost: float


def _refine(
    model: ModelContract,
    batch: Any,
    n: int,
    level: int,
    y: float,
    schedule: LevelSchedule,
    rule: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine rows 0..n-1 of a drawn batch to ``level`` around ``y``.

    Returns (value, cost, stop, sign).  ``value`` and ``cost`` are the
    level-l functional and the work of its solves.  ``stop[i]`` is the
    rung at which row i's refinement stopped: the last rung t >= 1 that
    solved it, or 0, in the smallest unsigned dtype that holds
    ``level``.  ``sign`` (int8) is the corrector Q_l - Q_(l-1): at
    level 0 the indicator itself; above it, the level-(l-1) functional
    is this refinement before rung ``level``, so only the rows that
    rung solves can differ, and ``cost`` is the work of both.
    """
    if rule not in ("certified", "printed"):
        raise ValueError(f"unknown refinement rule {rule!r}")
    everyone = np.arange(n, dtype=np.int64)
    value, cost = model.solve_batch(batch, everyone, 1.0, 0)
    stop = np.zeros(n, dtype=np.min_scalar_type(level))
    sign = np.zeros(n, dtype=np.int8)
    tolerances = [schedule.tolerance(t) for t in range(level + 2)]
    first = 1 if rule == "certified" else 0  # rung t is guarded by gamma**(t - first)
    active = (np.abs(value - y) < 1.0).nonzero()[0] if level >= first else None
    for t in range(first, level + 1):
        if active.size == 0:
            break
        v, w = model.solve_batch(batch, active, tolerances[t], t)
        if t == level and level:
            sign[active] = (v <= y).view(np.int8) - (value[active] <= y).view(np.int8)
        value[active] = v
        w += cost[active]
        cost[active] = w
        if t:
            stop[active] = t
        if t == level:   # the last rung: no next active set to build
            break
        np.subtract(v, y, out=v)
        active = active[np.abs(v, out=v) < tolerances[t + 1 - first]]
    if level == 0:
        sign = (value <= y).view(np.int8)
    return value, cost, stop, sign


def _draw_one(model: ModelContract, sid: SampleId) -> Any:
    return model.draw_batch(sid.seed, sid.level, sid.index, sid.index + 1)


def solve_selective(
    model: ModelContract,
    sid_or_handle: SampleId | Any,
    level: int,
    y: float,
    schedule: LevelSchedule,
    rule: str = "certified",
) -> RealizationState:
    """Refine one realization to level ``level`` adaptively around ``y``.

    Accepts either a SampleId (the model draws the realization) or an
    already drawn batch of one, such as ``SyntheticNormalModel.from_omega``
    returns; its ``seed``, ``level`` and ``lo`` name the realization.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if isinstance(sid_or_handle, SampleId):
        sid, handle = sid_or_handle, _draw_one(model, sid_or_handle)
    else:
        handle = sid_or_handle
        sid = SampleId(handle.seed, handle.level, handle.lo)
    value, cost, stop, _ = _refine(model, handle, 1, level, y, schedule, rule)
    return RealizationState(sid, level, float(value[0]), int(stop[0]), float(cost[0]))


def assumption_holds(model: ModelContract, state: RealizationState, y: float,
                     schedule: LevelSchedule, handle: Any = None) -> bool:
    """Check the accuracy contract of a refined realization exactly.

    Requires the model to expose ``exact_batch``; used as a test oracle.
    ``handle`` is the realization's batch of one, drawn from
    ``state.sid`` when not given.
    """
    if handle is None:
        handle = _draw_one(model, state.sid)
    exact = float(model.exact_batch(handle)[0])  # type: ignore[attr-defined]
    err = abs(exact - state.value)
    return err <= schedule.tolerance(state.level) or err < abs(state.value - y)


@dataclass
class CorrectorBatch:
    """Per-realization outcomes for indices [lo, hi) of one level.

    ``sign`` (int8) is each corrector Y_l = Q_l - Q_(l-1) in {-1, 0, +1};
    at level 0 it is the indicator Q_0 itself.  ``stop`` is the ladder
    index 0..level at which each realization's refinement stopped, in the
    smallest unsigned dtype that holds ``level``; at levels >= 1 only
    rows with ``stop == level`` can have a nonzero sign.  ``cost_fine``
    is the work of the level-l refinement, which is the corrector's
    whole work: the level-(l-1) functional is that refinement before its
    last rung and makes no solve of its own.
    """

    level: int
    lo: int
    hi: int
    sign: np.ndarray
    stop: np.ndarray
    cost_fine: np.ndarray


def sample_corrector_batch(
    model: ModelContract,
    seed: int,
    level: int,
    lo: int,
    hi: int,
    y: float,
    schedule: LevelSchedule,
) -> CorrectorBatch:
    """Draw and refine realizations lo..hi-1 of one level to their correctors.

    Refines with the certified guard.  Raises ValueError unless
    0 <= level and 0 <= lo <= hi.
    """
    if level < 0 or lo < 0:
        raise ValueError(f"level and lo must be >= 0, got level {level}, lo {lo}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi})")
    batch = model.draw_batch(seed, level, lo, hi)
    _, cost, stop, sign = _refine(model, batch, hi - lo, level, y, schedule, "certified")
    return CorrectorBatch(level, lo, hi, sign, stop, cost)
