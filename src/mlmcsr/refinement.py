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
model's ``solve_batch``.  It keeps no per-row value: for each row it
writes one code 3 * stop + sign + 1 (stop rung and corrector sign) and
the work of its solves, and it counts the codes from the sizes of the
rungs' active sets as it goes.  ``sample_corrector_batch`` runs it on a
range of indices and returns codes, costs and counts, the form the
drivers fold and store.  ``solve_selective`` is the same kernel on a
batch of one realization; it re-solves the row at its stop rung for
the value, which the model contract makes bit-identical.

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Refine rows 0..n-1 of a drawn batch to ``level`` around ``y``.

    Returns (code, cost, counts) as ``CorrectorBatch`` holds them.  A
    row's stop is the last rung t >= 1 that solved it, or 0.  The
    level-(l-1) functional is this refinement before rung ``level``, so
    only the rows that rung solves can have a nonzero sign, and ``cost``
    is the work of both functionals.  ``counts`` is kept from the sizes
    of the rungs' active sets: a row that stops below ``level`` has sign
    0, and only the last rung's rows are split by sign.
    """
    if rule not in ("certified", "printed"):
        raise ValueError(f"unknown refinement rule {rule!r}")
    active = np.arange(n, dtype=np.int64)
    v, cost = model.solve_batch(batch, active, 1.0, 0)
    code = np.ones(n, dtype=np.min_scalar_type(3 * level + 2))   # stop 0, sign 0
    counts = [0] * (3 * level + 3)   # kept as the codes are written
    counts[1] = n
    if level == 0:
        below = v <= y
        code += below
        hits = np.count_nonzero(below)
        counts[1:] = n - hits, hits
    tolerances = [schedule.tolerance(t) for t in range(level + 1)]
    first = 1 if rule == "certified" else 0  # rung t is guarded by gamma**(t - first)
    for t in range(first, level + 1):
        if t == level:
            below = v <= y    # the level-(l-1) indicator of the previous rung's rows
        np.subtract(v, y, out=v)
        keep = np.abs(v, out=v) < tolerances[t - first]
        active = active.compress(keep)
        if active.size == 0:
            break
        v, w = model.solve_batch(batch, active, tolerances[t], t)
        w += cost[active]
        cost[active] = w
        if t == 0:
            continue   # the printed rule's tolerance-1 re-solve leaves stop at 0
        counts[3 * t - 2] -= active.size   # these rows leave stop t - 1
        if t < level:
            code[active] = 3 * t + 1
            counts[3 * t + 1] = active.size
            continue
        # the last rung: each row's sign is now - below
        below, now = below.compress(keep), v <= y
        last = np.add(now, 3 * level + 1, dtype=code.dtype)
        code[active] = np.subtract(last, below, out=last)
        plus, minus = np.count_nonzero(now > below), np.count_nonzero(now < below)
        counts[3 * level:] = minus, active.size - plus - minus, plus
    return code, cost, np.array(counts, dtype=np.int64)


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
    code, cost, _ = _refine(model, handle, 1, level, y, schedule, rule)
    # the value is the solve at the stop rung, which a repeated solve
    # at the same tol_index reproduces bit for bit
    stop = int(code[0]) // 3
    value, _ = model.solve_batch(handle, np.zeros(1, dtype=np.int64),
                                 schedule.tolerance(stop), stop)
    return RealizationState(sid, level, float(value[0]), stop, float(cost[0]))


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

    ``code`` holds each row's outcome 3 * stop + sign + 1, in the
    smallest unsigned dtype that holds 3 * level + 2: one byte up to
    level 84, two up to level 21844.  ``sign`` is the corrector
    Y_l = Q_l - Q_(l-1) in {-1, 0, +1}; at level 0 it is the indicator
    Q_0 itself.  ``stop`` is the ladder index 0..level at which the
    row's refinement stopped; at levels >= 1 only rows with
    ``stop == level`` can have a nonzero sign.  ``counts`` is
    ``np.bincount(code, minlength=3 * level + 3)``, what the drivers
    fold.  ``cost_fine`` is the work of the level-l refinement, which is
    the corrector's whole work: the level-(l-1) functional is that
    refinement before its last rung and makes no solve of its own.
    """

    level: int
    lo: int
    hi: int
    code: np.ndarray
    cost_fine: np.ndarray
    counts: np.ndarray

    @property
    def sign(self) -> np.ndarray:
        """Each row's corrector (int8), from its code."""
        return (self.code % 3).astype(np.int8) - 1

    @property
    def stop(self) -> np.ndarray:
        """Each row's stop rung, from its code."""
        return self.code // 3


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
    code, cost, counts = _refine(model, batch, hi - lo, level, y, schedule, "certified")
    return CorrectorBatch(level, lo, hi, code, cost, counts)
