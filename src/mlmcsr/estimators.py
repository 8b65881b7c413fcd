"""Core estimator pieces for the multilevel failure-probability method.

The quantity of interest is p = Pr(X <= y).  Level-l approximations
X_l are accurate to gamma**l, the level-l functional is the indicator
Q_l = 1(X_l <= y), and the multilevel estimator telescopes over the
correctors Y_l = Q_l - Q_{l-1} (with Q_{-1} = 0, so the level-0
"corrector" is Q_0 itself).  Because indicators are binary, each
corrector takes values in {-1, 0, +1} and a trinomial tally of signs
is a sufficient statistic for everything this module estimates.

Positive-part and negative-part probabilities are estimated with a
pseudo-count shrinkage estimator whose relative variance is bounded by
1/(4k); those bounds drive both the moment estimates and the sample
allocation, which makes the estimator conservative rather than lucky
when counts are small.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InsufficientSamplesError",
    "LevelSchedule",
    "EstimatorConfig",
    "CorrectorTally",
    "MomentEstimates",
    "shrinkage_estimate",
    "corrector_moments",
    "level0_moments",
    "level0_allocation_variance",
    "cost_per_sample",
    "allocate",
    "optimal_allocation",
    "mlmc_combine",
    "bias_bound",
    "termination_check",
]


class InsufficientSamplesError(ValueError):
    """Raised when an estimate is requested from too small a tally."""


def is_integer(value) -> bool:
    """True for an integer (numpy's included) that is not a bool: what a
    count, a level or a seed must be."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for a finite real number (numpy's included) that is not a
    bool: what a tolerance, a threshold or a model parameter must be."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _tiny_epsilon(epsilon) -> str:
    return f"epsilon={epsilon} is too small: 2 * epsilon**-2 overflows a float"


@dataclass(frozen=True)
class LevelSchedule:
    """Geometric accuracy ladder: level l is solved to tolerance gamma**l.

    ``q`` is the work exponent of the underlying solver: one solve to
    tolerance t costs on the order of t**-q work units.
    """

    gamma: float = 0.5
    q: float = 1.0

    def __post_init__(self) -> None:
        if not (is_finite_real(self.gamma) and 0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")
        if not (is_finite_real(self.q) and self.q > 0.0):
            raise ValueError(f"q must be finite and positive, got {self.q}")

    def tolerance(self, level: int) -> float:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return self.gamma ** level


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything one estimator run needs.

    ``N`` is the base of the mandatory sample size N * gamma**-L drawn
    whenever level L is opened; ``k`` is the shrinkage pseudo-count.
    Runs always refine with the certified guard (see the refinement
    module).  ``schedule`` is the ``LevelSchedule(gamma, q)`` built once
    at construction.
    """

    y: float
    epsilon: float
    gamma: float = 0.5
    q: float = 1.0
    N: int = 10
    k: float = 1.0
    max_level: int = 30
    schedule: LevelSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("y", "epsilon", "gamma", "q", "k"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be finite and a real number, got {value!r}")
        for name in ("N", "max_level"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        try:
            scale = 2.0 * float(self.epsilon) ** -2  # allocate's variance scale
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(_tiny_epsilon(self.epsilon))
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.k <= 0.0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_level < 2:
            raise ValueError(f"max_level must be >= 2, got {self.max_level}")
        # validates gamma and q
        object.__setattr__(self, "schedule", LevelSchedule(self.gamma, self.q))


@dataclass(slots=True)
class CorrectorTally:
    """Trinomial tally of corrector observations at one level.

    ``n_plus`` and ``n_minus`` count corrector values +1 and -1.  At
    level 0 the observations are the indicators themselves, so
    ``n_plus`` counts the hits and ``n_minus`` stays 0.  The drivers add
    each chunk's counts to the fields and ``check`` the sums once.
    """

    level: int
    n: int = 0
    n_plus: int = 0
    n_minus: int = 0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        self.check()

    def check(self) -> None:
        """Raise ValueError unless the counts form a valid tally."""
        if self.n < 0 or self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("tally counts must be non-negative")
        if self.n_plus + self.n_minus > self.n:
            raise ValueError("n_plus + n_minus exceeds n")
        if self.level == 0 and self.n_minus != 0:
            raise ValueError("level-0 indicators cannot be negative")


@dataclass(frozen=True, slots=True)
class MomentEstimates:
    """Conservative first/second moment bounds for one level's corrector."""

    level: int
    mean_bound: float
    var_bound: float


def shrinkage_estimate(x: int, n: int, k: float) -> float:
    """Shrinkage probability estimate (x + k) / (n + k).

    The pseudo-count k pulls the estimate away from 0 so that the
    relative variance V/E^2 never exceeds 1/(4k), no matter how small
    the true probability is.
    """
    if k <= 0.0:
        raise ValueError(f"pseudo-count k must be positive, got {k}")
    if x < 0 or n < 0 or x > n:
        raise ValueError(f"need 0 <= x <= n, got x={x}, n={n}")
    return (x + k) / (n + k)


def corrector_moments(tally: CorrectorTally, k: float) -> MomentEstimates:
    """Moment bounds for a level >= 1 corrector from its sign tally.

    |E[Y_l]| <= max(p_plus, p_minus) and V[Y_l] <= p_plus + p_minus,
    where the +/- probabilities are shrinkage estimates; the variance
    bound estimates the combined probability directly rather than
    summing the two shrunk parts, so only one pseudo-count enters.
    A tally's counts already satisfy ``shrinkage_estimate``'s checks.
    """
    if tally.level < 1:
        raise ValueError("corrector_moments needs level >= 1; "
                         "level 0 uses level0_moments")
    if k <= 0.0:
        raise ValueError(f"pseudo-count k must be positive, got {k}")
    n_plus, n_minus, nk = tally.n_plus, tally.n_minus, tally.n + k
    mean_bound = max((n_plus + k) / nk, (n_minus + k) / nk)
    var_bound = (n_plus + n_minus + k) / nk
    return MomentEstimates(tally.level, mean_bound, var_bound)


def level0_moments(tally: CorrectorTally) -> MomentEstimates:
    """Plain sample mean and unbiased sample variance for level 0."""
    if tally.level != 0:
        raise ValueError(f"level0_moments got a level-{tally.level} tally")
    if tally.n < 2:
        raise InsufficientSamplesError(
            f"need at least 2 observations for a variance, got {tally.n}"
        )
    mean = tally.n_plus / tally.n
    var = (tally.n_plus - tally.n * mean * mean) / (tally.n - 1)
    return MomentEstimates(0, mean, max(var, 0.0))


def level0_allocation_variance(tally: CorrectorTally, k: float) -> float:
    """Never-zero variance proxy for allocating level-0 samples.

    The raw sample variance of a small all-equal indicator pilot is
    exactly zero, and a zero variance starves level 0 in the work
    allocation permanently (sizes are monotone, so the level never
    gets the samples that would reveal the truth).  Smoothing the
    proportion with the pseudo-count keeps the allocation variance
    positive; with any informative sample the two estimates agree to
    O(1/n) and the max is the honest one.
    """
    if tally.level != 0:
        raise ValueError(f"level0_allocation_variance got a level-{tally.level} tally")
    if k <= 0.0:
        raise ValueError(f"pseudo-count k must be positive, got {k}")
    if tally.n < 1:
        raise InsufficientSamplesError("need at least 1 observation")
    p = (tally.n_plus + k) / (tally.n + 2.0 * k)
    smoothed = p * (1.0 - p)
    if tally.n < 2:
        return smoothed
    return max(level0_moments(tally).var_bound, smoothed)


@functools.lru_cache(maxsize=1024, typed=True)
def cost_per_sample(level: int, schedule: LevelSchedule) -> float:
    """Expected work of one level-l corrector sample.

    That is the selectively refined level-l functional alone: the
    level-(l-1) functional is the same refinement before its last rung,
    so its solves are already paid for.  It pays for the whole
    refinement ladder weighted by the shrinking fraction of
    realizations that reach each rung: sum_{j=0..l} gamma**((1-q) j).
    Memoized per (level, schedule).
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    r = schedule.gamma ** (1.0 - schedule.q)
    return float(sum(r ** j for j in range(level + 1)))


def allocate(variances: Sequence[float], costs: Sequence[float], epsilon: float) -> np.ndarray:
    """Work-optimal int64 sample sizes meeting sum(V_l / N_l) = epsilon**2 / 2.

    N_l = ceil(2 eps^-2 sqrt(V_l / c_l) * sum_k sqrt(V_k c_k)), floored
    at one sample per level.  If every variance is zero the constraint
    is vacuous and the allocation degenerates to one sample everywhere.
    Raises ValueError when a size is not finite or reaches 2**63, or
    when epsilon**-2 overflows.
    ``total`` is numpy's (pairwise) sum; the rest runs on Python floats.
    """
    v = np.asarray(variances, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if v.shape != c.shape or v.ndim != 1 or v.size == 0:
        raise ValueError("variances and costs must be equal-length 1-D sequences")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    v, c = v.tolist(), c.tolist()
    if any(vl < 0.0 or cl <= 0.0 for vl, cl in zip(v, c)):
        raise ValueError("variances must be >= 0 and costs > 0")
    total = float(np.add.reduce(np.array([math.sqrt(vl * cl) for vl, cl in zip(v, c)])))
    if total == 0.0:
        return np.ones(len(v), dtype=np.int64)
    try:
        scale = float(2.0 * epsilon ** -2)
    except OverflowError:  # a Python float's power; a numpy float's is inf
        raise ValueError(_tiny_epsilon(epsilon)) from None
    raw = [scale * math.sqrt(vl / cl) * total for vl, cl in zip(v, c)]
    if not all(r < 2.0 ** 63 for r in raw):  # also catches NaN and inf
        raise ValueError(f"sample sizes {raw} do not fit a 64-bit count")
    return np.array([max(math.ceil(r), 1) for r in raw], dtype=np.int64)


def optimal_allocation(
    moments: Sequence[MomentEstimates],
    schedule: LevelSchedule,
    epsilon: float,
) -> np.ndarray:
    """Sample sizes from per-level moment bounds and the schedule's cost model."""
    if not moments:
        raise ValueError("need moment estimates for at least one level")
    levels = [m.level for m in moments]
    if levels != list(range(len(moments))):
        raise ValueError(f"moments must cover levels 0..L contiguously, got {levels}")
    variances = [m.var_bound for m in moments]
    costs = [cost_per_sample(l, schedule) for l in levels]
    return allocate(variances, costs, epsilon)


def mlmc_combine(tallies: Sequence[CorrectorTally]) -> float:
    """Telescoped estimate: the sum of every level's mean (n_plus - n_minus) / n.

    The result is reported raw; it can leave [0, 1] by sampling noise
    and consumers decide whether to clamp.
    """
    if not tallies:
        raise ValueError("need tallies for at least level 0")
    levels = [t.level for t in tallies]
    if levels != list(range(len(tallies))):
        raise ValueError(f"tallies must cover levels 0..L contiguously, got {levels}")
    total = 0.0
    for t in tallies:
        if t.n == 0:
            raise InsufficientSamplesError(f"level {t.level} has no samples")
        total += (t.n_plus - t.n_minus) / t.n
    return total


def bias_bound(moments: MomentEstimates, gamma: float) -> float:
    """Remaining-bias bound from the last corrector's mean bound.

    Corrector means shrink geometrically with ratio gamma, so the
    discarded tail is at most mean_bound * gamma / (1 - gamma), i.e.
    mean_bound / (1/gamma - 1).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return moments.mean_bound / (1.0 / gamma - 1.0)


def termination_check(
    moments_prev: MomentEstimates,
    moments_last: MomentEstimates,
    schedule: LevelSchedule,
    epsilon: float,
) -> tuple[bool, float, float]:
    """Decide whether the level hierarchy is deep enough.

    Returns (accepted, lhs, rhs) and accepts when lhs < rhs, with
    lhs = max(gamma * |E[Y_{L-1}]|, |E[Y_L]|) and rhs = (1/gamma - 1) *
    epsilon / sqrt(2): the larger of the extrapolated and observed last
    corrector magnitudes must fit the bias half of the error budget.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lhs = max(
        schedule.gamma * moments_prev.mean_bound,
        moments_last.mean_bound,
    )
    rhs = (1.0 / schedule.gamma - 1.0) * epsilon / math.sqrt(2.0)
    return lhs < rhs, lhs, rhs
