"""Good/bad cube classification, boundary-layer decay, and their Monte Carlo estimates.

A cube at level k is good when, for every cube at every level n that is
coarser by at least r levels, it is either far from that cube or far from its
complement, at the mixed-scale threshold delta**(k*gamma + n*(1-gamma)).  The
quantifier over the coarse cubes is universal, matching how the failure
probabilities are summed over all coarser scales.  Set distances are min over
member pairs and the distance to an empty set is +inf, so a coarse cube that
swallows the whole space never hurts.

Each threshold rule takes one side, stated here as a test on the points
near the cube: a cube straddles a coarse cube, and is bad, when some point
strictly closer than the threshold to the cube lies inside the coarse cube
and some lies outside it, so a distance equal to the threshold is far; the
deep-inside step makes its claim only where no point outside the ancestor's
cube lies within twice the threshold of the center, a closed side; and a
point x lies in its cube's boundary layer of width eps when its distance to
the cube's complement is at most eps * scale, also closed, as is the bound
eps <= delta / ``EPS_DIVISOR`` on the widths.

The straddle test of one coarse level is written once, on one distance row
and cube matrices with any leading batch axes: it counts the near points
inside each coarse cube against all near points.  One core classifies a
center's cube in one pass over its tested levels, coarsest first, from one
distance row: at each level the straddle mask of the coarse cubes gives
goodness (bad when some entry is true) and the deep-inside step (the entry
at the center's ancestor, with the points near the center tested only where
it is true).  The trial row, ``is_good`` and ``theorem_step_violations`` all
read that core.  The exact P(good) applies the same test to every parent map
of a level at once, in a pruned walk over the outcomes that builds no forest.

The three estimators share one trial pipeline: trial t draws the grids, then
the parents, from its own stream ``trial_rng(seed, t)``, and only then makes
the estimator's own draws (the equalization coin of ``estimate_really_good``).
The trial rows classify the center's cube from its row of the forest's cube
table, without building a ``Cube``; the bad-probability and really-good
estimators share one row, whose bad verdict the coin reads.  The trial count
and the master seed follow the integer rule of ``metric``, checked before any
trial runs.  This module supplies what a trial computes (``_trial_part``)
and, for the really-good estimator, the rows of a chunk's matrix of parts
and vector of coins (``_equalized_rows``); ``mc._trial_chunk`` runs the
trials, drawing each stream as if every trial built its own forest while
building each distinct forest of a chunk once, and reads the draws of the
trials it does not build from their streams' words in array math.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (
    CenterNotInGrid,
    InvalidParams,
    InvalidProbabilities,
    ScheduleInvalid,
)
from .grids import DEFAULT_EXHAUSTIVE_LIMIT, GridHierarchy, build_nested_grids, finest_level
from .lattice import (Cube, LatticeForest, _balls, _outcome_frames, _unite_children,
                      build_forest)
from .mc import _master_seed, _trial_chunk, _trial_count, run_chunked, wilson_interval
from .metric import FiniteMetricSpace, _require_integer, max_ball_occupancy

__all__ = [
    "GoodnessParams",
    "BadProbabilityEstimate",
    "DecayFit",
    "is_good",
    "theorem_step_violations",
    "estimate_bad_probability",
    "estimate_boundary_decay",
    "equalize",
    "exact_good_probability",
    "estimate_really_good",
]

EPS_DIVISOR = 500           # every boundary layer width eps satisfies eps <= delta / 500


@dataclass(frozen=True)
class GoodnessParams:
    """Scale ratio, depth exponent, and minimum level gap for goodness tests."""
    delta: float
    gamma: float
    r: int

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InvalidParams("delta must lie in (0, 1)")
        if not 0 < self.gamma < 1:
            raise InvalidParams("gamma must lie in (0, 1)")
        object.__setattr__(self, "r", _require_integer("r", self.r, 1))
        if self.delta ** (self.r * (1 - self.gamma)) >= 0.5:
            raise InvalidParams(
                "need delta**(r*(1-gamma)) < 1/2; increase r or decrease delta")

    def threshold(self, k: int, n: int) -> float:
        return self.delta ** (k * self.gamma + n * (1 - self.gamma))


def _distance_row(space: FiniteMetricSpace, inside: np.ndarray) -> np.ndarray:
    """Distance from the point set of a mask to each point of the space, per
    row of the mask; +inf where the set is empty."""
    return np.where(inside[..., None], space.d, np.inf).min(axis=-2)


def _straddles(row: np.ndarray, inside: np.ndarray, threshold: float):
    """The bad test, per row of the mask: the point set of the distance row
    lies closer than the threshold to both the cube and its complement.
    ``row`` is one 1-D distance row, from that set to each point; the near
    points are those strictly closer than the threshold, and the cube is
    straddled when some near point lies inside it and some outside it."""
    near = row < threshold
    hits = (inside & near).sum(axis=-1)
    return (hits > 0) & (hits < near.sum())


def is_good(forest: LatticeForest, cube: Cube, params: GoodnessParams) -> bool:
    """Universal goodness test against every cube coarser by at least r levels.

    Levels with no grid coarser by r are vacuously fine (empty quantifier).
    The cube must be the forest's own: the verdict is that of the forest's
    cube at ``(cube.level, cube.center)``, and a level that is not the
    hierarchy's is refused with InvalidParams.
    """
    return not _verdicts(forest, cube.level, cube.center, params)[0]


def theorem_step_violations(forest: LatticeForest, cube: Cube,
                            params: GoodnessParams) -> list[int]:
    """Check the deep-inside step: an ancestor holding the center deeper than
    twice the threshold must pass that ancestor's goodness test.

    Returns the levels at which the implication failed (expected empty).  The
    cube must be the forest's own, as for ``is_good``.
    """
    return _verdicts(forest, cube.level, cube.center, params)[1]


# --- Monte Carlo estimators -----------------------------------------------------


@dataclass(frozen=True)
class BadProbabilityEstimate:
    trials: int
    bad_count: int
    fraction: float
    wilson_low: float
    wilson_high: float
    step_violations: int  # failures of the deep-inside implication across trials
    seed: int


@dataclass(frozen=True)
class DecayFit:
    eps: tuple[float, ...]
    counts: tuple[int, ...]
    estimates: tuple[float, ...]
    intervals: tuple[tuple[float, float], ...]
    trials: int
    eta_hat: float | None
    eta_reference: float | None
    seed: int


def _trial_part(space: FiniteMetricSpace, params: GoodnessParams, coarsest_level: int,
                mode: str, limit: int, row, rng: np.random.Generator):
    """One trial's part: the grids, then the parents, drawn from ``rng``, and
    ``row`` of the forest.  Module-level, so that its partials pickle into the
    worker pool."""
    hierarchy = build_nested_grids(space, params.delta, coarsest_level, rng,
                                   mode=mode, limit=limit)
    return row(build_forest(hierarchy, rng))


def _require_center(hierarchy: GridHierarchy, level: int, center: int) -> None:
    """Raise unless the level is the hierarchy's and its grid holds the fixed
    center, which a sampled grid may have dropped."""
    hierarchy._require_level(level)
    if center not in hierarchy.grid(level).members:
        raise CenterNotInGrid(
            f"fixed center {center} absent from the level-{level} grid; "
            f"fix the center at the deterministic finest level")


def _verdicts(forest: LatticeForest, level: int, center: int,
              params: GoodnessParams) -> tuple[bool, list[int]]:
    """Whether the center's cube at ``level`` is bad, and the levels at which
    the deep-inside step fails for it, in one pass over the levels n coarser
    by at least r, in ascending order.  At each, the cube is bad when it
    straddles some level-n cube, and the step fails when it straddles the
    cube of the center's level-n ancestor while no point outside that cube
    lies within twice the threshold of the center (closed: a point at exactly
    twice the threshold keeps the step's claim off).  The center's chain is
    walked once, at the first tested level."""
    _require_center(forest.hierarchy, level, center)
    rows, held = forest.cube_table[level]
    row = _distance_row(forest.space, held[rows[center]])
    bad, step_levels, chain = False, [], None
    for n in forest.levels:
        if n > level - params.r:
            break
        threshold = params.threshold(level, n)
        rows, held = forest.cube_table[n]
        straddled = _straddles(row, held, threshold)
        bad |= straddled.any()
        chain = chain or forest.chain(center, level, forest.levels[0])
        anc = rows[chain[level - n]]
        if straddled[anc] and not (~held[anc] & (forest.space.d[center] <= 2 * threshold)).any():
            step_levels.append(n)
    return bad, step_levels


def _bad_row(forest: LatticeForest, params: GoodnessParams, level: int,
             center: int) -> tuple[int, int]:
    """Whether the fixed center's cube is bad, and its count of step
    violations."""
    bad, step_levels = _verdicts(forest, level, center, params)
    return int(bad), len(step_levels)


def estimate_bad_probability(space: FiniteMetricSpace, level: int,
                             center: int | str, params: GoodnessParams,
                             trials: int, seed: int,
                             coarsest_level: int = 0,
                             mode: str = "exhaustive_uniform",
                             limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                             workers: int = 1) -> BadProbabilityEstimate:
    """Fraction of sampled lattices whose cube at the fixed center is bad.

    Draws ``trials`` independent forests from per-trial streams derived from
    the master seed, classifies the center's cube in each, and reports the
    bad fraction with its 95% Wilson interval.  Deterministic for a fixed
    master seed, independent of the worker count.
    """
    trials = _trial_count(trials)
    seed = _master_seed(seed)
    center = space.resolve(center)
    row = partial(_bad_row, params=params, level=level, center=center)
    build = partial(_trial_part, space, params, coarsest_level, mode, limit, row)
    rows = run_chunked(_trial_chunk, (seed, build, None), trials, workers)
    bad = int(rows[:, 0].sum())
    low, high = wilson_interval(bad, trials)
    return BadProbabilityEstimate(trials=trials, bad_count=bad,
                                  fraction=bad / trials,
                                  wilson_low=low, wilson_high=high,
                                  step_violations=int(rows[:, 1].sum()),
                                  seed=seed)


def _decay_row(forest: LatticeForest, params: GoodnessParams, x: int,
               level: int, eps_schedule: tuple[float, ...]) -> tuple[int, ...]:
    owner = forest.ancestor(x, forest.hierarchy.finest_level, level)
    rows, held = forest.cube_table[level]
    depth = np.where(held[rows[owner]], np.inf, forest.space.d[x]).min()
    scale = params.delta ** level
    # x is inside its own cube, so layer membership is depth alone
    return tuple(int(depth <= eps * scale) for eps in eps_schedule)


def estimate_boundary_decay(space: FiniteMetricSpace, x: int | str, level: int,
                            eps_schedule: Sequence[float], trials: int, seed: int,
                            params: GoodnessParams,
                            coarsest_level: int = 0,
                            mode: str = "exhaustive_uniform",
                            limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                            workers: int = 1) -> DecayFit:
    """Estimate the probability that x falls in its cube's boundary layer,
    per epsilon of a decreasing schedule, from one shared set of trials.

    Because one trial serves every epsilon, the estimates are monotone by
    construction; a log-log slope is fitted over the positive ones.  The
    reference exponent is log(1-a)/log(delta), with a = 2**-d and d the
    largest open-ball occupancy of the whole space at delta**level, the largest
    radius of the finer levels (None if there are none).  The whole space can
    only overcount a sampled grid, so this is a lower reference, not a fit.
    """
    trials = _trial_count(trials)
    seed = _master_seed(seed)
    if isinstance(eps_schedule, str):
        raise ScheduleInvalid(f"eps schedule must be a sequence, got {eps_schedule!r}")
    try:
        eps = [float(e) for e in eps_schedule]
    except (TypeError, ValueError):
        raise ScheduleInvalid(f"eps values must be numbers, got {eps_schedule!r}") from None
    if not eps or any(not e > 0 for e in eps):
        raise ScheduleInvalid("eps values must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ScheduleInvalid("eps values must be strictly decreasing")
    if any(e > params.delta / EPS_DIVISOR for e in eps):
        raise ScheduleInvalid("every eps must satisfy 500*eps <= delta")
    x = space.resolve(x)
    row = partial(_decay_row, params=params, x=x, level=level,
                  eps_schedule=tuple(eps))
    build = partial(_trial_part, space, params, coarsest_level, mode, limit, row)
    rows = run_chunked(_trial_chunk, (seed, build, None), trials, workers)
    counts = [int(c) for c in rows.sum(axis=0)]
    estimates = [c / trials for c in counts]
    intervals = [wilson_interval(c, trials) for c in counts]

    positive = [(e, p) for e, p in zip(eps, estimates) if p > 0]
    eta_hat = None
    if len(positive) >= 2:  # least-squares slope of log(estimate) against log(eps)
        log_eps, log_p = np.log(positive).T
        eta_hat = float(np.polyfit(log_eps, log_p, 1)[0])

    eta_reference = None
    if level < finest_level(space, params.delta, coarsest_level):
        a_ref = 0.5 ** max_ball_occupancy(space, params.delta ** level)
        if 0 < a_ref < 1:  # 2**-d underflows to 0 past d = 1074
            eta_reference = math.log(1 - a_ref) / math.log(params.delta)
    return DecayFit(eps=tuple(eps), counts=tuple(counts),
                    estimates=tuple(estimates),
                    intervals=tuple(intervals), trials=trials,
                    eta_hat=eta_hat, eta_reference=eta_reference, seed=seed)


# --- equalization -----------------------------------------------------------------

def equalize(p_q: float, a: float, xi: float) -> bool:
    """Really-good verdict: keep a good cube only when xi <= a / p_q.

    With xi uniform on [0, 1] and independent of the lattice, a cube that is
    good with probability p_q is really good with probability exactly a.
    """
    if not 0 < p_q <= 1:
        raise InvalidProbabilities("p_q must lie in (0, 1]")
    if not 0 < a <= p_q:
        raise InvalidProbabilities("need 0 < a <= p_q")
    if not 0 <= xi <= 1:
        raise InvalidProbabilities("xi must lie in [0, 1]")
    return xi <= a / p_q


def exact_good_probability(space: FiniteMetricSpace, center: int | str, level: int,
                           params: GoodnessParams, coarsest_level: int = 0,
                           limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Fraction:
    """Exact rational P(cube of the fixed center is good), over every outcome
    of the construction.

    The cap is that of ``enumerate_forest_outcomes``: every grid outcome and
    its count of forests is listed first, and the same TooLargeForExhaustive
    is raised when the unpruned count exceeds ``lattice.MAX_OUTCOMES``.  No
    forest is built.  Each grid outcome is walked depth-first from the finest
    level to the coarsest: one step builds the cube matrices of the next
    coarser level for all of its parent choices at once, tests them against
    the center's cube when the level is coarser by at least r, and walks on
    only from the good ones, since a bad cube stays bad whatever the coarser
    choices.  The good leaves of a grid outcome, counted at the coarsest
    level, each carry its forests' weight.
    """
    center = space.resolve(center)
    total = Fraction(0)
    for hierarchy, children, weight in _outcome_frames(space, params.delta,
                                                       coarsest_level, limit):
        _require_center(hierarchy, level, center)
        total += weight * _good_leaves(hierarchy, children, level, center, params)
    return total


def _good_leaves(hierarchy: GridHierarchy, children, level: int, center: int,
                 params: GoodnessParams) -> int:
    """The number of parent maps of one grid outcome under which the cube of
    the center at ``level`` is good; ``children`` is the grid outcome's link
    rule from ``_outcome_frames``, whose parent maps of a level hold each
    child's parent as its ball row one level down."""
    levels = hierarchy.levels
    balls = {lev: _balls(hierarchy, lev) for lev in levels}
    maps = {lev: table for lev, *_, table in children}
    center_row = balls[level][0].index(center)

    def walk(lev: int, held: np.ndarray, row: np.ndarray | None) -> int:
        """Good leaves below one level-lev cube matrix; ``row`` is the center's
        distance row on its path once the walk has passed ``level``."""
        if lev == levels[0]:
            return 1
        batch = _unite_children(balls[lev - 1][1], maps[lev], held)
        if lev - 1 == level:
            rows = _distance_row(hierarchy.space, batch[:, center_row])
        else:
            rows = itertools.repeat(row)
            if lev - 1 <= level - params.r:
                threshold = params.threshold(level, lev - 1)
                batch = batch[~_straddles(row, batch, threshold).any(axis=-1)]
        if lev - 1 == levels[0]:
            return len(batch)
        return sum(walk(lev - 1, cubes, r) for cubes, r in zip(batch, rows))

    finest = levels[-1]
    held = balls[finest][1]
    return walk(finest, held, _distance_row(hierarchy.space, held[center_row])
                if finest == level else None)


def _equalized_rows(parts: np.ndarray, xi: np.ndarray, cutoff: float) -> np.ndarray:
    """The really-good verdicts of a chunk's ``_bad_row`` parts, one row per
    trial, each with its own coin xi: the comparison of ``equalize`` at cutoff
    a / p_q, whose checks ``estimate_really_good`` makes once, before the
    first trial."""
    return ((parts[:, :1] == 0) & (xi[:, None] <= cutoff)).astype(np.int64)


def estimate_really_good(space: FiniteMetricSpace, center: int | str, level: int,
                         params: GoodnessParams, a: float, p_q: float,
                         trials: int, seed: int, coarsest_level: int = 0,
                         mode: str = "exhaustive_uniform",
                         limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                         workers: int = 1) -> float:
    """Empirical frequency of the really-good event; expected to match ``a``."""
    trials = _trial_count(trials)
    seed = _master_seed(seed)
    center = space.resolve(center)
    a, p_q = float(a), float(p_q)
    equalize(p_q, a, 0.0)  # refuse a bad pair whatever the draws
    row = partial(_bad_row, params=params, level=level, center=center)
    build = partial(_trial_part, space, params, coarsest_level, mode, limit, row)
    finish = partial(_equalized_rows, cutoff=a / p_q)
    rows = run_chunked(_trial_chunk, (seed, build, finish), trials, workers)
    return float(rows[:, 0].sum() / trials)
