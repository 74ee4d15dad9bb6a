"""Good/bad cube classification, boundary layers, and their Monte Carlo estimates.

A cube at level k is good when, for every cube at every level n that is
coarser by at least r levels, it is either far from that cube or far from its
complement, at the mixed-scale threshold delta**(k*gamma + n*(1-gamma)).  The
quantifier over the coarse cubes is universal, matching how the failure
probabilities are summed over all coarser scales.  Set distances are min over
member pairs and the distance to an empty set is +inf, so a coarse cube that
swallows the whole space never hurts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CenterNotInGrid,
    InvalidParams,
    InvalidProbabilities,
    InvalidTrials,
    ScheduleInvalid,
)
from .grids import DEFAULT_EXHAUSTIVE_LIMIT, build_nested_grids, finest_level
from .lattice import Cube, LatticeForest, build_cubes, build_forest, enumerate_forest_outcomes
from .mc import run_chunked, trial_rng, loglog_slope, wilson_interval
from .metric import FiniteMetricSpace, max_ball_occupancy, set_distance

__all__ = [
    "GoodnessParams",
    "BoundaryLayer",
    "BadProbabilityEstimate",
    "DecayFit",
    "is_good",
    "theorem_step_violations",
    "boundary_layer",
    "estimate_bad_probability",
    "estimate_boundary_decay",
    "equalize",
    "exact_good_probability",
    "estimate_really_good",
]


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
        if self.r < 1 or int(self.r) != self.r:
            raise InvalidParams("r must be a positive integer")
        if self.delta ** (self.r * (1 - self.gamma)) >= 0.5:
            raise InvalidParams(
                "need delta**(r*(1-gamma)) < 1/2; increase r or decrease delta")

    def threshold(self, k: int, n: int) -> float:
        return self.delta ** (k * self.gamma + n * (1 - self.gamma))


@dataclass(frozen=True)
class BoundaryLayer:
    """Points within eps*scale of both a cube and its complement."""
    cube: Cube
    eps: float
    members: frozenset[int]


def _complement(space: FiniteMetricSpace, members: frozenset[int]) -> list[int]:
    return [i for i in range(len(space)) if i not in members]


def is_good(forest: LatticeForest, cube: Cube, params: GoodnessParams) -> bool:
    """Universal goodness test against every cube coarser by at least r levels.

    Levels with no grid coarser by r are vacuously fine (empty quantifier).
    """
    space = forest.space
    k = cube.level
    q = sorted(cube.members)
    for n in forest.levels:
        if k < n + params.r:
            continue
        threshold = params.threshold(k, n)
        for q1 in build_cubes(forest, n):
            if set_distance(space, q, q1.members) >= threshold:
                continue
            if set_distance(space, q, _complement(space, q1.members)) >= threshold:
                continue
            return False
    return True


def theorem_step_violations(forest: LatticeForest, cube: Cube,
                            params: GoodnessParams) -> list[int]:
    """Check the deep-inside step: an ancestor holding the center deeper than
    twice the threshold must pass that ancestor's goodness test.

    Returns the levels at which the implication failed (expected empty).
    """
    space = forest.space
    k = cube.level
    x = cube.center
    q = sorted(cube.members)
    bad_levels = []
    for n in forest.levels:
        if k < n + params.r:
            continue
        anc = forest.ancestor(x, k, n)
        anc_cube = forest.cube(n, anc)
        threshold = params.threshold(k, n)
        depth = set_distance(space, [x], _complement(space, anc_cube.members))
        if depth > 2 * threshold:
            ok = (set_distance(space, q, anc_cube.members) >= threshold
                  or set_distance(space, q, _complement(space, anc_cube.members))
                  >= threshold)
            if not ok:
                bad_levels.append(n)
    return bad_levels


def boundary_layer(space: FiniteMetricSpace, cube: Cube, eps: float) -> BoundaryLayer:
    """Exact member set of the layer around the cube's boundary."""
    if eps <= 0:
        raise InvalidParams("eps must be positive")
    width = eps * cube.scale
    inside = sorted(cube.members)
    outside = _complement(space, cube.members)
    members = set()
    for x in range(len(space)):
        if set_distance(space, [x], inside) <= width and \
           set_distance(space, [x], outside) <= width:
            members.add(x)
    return BoundaryLayer(cube=cube, eps=eps, members=frozenset(members))


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

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise InvalidParams("eps values must be strictly decreasing")
        if any(not 0 <= p <= 1 for p in self.estimates):
            raise InvalidParams("estimates must be probabilities")


def _build_trial_forest(space, params: GoodnessParams, coarsest_level, mode,
                        limit, rng, cache) -> LatticeForest:
    hierarchy = build_nested_grids(space, params.delta, coarsest_level, rng,
                                   mode=mode, limit=limit, cache=cache)
    return build_forest(hierarchy, rng)


def _center_cube(forest: LatticeForest, level: int, center: int) -> Cube:
    """The cube of the fixed center, which a sampled grid may have dropped."""
    if center not in forest.hierarchy.grid(level).members:
        raise CenterNotInGrid(
            f"fixed center {center} absent from the level-{level} grid; "
            f"fix the center at the deterministic finest level")
    return forest.cube(level, center)


def _bad_chunk(payload, lo: int, hi: int) -> np.ndarray:
    (space, level, center, params, coarsest_level, mode, limit, seed) = payload
    cache: dict = {}
    rows = np.zeros((hi - lo, 2), dtype=np.int64)
    for t in range(lo, hi):
        rng = trial_rng(seed, t)
        forest = _build_trial_forest(space, params, coarsest_level, mode, limit,
                                     rng, cache)
        cube = _center_cube(forest, level, center)
        bad = not is_good(forest, cube, params)
        steps = theorem_step_violations(forest, cube, params)
        rows[t - lo, 0] = int(bad)
        rows[t - lo, 1] = len(steps)
    return rows


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
    if trials < 1:
        raise InvalidTrials("trials must be a positive integer")
    center = space.resolve(center)
    payload = (space, level, center, params, coarsest_level, mode, limit, seed)
    rows = run_chunked(_bad_chunk, payload, trials, workers)
    bad = int(rows[:, 0].sum())
    low, high = wilson_interval(bad, trials)
    return BadProbabilityEstimate(trials=trials, bad_count=bad,
                                  fraction=bad / trials,
                                  wilson_low=low, wilson_high=high,
                                  step_violations=int(rows[:, 1].sum()),
                                  seed=seed)


def _decay_chunk(payload, lo: int, hi: int) -> np.ndarray:
    (space, x, level, eps_schedule, params, coarsest_level, mode, limit, seed) = payload
    cache: dict = {}
    rows = np.zeros((hi - lo, len(eps_schedule)), dtype=np.int64)
    scale = params.delta ** level
    for t in range(lo, hi):
        rng = trial_rng(seed, t)
        forest = _build_trial_forest(space, params, coarsest_level, mode, limit,
                                     rng, cache)
        owner = forest.ancestor(x, forest.hierarchy.finest_level, level)
        cube = forest.cube(level, owner)
        depth = set_distance(space, [x], _complement(space, cube.members))
        for j, eps in enumerate(eps_schedule):
            # x is inside its own cube, so layer membership is depth alone
            rows[t - lo, j] = int(depth <= eps * scale)
    return rows


def _reference_floor(space: FiniteMetricSpace, level: int,
                     params: GoodnessParams, finest: int) -> float | None:
    """Conservative membership floor 2**-d over the levels above the cube level.

    Occupancy is measured on the whole space, which can only overcount the
    grid points of a sampled level, so the floor (and the derived exponent)
    is a lower reference, not a fitted value.
    """
    ds = []
    for lev in range(level + 1, finest + 1):
        ds.append(max_ball_occupancy(space, params.delta ** (lev - 1)))
    if not ds:
        return None
    return 0.5 ** max(ds)


def estimate_boundary_decay(space: FiniteMetricSpace, x: int | str, level: int,
                            eps_schedule: Sequence[float], trials: int, seed: int,
                            params: GoodnessParams,
                            coarsest_level: int = 0,
                            mode: str = "exhaustive_uniform",
                            limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                            workers: int = 1,
                            a_reference: float | None = None) -> DecayFit:
    """Estimate the probability that x falls in its cube's boundary layer,
    per epsilon of a decreasing schedule, from one shared set of trials.

    Because one trial serves every epsilon, the estimates are monotone by
    construction; a log-log slope is fitted over the positive ones.  The
    reference exponent uses log(1-a)/log(delta) with the supplied membership
    bound, or a conservative occupancy floor when none is given.
    """
    if trials < 1:
        raise InvalidTrials("trials must be a positive integer")
    eps = [float(e) for e in eps_schedule]
    if not eps or any(e <= 0 for e in eps):
        raise ScheduleInvalid("eps values must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ScheduleInvalid("eps values must be strictly decreasing")
    if any(500.0 * e > params.delta for e in eps):
        raise ScheduleInvalid("every eps must satisfy 500*eps <= delta")
    x = space.resolve(x)
    payload = (space, x, level, tuple(eps), params, coarsest_level, mode, limit, seed)
    rows = run_chunked(_decay_chunk, payload, trials, workers)
    counts = [int(c) for c in rows.sum(axis=0)]
    estimates = [c / trials for c in counts]
    intervals = [wilson_interval(c, trials) for c in counts]

    positive = [(e, p) for e, p in zip(eps, estimates) if p > 0]
    eta_hat = None
    if len({e for e, _ in positive}) >= 2:
        eta_hat = loglog_slope([e for e, _ in positive], [p for _, p in positive])

    a_ref = a_reference
    if a_ref is None:
        a_ref = _reference_floor(space, level, params,
                                 finest_level(space, params.delta, coarsest_level))
    eta_reference = None
    if a_ref is not None and 0 < a_ref < 1:
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
                           limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                           max_outcomes: int = 100_000) -> Fraction:
    """Exact rational P(cube of the fixed center is good), by full enumeration."""
    center = space.resolve(center)
    total = Fraction(0)
    outcomes = enumerate_forest_outcomes(space, params.delta, coarsest_level,
                                         limit=limit, max_outcomes=max_outcomes)
    # pop each outcome once classified, so its cube table can be freed
    while outcomes:
        forest, prob = outcomes.pop()
        if is_good(forest, _center_cube(forest, level, center), params):
            total += prob
    return total


def _really_good_chunk(payload, lo: int, hi: int) -> np.ndarray:
    (space, level, center, params, coarsest_level, mode, limit, seed, a, p_q) = payload
    cache: dict = {}
    rows = np.zeros((hi - lo, 1), dtype=np.int64)
    for t in range(lo, hi):
        rng = trial_rng(seed, t)
        forest = _build_trial_forest(space, params, coarsest_level, mode, limit,
                                     rng, cache)
        good = is_good(forest, _center_cube(forest, level, center), params)
        xi = float(rng.random())
        rows[t - lo, 0] = int(good and equalize(p_q, a, xi))
    return rows


def estimate_really_good(space: FiniteMetricSpace, center: int | str, level: int,
                         params: GoodnessParams, a: float, p_q: float,
                         trials: int, seed: int, coarsest_level: int = 0,
                         mode: str = "exhaustive_uniform",
                         limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                         workers: int = 1) -> float:
    """Empirical frequency of the really-good event; expected to match ``a``."""
    if trials < 1:
        raise InvalidTrials("trials must be a positive integer")
    center = space.resolve(center)
    payload = (space, level, center, params, coarsest_level, mode, limit, seed,
               float(a), float(p_q))
    rows = run_chunked(_really_good_chunk, payload, trials, workers)
    return float(rows[:, 0].sum() / trials)
