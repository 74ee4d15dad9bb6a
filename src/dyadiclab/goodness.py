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

The straddle test of one coarse level is written once: ``_near`` takes the
near points of a distance row, and ``_straddles`` counts those inside each
coarse cube against all of them, with any leading batch axes.  One core
classifies the center's cube in each forest of a stack on one space, in one
pass over the tested levels, coarsest first.  It takes each forest's
distance row from the member rows of its center cube, and at each level
runs the straddle test on every forest's coarse cubes at once, each cube
reading the near mask of its own forest.  Per forest, the straddle mask
gives goodness (bad when some entry is true, counted per forest) and the
deep-inside step (the entry at the center's ancestor, with the points near
the center tested only where it is true).  The trial rows, ``is_good`` and
``theorem_step_violations`` all read that core, the last two on a stack of
one forest.  The exact P(good) applies the same test to every parent map of
a level pair at once, in its step of ``lattice``'s one exact recursion, on
the near columns, pruning bad maps and building no forest.  At the coarsest
pair it counts the good maps instead, and its budget counts every map's
rows, built or not.

The three estimators share one trial pipeline: trial t draws the grids, then
the parents, from its own stream ``trial_rng(seed, t)``, and only then makes
the estimator's own draws (the equalization coin of
``estimate_really_good``).  The trial rows classify the center's cube from
its row of the forest's cube table, without building a ``Cube``, for a list
of forests at once, one row per forest; the bad-probability and really-good
estimators share one row, whose bad verdict the coin reads.  The trial count
and the master seed follow the integer rule of ``metric``, checked before any
trial runs.  Each estimator is a job: a private builder
(``_bad_probability_job``, ``_decay_job``, ``_really_good_job``) checks its
inputs and gives its (seed, row, finish) and the result of its rows, where
the row is ``_bad_rows`` or ``_decay_rows`` and, for the really-good
estimator, ``finish`` makes the rows of a chunk's matrix of rows and vector
of coins (``_equalized_rows``).  ``_run`` runs jobs on one build, the draw
steps of a trial's forest (``_trial_steps``: ``grids``' grid steps, then
``lattice``'s stacked link state), in one ``mc.run_chunked`` call of
``mc._trial_chunk``: a public estimator runs its own job, and a ``goodness``
command the jobs of its estimators, each on its own stream.  A chunk walks
every job's trials together down one draw memo, a step per draw call: it
draws each stream as if every trial built its own forest while building
each distinct forest of the memo once, whichever job meets it first, and
computing each distinct row once per distinct forest (the bad-probability
and really-good estimators' rows are one), in one call per row function on
the new forests of a batch of the walk, whose cube tables ``lattice`` then
builds as one stack; it reads every draw and every coin from the streams'
words in array math, one draw per memo node for every job.  This
module never names the memo.  The row cores walk a forest's ancestors with
``LatticeForest._walk`` itself, once the level and the point have passed
their checks.
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
    TooLargeForExhaustive,
)
from .grids import (DEFAULT_EXHAUSTIVE_LIMIT, GridHierarchy, _grid_steps, _require_limit,
                    _require_mode, finest_level)
from .lattice import (Cube, LatticeForest, _balls, _cube_tables, _grid_paths, _LevelPair,
                      _link_state, _parent_maps, _unite_children)
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
MAX_UNITED_ROWS = 3_000_000  # finer cube rows, once per parent map, one exact walk may unite


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


def _distance_rows(space: FiniteMetricSpace, inside: np.ndarray) -> np.ndarray:
    """Distance from the point set of each row of a boolean matrix, which
    holds at least one point, to each point of the space: the least of its
    members' distance rows, one ``np.minimum.reduceat`` over them all."""
    row, member = inside.nonzero()
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return np.minimum.reduceat(space.d[member], starts, axis=0)


def _near(row: np.ndarray, threshold: float) -> np.ndarray:
    """The near points of a distance row: strictly closer than the threshold."""
    return row < threshold


def _straddles(inside: np.ndarray, near_count) -> np.ndarray:
    """The bad test per cube: ``inside`` marks the near points each cube
    holds, through a near mask or on the near columns alone, with any
    leading batch axes, and ``near_count`` is their number.  A cube is
    straddled when it holds some near point and misses another."""
    hits = inside.sum(axis=-1)
    return (hits > 0) & (hits < near_count)


def is_good(forest: LatticeForest, cube: Cube, params: GoodnessParams) -> bool:
    """Universal goodness test against every cube coarser by at least r levels.

    Levels with no grid coarser by r are vacuously fine (empty quantifier).
    The cube must be the forest's own: the verdict is that of the forest's
    cube at ``(cube.level, cube.center)``, and a level that is not the
    hierarchy's is refused with InvalidParams.
    """
    return not _verdicts([forest], cube.level, cube.center, params)[0][0]


def theorem_step_violations(forest: LatticeForest, cube: Cube,
                            params: GoodnessParams) -> list[int]:
    """Check the deep-inside step: an ancestor holding the center deeper than
    twice the threshold must pass that ancestor's goodness test.

    Returns the levels at which the implication failed (expected empty).  The
    cube must be the forest's own, as for ``is_good``.
    """
    steps = _verdicts([forest], cube.level, cube.center, params)[1][0]
    return [n for n, failed in zip(forest.levels, steps.tolist()) if failed]


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


def _trial_steps(space: FiniteMetricSpace, params: GoodnessParams, coarsest_level: int,
                 mode: str, limit: int):
    """The first state of one trial's forest: the grids, then the
    parents' stacked state (see ``grids._grid_steps``).  Module-level, so
    that its partials pickle into the worker pool."""
    return _grid_steps(space, params.delta, coarsest_level, mode, limit, _link_state)


def _require_center(members, level: int, center: int) -> None:
    """Raise unless the level's grid points, ``members``, hold the fixed
    center, which a sampled grid may have dropped."""
    if center not in members:
        raise CenterNotInGrid(
            f"fixed center {center} absent from the level-{level} grid; "
            f"fix the center at the deterministic finest level")


def _verdicts(forests: Sequence[LatticeForest], level: int, center: int,
              params: GoodnessParams) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of forests on one space (see ``_cube_tables``), whether
    each one's cube of the center at ``level`` is bad, and whether its
    deep-inside step fails at each level n coarser by at least r, the
    columns in ascending order of n, which are the first of the levels.

    At each tested level, the cube is bad when it straddles some level-n
    cube, and the step fails when it straddles the cube of the center's
    level-n ancestor while no point outside that cube lies within twice the
    threshold of the center (closed: a point at exactly twice the threshold
    keeps the step's claim off).  Each level is one pass over every forest's
    cubes at once, each cube reading the distance row of its own forest's
    center cube; each forest's chain is walked once, at the first tested
    level.  The level is checked first, then the center in every forest, in
    order."""
    space = forests[0].space
    forests[0].hierarchy._require_level(level)
    tables = _cube_tables(forests)
    for table in tables:
        _require_center(table[level][0], level, center)
    dist = _distance_rows(space, np.stack([held[rows[center]] for rows, held
                                           in (table[level] for table in tables)]))
    tested = [n for n in forests[0].levels if n <= level - params.r]
    bad = np.zeros(len(forests), dtype=bool)
    steps = np.zeros((len(forests), len(tested)), dtype=bool)
    # the center's ancestors in each forest, from ``level`` down to the coarsest, unchecked:
    # the level and the center have passed
    chains = [f._walk([center], level, f.levels[0]) for f in forests] if tested else []
    for j, n in enumerate(tested):
        threshold = params.threshold(level, n)
        level_rows = [table[n][0] for table in tables]
        sizes = [len(rows) for rows in level_rows]
        held = np.concatenate([table[n][1] for table in tables])
        forest = np.repeat(np.arange(len(forests)), sizes)  # the forest of each cube
        near = _near(dist, threshold)
        straddled = _straddles(held & near[forest], near.sum(axis=1)[forest])
        bad |= np.bincount(forest, straddled, len(forests)) > 0
        anc = np.cumsum(sizes) - sizes + [rows[chain[level - n][0]]
                                          for rows, chain in zip(level_rows, chains)]
        outside = ~held[anc] & (space.d[center] <= 2 * threshold)
        steps[:, j] = straddled[anc] & ~outside.any(axis=1)
    return bad, steps


def _bad_rows(forests: Sequence[LatticeForest], params: GoodnessParams, level: int,
              center: int) -> np.ndarray:
    """Per forest, whether the fixed center's cube is bad, and its count of
    step violations."""
    bad, steps = _verdicts(forests, level, center, params)
    return np.column_stack([bad, steps.sum(axis=1)]).astype(np.int64)


def _run(jobs: list, space: FiniteMetricSpace, params: GoodnessParams, coarsest_level: int,
         mode: str, limit: int, trials: int, workers: int) -> list:
    """Each job's result, from one ``run_chunked`` call on one build: a job
    is a pair of its (seed, row, finish) and its result of its rows."""
    limit = _require_limit(limit)
    _require_mode(mode)
    build = partial(_trial_steps, space, params, coarsest_level, mode, limit)
    rows = run_chunked(_trial_chunk, (build, [job for job, _ in jobs]), trials, workers)
    return [result(part) for (_, result), part in zip(jobs, rows)]


def _bad_probability_job(space: FiniteMetricSpace, level: int, center: int | str,
                         params: GoodnessParams, trials: int, seed: int) -> tuple:
    """The bad-probability estimate's job, its inputs checked before any trial."""
    trials, seed = _trial_count(trials), _master_seed(seed)
    row = partial(_bad_rows, params=params, level=level, center=space.resolve(center))

    def result(rows: np.ndarray) -> BadProbabilityEstimate:
        bad = int(rows[:, 0].sum())
        low, high = wilson_interval(bad, trials)
        return BadProbabilityEstimate(trials=trials, bad_count=bad, fraction=bad / trials,
                                      wilson_low=low, wilson_high=high,
                                      step_violations=int(rows[:, 1].sum()), seed=seed)
    return (seed, row, None), result


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
    job = _bad_probability_job(space, level, center, params, trials, seed)
    return _run([job], space, params, coarsest_level, mode, limit, trials, workers)[0]


def _decay_rows(forests: Sequence[LatticeForest], params: GoodnessParams, x: int,
                level: int, eps_schedule: tuple[float, ...]) -> np.ndarray:
    """Per forest, whether x lies in its level-``level`` cube's boundary
    layer of each width of the schedule: x is inside its own cube, so that
    is x's depth, its distance to the cube's complement, at most eps * scale.
    The level is checked first; x, a point of the space, lies in the finest
    grid, so its ancestors are walked unchecked."""
    hierarchy = forests[0].hierarchy
    hierarchy._require_level(level)
    owners = [f._walk([x], hierarchy.finest_level, level)[-1][0] for f in forests]
    inside = np.stack([held[rows[owner]] for (rows, held), owner
                       in zip((table[level] for table in _cube_tables(forests)), owners)])
    depth = np.where(inside, np.inf, forests[0].space.d[x]).min(axis=1)
    scale = params.delta ** level
    return (depth[:, None] <= np.array(eps_schedule) * scale).astype(np.int64)


def _eps_schedule(eps_schedule, delta: float) -> tuple[float, ...]:
    """A decay estimate's eps schedule as a tuple of floats, refused with
    ScheduleInvalid unless it is a sequence of numbers, positive, strictly
    decreasing, and each at most delta / 500."""
    if isinstance(eps_schedule, str):
        raise ScheduleInvalid(f"eps schedule must be a sequence, got {eps_schedule!r}")
    try:
        eps = tuple(float(e) for e in eps_schedule)
    except (TypeError, ValueError):
        raise ScheduleInvalid(f"eps values must be numbers, got {eps_schedule!r}") from None
    if not eps or any(not e > 0 for e in eps):
        raise ScheduleInvalid("eps values must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ScheduleInvalid("eps values must be strictly decreasing")
    if any(e > delta / EPS_DIVISOR for e in eps):
        raise ScheduleInvalid("every eps must satisfy 500*eps <= delta")
    return eps


def _decay_job(space: FiniteMetricSpace, x: int | str, level: int,
               eps_schedule: Sequence[float], trials: int, seed: int,
               params: GoodnessParams, coarsest_level: int) -> tuple:
    """The boundary-decay fit's job, its inputs checked before any trial."""
    trials, seed = _trial_count(trials), _master_seed(seed)
    eps = _eps_schedule(eps_schedule, params.delta)
    row = partial(_decay_rows, params=params, x=space.resolve(x), level=level, eps_schedule=eps)

    def result(rows: np.ndarray) -> DecayFit:
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
        return DecayFit(eps=eps, counts=tuple(counts),
                        estimates=tuple(estimates),
                        intervals=tuple(intervals), trials=trials,
                        eta_hat=eta_hat, eta_reference=eta_reference, seed=seed)
    return (seed, row, None), result


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
    job = _decay_job(space, x, level, eps_schedule, trials, seed, params, coarsest_level)
    return _run([job], space, params, coarsest_level, mode, limit, trials, workers)[0]


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


def _good_maps(space: FiniteMetricSpace, pair: _LevelPair, cubes: list, threshold: float,
               scale: float) -> int:
    """The count of (cube, parent map) pairs of the coarsest level pair under
    which no coarse cube straddles the cube's near set.  A map's verdict
    reads only the children whose finer cube meets the near set, so the
    cubes are grouped by near set and those children, each group is united
    on the near columns with the maps of those children alone, in one call,
    and each good map counts once per choice of the other children."""
    balls = _balls(space, pair.cols, scale)
    groups: dict[tuple[bytes, bytes], tuple] = {}
    for held, row in cubes:
        near = _near(row, threshold)
        kids = held[:, near].any(axis=1)
        groups.setdefault((near.tobytes(), kids.tobytes()), (near, kids, []))[2].append(held)
    good = 0
    for near, kids, group in groups.values():
        maps = _parent_maps(pair.options[kids])
        # the group's cubes side by side, each on its own copy of the near columns
        held = _unite_children(np.concatenate([balls[:, near]] * len(group), axis=1), maps,
                               np.concatenate([finer[kids][:, near] for finer in group], axis=1))
        held = held.reshape(len(maps), len(pair.cols), len(group), -1)
        bad = _straddles(held, held.shape[-1]).any(axis=1)
        good += int((~bad).sum()) * (pair.count // len(maps))
    return good


def exact_good_probability(space: FiniteMetricSpace, center: int | str, level: int,
                           params: GoodnessParams, coarsest_level: int = 0,
                           limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Fraction:
    """Exact rational P(cube of the fixed center is good), over every outcome
    of the construction.

    No forest is built.  The construction's one recursion, ``_grid_paths``,
    walks the grid outcomes from the finest level to the coarsest, and at
    each level pair this step unites every cube matrix that reached it with
    every parent map of the pair at once.  Past ``level`` it tests the united
    matrices against the center's cube at each level coarser by at least r,
    on the points near that cube, and walks on only from the good ones,
    since a bad cube stays bad whatever the coarser choices.  Every path
    ends at the coarsest pair, where the step counts the good maps instead
    (``_good_maps``), or takes every map where no level is tested.  A grid
    outcome weighs its probability over its count of forests, times its
    count of good ones.  The cap is on the work of the full walk, not on the
    forests, whose unpruned count the walk never learns: more than
    ``MAX_UNITED_ROWS`` cube-matrix rows to unite in all, each finer cube's
    row counted once per parent map, the coarsest pair's maps included
    though none is built, raise TooLargeForExhaustive before the pair that
    passes the cap is united, so refusals are those of the full walk.
    """
    center = space.resolve(center)
    levels = tuple(range(coarsest_level, finest_level(space, params.delta, coarsest_level) + 1))
    GridHierarchy(space, params.delta, levels, {})._require_level(level)
    united = 0

    def step(state, pair):
        """The state below a level pair from the state above it: the path's
        count of forests, and each good cube matrix that reached the pair with
        the center's distance row, None above ``level``, or at the coarsest
        pair the number of good forests.  None when no good cube is left."""
        nonlocal united
        count, cubes = state
        k = pair.level - 1
        united += len(cubes) * pair.count * len(pair.kids)
        if united > MAX_UNITED_ROWS:
            raise TooLargeForExhaustive(f"more than {MAX_UNITED_ROWS} cube-matrix rows to unite")
        if k == level:
            _require_center(pair.cols, level, center)
            center_row = pair.cols.tolist().index(center)
        tested = k <= level - params.r
        if k == coarsest_level:
            good = (_good_maps(space, pair, cubes, params.threshold(level, k), params.delta ** k)
                    if tested else len(cubes) * pair.count)
            return (count * pair.count, good) if good else None
        balls = _balls(space, pair.cols, params.delta ** k)
        good = []
        for held, row in cubes:
            batch = _unite_children(balls, pair.maps, held)
            if k == level:
                rows = _distance_rows(space, batch[:, center_row])
            else:
                rows = itertools.repeat(row)
                if tested:
                    near = _near(row, params.threshold(level, k))
                    batch = batch[~_straddles(batch[..., near], near.sum()).any(axis=-1)]
            good.extend(zip(batch, rows))
        return (count * pair.count, good) if good else None

    held = _balls(space, range(len(space)), params.delta ** levels[-1])
    row = _distance_rows(space, held[[center]])[0] if level == levels[-1] else None
    # a hierarchy of one level has no level pair: its one forest's cube is good
    state = (1, [(held, row)]) if len(levels) > 1 else (1, 1)
    paths = _grid_paths(space, params.delta, coarsest_level, limit, step, state)
    return sum((prob / count * good for _, prob, (count, good) in paths), Fraction(0))


def _equalized_rows(rows: np.ndarray, xi: np.ndarray, cutoff: float) -> np.ndarray:
    """The really-good verdicts of a chunk's ``_bad_rows`` rows, one row per
    trial, each with its own coin xi: the comparison of ``equalize`` at cutoff
    a / p_q, whose checks ``estimate_really_good`` makes once, before the
    first trial."""
    return ((rows[:, :1] == 0) & (xi[:, None] <= cutoff)).astype(np.int64)


def _really_good_job(space: FiniteMetricSpace, center: int | str, level: int,
                     params: GoodnessParams, a: float, p_q: float, trials: int,
                     seed: int) -> tuple:
    """The really-good frequency's job, its inputs checked before any trial."""
    trials, seed = _trial_count(trials), _master_seed(seed)
    center, a, p_q = space.resolve(center), float(a), float(p_q)
    equalize(p_q, a, 0.0)  # refuse a bad pair whatever the draws
    row = partial(_bad_rows, params=params, level=level, center=center)
    finish = partial(_equalized_rows, cutoff=a / p_q)
    return (seed, row, finish), lambda rows: float(rows[:, 0].sum() / trials)


def estimate_really_good(space: FiniteMetricSpace, center: int | str, level: int,
                         params: GoodnessParams, a: float, p_q: float,
                         trials: int, seed: int, coarsest_level: int = 0,
                         mode: str = "exhaustive_uniform",
                         limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                         workers: int = 1) -> float:
    """Empirical frequency of the really-good event; expected to match ``a``."""
    job = _really_good_job(space, center, level, params, a, p_q, trials, seed)
    return _run([job], space, params, coarsest_level, mode, limit, trials, workers)[0]
