"""Good/bad classification, boundary layers, Monte Carlo estimates, equalization."""
import collections
import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.errors import (
    CenterNotInGrid,
    DyadicLabError,
    InvalidParams,
    InvalidProbabilities,
    InvalidTrials,
    ScheduleInvalid,
    TooLargeForExhaustive,
    UnknownPoint,
)
from dyadiclab import goodness, lattice, mc
from dyadiclab.goodness import (
    GoodnessParams,
    equalize,
    estimate_bad_probability,
    estimate_boundary_decay,
    estimate_really_good,
    exact_good_probability,
    theorem_step_violations,
)
from dyadiclab.grids import DEFAULT_EXHAUSTIVE_LIMIT, build_nested_grids, finest_level
from dyadiclab.lattice import LatticeForest, build_forest
from dyadiclab.mc import _trial_states, run_chunked, trial_rng, wilson_interval
from oracles import reference_assign_parents, reference_enumerate_forest_outcomes


PARAMS = GoodnessParams(delta=0.1, gamma=0.1, r=1)


def forest_for(space, delta, seed, n0=0):
    rng = np.random.default_rng(seed)
    h = dl.build_nested_grids(space, delta, n0, rng=rng)
    return dl.build_forest(h, rng)


def line_space(coords: dict[str, float]) -> dl.FiniteMetricSpace:
    """Points on a line, with the exact float distances |p - q|."""
    xs = list(coords.values())
    return dl.validate_metric([[abs(p - q) for q in xs] for p in xs], list(coords))


# --- parameters -----------------------------------------------------------------

def test_params_validation():
    with pytest.raises(InvalidParams):
        GoodnessParams(delta=1.5, gamma=0.1, r=1)
    with pytest.raises(InvalidParams):
        GoodnessParams(delta=0.1, gamma=0.0, r=1)
    # r follows the integer rule of counts: a string, a bool or a float is
    # refused, not compared with 1 or kept as it came
    for bad in (0, "2", True, 2.0, None):
        with pytest.raises(InvalidParams,
                           match=f"^r must be an integer >= 1, got {re.escape(repr(bad))}$"):
            GoodnessParams(delta=0.001, gamma=0.1, r=bad)
    params = GoodnessParams(delta=0.1, gamma=0.1, r=np.int64(2))
    assert params.r == 2 and type(params.r) is int
    with pytest.raises(InvalidParams):
        # 0.9**0.9 wildly exceeds 1/2
        GoodnessParams(delta=0.9, gamma=0.1, r=1)
    assert GoodnessParams(delta=0.9, gamma=0.1, r=8).threshold(8, 0) \
        == pytest.approx(0.9 ** 0.8)


def test_estimators_refuse_a_level_or_center_that_is_no_integer(elbow):
    """A float level is refused by value, where ``range`` would raise a bare
    TypeError and the exact count would answer at level 2; a float center is
    refused, where ``int`` would truncate it to point 0."""
    with pytest.raises(UnknownPoint, match=r"^point 0\.7 is neither"):
        estimate_bad_probability(elbow, 2, 0.7, PARAMS, trials=10, seed=0)
    two = "^level must be an integer, got 2.0$"
    with pytest.raises(InvalidParams, match=two):
        estimate_bad_probability(elbow, 2.0, "x", PARAMS, trials=10, seed=0)
    with pytest.raises(InvalidParams, match=two):
        estimate_really_good(elbow, "x", 2.0, PARAMS, 0.25, 0.75, trials=10, seed=0)
    with pytest.raises(InvalidParams, match=two):
        exact_good_probability(elbow, "x", 2.0, PARAMS)
    with pytest.raises(InvalidParams, match="^level must be an integer, got 0.0$"):
        estimate_boundary_decay(elbow, "x", 0.0, (1e-4,), trials=10, seed=0,
                                params=PARAMS)


# --- classification --------------------------------------------------------------

def test_good_vacuous_without_coarse_levels(two_far):
    """No level is coarser by r, so the quantifier is empty and the cube is good."""
    forest = forest_for(two_far, 0.5, 0)
    params = GoodnessParams(delta=0.5, gamma=0.5, r=3)
    for cube in dl.build_cubes(forest, forest.hierarchy.finest_level):
        assert dl.is_good(forest, cube, params)


def test_good_when_coarse_cube_swallows_space(singleton):
    forest = forest_for(singleton, 0.1, 0)
    cube = dl.build_cubes(forest, forest.levels[-1])[0]
    assert dl.is_good(forest, cube, PARAMS)


def test_elbow_badness_matches_hand_analysis(elbow):
    """Bad exactly when the middle point attaches to the far side: p = 1/4."""
    bad = 0
    trials = 4000
    for t in range(trials):
        forest = forest_for(elbow, 0.1, t)
        cube = forest.cube(2, 0)
        bad += not dl.is_good(forest, cube, PARAMS)
    sigma = (0.25 * 0.75 / trials) ** 0.5
    assert abs(bad / trials - 0.25) <= 4 * sigma


def _complement(space: dl.FiniteMetricSpace, members) -> list[int]:
    return [i for i in range(len(space)) if i not in members]


# the classifiers as first written, over set_distance and _complement, kept as
# the oracle for the distance-row versions in the library
def reference_is_good(forest: dl.LatticeForest, cube: dl.Cube,
                      params: GoodnessParams) -> bool:
    space = forest.space
    k = cube.level
    q = sorted(cube.members)
    for n in forest.levels:
        if k < n + params.r:
            continue
        threshold = params.threshold(k, n)
        for q1 in dl.build_cubes(forest, n):
            if dl.set_distance(space, q, q1.members) >= threshold:
                continue
            if dl.set_distance(space, q, _complement(space, q1.members)) >= threshold:
                continue
            return False
    return True


def reference_theorem_step_violations(forest: dl.LatticeForest, cube: dl.Cube,
                                      params: GoodnessParams) -> list[int]:
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
        depth = dl.set_distance(space, [x], _complement(space, anc_cube.members))
        if depth > 2 * threshold:
            ok = (dl.set_distance(space, q, anc_cube.members) >= threshold
                  or dl.set_distance(space, q, _complement(space, anc_cube.members))
                  >= threshold)
            if not ok:
                bad_levels.append(n)
    return bad_levels


def test_classifiers_match_reference(ladder, elbow, decay_probe):
    cloud = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                          branching=3, ratio=0.1, spread=(0.25, 0.45))
    forests = [(forest_for(space, params.delta, seed), params)
               for space, params in ((ladder, PARAMS), (elbow, PARAMS),
                                     (cloud, PARAMS), (decay_probe, DECAY_PARAMS))
               for seed in range(40)]
    # every exact outcome of the construction on the two small spaces
    forests += [(forest, PARAMS) for space in (elbow, ladder)
                for forest, _ in dl.enumerate_forest_outcomes(space, 0.1, 0)]
    verdicts = {True: 0, False: 0}
    for forest, params in forests:
        for level in forest.levels:
            for cube in dl.build_cubes(forest, level):
                good = dl.is_good(forest, cube, params)
                assert good == reference_is_good(forest, cube, params)
                assert theorem_step_violations(forest, cube, params) \
                    == reference_theorem_step_violations(forest, cube, params)
                verdicts[good] += 1
    assert min(verdicts.values()) > 0


def test_classifiers_refuse_a_level_outside_the_hierarchy(elbow):
    """The seed-0 elbow forest has levels 0..2; its level-2 cube of x
    relabelled as level 7 is refused by both classifiers and by the
    estimators' row, with one message."""
    forest = forest_for(elbow, 0.1, 0)
    assert forest.levels == (0, 1, 2)
    cube = dataclasses.replace(forest.cube(2, 0), level=7)
    outside = "^level 7 not present in the hierarchy$"
    with pytest.raises(InvalidParams, match=outside):
        dl.is_good(forest, cube, PARAMS)
    with pytest.raises(InvalidParams, match=outside):
        theorem_step_violations(forest, cube, PARAMS)
    with pytest.raises(InvalidParams, match=outside):
        estimate_bad_probability(elbow, 7, "x", PARAMS, trials=1, seed=0)


def test_theorem_step_depth_gate():
    """q hangs under x, so the level-1 cube of x is {x, q}; q is within the
    threshold 0.1**0.1 = 0.79 of p, outside x's level-0 cube {x, q}, so the
    cube straddles it.  With p 2.3 from x, past twice the threshold, the
    deep-inside implication fails at level 0; with p exactly twice the
    threshold from x, x lies no deeper than the gate and the step makes no
    claim."""
    threshold = PARAMS.threshold(1, 0)
    for q, p, want in ((1.7, 2.3, [0]), (1.0, 2 * threshold, [])):
        space = line_space({"x": 0.0, "q": q, "p": p})
        coarse = frozenset({0, 2})
        hierarchy = dl.GridHierarchy(space=space, delta=0.1, levels=(0, 1, 2), grids={
            0: dl.Grid(scale=1.0, members=coarse),
            1: dl.Grid(scale=0.1, members=coarse),
            2: dl.Grid(scale=0.01, members=frozenset({0, 1, 2}))})
        forest = dl.LatticeForest(hierarchy=hierarchy,
                                  parents={1: {0: 0, 2: 2}, 2: {0: 0, 1: 0, 2: 2}})
        cube = forest.cube(1, 0)
        assert theorem_step_violations(forest, cube, PARAMS) == want
        assert reference_theorem_step_violations(forest, cube, PARAMS) == want
        assert not dl.is_good(forest, cube, PARAMS)


def step_gate_stack() -> list[dl.LatticeForest]:
    """The forest of ``test_theorem_step_depth_gate`` whose level-1 cube of
    x, {x, q}, fails the deep-inside step at level 0, then two forests on
    its hierarchy that hang q under p instead, where that cube is {x}."""
    space = line_space({"x": 0.0, "q": 1.7, "p": 2.3})
    coarse = frozenset({0, 2})
    hierarchy = dl.GridHierarchy(space=space, delta=0.1, levels=(0, 1, 2), grids={
        0: dl.Grid(scale=1.0, members=coarse),
        1: dl.Grid(scale=0.1, members=coarse),
        2: dl.Grid(scale=0.01, members=frozenset({0, 1, 2}))})
    return [dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 2: 2}, 2: {0: 0, 1: q, 2: 2}})
            for q in (0, 2, 2)]


def test_batched_verdicts_match_the_oracle_per_forest(ladder, elbow):
    """One ``_bad_rows`` call on a stack equals the definition-level
    classifiers on each forest, at every level and for every center that all
    the stack's grids hold there: stacks of 24 criterion-7 trials, of every
    exact outcome of the elbow and of the ladder, and the step-gate stack,
    which holds a step violation of a cube of two points."""
    cloud = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                          branching=3, ratio=0.1, spread=(0.25, 0.45))
    gate = step_gate_stack()
    stacks = [[forest_for(cloud, 0.1, trial_rng(5, t)) for t in range(24)],
              [f for f, _ in dl.enumerate_forest_outcomes(elbow, 0.1, 0)],
              [f for f, _ in dl.enumerate_forest_outcomes(ladder, 0.1, 0)], gate]
    seen = collections.Counter()
    for stack in stacks:
        for level in stack[0].levels:
            shared = frozenset.intersection(*(f.hierarchy.grid(level).members for f in stack))
            for center in sorted(shared)[:4]:
                got = goodness._bad_rows(stack, PARAMS, level, center)
                assert got.dtype == np.int64 and got.shape == (len(stack), 2)
                want = []
                for forest in stack:
                    cube = forest.cube(level, center)
                    want.append([int(not reference_is_good(forest, cube, PARAMS)),
                                 len(reference_theorem_step_violations(forest, cube, PARAMS))])
                    seen["multi-point", len(cube.members) > 1] += 1
                assert got.tolist() == want, (level, center)
                seen["bad", *sorted({row[0] for row in want})] += 1
                seen["steps"] += sum(row[1] for row in want)
    assert goodness._bad_rows(gate, PARAMS, 1, 0).tolist() == [[1, 1], [0, 0], [0, 0]]
    assert seen["bad", 0, 1] > 0 and seen["steps"] > 0
    assert seen["multi-point", True] > 0


def test_batched_verdicts_refuse_a_center_one_forest_lacks(elbow):
    """A stack in which some forest's level-1 grid lacks the center is
    refused with the message of a single forest."""
    outcomes = [f for f, _ in dl.enumerate_forest_outcomes(elbow, 0.1, 0)]
    lacking = [f for f in outcomes if 0 not in f.hierarchy.grid(1).members]
    holding = [f for f in outcomes if 0 in f.hierarchy.grid(1).members]
    assert lacking and holding
    absent = ("^fixed center 0 absent from the level-1 grid; "
              "fix the center at the deterministic finest level$")
    for stack in ([*holding, lacking[0]], lacking[:1]):
        with pytest.raises(CenterNotInGrid, match=absent):
            goodness._bad_rows(stack, PARAMS, 1, 0)


def test_straddle_is_strict_at_the_threshold():
    """p lies exactly the threshold delta**gamma from x, w on the other side.
    Every forest of the construction leaves x or p alone in its level-0 cube,
    so x's level-1 cube {x} lies exactly the threshold from a coarse cube or
    from a complement, not closer: it is good in every outcome."""
    threshold = PARAMS.threshold(1, 0)
    space = line_space({"x": 0.0, "p": threshold, "w": -1.5})
    assert space.d[0, 1] == threshold
    forest, = [f for f, _ in dl.enumerate_forest_outcomes(space, 0.1, 0)
               if f.parents == {1: {0: 0, 1: 2, 2: 2}}]
    cube = forest.cube(1, 0)
    assert cube.members == {0} and forest.cube(0, 2).members == {1, 2}
    assert dl.is_good(forest, cube, PARAMS)
    assert reference_is_good(forest, cube, PARAMS)
    assert exact_good_probability(space, "x", 1, PARAMS) == 1


def test_exact_good_probability_elbow(elbow):
    assert exact_good_probability(elbow, "x", 2, PARAMS) == Fraction(3, 4)


def grid_nodes(space: dl.FiniteMetricSpace) -> tuple[list[tuple], int]:
    """The (sorted finer grid, coarse grid) of every (grid path, coarse grid)
    node of the construction at delta 0.1, in depth-first order, read from
    the oracle's outcomes, where a node is a grid outcome's run of grids from
    the finest level down to a coarser one; and the level pairs of all grid
    outcomes, counted once per outcome."""
    seen, nodes, pairs = set(), [], 0
    runs = {tuple(f.hierarchy.grids[lev].members for lev in f.levels): len(f.levels)
            for f, _ in reference_enumerate_forest_outcomes(space, 0.1, 0)}
    for run, depth in runs.items():
        pairs += depth - 1
        for j in range(depth - 2, -1, -1):
            if run[j:] not in seen:
                seen.add(run[j:])
                nodes.append((sorted(run[j + 1]), run[j]))
    return nodes, pairs


def test_exact_walk_builds_each_link_table_once(small_family, monkeypatch):
    """The exact walk and the enumerator build the link tables of each (grid
    path, coarse grid) node once, in depth-first order, though grid outcomes
    share their finer grids, on each criterion-1 space of at most 9 points.
    With r past every level the walk prunes nothing, so its ``_link_pair``
    calls are every node's."""
    calls = []
    real = lattice._link_pair

    def counted(space, kids, coarse):
        calls.append((kids, coarse.members))
        return real(space, kids, coarse)

    monkeypatch.setattr(lattice, "_link_pair", counted)
    unpruned = GoodnessParams(delta=0.1, gamma=0.5, r=50)
    shared = 0
    for _, space in small_family:
        if len(space) > 9:
            continue
        nodes, pairs = grid_nodes(space)
        finest = finest_level(space, 0.1, 0)
        for run in (lambda: exact_good_probability(space, 0, finest, unpruned),
                    lambda: dl.enumerate_forest_outcomes(space, 0.1, 0)):
            calls.clear()
            run()
            assert calls == nodes
        shared += pairs - len(nodes)
    assert shared > 0


# exact_good_probability as it was before the pruned level walk, kept verbatim
# with the center check it called as its oracle: it classifies the center's
# cube in every enumerated forest
def reference_center_cube(forest: dl.LatticeForest, level: int, center: int) -> dl.Cube:
    """The cube of the fixed center, which a sampled grid may have dropped."""
    forest.hierarchy._require_level(level)
    if center not in forest.hierarchy.grid(level).members:
        raise CenterNotInGrid(
            f"fixed center {center} absent from the level-{level} grid; "
            f"fix the center at the deterministic finest level")
    return forest.cube(level, center)


def reference_exact_good_probability(space: dl.FiniteMetricSpace, center: int | str,
                                     level: int, params: GoodnessParams,
                                     coarsest_level: int = 0, limit: int = 20) -> Fraction:
    """Exact rational P(cube of the fixed center is good), by full enumeration."""
    center = space.resolve(center)
    total = Fraction(0)
    outcomes = reference_enumerate_forest_outcomes(space, params.delta, coarsest_level,
                                                   limit=limit)
    # pop each outcome once classified, so its cube table can be freed
    while outcomes:
        forest, prob = outcomes.pop()
        if dl.is_good(forest, reference_center_cube(forest, level, center), params):
            total += prob
    return total


def exact_outcome(exact, *args, **kwargs):
    try:
        return exact(*args, **kwargs)
    except DyadicLabError as exc:
        return (type(exc).__name__, str(exc))


ORACLE_PARAMS = [GoodnessParams(delta=0.1, gamma=gamma, r=r)
                 for gamma, r in ((0.1, 1), (0.5, 1), (0.5, 2))]


def test_exact_good_probability_matches_reference(small_family, elbow, ladder,
                                                  singleton, monkeypatch):
    """The walk against full enumeration: every level, at the first and last
    point of each space of at most 9 points, and at every point of the elbow,
    the ladder and a one-level singleton, for three (gamma, r) pairs; on the
    elbow and the ladder also from coarsest level 1.  A center that a coarse
    grid can drop must raise the same error as the reference, also when the
    first grid outcome holds it and only a later one drops it."""
    cases = [(space, center, 0) for _, space in small_family if len(space) <= 9
             for center in (0, len(space) - 1)]
    cases += [(space, center, 0) for space in (elbow, ladder, singleton)
              for center in range(len(space))]
    cases += [(space, center, 1) for space in (elbow, ladder)
              for center in range(len(space))]
    # the reference enumerates each space once and reuses the forests, and so
    # their cube tables, for every case on that space
    enumerate_outcomes = reference_enumerate_forest_outcomes
    memo = {}

    def enumerate_once(space, *args, **kwargs):
        key = (id(space), args, tuple(sorted(kwargs.items())))
        if key not in memo:
            memo.clear()
            memo[key] = enumerate_outcomes(space, *args, **kwargs)
        return list(memo[key])

    monkeypatch.setitem(globals(), "reference_enumerate_forest_outcomes", enumerate_once)
    kinds = {"P = 1": 0, "P < 1": 0, "CenterNotInGrid": 0,
             "CenterNotInGrid after the first grid outcome": 0}
    for space, center, n0 in cases:
        for level in range(n0, dl.finest_level(space, 0.1, n0) + 1):
            for params in ORACLE_PARAMS:
                want = exact_outcome(reference_exact_good_probability, space,
                                     center, level, params, n0)
                assert exact_outcome(exact_good_probability, space, center,
                                     level, params, n0) == want
                if isinstance(want, tuple):
                    kind = want[0]
                    if kind == "CenterNotInGrid":
                        # the reference's outcomes of this space, in order
                        first, _ = next(iter(memo.values()))[0]
                        if center in first.hierarchy.grid(level).members:
                            kind += " after the first grid outcome"
                    kinds[kind] += 1
                else:
                    kinds["P = 1" if want == 1 else "P < 1"] += 1
    assert min(kinds.values()) > 0


def test_exact_good_probability_errors_match_reference(monkeypatch, elbow):
    """A level outside the hierarchy and a center some grid outcome drops
    raise the reference's error.  The forest cap is the enumerator's alone:
    one below the elbow's count of forests refuses the enumeration, and the
    walk still gives 3/4."""
    cases = [((elbow, "x", 5, PARAMS), "InvalidParams"),
             ((elbow, "u", 1, PARAMS), "CenterNotInGrid")]
    for args, kind in cases:
        got = exact_outcome(exact_good_probability, *args)
        assert got == exact_outcome(reference_exact_good_probability, *args)
        assert got[0] == kind
    count = len(reference_enumerate_forest_outcomes(elbow, 0.1, 0))
    monkeypatch.setattr(lattice, "MAX_OUTCOMES", count - 1)
    with pytest.raises(TooLargeForExhaustive, match="too many parent outcomes"):
        dl.enumerate_forest_outcomes(elbow, 0.1, 0)
    assert exact_good_probability(elbow, "x", 2, PARAMS) == Fraction(3, 4)


def test_exact_walk_refuses_past_its_row_budget(monkeypatch, small_family, elbow):
    """The walk counts the cube-matrix rows it unites, each child's row once
    per parent map, reads its budget when called, and refuses the level pair
    that passes it.  On the elbow, the three finest cubes are united under 2
    maps into the first level-1 grid and under 1 into the second: 9 rows.
    One cube of each grid passes the test at level 1, and its two rows are
    united under each of the four grid outcomes: 8 more, 17 in all.  A budget
    of 17 gives 3/4, one of 16 refuses.  At the default budget, each 12-point
    space of the criterion-1 family is refused within seconds."""
    monkeypatch.setattr(goodness, "MAX_UNITED_ROWS", 17)
    assert exact_good_probability(elbow, "x", 2, PARAMS) == Fraction(3, 4)
    monkeypatch.setattr(goodness, "MAX_UNITED_ROWS", 16)
    with pytest.raises(TooLargeForExhaustive, match="^more than 16 cube-matrix rows to unite$"):
        exact_good_probability(elbow, "x", 2, PARAMS)
    monkeypatch.undo()
    large = [space for _, space in small_family if len(space) == 12]
    assert len(large) == 3
    for space in large:
        start = time.perf_counter()
        with pytest.raises(TooLargeForExhaustive,
                           match=f"^more than {goodness.MAX_UNITED_ROWS} cube-matrix rows"):
            exact_good_probability(space, 0, finest_level(space, 0.1, 0), PARAMS)
        assert time.perf_counter() - start < 5


def test_exact_good_probability_pinned_on_10_and_11_points(small_family):
    """The walk on the 10- and 11-point criterion-1 spaces, which the
    reference cannot enumerate in a test's time: every level, every point,
    the three ``ORACLE_PARAMS``, against the P(good) or the refusal's type
    and message recorded with the walk that built every parent map of the
    coarsest level pair (commit 27f98bc).  Cubes grouped by their relevant
    children alone, without their near set, give wrong values here (at
    level 1: points 1 and 8 of cloud6, point 7 of cloud15) and on no space
    of at most 9 points."""
    pinned = json.loads((Path(__file__).resolve().parent / "exact_pinned.json").read_text())
    got = {}
    for label, space in small_family:
        if len(space) not in (10, 11):
            continue
        for center in range(len(space)):
            for level in range(finest_level(space, 0.1, 0) + 1):
                for params in ORACLE_PARAMS:
                    value = exact_outcome(exact_good_probability, space, center, level, params)
                    got[f"{label} {center} {level} {params.gamma} {params.r}"] = (
                        list(value) if isinstance(value, tuple) else str(value))
    assert got == pinned
    assert len(got) == 561


def test_exact_walk_counts_the_coarsest_pair_without_building_it(small_family, elbow,
                                                                 monkeypatch):
    """Every path ends at the coarsest level pair, so there the walk counts
    the good parent maps: it reads no table of the pair's maps and takes no
    distance row, also where the cube's level is the coarsest one, on a
    9-point space whose only level pair is the coarsest.  It enumerates the
    maps of the children whose finer cube meets the near set alone, fewer
    than the pair's children for some cube.  On the elbow, the finer pair's
    maps are read as before."""
    reads, distance_rows, pairs, enumerated = [], [], [], []
    LevelPair, maps = lattice._LevelPair, lattice._LevelPair.maps

    def read(pair):
        reads.append(pair.level)
        return maps.func(pair)

    def level_pair(*args):
        pairs.append(LevelPair(*args))
        return pairs[-1]

    def children_maps(options):
        enumerated.append((pairs[-1], options))
        return lattice._parent_maps(options)

    def rows(space, inside):
        distance_rows.append(len(inside))
        return real_rows(space, inside)

    real_rows = goodness._distance_rows
    monkeypatch.setattr(LevelPair, "maps", property(read))
    monkeypatch.setattr(lattice, "_LevelPair", level_pair)
    monkeypatch.setattr(goodness, "_parent_maps", children_maps)
    monkeypatch.setattr(goodness, "_distance_rows", rows)
    space = small_family[5][1]
    assert len(space) == 9 and finest_level(space, 0.1, 0) == 1
    assert exact_good_probability(space, 4, 0, PARAMS) == 1
    assert reads == distance_rows == enumerated == [] and pairs
    assert exact_good_probability(space, 0, 1, PARAMS) == Fraction(43, 180)
    assert reads == [] and distance_rows == [1]  # the finest cube's row, before the walk
    assert enumerated and all(pair.level == 1 for pair, _ in enumerated)
    assert any(len(options) < len(pair.kids) for pair, options in enumerated)
    pairs.clear()
    assert exact_good_probability(elbow, "x", 2, PARAMS) == Fraction(3, 4)
    assert reads and set(reads) == {2} and {pair.level for pair in pairs} == {1, 2}


def test_straddle_test_on_an_empty_near_set_warns_nothing():
    """No near point: no cube straddles, and no warning is raised."""
    inside = np.zeros((3, 4, 0), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not goodness._straddles(inside, 0).any()
        assert not goodness._near(np.array([1.0, 2.0]), 0.5).any()


def test_exact_small_benchmark_reference(small_family):
    """The seed-0 gate of the benchmark's exact-small workload: its recorded
    P(good) of the finest cube of point 0, per space of the criterion-1
    family with at most 9 points, recomputed with the library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    with open(path) as fh:
        reference = json.load(fh)["exact-small"]
    small = {label: space for label, space in small_family if len(space) <= 9}
    assert set(reference) == set(small) and len(small) == 40
    for label, space in sorted(small.items()):
        got = exact_good_probability(space, 0, dl.finest_level(space, 0.1, 0), PARAMS)
        assert str(got) == reference[label], label


def test_goodness_monotone_in_r(elbow):
    """A stricter level gap can only remove constraints: good stays good."""
    loose = GoodnessParams(delta=0.1, gamma=0.1, r=2)
    for t in range(100):
        forest = forest_for(elbow, 0.1, t)
        cube = forest.cube(2, 0)
        if dl.is_good(forest, cube, PARAMS):
            assert dl.is_good(forest, cube, loose)


# --- boundary layers ---------------------------------------------------------------

def reference_boundary_layer(space: dl.FiniteMetricSpace, cube: dl.Cube,
                             eps: float) -> set[int]:
    """The layer as the paper defines it, by a double scan: the points at most
    eps * scale from both the cube and its complement (the distance to an
    empty set is +inf, so a cube that holds the whole space has no layer)."""
    width = eps * cube.scale
    inside = sorted(cube.members)
    outside = _complement(space, cube.members)
    return {x for x in range(len(space))
            if dl.set_distance(space, [x], inside) <= width
            and dl.set_distance(space, [x], outside) <= width}


def exact_eps(distance: float, scale: float) -> float | None:
    """A width eps with eps * scale == distance in floating point, if one of
    the three floats nearest distance / scale gives it."""
    eps = distance / scale
    for e in (eps, np.nextafter(eps, np.inf), np.nextafter(eps, 0)):
        if e * scale == distance:
            return float(e)
    return None


def test_decay_row_matches_reference_layer_on_every_outcome(elbow, ladder, decay_probe):
    """On every forest outcome, at every level and for every point x, the
    decay row is x's membership in the two-sided layer of its cube, from one
    call on the stack of every outcome.  Each width sits exactly at a
    distance from x or one float below it, so the closed side is seen
    wherever x's depth is that distance."""
    closed = 0
    for space, params in ((elbow, PARAMS), (ladder, PARAMS), (decay_probe, DECAY_PARAMS)):
        outcomes = lattice.enumerate_forest_outcomes(space, params.delta, 0)
        forests = [forest for forest, _ in outcomes]
        hierarchy = forests[0].hierarchy
        want = {}  # cubes repeat across outcomes
        for level, x in itertools.product(hierarchy.levels, range(len(space))):
            at = {e for y in range(len(space)) if y != x
                  if (e := exact_eps(space.d[x, y], hierarchy.scale(level))) is not None}
            schedule = tuple(w for e in sorted(at, reverse=True)
                             for w in (e, float(np.nextafter(e, 0))))
            rows = goodness._decay_rows(forests, params, x, level, schedule)
            assert rows.shape == (len(forests), len(schedule))
            for forest, got in zip(forests, rows.tolist()):
                cube = forest.cube(level, forest.ancestor(x, hierarchy.finest_level, level))
                key = level, cube.members, x
                if key not in want:
                    want[key] = [int(x in reference_boundary_layer(space, cube, eps))
                                 for eps in schedule]
                    closed += sum(want[key][::2]) - sum(want[key][1::2])
                assert got == want[key], (forest.parents, level, x)
    assert closed > 0


# --- bad-probability estimator --------------------------------------------------------

def test_estimate_bad_probability_elbow(elbow):
    est = estimate_bad_probability(elbow, 2, "x", PARAMS, trials=2000, seed=5)
    sigma = (0.25 * 0.75 / 2000) ** 0.5
    assert abs(est.fraction - 0.25) <= 4 * sigma
    assert est.wilson_low <= est.fraction <= est.wilson_high
    assert est.step_violations == 0


def test_estimate_deterministic_and_worker_invariant(elbow, decay_probe):
    a = estimate_bad_probability(elbow, 2, 0, PARAMS, trials=300, seed=9)
    b = estimate_bad_probability(elbow, 2, 0, PARAMS, trials=300, seed=9)
    c = estimate_bad_probability(elbow, 2, 0, PARAMS, trials=300, seed=9,
                                 workers=2)
    assert a == b == c
    fits = [estimate_boundary_decay(decay_probe, "x", 0, DECAY_SCHEDULE,
                                    trials=300, seed=7, params=DECAY_PARAMS,
                                    workers=workers) for workers in (1, 2)]
    assert fits[0] == fits[1] and fits[0].counts[0] > 0
    freqs = [estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=300,
                                  seed=3, workers=workers) for workers in (1, 2)]
    assert freqs[0] == freqs[1]
    # streams taken from trial_rng, not batched: a seed of 4 words
    big = [estimate_bad_probability(elbow, 2, 0, PARAMS, trials=300, seed=2**96 + 9,
                                    workers=workers) for workers in (1, 2)]
    assert big[0] == big[1]
    assert big[0].bad_count == int(reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 2**96 + 9,
         reference_bad_row, (2, 0)), 0, 300)[:, 0].sum())


def test_estimate_singleton_never_bad(singleton):
    est = estimate_bad_probability(singleton, 0, 0, PARAMS, trials=50, seed=0)
    assert est.bad_count == 0


def test_estimate_rejects_zero_trials(elbow):
    with pytest.raises(InvalidTrials):
        estimate_bad_probability(elbow, 2, 0, PARAMS, trials=0, seed=0)


@pytest.mark.parametrize("trials", [10.0, 2.5, "5", True])
def test_estimators_refuse_a_trial_count_that_is_not_an_integer(monkeypatch, elbow,
                                                                trials):
    monkeypatch.setattr(goodness, "run_chunked", None)
    refused = f"^trials must be an integer >= 1, got {re.escape(repr(trials))}$"
    with pytest.raises(InvalidTrials, match=refused):
        estimate_bad_probability(elbow, 2, 0, PARAMS, trials=trials, seed=0)
    with pytest.raises(InvalidTrials, match=refused):
        estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=trials, seed=0,
                                params=PARAMS)
    with pytest.raises(InvalidTrials, match=refused):
        estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=trials,
                             seed=0)
    with pytest.raises(InvalidTrials, match=refused):
        run_chunked(None, None, trials)


@pytest.mark.parametrize("workers", [2.5, "2", 0, -3, True])
def test_estimators_refuse_a_worker_count_that_is_not_a_positive_integer(
        monkeypatch, elbow, workers):
    """Refused before any trial runs: a float or a string escaped as a bare
    TypeError, and 0 or a negative count ran serially."""
    monkeypatch.setattr(goodness, "_trial_chunk", None)
    refused = "^workers must be an integer >= 1, got "
    with pytest.raises(InvalidParams, match=refused):
        estimate_bad_probability(elbow, 2, 0, PARAMS, trials=10, seed=0,
                                 workers=workers)
    with pytest.raises(InvalidParams, match=refused):
        estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=10, seed=0,
                                params=PARAMS, workers=workers)
    with pytest.raises(InvalidParams, match=refused):
        estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=10,
                             seed=0, workers=workers)


@pytest.mark.parametrize("limit", [float("nan"), "20", None, True, 0])
def test_estimators_refuse_a_limit_that_is_no_integer_of_at_least_one(monkeypatch, elbow,
                                                                      limit):
    """Refused before any trial runs, and by the exact walk before any grid
    is enumerated."""
    monkeypatch.setattr(goodness, "run_chunked", None)
    monkeypatch.setattr(lattice, "enumerate_maximal_separated", None)
    refused = f"^limit must be an integer >= 1, got {re.escape(repr(limit))}$"
    with pytest.raises(InvalidParams, match=refused):
        estimate_bad_probability(elbow, 2, 0, PARAMS, trials=10, seed=0, limit=limit)
    with pytest.raises(InvalidParams, match=refused):
        estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=10, seed=0,
                                params=PARAMS, limit=limit)
    with pytest.raises(InvalidParams, match=refused):
        estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=10,
                             seed=0, limit=limit)
    with pytest.raises(InvalidParams, match=refused):
        exact_good_probability(elbow, "x", 2, PARAMS, limit=limit)


def test_estimators_take_a_numpy_integer_trial_count(elbow):
    est = estimate_bad_probability(elbow, 2, 0, PARAMS, trials=np.int64(50), seed=3)
    assert est == estimate_bad_probability(elbow, 2, 0, PARAMS, trials=50, seed=3)
    assert type(est.trials) is int
    assert (estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=np.int64(50),
                                    seed=3, params=PARAMS)
            == estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=50, seed=3,
                                       params=PARAMS))
    assert (estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75,
                                 trials=np.int64(50), seed=3)
            == estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=50,
                                    seed=3))


@pytest.mark.parametrize("seed", [2.5, -1, 0.5, False])
def test_estimators_refuse_a_bad_seed(monkeypatch, elbow, seed):
    """Refused before any trial runs: trial_rng would draw seed 2's streams
    for 2.5, and numpy refuses -1 with a bare ValueError.  trial_rng itself
    applies the rule to the seed and to the trial index."""
    monkeypatch.setattr(goodness, "run_chunked", None)
    refused = "seed must be an integer >= 0"
    with pytest.raises(InvalidParams, match=refused):
        estimate_bad_probability(elbow, 2, 0, PARAMS, trials=10, seed=seed)
    with pytest.raises(InvalidParams, match=refused):
        estimate_boundary_decay(elbow, "x", 0, (2e-4,), trials=10, seed=seed,
                                params=PARAMS)
    with pytest.raises(InvalidParams, match=refused):
        estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=10,
                             seed=seed)
    with pytest.raises(InvalidParams, match=refused):
        trial_rng(seed, 0)
    with pytest.raises(InvalidParams, match="^trial index must be an integer >= 0, got "):
        trial_rng(1, seed)


def test_estimators_take_a_numpy_integer_seed(elbow):
    assert (estimate_bad_probability(elbow, 2, 0, PARAMS, trials=50, seed=np.int64(3))
            == estimate_bad_probability(elbow, 2, 0, PARAMS, trials=50, seed=3))
    assert (trial_rng(np.int64(3), np.int64(4)).bit_generator.state
            == trial_rng(3, 4).bit_generator.state)


def test_estimate_center_not_in_grid(elbow):
    """At a random coarse level the fixed center is sometimes absent."""
    with pytest.raises(CenterNotInGrid, match="^fixed center 1 absent from the level-1 grid; "
                                              "fix the center at the deterministic finest level$"):
        estimate_bad_probability(elbow, 1, "u", PARAMS, trials=50, seed=0)


def test_really_good_center_not_in_grid(elbow):
    """The really-good estimator reports a missing center the same way."""
    with pytest.raises(CenterNotInGrid):
        estimate_really_good(elbow, "x", 1, PARAMS, 0.25, 0.75, trials=50,
                             seed=0)


# --- boundary decay estimator -----------------------------------------------------------

DECAY_PARAMS = GoodnessParams(delta=0.001, gamma=0.1, r=1)
DECAY_SCHEDULE = (2e-6, 4e-9, 8e-12)


def test_decay_probe_estimates(decay_probe):
    fit = estimate_boundary_decay(decay_probe, "x", 0, DECAY_SCHEDULE,
                                  trials=1500, seed=7, params=DECAY_PARAMS)
    assert fit.counts[0] > fit.counts[1] > 0
    assert fit.counts[2] == 0
    assert all(a >= b for a, b in zip(fit.estimates, fit.estimates[1:]))
    assert fit.eta_hat is not None and fit.eta_hat > 0
    again = estimate_boundary_decay(decay_probe, "x", 0, DECAY_SCHEDULE,
                                    trials=1500, seed=7, params=DECAY_PARAMS)
    assert again.counts == fit.counts


def test_decay_singleton_all_zero(singleton):
    fit = estimate_boundary_decay(singleton, 0, 0, (2e-6, 4e-9), trials=20,
                                  seed=0, params=DECAY_PARAMS)
    assert fit.counts == (0, 0)
    assert fit.eta_hat is None


def test_decay_schedule_validation(decay_probe):
    with pytest.raises(ScheduleInvalid):
        estimate_boundary_decay(decay_probe, 0, 0, (4e-9, 2e-6), trials=10,
                                seed=0, params=DECAY_PARAMS)  # increasing
    with pytest.raises(ScheduleInvalid):
        estimate_boundary_decay(decay_probe, 0, 0, (1e-2,), trials=10,
                                seed=0, params=DECAY_PARAMS)  # 500*eps > delta
    with pytest.raises(ScheduleInvalid):
        estimate_boundary_decay(decay_probe, 0, 0, (), trials=10,
                                seed=0, params=DECAY_PARAMS)
    for bad in ((2e-6, 0.0), (-2e-6,), (float("nan"),)):  # NaN compares false
        with pytest.raises(ScheduleInvalid, match="^eps values must be positive$"):
            estimate_boundary_decay(decay_probe, 0, 0, bad, trials=10,
                                    seed=0, params=DECAY_PARAMS)
    # a string is no schedule of its characters, and None is no eps
    for bad in ("2e-6", [None], ["x"], 2e-6):
        with pytest.raises(ScheduleInvalid):
            estimate_boundary_decay(decay_probe, 0, 0, bad, trials=10,
                                    seed=0, params=DECAY_PARAMS)


def test_decay_layer_is_closed_at_its_width():
    """z lies exactly eps * scale from x at level 0.  Under grids {a, b} with
    the links x -> a -> c and z -> b -> C, or their mirror, x's depth in its
    level-0 cube is that distance, which the closed layer counts; no trial
    puts x closer to its cube's complement.  Dyadic coordinates keep the
    line's distances exact."""
    eps = 2.0 ** -19
    space = line_space({"c": -0.625, "a": -5 * 2.0 ** -13, "x": 0.0, "z": eps,
                        "b": 5 * 2.0 ** -13 + eps, "C": 0.625})
    assert space.d[2, 3] == eps * DECAY_PARAMS.delta ** 0
    fit = estimate_boundary_decay(space, "x", 0, (eps, np.nextafter(eps, 0)),
                                  trials=400, seed=0, params=DECAY_PARAMS)
    assert fit.counts[0] > 0 and fit.counts[1] == 0


@pytest.mark.parametrize("delta", [0.123, 0.246])
def test_decay_accepts_eps_at_its_bound(elbow, delta):
    """eps = delta / 500 is allowed, also where 500 * eps rounds above delta."""
    assert 500 * (delta / 500) > delta
    params = GoodnessParams(delta=delta, gamma=0.1, r=1)
    fit = estimate_boundary_decay(elbow, 0, 0, (delta / 500,), trials=5,
                                  seed=0, params=params)
    assert fit.eps == (delta / 500,)


def reference_floor(space: dl.FiniteMetricSpace, level: int,
                    params: GoodnessParams, finest: int) -> float | None:
    """Conservative membership floor 2**-d over the levels above the cube level.

    Occupancy is measured on the whole space, which can only overcount the
    grid points of a sampled level, so the floor (and the derived exponent)
    is a lower reference, not a fitted value.
    """
    ds = []
    for lev in range(level + 1, finest + 1):
        ds.append(dl.max_ball_occupancy(space, params.delta ** (lev - 1)))
    if not ds:
        return None
    return 0.5 ** max(ds)


def reference_eta(space, level, params, finest):
    """The reference exponent as computed from the per-level floor above."""
    a_ref = reference_floor(space, level, params, finest)
    if a_ref is not None and 0 < a_ref < 1:
        return math.log(1 - a_ref) / math.log(params.delta)
    return None


def test_decay_reference_matches_per_level_floor(small_family):
    """One occupancy call at delta**level gives the exponent of the old
    maximum over every level finer than the cube's."""
    for delta in (0.1, 0.001):
        params = GoodnessParams(delta=delta, gamma=0.1, r=1)
        for _, space in small_family:
            finest = finest_level(space, delta, 0)
            for level in range(finest + 1):
                fit = estimate_boundary_decay(space, 0, level, (delta / 500,),
                                              trials=1, seed=0, params=params)
                assert fit.eta_reference == reference_eta(space, level, params,
                                                          finest)


# --- equalization ------------------------------------------------------------------------

def test_equalize_examples():
    assert dl.equalize(0.4, 0.4, 0.99) is True          # threshold one
    assert dl.equalize(0.6, 0.3, 0.6) is False          # threshold 0.5
    assert dl.equalize(0.6, 0.3, 0.5) is True
    with pytest.raises(InvalidProbabilities):
        dl.equalize(0.3, 0.6, 0.5)                       # a > p_q
    with pytest.raises(InvalidProbabilities):
        dl.equalize(0.0, 0.0, 0.5)
    with pytest.raises(InvalidProbabilities):
        dl.equalize(0.6, 0.3, 1.5)


def test_really_good_refuses_bad_pair_whatever_the_draws(elbow):
    """a > p_q is refused before the first trial, also on seeds whose one
    trial draws a bad cube and so never reaches the equalization coin."""
    level = finest_level(elbow, PARAMS.delta, 0)
    for seed in range(6):
        with pytest.raises(InvalidProbabilities):
            estimate_really_good(elbow, "x", level, PARAMS, 5.0, 0.5, trials=1,
                                 seed=seed)


def test_really_good_frequency_elbow(elbow):
    p_q = exact_good_probability(elbow, "x", 2, PARAMS)
    a = Fraction(1, 4)
    freq = estimate_really_good(elbow, "x", 2, PARAMS, float(a), float(p_q),
                                trials=20_000, seed=3)
    sigma = (float(a) * (1 - float(a)) / 20_000) ** 0.5
    assert abs(freq - float(a)) <= 4 * sigma


# --- the trial pipeline ------------------------------------------------------------------
# The trial chunk as it was when every trial built its own forest, with
# each trial's parents drawn by the per-child oracle, level by level, coarse
# first, and rows that classify the center's cube with the definition-level
# classifiers above: the oracle for the chunk's draw-path trie, for the rows
# it caches and for the one draw call per forest of the stacked linker.

def reference_trial_chunk(payload, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a seeded estimator: per trial, a hierarchy and then
    its parents drawn from ``trial_rng(seed, t)``, then ``row(forest, rng,
    params, *args)``."""
    space, params, coarsest_level, mode, limit, seed, row, args = payload
    rows = []
    for t in range(lo, hi):
        rng = trial_rng(seed, t)
        hierarchy = build_nested_grids(space, params.delta, coarsest_level, rng,
                                       mode=mode, limit=limit)
        parents = {lev: reference_assign_parents(space, hierarchy.grid(lev),
                                                 hierarchy.grid(lev - 1), rng)
                   for lev in hierarchy.levels[1:]}
        forest = LatticeForest(hierarchy=hierarchy, parents=parents)
        rows.append(row(forest, rng, params, *args))
    return np.array(rows, dtype=np.int64)


def reference_bad_row(forest, rng, params, level, center):
    cube = forest.cube(level, center)
    return (int(not reference_is_good(forest, cube, params)),
            len(reference_theorem_step_violations(forest, cube, params)))


def reference_decay_row(forest, rng, params, x, level, eps_schedule):
    owner = forest.ancestor(x, forest.hierarchy.finest_level, level)
    cube = forest.cube(level, owner)
    return [int(x in reference_boundary_layer(forest.space, cube, eps))
            for eps in eps_schedule]


def reference_really_good_row(forest, rng, params, level, center, a, p_q):
    good = reference_is_good(forest, forest.cube(level, center), params)
    xi = float(rng.random())
    return (int(good and equalize(p_q, a, xi)),)


def chunk_rows(monkeypatch, estimate, *args, lo=0, **kwargs):
    """Rows lo.. of the one trial chunk the estimator runs."""
    payloads = []

    def capture(worker, payload, trials, workers=1):
        payloads.append((worker, payload, trials))
        return run_chunked(worker, payload, trials, workers)

    with monkeypatch.context() as patch:
        patch.setattr(goodness, "run_chunked", capture)
        estimate(*args, **kwargs)
    (worker, payload, trials), = payloads
    part, = worker(payload, lo, trials)
    return part


def criterion7_cloud():
    """The 60-point cascade cloud of acceptance criterion 7."""
    return dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                         branching=3, ratio=0.1, spread=(0.25, 0.45))


def pipeline_cases(elbow, ladder, decay_probe):
    """(space, params, mode, trials, decay level, eps schedule): the elbow,
    the ladder, the decay probe and the criterion-7 cloud, and two
    greedy-mode cases."""
    cloud = criterion7_cloud()
    wide = (2e-4, 2e-5)
    return [(elbow, PARAMS, "exhaustive_uniform", 400, 0, wide),
            (ladder, PARAMS, "exhaustive_uniform", 400, 0, wide),
            (decay_probe, DECAY_PARAMS, "exhaustive_uniform", 300, 0, DECAY_SCHEDULE),
            (cloud, PARAMS, "exhaustive_uniform", 40, 1, wide),
            (ladder, PARAMS, "greedy_permutation", 200, 0, wide),
            (cloud, PARAMS, "greedy_permutation", 20, 1, wide)]


def assert_rows_match_reference(monkeypatch, space, params, mode, trials,
                                decay_level, eps, seed=11, lo=0):
    level = finest_level(space, params.delta, 0)
    common = dict(mode=mode, limit=DEFAULT_EXHAUSTIVE_LIMIT)
    old = (space, params, 0, mode, DEFAULT_EXHAUSTIVE_LIMIT, seed)
    got = chunk_rows(monkeypatch, estimate_bad_probability, space, level, 0,
                     params, trials, seed, lo=lo, **common)
    want = reference_trial_chunk(old + (reference_bad_row, (level, 0)), lo, trials)
    assert np.array_equal(got, want)
    got = chunk_rows(monkeypatch, estimate_boundary_decay, space, 0, decay_level,
                     eps, trials, seed, params, lo=lo, **common)
    want = reference_trial_chunk(
        old + (reference_decay_row, (0, decay_level, eps)), lo, trials)
    assert np.array_equal(got, want)
    got = chunk_rows(monkeypatch, estimate_really_good, space, 0, level, params,
                     0.25, 0.75, trials, seed, lo=lo, **common)
    want = reference_trial_chunk(
        old + (reference_really_good_row, (level, 0, 0.25, 0.75)), lo, trials)
    assert np.array_equal(got, want)


def test_trial_rows_match_reference(monkeypatch, elbow, ladder, decay_probe, singleton):
    """Equal rows for all three estimators, from the first trial and from
    one inside the chunk, and for a seed of three 32-bit words; also on the
    one-point space, whose build draws nothing, so that its leaf is the
    memo's root."""
    cases = pipeline_cases(elbow, ladder, decay_probe)
    cases.append((singleton, PARAMS, "exhaustive_uniform", 40, 0, (2e-4, 2e-5)))
    for case in cases:
        for lo in (0, 7):
            assert_rows_match_reference(monkeypatch, *case, lo=lo)
    for lo in (0, 7):
        assert_rows_match_reference(monkeypatch, *cases[0], seed=2**64 + 5, lo=lo)


def test_trial_rows_make_no_checked_chain_call(monkeypatch, elbow):
    """The row cores read the ancestor walker, ``LatticeForest._walk``,
    directly: no trial row of the three estimators makes a checked
    ``chain`` call, and the decay rows still refuse a level that is not the
    hierarchy's with the text that the checked call gave."""
    calls, chain = [], LatticeForest.chain
    monkeypatch.setattr(LatticeForest, "chain",
                        lambda self, *args: calls.append(args) or chain(self, *args))
    bad = estimate_bad_probability(elbow, 2, "x", PARAMS, trials=200, seed=5)
    fit = estimate_boundary_decay(elbow, "x", 1, (2e-4, 2e-5), trials=200, seed=6,
                                  params=PARAMS)
    estimate_really_good(elbow, "x", 2, PARAMS, 0.25, 0.75, trials=200, seed=7)
    assert calls == []
    assert bad.bad_count == int(reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 5,
         reference_bad_row, (2, 0)), 0, 200)[:, 0].sum())
    assert list(fit.counts) == reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 6,
         reference_decay_row, (0, 1, (2e-4, 2e-5))), 0, 200).sum(axis=0).tolist()
    with pytest.raises(InvalidParams, match="^level 99 not present in the hierarchy$"):
        estimate_boundary_decay(elbow, "x", 99, (2e-4,), trials=5, seed=0, params=PARAMS)


@pytest.mark.parametrize("budget", [0, 1, mc._MISS_BUDGET])
def test_trial_rows_whatever_the_miss_budget(monkeypatch, budget, elbow, ladder,
                                             decay_probe):
    monkeypatch.setattr(mc, "_MISS_BUDGET", budget)
    for case in pipeline_cases(elbow, ladder, decay_probe)[:3]:
        assert_rows_match_reference(monkeypatch, *case)


# the stop rule of a chunk's memo work, forced: at the first path entered, and never
FORCED_STOPS = {"first-miss": lambda session, left: session.paths > 0,
                "never": lambda session, left: False}


@pytest.mark.parametrize("block", [mc._BLOCK, 50], ids=["one-block", "blocks-of-50"])
@pytest.mark.parametrize("stop", list(FORCED_STOPS))
def test_trial_rows_whatever_the_stop(monkeypatch, stop, block, elbow, ladder, decay_probe):
    """Equal rows for all three estimators with the memo work stopped at the
    first miss, and with it never stopped, also in blocks of 50 trials.
    Stopped at the first miss, each chunk records its first build alone:
    every other build draws from the plain generator, whose ``random()``
    then gives the coin."""
    monkeypatch.setattr(mc, "_BLOCK", block)
    monkeypatch.setattr(mc, "_expects_no_hit", FORCED_STOPS[stop])
    built = count_builds(monkeypatch)
    for case in pipeline_cases(elbow, ladder, decay_probe)[:3]:
        assert_rows_match_reference(monkeypatch, *case)
    # three estimators per case, each run twice by ``chunk_rows``: 18 chunks
    recorded = sum(kind is not np.random.Generator for kind in built)
    assert recorded == 18 if stop == "first-miss" else recorded > 18


def count_builds(monkeypatch) -> list:
    """One entry per forest the trial chunks build, from now on: the class
    of the generator it draws its parents from, the recorder's or a plain
    ``np.random.Generator``."""
    built = []

    def counting_build_forest(hierarchy, rng):
        built.append(type(rng))
        return build_forest(hierarchy, rng)

    monkeypatch.setattr(goodness, "build_forest", counting_build_forest)
    return built


def count_entries(monkeypatch) -> list:
    """The session of each path a trial chunk enters in its memo, from now
    on; the process's probe, which enters one of its own, is run first."""
    mc._words_match()
    sessions, enter = [], mc._Session.enter

    def counting_enter(self, path, forest):
        sessions.append(self)
        return enter(self, path, forest)

    monkeypatch.setattr(mc._Session, "enter", counting_enter)
    return sessions


@pytest.mark.parametrize("budget, builds", [(0, 1500), (mc._MISS_BUDGET, 6)])
def test_trial_chunk_builds_each_forest_once(monkeypatch, elbow, budget, builds):
    """The elbow's 1500 trials hold 6 distinct forests; a chunk builds each
    once, and enters its path, unless its miss budget is spent."""
    monkeypatch.setattr(mc, "_MISS_BUDGET", budget)
    built, entries = count_builds(monkeypatch), count_entries(monkeypatch)
    est = estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5)
    assert len(built) == builds
    assert len(entries) == min(budget, 6)
    assert est.bad_count == int(reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 5,
         reference_bad_row, (2, 0)), 0, 1500)[:, 0].sum())


def test_trial_chunk_stops_its_memo_work_where_no_hit_is_expected(monkeypatch):
    """On the criterion-7 cloud a trial's draw path has probability about
    1e-19, so after its first build a 16-trial chunk expects no hit: it
    enters that one path, whose leaf holds its forest, and builds the other
    15 trials from the plain generator, with no draw computed from words."""
    cloud = criterion7_cloud()
    level = finest_level(cloud, 0.1, 0)
    entries, built = count_entries(monkeypatch), count_builds(monkeypatch)
    draws, draw = [], mc._draw
    monkeypatch.setattr(mc, "_draw", lambda *args: draws.append(args) or draw(*args))
    est = estimate_bad_probability(cloud, level, 0, PARAMS, trials=16, seed=0)
    (session,) = entries
    assert session.paths == 1 and 0 < session.mass < 1e-12 and not session.served
    (kept,) = [forest for forest in session.builds if forest is not None]
    assert isinstance(kept, LatticeForest)
    assert draws == []
    assert built[0] is not np.random.Generator
    assert built[1:] == [np.random.Generator] * 15
    assert est.bad_count == int(reference_trial_chunk(
        (cloud, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 0,
         reference_bad_row, (level, 0)), 0, 16)[:, 0].sum())


def test_a_session_that_has_served_a_trial_never_stops(monkeypatch, elbow):
    """The elbow's 1500 trials hold 6 distinct forests, whose paths carry
    all the probability, so its session never stops and builds 6.  Once a
    session has served a trial it walks whatever its rule says: a chunk of
    two jobs, on seeds 5 and 6, walked together in one session, with the
    rule forced to expect no hit once a trial is served, builds 6 forests,
    each from a trial of the first job, so the second job builds nothing."""
    built, starts = count_builds(monkeypatch), []
    chunks, chunk_rows = [], mc._chunk_rows
    monkeypatch.setattr(mc, "_chunk_rows", lambda session, build, jobs, *args: chunks.append(
        [seed for seed, _, _ in jobs]) or chunk_rows(session, build, jobs, *args))
    verdicts, rule = [], mc._expects_no_hit

    def served_rule(session, left):
        """The rule itself until the session has served a trial, and then no hit expected."""
        if session.served:
            return True
        verdicts.append(rule(session, left))
        return verdicts[-1]

    monkeypatch.setattr(mc, "_expects_no_hit", served_rule)
    build, jobs = command_payload(elbow, 5)
    payload = (lambda rng: starts.append(mc._lcg(rng)) or build(rng),
               [jobs[0], (6, *jobs[0][1:])])
    parts = mc._trial_chunk(payload, 0, 1500)
    assert chunks == [[5, 6]]
    assert len(built) == 6 and verdicts and not any(verdicts)
    first_job = {mc._lcg(trial_rng(5, t)) for t in range(1500)}
    assert len(starts) == 6 and set(starts) <= first_job
    assert np.array_equal(parts[1], reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 6,
         reference_bad_row, (2, 0)), 0, 1500))


def count_row_calls(monkeypatch) -> list:
    """The length of each stack the bad-probability rows are computed on,
    from now on."""
    lengths, bad_rows = [], goodness._bad_rows

    def counting_bad_rows(forests, *args, **kwargs):
        lengths.append(len(forests))
        return bad_rows(forests, *args, **kwargs)

    monkeypatch.setattr(goodness, "_bad_rows", counting_bad_rows)
    return lengths


def test_trial_chunk_classifies_a_block_in_one_call(monkeypatch, elbow):
    """A chunk classifies the forests it builds together, after its block's
    walk: 16 criterion-7 trials, every one a new forest, in one call, and
    the elbow's 1500 trials, one block, their 6 distinct forests in one
    call, in blocks of 500 one call per block that meets a new forest.
    With no memo, every trial's forest is classified, in calls of at most
    ``mc._ROW_BATCH`` forests."""
    cloud = criterion7_cloud()
    lengths = count_row_calls(monkeypatch)
    estimate_bad_probability(cloud, finest_level(cloud, 0.1, 0), 0, PARAMS, trials=16, seed=0)
    assert lengths == [16]
    lengths.clear()
    estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5)
    assert lengths == [6]
    monkeypatch.setattr(mc, "_BLOCK", 500)
    lengths.clear()
    estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5)
    assert len(lengths) <= 3 and sum(lengths) == 6
    monkeypatch.setattr(mc, "_MISS_BUDGET", 0)
    lengths.clear()
    est = estimate_bad_probability(elbow, 2, "x", PARAMS, trials=300, seed=5)
    assert sum(lengths) == 300 and set(lengths[:-1]) == {mc._ROW_BATCH}
    assert 0 < lengths[-1] <= mc._ROW_BATCH
    assert est.bad_count == int(reference_trial_chunk(
        (elbow, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT, 5,
         reference_bad_row, (2, 0)), 0, 300)[:, 0].sum())


def test_trial_chunk_serves_greedy_orders_from_the_words(monkeypatch, elbow):
    """Greedy grids draw a scan order per level, as its Lehmer code: the
    elbow's 1500 greedy-mode trials still build at most 18 forests."""
    built = count_builds(monkeypatch)
    est = estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5,
                                   mode="greedy_permutation")
    assert len(built) <= 18
    assert est.bad_count == int(reference_trial_chunk(
        (elbow, PARAMS, 0, "greedy_permutation", DEFAULT_EXHAUSTIVE_LIMIT, 5,
         reference_bad_row, (2, 0)), 0, 1500)[:, 0].sum())


@pytest.mark.parametrize("disagree, block", [("guard", mc._BLOCK), ("words", mc._BLOCK),
                                             ("guard", 50), ("words", 50)],
                         ids=["guard", "words", "guard-blocks-of-50", "words-blocks-of-50"])
def test_trial_chunk_builds_every_trial_when_the_words_disagree(monkeypatch, fresh_verdict,
                                                                disagree, block,
                                                                elbow, ladder, decay_probe):
    """When the process's NumPy does not draw as the word math does, every
    trial builds, with the reference's rows: with the verdict forced to
    False, and with words whose outputs are one bit off, which the probe
    finds.  Either way no block walks, so no draw is computed from words,
    also in blocks of 50 trials, 6 blocks per 300 trials."""
    monkeypatch.setattr(mc, "_BLOCK", block)
    if disagree == "guard":
        monkeypatch.setattr(mc, "_words_match", lambda: False)
    else:
        xsl_rr = mc._xsl_rr
        monkeypatch.setattr(mc, "_xsl_rr", lambda hi, lo: xsl_rr(hi, lo) ^ mc._U1)
        assert not mc._words_match()
    draws, draw = [], mc._draw
    monkeypatch.setattr(mc, "_draw", lambda *args: draws.append(args) or draw(*args))
    cases = pipeline_cases(elbow, ladder, decay_probe)
    for case in (cases[0], cases[4]):
        assert_rows_match_reference(monkeypatch, *case)
    built = count_builds(monkeypatch)
    estimate_bad_probability(elbow, 2, "x", PARAMS, trials=300, seed=5)
    assert len(built) == 300
    assert draws == []


def test_trial_chunk_seeds_no_stream_per_trial(monkeypatch, elbow):
    """A chunk sets its trials' states from one batched pass, so the elbow's
    1500 trials seed a stream with default_rng at most once: for the check
    against trial_rng.  (A call on a Generator only passes it through.)"""
    mc._words_match()  # the process's probe seeds a fixed stream of its own, once
    made = []
    default_rng = np.random.default_rng

    def counting_default_rng(seed=None):
        if not isinstance(seed, np.random.Generator):
            made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5)
    assert len(made) <= 1


def test_trial_chunk_refuses_states_that_differ_from_trial_rng(monkeypatch, elbow):
    monkeypatch.setattr(mc, "_trial_states",
                        lambda seeds, lo, hi: _trial_states([s + 1 for s in seeds], lo, hi))
    with pytest.raises(RuntimeError, match="differ from trial_rng"):
        estimate_bad_probability(elbow, 2, "x", PARAMS, trials=10, seed=5)


def chunk_payload(monkeypatch, estimate, *args, **kwargs):
    """The (worker, payload) of the trial chunk that an estimator runs,
    captured without running it."""
    captured = []

    def capture(worker, payload, trials, workers=1):
        captured.append((worker, payload))
        return [np.zeros((trials, 2), dtype=np.int64)]

    with monkeypatch.context() as patch:
        patch.setattr(goodness, "run_chunked", capture)
        estimate(*args, **kwargs)
    (worker, payload), = captured
    return worker, payload


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, lo, hi", [(2**96, 0, 6), (5, 2**32 - 3, 2**32 + 2),
                                          (5, 7, 8), (2**96, 3, 4), (5, 2**32, 2**32 + 1)])
def test_trial_chunk_edges_match_reference(monkeypatch, elbow, seed, lo, hi):
    """The rows of chunks whose states come from trial_rng (a seed of 2**96,
    indices across 2**32) and of one-trial chunks, whose length-1 arrays
    must not overflow as scalars, with and without the coin."""
    cases = [(estimate_bad_probability, (elbow, 2, 0, PARAMS), reference_bad_row, (2, 0)),
             (estimate_really_good, (elbow, 0, 2, PARAMS, 0.25, 0.75),
              reference_really_good_row, (2, 0, 0.25, 0.75))]
    for estimate, args, row, row_args in cases:
        worker, payload = chunk_payload(monkeypatch, estimate, *args, trials=1, seed=seed)
        want = reference_trial_chunk((elbow, PARAMS, 0, "exhaustive_uniform",
                                      DEFAULT_EXHAUSTIVE_LIMIT, seed, row, row_args), lo, hi)
        assert np.array_equal(worker(payload, lo, hi)[0], want)


@pytest.mark.filterwarnings("error")
def test_trial_chunk_memo_carries_across_blocks(monkeypatch, elbow, ladder, decay_probe):
    """With blocks of 7 trials, rows still equal the reference's, and the
    elbow's 1500 trials still build only their 6 distinct forests."""
    monkeypatch.setattr(mc, "_BLOCK", 7)
    cases = pipeline_cases(elbow, ladder, decay_probe)
    for case in (cases[0], cases[4]):
        assert_rows_match_reference(monkeypatch, *case, lo=3)
    built = count_builds(monkeypatch)
    estimate_bad_probability(elbow, 2, "x", PARAMS, trials=1500, seed=5)
    assert len(built) == 6


def command_payload(space, seed: int) -> tuple:
    """The payload of a ``goodness`` command's run on a space, at its finest
    level and center 0: the build, and the bad-probability, decay and
    really-good jobs, on seeds seed, seed + 1 and seed + 2."""
    level = finest_level(space, PARAMS.delta, 0)
    build = partial(goodness._trial_part, space, PARAMS, 0, "exhaustive_uniform",
                    DEFAULT_EXHAUSTIVE_LIMIT)
    jobs = [goodness._bad_probability_job(space, level, 0, PARAMS, 1, seed),
            goodness._decay_job(space, 0, level, (2e-4, 2e-5), 1, seed + 1, PARAMS, 0),
            goodness._really_good_job(space, 0, level, PARAMS, 0.25, 0.75, 1, seed + 2)]
    return build, [job for job, _ in jobs]


def command_reference(space, seed: int, lo: int, hi: int) -> list[np.ndarray]:
    """The reference rows lo..hi-1 of each job of ``command_payload``."""
    level = finest_level(space, PARAMS.delta, 0)
    common = (space, PARAMS, 0, "exhaustive_uniform", DEFAULT_EXHAUSTIVE_LIMIT)
    return [reference_trial_chunk(common + (seed, reference_bad_row, (level, 0)), lo, hi),
            reference_trial_chunk(common + (seed + 1, reference_decay_row,
                                            (0, level, (2e-4, 2e-5))), lo, hi),
            reference_trial_chunk(common + (seed + 2, reference_really_good_row,
                                            (level, 0, 0.25, 0.75)), lo, hi)]


def test_a_trial_chunk_builds_each_distinct_forest_once_for_all_its_jobs(monkeypatch, elbow):
    """A chunk runs the command's three jobs in one session: the elbow's
    500 trials on three streams hold 6 distinct forests, and the chunk
    builds 6, with each job's rows those of its own stream.  A second chunk
    makes a session of its own and builds its 6 again."""
    built = count_builds(monkeypatch)
    payload = command_payload(elbow, 0)
    for chunk in (1, 2):
        parts = mc._trial_chunk(payload, 0, 500)
        assert len(built) == 6 * chunk
    want = command_reference(elbow, 0, 0, 500)
    assert all(np.array_equal(part, rows) for part, rows in zip(parts, want, strict=True))


def test_a_worker_process_looks_up_a_fresh_session(monkeypatch, elbow):
    """A run with workers gives each job the rows of the serial run: each
    worker's chunk runs every job in a session it makes itself, as a chunk
    in this process does, and a forked worker inherits no session."""
    payload = command_payload(elbow, 3)
    serial = run_chunked(mc._trial_chunk, payload, 300)
    pooled = run_chunked(mc._trial_chunk, payload, 300, workers=2)
    want = command_reference(elbow, 3, 0, 300)
    assert all(np.array_equal(a, b) and np.array_equal(a, rows)
               for a, b, rows in zip(serial, pooled, want, strict=True))


@pytest.mark.parametrize("seed", [2**32 - 1, 2**96 - 2])
def test_a_command_run_matches_the_reference_across_word_boundaries(monkeypatch, elbow, seed):
    """A command's jobs on seeds of mixed word counts, walked together: at
    2**32 - 1 the decay and really-good jobs' seeds take two 32-bit words,
    and at 2**96 - 2 the really-good job's seed, 2**96, takes its states
    from trial_rng.  In blocks of 7 columns, 2 trials of each job, every
    job's trials split across blocks.  Each job's rows are those of its own
    stream, serially and with 2 workers."""
    monkeypatch.setattr(mc, "_BLOCK", 7)
    payload, want = command_payload(elbow, seed), command_reference(elbow, seed, 0, 40)
    for workers in (1, 2):
        got = run_chunked(mc._trial_chunk, payload, 40, workers)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def refusing_jobs(payload, lo: int, hi: int) -> list:
    """A chunk of two jobs run in turn, over its trials: the first refuses
    at trial 3, the second at trial 0."""
    for job, refused_at in enumerate((3, 0)):
        if lo <= refused_at < hi:
            raise TooLargeForExhaustive(f"job {job}")
    return [np.zeros((hi - lo, 1))] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_raises_the_refusal_that_a_run_of_each_job_in_turn_meets_first(workers):
    """The first job's refusal, although with 2 workers the second job
    refuses in the first chunk, before the first job reaches trial 3 in
    the second."""
    with pytest.raises(TooLargeForExhaustive, match="^job 0$"):
        run_chunked(refusing_jobs, None, 4, workers=workers)


def test_a_chunk_raises_the_refusal_that_its_jobs_in_turn_meet_first(monkeypatch, elbow):
    """Jobs walked together meet their refusals block by block: with blocks
    of one trial per job, the decay job at level 99 refuses in the first
    block, and the bad-probability job at level 0 only in a later one, as
    its center is in the level-0 grid of its first trial and not of every
    trial.  The joint pass raises the decay job's refusal; the chunk raises
    the first job's, as a run of each job in turn does."""
    monkeypatch.setattr(mc, "_BLOCK", 2)
    seed = next(s for s in range(50) if 0 in build_nested_grids(
        elbow, PARAMS.delta, 0, trial_rng(s, 0)).grid(0).members)
    build, _ = command_payload(elbow, seed)
    jobs = [goodness._bad_probability_job(elbow, 0, 0, PARAMS, 40, seed)[0],
            goodness._decay_job(elbow, 0, 99, (2e-4,), 40, seed + 1, PARAMS, 0)[0]]
    with pytest.raises(InvalidParams, match="^level 99 not present in the hierarchy$"):
        mc._chunk_rows(mc._Session(), build, jobs, 0, 40)
    with pytest.raises(CenterNotInGrid, match="^fixed center 0 absent from the level-0 grid"):
        mc._trial_chunk((build, jobs), 0, 40)


STATE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 - 1, 2**96, 2**96 + 7)
STATE_TRIALS = (0, 1, 7, 499, 500, 2**32 - 1, 2**32)


def pcg64_state(state: int, inc: int) -> dict:
    """The NumPy state of a PCG64 generator at an LCG (state, inc) with no
    buffered half word, as a trial chunk's miss sets it."""
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


def state_pairs(blocks) -> list[tuple[int, int]]:
    """The LCG (state, inc) int pairs of blocks of states, checking that
    each block holds at most ``mc._BLOCK`` trials."""
    pairs = []
    for states in blocks:
        assert states.dtype == np.uint64 and states.shape[0] == 4
        assert 1 <= states.shape[1] <= mc._BLOCK
        pairs += [mc._pair(states, t) for t in range(states.shape[1])]
    return pairs


def lcg_pairs(seed, ts) -> list[tuple[int, int]]:
    """The LCG (state, inc) of ``trial_rng(seed, t)`` for each t, each from a
    generator that has drawn nothing."""
    states = [trial_rng(seed, t).bit_generator.state for t in ts]
    assert all(state == pcg64_state(**state["state"]) for state in states)
    return [(state["state"]["state"], state["state"]["inc"]) for state in states]


def test_trial_states_match_trial_rng():
    """The states are trial_rng's, for seeds and trial indices of more than
    one 32-bit word, on both sides of the entropy that fits the hash's pool of
    4 words (a seed below 2**96, indices below 2**32), one at a time and over
    ranges that end at 2**32 and that cross it, and over ranges that cross
    the edges of the array passes' blocks."""
    for seed in STATE_SEEDS:
        for t in STATE_TRIALS:
            assert state_pairs(_trial_states([seed], t, t + 1)) == lcg_pairs(seed, [t])
        assert state_pairs(_trial_states([seed], 0, 12)) == lcg_pairs(seed, range(12))
        edge = mc._BLOCK
        for ts in (range(2**32 - 3, 2**32), range(2**32 - 3, 2**32 + 2),
                   range(edge - 3, edge + 2), range(5 * edge - 1, 5 * edge + 1)):
            assert state_pairs(_trial_states([seed], ts.start, ts.stop)) == lcg_pairs(seed, ts)
    # two whole blocks and a part of a third, from a start that is no block edge
    ts = range(7, 2 * mc._BLOCK + 30)
    assert state_pairs(_trial_states([2**40 + 3], ts.start, ts.stop)) == lcg_pairs(2**40 + 3, ts)


def test_trial_states_of_several_seeds_match_trial_rng(monkeypatch):
    """A block holds a span of trials of each seed in turn, each seed's
    columns its own stream's whatever the other seeds' word counts: one
    array pass per block for the seeds below 2**96, and trial_rng for the
    rest.  In blocks of at most 10 columns, 2 trials of each of 5 seeds."""
    seeds = [2**32 - 1, 2**32, 7, 2**64 + 5, 2**96]
    passes, state_block = [], mc._state_block
    monkeypatch.setattr(mc, "_state_block",
                        lambda *args: passes.append(args) or state_block(*args))
    for block, lo, hi in ((mc._BLOCK, 0, 12), (10, 3, 12)):
        monkeypatch.setattr(mc, "_BLOCK", block)
        passes.clear()
        got = [[] for _ in seeds]
        for states in _trial_states(seeds, lo, hi):
            span = states.shape[1] // len(seeds)
            assert states.shape[1] == span * len(seeds) <= block
            for j in range(len(seeds)):
                got[j] += state_pairs([states[:, j * span:(j + 1) * span]])
        assert got == [lcg_pairs(seed, range(lo, hi)) for seed in seeds]
        assert [args[0] for args in passes] == [seeds[:4]] * -(-(hi - lo) // (block // 5))


def test_trial_states_batch_only_the_entropy_that_fits_the_pool(monkeypatch):
    """A seed below 2**96 with indices below 2**32 is one array pass; any
    other range takes each state from trial_rng."""
    taken = []
    monkeypatch.setattr(mc, "trial_rng",
                        lambda seed, t: taken.append((seed, t)) or trial_rng(seed, t))
    list(_trial_states([2**96 - 1], 2**32 - 3, 2**32))
    assert taken == []
    list(_trial_states([2**96], 0, 2))
    list(_trial_states([5], 2**32 - 1, 2**32 + 1))
    assert taken == [(2**96, 0), (2**96, 1), (5, 2**32 - 1), (5, 2**32)]


def test_trial_states_are_built_as_they_are_read():
    """A chunk reads one block of states at a time, so reading the blocks
    one at a time holds less than half the memory of holding them all."""
    def peak(consume):
        tracemalloc.start()
        try:
            consume(_trial_states([7], 0, 10**5))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda states: collections.deque(states, maxlen=0)) < peak(list) / 2


def test_trial_states_hold_one_block_at_the_first_read():
    """The first state of a million-trial range is read with about one
    block's arrays built, not the whole range's (which held 167 MB)."""
    tracemalloc.start()
    try:
        states = _trial_states([7], 0, 10**6)
        assert mc._pair(next(states), 0) == lcg_pairs(7, [0])[0]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4 * 2**20 and peak < 8 * 2**20


def test_trial_state_set_resets_the_buffered_half_word():
    rng = trial_rng(5, 0)
    rng.integers(10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    rng.bit_generator.state = pcg64_state(*mc._pair(next(_trial_states([5], 3, 4)), 0))
    ref = trial_rng(5, 3)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert (rng.integers(10, size=5, dtype=np.uint32).tolist()
            == ref.integers(10, size=5, dtype=np.uint32).tolist())


# --- the draws a trial chunk computes from PCG64's words ----------------------------------

# scripts of integers calls, each call its bounds: about half of the 32-bit
# draws for 2**31 + 1 are rejected, bounds of 1 draw nothing, 2**32 takes the
# draw itself, and (6, 5, 4, 3, 2, 1) is a greedy scan order's Lehmer code;
# the scripts make odd and even counts of draws before the coin
WORD_SCRIPTS = [
    [(1, 2, 3)],
    [(3,)],
    [(2, 1, 2**32, 3), (5, 4)],
    [(6, 5, 4, 3, 2, 1), (1, 1)],
    [(1,), (2, 1), (3, 3, 3)],
    [(2**31 + 1, 2)],
    [(1, 3, 2**31 + 1), (3, 2, 1)],
]
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def lcg_steps(state: int, inc: int, steps: int) -> list[tuple[int, int]]:
    """The oracle: the LCG state after each of ``steps`` steps, and the
    XSL-RR output of that state, in Python ints."""
    out = []
    for _ in range(steps):
        state = (state * PCG_MULT + inc) % 2**128
        word, rot = (state >> 64 ^ state) % 2**64, state >> 122
        out.append((state, (word >> rot | word << (64 - rot)) % 2**64))
    return out


def assert_stream_at(rng, state: int, inc: int, drawn: int):
    """The generator's stream is where ``drawn`` 32-bit draws from a state
    just set leave it: (drawn + 1) // 2 LCG steps on, buffering the last
    output's high half when ``drawn`` is odd."""
    left = rng.bit_generator.state
    steps = lcg_steps(state, inc, (drawn + 1) // 2)
    assert left["state"]["state"] == (steps[-1][0] if steps else state)
    assert left["has_uint32"] == drawn % 2
    if drawn % 2:
        assert left["uinteger"] == steps[-1][1] >> 32


def test_words_make_the_generators_draws():
    """The 240 trial states of seed 9, walked as one batch, each script's
    trials a group: the array draws make the values of Generator.integers
    and the coin of random() after them, and leave the stream where the
    generator does, its buffered half word too, for even and odd counts of
    32-bit draws before the coin; a trial is not served exactly where one
    of its integers draws is rejected, and no trial where a bound exceeds
    2**32."""
    states = next(_trial_states([9], 0, 240))
    outputs = mc._Outputs(states)
    pos = np.zeros(240, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64())
    outcomes = collections.Counter()
    for first, calls in enumerate(WORD_SCRIPTS):
        trials = np.arange(first, 240, len(WORD_SCRIPTS))
        drawn, served = [], np.ones(len(trials), dtype=bool)
        for bounds in calls:
            values, kept = mc._draw(bounds, outputs, trials, pos)
            drawn.append(values)
            served &= kept
        coins = outputs.coins(trials, pos[trials])
        for col, t in enumerate(trials.tolist()):
            state, inc = mc._pair(states, t)
            rng.bit_generator.state = pcg64_state(state, inc)
            if not served[col]:  # the scripts' bounds of 2**31 + 1 are in their first call
                bounds = calls[0]
                rng.integers(bounds)
                assert halves_drawn(state, inc, rng.bit_generator.state) > \
                    len(bounds) - bounds.count(1)
                outcomes["rejected"] += 1
                continue
            assert [tuple(values[:, col].tolist()) for values in drawn] == \
                [tuple(rng.integers(bounds).tolist()) for bounds in calls]
            assert_stream_at(rng, state, inc, int(pos[t]))
            outcomes["odd" if pos[t] % 2 else "even"] += 1
            assert coins[col] == rng.random()
            # the coin takes a fresh output and leaves the buffered half
            left = rng.bit_generator.state
            assert left["state"]["state"] == lcg_steps(state, inc, (int(pos[t]) + 1) // 2 + 1)[-1][0]
            assert left["has_uint32"] == pos[t] % 2
    assert min(outcomes["rejected"], outcomes["odd"], outcomes["even"]) >= 20
    trials = np.arange(20)
    for bounds in [(2**32 + 1,), (1, 2**40)]:
        values, kept = mc._draw(bounds, outputs, trials, pos)
        assert not kept.any()


def halves_drawn(state: int, inc: int, left: dict) -> int:
    """The 32-bit halves a generator drew from a state just set, to where it
    left ``left``: two per LCG step, less the one it still buffers."""
    steps = 0
    while state != left["state"]["state"]:
        state = (state * PCG_MULT + inc) % 2**128
        steps += 1
    return 2 * steps - left["has_uint32"]


def test_outputs_match_the_lcg_past_any_table():
    """Outputs 0..300 of 3 streams, read one at a time, so that the table of
    outputs and the jump constants grow past their first sizes, equal a
    Python-int LCG's, low half then high half."""
    states = next(_trial_states([9], 0, 3))
    outputs = mc._Outputs(states)
    trials = np.arange(3)
    got = []
    for k in range(301):
        low = outputs.halves(trials, np.full(3, 2 * k))
        high = outputs.halves(trials, np.full(3, 2 * k + 1))
        got.append((low | high << mc._U32).tolist())
    assert outputs.table.shape[1] >= 301
    for t in range(3):
        want = [word for _, word in lcg_steps(*mc._pair(states, t), 301)]
        assert [row[t] for row in got] == want


def test_walk_passes_a_rejected_draw_to_miss():
    """One path, the value v of a bound of 2**31 + 1, and two trials whose
    first 32-bit draws, 2v + 1 and 2v, both make v: Lemire's method keeps
    trial 0's, and rejects trial 1's, whose low half falls below its floor
    2**31 - 1, and draws again.  The walk serves trial 0 the path's leaf and
    passes trial 1 to ``miss``."""
    v, bound = 5, 2**31 + 1
    floor = (2**32 - bound) % bound
    assert [x * bound >> 32 for x in (2 * v + 1, 2 * v)] == [v, v]
    assert 2 * v * bound % 2**32 < floor <= (2 * v + 1) * bound % 2**32
    session = mc._Session()
    leaf = session.enter([((bound,), (v,))], "forest")
    outputs = mc._Outputs(np.zeros((4, 2), dtype=np.uint64))
    # one output per trial, whose low half is the trial's first draw
    outputs.table = np.array([[2 * v + 1], [2 * v]], dtype="<u8")
    outputs.draws = outputs.table.view("<u4")
    missed = []
    served, _ = mc._walk(session, outputs, np.arange(2), lambda t: missed.append(t) or False)
    assert [(node, trials.tolist()) for node, trials in served] == [(leaf, [0])]
    assert missed == [1]


def test_classes_of_a_call_whose_keys_take_two_rows():
    """A call of 30 bounds of 5: 5**30 > 2**62, so ``_radix`` packs a column
    of values into two keys, and the classes equal a plain grouping of the
    columns, among them two columns that differ in one key alone."""
    radix = mc._radix((5,) * 30)
    assert radix.shape == (2, 30)
    rng = np.random.default_rng(3)
    distinct = rng.integers(0, 5, size=(30, 6))
    distinct[:, 1:3] = distinct[:, :1]
    distinct[0, 1] = (distinct[0, 0] + 1) % 5  # the first key differs
    distinct[-1, 2] = (distinct[-1, 0] + 1) % 5  # the second key differs
    values = distinct[:, rng.integers(0, 6, size=200)]
    trials = np.arange(0, 600, 3)
    want = {}
    for t, column in zip(trials.tolist(), values.T.tolist()):
        want.setdefault(tuple(column), []).append(t)
    got = mc._classes(trials, values, radix)
    assert [(row, members.tolist()) for row, members in got] == list(want.items())
    assert len(got) == 6


def draw_pair(rng) -> tuple:
    """A build of one draw call, whose first bound, 2**31 + 1, Lemire's
    method rejects about half the time."""
    return tuple(rng.integers([2**31 + 1, 3]).tolist())


def pair_rows(pairs: list) -> np.ndarray:
    return np.array(pairs, dtype=np.int64)


def test_trial_chunk_rows_where_draws_are_rejected(monkeypatch):
    """With the memo work never stopped, a chunk of ``draw_pair`` builds
    walks trials whose first draw is rejected: each is built from the
    generator, and every row equals a build on its own ``trial_rng(7, t)``."""
    monkeypatch.setattr(mc, "_expects_no_hit", lambda session, left: False)
    mc._words_match()  # the process's probe draws too; it runs first
    rejected, draw = [], mc._draw

    def counting_draw(*args):
        values, kept = draw(*args)
        rejected.append((len(kept), int((~kept).sum())))
        return values, kept

    monkeypatch.setattr(mc, "_draw", counting_draw)
    (rows,) = mc._trial_chunk((draw_pair, [(7, partial(pair_rows), None)]), 0, 400)
    assert rows.tolist() == [list(draw_pair(trial_rng(7, t))) for t in range(400)]
    # the first trial builds the root's call; the root's draw then serves the other 399
    assert rejected[0] == (399, 190)


# --- Wilson intervals ---------------------------------------------------------------------

def test_wilson_endpoints_satisfy_definition():
    """Oracle: interval endpoints solve |phat - p| = z * sqrt(p(1-p)/n)."""
    z = 1.959963984540054
    for successes, trials in ((0, 10), (3, 17), (50, 100), (999, 1000)):
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        for p in (lo, hi):
            lhs = (phat - p) ** 2
            rhs = z * z * p * (1 - p) / trials
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_wilson_rejects_bad_counts():
    with pytest.raises(InvalidTrials):
        wilson_interval(1, 0)
    with pytest.raises(InvalidTrials):
        wilson_interval(5, 3)
    for trials in ("5", 2.5, True):
        refused = f"^trials must be an integer >= 1, got {re.escape(repr(trials))}$"
        with pytest.raises(InvalidTrials, match=refused):
            wilson_interval(1, trials)
    for successes in (1.5, True):
        with pytest.raises(InvalidTrials, match=r"^successes must lie in \[0, trials\]$"):
            wilson_interval(successes, 3)
