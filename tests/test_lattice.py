"""Parent forests, cubes, covering lemmas, interiors, chain separation."""
import copy
import re
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab import lattice
from dyadiclab.errors import (
    CoverViolation,
    DyadicLabError,
    InvalidParams,
    NoCandidateParent,
    TooLargeForExhaustive,
    UnknownCenter,
)
from dyadiclab.grids import DEFAULT_EXHAUSTIVE_LIMIT, Grid, GridHierarchy
from dyadiclab.lattice import (
    ANCESTOR_FACTOR,
    BALL_DIVISOR,
    CANDIDATE_FACTOR,
    CAPTURE_DIVISOR,
    ChainScanReport,
    Cube,
    CubeCoverReport,
    DIAMETER_FACTOR,
    ForestInvariantReport,
    TildeCube,
    _balls,
    _cube_tables,
    _link_pair,
    _rival_depth,
    _unite_children,
    _widest_eps,
    forest_to_json,
)
from oracles import (reference_assign_parents, reference_enumerate_forest_outcomes,
                     reference_parent_maps, reference_parent_options)
from report_corpus import criterion_7_cloud


def shared_stream_forest(space, delta, n0, seed, **kw):
    """Hierarchy and forest drawn from one stream, as the estimators do."""
    rng = np.random.default_rng(seed)
    h = dl.build_nested_grids(space, delta, n0, rng=rng, **kw)
    return dl.build_forest(h, rng)


# --- parent assignment -----------------------------------------------------------

def test_assign_parent_self_capture():
    space = dl.space_from_coords([[0.0], [0.3]], names=("p", "q"))
    children = Grid(scale=0.5, members=frozenset({0, 1}))
    parents = Grid(scale=1.0, members=frozenset({0}))
    got = dl.assign_parents(space, children, parents, rng=0)
    assert got[0] == 0     # distance zero: captured by itself
    assert got[1] == 0     # only candidate in reach


def test_assign_parent_identity_when_equal():
    space = dl.space_from_coords([[0.0], [2.0]], names=("p", "q"))
    grid = Grid(scale=1.0, members=frozenset({0, 1}))
    got = dl.assign_parents(space, grid, grid, rng=0)
    assert got == {0: 0, 1: 1}


def test_assign_parent_uniform_between_two_candidates():
    """A child equidistant from two far parents splits 50/50 within 4 sigma."""
    space = dl.space_from_coords([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]],
                                 names=("p1", "p2", "c"))
    children = Grid(scale=0.5, members=frozenset({0, 1, 2}))
    parents = Grid(scale=1.0, members=frozenset({0, 1}))
    rng = np.random.default_rng(2024)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        hits += dl.assign_parents(space, children, parents, rng)[2] == 0
    sigma = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) <= 4 * sigma


def test_assign_parent_no_candidate():
    space = dl.space_from_coords([[0.0], [10.0]], names=("p", "far"))
    children = Grid(scale=0.5, members=frozenset({0, 1}))
    parents = Grid(scale=1.0, members=frozenset({0}))
    with pytest.raises(NoCandidateParent):
        dl.assign_parents(space, children, parents, rng=0)


def test_assign_parent_requires_nested(l3):
    children = Grid(scale=0.5, members=frozenset({0}))
    parents = Grid(scale=1.0, members=frozenset({0, 2}))
    with pytest.raises(InvalidParams):
        dl.assign_parents(l3, children, parents, rng=0)


# the per-child lists of the link rule that the option matrices replaced,
# kept verbatim as their oracle
def reference_link_rule(space: dl.FiniteMetricSpace, children: Sequence[int],
                        coarse: Grid) -> list[tuple[list[int], list[int]]]:
    """Per child, in the given order: the coarse points within a quarter of
    the coarse scale, and the child's parent options, which are those captured
    points when there are any and otherwise every coarse point within three
    times the coarse scale.  Reads one distance slice for the whole level."""
    cols = sorted(coarse.members)
    capture = coarse.scale / CAPTURE_DIVISOR
    reach = CANDIDATE_FACTOR * coarse.scale
    out = []
    for row in space.d.take(children, 0).take(cols, 1).tolist():
        captured = [p for p, x in zip(cols, row) if x <= capture]
        out.append((captured, captured or [p for p, x in zip(cols, row) if x <= reach]))
    return out


def seeded_hierarchies(decay_probe, elbow, ladder, seeds=range(8)):
    """(space, hierarchy) pairs on the criterion-7 cloud, the 60-point cascade,
    the decay probe, the elbow and the ladder.  The cascade's conflict graph at
    ratio 1/1000 is too large for the exhaustive grid sampler."""
    cloud = criterion_7_cloud()
    cascade = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                            branching=3, ratio=0.1)
    for space, delta, mode in ((cloud, 0.1, "exhaustive_uniform"),
                               (cascade, 0.001, "greedy_permutation"),
                               (decay_probe, 0.001, "exhaustive_uniform"),
                               (elbow, 0.1, "exhaustive_uniform"),
                               (ladder, 0.1, "exhaustive_uniform")):
        for seed in seeds:
            yield space, dl.build_nested_grids(space, delta, 0, rng=seed, mode=mode)


def test_parent_options_match_reference(decay_probe, elbow, ladder):
    """Each option row marks the oracle's options among the sorted coarse
    points, and each capture row the ones of them within the capture radius;
    both matrices give the per-child lists of the old link rule."""
    random_links = 0
    for space, h in seeded_hierarchies(decay_probe, elbow, ladder):
        for lev in h.levels[1:]:
            kids, coarse = sorted(h.grid(lev).members), h.grid(lev - 1)
            cols, captured, options = _link_pair(space, kids, coarse)
            assert cols.dtype == np.intp and cols.tolist() == sorted(coarse.members)
            for child, caught, row in zip(kids, captured, options):
                want = reference_parent_options(space, child, coarse)
                assert cols[row].tolist() == want
                assert caught.sum() == sum(
                    space.d[child, p] <= coarse.scale / CAPTURE_DIVISOR for p in want)
            assert [(cols[c].tolist(), cols[o].tolist()) for c, o in zip(
                captured, options)] == reference_link_rule(space, kids, coarse)
            random_links += int((options.sum(axis=1) > 1).sum())
    assert random_links > 100


def test_parent_option_errors_match_reference():
    """The first failing child in index order raises, with the old type and
    message: child 0 is captured by 2 alone, child 1 by both 1 and 2, and
    child 3 has no coarse point in reach."""
    space = dl.space_from_coords([[0.3125], [0.0], [0.125], [10.0]])
    for coarse, kids, error in (({1, 2}, [0, 1, 2, 3], InvalidParams),
                                ({2}, [0, 2, 3], NoCandidateParent)):
        parents = Grid(scale=1.0, members=frozenset(coarse))
        want = outcome(lambda: [reference_parent_options(space, c, parents)
                                for c in kids])
        assert want[0] is error
        children = Grid(scale=0.1, members=frozenset(kids))
        assert outcome(dl.assign_parents, space, children, parents, 0) == want
        assert outcome(reference_assign_parents, space, children, parents, 0) == want


def test_assign_parents_empty_grid():
    """An empty child grid links nothing and draws nothing."""
    space = dl.space_from_coords([[0.0], [1.0]])
    empty = Grid(scale=1.0, members=frozenset())
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert dl.assign_parents(space, empty, empty, rng) == {}
    assert rng.bit_generator.state == state


def test_build_forest_matches_reference_stream(decay_probe, elbow, ladder):
    """Same parents from one stream, and the stream left in the same state."""
    for space, h in seeded_hierarchies(decay_probe, elbow, ladder):
        rng = np.random.default_rng(len(h.levels))
        ref_rng = copy.deepcopy(rng)
        forest = dl.build_forest(h, rng)
        assert forest.parents == {
            lev: reference_assign_parents(space, h.grid(lev), h.grid(lev - 1), ref_rng)
            for lev in h.levels[1:]}
        assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


class CountingGenerator(np.random.Generator):
    """A generator on a shared bit generator that records the bounds of its
    integers calls, and counts them."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.bounds = []

    @property
    def calls(self) -> int:
        return len(self.bounds)

    def integers(self, bounds, *args, **kwargs):
        self.bounds.append(bounds)
        return super().integers(bounds, *args, **kwargs)


def test_build_forest_draws_once_per_forest(elbow, two_far):
    """One integers call per forest when some child has two or more options
    (by the per-child oracle), and none otherwise, with the parents and the
    stream's next draw of a plain generator on the same seed: on the
    criterion-7 cloud, the elbow, and a hierarchy where every child is
    captured."""
    cloud = criterion_7_cloud()
    for space, delta, coarsest, want in ((cloud, 0.1, 0, {1}), (elbow, 0.1, 0, {0, 1}),
                                         (two_far, 0.1, -1, {0})):
        seen = set()
        for seed in range(12):
            h = dl.build_nested_grids(space, delta, coarsest, rng=seed)
            random = any(len(reference_parent_options(space, c, h.grid(lev - 1))) > 1
                         for lev in h.levels[1:] for c in h.grid(lev).members)
            counting = CountingGenerator(np.random.PCG64(seed))
            plain = np.random.default_rng(seed)
            assert dl.build_forest(h, counting).parents == dl.build_forest(h, plain).parents
            assert counting.calls == int(random)
            assert counting.random() == plain.random()
            seen.add(counting.calls)
        assert seen == want


def test_build_forest_refuses_before_any_draw():
    """A hand-built hierarchy whose first level pair draws and whose second
    fails, once with a child that has no candidate (5, at 10) and once with
    a child captured twice (4, within an eighth of 2 and 3): build_forest
    raises the per-pair exception type and message, and the generator's
    state is unchanged."""
    space = dl.space_from_coords([[0.0], [2.0], [1.0], [1.2], [1.1], [10.0]])
    for level_one, level_two, error in (({0, 1, 2}, {0, 1, 2, 5}, NoCandidateParent),
                                        ({0, 1, 2, 3}, {0, 1, 2, 3, 4}, InvalidParams)):
        grids = {lev: Grid(scale=0.5 ** lev, members=frozenset(members))
                 for lev, members in enumerate(({0, 1}, level_one, level_two))}
        h = GridHierarchy(space=space, delta=0.5, levels=(0, 1, 2), grids=grids)
        drawn = np.random.default_rng(3)
        dl.assign_parents(space, grids[1], grids[0], drawn)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert drawn.bit_generator.state != state  # the first pair draws
        want = outcome(reference_assign_parents, space, grids[2], grids[1], 0)
        assert want[0] is error
        assert outcome(dl.build_forest, h, rng) == want
        assert rng.bit_generator.state == state


def test_stacked_links_match_each_forests_own(decay_probe, elbow, ladder):
    """Stacks of 1, 2, 7 and 16 hierarchies on one space: each forest's
    state in the stack draws the bounds that its own ``build_forest`` draws,
    and on the same stream gives its parents and leaves the stream where
    ``build_forest`` leaves it."""
    by_space = {}
    for space, h in seeded_hierarchies(decay_probe, elbow, ladder, seeds=range(16)):
        by_space.setdefault(id(space), []).append(h)
    drawn = 0
    for hierarchies in by_space.values():
        for size in (1, 2, 7, 16):
            stack = hierarchies[-size:]
            for i, (h, state) in enumerate(zip(stack, lattice._links(stack))):
                rng, own = np.random.default_rng(i), CountingGenerator(np.random.PCG64(i))
                forest = dl.build_forest(h, own)
                assert [tuple(b) for b in own.bounds] == ([] if state[0] is None else [state[0]])
                if state[0] is not None:
                    state = state[1](tuple(rng.integers(state[0]).tolist()))
                    drawn += 1
                assert state[1].hierarchy is h and state[1].parents == forest.parents
                assert rng.integers(2 ** 62) == own.integers(2 ** 62)
    assert drawn > 100


def test_a_stack_raises_the_refusal_of_its_first_refusing_hierarchy():
    """A stack of two hierarchies that link, then one that refuses, then one
    that refuses otherwise: the stack raises the third's refusal, with the
    type and text that its own ``build_forest`` raises.  The refusals are
    those of ``test_build_forest_refuses_before_any_draw``, a child with no
    candidate and a child captured twice, and a coarse grid that is no
    subset of its children."""
    space = dl.space_from_coords([[0.0], [2.0], [1.0], [1.2], [1.1], [10.0]])

    def hand_built(*members):
        grids = {lev: Grid(scale=0.5 ** lev, members=frozenset(m))
                 for lev, m in enumerate(members)}
        return GridHierarchy(space=space, delta=0.5, levels=(0, 1, 2), grids=grids)

    refusing = [hand_built({0, 1}, {0, 1, 2}, {0, 1, 2, 5}),
                hand_built({0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}),
                hand_built({0, 1}, {0, 1, 2, 5}, {0, 1, 2})]
    linking = [hand_built({0, 1, 5}, {0, 1, 2, 5}, {0, 1, 2, 3, 5}),
               dl.build_nested_grids(space, 0.5, 0, rng=1)]
    for h in linking:
        dl.build_forest(h, 0)
    errors = [outcome(dl.build_forest, h, 0) for h in refusing]
    assert [error[0] for error in errors] == [NoCandidateParent, InvalidParams, InvalidParams]
    for third, h in enumerate(refusing):
        for later in refusing[:third] + refusing[third + 1:]:
            assert outcome(lattice._links, [*linking, h, later]) == errors[third]


# --- forest construction -----------------------------------------------------------

def test_forest_singleton_chain(singleton):
    forest = shared_stream_forest(singleton, 0.5, -1, seed=0)
    assert forest.levels == (-1,)
    assert forest.parents == {}


def test_forest_compositional(l3):
    """build_forest equals assign_parents applied level by level on one stream."""
    rng = np.random.default_rng(5)
    h = dl.build_nested_grids(l3, 0.1, 0, rng=rng)
    rng_forest = np.random.default_rng(77)
    forest = dl.build_forest(h, rng_forest)
    rng_manual = np.random.default_rng(77)
    manual = {}
    for lev in h.levels[1:]:
        manual[lev] = dl.assign_parents(l3, h.grid(lev), h.grid(lev - 1),
                                        rng_manual)
    assert forest.parents == manual


def test_forest_deterministic(l3):
    a = shared_stream_forest(l3, 0.1, 0, seed=3)
    b = shared_stream_forest(l3, 0.1, 0, seed=3)
    assert a.parents == b.parents


def test_forest_seed_follows_the_integer_rule(l3):
    """A NumPy integer seed draws the forest of the same int and is recorded
    as that int; a bool is no seed, and each sampler refuses it before it
    draws."""
    h = dl.build_nested_grids(l3, 0.1, 0, rng=0)
    forest = dl.build_forest(h, np.int64(7))
    assert forest.seed == 7 and type(forest.seed) is int
    assert forest.parents == dl.build_forest(h, 7).parents
    assert dl.forest_to_json(forest)["seed"] == 7
    for rng in (True, False, np.True_):
        with pytest.raises(InvalidParams, match="not a bool"):
            dl.build_forest(h, rng)
        with pytest.raises(InvalidParams, match="not a bool"):
            dl.assign_parents(l3, h.grid(1), h.grid(0), rng)
        with pytest.raises(InvalidParams, match="not a bool"):
            dl.build_nested_grids(l3, 0.1, 0, rng=rng)


# --- cubes -----------------------------------------------------------------------

def test_cubes_singleton(singleton):
    forest = shared_stream_forest(singleton, 0.5, 0, seed=0)
    cubes = dl.build_cubes(forest, 0)
    assert len(cubes) == 1 and cubes[0].members == {0}


def test_cubes_two_far_points_disjoint(two_far):
    forest = shared_stream_forest(two_far, 0.5, 0, seed=1)
    cubes = dl.build_cubes(forest, 0)
    assert [sorted(c.members) for c in cubes] == [[0], [1]]


# the per-level builder that the cube table replaced, kept as its oracle: each
# level walks every finer level again and adds each descendant's small ball
def reference_build_cubes(forest: dl.LatticeForest, level: int) -> list[Cube]:
    """One cube per grid point of the level, per the descendant-ball definition."""
    h = forest.hierarchy
    if level not in h.levels:
        raise InvalidParams(f"level {level} not present in the hierarchy")
    space = h.space
    members: dict[int, set[int]] = {y: set() for y in h.grid(level).members}
    anc = {p: p for p in h.grid(level).members}
    for lev in range(level, h.finest_level + 1):
        if lev > level:
            anc = {c: anc[forest.parents[lev][c]] for c in h.grid(lev).members}
        radius = h.scale(lev) / BALL_DIVISOR
        for z in h.grid(lev).members:
            inside = np.flatnonzero(space.d[z] < radius)
            members[anc[z]].update(int(i) for i in inside)
    return [Cube(center=y, level=level, scale=h.scale(level),
                 members=frozenset(members[y]))
            for y in sorted(members)]


def assert_table_matches_reference(forest):
    for level in forest.levels:
        want = reference_build_cubes(forest, level)
        assert dl.build_cubes(forest, level) == want
        for cube in want:
            assert forest.cube(level, cube.center) == cube
    return len(forest.levels)


def assert_table_unites_per_child(forest):
    """Each level's cube matrix is its balls with the finer level's cube rows
    ORed in one child at a time."""
    for lev in forest.levels[1:]:
        rows, held = forest.cube_table[lev - 1]
        finer_rows, finer_held = forest.cube_table[lev]
        h = forest.hierarchy
        balls = _balls(h.space, sorted(h.grid(lev - 1).members), h.scale(lev - 1))
        parent_rows = [rows[forest.parents[lev][c]] for c in finer_rows]
        assert (held == reference_unite_children(balls, parent_rows, finer_held)).all()


def test_cube_table_matches_reference_seeded(decay_probe):
    pairs = 0
    for seed in range(20):
        cloud = dl.make_space("random_cloud", seed=seed + 30, n=30, dim=2,
                              min_sep=0.02)
        pairs += assert_table_matches_reference(
            shared_stream_forest(cloud, 0.1, 0, seed=seed,
                                 mode="greedy_permutation"))
    cascade = dl.make_space("random_cloud", seed=1, n=60, dim=2, levels=4,
                            branching=3, ratio=0.01)
    for seed in range(20):
        pairs += assert_table_matches_reference(
            shared_stream_forest(cascade, 0.001, 0, seed=seed,
                                 mode="greedy_permutation"))
        pairs += assert_table_matches_reference(
            shared_stream_forest(decay_probe, 0.001, 0, seed=seed))
    # levels of up to about 193 parents by 200 points
    cascade = dl.make_space("random_cloud", seed=1, n=200, dim=2, levels=5,
                            branching=3, ratio=0.01)
    for seed in range(3):
        forest = shared_stream_forest(cascade, 0.001, 0, seed=seed)
        assert_table_unites_per_child(forest)
        pairs += assert_table_matches_reference(forest)
    assert pairs > 200


def test_cube_table_matches_reference_exact(elbow, ladder):
    for space in (elbow, ladder):
        for forest, _ in dl.enumerate_forest_outcomes(space, 0.1, 0):
            assert_table_matches_reference(forest)


def test_cube_table_is_read_only(l3):
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    for level in forest.levels:
        rows, held = forest.cube_table[level]
        assert list(rows) == sorted(rows)
        with pytest.raises(ValueError):
            held[0, 0] = not held[0, 0]


def fresh_copy(forest: dl.LatticeForest) -> dl.LatticeForest:
    """The same forest with no cube table built yet."""
    return dl.LatticeForest(hierarchy=forest.hierarchy, parents=forest.parents,
                            seed=forest.seed)


def criterion7_forests(count: int) -> list[dl.LatticeForest]:
    """Forests of the criterion-7 cloud's first trials, as the estimators
    draw them (seed 5, delta 0.1)."""
    cloud = criterion_7_cloud()
    return [shared_stream_forest(cloud, 0.1, 0, seed=dl.trial_rng(5, t)) for t in range(count)]


def test_stacked_cube_tables_match_each_forests_own(elbow, ladder):
    """Stacks of every exact outcome of the elbow and of the ladder, whose
    grids differ, and of 24 criterion-7 trials, whose grids also differ in
    size.  Each stacked table equals the forest's one-forest table and the
    per-child union, and its matrices are read-only views of the stack's
    rows."""
    stacks = [[f for f, _ in dl.enumerate_forest_outcomes(space, 0.1, 0)]
              for space in (elbow, ladder)] + [criterion7_forests(24)]
    assert len({tuple(len(f.hierarchy.grid(lev).members) for lev in f.levels)
                for f in stacks[2]}) > 1
    for stack in stacks:
        tables = _cube_tables(stack)
        for forest, table in zip(stack, tables):
            assert forest.cube_table is table
            own = fresh_copy(forest).cube_table
            assert list(table) == list(own) == list(reversed(forest.levels))
            for level, (rows, held) in table.items():
                assert rows == own[level][0] and list(rows) == sorted(rows)
                assert np.array_equal(held, own[level][1])
                assert held.base is not None and not held.flags.writeable
                with pytest.raises(ValueError):
                    held[0, 0] = not held[0, 0]
                with pytest.raises(ValueError):
                    held.setflags(write=True)
            assert_table_unites_per_child(forest)


def test_stacked_cube_tables_build_each_table_once(elbow):
    """A forest with a table keeps it: a stack builds only the tables that
    are missing, once for a forest that it holds twice, and a second call
    builds none."""
    first, second, third = [f for f, _ in dl.enumerate_forest_outcomes(elbow, 0.1, 0)][:3]
    kept = first.cube_table
    tables = _cube_tables([first, second, third])
    assert tables[0] is kept
    assert tables[1][0][1].base is tables[2][0][1].base  # built in one stack
    assert all(a is b for a, b in zip(_cube_tables([third, second]), tables[:0:-1]))
    twice = fresh_copy(second)
    again, table = _cube_tables([twice, twice])
    assert again is table
    assert all(held.base.size == held.size for _, held in table.values())  # one copy stacked


def test_stacked_cube_tables_refuse_a_parent_outside_its_grid(elbow):
    """A parent outside the coarser grid has no row, in a stack as for a
    forest alone."""
    forest = dl.enumerate_forest_outcomes(elbow, 0.1, 0)[0][0]
    h = forest.hierarchy
    outside = next(p for p in range(len(elbow)) if p not in h.grid(h.levels[0]).members)
    finer = h.levels[1]
    broken = dict(forest.parents)
    broken[finer] = dict.fromkeys(forest.parents[finer], outside)
    for stack in ([fresh_copy(forest), dl.LatticeForest(h, broken)], [dl.LatticeForest(h, broken)]):
        with pytest.raises(UnknownCenter, match=f"^a level-{finer} parent is not in the "
                                                f"level-{h.levels[0]} grid$"):
            _cube_tables(stack)


def test_cube_ball_is_open_at_its_radius():
    """z lies exactly scale(0) / 100 from y.  In this forest of the
    construction z's chain runs z -> a -> b -> c, so only the level-0 ball of
    y could put z in y's cube, and the ball is open: y's cube is {y}."""
    coords = {"y": 0.0, "z": 0.01, "a": 0.035, "b": 0.285, "c": 1.5}
    xs = list(coords.values())
    space = dl.validate_metric([[abs(p - q) for q in xs] for p in xs], list(coords))
    y, z, a, b, c = range(5)
    parents = {1: {y: y, b: c, c: c}, 2: {y: y, a: b, b: b, c: c},
               3: {y: y, z: a, a: a, b: b, c: c}}
    forest, = [f for f, _ in dl.enumerate_forest_outcomes(space, 0.1, 0)
               if f.parents == parents]
    assert space.d[y, z] == forest.hierarchy.scale(0) / BALL_DIVISOR
    assert forest.cube(0, y).members == {y}
    assert forest.cube(0, c).members == {z, a, b, c}


def reference_unite_children(balls, parent_rows, finer_held):
    """The cube rule one child at a time: each child's row ORed into its
    parent's row of a copy of the balls."""
    out = balls.copy()
    for child, parent in enumerate(parent_rows):
        out[parent] |= finer_held[child]
    return out


def test_unite_children_is_a_pure_union_per_map():
    """One map and a batch of three, against the per-child OR; parent row 2
    has no child in the single map, and rows 0 and 1 none in the batch's
    second, so they keep their balls.  The inputs are left as they were."""
    rng = np.random.default_rng(5)
    balls = rng.random((3, 7)) < 0.3
    finer = rng.random((5, 7)) < 0.4
    one = np.array([0, 1, 1, 0, 1])
    batch = np.array([one, [2, 2, 2, 2, 2], [1, 0, 2, 1, 0]])
    inputs = [a.copy() for a in (balls, one, batch, finer)]
    got = _unite_children(balls, one, finer)
    assert got.dtype == bool and got is not balls
    assert (got == reference_unite_children(balls, one, finer)).all()
    assert (got[2] == balls[2]).all()
    got = _unite_children(balls, batch, finer)
    assert got.shape == (3, 3, 7)
    for rows, cubes in zip(batch, got):
        assert (cubes == reference_unite_children(balls, rows, finer)).all()
    for before, after in zip(inputs, (balls, one, batch, finer)):
        assert (before == after).all()


def test_cube_lookup_unknown_center(two_far):
    forest = shared_stream_forest(two_far, 0.5, 0, seed=1)
    with pytest.raises(UnknownCenter):
        forest.cube(0, 99)
    with pytest.raises(InvalidParams):
        dl.build_cubes(forest, 99)


def test_cube_cover_l3_seed0(l3):
    """Every point of l3 lies in a cube of each level, and the cover check
    reports the level without raising."""
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    for level in forest.levels:
        assert dl.check_cube_cover(forest, level).level == level
        assert set().union(*(c.members for c in dl.build_cubes(forest, level))) == {0, 1, 2}


def test_grid_cover_reports(l3, singleton):
    h = dl.build_nested_grids(singleton, 0.5, 0, rng=0)
    assert dl.check_grid_cover(h, 0).max_distance == 0.0
    h3 = dl.build_nested_grids(l3, 0.1, 0, rng=0)
    finest = dl.check_grid_cover(h3, h3.finest_level)
    assert finest.max_distance == 0.0   # the finest grid is the whole space
    for level in h3.levels:
        rep = dl.check_grid_cover(h3, level)
        assert rep.max_distance <= rep.bound
        assert rep.sharp_ok


def test_grid_cover_is_closed_at_three_scales():
    """Point 1 lies exactly 3 * scale(0) from the level-0 grid {0}: the cover
    holds, and its distance is the bound."""
    space = dl.space_from_coords([[0.0], [3.0]])
    hierarchy = GridHierarchy(space=space, delta=0.5, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0})),
        1: Grid(scale=0.5, members=frozenset({0, 1}))})
    rep = dl.check_grid_cover(hierarchy, 0)
    assert rep.max_distance == rep.bound == 3.0 * hierarchy.scale(0)


def test_grid_cover_seeded_cloud_bound():
    space = dl.make_space("random_cloud", seed=12, n=50, dim=2, min_sep=0.02)
    h = dl.build_nested_grids(space, 0.1, 0, rng=9, mode="greedy_permutation")
    for level in h.levels:
        rep = dl.check_grid_cover(h, level)
        assert rep.max_distance <= rep.bound
        assert rep.sharp_ok  # the telescoping bound is much sharper than 3


# --- interiors -----------------------------------------------------------------------

# the set-union interior that the cover count replaced, kept verbatim as its
# oracle and as the oracle's interior in the chain checks below
def reference_tilde_cube(space: dl.FiniteMetricSpace, cubes: Sequence[Cube],
                         center: int) -> TildeCube:
    """Space minus all other cubes of the level (closures are trivial here)."""
    own, others = None, set()
    for c in cubes:
        if c.center == center:
            own = c
        else:
            others |= c.members
    if own is None:
        raise UnknownCenter(f"no cube centered at {center}")
    return TildeCube(center=center, level=own.level,
                     members=frozenset(range(len(space))) - others)


def test_tilde_single_cube_is_space(singleton):
    forest = shared_stream_forest(singleton, 0.5, 0, seed=0)
    assert dl.tilde_cube(forest, 0, 0).members == {0}


def test_tilde_disjoint_cover(two_far):
    forest = shared_stream_forest(two_far, 0.5, 0, seed=0)
    for cube in dl.build_cubes(forest, 0):
        assert dl.tilde_cube(forest, 0, cube.center).members == cube.members


def test_tilde_unknown_center(two_far):
    forest = shared_stream_forest(two_far, 0.5, 0, seed=0)
    with pytest.raises(UnknownCenter, match="^no cube centered at 99 at level 0$"):
        dl.tilde_cube(forest, 0, 99)


def test_tilde_checks_its_inputs_as_cube_does(two_far):
    """A level outside the hierarchy, and a level or center that is no
    integer, are refused with the cube lookup's errors."""
    forest = shared_stream_forest(two_far, 0.5, 0, seed=0)
    for level, center, message in ((0, 1.0, "center must be an integer, got 1.0"),
                                   (0, True, "center must be an integer, got True"),
                                   (0.0, 1, "level must be an integer, got 0.0"),
                                   (99, 1, "level 99 not present in the hierarchy")):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            dl.tilde_cube(forest, level, center)
    assert dl.tilde_cube(forest, np.int64(0), np.int64(1)) == dl.tilde_cube(forest, 0, 1)


def test_ladder_multi_cover_and_tilde(ladder):
    """Seed 48 multi-covers w: interiors are strict subsets and partition."""
    forest = shared_stream_forest(ladder, 0.1, 0, seed=48)
    rep = dl.check_cube_cover(forest, 0)
    assert rep.multi_covered == (1,)  # the point w
    cubes = dl.build_cubes(forest, 0)
    tildes = [dl.tilde_cube(forest, 0, c.center) for c in cubes]
    for cube, tilde in zip(cubes, tildes):
        assert tilde.members <= cube.members
    # interiors are pairwise disjoint; together with shared points they tile
    seen = set()
    for tilde in tildes:
        assert not (tilde.members & seen)
        seen |= tilde.members
    assert seen | set(rep.multi_covered) == set(range(len(ladder)))
    assert dl.check_forest_invariants(forest).ok


def test_tilde_matches_reference_on_every_level(ladder, decay_probe):
    """The cover-count interior equals the set-union one for every level and
    center: on the ladder at seed 48, where w lies in two cubes, on the decay
    probe at ratio 1/1000, and on the 60-point criterion-7 cloud."""
    cloud = criterion_7_cloud()
    forests = [shared_stream_forest(ladder, 0.1, 0, seed=48)]
    forests += [shared_stream_forest(decay_probe, 0.001, 0, seed=s) for s in range(4)]
    forests += [shared_stream_forest(cloud, 0.1, 0, seed=s) for s in range(2)]
    assert dl.check_cube_cover(forests[0], 0).multi_covered == (1,)
    for forest in forests:
        for level in forest.levels:
            cubes = dl.build_cubes(forest, level)
            for cube in cubes:
                got = dl.tilde_cube(forest, level, cube.center)
                assert got == reference_tilde_cube(forest.space, cubes, cube.center)
                assert type(got.center) is int


# --- structural invariants ------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_forest_invariants_seeded(seed):
    space = dl.make_space("random_cloud", seed=seed + 20, n=40, dim=2,
                          min_sep=0.02)
    forest = shared_stream_forest(space, 0.1, 0, seed=seed,
                                  mode="greedy_permutation")
    rep = dl.check_forest_invariants(forest)
    assert rep.ok, rep.violations
    assert rep.max_ancestor_ratio <= 10.0
    assert rep.max_diameter_ratio <= 21.0


def test_forest_invariants_report_double_capture():
    """A coarse grid that is not separated captures both children 0 and 1."""
    space = dl.space_from_coords([[0.0], [0.125], [0.5]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0, 1})),
        1: Grid(scale=0.1, members=frozenset({0, 1, 2}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 1, 2: 1}})
    assert dl.check_forest_invariants(forest).violations == [
        "child 0 at level 1 captured by [0, 1]",
        "child 1 at level 1 captured by [0, 1]"]


def test_forest_invariants_report_parent_outside_options():
    """Child 0 is captured by itself, so its only option is 0; a parent map
    that links it to 2 breaks the link rule and is reported."""
    space = dl.space_from_coords([[0.0], [0.5], [3.0]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0, 2})),
        1: Grid(scale=0.1, members=frozenset({0, 1, 2}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 2, 1: 0, 2: 2}})
    assert dl.check_forest_invariants(forest).violations == [
        "child 0 at level 1 has parent 2, not one of its options [0]"]


def test_forest_invariants_report_broken_parent_maps():
    """A hand-built map that lacks a child, or links one outside the coarse
    grid, is reported, before the checks that index every link run."""
    space = dl.space_from_coords([[0.0], [0.5], [3.0]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0, 2})),
        1: Grid(scale=0.1, members=frozenset({0, 1, 2}))})
    for parents, want in (
            ({1: {0: 0, 2: 2}}, ["child 1 at level 1 has no parent"]),
            ({1: {0: 0, 1: 1, 2: 2}},
             ["child 1 at level 1 has parent 1, outside the level-0 grid"]),
            ({}, [f"child {c} at level 1 has no parent" for c in range(3)])):
        forest = dl.LatticeForest(hierarchy=hierarchy, parents=parents)
        assert dl.check_forest_invariants(forest).violations == want


def test_forest_invariants_report_unnested_cube():
    """A hand-set cube table whose child row holds a point its parent's lacks."""
    space = dl.space_from_coords([[0.0], [0.05]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0})),
        1: Grid(scale=0.1, members=frozenset({0, 1}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 0}})
    forest.__dict__["cube_table"] = {
        0: ({0: 0}, np.array([[True, False]])),
        1: ({0: 0, 1: 1}, np.array([[True, False], [False, True]]))}
    assert dl.check_forest_invariants(forest).violations == [
        "cube 0@0 differs from the union of its descendants' balls"]


def test_forest_invariants_report_cube_beyond_its_definition():
    """A hand-set cube table whose level-1 cube of 0 also holds point 1:
    every cube still holds its center and nests in its parent's, but that
    cube is not the union of its descendants' balls."""
    space = dl.space_from_coords([[0.0], [0.05]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0})),
        1: Grid(scale=0.1, members=frozenset({0, 1}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 0}})
    forest.__dict__["cube_table"] = {
        0: ({0: 0}, np.array([[True, True]])),
        1: ({0: 0, 1: 1}, np.array([[True, True], [False, True]]))}
    assert dl.check_forest_invariants(forest).violations == [
        "cube 0@1 differs from the union of its descendants' balls"]


def test_forest_invariants_report_far_ancestor():
    """Point 2 linked to a parent 30 away, outside its options: the link rule,
    the ancestor bound and the diameter bound all report it."""
    space = dl.space_from_coords([[0.0], [0.5], [30.0]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0, 2})),
        1: Grid(scale=0.1, members=frozenset({0, 1, 2}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 0, 2: 0}})
    rep = dl.check_forest_invariants(forest)
    assert rep.violations == [
        "child 2 at level 1 has parent 0, not one of its options [2]",
        "descendant 2 (level 1) is 30.0 from ancestor 0 (level 0)",
        "cube 0@0 has diameter 30.0 > 21.0 * 1.0"]
    want = reference_check_forest_invariants(forest)
    assert (rep.violations, rep.max_ancestor_ratio, rep.max_diameter_ratio) == (
        want.violations, want.max_ancestor_ratio, want.max_diameter_ratio)


def test_forest_invariants_report_every_kind_at_once():
    """One hand-built three-level forest that breaks every rule the check
    tests.  At level 1, point 3, 30 away, is linked to 0, which is no option
    of it; it is then 30 from its level-0 ancestor at levels 1 and 2, and
    makes cube 0@0 30 wide.  At level 2, point 2 sits within a quarter of
    the level-1 scale of both 0 and 1.  The cube table is the forest's own
    but for cube 1@1, which also holds point 2: it still holds its center
    and nests in its parent's cube, so the reference check, which predates
    the definition check, reports all but that line."""
    space = dl.space_from_coords([[0.0], [1 / 32], [1 / 64], [30.0]])
    hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1, 2), grids={
        0: Grid(scale=1.0, members=frozenset({0})),
        1: Grid(scale=0.1, members=frozenset({0, 1, 3})),
        2: Grid(scale=0.01, members=frozenset({0, 1, 2, 3}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={
        1: {0: 0, 1: 0, 3: 0}, 2: {0: 0, 1: 1, 2: 0, 3: 3}})
    rows, held = forest.cube_table[1]
    held = held.copy()
    held[rows[1], 2] = True
    forest.__dict__["cube_table"] = {**forest.cube_table, 1: (rows, held)}
    differs = "cube 1@1 differs from the union of its descendants' balls"
    rep = dl.check_forest_invariants(forest)
    assert rep.violations == [
        "child 3 at level 1 has parent 0, not one of its options []",
        "child 2 at level 2 captured by [0, 1]",
        "descendant 3 (level 1) is 30.0 from ancestor 0 (level 0)",
        "descendant 3 (level 2) is 30.0 from ancestor 0 (level 0)",
        "cube 0@0 has diameter 30.0 > 21.0 * 1.0",
        differs]
    want = reference_check_forest_invariants(forest)
    assert (want.violations, want.max_ancestor_ratio, want.max_diameter_ratio) == (
        [v for v in rep.violations if v != differs], rep.max_ancestor_ratio,
        rep.max_diameter_ratio)
    assert rep.max_ancestor_ratio == rep.max_diameter_ratio == 30.0


def test_forest_invariants_bounds_are_closed():
    """Point 1 linked, outside its options, to the level-0 point 0: exactly
    10 * scale(0) away it meets the ancestor bound, and exactly 21 * scale(0)
    away, past that bound, the cube {0, 1} meets the diameter bound."""
    for far, want in (
            (ANCESTOR_FACTOR, []),
            (DIAMETER_FACTOR, ["descendant 1 (level 1) is 21.0 from ancestor 0 (level 0)"])):
        space = dl.space_from_coords([[0.0], [far]])
        hierarchy = GridHierarchy(space=space, delta=0.1, levels=(0, 1), grids={
            0: Grid(scale=1.0, members=frozenset({0})),
            1: Grid(scale=0.1, members=frozenset({0, 1}))})
        forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 0}})
        rep = dl.check_forest_invariants(forest)
        assert rep.violations == [
            "child 1 at level 1 has parent 0, not one of its options []"] + want
        assert rep.max_ancestor_ratio == rep.max_diameter_ratio == far


# the check that walked each ancestor point by point and tested each cube for
# its center and for nesting in its parent's cube, kept as the oracle of the
# one-walk-per-level definition check
def reference_check_forest_invariants(forest: dl.LatticeForest) -> ForestInvariantReport:
    """Parent uniqueness and the link rule, ancestor proximity, cube nesting,
    and diameter bounds."""
    h = forest.hierarchy
    space = h.space
    rep = ForestInvariantReport()

    # no child may see two coarser points within the capture radius, and
    # every child must have a parent, and one of its link-rule options
    broken = False
    for lev in h.levels[1:]:
        children = sorted(h.grid(lev).members)
        links = forest.parents.get(lev, {})
        coarse = h.grid(lev - 1)
        for child, (captured, options) in zip(
                children, reference_link_rule(space, children, coarse)):
            if len(captured) > 1:
                rep.violations.append(
                    f"child {child} at level {lev} captured by {captured}")
            parent = links.get(child)
            if parent is None:
                broken = True
                rep.violations.append(f"child {child} at level {lev} has no parent")
            elif parent not in coarse.members:
                broken = True
                rep.violations.append(f"child {child} at level {lev} has parent "
                                      f"{parent}, outside the level-{lev - 1} grid")
            elif parent not in options:
                rep.violations.append(f"child {child} at level {lev} has parent "
                                      f"{parent}, not one of its options {options}")
    if broken:
        return rep  # the ancestor walk and the cube table index every link

    # every descendant stays within 10x the ancestor's scale
    for k in h.levels:
        scale = h.scale(k)
        for lev in range(k + 1, h.finest_level + 1):
            for z in h.grid(lev).members:
                a = forest.ancestor(z, lev, k)
                ratio = space.d[z, a] / scale
                rep.max_ancestor_ratio = max(rep.max_ancestor_ratio, ratio)
                if space.d[z, a] > ANCESTOR_FACTOR * scale:
                    rep.violations.append(
                        f"descendant {z} (level {lev}) is {space.d[z, a]} from "
                        f"ancestor {a} (level {k})")

    # child cubes nest inside their parent's cube; diameters stay bounded
    for k in h.levels:
        rows, held = forest.cube_table[k]
        scale = h.scale(k)
        for center, i in rows.items():
            if not held[i, center]:
                rep.violations.append(f"cube {center}@{k} misses its center")
            idx = np.flatnonzero(held[i])
            if idx.size:
                diam = float(space.d[np.ix_(idx, idx)].max())
                rep.max_diameter_ratio = max(rep.max_diameter_ratio, diam / scale)
                if diam > DIAMETER_FACTOR * scale:
                    rep.violations.append(
                        f"cube {center}@{k} has diameter {diam} "
                        f"> {DIAMETER_FACTOR} * {scale}")
    for lev in h.levels[1:]:
        rows, held = forest.cube_table[lev]
        up_rows, up_held = forest.cube_table[lev - 1]
        for center, i in rows.items():
            up = forest.parents[lev][center]
            if (held[i] & ~up_held[up_rows[up]]).any():
                rep.violations.append(
                    f"cube {center}@{lev} not nested in parent {up}@{lev - 1}")
    return rep


def test_forest_invariants_match_reference():
    """The same report as the oracle on 75 seeded draws: the 200-point cascade
    at ratio 1/1000, and the criterion-7 cloud at 0.1 and, through the greedy
    sampler (the exhaustive one refuses it), at 1/1000."""
    cascade = dl.make_space("random_cloud", seed=1, n=200, dim=2, levels=5,
                            branching=3, ratio=0.01)
    cloud = criterion_7_cloud()
    for space, delta, mode in ((cascade, 0.001, "exhaustive_uniform"),
                               (cloud, 0.1, "exhaustive_uniform"),
                               (cloud, 0.001, "greedy_permutation")):
        for seed in range(25):
            forest = shared_stream_forest(space, delta, 0, seed=seed, mode=mode)
            got = dl.check_forest_invariants(forest)
            want = reference_check_forest_invariants(forest)
            assert (got.violations, got.max_ancestor_ratio, got.max_diameter_ratio) == (
                want.violations, want.max_ancestor_ratio, want.max_diameter_ratio)


def test_invariants_and_chain_scan_walk_once_per_level(decay_probe, monkeypatch):
    """The ancestors come from the one walker, a batch at a time: the
    invariants check walks each level's points in one ``_walk`` call, not one
    per point, and the chain scan walks the top cubes that hold its near
    points once per (base level, span)."""
    calls = []
    walk = dl.LatticeForest._walk

    def counting(forest, points, from_level, to_level):
        calls.append((len(points), from_level, to_level))
        return walk(forest, points, from_level, to_level)

    monkeypatch.setattr(dl.LatticeForest, "_walk", counting)
    forest = shared_stream_forest(decay_probe, 0.001, 0, seed=13)
    h = forest.hierarchy
    assert dl.check_forest_invariants(forest).ok
    assert calls == [(len(h.grid(lev).members), lev, h.levels[0]) for lev in h.levels]
    calls.clear()
    scan = dl.scan_chain_separation(forest)
    assert [call[1:] for call in calls] == [
        (base + m, base) for base in h.levels for m in range(1, h.finest_level - base + 1)]
    assert sum(call[0] for call in calls) == scan.verified > 0


# --- chain separation -------------------------------------------------------------------

def find_divergent_seed(space, widths, max_seed=400):
    """First seed whose forest leaves the probe within the widest layer."""
    from dyadiclab.metric import set_distance

    for seed in range(max_seed):
        forest = shared_stream_forest(space, 0.001, 0, seed=seed)
        owner = forest.ancestor(0, forest.hierarchy.finest_level, 0)
        cube = next(c for c in dl.build_cubes(forest, 0) if c.center == owner)
        outside = [i for i in range(len(space)) if i not in cube.members]
        depth = set_distance(space, [0], outside)
        if depth <= widths:
            return seed, forest
    raise AssertionError("no divergent seed found")


def test_chain_scan_zero_violations_small_delta(decay_probe):
    """Exhaustive chain scan at ratio 1/1000: no violating pair, ever."""
    verified = 0
    for seed in range(30):
        forest = shared_stream_forest(decay_probe, 0.001, 0, seed=seed)
        scan = dl.scan_chain_separation(forest)
        assert scan.ok
        verified += scan.verified
    assert verified > 0  # the scan is not vacuous on this space


def test_chain_scan_skips_large_delta(l3):
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    scan = dl.scan_chain_separation(forest)
    assert scan.verified == 0 and scan.vacuous == 0


# the chain check under the paper's boundary hypotheses is stated below as
# reference_verify_chain_separation; these tests pin the oracle the scan is
# checked against

def test_verify_chain_m0_and_hypotheses(decay_probe):
    seed, forest = find_divergent_seed(decay_probe, 2e-6)
    owner = forest.ancestor(0, forest.hierarchy.finest_level, 0)
    # the trivial chain has no pairs, so it verifies vacuously true
    assert reference_verify_chain_separation(forest, 0, [owner], 0, eps=1e-5)
    # a one-step chain through x's level-1 ancestor checks the (1, 0) pair;
    # wider spans shrink the admissible layer width below this event's depth
    anc1 = forest.ancestor(0, forest.hierarchy.finest_level, 1)
    chain = forest.chain(anc1, 1, 0)
    assert reference_verify_chain_separation(forest, 0, chain, 0, eps=1e-5)


def test_verify_chain_hypotheses_not_met(two_far, decay_probe):
    forest = shared_stream_forest(two_far, 0.001, 0, seed=0)
    # single cube covering everything: no boundary proximity is possible
    with pytest.raises(HypothesesNotMet):
        reference_verify_chain_separation(forest, 0, [0], 0, eps=1e-5)
    # eps too large for the chain span
    seed, div_forest = find_divergent_seed(decay_probe, 2e-6)
    owner = div_forest.ancestor(0, div_forest.hierarchy.finest_level, 0)
    with pytest.raises(HypothesesNotMet):
        chain = div_forest.chain(0, div_forest.hierarchy.finest_level, 0)
        reference_verify_chain_separation(div_forest, 0, chain, 0, eps=0.5)
    # a chain whose top cube does not contain x is outside the hypotheses
    far = div_forest.space.index("E")
    with pytest.raises(HypothesesNotMet):
        reference_verify_chain_separation(
            div_forest, 0,
            div_forest.chain(far, div_forest.hierarchy.finest_level, 0),
            0, eps=0.001 ** div_forest.hierarchy.finest_level / 100)


def test_verify_chain_large_delta_is_vacuous(l3):
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    with pytest.raises(HypothesesNotMet):
        reference_verify_chain_separation(forest, 0, [forest.ancestor(0, 1, 0)], 0,
                                          eps=1e-6)


def test_verify_chain_rival_gate_is_strict():
    """x hangs under a, p under y, 2**-7 from x, in this forest of the
    construction at ratio 1/1000.  So x's rival depth at level 0 is 2**-7:
    with eps = 2**-7 the point is not closer than eps * scale(0) to a rival
    cube, and the hypotheses fail; with the next float above, the trivial
    chain [a] verifies."""
    coords = {"a": 0.0, "x": 0.28125, "p": 0.2890625, "y": 2.0}
    xs = list(coords.values())
    space = dl.validate_metric([[abs(p - q) for q in xs] for p in xs], list(coords))
    a, x, p, y = range(4)
    forest, = [f for f, _ in dl.enumerate_forest_outcomes(space, 0.001, 0)
               if f.parents == {1: {a: a, x: a, p: y, y: y}}]
    eps = 2.0 ** -7
    assert _rival_depth(forest, 0)[x] == eps * forest.hierarchy.scale(0)
    with pytest.raises(HypothesesNotMet, match="not within eps"):
        reference_verify_chain_separation(forest, x, [a], 0, eps=eps)
    assert reference_verify_chain_separation(forest, x, [a], 0, eps=np.nextafter(eps, 1.0))


def test_chain_scan_rival_gate_is_strict(monkeypatch):
    """One hand-set forest at ratio 1/1000: x hangs under a and p under y,
    and x and p lie exactly the widest span-1 layer width apart, so the rival
    depth of each at level 0 is that width times scale(0).  Neither is
    strictly inside the layer, and the scan verifies no chain; a layer one
    float wider takes in both."""
    delta = 0.001
    e = _widest_eps(delta, 1)
    matrix = [[0.0, 0.5, 0.5 + e, 1.5],
              [0.5, 0.0, e, 1.0],
              [0.5 + e, e, 0.0, 1.0 - e],
              [1.5, 1.0, 1.0 - e, 0.0]]
    space = dl.validate_metric(matrix, ["a", "x", "p", "y"])
    a, x, p, y = range(4)
    hierarchy = GridHierarchy(space=space, delta=delta, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({a, y})),
        1: Grid(scale=delta, members=frozenset(range(4)))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {a: a, x: a, p: y, y: y}})
    assert _rival_depth(forest, 0)[[x, p]].tolist() == [e * hierarchy.scale(0)] * 2
    assert scan_tuple(assert_checks_match_reference(forest)) == (0, 4, [])
    monkeypatch.setattr(lattice, "_widest_eps", lambda delta, m: np.nextafter(e, 1.0))
    assert scan_tuple(dl.scan_chain_separation(forest)) == (2, 2, [])


def test_chain_scan_verifies_only_chains_that_verify_admits(decay_probe, monkeypatch):
    """At delta = 0.00095, 100 * (delta**m / 100) rounds above delta**m for
    some spans m, so the closed test delta**m >= 100 * eps refuses that eps.
    Each chain the scan counts as verified, paired with each point it was
    verified for, passes the reference chain check with the eps the scan used."""
    chains, used = set(), {}
    chain_violations, widest_eps = lattice._chain_violations, lattice._widest_eps

    def recording_chains(forest, chain, top_level):
        chains.add((top_level, tuple(chain)))
        return chain_violations(forest, chain, top_level)

    def recording_eps(delta, m):
        used[m] = widest_eps(delta, m)
        return used[m]

    monkeypatch.setattr(lattice, "_chain_violations", recording_chains)
    monkeypatch.setattr(lattice, "_widest_eps", recording_eps)
    delta = 0.00095
    assert any(delta ** m < BALL_DIVISOR * (delta ** m / BALL_DIVISOR) for m in (1, 2))
    verified = admitted = 0
    for seed in range(300):
        forest = shared_stream_forest(decay_probe, delta, 0, seed=seed)
        chains.clear()
        verified += dl.scan_chain_separation(forest).verified
        for top, chain in list(chains):
            rows, held = forest.cube_table[top]
            for x in np.flatnonzero(held[rows[chain[0]]]).tolist():
                try:
                    reference_verify_chain_separation(forest, x, list(chain),
                                                      top - len(chain) + 1, used[len(chain) - 1])
                    admitted += 1
                except HypothesesNotMet:
                    pass  # x is in the top cube but outside the layer
    assert verified == admitted > 0


# the cover and chain checks before the per-level membership matrix, kept as
# their oracle: each builds every rival set as the space minus a tilde cube
def reference_check_cube_cover(forest: dl.LatticeForest, level: int) -> CubeCoverReport:
    """Every point must belong to at least one cube of the level."""
    cubes = dl.build_cubes(forest, level)
    witness: dict[int, int] = {}
    counts: dict[int, int] = {}
    for cube in cubes:
        for x in cube.members:
            witness.setdefault(x, cube.center)
            counts[x] = counts.get(x, 0) + 1
    missing = [x for x in range(len(forest.space)) if x not in witness]
    if missing:
        raise CoverViolation(
            f"point {missing[0]} is in no level-{level} cube", witness=missing[0])
    multi = tuple(sorted(x for x, c in counts.items() if c > 1))
    return CubeCoverReport(level=level, multi_covered=multi)


class HypothesesNotMet(DyadicLabError):
    """The reference chain check was asked outside its hypotheses (a vacuous
    case, not a verdict)."""


def reference_verify_chain_separation(forest, x, chain, base_level, eps):
    """Check pairwise separation along a parent chain under the boundary hypotheses.

    ``chain`` lists points from the finest level ``base_level + len(chain) - 1``
    down to ``base_level``, one per level.  Hypotheses: the hierarchy scale
    ratio is at most 1/1000, delta**m >= 100*eps for the chain span m, x lies
    in the finest chain point's cube, and x lies in some level-``base_level``
    cube whose interior boundary is closer to x than eps * scale.  When they
    fail, HypothesesNotMet is raised.  Returns True iff every pair (z_i at
    level i, z_j at level j < i) in the chain satisfies dist(z_i, z_j) >=
    scale(j) / 100.
    """
    h = forest.hierarchy
    delta = h.delta
    m = len(chain) - 1
    top_level = base_level + m
    if m < 0 or top_level not in h.levels or base_level not in h.levels:
        raise InvalidParams("chain levels must lie inside the hierarchy")
    if delta > 1.0 / 1000.0:
        raise HypothesesNotMet(f"scale ratio {delta} exceeds 1/1000")
    if eps <= 0 or delta ** m < 100.0 * eps:
        raise HypothesesNotMet(f"need delta**m >= 100*eps, got {delta**m} < {100*eps}")

    top_cubes = {c.center: c for c in dl.build_cubes(forest, top_level)}
    if chain[0] not in top_cubes or x not in top_cubes[chain[0]].members:
        raise HypothesesNotMet(
            f"point {x} not in the cube of {chain[0]} at level {top_level}")
    space = forest.space
    everything = frozenset(range(len(space)))
    base_cubes = dl.build_cubes(forest, base_level)
    scale_k = h.scale(base_level)
    hypothesis = False
    for cube in base_cubes:
        if x not in cube.members:
            continue
        rival = everything - reference_tilde_cube(space, base_cubes, cube.center).members
        if dl.set_distance(space, [x], rival) < eps * scale_k:
            hypothesis = True
            break
    if not hypothesis:
        raise HypothesesNotMet(
            f"point {x} is not within eps*scale of any rival cube at level {base_level}")

    for j_off in range(m + 1):
        for i_off in range(j_off):
            # chain[i_off] sits at the finer level, chain[j_off] at the coarser
            level_j = top_level - j_off
            threshold = h.scale(level_j) / 100.0
            if space.d[chain[i_off], chain[j_off]] < threshold:
                return False
    return True


def reference_rival_depth(forest: dl.LatticeForest, level: int) -> dict[int, float]:
    """Distance from each member of a cube to the union of the other cubes,
    least over the cubes that hold it; points in no cube are absent."""
    space = forest.space
    everything = frozenset(range(len(space)))
    cubes = dl.build_cubes(forest, level)
    depth: dict[int, float] = {}
    for cube in cubes:
        rival = sorted(everything - reference_tilde_cube(space, cubes, cube.center).members)
        members = sorted(cube.members)
        if rival:
            mins = space.d[np.ix_(members, rival)].min(axis=1)
        else:
            mins = np.full(len(members), np.inf)
        for x, dist in zip(members, mins):
            depth[x] = min(depth.get(x, np.inf), float(dist))
    return depth


def assert_rival_depth_matches_reference(forest, level):
    want = reference_rival_depth(forest, level)
    got = _rival_depth(forest, level)
    assert got.tolist() == [want.get(x, np.inf) for x in range(len(forest.space))]


def reference_scan_chain_separation(forest: dl.LatticeForest) -> ChainScanReport:
    """Exhaustively test every chain whose boundary hypotheses can be met."""
    h = forest.hierarchy
    rep = ChainScanReport()
    if h.delta > 1.0 / 1000.0:
        return rep  # hypotheses are never met at this scale ratio
    space = forest.space
    for base_level in h.levels:
        scale_k = h.scale(base_level)
        depth = reference_rival_depth(forest, base_level)
        for m in range(1, h.finest_level - base_level + 1):
            eps = h.delta ** m / 100.0
            top = base_level + m
            top_cubes = dl.build_cubes(forest, top)
            anc_chain_cache: dict[int, list[int]] = {}
            for x in range(len(space)):
                if depth.get(x, np.inf) >= eps * scale_k:
                    rep.vacuous += 1
                    continue
                for z in [c.center for c in top_cubes if x in c.members]:
                    if z not in anc_chain_cache:
                        anc_chain_cache[z] = forest.chain(z, top, base_level)
                    chain = anc_chain_cache[z]
                    rep.verified += 1
                    for j_off in range(m + 1):
                        threshold = h.scale(top - j_off) / 100.0
                        for i_off in range(j_off):
                            if space.d[chain[i_off], chain[j_off]] < threshold:
                                rep.violations.append(
                                    (x, base_level, m, chain[i_off], chain[j_off]))
    return rep


def outcome(fn, *args):
    """A call's return value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except DyadicLabError as exc:
        return type(exc), str(exc)


def scan_tuple(rep):
    return rep.verified, rep.vacuous, rep.violations


def assert_checks_match_reference(forest):
    """Cover reports and rival depths of every level, and the scan, agree
    with the oracles."""
    for level in forest.levels:
        assert (outcome(dl.check_cube_cover, forest, level)
                == outcome(reference_check_cube_cover, forest, level))
        assert_rival_depth_matches_reference(forest, level)
    got = dl.scan_chain_separation(forest)
    assert scan_tuple(got) == scan_tuple(reference_scan_chain_separation(forest))
    assert all(type(v) is int for t in got.violations for v in t)
    return got


def test_chain_checks_match_reference(decay_probe):
    verified = 0
    for seed in range(30):
        verified += assert_checks_match_reference(
            shared_stream_forest(decay_probe, 0.001, 0, seed=seed)).verified
    cascade60 = dl.make_space("random_cloud", seed=1, n=60, dim=2, levels=4,
                              branching=3, ratio=0.01)
    for seed in range(10):
        verified += assert_checks_match_reference(
            shared_stream_forest(cascade60, 0.001, 0, seed=seed)).verified
    # the 200-point cascade of the lattice benchmark workload
    cascade200 = dl.make_space("random_cloud", seed=1, n=200, dim=2, levels=5,
                               branching=3, ratio=0.01)
    for seed in range(2):
        verified += assert_checks_match_reference(
            shared_stream_forest(cascade200, 0.001, 0, seed=seed)).verified
    assert verified > 0


def test_rival_depth_from_the_cover_count():
    """One hand-set level: b lies in the cubes of a and c, e only in c's, d in
    none.  b is its own rival, a and c each see b, e sees b, and d has no
    cube to hold it."""
    space = dl.space_from_coords([[0.0], [0.0075], [0.015], [0.5], [0.02]],
                                 names=("a", "b", "c", "d", "e"))
    hierarchy = GridHierarchy(space=space, delta=0.001, levels=(0,), grids={
        0: Grid(scale=1.0, members=frozenset({0, 2}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={})
    assert forest.cube_table[0][1].sum(axis=0).tolist() == [1, 2, 1, 0, 1]
    assert _rival_depth(forest, 0).tolist() == [0.0075, 0.0, 0.0075, np.inf, 0.0125]
    assert_rival_depth_matches_reference(forest, 0)


def test_chain_scan_reports_violation():
    """b sits in a's small ball but hangs under c, so a's level-1 chain is a
    -> a and b's is b -> c: both top cubes hold a, and the two chain pairs
    within 1/100 of the coarse scale are reported."""
    space = dl.space_from_coords([[0.0], [5e-6], [0.5]], names=("a", "b", "c"))
    delta = 0.001
    hierarchy = GridHierarchy(space=space, delta=delta, levels=(0, 1), grids={
        0: Grid(scale=1.0, members=frozenset({0, 2})),
        1: Grid(scale=delta, members=frozenset({0, 1, 2}))})
    forest = dl.LatticeForest(hierarchy=hierarchy, parents={1: {0: 0, 1: 2, 2: 2}})
    want = (4, 1, [(0, 0, 1, 0, 0), (1, 0, 1, 0, 0)])
    assert scan_tuple(reference_scan_chain_separation(forest)) == want
    assert scan_tuple(assert_checks_match_reference(forest)) == want
    assert reference_verify_chain_separation(forest, 0, [0, 0], 0, 1e-5) is False


def test_chain_levels_outside_hierarchy(l3):
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    top = forest.hierarchy.finest_level
    for bad in ((0, top, top + 1), (0, top + 1, 0), (0, top, -5), (0, 0, top)):
        with pytest.raises(InvalidParams):
            forest.chain(*bad)
        with pytest.raises(InvalidParams):
            forest.ancestor(*bad)


def test_chain_from_point_outside_grid():
    """A chain or ancestor asked of a point that is not in its level's grid,
    or not in the space, names the point and the level."""
    cloud = criterion_7_cloud()
    forest = shared_stream_forest(cloud, 0.1, 0, seed=0)
    assert 0 not in forest.hierarchy.grid(1).members
    for point, level in ((0, 1), (999, 2), (-1, 2)):
        for walk in (forest.chain, forest.ancestor):
            with pytest.raises(UnknownCenter,
                               match=f"^point {point} is not in the level-{level} grid$"):
                walk(point, level, 0)


def test_levels_that_are_no_integers_are_refused(elbow):
    """2.0 and True compare equal to levels of the hierarchy, so the level
    guard refuses them by value: ``range`` would raise a bare TypeError in the
    chain, and the cube cover check would report on level 1.0."""
    forest = shared_stream_forest(elbow, 0.1, 0, seed=0)
    with pytest.raises(InvalidParams, match="^level must be an integer, got 2.0$"):
        forest.chain(0, 2.0, 0)
    with pytest.raises(InvalidParams, match="^level must be an integer, got 1.0$"):
        dl.check_cube_cover(forest, 1.0)
    with pytest.raises(InvalidParams, match="^level must be an integer, got True$"):
        dl.build_cubes(forest, True)
    assert forest.chain(0, np.int64(2), np.int64(0)) == forest.chain(0, 2, 0)


def test_cube_refuses_a_level_or_center_that_is_no_integer(elbow):
    """The cube table is a dict, so 1.0 or True finds the row of level or
    center 1; the cube lookup refuses them by value, as every other level
    input is refused.  An integer center with no cube stays an unknown
    center, and a level outside the hierarchy is refused like the others."""
    forest = shared_stream_forest(elbow, 0.1, 0, seed=0)
    rows = forest.cube_table[1][0]
    assert 1 in rows
    for level, center, message in ((1.0, 1, "level must be an integer, got 1.0"),
                                   (True, 1.0, "level must be an integer, got True"),
                                   ("1", 1, "level must be an integer, got '1'"),
                                   (1, 1.0, "center must be an integer, got 1.0"),
                                   (1, True, "center must be an integer, got True"),
                                   (1, "1", "center must be an integer, got '1'"),
                                   (99, 1, "level 99 not present in the hierarchy")):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            forest.cube(level, center)
    with pytest.raises(UnknownCenter, match="^no cube centered at 99 at level 1$"):
        forest.cube(1, 99)
    cube = forest.cube(np.int64(1), np.int64(1))
    assert cube == forest.cube(1, 1) and type(cube.center) is int


def test_chain_refuses_a_point_that_is_no_integer(elbow):
    """1.0, True and a NumPy float compare equal to the point 1, which the
    chain would walk and return; the chain refuses them, as the cube lookup
    refuses such a center.  A NumPy integer is an integer."""
    forest = shared_stream_forest(elbow, 0.1, 0, seed=0)
    top = forest.hierarchy.finest_level
    for point in (1.0, True, np.float64(1)):
        message = re.escape(f"point must be an integer, got {point!r}")
        for walk in (forest.chain, forest.ancestor):
            with pytest.raises(InvalidParams, match=f"^{message}$"):
                walk(point, top, 0)
    assert forest.chain(np.int64(1), top, 0) == forest.chain(1, top, 0)


def test_chain_level_guard_messages(l3):
    """The chain's level guard: a level outside the hierarchy, refused by the
    hierarchy's own rule, and a chain asked to climb."""
    forest = shared_stream_forest(l3, 0.1, 0, seed=0)
    top = forest.hierarchy.finest_level
    assert top >= 1
    outside = f"^level {top + 1} not present in the hierarchy$"
    for walk in (forest.chain, forest.ancestor):
        with pytest.raises(InvalidParams, match=outside):
            walk(0, top + 1, 0)
        with pytest.raises(InvalidParams,
                           match="^ancestor level must be at most the point's level$"):
            walk(0, 0, top)


# --- exact outcome enumeration ------------------------------------------------------------

def outcome_list(space, delta, enumerate_outcomes):
    """Grids, parent maps in insertion order, and Fractions of every outcome."""
    got = outcome(enumerate_outcomes, space, delta, 0)
    if isinstance(got, tuple):
        return got
    return [(f.hierarchy.grids, [(lev, list(m.items())) for lev, m in f.parents.items()],
             p) for f, p in got]


def test_outcomes_match_reference(elbow, ladder, small_family):
    spaces = [elbow, ladder] + [s for _, s in small_family if len(s) <= 8]
    for space in spaces:
        want = outcome_list(space, 0.1, reference_enumerate_forest_outcomes)
        assert outcome_list(space, 0.1, dl.enumerate_forest_outcomes) == want


def test_parent_maps_match_product_order(elbow, ladder, small_family):
    """Every level pair's table of parent maps that the exact recursion hands
    its step, over the criterion-1 spaces of at most 9 points and two
    hand-built ones, is the product of its children's option columns: the
    same values in the same row order, dtype and shape."""
    spaces = [elbow, ladder] + [s for _, s in small_family if len(s) <= 9]
    pairs = []

    def collect(state, pair):
        pairs.append(pair)
        return state

    for space in spaces:
        for _ in lattice._grid_paths(space, 0.1, 0, DEFAULT_EXHAUSTIVE_LIMIT, collect, ()):
            pass
    for pair in pairs:
        want = reference_parent_maps(pair.options)
        assert (pair.maps.dtype, pair.maps.shape) == (want.dtype, want.shape)
        assert np.array_equal(pair.maps, want) and pair.maps.flags.c_contiguous
        assert pair.count == len(want)
    assert sum(len(pair.maps) for pair in pairs) > 40_000


def test_outcome_probabilities_sum_to_one(elbow):
    outcomes = dl.enumerate_forest_outcomes(elbow, 0.1, 0)
    assert sum(p for _, p in outcomes) == Fraction(1)
    assert len(outcomes) == 6
    for forest, _ in outcomes:
        assert dl.check_forest_invariants(forest).ok


def test_enumeration_and_sampler_share_the_frame_checks(elbow):
    """The exact enumeration refuses what the sampler refuses, with the same
    error: a coarsest level finer than the finest, and an empty space."""
    empty = dl.validate_metric(np.zeros((0, 0)))
    cases = [(elbow, 5, "coarsest level 5 is finer than the finest level 2"),
             (empty, 0, "space must be nonempty")]
    for space, n0, message in cases:
        for run in (lambda: dl.enumerate_forest_outcomes(space, 0.1, n0),
                    lambda: dl.build_nested_grids(space, 0.1, n0, rng=0)):
            with pytest.raises(InvalidParams) as exc:
                run()
            assert str(exc.value) == message


def test_max_outcomes_caps_the_total(monkeypatch):
    """The cap counts forests over all grid outcomes, not within each one:
    this 11-point cloud has 124,548 forests over 36 grid outcomes, at most
    4096 in each.  The enumeration reads the cap when it is called."""
    cloud = dl.make_space("random_cloud", seed=16, n=11, dim=2, scale=2.2,
                          min_sep=0.05)
    for cap in (5000, 124_547):
        monkeypatch.setattr(lattice, "MAX_OUTCOMES", cap)
        with pytest.raises(TooLargeForExhaustive, match="too many parent outcomes"):
            dl.enumerate_forest_outcomes(cloud, 0.1, 0)
    monkeypatch.setattr(lattice, "MAX_OUTCOMES", 124_548)
    assert len(dl.enumerate_forest_outcomes(cloud, 0.1, 0)) == 124_548


def test_max_outcomes_caps_the_grid_outcomes(monkeypatch, elbow):
    """Every grid outcome holds at least one forest, so the forest cap bounds
    the grid outcomes too, and the recursion stops at the first (grid path,
    coarse grid) node whose forests pass it.  The elbow's first level pair
    has two parent maps, so a cap of one refuses it before any table of
    parent maps is built and before any coarser grid is enumerated."""
    built, families = [], []
    parent_maps, family = lattice._parent_maps, lattice.enumerate_maximal_separated
    monkeypatch.setattr(lattice, "_parent_maps",
                        lambda options: built.append(1) or parent_maps(options))
    monkeypatch.setattr(lattice, "enumerate_maximal_separated",
                        lambda *args, **kw: families.append(1) or family(*args, **kw))
    monkeypatch.setattr(lattice, "MAX_OUTCOMES", 1)
    with pytest.raises(TooLargeForExhaustive, match="too many parent outcomes"):
        dl.enumerate_forest_outcomes(elbow, 0.1, 0)
    assert built == [] and families == [1]


def test_outcome_enumeration_matches_sampling_support(elbow):
    """Every sampled parent map appears among the enumerated outcomes."""
    enumerated = {tuple(sorted((lev, c, p)
                               for lev, m in f.parents.items()
                               for c, p in m.items()))
                  for f, _ in dl.enumerate_forest_outcomes(elbow, 0.1, 0)}
    for seed in range(40):
        forest = shared_stream_forest(elbow, 0.1, 0, seed=seed)
        key = tuple(sorted((lev, c, p)
                           for lev, m in forest.parents.items()
                           for c, p in m.items()))
        assert key in enumerated


# --- serialization ---------------------------------------------------------------------------

def test_forest_serialization(l3):
    forest = dl.build_forest(dl.build_nested_grids(l3, 0.1, 0, rng=0), 7)
    payload = forest_to_json(forest)
    assert payload["seed"] == 7
    assert payload["levels"] == list(forest.levels)
    assert all({"level", "child", "parent"} <= set(e) for e in payload["edges"])
