"""Random parent links between grid levels, the cubes they generate, and checks.

Each point of a fine grid is linked to one point of the next coarser grid: the
unique coarser point in its capture radius when one exists, otherwise a
uniformly random choice among the coarser points in its candidate radius.  The
cube of a coarse point is the union, over all of its descendants z at finer
levels l, of the balls B(z, scale(l)/100) intersected with the space.
Equivalently, cube(y, k) is B(y, scale(k)/100) united with the level-(k+1)
cubes of y's children, so the cubes of every level are built once, in one
pass from the finest level up, and each forest keeps them in its
``cube_table`` as, per level, a map from center to row and one read-only
boolean cube-by-point membership matrix, which every check reads.  One
builder, ``_cube_tables``, makes that pass for a stack of forests on one
space at once, each level's rows of every forest in one matrix, and gives
each forest read-only views of its rows; a forest's own table is the
one-forest case, and the trial pipeline builds a block's forests together.

That union is one pure function, for one parent map of a level pair or for a
batch of them: it copies the level-k balls once per map and sets True, in each
child's parent row, every point the child's level-(k+1) cube holds, a boolean
assignment that is exact by construction.  The cube builder applies it to the
stacked parent rows of its forests, the exact goodness walk to every parent
map of a level at once (at the coarsest pair, to the maps of the children
its test reads, on the near columns), and the forest check to each level's
ancestor rows when it unites descendant balls.
The link rule is stated once: ``_link_radii`` gives its two closed radii
as boolean matrices, and ``_link_rule`` a stack of children's options from
their rows of them.  One linker, ``_links``, links a stack of hierarchies
on one space, a trial pipeline's batch of them or one forest's as a stack
of one: it reads, one coarse scale at a time, boolean rows of the scale's
radius matrices of the whole space, as the cube builder reads ball rows,
runs the rule only on the children outside their coarse grid (a coarse
point links to itself), and gives each forest one draw of every random
parent, coarse pairs first.  The checks and the exact enumeration pass one
level pair at a time, on the columns of its coarse grid.

The exact law of a forest is one product in the construction's own order:
grids drawn from fine to coarse, each by the grid law from the next finer
grid, then independent uniform parents.  One recursion walks it depth first
from the finest level, builds each level pair's link tables once per grid
path and hands them to its caller's step, holding only the current path's
tables itself.  ``enumerate_forest_outcomes`` keeps each grid outcome's
tables and builds its forests from them, under a cap on forests; the exact
goodness walk unites cube matrices from them and builds no forest, under
its own cap on that work.

Each threshold rule takes one side, stated here:

- ``BALL_DIVISOR``: the ball B(z, scale/100) is open, d < scale/100; a chain
  pair violates separation when it is closer than scale/100, strictly.
- ``CAPTURE_DIVISOR``: the capture radius is closed, d <= coarse scale/4.
- ``CANDIDATE_FACTOR``: the candidate radius is closed, d <= 3 * coarse scale.
- ``COVER_FACTOR``, ``ANCESTOR_FACTOR``, ``DIAMETER_FACTOR``: the asserted
  bounds are closed; a point more than 3 * scale from the grid, a descendant
  more than 10 * scale(k) from its level-k ancestor, or a cube of diameter
  more than 21 * scale is a violation, and one exactly on the bound is not.
- ``MAX_CHAIN_DELTA``: chain separation assumes delta <= 1/1000 and, for a
  chain of span m, a layer width eps with delta**m >= 100 * eps, both closed,
  and a point within the layer, strictly closer than eps * scale to a rival
  cube.  The scan takes, per span m, the widest eps that closed rule admits:
  delta**m / 100, or the float below it where 100 times that quotient rounds
  above delta**m.

On a finite space closures are trivial, so covering statements are checked as
plain covers and the "interior" of a cube is the set of points no other cube
of its level holds: those whose cover count, the column sum of the level's
cube table that the chain scan reads, is 0 once the cube's own row is taken
away.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoverViolation,
    InvalidParams,
    NoCandidateParent,
    TooLargeForExhaustive,
    UnknownCenter,
)
from .grids import (DEFAULT_EXHAUSTIVE_LIMIT, Grid, GridHierarchy, _drive, _require_limit,
                    enumerate_maximal_separated, finest_level)
from .metric import FiniteMetricSpace, _generator, _integer, _require_integer

__all__ = [
    "Cube",
    "TildeCube",
    "LatticeForest",
    "assign_parents",
    "build_forest",
    "build_cubes",
    "tilde_cube",
    "check_grid_cover",
    "check_cube_cover",
    "check_forest_invariants",
    "scan_chain_separation",
    "enumerate_forest_outcomes",
    "forest_to_json",
]

BALL_DIVISOR = 100          # descendant ball radius = scale / 100
CAPTURE_DIVISOR = 4         # deterministic link radius = coarse scale / 4
CANDIDATE_FACTOR = 3        # random link radius = 3 * coarse scale
DIAMETER_FACTOR = 21.0      # asserted cube diameter bound, in units of the scale
ANCESTOR_FACTOR = 10.0      # asserted ancestor proximity bound
COVER_FACTOR = 3.0          # asserted grid covering radius
MAX_CHAIN_DELTA = 1.0 / 1000.0  # largest scale ratio the chain separation assumes
MAX_OUTCOMES = 100_000  # the most forests enumerate_forest_outcomes may build; more are refused


@dataclass(frozen=True)
class Cube:
    """Region of one grid point: union of its descendants' small balls."""
    center: int
    level: int
    scale: float
    members: frozenset[int]


@dataclass(frozen=True)
class TildeCube:
    """Cube interior on a finite space: everything outside all sibling cubes."""
    center: int
    level: int
    members: frozenset[int]


@dataclass(frozen=True)
class LatticeForest:
    """A hierarchy together with one sampled parent map per consecutive level pair.

    ``parents[l]`` maps every member of the level-l grid to its parent in the
    level-(l-1) grid, for every level l above the coarsest.  ``seed`` records
    the integer seed used to draw the forest, as an int, when one was given.
    """
    hierarchy: GridHierarchy
    parents: Mapping[int, Mapping[int, int]]
    seed: object = None

    @property
    def space(self) -> FiniteMetricSpace:
        return self.hierarchy.space

    @property
    def delta(self) -> float:
        return self.hierarchy.delta

    @property
    def levels(self) -> tuple[int, ...]:
        return self.hierarchy.levels

    def ancestor(self, point: int, from_level: int, to_level: int) -> int:
        """Walk the parent chain from ``from_level`` down to ``to_level``."""
        return self.chain(point, from_level, to_level)[-1]

    def chain(self, point: int, from_level: int, to_level: int) -> list[int]:
        """Ancestors [point, parent, ...] from fine to coarse, inclusive.  Levels
        pass the hierarchy's rule; a point that is no integer is refused, as
        ``cube`` refuses such a center."""
        self.hierarchy._require_level(from_level)
        self.hierarchy._require_level(to_level)
        if to_level > from_level:
            raise InvalidParams("ancestor level must be at most the point's level")
        _require_integer("point", point)
        if point not in self.hierarchy.grid(from_level).members:
            raise UnknownCenter(f"point {point} is not in the level-{from_level} grid")
        return [column[0] for column in self._walk([point], from_level, to_level)]

    def _walk(self, points: Sequence[int], from_level: int, to_level: int) -> list[list[int]]:
        """The package's one ancestor walker: the columns [points, parents,
        ...] from ``from_level`` down to ``to_level``, inclusive, each the one
        before it mapped through its level's parent map.  The arguments are
        not checked; ``chain`` checks them for a single point."""
        columns = [list(points)]
        for lev in range(from_level, to_level, -1):
            columns.append(list(map(self.parents[lev].__getitem__, columns[-1])))
        return columns

    @cached_property
    def cube_table(self) -> dict[int, tuple[dict[int, int], np.ndarray]]:
        """Level -> (rows, held): ``rows`` maps each center, in ascending order,
        to its row of ``held``, a read-only boolean cube-by-point matrix; built
        on first use by ``_cube_tables``, as the one-forest case of a stack."""
        return _cube_tables([self])[0]

    def _level_table(self, level: int) -> tuple[dict[int, int], np.ndarray]:
        """``cube_table[level]``, once the level passes the hierarchy's rule."""
        self.hierarchy._require_level(level)
        return self.cube_table[level]

    def cube(self, level: int, center: int) -> Cube:
        """The cube of one grid point at one level.  A level or center that is
        no integer is refused: 1.0 or True would find a row of the table."""
        rows, held = self._level_table(level)
        _require_integer("center", center)
        if center not in rows:
            raise UnknownCenter(f"no cube centered at {center} at level {level}")
        return Cube(center=int(center), level=level, scale=self.hierarchy.scale(level),
                    members=frozenset(np.flatnonzero(held[rows[center]]).tolist()))


def _balls(space: FiniteMetricSpace, centers, scale: float) -> np.ndarray:
    """The boolean center-by-point matrix of the balls B(y, scale/100) of the
    centers, in the given order: rows of the space's ball matrix, so that a
    stack of many centers gathers booleans, not distances."""
    return (space.d < scale / BALL_DIVISOR)[centers]


def _cube_tables(forests: Sequence[LatticeForest]) -> list[dict]:
    """The cube tables of a stack of forests on one space, with one delta and
    one set of levels, in order: each forest's ``cube_table``, built here for
    every forest that has none yet, so that no table is built twice.

    The stack is built one level at a time, finest first, as cube(y, k) =
    B(y, scale(k)/100) united with cube(c, k+1) over the children c of y: one
    gather of the ball rows of every forest's centers, forests in order and
    centers ascending within a forest, the parent row of every finer row
    from one ``searchsorted`` over the keys forest index * n + center, which
    that order sorts, and one ``_unite_children`` call.  Each forest's
    ``held`` is a read-only view of its rows of the level's stacked matrix.
    A parent outside its coarser grid is refused with UnknownCenter."""
    todo = list({id(f): f for f in forests if "cube_table" not in f.__dict__}.values())
    if todo:
        h = todo[0].hierarchy
        n, tables, finer = len(h.space), [{} for _ in todo], None
        for lev in reversed(h.levels):
            grids = [sorted(f.hierarchy.grid(lev).members) for f in todo]
            sizes = [len(g) for g in grids]
            centers = np.fromiter(itertools.chain.from_iterable(grids), np.intp, sum(sizes))
            offset = np.repeat(np.arange(len(todo)) * n, sizes)  # the forest index * n of each row
            keys, held = offset + centers, _balls(h.space, centers, h.scale(lev))
            if finer is not None:
                finer_grids, finer_offset, finer_held = finer
                parents = np.fromiter(itertools.chain.from_iterable(
                    map(f.parents[lev + 1].__getitem__, g) for f, g in zip(todo, finer_grids)),
                    np.intp, len(finer_offset))
                parent_keys = finer_offset + parents
                parent_rows = np.searchsorted(keys, parent_keys)
                if not np.array_equal(keys.take(parent_rows, mode="clip"), parent_keys):
                    raise UnknownCenter(f"a level-{lev + 1} parent is not in the level-{lev} grid")
                held = _unite_children(held, parent_rows, finer_held)
            if held.base is not None:  # a view of a writable array could be made writable
                held.base.setflags(write=False)
            held.setflags(write=False)
            ends = itertools.accumulate(sizes)
            for table, g, end in zip(tables, grids, ends):
                table[lev] = (dict(zip(g, range(len(g)))), held[end - len(g):end])
            finer = grids, offset, held
        for f, table in zip(todo, tables):
            f.__dict__["cube_table"] = table
    return [f.cube_table for f in forests]


def _unite_children(balls: np.ndarray, parent_rows, finer_held: np.ndarray) -> np.ndarray:
    """The cube rule between levels k+1 and k: cube(y, k) = B(y, scale(k)/100)
    united with cube(c, k+1) over the children c of y.  ``balls`` is the
    level-k ball matrix, center by point, ``finer_held`` the level-(k+1) cube
    matrix, and ``parent_rows`` gives, per row of ``finer_held``, the row of
    its parent; leading axes on ``parent_rows`` hold one parent map each, and
    the result one cube matrix per map.  Returns a new boolean matrix: a copy
    of ``balls`` per map, set True at (parent row, point) wherever a child's
    row of ``finer_held`` holds the point."""
    maps = np.asarray(parent_rows)
    flat = maps.reshape(-1, maps.shape[-1])
    held = balls[None].repeat(len(flat), axis=0)
    # the (child, point) entries; a 1-D nonzero is several times faster than 2-D
    child, point = np.divmod(finer_held.ravel().nonzero()[0], finer_held.shape[-1])
    held[np.arange(len(flat))[:, None], flat[:, child], point] = True
    return held.reshape(maps.shape[:-1] + balls.shape)


def _link_radii(d: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """The link rule's two closed radii on distances ``d`` to the points of
    a coarse grid of scale ``scale``: boolean matrices of ``d``'s shape, the
    distances within a quarter of the scale, which capture, and those within
    3 * scale, in reach."""
    return d <= scale / CAPTURE_DIVISOR, d <= CANDIDATE_FACTOR * scale


def _link_rule(captured: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The link rule on a stack of children, from two boolean child-by-point
    matrices of each child's coarse points within the ``_link_radii``:
    the options, the captured points of a child that has any, else every
    point in its reach."""
    return np.where(captured.any(axis=1, keepdims=True), captured, reach)


def _link_pair(space: FiniteMetricSpace, children: Sequence[int],
               coarse: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The link rule of one level pair: the coarse grid's sorted points
    ``cols``, and the captured points and the ``_link_rule`` options on the
    children's distance rows to ``cols``, children in the given order, so a
    column is a ball row."""
    cols = np.array(sorted(coarse.members), dtype=np.intp)
    captured, reach = _link_radii(space.d.take(children, 0).take(cols, 1), coarse.scale)
    return cols, captured, _link_rule(captured, reach)


def _link_state(hierarchy: GridHierarchy) -> tuple:
    """The stacked state of a hierarchy's parents (see ``grids._grid_steps``),
    which ``_links`` resolves for a stack of hierarchies at once."""
    return _links, hierarchy


def _links(hierarchies: Sequence[GridHierarchy]) -> list[tuple]:
    """The states of the parents of a stack of hierarchies on one space, in
    order: a forest's draw state (see ``grids._grid_steps``), whose one
    ``integers`` call draws the pick of every child with two options or
    more, in the forest's order, coarse pairs first and children ascending
    within a pair, or (None, forest) when no child has two; a pick indexes
    the child's options, ascending.

    Every refusal comes before any draw, and is that of the first hierarchy
    of the stack that refuses: a coarse grid that is no subset of its
    children, else its first child, in its order, captured twice or with no
    point in reach.

    The rows, one per child of each level pair, are made one coarse scale
    at a time across the stack, and read boolean rows of the scale's two
    ``_link_radii`` matrices of the whole space, within their pair's coarse
    grid.  A child that is a coarse point is its own one option, and its
    capture row is read only where it captures a point other than itself,
    for a second captured point; ``_link_rule`` runs on the other children
    alone.  One stable argsort by pair returns the rows to forest order."""
    space = hierarchies[0].space
    n = len(space)
    pairs = [(e, h.grid(lev), h.grid(lev - 1))
             for e, h in enumerate(hierarchies) for lev in h.levels[1:]]
    scales: dict[float, list[int]] = {}
    for i, (_, _, coarse) in enumerate(pairs):
        scales.setdefault(coarse.scale, []).append(i)
    ranked = [i for ids in scales.values() for i in ids]  # the pairs, one scale after another
    sizes = [len(pairs[i][1].members) for i in ranked]
    # each child's key, its pair's rank * n + the child, sorted: pairs by rank, children ascending
    keys = np.fromiter(itertools.chain.from_iterable(pairs[i][1].members for i in ranked),
                       np.intp, sum(sizes))
    keys += np.repeat(np.arange(len(ranked)) * n, sizes)
    keys.sort()
    rank, child = np.divmod(keys, n)
    pair = np.array(ranked, dtype=np.intp)[rank]
    coarse_sizes = [len(coarse.members) for _, _, coarse in pairs]
    grid = np.zeros((len(pairs), n), dtype=bool)
    grid[np.repeat(np.arange(len(pairs)), coarse_sizes), np.fromiter(
        itertools.chain.from_iterable(coarse.members for _, _, coarse in pairs), np.intp)] = True
    own = grid[pair, child]  # the children that are coarse points
    unnested = np.flatnonzero(np.bincount(pair[own], minlength=len(pairs)) < coarse_sizes)
    reads, captures, reaches, lo = [own[:0]], [grid[:0]], [grid[:0]], 0
    for scale, ids in scales.items():
        hi = lo + sum(len(pairs[i][1].members) for i in ids)
        capture, reach = _link_radii(space.d, scale)
        kids, outside = child[lo:hi], ~own[lo:hi]
        read = outside | (capture.sum(axis=1)[kids] > 1)
        reads.append(read)
        captures.append(capture[kids[read]])
        reaches.append(reach[kids[outside]])
        lo = hi
    rows, free = np.flatnonzero(np.concatenate(reads)), np.flatnonzero(~own)
    captured = np.concatenate(captures) & grid[pair[rows]]
    options = _link_rule(captured[~own[rows]], np.concatenate(reaches) & grid[pair[free]])
    counts = options.sum(axis=1)
    count = own.astype(np.intp)
    count[free] = counts
    count[rows[captured.sum(axis=1) > 1]] = -1  # a child captured twice
    flat = options.ravel().nonzero()[0] % n
    start = len(flat) + np.arange(len(child))  # a coarse child's option: itself, in ``cols``
    start[free] = counts.cumsum() - counts
    cols = np.concatenate([flat, child])
    order = pair.argsort(kind="stable")
    pair, child, count, start = pair[order], child[order], count[order], start[order]
    failing = np.flatnonzero(count < 1)
    # a hierarchy's unnested pair refuses before its children do
    if unnested.size and (not failing.size or pairs[unnested[0]][0] <= pairs[pair[failing[0]]][0]):
        raise InvalidParams("parent grid must be a subset of the child grid")
    if failing.size:
        first = failing[0]
        scale = pairs[pair[first]][2].scale
        if count[first] < 0:
            # impossible for a valid grid: two such parents would be within scale/2
            raise InvalidParams(
                f"grid at scale {scale} has two points within {scale / CAPTURE_DIVISOR} "
                f"of child {child[first]}")
        raise NoCandidateParent(
            f"child {child[first]} has no parent within {CANDIDATE_FACTOR * scale}")
    ends = list(itertools.accumulate(sum(len(h.grid(lev).members) for lev in h.levels[1:])
                                     for h in hierarchies))
    children = child.tolist()
    return [_forest_draw(h, children[lo:hi], cols, start[lo:hi], count[lo:hi])
            for h, lo, hi in zip(hierarchies, [0] + ends, ends)]


def _forest_draw(hierarchy: GridHierarchy, kids: list[int], cols: np.ndarray,
                 start: np.ndarray, count: np.ndarray) -> tuple:
    """The draw state of one forest of ``_links``, from its rows in its
    order: ``kids``, the children, ``start``, each child's first option in
    ``cols``, and ``count``, its options."""
    drawn = count > 1

    def then(picks):
        chosen = start.copy()
        chosen[drawn] += np.array(picks, dtype=np.intp)
        links, children = iter(cols[chosen].tolist()), iter(kids)
        # zip stops at the end of a pair's children
        return None, LatticeForest(hierarchy=hierarchy, parents={
            lev: dict(zip(itertools.islice(children, len(hierarchy.grid(lev).members)), links))
            for lev in hierarchy.levels[1:]})

    bounds = tuple(count[drawn].tolist())
    return (bounds, then) if bounds else then(())


def assign_parents(space: FiniteMetricSpace, children: Grid, parents: Grid,
                   rng: np.random.Generator | int | None) -> dict[int, int]:
    """Link every child to one parent; random choices are uniform and independent.

    The one-pair case of ``build_forest``'s stacked pass: children are
    processed in index order, the first with two captured points or none in
    reach raises before any draw, and one draw call covers them all (none
    when no child has more than one option), so the map is deterministic for
    a fixed generator state.
    """
    rng = _generator(rng)
    # the pair as a hierarchy of two levels; the linker reads each grid's own scale, no delta
    pair = GridHierarchy(space=space, delta=math.nan, levels=(0, 1),
                         grids={0: parents, 1: children})
    return _drive(_link_state(pair), rng).parents[1]


def build_forest(hierarchy: GridHierarchy,
                 rng: np.random.Generator | int | None) -> LatticeForest:
    """Assign parents between every consecutive pair of levels in one stacked
    pass, coarse pairs first, the one-trial driver of ``_links``: the
    parents and the generator's state after it are those of
    ``assign_parents`` called level by level, coarse to fine, but with one
    draw call per forest, and none when no child has two options.  Every
    refusal comes before any draw and leaves the generator's state as it
    was: a bool ``rng``, a coarse grid that is no subset of the finer one,
    and the first child, in stack order, captured twice or with no
    candidate, with ``assign_parents``'s exception type and message."""
    seed = _integer(rng)
    rng = _generator(rng)
    return replace(_drive(_link_state(hierarchy), rng), seed=seed)


def build_cubes(forest: LatticeForest, level: int) -> list[Cube]:
    """One cube per grid point of the level, sorted by center.

    Each cube is read from its row of the forest's cube table, which is built
    once, on first use, for every level, from the finest up: cube(y, k) =
    B(y, scale(k)/100) united with the level-(k+1) cubes of y's children."""
    return [forest.cube(level, y) for y in forest._level_table(level)[0]]


def tilde_cube(forest: LatticeForest, level: int, center: int) -> TildeCube:
    """The points no other cube of the level holds (closures are trivial here):
    those whose cover count in the level's cube table is 0 once the center's
    own row is subtracted.  Level and center are checked by ``forest.cube``."""
    cube = forest.cube(level, center)
    rows, held = forest.cube_table[level]
    others = held.sum(axis=0) - held[rows[cube.center]]
    return TildeCube(center=cube.center, level=cube.level,
                     members=frozenset(np.flatnonzero(others == 0).tolist()))


# --- covering and structural checks -------------------------------------------


@dataclass(frozen=True)
class GridCoverReport:
    level: int
    max_distance: float
    bound: float            # asserted: 3 * scale
    sharp_bound: float      # scale / (1 - delta), from the telescoping argument
    sharp_ok: bool


def check_grid_cover(hierarchy: GridHierarchy, level: int) -> GridCoverReport:
    """Every point must lie within 3 * scale (closed) of the level's grid."""
    hierarchy._require_level(level)
    space = hierarchy.space
    members = sorted(hierarchy.grid(level).members)
    dist = space.d[:, members].min(axis=1)
    worst = int(dist.argmax())
    scale = hierarchy.scale(level)
    bound = COVER_FACTOR * scale
    if dist[worst] > bound:
        raise CoverViolation(
            f"point {worst} is {dist[worst]} from the level-{level} grid "
            f"(> {bound})", witness=worst)
    sharp = scale / (1.0 - hierarchy.delta)
    return GridCoverReport(level=level, max_distance=float(dist[worst]),
                           bound=bound, sharp_bound=sharp,
                           sharp_ok=bool(dist[worst] <= sharp))


@dataclass(frozen=True)
class CubeCoverReport:
    level: int
    multi_covered: tuple[int, ...]


def check_cube_cover(forest: LatticeForest, level: int) -> CubeCoverReport:
    """Every point must belong to at least one cube of the level."""
    cover = forest._level_table(level)[1].sum(axis=0)
    missing = np.flatnonzero(cover == 0).tolist()
    if missing:
        raise CoverViolation(
            f"point {missing[0]} is in no level-{level} cube", witness=missing[0])
    multi = tuple(np.flatnonzero(cover > 1).tolist())
    return CubeCoverReport(level=level, multi_covered=multi)


@dataclass
class ForestInvariantReport:
    violations: list[str] = field(default_factory=list)
    max_ancestor_ratio: float = 0.0   # dist(z, ancestor) / scale(ancestor level)
    max_diameter_ratio: float = 0.0   # cube diameter / scale

    @property
    def ok(self) -> bool:
        return not self.violations


def check_forest_invariants(forest: LatticeForest) -> ForestInvariantReport:
    """Parent uniqueness and the link rule, ancestor proximity, each cube
    against its definition (the union of its descendants' balls), and
    diameter bounds.

    Each rule is tested for a whole level at once, by array masks, and only
    what a mask flags is visited to be reported: per level pair, the
    children captured twice, with no parent, with a parent outside the
    coarse grid or with one that is not an option; per level, the (point,
    ancestor) pairs past the ancestor bound, from one ``_walk`` of the
    level's points; and per level, the cubes that differ from that union or
    hold two or more points.  Violations are listed level by level, each
    level's in the order of its children or centers."""
    h = forest.hierarchy
    space = h.space
    rep = ForestInvariantReport()

    # no child may see two coarser points within the capture radius, and
    # every child must have a parent, and one of its link-rule options
    broken = False
    for lev in h.levels[1:]:
        children = sorted(h.grid(lev).members)
        links = forest.parents.get(lev, {})
        cols, captured, options = _link_pair(space, children, h.grid(lev - 1))
        twice = captured.sum(axis=1) > 1
        # -1, no column, stands for a missing parent
        parent = np.fromiter(map(links.get, children, itertools.repeat(-1)), np.intp,
                             len(children))
        inside = np.isin(parent, cols)
        ok = inside.copy()  # and the parent is one of the child's options
        ok[inside] = options[inside, np.searchsorted(cols, parent[inside])]
        for i in np.flatnonzero(twice | ~ok).tolist():
            child = children[i]
            if twice[i]:
                rep.violations.append(f"child {child} at level {lev} captured by "
                                      f"{cols[captured[i]].tolist()}")
            if child not in links:
                broken = True
                rep.violations.append(f"child {child} at level {lev} has no parent")
            elif not inside[i]:
                broken = True
                rep.violations.append(f"child {child} at level {lev} has parent "
                                      f"{links[child]}, outside the level-{lev - 1} grid")
            elif not ok[i]:
                rep.violations.append(f"child {child} at level {lev} has parent "
                                      f"{links[child]}, not one of its options "
                                      f"{cols[options[i]].tolist()}")
    if broken:
        return rep  # the walk and the cube table index every link

    # each point's ancestors down to the coarsest level, one walk per level:
    # every descendant stays within 10x its ancestor's scale, tested for all
    # of a level's (point, ancestor) pairs at once, and its ball goes into
    # the ancestor's row of that level's union of descendant balls, which
    # each cube must equal
    unions = {k: np.zeros_like(forest.cube_table[k][1]) for k in h.levels}
    for lev in h.levels:
        points = sorted(h.grid(lev).members)
        balls = _balls(space, points, h.scale(lev))
        walk = np.array(forest._walk(points, lev, h.levels[0]))  # a row per level
        coarser = range(lev, h.levels[0] - 1, -1)  # the level of each walk row
        scales = np.array([h.scale(k) for k in coarser[1:]])[:, None]
        dist = space.d[walk[0], walk[1:]]
        rep.max_ancestor_ratio = float((dist / scales).max(initial=rep.max_ancestor_ratio))
        for j, i in zip(*(dist > ANCESTOR_FACTOR * scales).nonzero()):
            rep.violations.append(f"descendant {points[i]} (level {lev}) is "
                                  f"{dist[j, i].item()} from ancestor "
                                  f"{walk[j + 1, i].item()} (level {coarser[j + 1]})")
        for k, ancestors in zip(coarser, walk.tolist()):
            rows = forest.cube_table[k][0]
            unions[k] = _unite_children(unions[k], list(map(rows.__getitem__, ancestors)),
                                        balls)

    # each cube is that union; diameters stay bounded
    for k in h.levels:
        rows, held = forest.cube_table[k]
        scale = h.scale(k)
        centers = list(rows)
        differs = (held != unions[k]).any(axis=1)
        wide = held.sum(axis=1) > 1  # a one-point cube has diameter 0
        for i in np.flatnonzero(differs | wide).tolist():
            if differs[i]:
                rep.violations.append(f"cube {centers[i]}@{k} differs from the "
                                      f"union of its descendants' balls")
            if wide[i]:
                idx = np.flatnonzero(held[i])
                diam = float(space.d[np.ix_(idx, idx)].max())
                rep.max_diameter_ratio = max(rep.max_diameter_ratio, diam / scale)
                if diam > DIAMETER_FACTOR * scale:
                    rep.violations.append(
                        f"cube {centers[i]}@{k} has diameter {diam} "
                        f"> {DIAMETER_FACTOR} * {scale}")
    return rep


# --- chain separation -----------------------------------------------------------

def _rival_depth(forest: LatticeForest, level: int) -> np.ndarray:
    """Per point, the least distance to the union of the level's other cubes, over the
    cubes that hold it; +inf if none has a rival.  The cover count decides: a point two
    cubes hold is its own rival, and a point one cube holds sees what the others hold."""
    _, held = forest.cube_table[level]
    cover = held.sum(axis=0)
    rival = cover - held[held.argmax(axis=0)] > 0
    depth = np.where(rival, forest.space.d, np.inf).min(axis=1)
    depth[cover == 0] = np.inf
    return depth


def _chain_violations(forest: LatticeForest, chain: Sequence[int],
                      top_level: int) -> list[tuple[int, int]]:
    """The (finer, coarser) point pairs of a chain from ``top_level`` down that
    lie closer than scale(coarser level) / 100, in order of the coarser point."""
    d = forest.space.d
    out = []
    for j_off, coarser in enumerate(chain):
        threshold = forest.hierarchy.scale(top_level - j_off) / BALL_DIVISOR
        out.extend((finer, coarser) for finer in chain[:j_off]
                   if d[finer, coarser] < threshold)
    return out


def _widest_eps(delta: float, m: int) -> float:
    """The widest layer width eps that the closed rule delta**m >= 100 * eps
    admits for a chain of span m: delta**m / 100, or the float below it where
    100 times the quotient rounds above delta**m."""
    eps = delta ** m / BALL_DIVISOR
    return eps if delta ** m >= BALL_DIVISOR * eps else math.nextafter(eps, 0.0)


@dataclass
class ChainScanReport:
    verified: int = 0
    vacuous: int = 0
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def scan_chain_separation(forest: LatticeForest) -> ChainScanReport:
    """Exhaustively test every chain whose boundary hypotheses can be met.

    The hypotheses: the scale ratio delta is at most 1/1000, and, for a base
    level k and span m >= 1, a layer width eps with delta**m >= 100 * eps.
    The widest such eps is used (``_widest_eps``); a point activates the
    hypotheses exactly when some rival cube at level k comes strictly within
    eps * scale(k) of it.  Each level-(k+m) cube holding such a point gives
    one verified chain down to level k, and each pair (z_i at level i, z_j at
    level j < i) of it closer than scale(j) / 100 one violation.
    """
    h = forest.hierarchy
    rep = ChainScanReport()
    if h.delta > MAX_CHAIN_DELTA:
        return rep  # hypotheses are never met at this scale ratio
    for base_level in h.levels:
        depth = _rival_depth(forest, base_level)
        for m in range(1, h.finest_level - base_level + 1):
            top = base_level + m
            near = depth < _widest_eps(h.delta, m) * h.scale(base_level)
            rep.vacuous += int((~near).sum())
            rows, held = forest.cube_table[top]
            centers = list(rows)
            # each near point x with each top cube that holds it, x first
            hit, row = held[:, near].T.nonzero()
            walk = forest._walk([centers[r] for r in row.tolist()], top, base_level)
            rep.verified += len(row)
            for x, chain in zip(np.flatnonzero(near)[hit].tolist(), zip(*walk)):
                rep.violations.extend(
                    (x, base_level, m, finer, coarser)
                    for finer, coarser in _chain_violations(forest, list(chain), top))
    return rep


# --- exact enumeration of the whole random construction -------------------------

def _uniform_law(space: FiniteMetricSpace, finer: Grid, scale: float,
                 limit: int) -> list[tuple[Grid, Fraction]]:
    """The construction's grid law: every maximal ``scale``-separated subset
    of the finer grid, each with the same probability."""
    options = enumerate_maximal_separated(space, sorted(finer.members), scale, limit=limit)
    return [(grid, Fraction(1, len(options))) for grid in options]


@dataclass(frozen=True)
class _LevelPair:
    """The link tables of one level pair on a grid path: the finer level, its
    sorted children ``kids``, ``cols``, the coarse grid's sorted points, the
    child-by-``cols`` ``options`` of ``_link_pair``, and ``count``, the number
    of parent maps as a Python int.  ``maps``, their table, is built by
    ``_parent_maps`` on first read, so a caller can refuse too many first."""
    level: int
    kids: list[int]
    cols: np.ndarray
    options: np.ndarray
    count: int

    @cached_property
    def maps(self) -> np.ndarray:
        return _parent_maps(self.options)


def _grid_paths(space: FiniteMetricSpace, delta: float, coarsest_level: int,
                limit: int, step, state, law=_uniform_law):
    """The construction's one exact recursion, depth first in its own order:
    from the finest level, whose grid is the whole space, to the coarsest,
    each grid of a level is drawn by ``law`` from the next finer grid.  At
    each (grid path, coarse grid) node the level pair's link tables are built
    once, as a ``_LevelPair``, and ``step(state, pair)`` gives the state below
    the node, or None to prune every outcome below it.  Yields (hierarchy,
    prob, state) for each grid outcome reached, finer grids' choices varying
    slowest; only the current path's tables are held."""
    limit = _require_limit(limit)
    m = finest_level(space, delta, coarsest_level)
    levels = tuple(range(coarsest_level, m + 1))

    def descend(k: int, grids: dict[int, Grid], prob: Fraction, state):
        if k < coarsest_level:
            yield GridHierarchy(space=space, delta=delta, levels=levels, grids=grids), prob, state
            return
        kids = sorted(grids[k + 1].members)
        for grid, p in law(space, grids[k + 1], delta ** k, limit):
            cols, _, options = _link_pair(space, kids, grid)
            count = math.prod(options.sum(axis=1).tolist())
            below = step(state, _LevelPair(k + 1, kids, cols, options, count))
            if below is not None:
                yield from descend(k - 1, {**grids, k: grid}, prob * p, below)

    full = Grid(scale=delta ** m, members=frozenset(range(len(space))))
    yield from descend(m - 1, {m: full}, Fraction(1), state)


def _parent_maps(options: np.ndarray) -> np.ndarray:
    """The parent maps of one level, from its child-by-``cols`` ``options``
    matrix: one int64 row per choice of every child's option, the last
    child's choice varying fastest, each entry the column of the chosen
    option.  A stable sort puts each child's option columns first, in
    ascending order; the rows of the ``np.indices`` grid of the option counts
    pick from them in one gather."""
    sizes = options.sum(axis=1).tolist()
    padded = (~options).argsort(axis=1, kind="stable")
    choice = np.indices(sizes).reshape(len(sizes), -1)
    return padded[np.arange(len(sizes))[:, None], choice].T.copy()


def enumerate_forest_outcomes(space: FiniteMetricSpace, delta: float,
                              coarsest_level: int,
                              limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                              ) -> list[tuple[LatticeForest, Fraction]]:
    """All (forest, probability) outcomes of the construction on a small space.

    Grid choices are uniform over the maximal-set family at each level
    (conditioned on the finer levels), and parent choices are uniform over the
    candidate lists; probabilities are exact rationals and sum to one.  Grid
    outcomes come from ``_grid_paths``; the forests of one, all of equal
    weight, are the product of its levels' parent maps, coarse pair first, so
    the finest level's map varies fastest.  More than ``MAX_OUTCOMES`` forests
    in all raise TooLargeForExhaustive before any forest is built, and before
    the maps of the level pair that passes the cap are.
    """
    outcomes, total = [], 0

    def step(state, pair: _LevelPair):
        count, path = state
        count *= pair.count  # each grid outcome below holds at least this many forests
        if total + count > MAX_OUTCOMES:
            raise TooLargeForExhaustive("too many parent outcomes")
        return count, (pair, *path)

    # every grid outcome is listed before any forest is built: forests built
    # between the recursion's steps left the heap fragmented, and raised the
    # peak RSS of enumerating the 40 criterion-1 spaces of at most 9 points
    # from 47 to 54 MB
    for h, prob, (count, path) in _grid_paths(space, delta, coarsest_level, limit, step, (1, ())):
        total += count
        outcomes.append((h, prob / count, path))
    results: list[tuple[LatticeForest, Fraction]] = []
    for hierarchy, weight, path in outcomes:
        for choice in itertools.product(*[pair.cols[pair.maps].tolist() for pair in path]):
            parents = {p.level: dict(zip(p.kids, row)) for p, row in zip(path, choice)}
            results.append((LatticeForest(hierarchy=hierarchy, parents=parents), weight))
    return results


# --- serialization --------------------------------------------------------------

def forest_to_json(forest: LatticeForest) -> dict:
    space = forest.space
    edges = []
    for lev in forest.levels[1:]:
        for child, parent in sorted(forest.parents[lev].items()):
            edges.append({"level": lev, "child": space.name(child),
                          "parent": space.name(parent)})
    return {
        "delta": forest.delta,
        "levels": list(forest.levels),
        "edges": edges,
        "seed": forest.seed,
    }
