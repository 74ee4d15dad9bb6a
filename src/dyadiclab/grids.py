"""Maximal separated subsets (k-grids) and nested random grid hierarchies.

A k-grid of a base set is a maximal subset whose points are pairwise at
distance >= k; equivalently a maximal independent set of the conflict graph
with an edge between any two base points at distance < k.  Enumeration and
uniform sampling factor over connected components of that graph: a subset is
maximal exactly when its restriction to every component is, so the family of
grids is the product of the per-component families and per-component uniform
choices compose to a uniform choice overall.  The conflict graph of a (base,
scale) pair is one comparison on the base-by-base distance slice, read by
position in the sorted base, so components come in order of least point.

The component families of a (base, scale) pair are a function of the space
alone, and so is the family of one component: it depends only on the
component's points and the scale, whatever base holds it.  So they are
computed once per space, in two tables of the space's ``_FAMILIES`` entry,
which is weakly keyed by the space, so it dies with it, and is never pickled
with it into a worker.  The first table keeps the first ``_FAMILY_BUDGET``
(base, scale, cap) keys a space meets; on a miss there the conflict graph and
its components are built, and each component of two or more points takes its
family from the second table, keyed by (component, scale), which keeps the
first ``_PIECE_BUDGET`` such keys.  Bron-Kerbosch runs only on a miss in both,
and a one-point component is its own family, with no run and no entry.
Sampling, enumeration, the exact forest walk and the coloring enumerator all
read through it.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParams, TooLargeForExhaustive
from .metric import FiniteMetricSpace, _generator, _require_integer

__all__ = [
    "Grid",
    "GridHierarchy",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "MODES",
    "is_maximal_separated",
    "enumerate_maximal_separated",
    "sample_maximal_separated",
    "build_nested_grids",
    "finest_level",
    "hierarchy_to_json",
]

DEFAULT_EXHAUSTIVE_LIMIT = 20
# the most maximal sets one component's family may hold; a component of n points has at most
# 3**(n/3) (Moon-Moser), 1458 at the default limit of 20, so only a larger --limit meets it
MAX_FAMILY = 5000
MAX_LEVELS = 1000  # the most levels a hierarchy may have; finest_level refuses more
MODES = ("exhaustive_uniform", "greedy_permutation")  # sampling modes, default first
_FAMILY_BUDGET = 256  # (base, scale, cap) keys one space keeps in _FAMILIES; later ones only compute
_PIECE_BUDGET = 4096  # (component, scale) keys one space keeps; later ones run Bron-Kerbosch each time
_FAMILIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # space -> _FamilyMemo


@dataclass(frozen=True)
class Grid:
    """A maximal `scale`-separated subset of some base point set."""
    scale: float
    members: frozenset[int]


@dataclass(frozen=True)
class GridHierarchy:
    """Nested grids G_coarsest <= ... <= G_finest with scale delta**level.

    ``levels`` is ascending, so coarser grids come first and each grid is a
    maximal subset of the next (finer) one.  The finest grid is the whole
    space.
    """
    space: FiniteMetricSpace
    delta: float
    levels: tuple[int, ...]
    grids: Mapping[int, Grid]

    @property
    def finest_level(self) -> int:
        return self.levels[-1]

    def grid(self, level: int) -> Grid:
        return self.grids[level]

    def _require_level(self, level: int) -> None:
        """Raise InvalidParams unless the level is one of the hierarchy's: 2.0
        or True would compare equal to a level."""
        _require_integer("level", level)  # levels may be negative: no lower bound
        if level not in self.levels:
            raise InvalidParams(f"level {level} not present in the hierarchy")

    def scale(self, level: int) -> float:
        return self.delta ** level


def _components(adj: list[list[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(len(adj)):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def _component_mis(adj: list[list[int]], comp: list[int]) -> list[frozenset[int]]:
    """All maximal independent sets of one component, in canonical order.

    Bron-Kerbosch with pivoting, run on the complement graph (maximal
    independent sets are exactly the maximal cliques of the complement).
    Raises TooLargeForExhaustive as it emits set ``MAX_FAMILY`` + 1.
    """
    comp_set = set(comp)
    # complement adjacency: compatible pairs are those at distance >= k; at
    # k <= 0 the diagonal is no conflict, so each vertex is removed by hand
    compat = {u: comp_set - set(adj[u]) - {u} for u in comp}
    out: list[frozenset[int]] = []

    def bk(chosen: set[int], cand: set[int], excl: set[int]) -> None:
        if not cand and not excl:
            if len(out) == MAX_FAMILY:
                raise TooLargeForExhaustive(
                    f"a component of {len(comp)} points has more than {MAX_FAMILY} maximal sets")
            out.append(frozenset(chosen))
            return
        pivot = max(cand | excl, key=lambda u: len(compat[u] & cand))
        for v in sorted(cand - compat[pivot]):
            bk(chosen | {v}, cand & compat[v], excl & compat[v])
            cand = cand - {v}
            excl = excl | {v}

    bk(set(), set(comp), set())
    return sorted(out, key=sorted)


@dataclass
class _FamilyMemo:
    """One space's ``_FAMILIES`` entry: the families per (base, scale, cap)
    key, and the family per (component points, scale) key."""
    bases: dict = field(default_factory=dict)
    pieces: dict = field(default_factory=dict)


def _component_families(space, base, k, limit) -> tuple[tuple[frozenset[int], ...], ...]:
    """Per-component maximal-set families; each component must fit the cap,
    checked for all of them before any family is looked up.  The families of
    a base are kept in the space's ``_FAMILIES`` entry while it has room, and
    so is the family of each component of two or more points, for any base
    that holds it at the same scale.  Bron-Kerbosch reads only the
    component's own edges, and positions in the base map to points in
    ascending order, so a family and its order are the same whichever base it
    was first met in."""
    base = tuple(sorted(base))
    memo = _FAMILIES.get(space)
    if memo is None:
        memo = _FAMILIES[space] = _FamilyMemo()
    key = (base, k, limit)
    families = memo.bases.get(key)
    if families is None:
        # the conflict graph by position in base: edges at distance < k
        adj = [row.nonzero()[0].tolist() for row in space.d.take(base, 0).take(base, 1) < k]
        comps = _components(adj)
        for comp in comps:
            if len(comp) > limit:
                raise TooLargeForExhaustive(
                    f"component of size {len(comp)} exceeds the cap {limit}")
        families = []
        for comp in comps:
            points = tuple(base[i] for i in comp)
            piece = (points, k)
            family = (frozenset(points),) if len(points) == 1 else memo.pieces.get(piece)
            if family is None:
                family = tuple(frozenset(base[i] for i in mis)
                               for mis in _component_mis(adj, comp))
                if len(memo.pieces) < _PIECE_BUDGET:
                    memo.pieces[piece] = family
            families.append(family)
        families = tuple(families)
        if len(memo.bases) < _FAMILY_BUDGET:
            memo.bases[key] = families
    return families


# --- operations ---------------------------------------------------------------

def _greedy_members(space: FiniteMetricSpace, order: list[int], k: float) -> frozenset[int]:
    """The points that the greedy scan of ``order`` admits: each point at
    distance >= k from every point admitted before it."""
    chosen: list[int] = []
    for p in order:
        if all(space.d[p, q] >= k for q in chosen):
            chosen.append(p)
    return frozenset(chosen)


def is_maximal_separated(space: FiniteMetricSpace, base: Sequence[int],
                         subset: Sequence[int], k: float) -> bool:
    """True iff the subset is pairwise >= k and no base point can be added."""
    _require_scale(k)
    base_set = {space.resolve(p) for p in base}
    sub = [space.resolve(p) for p in subset]
    if not set(sub) <= base_set:
        raise InvalidParams("subset must be contained in the base set")
    return _is_maximal(space, base_set, sub, k)


def _is_maximal(space: FiniteMetricSpace, base: set[int], sub: list[int],
                k: float) -> bool:
    """``is_maximal_separated`` on point indices, with ``sub`` inside ``base``."""
    for i, a in enumerate(sub):
        for b in sub[i + 1:]:
            if space.d[a, b] < k:
                return False
    for p in base - set(sub):
        if all(space.d[p, q] >= k for q in sub):
            return False
    return True


def enumerate_maximal_separated(space: FiniteMetricSpace, base: Sequence[int],
                                k: float, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> list[Grid]:
    """Complete duplicate-free list of maximal k-separated subsets of ``base``;
    a point repeated in ``base`` counts once."""
    _require_scale(k)
    limit = _require_limit(limit)
    base = sorted({space.resolve(p) for p in base})
    if len(base) > limit:
        raise TooLargeForExhaustive(f"|base|={len(base)} exceeds the cap {limit}")
    families = _component_families(space, base, k, limit)
    combos: list[frozenset[int]] = [frozenset()]
    for fam in families:
        combos = [acc | piece for acc in combos for piece in fam]
    combos.sort(key=sorted)
    return [Grid(scale=k, members=c) for c in combos]


def _require_mode(mode: str) -> None:
    """Raise InvalidParams unless the mode is one of ``MODES``."""
    if mode not in MODES:
        raise InvalidParams(f"unknown sampling mode {mode!r}")


def _require_limit(limit) -> int:
    """The exhaustive cap as an int, refused with InvalidParams unless it is
    an integer >= 1: a NaN cap would refuse no component."""
    return _require_integer("limit", limit, 1)


def _require_scale(k: float) -> None:
    """Raise InvalidParams if the scale is NaN: every distance comparison with
    it is false, so the grid functions would each answer differently."""
    if math.isnan(k):
        raise InvalidParams("the scale k must not be NaN")


def sample_maximal_separated(space: FiniteMetricSpace, base: Sequence[int], k: float,
                             rng: np.random.Generator,
                             mode: str = "exhaustive_uniform",
                             limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Grid:
    """Draw one maximal k-separated subset of ``base``; a point repeated in
    ``base`` counts once.

    exhaustive_uniform: exactly uniform over all maximal subsets, realized as
    an independent uniform choice per conflict-graph component (the family is
    the product of the component families), all drawn in one call, in
    component order.  The enumeration cap applies per component.

    greedy_permutation: greedy scan of a uniformly random order, drawn in one
    call as its Lehmer code: place j picks among the n - j points left.  Works
    for arbitrarily large bases but its distribution over maximal subsets is
    not uniform; probabilistic verdicts should use exhaustive_uniform.
    """
    _require_mode(mode)
    _require_scale(k)
    limit = _require_limit(limit)
    base = sorted({space.resolve(p) for p in base})
    return _sample_grid(space, base, k, rng, mode, limit)


def _sample_grid(space: FiniteMetricSpace, base: list[int], k: float,
                 rng: np.random.Generator, mode: str, limit: int) -> Grid:
    """``sample_maximal_separated`` on sorted point indices and a known mode."""
    if mode == "greedy_permutation":
        left = list(base)
        order = [left.pop(i) for i in rng.integers(np.arange(len(base), 0, -1)).tolist()]
        return Grid(scale=k, members=_greedy_members(space, order, k))
    families = _component_families(space, base, k, limit)
    members: set[int] = set()
    picks = rng.integers([len(fam) for fam in families]).tolist()
    for fam, pick in zip(families, picks):
        members.update(fam[pick])
    return Grid(scale=k, members=frozenset(members))


def _scale_or_inf(delta: float, level: int) -> float:
    """delta**level, or +inf where that overflows a float."""
    try:
        return delta ** level
    except OverflowError:
        return math.inf


def finest_level(space: FiniteMetricSpace, delta: float,
                 coarsest_level: int) -> int:
    """Smallest level M with delta**M below the min pairwise distance.

    At that scale the whole space is the unique maximal grid.  A singleton has
    no constraint and the hierarchy collapses to the coarsest level.  Every
    hierarchy, sampled or enumerated, is framed by this call, so it also
    refuses an empty space, a coarsest level that is no integer, one finer
    than M, and a hierarchy of more than ``MAX_LEVELS`` levels, before any is
    built.
    """
    if len(space) == 0:
        raise InvalidParams("space must be nonempty")
    if not 0 < delta < 1:
        raise InvalidParams("delta must lie in (0, 1)")
    _require_integer("level", coarsest_level)
    if _scale_or_inf(delta, coarsest_level) == math.inf:
        raise InvalidParams(f"the coarsest scale {delta}**{coarsest_level} overflows")
    md = space.min_distance
    if md == np.inf:
        return coarsest_level
    # log-based guess, corrected by exact comparison
    m = int(math.floor(math.log(md) / math.log(delta))) + 1
    while _scale_or_inf(delta, m) >= md:
        m += 1
    while _scale_or_inf(delta, m - 1) < md:
        m -= 1
    if coarsest_level > m:
        raise InvalidParams(
            f"coarsest level {coarsest_level} is finer than the finest level {m}")
    if m - coarsest_level + 1 > MAX_LEVELS:
        raise InvalidParams(
            f"levels {coarsest_level} to {m} make {m - coarsest_level + 1} levels, "
            f"more than the {MAX_LEVELS} a hierarchy may have")
    return m


def build_nested_grids(space: FiniteMetricSpace, delta: float, coarsest_level: int,
                       rng: np.random.Generator | int | None,
                       mode: str = "exhaustive_uniform",
                       limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                       freeze_above: int | None = None) -> GridHierarchy:
    """Sample a nested hierarchy of grids at scales delta**level.

    The finest level M makes the whole space the (unique) grid; every coarser
    grid is drawn inside the next finer one, independently per level, walking
    from fine to coarse.  ``freeze_above`` optionally pins all levels >= that
    index to the deterministic greedy grid in index order, leaving only the
    coarser choices random; it is an integer level or None.
    """
    _require_mode(mode)
    limit = _require_limit(limit)
    if freeze_above is not None:
        freeze_above = _require_integer("freeze_above", freeze_above)
    m = finest_level(space, delta, coarsest_level)
    rng = _generator(rng)
    levels = list(range(coarsest_level, m + 1))
    grids: dict[int, Grid] = {m: Grid(scale=delta ** m, members=frozenset(range(len(space))))}
    for k in range(m - 1, coarsest_level - 1, -1):
        base = sorted(grids[k + 1].members)
        scale = delta ** k
        if freeze_above is not None and k >= freeze_above:
            grids[k] = Grid(scale=scale, members=_greedy_members(space, base, scale))
        else:
            grids[k] = _sample_grid(space, base, scale, rng, mode, limit)
    return GridHierarchy(space=space, delta=delta, levels=tuple(levels), grids=grids)


# --- serialization --------------------------------------------------------------

def hierarchy_to_json(h: GridHierarchy) -> dict:
    return {
        "delta": h.delta,
        "levels": [{"level": k, "scale": h.grids[k].scale,
                    "members": [h.space.name(i) for i in sorted(h.grids[k].members)]}
                   for k in h.levels],
    }
