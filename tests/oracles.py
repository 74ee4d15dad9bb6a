"""Definition-level oracles shared by several test files.

An oracle states one rule of the construction directly, per point and in
plain Python, and reads only the distance matrix, the grids and the data
classes and error types of ``dyadiclab``, never the library code it checks.
"""
import itertools
from fractions import Fraction

import numpy as np

import dyadiclab as dl
from dyadiclab.errors import InvalidParams, NoCandidateParent, TooLargeForExhaustive
from dyadiclab.grids import Grid, GridHierarchy, enumerate_maximal_separated, finest_level
from dyadiclab.lattice import CANDIDATE_FACTOR, CAPTURE_DIVISOR


# the per-child option list and the sampler that the per-level link rule
# replaced, kept verbatim
def reference_parent_options(space: dl.FiniteMetricSpace, child: int,
                             parents: Grid) -> list[int]:
    """Possible parents of a child: the captured one, or all within reach."""
    scale = parents.scale
    members = sorted(parents.members)
    captured = [p for p in members if space.d[child, p] <= scale / CAPTURE_DIVISOR]
    if len(captured) > 1:
        # impossible for a valid grid: two such parents would be within scale/2
        raise InvalidParams(
            f"grid at scale {scale} has two points within {scale / CAPTURE_DIVISOR} "
            f"of child {child}")
    if captured:
        return captured
    cands = [p for p in members if space.d[child, p] <= CANDIDATE_FACTOR * scale]
    if not cands:
        raise NoCandidateParent(
            f"child {child} has no parent within {CANDIDATE_FACTOR * scale}")
    return cands


def reference_assign_parents(space: dl.FiniteMetricSpace, children: Grid, parents: Grid,
                             rng: np.random.Generator | int | None) -> dict[int, int]:
    """Link every child to one parent; random choices are uniform and independent.

    Children are processed in index order, consuming one draw per child that
    is not captured, so the map is deterministic for a fixed generator state.
    """
    if not parents.members <= children.members:
        raise InvalidParams("parent grid must be a subset of the child grid")
    rng = np.random.default_rng(rng)
    out: dict[int, int] = {}
    for child in sorted(children.members):
        options = reference_parent_options(space, child, parents)
        if len(options) == 1:
            out[child] = options[0]
        else:
            out[child] = options[int(rng.integers(len(options)))]
    return out


# the enumeration that the product of parent choices replaced, kept verbatim
# as its oracle: it extends partial parent maps one child at a time
def reference_enumerate_forest_outcomes(space: dl.FiniteMetricSpace, delta: float,
                                        coarsest_level: int,
                                        limit: int = 20,
                                        max_outcomes: int = 100_000,
                                        ) -> list[tuple[dl.LatticeForest, Fraction]]:
    """All (forest, probability) outcomes of the construction on a small space.

    Grid choices are uniform over the maximal-set family at each level
    (conditioned on the finer levels), and parent choices are uniform over the
    candidate lists; probabilities are exact rationals and sum to one.
    """
    m = finest_level(space, delta, coarsest_level)
    levels = tuple(range(coarsest_level, m + 1))
    full = Grid(scale=delta ** m, members=frozenset(range(len(space))))
    grid_outcomes: list[tuple[dict[int, Grid], Fraction]] = [({m: full}, Fraction(1))]
    for k in range(m - 1, coarsest_level - 1, -1):
        nxt = []
        for partial, prob in grid_outcomes:
            options = enumerate_maximal_separated(
                space, sorted(partial[k + 1].members), delta ** k, limit=limit)
            for g in options:
                grids = dict(partial)
                grids[k] = g
                nxt.append((grids, prob / len(options)))
        grid_outcomes = nxt
        if len(grid_outcomes) > max_outcomes:
            raise TooLargeForExhaustive("too many grid outcomes")

    results: list[tuple[dl.LatticeForest, Fraction]] = []
    for grids, prob in grid_outcomes:
        hierarchy = GridHierarchy(space=space, delta=delta, levels=levels, grids=grids)
        partial_parents: list[tuple[dict[int, dict[int, int]], Fraction]] = [({}, prob)]
        for lev in levels[1:]:
            children = sorted(grids[lev].members)
            per_child = [(c, reference_parent_options(space, c, grids[lev - 1]))
                         for c in children]
            nxt = []
            for pmap, p in partial_parents:
                combos: list[tuple[dict[int, int], Fraction]] = [({}, p)]
                for child, options in per_child:
                    combos = [
                        ({**cmap, child: opt}, cp / len(options))
                        for cmap, cp in combos for opt in options
                    ]
                    if (len(results) + len(combos) * len(partial_parents)
                            > max_outcomes):
                        raise TooLargeForExhaustive("too many parent outcomes")
                for cmap, cp in combos:
                    nxt.append(({**pmap, lev: cmap}, cp))
            partial_parents = nxt
        for pmap, p in partial_parents:
            results.append((dl.LatticeForest(hierarchy=hierarchy, parents=pmap), p))
    return results


def reference_parent_maps(options: np.ndarray) -> np.ndarray:
    """A level's parent maps as the ``itertools.product`` of each child's
    option columns, one row per map."""
    per_kid = [row.nonzero()[0].tolist() for row in options]
    return np.array(list(itertools.product(*per_kid)))
