"""Exhaustive red/green colorings at unit scale and the recoloring injection.

A coloring is proper when red points are pairwise at distance >= 1 and every
green point has a red point strictly within distance 1; the red set is then a
maximal 1-separated subset.  All probabilities here are exact rationals over
the complete enumeration; nothing in this module is sampled.

Every unit-distance test of the recoloring reads one table, built once per
universe by ``enumerate_proper_colorings``: ``balls[y]`` holds the points
strictly closer than 1 to y, the open unit ball of ``metric.ball``.  The
largest ball's size is d, the shadow of a set S is the union of the balls of
its points outside the ball of v, and a point y has a red neighbor when
``balls[y]`` meets the red set.  The audit's properness test of each output
reads the same table: a red point's ball holds no other red point, and a
green point's ball holds some red point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import (
    InjectivityViolation,
    PreconditionNotWS,
    TooLargeForExhaustive,
)
from .grids import (DEFAULT_EXHAUSTIVE_LIMIT, _greedy_members, _is_maximal, _require_limit,
                    enumerate_maximal_separated)
from .metric import FiniteMetricSpace, _require_integer, ball, make_space

__all__ = [
    "ProperColoring",
    "ColoringUniverse",
    "is_proper",
    "enumerate_proper_colorings",
    "membership_probability",
    "recolor",
    "verify_recoloring_injective",
    "RecoloringReport",
    "tree_experiment",
]


@dataclass(frozen=True)
class ProperColoring:
    """Red point set of one proper coloring; everything else is green."""
    red: frozenset[int]


@dataclass(frozen=True)
class ColoringUniverse:
    """Complete list of proper colorings of a space, at unit threshold, with
    the open unit ball of every point."""
    space: FiniteMetricSpace
    colorings: tuple[ProperColoring, ...]
    balls: tuple[frozenset[int], ...]

    @property
    def d(self) -> int:
        """Largest open-unit-ball occupancy."""
        return max(map(len, self.balls))

    def __len__(self) -> int:
        return len(self.colorings)


def is_proper(space: FiniteMetricSpace, red: Iterable[int]) -> bool:
    """Both conditions at once: the red set, repeats ignored, is maximal 1-separated."""
    return _is_maximal(space, set(range(len(space))), sorted(set(red)), 1.0)


def enumerate_proper_colorings(space: FiniteMetricSpace,
                               limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> ColoringUniverse:
    """All proper colorings; red sets are exactly the maximal 1-separated subsets."""
    grids = enumerate_maximal_separated(space, range(len(space)), 1.0, limit=limit)
    return ColoringUniverse(space=space,
                            colorings=tuple(ProperColoring(red=g.members) for g in grids),
                            balls=tuple(ball(space, y, 1.0) for y in range(len(space))))


def membership_probability(universe: ColoringUniverse, v: int | str) -> Fraction:
    """Exact probability that a point is red under a uniform proper coloring."""
    v = universe.space.resolve(v)
    hits = sum(1 for c in universe.colorings if v in c.red)
    return Fraction(hits, len(universe.colorings))


def recolor(universe: ColoringUniverse, coloring: ProperColoring, v: int | str,
            subset_s: Iterable[int]) -> ProperColoring:
    """Turn a coloring with v green into one with v red, by the six-step procedure.

    Requires the input to lie in the class of S: v green, S red, and the rest
    of the open unit ball of v green.  Steps: recolor v red and S green; among
    the points outside the ball that had a red neighbor in S, mark as yellow
    those whose whole open unit ball is now green; scan the yellow points in
    ascending index order, recoloring each to red unless it is within distance
    < 1 of an already recolored one; remaining yellow points stay green.
    """
    space = universe.space
    return _recolor(universe, coloring, space.resolve(v),
                    frozenset(space.resolve(p) for p in subset_s))


def _recolor(universe: ColoringUniverse, coloring: ProperColoring, v: int,
             s_set: frozenset[int]) -> ProperColoring:
    """``recolor`` on a resolved point v and set S of point indices."""
    balls = universe.balls
    ball_v = balls[v]

    if not s_set <= ball_v - {v}:
        raise PreconditionNotWS("S must be a subset of the open unit ball minus v")
    if v in coloring.red:
        raise PreconditionNotWS("v must be green in the input coloring")
    if not s_set <= coloring.red:
        raise PreconditionNotWS("every point of S must be red in the input")
    if (ball_v - {v} - s_set) & coloring.red:
        raise PreconditionNotWS("the rest of the unit ball of v must be green")

    red = (set(coloring.red) - s_set) | {v}
    shadow = frozenset().union(*(balls[s] for s in s_set)) - ball_v
    yellow = [y for y in sorted(shadow) if not balls[y] & red]
    # the ascending scan is the greedy 1-separated grid of the yellow points
    red.update(_greedy_members(universe.space, yellow, 1.0))
    return ProperColoring(red=frozenset(red))


def _proper_on_balls(balls: tuple[frozenset[int], ...], red: frozenset[int]) -> bool:
    """``is_proper`` read from the open unit balls: a red point's ball holds
    no other red point, and a green point's ball holds some red point."""
    return all(len(b & red) == 1 if y in red else bool(b & red)
               for y, b in enumerate(balls))


@dataclass
class RecoloringReport:
    card_b: int
    class_sizes: dict[frozenset, int] = field(default_factory=dict)
    checked: int = 0
    improper_outputs: list[frozenset] = field(default_factory=list)
    touched_outside: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.improper_outputs and not self.touched_outside


def verify_recoloring_injective(universe: ColoringUniverse,
                                v: int | str) -> RecoloringReport:
    """Apply the recoloring to every coloring of every class of v and check it.

    Asserts injectivity within each class (raising InjectivityViolation with
    the witness pair on failure) and card W_S <= card B for every class;
    records, rather than repairing, any improper output or any color change
    outside the unit ball of v and the shadow of S.
    """
    v = universe.space.resolve(v)
    ball_v = universe.balls[v]
    b_class = [c for c in universe.colorings if v in c.red]
    rep = RecoloringReport(card_b=len(b_class))

    classes: dict[frozenset, list[ProperColoring]] = {}
    for col in universe.colorings:
        if v in col.red:
            continue
        s_set = col.red & ball_v  # v is green here
        classes.setdefault(s_set, []).append(col)

    for s_set, members in sorted(classes.items(), key=lambda kv: sorted(kv[0])):
        rep.class_sizes[s_set] = len(members)
        if len(members) > rep.card_b:
            raise InjectivityViolation(
                f"class of S={sorted(s_set)} has {len(members)} colorings "
                f"but only {rep.card_b} have v red")
        allowed = ball_v.union(*(universe.balls[s] for s in s_set))
        seen: dict[frozenset, ProperColoring] = {}
        for col in members:
            out = _recolor(universe, col, v, s_set)
            rep.checked += 1
            if v not in out.red or not _proper_on_balls(universe.balls, out.red):
                rep.improper_outputs.append(out.red)
            changed = (col.red ^ out.red)
            if not changed <= allowed:
                rep.touched_outside.append((sorted(s_set), sorted(changed - allowed)))
            if out.red in seen:
                raise InjectivityViolation(
                    f"colorings {sorted(seen[out.red].red)} and {sorted(col.red)} "
                    f"in class S={sorted(s_set)} map to the same output",
                    first=seen[out.red], second=col)
            seen[out.red] = col
    return rep


def tree_experiment(branching: int, height: int,
                    limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Fraction:
    """Exact probability that the root of a tree joins a uniform maximal
    2-separated set.

    The tree has unit edge lengths, so the conflict graph at threshold 2 is
    the tree's own adjacency.
    """
    branching = _require_integer("branching", branching, 1)
    height = _require_integer("height", height, 0)
    limit = _require_limit(limit)
    vertices = layer = 1
    for _ in range(height):
        layer *= branching
        vertices += layer
        if vertices > limit:
            # the enumeration below would refuse anyway; fail before building
            raise TooLargeForExhaustive(
                f"tree with branching {branching} and height {height} has more "
                f"than {limit} vertices, the exhaustive cap")
    tree = make_space("tree", branching=branching, height=height)
    # integer distances: d/2 < 1 exactly when d < 2
    universe = enumerate_proper_colorings(tree.rescale(2.0), limit=limit)
    return membership_probability(universe, "r")
