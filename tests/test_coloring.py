"""Exhaustive proper colorings, membership probabilities, and the recoloring map."""
import collections
import itertools
from fractions import Fraction

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab import coloring
from dyadiclab.cli import main
from dyadiclab.coloring import ColoringUniverse, ProperColoring, RecoloringReport, is_proper
from dyadiclab.errors import (InjectivityViolation, InvalidParams, PreconditionNotWS,
                              TooLargeForExhaustive)
from dyadiclab.grids import DEFAULT_EXHAUSTIVE_LIMIT, _greedy_members, enumerate_maximal_separated
from dyadiclab.metric import FiniteMetricSpace, ball, make_space, max_ball_occupancy


def brute_force_colorings(space):
    """Oracle: every red set that satisfies both conditions, by direct scan."""
    n = len(space)
    out = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if is_proper(space, combo):
                out.add(frozenset(combo))
    return out


def test_is_proper_ignores_a_repeated_red_point(l3):
    assert is_proper(l3, [0, 2, 0]) and is_proper(l3, [1, 1])
    assert not is_proper(l3, [0, 0])  # 2 is green with no red point within 1


def test_ball_table_properness_matches_is_proper(small_family, l3, elbow):
    """The audit's properness test, read from a universe's ball table, gives
    ``is_proper``'s verdict on every red set of the criterion-1 spaces of at
    most 7 points and of two hand-checked ones; both verdicts occur."""
    spaces = [s for _, s in small_family if len(s) <= 7] + [l3, elbow]
    verdicts = collections.Counter()
    for space in spaces:
        balls = dl.enumerate_proper_colorings(space).balls
        n = len(space)
        for red in itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)):
            verdict = is_proper(space, red)
            assert coloring._proper_on_balls(balls, frozenset(red)) == verdict, red
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 1000


# --- enumeration ------------------------------------------------------------------

def test_universe_l3(l3):
    u = dl.enumerate_proper_colorings(l3)
    assert {c.red for c in u.colorings} == {frozenset({0, 2}), frozenset({1})}
    assert u.d == 3


def test_universe_trivial(singleton, two_far):
    u1 = dl.enumerate_proper_colorings(singleton)
    assert [c.red for c in u1.colorings] == [frozenset({0})]
    u2 = dl.enumerate_proper_colorings(two_far)
    assert [c.red for c in u2.colorings] == [frozenset({0, 1})]


def test_universe_matches_brute_force():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        space = dl.space_from_coords(rng.uniform(0, 3, size=(n, 2)))
        u = dl.enumerate_proper_colorings(space)
        assert {c.red for c in u.colorings} == brute_force_colorings(space)


def test_universe_agrees_with_grid_enumeration():
    """Proper colorings and maximal 1-separated subsets are the same family."""
    rng = np.random.default_rng(99)
    space = dl.space_from_coords(rng.uniform(0, 3, size=(8, 2)))
    reds = {c.red for c in dl.enumerate_proper_colorings(space).colorings}
    grids = {g.members
             for g in dl.enumerate_maximal_separated(space, range(8), 1.0)}
    assert reds == grids


# --- membership probabilities ----------------------------------------------------------

def test_membership_l3(l3):
    u = dl.enumerate_proper_colorings(l3)
    assert dl.membership_probability(u, "b") == Fraction(1, 2)
    assert dl.membership_probability(u, "a") == Fraction(1, 2)


def test_membership_singleton(singleton):
    u = dl.enumerate_proper_colorings(singleton)
    assert dl.membership_probability(u, 0) == 1


def test_membership_floor_random_spaces():
    """Exact membership never falls below 2**-d."""
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        space = dl.space_from_coords(rng.uniform(0, 2.5, size=(n, 2)))
        u = dl.enumerate_proper_colorings(space)
        floor = Fraction(1, 2 ** u.d)
        for v in range(n):
            assert dl.membership_probability(u, v) >= floor


# the probability of a red point strictly near v, the quantity the
# close-point floor below is stated for
def reference_close_membership_probability(universe: ColoringUniverse, v: int | str,
                                           tol: float) -> Fraction:
    """Probability that some red point lies strictly within ``tol`` of v.

    With ``tol`` below the minimum pairwise distance this reduces to
    membership of v itself; it is never smaller than the membership
    probability.
    """
    v = universe.space.resolve(v)
    d = universe.space.d
    hits = sum(1 for c in universe.colorings
               if any(d[v, r] < tol for r in c.red))
    return Fraction(hits, len(universe.colorings))


def test_close_membership_dominates(l3):
    u = dl.enumerate_proper_colorings(l3)
    for v in range(3):
        close = reference_close_membership_probability(u, v, 1e-3)
        assert close == dl.membership_probability(u, v)  # no point that close
        assert reference_close_membership_probability(u, v, 0.6) >= close


def test_close_point_probability_floor_after_rescale():
    """Drawing the coarser grid uniformly inside a fine grid, the chance that
    some grid point lands within scale/1000 of a fixed point is at least the
    membership floor (after rescaling the sampling scale to one)."""
    delta = 0.1
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        fine = dl.space_from_coords(rng.uniform(0, 0.25, size=(7, 2)))
        rescaled = fine.rescale(delta)  # coarser-level scale becomes 1
        u = dl.enumerate_proper_colorings(rescaled)
        floor = Fraction(1, 2 ** u.d)
        for v in range(len(rescaled)):
            assert reference_close_membership_probability(u, v, 1e-3) >= floor


# --- recoloring ------------------------------------------------------------------------

def test_recolor_l3_example(l3):
    u = dl.enumerate_proper_colorings(l3)
    L = next(c for c in u.colorings if c.red == frozenset({0, 2}))
    out = dl.recolor(u, L, "b", [0, 2])
    assert out.red == frozenset({1})


def test_recolor_preconditions(l3, singleton, two_far):
    u1 = dl.enumerate_proper_colorings(singleton)
    with pytest.raises(PreconditionNotWS):
        dl.recolor(u1, u1.colorings[0], 0, [])  # v already red
    u2 = dl.enumerate_proper_colorings(two_far)
    with pytest.raises(PreconditionNotWS):
        dl.recolor(u2, u2.colorings[0], 0, [])  # v red in the all-red coloring
    u3 = dl.enumerate_proper_colorings(l3)
    L = next(c for c in u3.colorings if c.red == frozenset({1}))
    with pytest.raises(PreconditionNotWS):
        dl.recolor(u3, L, "a", [2])  # S must lie inside the open unit ball of a
    with pytest.raises(PreconditionNotWS):
        dl.recolor(u3, L, "a", [])  # ball of a contains the red point b


def test_recoloring_injective_l3(l3):
    u = dl.enumerate_proper_colorings(l3)
    for v in range(3):
        rep = dl.verify_recoloring_injective(u, v)
        assert isinstance(rep, RecoloringReport)
        assert rep.ok
        assert all(size <= rep.card_b for size in rep.class_sizes.values())


def test_recoloring_injective_cloud():
    """Every class of every vertex of an 8-point cloud maps injectively."""
    rng = np.random.default_rng(7)
    space = dl.space_from_coords(rng.uniform(0, 2.5, size=(8, 2)))
    u = dl.enumerate_proper_colorings(space)
    total = 0
    for v in range(8):
        rep = dl.verify_recoloring_injective(u, v)
        assert rep.ok
        total += rep.checked
    # every coloring with v green belongs to exactly one class of v
    green_count = sum(1 for v in range(8) for c in u.colorings if v not in c.red)
    assert total == green_count


# the shadow, the yellow test and the audit as they were before they read the
# universe's table of open unit balls, kept verbatim as their oracles: each
# recomputes every unit-distance test from the distance matrix
def reference_tilde_set(space: FiniteMetricSpace, ball_v: frozenset[int],
                        subset_s: frozenset[int]) -> frozenset[int]:
    """Points outside the unit ball of v but within distance < 1 of the set S."""
    out = set()
    for y in range(len(space)):
        if y in ball_v:
            continue
        if any(space.d[y, s] < 1.0 for s in subset_s):
            out.add(y)
    return frozenset(out)


def reference_recolor(universe: ColoringUniverse, coloring: ProperColoring, v: int | str,
                      subset_s) -> ProperColoring:
    """Turn a coloring with v green into one with v red, by the six-step procedure."""
    space = universe.space
    v = space.resolve(v)
    s_set = frozenset(space.resolve(p) for p in subset_s)
    ball_v = ball(space, v, 1.0, mode="open")

    if not s_set <= ball_v - {v}:
        raise PreconditionNotWS("S must be a subset of the open unit ball minus v")
    if v in coloring.red:
        raise PreconditionNotWS("v must be green in the input coloring")
    if not s_set <= coloring.red:
        raise PreconditionNotWS("every point of S must be red in the input")
    if (ball_v - {v} - s_set) & coloring.red:
        raise PreconditionNotWS("the rest of the unit ball of v must be green")

    tilde = reference_tilde_set(space, ball_v, s_set)
    red = (set(coloring.red) - s_set) | {v}
    yellow = [y for y in sorted(tilde)
              if not any(space.d[y, r] < 1.0 for r in red)]
    # the ascending scan is the greedy 1-separated grid of the yellow points
    red.update(_greedy_members(space, yellow, 1.0))
    return ProperColoring(red=frozenset(red))


def reference_verify_recoloring_injective(universe: ColoringUniverse,
                                          v: int | str) -> RecoloringReport:
    """Apply the recoloring to every coloring of every class of v and check it."""
    space = universe.space
    v = space.resolve(v)
    ball_v = ball(space, v, 1.0, mode="open")
    b_class = [c for c in universe.colorings if v in c.red]
    rep = RecoloringReport(card_b=len(b_class))

    classes: dict[frozenset, list[ProperColoring]] = {}
    for col in universe.colorings:
        if v in col.red:
            continue
        s_set = frozenset(col.red & (ball_v - {v}))
        classes.setdefault(s_set, []).append(col)

    for s_set, members in sorted(classes.items(), key=lambda kv: sorted(kv[0])):
        rep.class_sizes[s_set] = len(members)
        if len(members) > rep.card_b:
            raise InjectivityViolation(
                f"class of S={sorted(s_set)} has {len(members)} colorings "
                f"but only {rep.card_b} have v red")
        tilde = reference_tilde_set(space, ball_v, s_set)
        allowed = ball_v | tilde
        seen: dict[frozenset, ProperColoring] = {}
        for col in members:
            out = reference_recolor(universe, col, v, s_set)
            rep.checked += 1
            if v not in out.red or not is_proper(space, out.red):
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


def pinned_spaces(small_family, l3, elbow):
    """The criterion-1 family and a few more: the hand-checked spaces, clouds
    in one and two dimensions, and a cloud at half the unit scale."""
    more = [("l3", l3), ("elbow", elbow),
            ("cloud3", make_space("random_cloud", seed=3, n=9, dim=2)),
            ("cloud7", make_space("random_cloud", seed=7, n=11, dim=1)),
            ("cloud7x2", make_space("random_cloud", seed=7, n=9, dim=2).rescale(0.5))]
    return list(small_family) + more


def test_recolor_matches_reference(small_family, l3, elbow):
    """The recoloring of every class input (v, S, coloring) of every pinned
    space equals the oracle's, and so does the largest ball occupancy d."""
    inputs = 0
    for label, space in pinned_spaces(small_family, l3, elbow):
        u = dl.enumerate_proper_colorings(space)
        assert u.d == max_ball_occupancy(space, 1.0), label
        for v in range(len(space)):
            rest = ball(space, v, 1.0, mode="open") - {v}
            for col in u.colorings:
                if v in col.red:
                    continue
                s_set = col.red & rest
                assert dl.recolor(u, col, v, s_set) == \
                    reference_recolor(u, col, v, s_set), (label, v, sorted(col.red))
                inputs += 1
    assert inputs > 1000


def test_recoloring_audit_matches_reference(small_family, l3, elbow):
    """The whole audit report of every point of every pinned space equals the
    oracle's: class sizes, recolorings checked, improper outputs and changes
    outside the allowed zone."""
    for label, space in pinned_spaces(small_family, l3, elbow):
        u = dl.enumerate_proper_colorings(space)
        for v in range(len(space)):
            assert dl.verify_recoloring_injective(u, v) == \
                reference_verify_recoloring_injective(u, v), (label, v)


# --- tree probabilities -------------------------------------------------------------------

def test_tree_experiment_values():
    assert dl.tree_experiment(3, 2) == Fraction(1, 8)
    assert dl.tree_experiment(3, 2) > Fraction(1, 16)
    assert dl.tree_experiment(1, 1) == Fraction(1, 2)
    assert dl.tree_experiment(3, 0) == 1
    # height-2 binary tree: 8 maximal sets, computed by the all-subsets oracle
    assert dl.tree_experiment(2, 2) == Fraction(1, 4)
    halved = dl.make_space("tree", branching=2, height=2).rescale(2.0)
    assert dl.membership_probability(dl.enumerate_proper_colorings(halved), "r.0") \
        == Fraction(1, 2)


def test_tree_experiment_matches_tree_mis_oracle():
    """The 2-separation coloring count equals a direct independent-set scan."""
    space = dl.make_space("tree", branching=2, height=2)
    n = len(space)
    adj = {i: {j for j in range(n) if i != j and space.d[i, j] == 1.0}
           for i in range(n)}
    count = root_count = 0
    root = space.index("r")
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if any(adj[a] & s for a in s):
                continue
            if any(not (adj[v] & s) for v in set(range(n)) - s):
                continue
            count += 1
            root_count += root in s
    assert dl.tree_experiment(2, 2) == Fraction(root_count, count)


# tree_experiment as it was before it read the coloring universe, kept
# verbatim as its oracle: it counts the root's maximal 2-separated sets itself
def reference_tree_experiment(branching: int, height: int, vertex: int | str | None = None,
                              limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Fraction:
    """Exact probability that a tree vertex joins a uniform maximal 2-separated set.

    The tree has unit edge lengths, so the conflict graph at threshold 2 is
    the tree's own adjacency.  Defaults to the root.
    """
    if branching < 1 or height < 0:
        raise InvalidParams("need branching >= 1 and height >= 0")
    vertices = layer = 1
    for _ in range(height):
        layer *= branching
        vertices += layer
        if vertices > limit:
            # the enumeration below would refuse anyway; fail before building
            raise TooLargeForExhaustive(
                f"tree with branching {branching} and height {height} has more "
                f"than {limit} vertices, the exhaustive cap")
    space = make_space("tree", branching=branching, height=height)
    grids = enumerate_maximal_separated(space, range(len(space)), 2.0, limit=limit)
    v = space.resolve(vertex if vertex is not None else "r")
    hits = sum(1 for g in grids if v in g.members)
    return Fraction(hits, len(grids))


def test_tree_experiment_matches_reference():
    """Membership in the coloring universe of the halved tree against the
    direct count, at the root through ``tree_experiment``, and at every
    vertex, by name and by index, of the trees of branching 1-3 and height
    0-2."""
    for branching in (1, 2, 3):
        for height in (0, 1, 2):
            assert dl.tree_experiment(branching, height) == \
                reference_tree_experiment(branching, height)
            tree = dl.make_space("tree", branching=branching, height=height)
            universe = dl.enumerate_proper_colorings(tree.rescale(2.0))
            for vertex in [*tree.points, *range(len(tree))]:
                assert dl.membership_probability(universe, vertex) == \
                    reference_tree_experiment(branching, height, vertex)


def test_tree_experiment_cap():
    with pytest.raises(TooLargeForExhaustive):
        dl.tree_experiment(3, 3)


def test_tree_experiment_cap_counts_before_building(monkeypatch, tmp_path):
    """The cap is checked from the branching and the height, so a tree of
    29,524 vertices is refused before its distance matrix is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("the tree space was built")

    monkeypatch.setattr(coloring, "make_space", refuse)
    with pytest.raises(TooLargeForExhaustive):
        dl.tree_experiment(3, 9)
    path = tmp_path / "pair.json"
    path.write_text('{"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}')
    assert main(["coloring", "--input", str(path), "--tree-height", "9",
                 "--out", str(tmp_path / "r.json")]) == 2
