"""Exhaustive proper colorings, membership probabilities, and the recoloring map."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab import coloring
from dyadiclab.cli import main
from dyadiclab.coloring import RecoloringReport, is_proper
from dyadiclab.errors import InvalidParams, PreconditionNotWS, TooLargeForExhaustive
from dyadiclab.grids import DEFAULT_EXHAUSTIVE_LIMIT, enumerate_maximal_separated
from dyadiclab.metric import make_space


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


def test_close_membership_dominates(l3):
    u = dl.enumerate_proper_colorings(l3)
    for v in range(3):
        close = dl.close_membership_probability(u, v, 1e-3)
        assert close == dl.membership_probability(u, v)  # no point that close
        assert dl.close_membership_probability(u, v, 0.6) >= close


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
            assert dl.close_membership_probability(u, v, 1e-3) >= floor


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


# --- tree probabilities -------------------------------------------------------------------

def test_tree_experiment_values():
    assert dl.tree_experiment(3, 2) == Fraction(1, 8)
    assert dl.tree_experiment(3, 2) > Fraction(1, 16)
    assert dl.tree_experiment(1, 1) == Fraction(1, 2)
    assert dl.tree_experiment(3, 0) == 1
    # height-2 binary tree: 8 maximal sets, computed by the all-subsets oracle
    assert dl.tree_experiment(2, 2) == Fraction(1, 4)
    assert dl.tree_experiment(2, 2, vertex="r.0") == Fraction(1, 2)


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
    direct count, at every vertex of the trees of branching 1-3 and height
    0-2, by name, by index and by default."""
    for branching in (1, 2, 3):
        for height in (0, 1, 2):
            tree = dl.make_space("tree", branching=branching, height=height)
            for vertex in [None, *tree.points, *range(len(tree))]:
                assert dl.tree_experiment(branching, height, vertex) == \
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
