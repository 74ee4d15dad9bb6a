"""Maximal separated subsets: greedy, exhaustive enumeration, sampling, nesting."""
import itertools

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.errors import InvalidParams, TooLargeForExhaustive
from dyadiclab.grids import hierarchy_to_json


def brute_force_maximal(space, base, k):
    """Oracle: filter all subsets of the base for separation and maximality."""
    base = sorted(base)
    out = []
    for r in range(len(base) + 1):
        for combo in itertools.combinations(base, r):
            if dl.is_maximal_separated(space, base, combo, k):
                out.append(frozenset(combo))
    return sorted(out, key=sorted)


# --- greedy -------------------------------------------------------------------

def test_greedy_orders(l3):
    assert dl.greedy_grid(l3, [0, 1, 2], 1.0, [0, 1, 2]).members == {0, 2}
    assert dl.greedy_grid(l3, [0, 1, 2], 1.0, [1, 0, 2]).members == {1}


def test_greedy_singleton(singleton):
    assert dl.greedy_grid(singleton, [0], 5.0, [0]).members == {0}


def test_greedy_requires_permutation(l3):
    with pytest.raises(InvalidParams):
        dl.greedy_grid(l3, [0, 1, 2], 1.0, [0, 1])


def test_greedy_output_is_maximal(l3):
    for order in itertools.permutations(range(3)):
        grid = dl.greedy_grid(l3, [0, 1, 2], 1.0, list(order))
        assert dl.is_maximal_separated(l3, [0, 1, 2], grid.members, 1.0)


# --- maximality predicate -------------------------------------------------------

def test_is_maximal_separated_trio(l3):
    assert dl.is_maximal_separated(l3, [0, 1, 2], [0, 2], 1.0)
    assert not dl.is_maximal_separated(l3, [0, 1, 2], [0], 1.0)  # c addable
    assert not dl.is_maximal_separated(l3, [0, 1, 2], [0, 1], 1.0)  # 0.5 < 1


# --- enumeration ------------------------------------------------------------------

def test_enumerate_l3(l3):
    grids = dl.enumerate_maximal_separated(l3, [0, 1, 2], 1.0)
    assert [sorted(g.members) for g in grids] == [[0, 2], [1]]


def test_enumerate_trivial(singleton, two_far):
    assert [g.members for g in dl.enumerate_maximal_separated(singleton, [0], 1.0)] \
        == [frozenset({0})]
    assert [sorted(g.members)
            for g in dl.enumerate_maximal_separated(two_far, [0, 1], 1.0)] == [[0, 1]]


def test_enumerate_matches_brute_force_oracle():
    """Component-factorized enumeration equals the all-subsets filter."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        space = dl.space_from_coords(rng.uniform(0, 4, size=(n, 2)))
        for k in (0.8, 1.5, 2.5):
            got = {g.members for g in dl.enumerate_maximal_separated(
                space, range(n), k)}
            want = set(brute_force_maximal(space, range(n), k))
            assert got == want


def test_enumerate_cap():
    space = dl.make_space("grid_points", shape=(21,), spacing=2.0)
    with pytest.raises(TooLargeForExhaustive):
        dl.enumerate_maximal_separated(space, range(21), 1.0)
    # raising the cap makes the same call legal
    grids = dl.enumerate_maximal_separated(space, range(21), 1.0, limit=25)
    assert len(grids) == 1


# --- sampling ----------------------------------------------------------------------

def test_sample_uniform_frequencies(l3):
    """Empirical frequencies over 1e5 draws match uniform within 4 sigma."""
    rng = np.random.default_rng(123)
    cache = {}
    trials = 100_000
    counts = {frozenset({0, 2}): 0, frozenset({1}): 0}
    for _ in range(trials):
        g = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng, cache=cache)
        counts[g.members] += 1
    sigma = (0.5 * 0.5 / trials) ** 0.5
    for c in counts.values():
        assert abs(c / trials - 0.5) <= 4 * sigma


def test_sample_trivial_and_deterministic(singleton, l3):
    g = dl.sample_maximal_separated(singleton, [0], 1.0, np.random.default_rng(0))
    assert g.members == {0}
    a = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, np.random.default_rng(9))
    b = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, np.random.default_rng(9))
    assert a.members == b.members


def test_sample_greedy_permutation_valid(l3):
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng,
                                        mode="greedy_permutation")
        assert dl.is_maximal_separated(l3, [0, 1, 2], g.members, 1.0)


# --- nested hierarchies ----------------------------------------------------------------

def test_nested_singleton(singleton):
    h = dl.build_nested_grids(singleton, 0.5, -2, rng=0)
    assert h.levels == (-2,)
    assert h.grids[-2].members == {0}


def test_nested_two_points_delta_half():
    space = dl.validate_metric([[0, 1], [1, 0]])
    h = dl.build_nested_grids(space, 0.5, 0, rng=0)
    assert h.finest_level == 1            # 0.5 < 1 <= 1
    assert h.grids[1].members == {0, 1}
    assert h.grids[0].members == {0, 1}   # distance 1 >= scale 1: both stay


def test_nested_invariants_and_reproducibility():
    space = dl.make_space("random_cloud", seed=3, n=30, dim=2, min_sep=0.02)
    a = dl.build_nested_grids(space, 0.1, 0, rng=11, mode="greedy_permutation")
    b = dl.build_nested_grids(space, 0.1, 0, rng=11, mode="greedy_permutation")
    for k in a.levels:
        assert a.grids[k].members == b.grids[k].members
        base = a.grids[k + 1].members if k + 1 in a.grids else None
        if base is not None:
            assert dl.is_maximal_separated(space, base, a.grids[k].members,
                                           a.scale(k))
    assert a.grids[a.finest_level].members == frozenset(range(len(space)))


def test_nested_freeze_above():
    """Frozen fine levels are identical across seeds; coarser levels may differ."""
    space = dl.make_space("random_cloud", seed=5, n=25, dim=2, min_sep=0.02)
    h1 = dl.build_nested_grids(space, 0.1, 0, rng=1, freeze_above=1)
    h2 = dl.build_nested_grids(space, 0.1, 0, rng=2, freeze_above=1)
    for k in h1.levels:
        if k >= 1:
            assert h1.grids[k].members == h2.grids[k].members


def test_nested_coarsest_beyond_finest(singleton):
    space = dl.validate_metric([[0, 1], [1, 0]])
    with pytest.raises(InvalidParams):
        dl.build_nested_grids(space, 0.5, 5, rng=0)


def test_unknown_mode_is_refused_before_any_draw(singleton, l3):
    """A bad mode is refused also when no level is sampled: on a singleton,
    and when every level below the finest is frozen."""
    with pytest.raises(InvalidParams, match="unknown sampling mode 'bogus'"):
        dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, np.random.default_rng(0),
                                    mode="bogus")
    with pytest.raises(InvalidParams, match="unknown sampling mode 'bogus'"):
        dl.build_nested_grids(singleton, 0.1, 0, 1, mode="bogus")
    with pytest.raises(InvalidParams, match="unknown sampling mode 'bogus'"):
        dl.build_nested_grids(l3, 0.1, 0, 1, mode="bogus", freeze_above=0)


def test_hierarchy_serialization(l3):
    h = dl.build_nested_grids(l3, 0.1, 0, rng=0)
    payload = hierarchy_to_json(h)
    assert payload["delta"] == 0.1
    assert [lev["level"] for lev in payload["levels"]] == list(h.levels)
    assert payload["levels"][-1]["members"] == ["a", "b", "c"]
