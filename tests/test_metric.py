"""Metric space validation, queries, doubling bounds, and generators."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dyadiclab as dl
from dyadiclab.errors import (
    AsymmetricMatrix,
    DuplicatePoint,
    InvalidParams,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownPoint,
)


# --- validation ----------------------------------------------------------------

def test_validate_singleton():
    space = dl.validate_metric([[0.0]])
    assert len(space) == 1


def test_validate_two_points():
    space = dl.validate_metric([[0, 1], [1, 0]])
    assert space.distance(0, 1) == 1.0


def test_triangle_violation_reports_triple():
    with pytest.raises(TriangleViolation) as exc:
        dl.validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 1, 2)


def test_asymmetric_matrix():
    with pytest.raises(AsymmetricMatrix):
        dl.validate_metric([[0, 1], [2, 0]])


def test_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal):
        dl.validate_metric([[0.5]])


def test_duplicate_point():
    with pytest.raises(DuplicatePoint):
        dl.validate_metric([[0, 0], [0, 0]])


def test_negative_and_nonsquare_rejected():
    with pytest.raises(InvalidParams):
        dl.validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(InvalidParams):
        dl.validate_metric([[0, 1, 2], [1, 0, 1]])


@st.composite
def valid_spaces(draw):
    """Random Euclidean clouds are always valid metrics."""
    n = draw(st.integers(min_value=3, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(n, 2))
    return dl.space_from_coords(pts)


@settings(max_examples=40, deadline=None)
@given(valid_spaces(), st.integers(0, 10_000))
def test_axiom_perturbations_rejected_with_correct_error(space, seed):
    """Breaking exactly one axiom of a valid metric raises the matching error."""
    rng = np.random.default_rng(seed)
    n = len(space)
    i, j = sorted(rng.choice(n, size=2, replace=False))

    m = space.d.copy()
    m[i, j] = m[i, j] + 1.0  # break symmetry one-sided
    with pytest.raises(AsymmetricMatrix):
        dl.validate_metric(m)

    m = space.d.copy()
    m[i, i] = 0.25
    with pytest.raises(NonzeroDiagonal):
        dl.validate_metric(m)

    m = space.d.copy()
    m[i, j] = m[j, i] = 0.0
    with pytest.raises(DuplicatePoint):
        dl.validate_metric(m)

    m = space.d.copy()
    huge = 3 * m.max() + 1.0  # exceeds any two-hop path
    m[i, j] = m[j, i] = huge
    with pytest.raises(TriangleViolation):
        dl.validate_metric(m)


# --- balls and occupancy ----------------------------------------------------------

def test_ball_examples(l3):
    assert dl.ball(l3, "a", 1.0, "open") == {0, 1}
    assert dl.ball(l3, "b", 0.6, "open") == {0, 1, 2}
    assert dl.ball(l3, "a", 0.0, "open") == frozenset()
    assert dl.ball(l3, "a", 1.0, "closed") == {0, 1, 2}


def test_ball_unknown_point(l3):
    with pytest.raises(UnknownPoint):
        dl.ball(l3, "z", 1.0)
    with pytest.raises(UnknownPoint):
        dl.ball(l3, 7, 1.0)


def test_max_ball_occupancy_examples(l3, singleton, two_far):
    assert dl.max_ball_occupancy(l3, 1.0) == 3
    assert dl.max_ball_occupancy(singleton, 1.0) == 1
    assert dl.max_ball_occupancy(two_far, 1.0) == 1


@settings(max_examples=30, deadline=None)
@given(valid_spaces(), st.floats(0.1, 5.0), st.floats(0.0, 5.0))
def test_occupancy_monotone_in_radius(space, r, bump):
    assert dl.max_ball_occupancy(space, r) <= dl.max_ball_occupancy(space, r + bump)


def test_set_distance_empty_is_infinite(l3):
    assert dl.set_distance(l3, [0], []) == math.inf
    assert dl.set_distance(l3, [], [1]) == math.inf
    assert dl.set_distance(l3, [0], [2]) == 1.0


# --- doubling bounds ----------------------------------------------------------------

def test_doubling_singleton(singleton):
    assert dl.doubling_estimate(singleton) == 1
    assert dl.min_cover_doubling(singleton) == 1


def test_doubling_two_points():
    space = dl.validate_metric([[0, 1], [1, 0]])
    assert dl.doubling_estimate(space) <= 2


def test_doubling_greedy_bounds_exact(l3):
    """Greedy covering can only overcount the exact minimum cover."""
    greedy = dl.doubling_estimate(l3)
    exact = dl.min_cover_doubling(l3)
    assert exact <= greedy <= 3


@settings(max_examples=15, deadline=None)
@given(valid_spaces())
def test_doubling_greedy_ge_exact(space):
    assert dl.min_cover_doubling(space) <= dl.doubling_estimate(space)


# --- generators ----------------------------------------------------------------------

def test_tree_star():
    star = dl.make_space("tree", branching=3, height=1)
    assert len(star) == 4
    root = star.index("r")
    leaves = [i for i in range(4) if i != root]
    assert all(star.distance(root, i) == 1.0 for i in leaves)
    assert star.distance(leaves[0], leaves[1]) == 2.0


def test_snowflake_two_points():
    base = dl.validate_metric([[0, 4], [4, 0]])
    snow = dl.make_space("snowflake", base=base, alpha=0.5)
    assert snow.distance(0, 1) == 2.0


@settings(max_examples=25, deadline=None)
@given(valid_spaces(), st.floats(0.05, 1.0))
def test_snowflake_is_always_a_metric(space, alpha):
    snow = dl.make_space("snowflake", base=space, alpha=alpha)
    dl.validate_metric(snow.d, snow.points)  # revalidates all axioms


def test_snowflake_alpha_range():
    base = dl.validate_metric([[0, 1], [1, 0]])
    with pytest.raises(InvalidParams):
        dl.make_space("snowflake", base=base, alpha=1.5)


def test_random_cloud_deterministic():
    a = dl.make_space("random_cloud", seed=7, n=8, dim=2)
    b = dl.make_space("random_cloud", seed=7, n=8, dim=2)
    assert np.array_equal(a.d, b.d)


def test_random_cloud_requires_seed():
    with pytest.raises(InvalidParams):
        dl.make_space("random_cloud", n=8)


def test_grid_points_space():
    grid = dl.make_space("grid_points", shape=(2, 2), spacing=2.0)
    assert len(grid) == 4
    assert grid.min_distance == 2.0


def test_unknown_kind():
    with pytest.raises(InvalidParams):
        dl.make_space("hyperbolic")


# --- persistence ----------------------------------------------------------------------

def test_json_roundtrip(tmp_path, l3):
    path = tmp_path / "space.json"
    dl.save_space(l3, str(path))
    back = dl.load_space(str(path))
    assert back.points == l3.points
    assert np.array_equal(back.d, l3.d)


def test_csv_coordinates_load(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("name,x,y\np,0,0\nq,3,4\n")
    space = dl.load_space(str(path))
    assert space.points == ("p", "q")
    assert space.distance("p", "q") == 5.0


def test_csv_unnamed_load(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\n1,0\n")
    space = dl.load_space(str(path))
    assert space.distance(0, 1) == 1.0


def test_rescale_and_subspace(l3):
    half = l3.rescale(0.5)
    assert half.distance("a", "c") == 2.0
    sub = l3.subspace([0, 2])
    assert sub.points == ("a", "c")
    assert sub.distance(0, 1) == 1.0


# the pair loop that one numpy call replaced, kept as its oracle
def reference_pairwise_distances(space: dl.FiniteMetricSpace) -> list[float]:
    """Sorted distinct positive pairwise distances."""
    n = len(space)
    vals = {float(space.d[i, j]) for i in range(n) for j in range(i + 1, n)}
    return sorted(vals)


def test_pairwise_distances_match_reference(singleton, l3, small_family):
    grid = dl.make_space("grid_points", shape=(4, 4), spacing=0.5)
    for space in [singleton, l3, grid] + [s for _, s in small_family]:
        got = space.pairwise_distances()
        assert got == reference_pairwise_distances(space)
        assert all(type(r) is float for r in got)
