"""Metric space validation, queries, and generators."""
import argparse
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dyadiclab as dl
from dyadiclab.errors import (
    AsymmetricMatrix,
    DuplicatePoint,
    InvalidParams,
    InvalidTrials,
    MetricValidationError,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownPoint,
)
from dyadiclab import cli
from dyadiclab.goodness import GoodnessParams
from dyadiclab.mc import run_chunked
from dyadiclab.metric import _require_integer


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
    assert str(exc.value) == "dist(0,2) > dist(0,1) + dist(1,2) by 3.0"


def test_triangle_violation_states_a_rounding_excess():
    """0.7 + 0.1 rounds to 0.7999999999999999, so an exact 0.8 fails the
    check by one ulp, and the message says so."""
    with pytest.raises(TriangleViolation) as exc:
        dl.validate_metric([[0, 0.7, 0.8], [0.7, 0, 0.1], [0.8, 0.1, 0]])
    assert str(exc.value) == ("dist(0,2) > dist(0,1) + dist(1,2) "
                              f"by {0.8 - (0.7 + 0.1)!r}")
    assert 0.8 - (0.7 + 0.1) == np.spacing(0.7 + 0.1)


def test_triangle_violation_only_in_the_last_row_pair():
    """One pair (n - 2, n - 1) of a 12-point cloud stretched past its
    shortest two-hop path and short of the next: (n - 2, j, n - 1) and its
    mirror are the only violating triples, and the row scan reaches its last
    row to report the first."""
    d = dl.space_from_coords(np.random.default_rng(7).uniform(0, 10, size=(12, 2))).d.copy()
    a, b = len(d) - 2, len(d) - 1
    hops = d[a] + d[:, b]
    hops[[a, b]] = np.inf
    j = int(hops.argmin())
    d[a, b] = d[b, a] = (hops[j] + np.sort(hops)[1]) / 2
    assert triangle_violations(d).tolist() == [[a, j, b], [b, j, a]]
    got = outcome(dl.validate_metric, d)
    assert got == outcome(reference_validate_metric, d)
    assert got == ("TriangleViolation",
                   str(TriangleViolation(a, j, b, float(d[a, b] - (d[a, j] + d[j, b])))))


def test_triangle_equalities_of_collinear_grid_points_pass():
    """Collinear grid points make triangles that are equalities bit for bit,
    dist(i, k) == dist(i, j) + dist(j, k) with i, j, k distinct; the strict
    test passes them."""
    for space in (dl.make_space("grid_points", shape=(8,)),
                  dl.make_space("grid_points", shape=(4, 3), spacing=0.5)):
        d = space.d
        equal = d[:, None, :] == d[:, :, None] + d[None, :, :]
        i, j, k = np.indices(equal.shape)
        assert (equal & (i != j) & (j != k) & (i != k)).sum() > 0
        assert outcome(dl.validate_metric, d) == ("ok", d.tolist())


def test_asymmetric_matrix():
    with pytest.raises(AsymmetricMatrix):
        dl.validate_metric([[0, 1], [2, 0]])


def test_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal):
        dl.validate_metric([[0.5]])


def test_duplicate_point():
    with pytest.raises(DuplicatePoint):
        dl.validate_metric([[0, 0], [0, 0]])


def test_names_distinct_as_stored():
    """The space stores str(name), so distinctness is tested on those."""
    with pytest.raises(InvalidParams, match="point names must be distinct"):
        dl.validate_metric([[0, 1], [1, 0]], points=(1, "1"))
    assert dl.validate_metric([[0, 1], [1, 0]], points=(1, 2)).points == ("1", "2")


def test_negative_and_nonsquare_rejected():
    with pytest.raises(InvalidParams):
        dl.validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(InvalidParams):
        dl.validate_metric([[0, 1, 2], [1, 0, 1]])


def test_nested_ragged_matrix_names_its_first_listed_entry():
    """NumPy refuses a matrix ragged below its rows with a bare ValueError
    whose text depends on its version; the refusal names the entry."""
    with pytest.raises(InvalidParams, match=r"^row 0 entry 0 must be a number, got \[0\]$"):
        dl.validate_metric([[[0], [0, 1]], [[0], [1]]])
    with pytest.raises(InvalidParams, match=r"^row 1 entry 0 must be a number, got \[0, 1\]$"):
        dl.validate_metric([[0, 1], [[0, 1], 0]])


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


def test_ball_refuses_nan_radius(l3):
    """NaN compares false both ways, so it would give an empty ball, without
    even the center; an infinite radius is the whole space."""
    with pytest.raises(InvalidParams, match="radius must be nonnegative"):
        dl.ball(l3, "a", float("nan"))
    assert dl.ball(l3, "a", float("inf")) == {0, 1, 2}


def test_ball_unknown_point(l3):
    with pytest.raises(UnknownPoint):
        dl.ball(l3, "z", 1.0)
    with pytest.raises(UnknownPoint):
        dl.ball(l3, 7, 1.0)


def test_resolve_refuses_a_non_integer_index():
    """An index is an int or a NumPy integer: ``int`` would truncate 1.5 and
    True to point 1, and 2.9 to point 2.  Each refusal names the value."""
    space = dl.make_space("grid_points", shape=(3,))
    for bad in (1.5, True, False, np.float64(2.9), np.bool_(True), 2.0, None):
        with pytest.raises(UnknownPoint, match=f"^point {re.escape(repr(bad))} is neither"):
            space.resolve(bad)
    assert space.resolve(np.int64(2)) == 2 and type(space.resolve(np.int64(2))) is int
    assert space.resolve(1) == 1 and space.resolve(space.name(2)) == 2


def test_max_ball_occupancy_examples(l3, singleton, two_far):
    assert dl.max_ball_occupancy(l3, 1.0) == 3
    assert dl.max_ball_occupancy(singleton, 1.0) == 1
    assert dl.max_ball_occupancy(two_far, 1.0) == 1
    # the ball is open: two points exactly the radius apart share none
    assert dl.max_ball_occupancy(two_far, 2.0) == 1
    assert dl.max_ball_occupancy(two_far, np.nextafter(2.0, np.inf)) == 2


def test_max_ball_occupancy_refuses_nan_radius(l3):
    with pytest.raises(InvalidParams, match="radius must be positive"):
        dl.max_ball_occupancy(l3, float("nan"))
    assert dl.max_ball_occupancy(l3, float("inf")) == 3


@settings(max_examples=30, deadline=None)
@given(valid_spaces(), st.floats(0.1, 5.0), st.floats(0.0, 5.0))
def test_occupancy_monotone_in_radius(space, r, bump):
    assert dl.max_ball_occupancy(space, r) <= dl.max_ball_occupancy(space, r + bump)


def test_set_distance_empty_is_infinite(l3):
    assert dl.set_distance(l3, [0], []) == math.inf
    assert dl.set_distance(l3, [], [1]) == math.inf
    assert dl.set_distance(l3, [0], [2]) == 1.0


# --- generators ----------------------------------------------------------------------

def test_tree_star():
    star = dl.make_space("tree", branching=3, height=1)
    assert len(star) == 4
    root = star.index("r")
    leaves = [i for i in range(4) if i != root]
    assert all(star.distance(root, i) == 1.0 for i in leaves)
    assert star.distance(leaves[0], leaves[1]) == 2.0


# the tree builder before the path product, kept as its oracle: it grows the
# paths breadth first and walks each pair's common prefix by hand
def reference_tree_space(branching: int, height: int) -> dl.FiniteMetricSpace:
    paths: list[tuple[int, ...]] = [()]
    frontier = [()]
    for _ in range(height):
        nxt = []
        for p in frontier:
            for c in range(branching):
                nxt.append(p + (c,))
        paths.extend(nxt)
        frontier = nxt
    n = len(paths)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = paths[i], paths[j]
            lca = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                lca += 1
            d[i, j] = d[j, i] = (len(a) - lca) + (len(b) - lca)
    names = ["r" + "".join(f".{c}" for c in p) for p in paths]
    return dl.FiniteMetricSpace(names, d)


def test_tree_space_matches_reference():
    """Names, their order and the distance matrix, for branching 1-4 and
    height 0-4."""
    for branching in range(1, 5):
        for height in range(5):
            got = dl.make_space("tree", branching=branching, height=height)
            want = reference_tree_space(branching, height)
            assert got.points == want.points
            assert np.array_equal(got.d, want.d)


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


def test_make_space_refuses_unknown_keys():
    """A misspelt key used to be dropped, so the cascade below came back as a
    uniform cloud."""
    base = dl.validate_metric([[0, 1], [1, 0]])
    for kind, params, key in [("random_cloud", dict(seed=1, n=5, levles=3), "levles"),
                              ("tree", dict(branching=2, height=1, depth=3), "depth"),
                              ("grid_points", dict(shape=(2,), spaceing=2.0), "spaceing"),
                              ("snowflake", dict(base=base, alpha=0.5, beta=1), "beta")]:
        with pytest.raises(InvalidParams, match=key):
            dl.make_space(kind, **params)


def test_make_space_refuses_counts_that_are_no_integers():
    """Seeds, counts and extents follow one integer rule: ``int`` built
    branching 2 for 2.7 and 4 points for 4.9, True drew the seed-1 cloud, and
    NumPy refused 2.5 and -1 with bare errors, as iterating refused a shape
    of one int.  A count or an extent is at least 1 and a height at least 0,
    read by the same rule.  NumPy integers are integers."""
    for kind, params, message in [
            ("tree", dict(branching=2.7, height=1), "branching must be an integer >= 1, got 2.7"),
            ("tree", dict(branching=2, height=1.0), "height must be an integer >= 0, got 1.0"),
            ("tree", dict(branching=0, height=1), "branching must be an integer >= 1, got 0"),
            ("tree", dict(branching=2, height=-1), "height must be an integer >= 0, got -1"),
            ("grid_points", dict(shape=(2, 2.5)),
             "shape extent must be an integer >= 1, got 2.5"),
            ("grid_points", dict(shape=(2, 0)), "shape extent must be an integer >= 1, got 0"),
            ("grid_points", dict(shape=(-1,)), "shape extent must be an integer >= 1, got -1"),
            ("grid_points", dict(shape=()), "grid shape must have at least one extent"),
            ("grid_points", dict(shape=3), "shape must be a sequence of extents, got 3"),
            ("random_cloud", dict(seed=True, n=5), "seed must be an integer >= 0, got True"),
            ("random_cloud", dict(seed=2.5, n=5), "seed must be an integer >= 0, got 2.5"),
            ("random_cloud", dict(seed=-1, n=5), "seed must be an integer >= 0, got -1"),
            ("random_cloud", dict(seed=1, n=4.9), "n must be an integer >= 1, got 4.9"),
            ("random_cloud", dict(seed=1, n=0), "n must be an integer >= 1, got 0"),
            ("random_cloud", dict(seed=1, n=5, dim="2"), "dim must be an integer >= 1, got '2'"),
            ("random_cloud", dict(seed=1, n=5, dim=0), "dim must be an integer >= 1, got 0"),
            ("random_cloud", dict(seed=1, n=5, dim=-1), "dim must be an integer >= 1, got -1"),
            ("random_cloud", dict(seed=1, n=5, levels=2.0), "levels must be an integer, got 2.0"),
            ("random_cloud", dict(seed=1, n=5, levels=2, branching=2.7),
             "branching must be an integer >= 1, got 2.7"),
            ("random_cloud", dict(seed=1, n=5, levels=2, branching=0),
             "branching must be an integer >= 1, got 0")]:
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            dl.make_space(kind, **params)
    with pytest.raises(InvalidParams, match="^branching must be an integer >= 1, got 3.5$"):
        dl.tree_experiment(3.5, 1)
    same = dl.make_space("random_cloud", seed=np.int64(1), n=np.int64(5), dim=np.int64(2))
    assert np.array_equal(same.d, dl.make_space("random_cloud", seed=1, n=5, dim=2).d)
    tree = dl.make_space("tree", branching=np.int64(2), height=np.int64(1))
    assert tree.points == dl.make_space("tree", branching=2, height=1).points


def elbow_forest(elbow):
    rng = np.random.default_rng(0)
    return dl.build_forest(dl.build_nested_grids(elbow, 0.1, 0, rng=rng), rng)


def params():
    """Made at call time: a rule that refused r = 1 must fail a test, not the
    module's collection."""
    return GoodnessParams(delta=0.1, gamma=0.1, r=1)


# (error, name, least, value, a call that refuses the value for the name)
REFUSALS = {
    "trials-bad": (InvalidTrials, "trials", 1, 2.5, lambda elbow: dl.estimate_bad_probability(
        elbow, 2, 0, params(), trials=2.5, seed=0)),
    "trials-decay": (InvalidTrials, "trials", 1, 0, lambda elbow: dl.estimate_boundary_decay(
        elbow, "x", 0, (2e-4,), trials=0, seed=0, params=params())),
    "trials-really-good": (InvalidTrials, "trials", 1, "5",
                           lambda elbow: dl.estimate_really_good(
                               elbow, "x", 2, params(), 0.25, 0.75, trials="5", seed=0)),
    "trials-wilson": (InvalidTrials, "trials", 1, True, lambda elbow: dl.wilson_interval(1, True)),
    "trials-chunked": (InvalidTrials, "trials", 1, 10.0,
                       lambda elbow: run_chunked(None, None, 10.0)),
    "r": (InvalidParams, "r", 1, 0, lambda elbow: GoodnessParams(delta=0.001, gamma=0.1, r=0)),
    "seed-trial-rng": (InvalidParams, "seed", 0, -1, lambda elbow: dl.trial_rng(-1, 0)),
    "trial-index": (InvalidParams, "trial index", 0, 1.5, lambda elbow: dl.trial_rng(0, 1.5)),
    "seed-bad": (InvalidParams, "seed", 0, 2.5, lambda elbow: dl.estimate_bad_probability(
        elbow, 2, 0, params(), trials=10, seed=2.5)),
    "seed-decay": (InvalidParams, "seed", 0, -1, lambda elbow: dl.estimate_boundary_decay(
        elbow, "x", 0, (2e-4,), trials=10, seed=-1, params=params())),
    "seed-really-good": (InvalidParams, "seed", 0, False, lambda elbow: dl.estimate_really_good(
        elbow, "x", 2, params(), 0.25, 0.75, trials=10, seed=False)),
    "seed-make-space": (InvalidParams, "seed", 0, -1,
                        lambda elbow: dl.make_space("random_cloud", seed=-1, n=5)),
    "seed-cli": (argparse.ArgumentTypeError, "seed", 0, -1, lambda elbow: cli._seed("-1")),
    "level-estimator": (InvalidParams, "level", None, 2.0,
                        lambda elbow: dl.estimate_bad_probability(
                            elbow, 2.0, "x", params(), trials=10, seed=0)),
    "level-cube": (InvalidParams, "level", None, 1.0,
                   lambda elbow: elbow_forest(elbow).cube(1.0, 1)),
    "center": (InvalidParams, "center", None, True,
               lambda elbow: elbow_forest(elbow).cube(1, True)),
    "point": (InvalidParams, "point", None, 1.0,
              lambda elbow: elbow_forest(elbow).chain(1.0, 2, 0)),
    # a float height reached ``range`` as a bare TypeError, and a float
    # branching was refused as a tree too large to enumerate
    "tree-branching": (InvalidParams, "branching", 1, 2.5,
                       lambda elbow: dl.tree_experiment(2.5, 9)),
    "tree-height": (InvalidParams, "height", 0, 1.5, lambda elbow: dl.tree_experiment(3, 1.5)),
    "tree-no-branch": (InvalidParams, "branching", 1, 0, lambda elbow: dl.tree_experiment(0, 2)),
}


@pytest.mark.parametrize("error, name, least, value, call", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_integer_refusals_read_one_shape(elbow, error, name, least, value, call):
    """Every integer input is read by one rule, so each refusal reads
    ``<name> must be an integer[ >= least], got <repr>``, in its site's own
    exception class."""
    bound = "" if least is None else f" >= {least}"
    with pytest.raises(error) as refused:
        call(elbow)
    assert type(refused.value) is error
    assert str(refused.value) == f"{name} must be an integer{bound}, got {value!r}"


def test_integer_rule_admits_its_bound():
    """Each bound is inclusive: one trial, seed 0, trial index 0, r = 1, and
    a tree of one branch and height 0 are taken."""
    assert _require_integer("k", -3, -3) == -3
    assert dl.wilson_interval(1, 1)[1] == 1.0
    assert run_chunked(lambda payload, lo, hi: [[[lo, hi]]], None, 1)[0].tolist() == [[0, 1]]
    assert dl.trial_rng(0, 0).random() == np.random.default_rng([0, 0]).random()
    assert GoodnessParams(delta=0.001, gamma=0.1, r=1).r == 1
    assert dl.tree_experiment(1, 0) == 1
    assert cli._seed("0") == 0


def test_rounding_cloud_is_redrawn():
    """The first draw of this cascade breaks the exact triangle check by one
    ulp; it is redrawn, and the result is a metric."""
    space = dl.make_space("random_cloud", seed=1, n=600, dim=2, levels=6,
                          branching=3, ratio=0.1)
    assert len(space) == 600
    dl.validate_metric(space.d)


def test_benchmark_clouds_keep_their_draws(monkeypatch):
    """A cloud is redrawn after a triangle failure only, and no cloud of the
    benchmark has one, so each is built from the same draws as before."""
    failures = []
    build = dl.metric.space_from_coords

    def spy(*args):
        try:
            return build(*args)
        except TriangleViolation:
            failures.append(args)
            raise

    monkeypatch.setattr(dl.metric, "space_from_coords", spy)
    clouds = [dict(seed=10, n=60, dim=2, levels=4, ratio=0.1),
              dict(seed=1, n=200, dim=2, levels=5, ratio=0.01)]
    clouds += [dict(seed=s, n=4 + s % 9, dim=1 + s % 3, scale=2.2, min_sep=0.05)
               for s in range(25)]
    clouds += [dict(seed=100 + i, n=4 + i % 9, dim=2, scale=2.5, min_sep=0.05)
               for i in range(15)]
    for params in clouds:
        dl.make_space("random_cloud", **params)
    assert not failures


def test_cloud_failure_names_the_last_condition(monkeypatch):
    """When every draw fails, the refusal names what the last draw broke."""
    with pytest.raises(InvalidParams, match="min_sep"):
        dl.make_space("random_cloud", seed=0, n=5, min_sep=10.0)

    def rounded(pts):
        raise TriangleViolation(0, 1, 2, 5.551115123125783e-17)

    monkeypatch.setattr(dl.metric, "space_from_coords", rounded)
    with pytest.raises(InvalidParams, match="triangle check.*by 5.55"):
        dl.make_space("random_cloud", seed=0, n=5)


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


@pytest.mark.parametrize("text, points", [
    ("a,0,0\nb,1,0\nc,0,1\n", ("a", "b", "c")),  # named rows, no header
    ("a,0\n", ("a",)),
    ("x,y\n0,0\n1,0\n", ("p0", "p1")),
    ("x\n0\n1\n", ("p0", "p1")),
    ("0,0\n1,0\n", ("p0", "p1")),
])
def test_csv_first_row_is_a_header_only_when_it_cannot_be_data(tmp_path, text, points):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    assert dl.load_space(str(path)).points == points


def test_rescale(l3):
    half = l3.rescale(0.5)
    assert half.distance("a", "c") == 2.0
    assert half.points == l3.points


@pytest.mark.parametrize("factor", [float("nan"), float("inf")])
def test_rescale_refuses_non_finite_factor(l3, factor):
    with pytest.raises(InvalidParams, match="positive"):
        l3.rescale(factor)


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


# validate_metric before its dead exclusion filter was dropped, kept verbatim
# as the oracle for any rewrite of the checks
def reference_validate_metric(matrix, points=None) -> dl.FiniteMetricSpace:
    """Validate a square matrix against the metric axioms.

    Checks, in order: shape, nonnegativity, zero diagonal, symmetry, absence
    of duplicate points, and the triangle inequality.  The first violation
    found is raised with its witness indices; the triangle check reports the
    lexicographically smallest violating triple (i, j, k) with
    dist(i,k) > dist(i,j) + dist(j,k).
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidParams(f"matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if points is None:
        points = [f"p{i}" for i in range(n)]
    if len(points) != n:
        raise InvalidParams("points list length must match the matrix size")
    if len(set(points)) != n:
        raise InvalidParams("point names must be distinct")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidParams("distances must be finite and nonnegative")
    for i in range(n):
        if d[i, i] != 0:
            raise NonzeroDiagonal(i, float(d[i, i]))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] != d[j, i]:
                raise AsymmetricMatrix(i, j, float(d[i, j]), float(d[j, i]))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] == 0:
                raise DuplicatePoint(i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # d[i,k] <= d[i,j] + d[j,k] for all k; find smallest violating k
            bad = np.flatnonzero(d[i] > d[i, j] + d[j])
            bad = [k for k in bad if k != i and k != j]
            if bad:
                k = int(bad[0])
                raise TriangleViolation(i, j, k, float(d[i, k] - (d[i, j] + d[j, k])))
    return dl.FiniteMetricSpace(points, d)


def perturbed_matrix(rng: np.random.Generator) -> np.ndarray:
    """A Euclidean cloud of 2-12 points with zero to three random edits, each
    of which may break the diagonal, symmetry, distinctness or the triangle
    inequality."""
    n = int(rng.integers(2, 13))
    d = dl.space_from_coords(rng.uniform(0, 10, size=(n, 2))).d.copy()
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        kind = int(rng.integers(4))
        if kind == 0:
            d[i, i] = float(rng.choice([0.0, 0.25]))
        elif kind == 1:
            d[i, j] += float(rng.uniform(0, 1))
        elif kind == 2 and i != j:
            d[i, j] = d[j, i] = 0.0
        elif i != j:
            d[i, j] = d[j, i] = d[i, j] * float(rng.uniform(0.2, 3.0))
    return d


def outcome(validate, matrix):
    try:
        return ("ok", validate(matrix).d.tolist())
    except MetricValidationError as exc:
        return (type(exc).__name__, str(exc))


def test_validate_metric_matches_reference():
    rng = np.random.default_rng(2024)
    kinds = set()
    for _ in range(1500):
        d = perturbed_matrix(rng)
        got = outcome(dl.validate_metric, d)
        assert got == outcome(reference_validate_metric, d)
        kinds.add(got[0])
    assert kinds == {"ok", "NonzeroDiagonal", "AsymmetricMatrix", "DuplicatePoint",
                     "TriangleViolation"}


def late_edit_matrix(rng: np.random.Generator, triangle_only: bool,
                     sizes: tuple[int, int] = (30, 81)) -> np.ndarray:
    """A Euclidean cloud of ``sizes`` points, a half-open range (30-80 by
    default), with one to four edits, each placed in the later half of the
    rows, so that a scan must pass many valid rows first.  With
    ``triangle_only``, two to four edits each stretch or shrink one symmetric
    pair, which breaks the triangle inequality at several triples: a
    stretched pair (i, j) only in rows i and j, a shrunk one in rows
    anywhere."""
    n = int(rng.integers(*sizes))
    d = dl.space_from_coords(rng.uniform(0, 10, size=(n, 2))).d.copy()
    for _ in range(int(rng.integers(2, 5) if triangle_only else rng.integers(1, 5))):
        i, j = (int(x) for x in rng.integers(n // 2, n, size=2))
        kind = 3 if triangle_only else int(rng.integers(4))
        if kind == 0:
            d[i, i] = 0.25
        elif kind == 1:
            d[i, j] += float(rng.uniform(0, 1))
        elif kind == 2 and i != j:
            d[i, j] = d[j, i] = 0.0
        elif i != j:
            factor = rng.uniform(0.05, 0.3) if rng.random() < 0.25 else rng.uniform(2.0, 4.0)
            d[i, j] = d[j, i] = d[i, j] * float(factor)
    return d


def triangle_violations(d: np.ndarray) -> np.ndarray:
    """Every (i, j, k) with dist(i,k) > dist(i,j) + dist(j,k), in
    lexicographic order, from the full n x n x n comparison."""
    return np.argwhere(d[:, None, :] > d[:, :, None] + d[None, :, :])


def test_validate_metric_matches_reference_on_late_edits():
    rng = np.random.default_rng(2025)
    kinds = set()
    for _ in range(80):
        d = late_edit_matrix(rng, triangle_only=False)
        got = outcome(dl.validate_metric, d)
        assert got == outcome(reference_validate_metric, d)
        kinds.add(got[0])
    assert kinds == {"ok", "NonzeroDiagonal", "AsymmetricMatrix", "DuplicatePoint",
                     "TriangleViolation"}


def test_triangle_witness_is_smallest_of_several_violations():
    """The witness is the lexicographically smallest of several violating
    triples, both when others share its first index and when they lie in
    other rows: 60 clouds of 30-80 points, and 300 of 3-40 points from three
    more seeds, where the last row pairs make up more of the matrix."""
    for seed, sizes, draws, least in ((2026, (30, 81), 60, (20, 40, 15)),
                                      (2027, (3, 41), 100, (35, 80, 30)),
                                      (2028, (3, 41), 100, (35, 80, 30)),
                                      (2029, (3, 41), 100, (35, 80, 30))):
        rng = np.random.default_rng(seed)
        same_row = other_rows = late_row = 0
        for _ in range(draws):
            d = late_edit_matrix(rng, triangle_only=True, sizes=sizes)
            got = outcome(dl.validate_metric, d)
            assert got == outcome(reference_validate_metric, d)
            triples = triangle_violations(d)
            if not len(triples):
                assert got[0] == "ok"
                continue
            i, j, k = (int(x) for x in triples[0])
            excess = float(d[i, k] - (d[i, j] + d[j, k]))
            assert excess > 0
            assert got == ("TriangleViolation", str(TriangleViolation(i, j, k, excess)))
            same_row += int((triples[1:, 0] == i).any())
            other_rows += int((triples[:, 0] != i).any())
            late_row += int(i >= len(d) // 2)
        assert all(c >= m for c, m in zip((same_row, other_rows, late_row), least))
