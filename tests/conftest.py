"""Shared fixtures: small hand-checked spaces used across the suite, and
``mc``'s probe verdict, cleared around a test."""
import numpy as np
import pytest

from dyadiclab import make_space, mc, space_from_coords, validate_metric


@pytest.fixture(scope="session")
def l3():
    """Three points on a line at 0, 0.5, 1.0."""
    return validate_metric([[0.0, 0.5, 1.0],
                            [0.5, 0.0, 0.5],
                            [1.0, 0.5, 0.0]], points=("a", "b", "c"))


@pytest.fixture(scope="session")
def singleton():
    return validate_metric([[0.0]], points=("p",))


@pytest.fixture(scope="session")
def two_far():
    """Two points at distance 2."""
    return validate_metric([[0.0, 2.0], [2.0, 0.0]], points=("p", "q"))


@pytest.fixture(scope="session")
def elbow():
    """Three collinear points at 0, 0.06, 0.31.

    At scale ratio 0.1 the random construction on this space has exactly
    one coin per stage, and the cube of x at the finest level is bad with
    probability exactly 1/4 (hand enumeration, confirmed by the exact
    outcome enumeration).
    """
    return space_from_coords([[0.0], [0.06], [0.31]], names=("x", "u", "w"))


@pytest.fixture(scope="session")
def ladder():
    """Five points engineered so that at scale ratio 0.1 a point can fall
    into two cubes of the same level (seen e.g. with the shared stream of
    seed 48): the ball around z absorbs w while w's own chain can escape
    along p -> u -> e."""
    return space_from_coords([[0.0], [0.008], [0.0365], [0.28], [2.5]],
                             names=("z", "w", "p", "u", "e"))


def _polar(r, deg):
    a = np.deg2rad(deg)
    return [r * np.cos(a), r * np.sin(a)]


def decay_probe_space():
    """Nine-point self-similar star for boundary-layer decay at ratio 1/1000.

    x carries probes at two scales (w2, w3); each level has a deflector (y*)
    just outside the capture radius and a hop target (y*b), so the probes'
    chains can escape x's cube with positive, scale-decreasing probability.
    Z and E anchor two separate coarse cubes.
    """
    pts = {
        "x": [0.0, 0.0],
        "w3": _polar(1.5e-9, 180),
        "y2": _polar(4e-7, 30),
        "y2b": _polar(1.5e-6, -40),
        "w2": _polar(1.8e-6, 90),
        "y1": _polar(4e-4, 10),
        "y1b": _polar(1.5e-3, -15),
        "Z": _polar(0.4, 0),
        "E": _polar(1.65, 5),
    }
    return space_from_coords(list(pts.values()), names=list(pts))


@pytest.fixture(scope="session")
def decay_probe():
    """The nine-point star of ``decay_probe_space``."""
    return decay_probe_space()


@pytest.fixture(scope="session")
def small_family():
    """The acceptance criterion-1 family: at least 50 spaces with <= 12
    points, made of clouds, trees and snowflakes, labelled as the benchmark
    labels them: ``cloud{seed}``, ``tree{branching}{height}`` and
    ``snow{i}``."""
    spaces = []
    for seed in range(25):
        n = 4 + seed % 9
        dim = 1 + seed % 3
        spaces.append((f"cloud{seed}", make_space(
            "random_cloud", seed=seed, n=n, dim=dim, scale=2.2, min_sep=0.05)))
    for branching, height in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                              (1, 7), (2, 1), (2, 2), (3, 1)]:
        tree = make_space("tree", branching=branching, height=height)
        spaces.append((f"tree{branching}{height}", tree.rescale(2.0)))
    for i in range(15):
        base = make_space("random_cloud", seed=100 + i, n=4 + i % 9,
                          dim=2, scale=2.5, min_sep=0.05)
        alpha = 0.5 if i % 2 == 0 else 0.75
        spaces.append((f"snow{i}", make_space("snowflake", base=base, alpha=alpha)))
    assert len(spaces) >= 50
    assert all(len(s) <= 12 for _, s in spaces)
    return spaces


@pytest.fixture()
def fresh_verdict():
    """``mc._words_match`` with its cached verdict cleared before and after
    the test: a cached False would leak into later tests and make them build
    every trial."""
    words_match = mc._words_match
    words_match.cache_clear()
    yield words_match
    words_match.cache_clear()
