"""Weight characteristic, growth constants, and measure doubling."""

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.errors import DegenerateMeasure, InvalidParams
from dyadiclab.measures import WeightedMeasure, weighted_measure_from_maps


def uniform_wm(n, w=None):
    return WeightedMeasure(mu=np.ones(n), w=np.ones(n) if w is None else np.asarray(w))


def test_characteristic_constant_weight_is_one(l3):
    assert dl.a2_characteristic(l3, uniform_wm(3)) == 1.0


def test_characteristic_two_point_example():
    space = dl.validate_metric([[0, 1], [1, 0]])
    wm = uniform_wm(2, w=[1.0, 4.0])
    # three distinct balls; the full ball gives (5/2) * (5/8)
    assert dl.a2_characteristic(space, wm) == pytest.approx(25 / 16, rel=1e-15)


def test_characteristic_singleton(singleton):
    wm = uniform_wm(1, w=[17.0])
    assert dl.a2_characteristic(singleton, wm) == 1.0


def test_characteristic_at_least_one_and_symmetric():
    rng = np.random.default_rng(5)
    space = dl.space_from_coords(rng.uniform(0, 2, size=(7, 2)))
    for _ in range(50):
        w = rng.uniform(0.1, 10.0, size=7)
        wm = WeightedMeasure(mu=rng.uniform(0.1, 2.0, size=7), w=w)
        value = dl.a2_characteristic(space, wm)
        assert value >= 1.0
        flipped = WeightedMeasure(mu=wm.mu, w=1.0 / w)
        assert dl.a2_characteristic(space, flipped) == pytest.approx(value, rel=1e-9)


def test_weighted_measure_validation():
    with pytest.raises(DegenerateMeasure):
        WeightedMeasure(mu=np.zeros(2), w=np.ones(2))
    with pytest.raises(InvalidParams):
        WeightedMeasure(mu=np.ones(2), w=np.array([1.0, 0.0]))
    with pytest.raises(InvalidParams):
        WeightedMeasure(mu=-np.ones(2), w=np.ones(2))
    # zero weight is fine where the measure vanishes
    WeightedMeasure(mu=np.array([1.0, 0.0]), w=np.array([1.0, 0.0]))


def test_weighted_measure_arrays_are_read_only_copies():
    mu, w = np.ones(3), np.ones(3)
    wm = WeightedMeasure(mu=mu, w=w)
    for arr in (wm.mu, wm.w):
        with pytest.raises(ValueError):
            arr[:] = 0
    mu[:] = 0  # the caller's arrays stay theirs, and writable
    assert wm.mu.tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("call", [
    dl.a2_characteristic,
    lambda space, wm: dl.growth_constant(space, wm, 1.0),
    dl.measure_doubling_constant,
], ids=["a2", "growth", "doubling"])
def test_measure_of_another_space_is_refused(l3, call):
    for n in (2, 4):
        with pytest.raises(InvalidParams, match="masses"):
            call(l3, uniform_wm(n))


def test_growth_two_points():
    space = dl.validate_metric([[0, 1], [1, 0]])
    rep = dl.growth_constant(space, uniform_wm(2), 1.0)
    assert rep.c_min == 2.0
    assert rep.witness_radius == 1.0


def test_growth_singleton_vacuous(singleton):
    rep = dl.growth_constant(singleton, uniform_wm(1), 1.0)
    assert rep.c_min == 0.0


def test_growth_scaling_homogeneity():
    rng = np.random.default_rng(11)
    space = dl.space_from_coords(rng.uniform(0, 3, size=(6, 2)))
    wm = uniform_wm(6, w=rng.uniform(0.5, 2, size=6))
    m = 1.3
    base = dl.growth_constant(space, wm, m).c_min
    for lam in (2.0, 0.5, 3.7):
        scaled = dl.growth_constant(space.rescale(1.0 / lam), wm, m).c_min
        assert scaled == pytest.approx(base * lam ** (-m), rel=1e-12)


def test_growth_requires_positive_exponent(singleton):
    with pytest.raises(InvalidParams):
        dl.growth_constant(singleton, uniform_wm(1), 0.0)


@pytest.mark.parametrize("m", [float("nan"), float("inf")])
def test_growth_refuses_non_finite_exponent(m):
    """1.0 ** nan is 1.0, so a non-finite exponent would pass for a constant."""
    space = dl.validate_metric([[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    with pytest.raises(InvalidParams, match="positive"):
        dl.growth_constant(space, uniform_wm(3), m)


@pytest.mark.parametrize("gap, mass, m", [(2.0, 1.0, 2000.0), (0.06, 1.0, 400.0),
                                          (0.17, 3.0, 400.0)],
                         ids=["power-overflows", "power-is-0", "ratio-overflows"])
def test_growth_refuses_an_exponent_out_of_float_range(gap, mass, m):
    """0.17**400 is subnormal, and 6 / 0.17**400 overflows."""
    space = dl.validate_metric([[0, gap], [gap, 0]])
    with pytest.raises(InvalidParams, match=f"growth exponent {m}"):
        dl.growth_constant(space, WeightedMeasure(mu=np.full(2, mass), w=np.ones(2)), m)


def test_measure_doubling_examples(singleton):
    assert dl.measure_doubling_constant(singleton, uniform_wm(1)) == 1.0
    space = dl.validate_metric([[0, 1], [1, 0]])
    assert dl.measure_doubling_constant(space, uniform_wm(2)) == 1.0


def test_measure_doubling_at_least_one():
    rng = np.random.default_rng(3)
    space = dl.space_from_coords(rng.uniform(0, 4, size=(8, 2)))
    for _ in range(20):
        wm = WeightedMeasure(mu=rng.uniform(0.0, 2.0, size=8) + 1e-3,
                             w=np.ones(8))
        assert dl.measure_doubling_constant(space, wm) >= 1.0


def test_weighted_measure_from_maps(l3):
    wm = weighted_measure_from_maps(l3, {"a": 1, "b": 2, "c": 3},
                                    {"a": 1, "b": 1, "c": 4})
    assert wm.mu.tolist() == [1, 2, 3]
    assert wm.w.tolist() == [1, 1, 4]
    default = weighted_measure_from_maps(l3, None, None)
    assert default.mu.tolist() == [1, 1, 1]


def test_weighted_measure_from_maps_refuses_unknown_point(l3):
    """A key the space lacks is refused by name, not dropped."""
    with pytest.raises(InvalidParams, match="w map names point 'typo'"):
        weighted_measure_from_maps(l3, None, {"a": 1, "b": 1, "c": 1, "typo": 5})


# --- the suprema against their definitions, one mask per (center, radius) --------


def reference_a2_characteristic(space, wm):
    mu, w = wm.mu, wm.w
    winv = np.zeros_like(w)
    positive = mu > 0
    winv[positive] = 1.0 / w[positive]
    best = -np.inf
    for center in range(len(space)):
        row = space.d[center]
        for radius in np.unique(row):
            inside = row <= radius
            mass = mu[inside].sum()
            if mass <= 0:
                continue
            avg_w = float((w[inside] * mu[inside]).sum() / mass)
            avg_winv = float((winv[inside] * mu[inside]).sum() / mass)
            best = max(best, avg_w * avg_winv)
    return best


def reference_growth_constant(space, wm, m):
    radii = space.pairwise_distances()
    best, w_center, w_radius = 0.0, -1, 0.0
    for center in range(len(space)):
        row = space.d[center]
        for r in radii:
            value = float(wm.mu[row <= r].sum() / r ** m)
            if value > best:
                best, w_center, w_radius = value, center, r
    return dl.GrowthReport(m=m, c_min=best, witness_center=w_center,
                           witness_radius=w_radius)


def reference_measure_doubling_constant(space, wm):
    mu = wm.mu
    radii = space.pairwise_distances()
    best = 1.0
    for center in range(len(space)):
        row = space.d[center]
        for r in radii:
            inner = mu[row <= r].sum()
            if inner <= 0:
                continue
            outer = mu[row <= 2 * r].sum()
            best = max(best, float(outer / inner))
    return best


EXPONENTS = (0.5, 1.0, 1.3, 1.7, 2.0, 3.7)


def suprema_family(small_family, singleton, two_far):
    """Clouds, trees and snowflakes; grids, whose distances tie; cascade
    clouds; and the singleton and two-point spaces."""
    spaces = [space for _, space in small_family] + [singleton, two_far]
    spaces += [dl.make_space("grid_points", shape=shape, spacing=spacing)
               for shape, spacing in (((12,), 1.0), ((4, 3), 0.7), ((3, 2, 2), 1.3))]
    spaces += [dl.make_space("tree", branching=2, height=3).rescale(3.0),
               dl.make_space("snowflake", alpha=0.6, base=dl.make_space(
                   "grid_points", shape=(3, 3), spacing=1.0))]
    spaces += [dl.make_space("random_cloud", seed=seed, n=27, dim=2, levels=3,
                             branching=3, ratio=ratio)
               for seed, ratio in ((1, 0.1), (2, 0.01))]
    return spaces


def test_suprema_equal_the_definitions(small_family, singleton, two_far):
    """Every value, growth's witness included, equals the one-mask-per-ball
    definition with ==: unit, random and partly zero masses and weights, and
    the powers r**m taken as Python's pow."""
    rng = np.random.default_rng(24)
    for space in suprema_family(small_family, singleton, two_far):
        n = len(space)
        mu = rng.uniform(0.1, 3.0, size=n)
        holes = mu * (rng.uniform(size=n) < 0.6)
        holes[rng.integers(n)] = 1.5  # some mass, so the measure is valid
        for wm in (uniform_wm(n), WeightedMeasure(mu=mu, w=rng.uniform(0.05, 20, size=n)),
                   WeightedMeasure(mu=holes, w=np.where(holes > 0, mu, 0.0))):
            assert dl.a2_characteristic(space, wm) == reference_a2_characteristic(space, wm)
            assert (dl.measure_doubling_constant(space, wm)
                    == reference_measure_doubling_constant(space, wm))
            for m in EXPONENTS:
                assert dl.growth_constant(space, wm, m) == reference_growth_constant(
                    space, wm, m), (n, m)
