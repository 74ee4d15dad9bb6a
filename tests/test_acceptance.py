"""Acceptance suite: one test per verification target, at its stated tolerance.

Each test prints one `[ACCEPTANCE] ...: PASS/FAIL` line (run with `-s` to see
them on success).  Tolerances are pinned here, not configurable:

  1  exact membership floor 2**-d on >= 50 small spaces, under 60 s
  2  recoloring injectivity exhaustive over the same family
  3  ternary tree root probability, exact rational > 1/16
  4  covering with constant 3 and cube cover over 100 seeded hierarchies
  5  structural invariants (capture uniqueness, ancestor <= 10*scale,
     nesting, diameter <= 21*scale) over the same 100 runs
  6  chain separation: zero violating pairs at ratio 1/1000, non-vacuously
  7  Wilson 95% upper bound on P(bad) <= 1/2 at 10^4 trials
  8  boundary-layer estimates monotone with positive fitted exponent
  9  equalization: exact rational identity and 4-sigma frequency match
  10 weight characteristic exact at 1, >= 1 with inversion symmetry over
     1000 weight vectors, growth homogeneity to machine precision

An agreement harness rides along: on the family's spaces of at most 7
points, the exact P(bad) lies in the 95% Wilson interval of 400 trials on
all but at most the 99.5th percentile of Binomial(#spaces, 0.05) of them.
"""
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.coloring import is_proper
from dyadiclab.goodness import (
    GoodnessParams,
    estimate_bad_probability,
    estimate_boundary_decay,
    estimate_really_good,
)
from dyadiclab.lattice import enumerate_forest_outcomes
from dyadiclab.measures import WeightedMeasure
from report_corpus import DIGESTS, criterion_7_cloud


def report(criterion, ok, detail):
    line = f"[ACCEPTANCE] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --- shared space families ----------------------------------------------------------


@pytest.fixture(scope="module")
def hundred_forests(decay_probe, ladder):
    """100 seeded hierarchies/forests, n <= 200, at ratios 0.1 and 1/1000."""
    runs = []
    for i in range(42):  # ratio 0.1 clouds, up to 200 points
        n = 20 + (i * 37) % 181
        dim = 1 + i % 3
        # a separation target must shrink with density to stay samplable
        sep = min(0.02, 0.35 / n) if dim >= 2 else 1e-5
        space = dl.make_space("random_cloud", seed=300 + i, n=n,
                              dim=dim, min_sep=sep, scale=1.0)
        runs.append((space, 0.1, 300 + i))
    for i in range(4):
        tree = dl.make_space("tree", branching=2, height=3 + i % 2)
        runs.append((tree.rescale(20.0), 0.1, 400 + i))
    for i in range(4):
        base = dl.make_space("random_cloud", seed=420 + i, n=30, dim=2,
                             min_sep=0.05, scale=2.0)
        runs.append((dl.make_space("snowflake", base=base, alpha=0.6),
                     0.1, 420 + i))
    for i in range(35):  # ratio 1/1000 clouds
        n = 20 + (i * 53) % 181
        dim = 1 + i % 2
        sep = min(0.005, 0.35 / n) if dim >= 2 else 1e-5
        space = dl.make_space("random_cloud", seed=500 + i, n=n,
                              dim=dim, min_sep=sep, scale=1.0)
        runs.append((space, 0.001, 500 + i))
    for i in range(10):  # the decay probe exercises deep 1/1000 hierarchies
        runs.append((decay_probe, 0.001, 600 + i))
    for i in range(5):
        runs.append((ladder, 0.1, 700 + i))
    assert len(runs) == 100

    forests = []
    for space, delta, seed in runs:
        rng = np.random.default_rng(seed)
        mode = "exhaustive_uniform" if len(space) <= 20 else "greedy_permutation"
        hierarchy = dl.build_nested_grids(space, delta, 0, rng=rng, mode=mode)
        forests.append(dl.build_forest(hierarchy, rng))
    return forests


# --- criterion 1: membership floor --------------------------------------------------


def brute_force_proper(space):
    n = len(space)
    found = set()
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if is_proper(space, combo):
                found.add(frozenset(combo))
    return found


def test_criterion_1_membership_floor(small_family):
    start = time.monotonic()
    paper_holds = paper_total = 0
    worst = Fraction(1)
    for label, space in small_family:
        universe = dl.enumerate_proper_colorings(space)
        assert {c.red for c in universe.colorings} == brute_force_proper(space)
        floor = Fraction(1, 2 ** universe.d)
        paper_floor = Fraction(1, 2 ** max(universe.d - 1, 0))
        for v in range(len(space)):
            prob = dl.membership_probability(universe, v)
            assert prob >= floor, (label, v, prob, floor)
            worst = min(worst, prob)
            paper_total += 1
            paper_holds += prob >= paper_floor
    elapsed = time.monotonic() - start
    report(1, elapsed < 60.0,
           f"{len(small_family)} spaces, min probability {worst}, "
           f"paper floor 2^(1-d) held {paper_holds}/{paper_total}, "
           f"{elapsed:.1f}s")


# --- criterion 2: recoloring injectivity ----------------------------------------------


def test_criterion_2_recoloring_injective(small_family):
    checked = 0
    for label, space in small_family:
        universe = dl.enumerate_proper_colorings(space)
        for v in range(len(space)):
            rep = dl.verify_recoloring_injective(universe, v)
            assert rep.ok, (label, v)
            assert all(size <= rep.card_b for size in rep.class_sizes.values())
            checked += rep.checked
    report(2, True, f"{checked} recolorings, zero violations")


# --- criterion 3: ternary tree ----------------------------------------------------------


def test_criterion_3_tree_probability():
    prob = dl.tree_experiment(3, 2)
    # independent oracle: enumerate subsets of the 13-vertex tree directly
    tree = dl.make_space("tree", branching=3, height=2)
    oracle = brute_force_proper(tree.rescale(2.0))
    root = tree.index("r")
    expect = Fraction(sum(1 for red in oracle if root in red), len(oracle))
    assert prob == expect
    report(3, prob > Fraction(1, 16), f"P(root red) = {prob} > 1/16")


# --- criteria 4 and 5: covering and structure over 100 runs -------------------------------


def test_criterion_4_covering_lemmas(hundred_forests):
    worst_ratio = 0.0
    for forest in hundred_forests:
        h = forest.hierarchy
        for level in h.levels:
            rep = dl.check_grid_cover(h, level)      # raises beyond 3 * scale
            worst_ratio = max(worst_ratio, rep.max_distance / h.scale(level))
            dl.check_cube_cover(forest, level)       # raises on uncovered point
    report(4, True,
           f"100 hierarchies, worst covering radius {worst_ratio:.3f} * scale <= 3")


def test_criterion_5_structural_invariants(hundred_forests):
    worst_anc = worst_diam = 0.0
    for forest in hundred_forests:
        rep = dl.check_forest_invariants(forest)
        assert rep.ok, rep.violations[:3]
        worst_anc = max(worst_anc, rep.max_ancestor_ratio)
        worst_diam = max(worst_diam, rep.max_diameter_ratio)
    report(5, worst_anc <= 10.0 and worst_diam <= 21.0,
           f"ancestor <= {worst_anc:.3f} * scale (bound 10), "
           f"diameter <= {worst_diam:.3f} * scale (bound 21)")


# --- criterion 6: chain separation ---------------------------------------------------------


def test_criterion_6_chain_separation(hundred_forests):
    verified = vacuous = 0
    for forest in hundred_forests:
        if forest.delta > 1.0 / 1000.0:
            continue
        scan = dl.scan_chain_separation(forest)
        assert scan.ok, scan.violations[:3]
        verified += scan.verified
        vacuous += scan.vacuous
    report(6, verified > 0,
           f"{verified} chains verified (plus {vacuous} vacuous), zero violations")


# --- criterion 7: bad-cube probability -------------------------------------------------------


def test_criterion_7_bad_probability():
    space = criterion_7_cloud()
    params = GoodnessParams(delta=0.1, gamma=0.1, r=1)
    level = dl.finest_level(space, params.delta, 0)
    start = time.monotonic()
    est = estimate_bad_probability(space, level, 0, params,
                                   trials=10_000, seed=42)
    elapsed = time.monotonic() - start
    assert est.step_violations == 0
    # the byte-identical contract pins the draws: the bad count recorded
    # with the report digests
    assert est.bad_count == json.loads(DIGESTS.read_text())["criterion_7_bad_count"]
    report(7, est.wilson_high <= 0.5 and elapsed < 600.0,
           f"bad fraction {est.fraction:.4f}, Wilson upper {est.wilson_high:.4f}"
           f" <= 0.5, {elapsed:.0f}s")


def binomial_quantile(n: int, p: float, q: float) -> int:
    """Least k with P(Binomial(n, p) <= k) >= q."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        if cdf >= q:
            return k
    return n


def test_exact_and_monte_carlo_bad_probability_agree(small_family):
    params = GoodnessParams(delta=0.1, gamma=0.1, r=1)
    misses, spaces = [], 0
    for index, (label, space) in enumerate(small_family):
        if len(space) > 7:
            continue
        spaces += 1
        level = dl.finest_level(space, params.delta, 0)
        exact_bad = 1 - dl.exact_good_probability(space, 0, level, params)
        est = estimate_bad_probability(space, level, 0, params, trials=400,
                                       seed=index)
        if not est.wilson_low <= exact_bad <= est.wilson_high:
            misses.append((index, label, exact_bad, est.fraction))
    allowed = binomial_quantile(spaces, 0.05, 0.995)
    assert spaces >= 20
    assert len(misses) <= allowed, (spaces, allowed, misses)


# --- criterion 8: boundary decay ---------------------------------------------------------------


def test_criterion_8_boundary_decay(decay_probe):
    params = GoodnessParams(delta=0.001, gamma=0.1, r=1)
    fit = estimate_boundary_decay(decay_probe, "x", 0, (2e-6, 4e-9, 8e-12),
                                  trials=4000, seed=7, params=params)
    monotone = all(a >= b for a, b in zip(fit.estimates, fit.estimates[1:]))
    positive = fit.estimates[0] > 0 and fit.eta_hat is not None and fit.eta_hat > 0
    report(8, monotone and positive,
           f"estimates {fit.estimates}, eta_hat {fit.eta_hat:.3f} > 0, "
           f"reference {fit.eta_reference}")


# --- criterion 9: equalization -------------------------------------------------------------------


def test_criterion_9_equalization(elbow):
    params = GoodnessParams(delta=0.1, gamma=0.1, r=1)
    outcomes = enumerate_forest_outcomes(elbow, params.delta, 0)
    assert sum(p for _, p in outcomes) == 1
    p_q = Fraction(0)
    for forest, prob in outcomes:
        cube = forest.cube(2, 0)
        if dl.is_good(forest, cube, params):
            p_q += prob
    assert p_q == Fraction(3, 4)
    a = Fraction(1, 2 ** dl.max_ball_occupancy(elbow, params.delta ** 1))
    assert a == Fraction(1, 4)
    # the rational identity: P(really good) = P(good) * (a / p_q) = a exactly
    assert p_q * (a / p_q) == a
    trials = 100_000
    freq = estimate_really_good(elbow, "x", 2, params, float(a), float(p_q),
                                trials=trials, seed=3)
    sigma = math.sqrt(float(a) * (1 - float(a)) / trials)
    report(9, abs(freq - float(a)) <= 4 * sigma,
           f"exact P(really good) = {a}; frequency {freq:.5f} within "
           f"4 sigma = {4 * sigma:.5f}")


# --- criterion 10: weights and measures ------------------------------------------------------------


def test_criterion_10_measures():
    rng = np.random.default_rng(2718)
    space = dl.space_from_coords(rng.uniform(0, 2, size=(8, 2)))
    flat = WeightedMeasure(mu=np.ones(8), w=np.ones(8))
    assert dl.a2_characteristic(space, flat) == 1.0

    sym_worst = 0.0
    for _ in range(1000):
        w = rng.uniform(0.05, 20.0, size=8)
        mu = rng.uniform(0.1, 3.0, size=8)
        value = dl.a2_characteristic(space, WeightedMeasure(mu=mu, w=w))
        assert value >= 1.0
        flipped = dl.a2_characteristic(space, WeightedMeasure(mu=mu, w=1.0 / w))
        sym_worst = max(sym_worst, abs(value - flipped) / value)
    assert sym_worst < 1e-9

    wm = WeightedMeasure(mu=rng.uniform(0.5, 2, size=8), w=np.ones(8))
    m = 1.7
    base = dl.growth_constant(space, wm, m).c_min
    hom_worst = 0.0
    for lam in (2.0, 0.5, 3.7, 11.0):
        scaled = dl.growth_constant(space.rescale(1.0 / lam), wm, m).c_min
        hom_worst = max(hom_worst, abs(scaled - base * lam ** (-m)) / scaled)
    report(10, hom_worst < 1e-12,
           f"characteristic exact at 1; symmetry gap {sym_worst:.2e}; "
           f"homogeneity gap {hom_worst:.2e}")
