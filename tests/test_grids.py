"""Maximal separated subsets: greedy, exhaustive enumeration, sampling, nesting."""
import itertools
import math
import re
import time

import numpy as np
import pytest

import copy
import gc
import weakref

import dyadiclab as dl
from dyadiclab import grids
from dyadiclab.errors import InvalidParams, TooLargeForExhaustive
from dyadiclab.grids import (DEFAULT_EXHAUSTIVE_LIMIT, Grid, _component_families,
                             _greedy_members, _require_mode, hierarchy_to_json)


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
    """a and c lie exactly k = 1.0 apart, and the scan admits both: the
    separation d >= k is closed."""
    assert _greedy_members(l3, [0, 1, 2], 1.0) == {0, 2}
    assert _greedy_members(l3, [1, 0, 2], 1.0) == {1}


def test_greedy_singleton(singleton):
    assert _greedy_members(singleton, [0], 5.0) == {0}


def test_greedy_output_is_maximal(l3):
    for order in itertools.permutations(range(3)):
        members = _greedy_members(l3, list(order), 1.0)
        assert dl.is_maximal_separated(l3, [0, 1, 2], members, 1.0)


# --- maximality predicate -------------------------------------------------------

def test_is_maximal_separated_trio(l3):
    """{a, c}, exactly k = 1.0 apart, is separated, and c is addable to {a}."""
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
    """Component-factorized enumeration equals the all-subsets filter, on the
    first call and on the second, which reads the space's family memo."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        space = dl.space_from_coords(rng.uniform(0, 4, size=(n, 2)))
        for k in (0.8, 1.5, 2.5):
            want = set(brute_force_maximal(space, range(n), k))
            for _ in range(2):
                got = {g.members for g in dl.enumerate_maximal_separated(
                    space, range(n), k)}
                assert got == want


def brute_force_families(space, base, k):
    """Oracle for ``_component_families``: the components of the graph joining
    distinct base points at distance < k, in order of least point, each with
    every maximal independent subset, sorted by sorted members."""
    base = sorted(base)

    def conflict(a, b):
        return a != b and space.d[a, b] < k

    comps = []
    for p in base:
        if any(p in comp for comp in comps):
            continue
        comp, frontier = {p}, [p]
        while frontier:
            u = frontier.pop()
            for v in base:
                if v not in comp and conflict(u, v):
                    comp.add(v)
                    frontier.append(v)
        comps.append(sorted(comp))
    families = []
    for comp in comps:
        family = [frozenset(sub)
                  for r in range(len(comp) + 1)
                  for sub in itertools.combinations(comp, r)
                  if not any(conflict(a, b) for a, b in itertools.combinations(sub, 2))
                  and all(any(conflict(p, q) for q in sub) for p in comp if p not in sub)]
        families.append(tuple(sorted(family, key=sorted)))
    return tuple(families)


def test_component_families_match_definition_oracle(monkeypatch):
    """The families, their order included (it fixes every draw), are the
    definition's, on the first call and on the memo hit; distances equal to
    k are no conflict, and at k <= 0 every point is its own component."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    cases = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        space = dl.space_from_coords(rng.uniform(0, 4, size=(n, 2)))
        cases += [(space, range(n), k) for k in (0.8, 1.5, 2.5, 0.0, -1.0, np.inf)]
        cases.append((space, [], 1.0))
    line = dl.make_space("grid_points", shape=(6,), spacing=1.0)
    cases += [(line, range(6), k) for k in (1.0, 2.0, 0.0, -1.0, np.inf)]
    cases.append((line, [1, 2, 4, 5], 2.0))
    for space, base, k in cases:
        want = brute_force_families(space, base, k)
        for _ in range(2):
            assert _component_families(space, base, k, DEFAULT_EXHAUSTIVE_LIMIT) == want
    assert _component_families(line, range(6), 0.0, DEFAULT_EXHAUSTIVE_LIMIT) == tuple(
        (frozenset({p}),) for p in range(6))
    assert [g.members for g in dl.enumerate_maximal_separated(line, range(3), 0.0)] == [
        frozenset({0, 1, 2})]


def counting_bron_kerbosch(monkeypatch) -> list:
    """Replace ``_component_mis`` with a wrapper that records the size of
    each component it runs on; returns the record."""
    runs = []
    real = grids._component_mis

    def counted(adj, comp):
        runs.append(len(comp))
        return real(adj, comp)

    monkeypatch.setattr(grids, "_component_mis", counted)
    return runs


def test_component_families_match_the_oracle_on_every_memo_path(monkeypatch):
    """The families are the definition's on a full miss (Bron-Kerbosch on
    each component of two or more points), on a base hit (no run), and on a
    piece hit: a second base that holds the same component at the same scale
    runs only on its new components.  The points a, b, c at 0, 0.5 and 1.0
    are a path a-b-c at scale 0.8 and a triangle at scale 1.5, an isolated
    component at both, so a piece keyed without its scale would give the
    path's family at 1.5."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    runs = counting_bron_kerbosch(monkeypatch)
    space = dl.space_from_coords([[0.0], [0.5], [1.0], [10.0], [10.5], [20.0], [30.0]])
    limit = DEFAULT_EXHAUSTIVE_LIMIT

    def check(base, k, want_runs):
        runs.clear()
        assert _component_families(space, base, k, limit) == brute_force_families(space, base, k)
        assert runs == want_runs

    check(range(6), 0.8, [3, 2])                 # full miss: {a, b, c}, {10, 10.5}; {20} alone
    check(range(6), 0.8, [])                     # base hit
    check([0, 1, 2, 5, 6], 0.8, [])              # piece hit on {a, b, c}, singletons
    check([0, 1, 2, 3, 4, 6], 0.8, [])           # piece hits on both components
    check([0, 1, 2, 4, 5], 1.5, [3])             # the same points at another scale: a miss
    a, b, c = (frozenset({p}) for p in range(3))
    assert _component_families(space, range(3), 0.8, limit) == ((a | c, b),)
    assert _component_families(space, range(3), 1.5, limit) == ((a, b, c),)
    assert set(grids._FAMILIES[space].pieces) == {
        ((0, 1, 2), 0.8), ((3, 4), 0.8), ((0, 1, 2), 1.5)}


def test_enumerate_takes_a_repeated_base_point_once(l3):
    def members(base):
        return [sorted(g.members) for g in dl.enumerate_maximal_separated(l3, base, 1.0)]

    assert members([0, 0, 1, 2]) == members([0, 1, 2]) == [[0, 2], [1]]
    assert members([1, 1]) == members([1]) == [[1]]


def test_enumerate_cap():
    space = dl.make_space("grid_points", shape=(21,), spacing=2.0)
    with pytest.raises(TooLargeForExhaustive):
        dl.enumerate_maximal_separated(space, range(21), 1.0)
    # raising the cap makes the same call legal
    grids = dl.enumerate_maximal_separated(space, range(21), 1.0, limit=25)
    assert len(grids) == 1


def test_family_budget_refuses_a_large_family_fast(monkeypatch):
    """--limit caps a component's size, not its family: one 40-point
    component at scale 0.5 has 32,162 maximal sets.  Bron-Kerbosch is
    stopped as it emits set MAX_FAMILY + 1, well under a second, and nothing
    is memoized for the refused key."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    cloud = dl.make_space("random_cloud", seed=1, n=40, scale=2.2, min_sep=0.05)
    start = time.perf_counter()
    with pytest.raises(TooLargeForExhaustive, match=f"more than {grids.MAX_FAMILY} maximal sets"):
        dl.enumerate_maximal_separated(cloud, range(40), 0.5, limit=40)
    assert time.perf_counter() - start < 1.0
    memo = grids._FAMILIES[cloud]
    assert not memo.bases and not memo.pieces
    # Moon-Moser: no component within the default limit can reach the budget
    assert grids.MAX_FAMILY >= 2 * 3 ** 6


def test_sampler_caps_each_component(monkeypatch):
    """On the line 0, 1, 2, 3, 50, 51 the conflict graph at scale 1.5 has
    components {0, 1, 2, 3} and {50, 51}: a cap of 3 refuses the first and
    memoizes nothing for it, and a cap of 4 samples.  The nested sampler
    refuses the same component at scale 2, the level-(-1) scale of ratio 1/2.
    A refusal keeps no family, not even of the components that fit; and the
    cap is checked before the piece table, so a piece kept under a cap of 4
    does not let a cap of 3 through."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    line = dl.space_from_coords([[0.0], [1.0], [2.0], [3.0], [50.0], [51.0]])
    base, rng = tuple(range(6)), np.random.default_rng(0)
    with pytest.raises(TooLargeForExhaustive,
                       match="component of size 4 exceeds the cap 3"):
        dl.sample_maximal_separated(line, base, 1.5, rng, limit=3)
    assert (base, 1.5, 3) not in grids._FAMILIES[line].bases
    assert not grids._FAMILIES[line].pieces
    grid = dl.sample_maximal_separated(line, base, 1.5, rng, limit=4)
    assert dl.is_maximal_separated(line, base, grid.members, 1.5)
    assert (base, 1.5, 4) in grids._FAMILIES[line].bases
    assert set(grids._FAMILIES[line].pieces) == {((0, 1, 2, 3), 1.5), ((4, 5), 1.5)}
    with pytest.raises(TooLargeForExhaustive,
                       match="component of size 4 exceeds the cap 3"):
        dl.sample_maximal_separated(line, base[:4], 1.5, rng, limit=3)
    with pytest.raises(TooLargeForExhaustive,
                       match="component of size 4 exceeds the cap 3"):
        dl.build_nested_grids(line, 0.5, -1, rng=0, limit=3)
    assert (base, 2.0, 3) not in grids._FAMILIES[line].bases
    assert ((0, 1, 2, 3), 2.0) not in grids._FAMILIES[line].pieces
    assert dl.build_nested_grids(line, 0.5, -1, rng=0, limit=4).levels == (-1, 0, 1)


# --- sampling ----------------------------------------------------------------------

def test_sample_uniform_frequencies(l3):
    """Empirical frequencies over 1e5 draws match uniform within 4 sigma."""
    rng = np.random.default_rng(123)
    trials = 100_000
    counts = {frozenset({0, 2}): 0, frozenset({1}): 0}
    for _ in range(trials):
        g = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng)
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


@pytest.mark.parametrize("mode", grids.MODES)
def test_sample_takes_a_repeated_base_point_once(l3, mode):
    """The same grid, and the generator left in the same state, as on the
    duplicate-free base."""
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (dl.sample_maximal_separated(l3, [0, 0, 1, 2], 1.0, rng, mode=mode)
                == dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, ref, mode=mode))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_greedy_permutation_valid(l3):
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng,
                                        mode="greedy_permutation")
        assert dl.is_maximal_separated(l3, [0, 1, 2], g.members, 1.0)


def lehmer_rank(code) -> int:
    """A scan order's Lehmer code read as a factorial-base number, most
    significant digit first: digit j of an n-digit code has base n - j."""
    rank = 0
    for digit, base in zip(code, range(len(code), 0, -1)):
        rank = rank * base + digit
    return rank


def permutation_at(base, rank: int) -> list:
    """Element ``rank`` of ``itertools.permutations(base)``, found without
    listing the orders before it: they come in blocks of (n - 1)! orders,
    one block per first point in the order of ``base``, and so on within a
    block."""
    order = []
    for left in range(len(base), 0, -1):
        block = math.factorial(left - 1)
        order.append([p for p in base if p not in order][rank // block])
        rank %= block
    return order


def reference_sample_maximal_separated(space, base, k, rng,
                                       mode="exhaustive_uniform",
                                       limit=DEFAULT_EXHAUSTIVE_LIMIT) -> Grid:
    """The sampler with one scalar draw per component, and a greedy scan
    order decoded from its Lehmer code by its factorial-base rank."""
    _require_mode(mode)
    base = sorted(space.resolve(p) for p in base)
    if mode == "greedy_permutation":
        code = rng.integers([len(base) - j for j in range(len(base))]).tolist()
        order = permutation_at(base, lehmer_rank(code))
        return Grid(scale=k, members=_greedy_members(space, order, k))
    families = _component_families(space, base, k, limit)
    members: set[int] = set()
    for fam in families:
        members.update(fam[int(rng.integers(len(fam)))])
    return Grid(scale=k, members=frozenset(members))


@pytest.mark.parametrize("n", range(1, 6))
def test_greedy_sampler_decodes_every_lehmer_code(monkeypatch, n):
    """The greedy sampler draws its scan order in one integers call over the
    bounds n, n - 1, ..., 1, and its decode maps the n! codes onto the n!
    orders of the base: in the codes' order, the orders of
    ``itertools.permutations``, each the oracle's decode."""
    space = dl.space_from_coords([[float(i)] for i in range(2 * n)])
    base = [2 * i + 1 for i in reversed(range(n))]  # the sampler sorts it
    codes = list(itertools.product(*map(range, range(n, 0, -1))))
    orders = []
    monkeypatch.setattr(grids, "_greedy_members",
                        lambda space, order, k: orders.append(order) or frozenset(order))

    class Scripted:
        def integers(self, bounds):
            assert bounds.tolist() == list(range(n, 0, -1))
            return np.array(code)

    for code in codes:
        dl.sample_maximal_separated(space, base, 1.0, Scripted(), mode="greedy_permutation")
    assert orders == [list(order) for order in itertools.permutations(sorted(base))]
    assert orders == [permutation_at(sorted(base), lehmer_rank(code)) for code in codes]


def test_array_draw_equals_scalar_draws_in_order():
    """numpy does not document it, and the one draw call per level rests on
    it: integers over an array of bounds gives the values, and leaves the
    generator in the state, of one scalar call per bound in order.  And a
    bound of 1 draws nothing: one call over every bound gives the values and
    the state of one call over only the bounds above 1, with 0 elsewhere."""
    bounds_rng = np.random.default_rng(2024)
    for seed in range(240):
        bounds = bounds_rng.integers(1, 9, size=1 + seed % 16).tolist()
        rng, ref = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
        assert rng.integers(bounds).tolist() == [int(ref.integers(b)) for b in bounds]
        assert rng.random() == ref.random()
    for seed in range(240):
        bounds = [1] + bounds_rng.integers(1, 4, size=seed % 16).tolist()
        above = [b for b in bounds if b > 1]
        rng, ref = np.random.default_rng([seed, 6]), np.random.default_rng([seed, 6])
        picks = iter(ref.integers(above).tolist() if above else ())
        assert rng.integers(bounds).tolist() == [next(picks) if b > 1 else 0
                                                 for b in bounds]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_matches_reference_stream(elbow, ladder, decay_probe):
    """The same grid from one stream, level by level, and the stream left in
    the same state, for both modes and for the public sampler."""
    cloud = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                          branching=3, ratio=0.1, spread=(0.25, 0.45))
    cases = [(cloud, 0.1, "exhaustive_uniform"), (cloud, 0.1, "greedy_permutation"),
             (elbow, 0.1, "exhaustive_uniform"), (ladder, 0.1, "exhaustive_uniform"),
             (ladder, 0.1, "greedy_permutation"),
             (decay_probe, 0.001, "exhaustive_uniform")]
    for space, delta, mode in cases:
        for seed in range(6):
            rng = np.random.default_rng(seed)
            ref = copy.deepcopy(rng)
            h = dl.build_nested_grids(space, delta, 0, rng, mode=mode)
            for k in reversed(h.levels[:-1]):
                base = [space.name(p) for p in sorted(h.grid(k + 1).members)]
                before = copy.deepcopy(ref)
                want = reference_sample_maximal_separated(space, base, delta ** k,
                                                          ref, mode=mode)
                assert h.grid(k) == want
                assert dl.sample_maximal_separated(space, base, delta ** k, before,
                                                   mode=mode) == want
                assert before.bit_generator.state == ref.bit_generator.state
            assert rng.integers(2 ** 62) == ref.integers(2 ** 62)


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


def test_coarsest_level_must_be_an_integer(elbow):
    """A level is an int or a NumPy integer, of either sign: ``range`` would
    refuse 0.5 with a bare TypeError, and True would frame a hierarchy from
    level 1."""
    with pytest.raises(InvalidParams, match="^level must be an integer, got True$"):
        dl.finest_level(elbow, 0.1, True)
    with pytest.raises(InvalidParams, match="^level must be an integer, got 0.5$"):
        dl.build_nested_grids(elbow, 0.1, 0.5, 1)
    assert dl.finest_level(elbow, 0.1, np.int64(0)) == dl.finest_level(elbow, 0.1, -1) == 2
    assert dl.build_nested_grids(elbow, 0.1, -1, 1).levels == (-1, 0, 1, 2)


@pytest.mark.parametrize("md, delta, finest", [(1e308, 0.001, -102),
                                               (1.7e308, 0.5, -1023)])
def test_finest_level_near_the_float_maximum(md, delta, finest):
    """A power of delta past the float maximum counts as +inf, so the least
    distance still frames the hierarchy instead of raising OverflowError."""
    space = dl.validate_metric([[0, md], [md, 0]])
    with pytest.raises(InvalidParams, match=f"finer than the finest level {finest}$"):
        dl.finest_level(space, delta, 0)
    assert dl.finest_level(space, delta, finest) == finest


def reference_finest_level(md: float, delta: float) -> int:
    """The least integer M with delta**M below md, by a walk from 0."""
    m = 0
    while delta ** m >= md:
        m += 1
    while delta ** (m - 1) < md:
        m -= 1
    return m


def test_finest_level_corrects_its_logarithm_guess():
    """The guess floor(log(md)/log(delta)) + 1 is one short at md = 0.3**4,
    where 0.3**4 is not below md, and one too high at md = 0.1 plus one ulp,
    where 0.1 already is; both correction loops are needed.  Powers of delta
    and their float neighbours are checked against the definition too."""
    assert reference_finest_level(0.3 ** 4, 0.3) == 5
    assert reference_finest_level(0.10000000000000002, 0.1) == 1
    cases = [(0.3 ** 4, 0.3), (0.10000000000000002, 0.1)]
    for delta in (0.1, 0.3, 0.5, 0.7):
        for j in range(-3, 9):
            p = delta ** j
            cases += [(float(md), delta) for md in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))]
    for md, delta in cases:
        space = dl.validate_metric([[0, md], [md, 0]])
        assert dl.finest_level(space, delta, -30) == reference_finest_level(md, delta), (md, delta)


def test_finest_level_refuses_more_levels_than_the_cap(elbow):
    """At delta = 0.9999999 the elbow's least distance, 0.06, lies 28,134,106
    levels down, and a hierarchy that deep grows past 3 GB as it is built;
    the level count is refused first.  Exactly ``MAX_LEVELS`` levels pass."""
    cap = grids.MAX_LEVELS
    with pytest.raises(InvalidParams, match=f"^levels 0 to 28134106 make 28134107 levels, "
                                            f"more than the {cap} a hierarchy may have$"):
        dl.finest_level(elbow, 0.9999999, 0)
    top = dl.finest_level(elbow, 0.5, 0)
    assert dl.finest_level(elbow, 0.5, top - cap + 1) == top
    with pytest.raises(InvalidParams, match=f"make {cap + 1} levels"):
        dl.finest_level(elbow, 0.5, top - cap)


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


@pytest.mark.parametrize("limit", [float("nan"), "20", None, True, 0, 20.0])
def test_a_limit_that_is_no_integer_of_at_least_one_is_refused(l3, limit):
    """The exhaustive cap follows the integer rule at every entry point that
    takes one, before any draw: NaN turned the cap off, "20" and None raised
    a bare TypeError, and True acted as 1; the greedy sampler, which reads
    no cap, refuses it too."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    refused = f"^limit must be an integer >= 1, got {re.escape(repr(limit))}$"
    for call in [lambda: dl.enumerate_maximal_separated(l3, [0, 1, 2], 1.0, limit=limit),
                 lambda: dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng, limit=limit),
                 lambda: dl.sample_maximal_separated(l3, [0, 1, 2], 1.0, rng,
                                                     mode="greedy_permutation", limit=limit),
                 lambda: dl.build_nested_grids(l3, 0.1, 0, rng, limit=limit),
                 lambda: dl.enumerate_forest_outcomes(l3, 0.1, 0, limit=limit),
                 lambda: dl.enumerate_proper_colorings(l3, limit=limit),
                 lambda: dl.tree_experiment(3, 1, limit=limit)]:
        with pytest.raises(InvalidParams, match=refused):
            call()
    assert rng.bit_generator.state == state


def test_freeze_above_is_an_integer_or_none(l3):
    """NaN froze nothing and "1" raised a bare TypeError; a NumPy integer
    freezes as the int does."""
    for freeze_above in [float("nan"), "1", 1.0, True]:
        with pytest.raises(InvalidParams, match="^freeze_above must be an integer, got "):
            dl.build_nested_grids(l3, 0.1, 0, 0, freeze_above=freeze_above)
    assert (dl.build_nested_grids(l3, 0.1, 0, 3, freeze_above=np.int64(1))
            == dl.build_nested_grids(l3, 0.1, 0, 3, freeze_above=1))


@pytest.mark.parametrize("call", [
    lambda l3, k, rng: dl.sample_maximal_separated(l3, [0, 1, 2], k, rng,
                                                   mode="greedy_permutation"),
    lambda l3, k, rng: dl.is_maximal_separated(l3, [0, 1, 2], [0], k),
    lambda l3, k, rng: dl.enumerate_maximal_separated(l3, [0, 1, 2], k),
    lambda l3, k, rng: dl.sample_maximal_separated(l3, [0, 1, 2], k, rng),
], ids=["greedy", "is_maximal", "enumerate", "sample"])
def test_nan_scale_is_refused_before_any_draw(l3, call):
    """Every comparison with a NaN scale is false, so the grid functions
    would each answer differently; the greedy and the uniform sampler, the
    maximality test and the enumeration all refuse it, and draw nothing."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParams, match="NaN"):
        call(l3, float("nan"), rng)
    assert rng.bit_generator.state == state


# --- the per-space family memo ----------------------------------------------------------

def test_family_memo_dies_with_its_space(monkeypatch):
    """Both tables of a space's entry, the bases and the pieces, go with it."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    space = dl.space_from_coords([[0.0], [0.5], [1.0], [3.0]])
    dl.build_nested_grids(space, 0.5, -2, rng=0)
    dl.enumerate_maximal_separated(space, range(4), 1.0)
    assert len(grids._FAMILIES) == 1
    memo = grids._FAMILIES[space]
    assert memo.bases and memo.pieces
    ref, memo_ref = weakref.ref(space), weakref.ref(memo)
    del space, memo
    gc.collect()
    assert ref() is None
    assert memo_ref() is None
    assert len(grids._FAMILIES) == 0


def test_family_memo_keeps_at_most_its_budget(monkeypatch):
    """Past the budget a space's memo stops growing, and the grids drawn
    are still the reference sampler's."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    monkeypatch.setattr(grids, "_FAMILY_BUDGET", 2)
    space = dl.space_from_coords([[0.0], [0.5], [1.0], [1.5], [3.0]])
    for seed, base in enumerate([range(5), range(4), [0, 2, 3, 4]]):
        got = dl.sample_maximal_separated(space, base, 1.0, np.random.default_rng(seed))
        want = reference_sample_maximal_separated(space, base, 1.0,
                                                  np.random.default_rng(seed))
        assert got == want
    assert len(grids._FAMILIES[space].bases) == 2


def test_piece_memo_keeps_at_most_its_budget(monkeypatch):
    """Past the piece budget the table stops growing, later components run
    Bron-Kerbosch on every call, and the families and the draws are still
    the definition's and the reference sampler's."""
    monkeypatch.setattr(grids, "_FAMILIES", type(grids._FAMILIES)())
    monkeypatch.setattr(grids, "_PIECE_BUDGET", 2)
    runs = counting_bron_kerbosch(monkeypatch)
    space = dl.space_from_coords([[0.0], [0.5], [1.0], [5.0], [5.5], [10.0], [10.6], [11.2]])
    bases = [range(8), [0, 1, 2, 3, 4], [3, 4, 5, 6, 7], [0, 1, 5, 6, 7], range(8)]
    for seed, base in enumerate(bases):
        assert _component_families(space, base, 0.8, DEFAULT_EXHAUSTIVE_LIMIT) == \
            brute_force_families(space, base, 0.8)
        got = dl.sample_maximal_separated(space, base, 0.8, np.random.default_rng(seed))
        want = reference_sample_maximal_separated(space, base, 0.8,
                                                  np.random.default_rng(seed))
        assert got == want
    assert set(grids._FAMILIES[space].pieces) == {((0, 1, 2), 0.8), ((3, 4), 0.8)}
    # {10, 10.6, 11.2} is met in the first base, past the budget, so it runs
    # again in the third; {0, 0.5} is new in the fourth; the fifth is a base hit
    assert runs == [3, 2, 3, 3, 2, 3]


def test_hierarchy_serialization(l3):
    h = dl.build_nested_grids(l3, 0.1, 0, rng=0)
    payload = hierarchy_to_json(h)
    assert payload["delta"] == 0.1
    assert [lev["level"] for lev in payload["levels"]] == list(h.levels)
    assert payload["levels"][-1]["members"] == ["a", "b", "c"]
