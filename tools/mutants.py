"""Flip each pinned threshold rule in a copy of the code and check that its tests fail.

Each row of ``MUTANTS`` names a file under the repository root, a source text
that occurs exactly once in it, the flipped text, and the pytest node ids
expected to fail against the flip.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, first runs every named test on
the unchanged copy (they must pass), then applies one row at a time and runs
its ids with ``-x``.  A mutant is killed when pytest reports a failed test
(exit code 1).  The script exits 1 if a mutant survives, if its text is not
found exactly once, or if the unchanged copy fails.  It is not part of the
tier-1 suite.  Run from the repository root:

    python tools/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOODNESS = "src/dyadiclab/goodness.py"
LATTICE = "src/dyadiclab/lattice.py"
GRIDS = "src/dyadiclab/grids.py"
METRIC = "src/dyadiclab/metric.py"
MC = "src/dyadiclab/mc.py"
T_GOODNESS = "tests/test_goodness.py::"
T_LATTICE = "tests/test_lattice.py::"
T_GRIDS = "tests/test_grids.py::"
T_METRIC = "tests/test_metric.py::"

# (name, file, source text, flipped text, node ids expected to fail)
MUTANTS = [
    ("straddle near side", GOODNESS,
     "near = row < threshold", "near = row <= threshold",
     [T_GOODNESS + "test_straddle_is_strict_at_the_threshold"]),
    ("straddle near point inside", GOODNESS,
     "(hits > 0) & (hits < near.sum())", "(hits >= 0) & (hits < near.sum())",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("straddle near point outside", GOODNESS,
     "(hits > 0) & (hits < near.sum())", "(hits > 0) & (hits <= near.sum())",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("deep-inside gate", GOODNESS,
     "(forest.space.d[center] <= 2 * threshold)",
     "(forest.space.d[center] < 2 * threshold)",
     [T_GOODNESS + "test_theorem_step_depth_gate"]),
    # the levels tested are those coarser by at least r: the bound moved one
    # level finer, then one level coarser, in the trial core and in the exact walk
    ("r gap in the trial core, finer", GOODNESS,
     "if n > level - params.r:", "if n > level - params.r + 1:",
     [T_GOODNESS + "test_classifiers_match_reference"]),
    ("r gap in the trial core, coarser", GOODNESS,
     "if n > level - params.r:", "if n > level - params.r - 1:",
     [T_GOODNESS + "test_elbow_badness_matches_hand_analysis"]),
    ("r gap in the exact walk, finer", GOODNESS,
     "if lev - 1 <= level - params.r:", "if lev - 1 <= level - params.r + 1:",
     [T_GOODNESS + "test_exact_good_probability_matches_reference"]),
    ("r gap in the exact walk, coarser", GOODNESS,
     "if lev - 1 <= level - params.r:", "if lev - 1 <= level - params.r - 1:",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("decay layer", GOODNESS,
     "int(depth <= eps * scale)", "int(depth < eps * scale)",
     [T_GOODNESS + "test_decay_layer_is_closed_at_its_width"]),
    ("decay layer on every outcome", GOODNESS,
     "int(depth <= eps * scale)", "int(depth < eps * scale)",
     [T_GOODNESS + "test_decay_row_matches_reference_layer_on_every_outcome"]),
    # the trial chunk's guards: the memo's budget, the check of the batched
    # states against trial_rng, and the probe that turns the walk off
    ("miss budget", MC,
     "if paths < _MISS_BUDGET:", "if paths <= _MISS_BUDGET:",
     [T_GOODNESS + "test_trial_chunk_builds_each_forest_once[0-1500]"]),
    ("trial states unchecked", MC,
     "if _lcg(rng) != _pair(first, 0):", "if False:",
     [T_GOODNESS + "test_trial_chunk_refuses_states_that_differ_from_trial_rng"]),
    ("walk always trusted", MC,
     "trust = _words_match(rng, _Outputs(first[:, :1]))", "trust = True",
     [T_GOODNESS + "test_trial_chunk_builds_every_trial_when_the_words_disagree"]),
    # the draws computed from PCG64's words: the buffered high half of an
    # output (in integers, then in permutation, each 32-bit draw taken as a
    # fresh output's low half), the swap draw's bit mask, a coin that must
    # come from a fresh output, and the carry of the jump-ahead's 128-bit sum
    ("integers without the half-word buffer", MC,
     "pos[trials] + np.arange(len(rows))[:, None])",
     "2 * (pos[trials] + np.arange(len(rows))[:, None]))",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    ("permutation without the half-word buffer", MC,
     "outputs.halves(trials[todo], at[todo])", "outputs.halves(trials[todo], 2 * at[todo])",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    ("permutation mask one bit wider", MC,
     "_u64((1 << i.bit_length()) - 1)", "_u64((1 << i.bit_length() + 1) - 1)",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    ("coin from the buffered half", MC,
     "k = (h + 1) >> 1", "k = h >> 1",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    ("128-bit sum without its carry", MC,
     "return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo", "return a_hi + b_hi, lo",
     [T_GOODNESS + "test_outputs_match_the_lcg_past_any_table"]),
    ("conflict", GRIDS,
     "space.d.take(base, 0).take(base, 1) < k]", "space.d.take(base, 0).take(base, 1) <= k]",
     [T_GRIDS + "test_enumerate_l3"]),
    ("capture", LATTICE,
     "captured = d <= coarse.scale / CAPTURE_DIVISOR",
     "captured = d < coarse.scale / CAPTURE_DIVISOR",
     [T_LATTICE + "test_parent_options_match_reference"]),
    ("candidate", LATTICE,
     "d <= CANDIDATE_FACTOR * coarse.scale)", "d < CANDIDATE_FACTOR * coarse.scale)",
     [T_LATTICE + "test_outcomes_match_reference"]),
    ("ball", LATTICE,
     "hierarchy.space.d[centers] < hierarchy.scale(level) / BALL_DIVISOR",
     "hierarchy.space.d[centers] <= hierarchy.scale(level) / BALL_DIVISOR",
     [T_LATTICE + "test_cube_ball_is_open_at_its_radius"]),
    ("cover", LATTICE,
     "if dist[worst] > bound:", "if dist[worst] >= bound:",
     [T_LATTICE + "test_grid_cover_is_closed_at_three_scales"]),
    ("ancestor", LATTICE,
     "(dist > ANCESTOR_FACTOR * scales)", "(dist >= ANCESTOR_FACTOR * scales)",
     [T_LATTICE + "test_forest_invariants_bounds_are_closed"]),
    ("diameter", LATTICE,
     "if diam > DIAMETER_FACTOR * scale:", "if diam >= DIAMETER_FACTOR * scale:",
     [T_LATTICE + "test_forest_invariants_bounds_are_closed"]),
    ("rival gate", LATTICE,
     "near = depth < _widest_eps(h.delta, m) * h.scale(base_level)",
     "near = depth <= _widest_eps(h.delta, m) * h.scale(base_level)",
     [T_LATTICE + "test_chain_scan_rival_gate_is_strict"]),
    # a cube's interior: the points no other cube of its level holds
    ("interior cover count", LATTICE,
     "others == 0", "others <= 1",
     [T_LATTICE + "test_ladder_multi_cover_and_tilde"]),
    ("interior without the own row", LATTICE,
     "others = held.sum(axis=0) - held[rows[cube.center]]", "others = held.sum(axis=0)",
     [T_LATTICE + "test_tilde_single_cube_is_space"]),
    ("occupancy", METRIC,
     "counts = (space.d < radius).sum(axis=1)", "counts = (space.d <= radius).sum(axis=1)",
     [T_METRIC + "test_max_ball_occupancy_examples"]),
    # every integer input's bound is inclusive
    ("integer rule bound", METRIC,
     "i < least", "i <= least",
     [T_METRIC + "test_integer_rule_admits_its_bound"]),
    ("_is_maximal pair", GRIDS,
     "if space.d[a, b] < k:", "if space.d[a, b] <= k:",
     [T_GRIDS + "test_is_maximal_separated_trio"]),
    ("_is_maximal addable", GRIDS,
     "if all(space.d[p, q] >= k for q in sub):", "if all(space.d[p, q] > k for q in sub):",
     [T_GRIDS + "test_is_maximal_separated_trio"]),
    ("_greedy_members", GRIDS,
     "if all(space.d[p, q] >= k for q in chosen):", "if all(space.d[p, q] > k for q in chosen):",
     [T_GRIDS + "test_greedy_orders"]),
]


def pytest_exit(copy: Path, ids: list[str]) -> int:
    """The exit code of pytest over ``ids`` in the copy, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_id = sorted({i for *_, ids in MUTANTS for i in ids})
        code = pytest_exit(copy, every_id)
        if code != 0:
            print(f"the named tests do not all pass on the unchanged copy (pytest exit "
                  f"{code}; 4 means a node id was not found)")
            return 1
        for name, rel, text, flipped, ids in MUTANTS:
            path = copy / rel
            source = path.read_text()
            if source.count(text) != 1:
                verdict = f"source text found {source.count(text)} times, not once"
            else:
                path.write_text(source.replace(text, flipped))
                code = pytest_exit(copy, ids)
                path.write_text(source)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{name}: {verdict}", flush=True)
            if verdict != "killed":
                failures.append(name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
