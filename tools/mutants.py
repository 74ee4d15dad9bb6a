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
COLORING = "src/dyadiclab/coloring.py"
CLI = "src/dyadiclab/cli.py"
T_GOODNESS = "tests/test_goodness.py::"
T_LATTICE = "tests/test_lattice.py::"
T_GRIDS = "tests/test_grids.py::"
T_METRIC = "tests/test_metric.py::"
T_COLORING = "tests/test_coloring.py::"
T_CLI = "tests/test_cli.py::"

# (name, file, source text, flipped text, node ids expected to fail)
MUTANTS = [
    ("straddle near side", GOODNESS,
     "return row < threshold", "return row <= threshold",
     [T_GOODNESS + "test_straddle_is_strict_at_the_threshold"]),
    ("straddle near point inside", GOODNESS,
     "(hits > 0) & (hits < near_count)", "(hits >= 0) & (hits < near_count)",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("straddle near point outside", GOODNESS,
     "(hits > 0) & (hits < near_count)", "(hits > 0) & (hits <= near_count)",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("deep-inside gate", GOODNESS,
     "(space.d[center] <= 2 * threshold)", "(space.d[center] < 2 * threshold)",
     [T_GOODNESS + "test_theorem_step_depth_gate"]),
    # the levels tested are those coarser by at least r: the bound moved one
    # level finer, then one level coarser, in the trial core and in the exact walk
    ("r gap in the trial core, finer", GOODNESS,
     "if n <= level - params.r]", "if n <= level - params.r + 1]",
     [T_GOODNESS + "test_classifiers_match_reference"]),
    ("r gap in the trial core, coarser", GOODNESS,
     "if n <= level - params.r]", "if n <= level - params.r - 1]",
     [T_GOODNESS + "test_elbow_badness_matches_hand_analysis"]),
    # the verdict core classifies a stack of forests at once: each cube reads
    # the near mask of its own forest's center cube
    ("near mask of the wrong forest", GOODNESS,
     "_straddles(held & near[forest], near.sum(axis=1)[forest])",
     "_straddles(held & near[forest[::-1]], near.sum(axis=1)[forest[::-1]])",
     [T_GOODNESS + "test_batched_verdicts_match_the_oracle_per_forest"]),
    ("r gap in the exact walk, finer", GOODNESS,
     "tested = k <= level - params.r", "tested = k <= level - params.r + 1",
     [T_GOODNESS + "test_exact_good_probability_matches_reference"]),
    ("r gap in the exact walk, coarser", GOODNESS,
     "tested = k <= level - params.r", "tested = k <= level - params.r - 1",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    # the exact walk's leaf weight and its budget of united cube-matrix rows
    ("leaf weight without its parent-map count", GOODNESS,
     "prob / count * good", "prob * good",
     [T_GOODNESS + "test_exact_good_probability_elbow"]),
    ("row budget one row early", GOODNESS,
     "if united > MAX_UNITED_ROWS:", "if united >= MAX_UNITED_ROWS:",
     [T_GOODNESS + "test_exact_walk_refuses_past_its_row_budget"]),
    # the coarsest pair's count: each good map of the enumerated children
    # counts once per choice of the others, the cubes are grouped by near set
    # and enumerated children, and those children are the ones whose finer
    # cube meets the near set
    ("free children's option count dropped", GOODNESS,
     "good += int((~bad).sum()) * (pair.count // len(maps))", "good += int((~bad).sum())",
     [T_GOODNESS + "test_exact_good_probability_pinned_on_10_and_11_points"]),
    ("group key without the near set", GOODNESS,
     "groups.setdefault((near.tobytes(), kids.tobytes())", "groups.setdefault((kids.tobytes(),)",
     [T_GOODNESS + "test_exact_good_probability_pinned_on_10_and_11_points"]),
    ("relevant children read from all columns", GOODNESS,
     "kids = held[:, near].any(axis=1)", "kids = held.any(axis=1)",
     [T_GOODNESS + "test_exact_walk_counts_the_coarsest_pair_without_building_it"]),
    ("decay layer", GOODNESS,
     "(depth[:, None] <= np.array(eps_schedule) * scale)",
     "(depth[:, None] < np.array(eps_schedule) * scale)",
     [T_GOODNESS + "test_decay_layer_is_closed_at_its_width"]),
    ("decay layer on every outcome", GOODNESS,
     "(depth[:, None] <= np.array(eps_schedule) * scale)",
     "(depth[:, None] < np.array(eps_schedule) * scale)",
     [T_GOODNESS + "test_decay_row_matches_reference_layer_on_every_outcome"]),
    ("decay depth from the wrong forest", GOODNESS,
     "np.where(inside, np.inf, forests[0].space.d[x])",
     "np.where(inside[:1], np.inf, forests[0].space.d[x])",
     [T_GOODNESS + "test_decay_row_matches_reference_layer_on_every_outcome"]),
    # the trial chunk's walk and its guards: the memo's budget of kept nodes,
    # each pending class advanced from its own node, a rejected draw sent out
    # of the walk, the check of the batched states against trial_rng, the
    # process's probe that turns the walk off, and its verdict kept for the
    # process
    ("node budget off by one", MC,
     "self.kept < _MISS_BUDGET", "self.kept <= _MISS_BUDGET",
     [T_GOODNESS + "test_memo_keeps_at_most_its_budget_of_nodes[5]",
      T_GOODNESS + "test_trial_chunk_builds_each_forest_once[0-1500]"]),
    ("pending child advanced from the wrong parent", MC,
     "pending += [(node, row, group) for row, group in _classes(",
     "pending += [(calls[0][0], row, group) for row, group in _classes(",
     [T_GOODNESS + "test_trial_rows_match_reference"]),
    ("a rejected trial kept in the walk", MC,
     "ok = kept[start:end]", "ok = np.ones(end - start, dtype=bool)",
     [T_GOODNESS + "test_walk_passes_a_rejected_draw_to_miss",
      T_GOODNESS + "test_trial_chunk_rows_where_draws_are_rejected"]),
    ("trial states unchecked", MC,
     "if any(_lcg(trial_rng(seed, lo)) != _pair(first,",
     "if False and any(_lcg(trial_rng(seed, lo)) != _pair(first,",
     [T_GOODNESS + "test_trial_chunk_refuses_states_that_differ_from_trial_rng"]),
    ("walk whatever the probe says", MC,
     "        if _words_match():\n", "        if True:\n",
     [T_GOODNESS + "test_trial_chunk_builds_every_trial_when_the_words_disagree[words]",
      T_GOODNESS + "test_trial_chunk_builds_every_trial_when_the_words_disagree"
      "[words-blocks-of-50]"]),
    ("probe run per call", MC,
     "@cache\ndef _words_match()", "def _words_match()",
     [T_CLI + "test_words_are_checked_once_per_process"]),
    # the draws read no output's low bits, so only the probe's comparison of
    # whole outputs sees words that are one bit off
    ("probe skips the raw outputs", MC,
     "if not np.array_equal(outputs.table[0, :8], trial_rng(0, 0).bit_generator.random_raw(8)):",
     "if False:",
     [T_GOODNESS + "test_trial_chunk_builds_every_trial_when_the_words_disagree[words]",
      T_GOODNESS + "test_trial_chunk_builds_every_trial_when_the_words_disagree"
      "[words-blocks-of-50]"]),
    # a goodness command's jobs walk a chunk together: each job's coins its
    # own, read after its build's last draw, and equal row functions share
    # their rows; a refusal is the one a run of each job in turn meets
    # first, in a chunk, also with workers, and also where the exact walk
    # would refuse before the trials
    ("served coins read for the wrong job", MC,
     "xi[done] = outputs.coins(done, pos[done])",
     "xi[done] = outputs.coins(done - n, pos[done - n])",
     [T_GOODNESS + "test_a_trial_chunk_builds_each_distinct_forest_once_for_all_its_jobs"]),
    ("the coin read before the build's last draw", MC,
     "xi[done] = outputs.coins(done, pos[done])",
     "xi[done] = outputs.coins(done, pos[done] - 1)",
     [T_GOODNESS + "test_trial_rows_match_reference"]),
    ("a joint refusal raised without the in-turn rerun", MC,
     "        if len(jobs) == 1:\n            raise", "        if True:\n            raise",
     [T_GOODNESS + "test_a_chunk_raises_the_refusal_that_its_jobs_in_turn_meet_first"]),
    ("rows per estimator", MC,
     "keys = [_key(row) for _, row, _ in jobs]", "keys = [row for _, row, _ in jobs]",
     [T_CLI + "test_goodness_command_builds_each_distinct_forest_once"]),
    ("refusal of the first chunk that refused", MC,
     "except DyadicLabError:\n            pass", "except ZeroDivisionError:\n            pass",
     [T_GOODNESS + "test_a_run_raises_the_refusal_that_a_run_of_each_job_in_turn_meets_first"
      "[2]"]),
    ("exact walk refuses before the trials", CLI,
     "refusal = exc", "raise",
     [T_CLI + "test_goodness_refusals_keep_their_text[1-cascade-level-99]"]),
    ("deferred refusal dropped", CLI,
     "raise refusal", "pass",
     [T_CLI + "test_goodness_raises_the_exact_walks_refusal_after_trials_that_pass"]),
    # the byte-identical contract: a job moved to another stream keeps every
    # report well formed, and only the recorded digests see it
    ("decay job on seed + 3", CLI,
     "args.seed + 1", "args.seed + 3",
     [T_CLI + "test_reports_match_their_recorded_digests"]),
    # the draws computed from PCG64's words: the buffered high half of an
    # output (each 32-bit draw taken as a fresh output's low half), a coin
    # that must come from a fresh output, and the carry of the jump-ahead's
    # 128-bit sum
    ("integers without the half-word buffer", MC,
     "pos[trials] + drawn.cumsum(axis=0) - drawn)",
     "2 * (pos[trials] + drawn.cumsum(axis=0) - drawn))",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    ("coin from the buffered half", MC,
     "self._output((h + 1) >> 1, trials)", "self._output(h >> 1, trials)",
     [T_GOODNESS + "test_words_make_the_generators_draws"]),
    # a rejected draw, which no real build's bound makes likely, served by
    # the draw, and a call whose values take two radix keys
    ("rejected draw served", MC,
     "((m & _LOW) >= (_TWO32 - bounds) % bounds)", "((m & _LOW) >= 0)",
     [T_GOODNESS + "test_walk_passes_a_rejected_draw_to_miss",
      T_GOODNESS + "test_trial_chunk_rows_where_draws_are_rejected"]),
    ("radix with one key", MC,
     "if span * base > 1 << 62:", "if False:",
     [T_GOODNESS + "test_classes_of_a_call_whose_keys_take_two_rows"]),
    ("128-bit sum without its carry", MC,
     "return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo", "return a_hi + b_hi, lo",
     [T_GOODNESS + "test_outputs_match_the_lcg_past_any_table"]),
    # the parent maps the exact recursion hands its steps: the last child's
    # choice varies fastest
    ("parent maps, first child fastest", LATTICE,
     "choice = np.indices(sizes).reshape(len(sizes), -1)",
     "choice = np.indices(sizes[::-1])[::-1].reshape(len(sizes), -1)",
     [T_LATTICE + "test_parent_maps_match_product_order"]),
    # the audit's properness test on the ball table: a red point's ball holds
    # no other red point
    ("red ball", COLORING,
     "len(b & red) == 1", "len(b & red) >= 1",
     [T_COLORING + "test_ball_table_properness_matches_is_proper"]),
    # the per-space piece table: a component's family is keyed by its points
    # and the scale, and the table keeps at most its budget
    ("piece key without its scale", GRIDS,
     "piece = (points, k)", "piece = (points,)",
     [T_GRIDS + "test_component_families_match_the_oracle_on_every_memo_path"]),
    ("piece table past its budget", GRIDS,
     "if len(memo.pieces) < _PIECE_BUDGET:", "if True:",
     [T_GRIDS + "test_piece_memo_keeps_at_most_its_budget"]),
    ("conflict", GRIDS,
     "space.d.take(base, 0).take(base, 1) < k]", "space.d.take(base, 0).take(base, 1) <= k]",
     [T_GRIDS + "test_enumerate_l3"]),
    ("capture", LATTICE,
     "return d <= scale / CAPTURE_DIVISOR,", "return d < scale / CAPTURE_DIVISOR,",
     [T_LATTICE + "test_parent_options_match_reference"]),
    ("candidate", LATTICE,
     "d <= CANDIDATE_FACTOR * scale", "d < CANDIDATE_FACTOR * scale",
     [T_LATTICE + "test_outcomes_match_reference"]),
    # the stacked cube builder: each finer row's parent looked up among its
    # own forest's rows, and the stack locked so that no view is made writable
    ("stacked parent row without its forest offset", LATTICE,
     "parent_keys = finer_offset + parents", "parent_keys = parents",
     [T_LATTICE + "test_stacked_cube_tables_match_each_forests_own"]),
    ("stack left writable under its views", LATTICE,
     "if held.base is not None:", "if False:",
     [T_LATTICE + "test_stacked_cube_tables_match_each_forests_own"]),
    # the stacked linker: each pick read at its child's offset, the level
    # pairs stacked coarse first, the order the per-level draws were made in,
    # a coarse child still checked for a second captured point, and each
    # forest's rows read from its own slice of the stack
    ("pick offset", LATTICE,
     "chosen[drawn] += np.array(picks, dtype=np.intp)", "chosen[drawn] += 0",
     [T_LATTICE + "test_build_forest_matches_reference_stream"]),
    ("level pairs fine first", LATTICE,
     "for e, h in enumerate(hierarchies) for lev in h.levels[1:]]",
     "for e, h in enumerate(hierarchies) for lev in h.levels[:0:-1]]",
     [T_LATTICE + "test_build_forest_matches_reference_stream"]),
    ("coarse child self-linked without its capture check", LATTICE,
     "read = outside | (capture.sum(axis=1)[kids] > 1)", "read = outside",
     [T_LATTICE + "test_parent_option_errors_match_reference"]),
    ("a forest's slice of the stack read at its neighbour's offset", LATTICE,
     "for h, lo, hi in zip(hierarchies, [0] + ends, ends)",
     "for h, lo, hi in zip(hierarchies[1:] + hierarchies[:1], [0] + ends, ends)",
     [T_LATTICE + "test_stacked_links_match_each_forests_own"]),
    ("ball", LATTICE,
     "(space.d < scale / BALL_DIVISOR)[centers]",
     "(space.d <= scale / BALL_DIVISOR)[centers]",
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
    # the invariants check visits only what its masks flag: a child captured
    # twice whose parent is an option, and a one-point cube that differs
    # from its union, must still be flagged
    ("child mask without captured twice", LATTICE,
     "np.flatnonzero(twice | ~ok)", "np.flatnonzero(~ok)",
     [T_LATTICE + "test_forest_invariants_report_double_capture"]),
    ("cube mask without differs", LATTICE,
     "np.flatnonzero(differs | wide)", "np.flatnonzero(wide)",
     [T_LATTICE + "test_forest_invariants_report_unnested_cube"]),
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
    # the triangle test by row minima is strict: the least two-hop sum per k
    # includes dist(i, k) itself, through j == k
    ("triangle row minimum", METRIC,
     "d[i, i + 1:] > sums.min(axis=1)", "d[i, i + 1:] >= sums.min(axis=1)",
     [T_METRIC + "test_triangle_equalities_of_collinear_grid_points_pass"]),
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
    # the greedy scan order's Lehmer code: place j draws among the n - j points left
    ("Lehmer bounds shifted up", GRIDS,
     "tuple(range(len(base), 1, -1))", "tuple(range(len(base) + 1, 2, -1))",
     [T_GRIDS + "test_greedy_sampler_decodes_every_lehmer_code"]),
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
