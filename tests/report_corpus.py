"""The report corpus of the byte-identical contract, and the file of its digests.

Each case is one ``cli.main`` call, run in process from a working directory
that holds the corpus's inputs at fixed relative names: a report copies
``--input`` into its ``config``, so an absolute path would change every
digest.  A case's text is its report, written to stdout, when it exits 0 or
1, and its stderr text when it exits 2 or 3; the other stream must be empty.
``report_digests.json`` records each case's exit code and the sha256 of its
text, and criterion 7's bad count, at 10,000 trials and seed 42.
``tests/test_cli.py`` recomputes the corpus, and ``tools/report_digests.py``
rewrites the file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import dyadiclab as dl
from dyadiclab import cli
from dyadiclab.goodness import GoodnessParams, estimate_bad_probability
from dyadiclab.grids import MODES
from conftest import decay_probe_space

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

ELBOW = {"points": ["x", "u", "w"],
         "dist": [[0, 0.06, 0.31], [0.06, 0, 0.25], [0.31, 0.25, 0]]}
L3 = {"points": ["a", "b", "c"], "dist": [[0, 0.5, 1.0], [0.5, 0, 0.5], [1.0, 0.5, 0]]}
# an ultrametric, so the exact triangle check holds: two close pairs, apart
# at 0.5, and a far point
ULTRA = {"points": ["a", "b", "c", "d", "e"],
         "dist": [[0, 0.05, 0.5, 0.5, 3], [0.05, 0, 0.5, 0.5, 3], [0.5, 0.5, 0, 0.04, 3],
                  [0.5, 0.5, 0.04, 0, 3], [3, 3, 3, 3, 0]]}
WEIGHTED = {**L3, "mu": {"a": 1, "b": 2, "c": 1}, "w": {"a": 1, "b": 4, "c": 0.5}}
TRIANGLE = {"points": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
GOODNESS_SEEDS = (0, 1, 2, 3, 2 ** 32 - 1, 2 ** 96 - 2)


def criterion_7_cloud() -> dl.FiniteMetricSpace:
    """The 60-point cascade cloud of acceptance criterion 7."""
    return dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4, branching=3,
                         ratio=0.1, spread=(0.25, 0.45))


def criterion_7_bad_count() -> int:
    """Criterion 7's bad count: 10,000 trials of the finest cube of point 0, seed 42."""
    space, params = criterion_7_cloud(), GoodnessParams(delta=0.1, gamma=0.1, r=1)
    level = dl.finest_level(space, params.delta, 0)
    return estimate_bad_probability(space, level, 0, params, trials=10_000, seed=42).bad_count


def cases() -> dict[str, list[str]]:
    """The argv of each case, by name."""
    goodness = ["goodness", "--input", "elbow.json", "--delta", "0.1", "--gamma", "0.1",
                "--r", "1"]
    found = {"validate": ["validate", "--input", "elbow.json"],
             "validate-csv": ["validate", "--input", "elbow.json", "--format", "csv"]}
    for mode in MODES:
        for command in ("grids", "lattice"):
            found[f"{command}-{mode}"] = [command, "--input", "ultra.json", "--delta", "0.1",
                                          "--seed", "0", "--mode", mode]
    found["coloring"] = ["coloring", "--input", "l3.json"]
    found["a2"] = ["a2", "--input", "weighted.json"]
    for mode in MODES:
        for seed in GOODNESS_SEEDS:
            found[f"goodness-{mode}-{seed}"] = goodness + [
                "--trials", "300", "--seed", str(seed), "--mode", mode]
    found["goodness-criterion-7"] = ["goodness", "--input", "cloud.json", "--delta", "0.1",
                                     "--trials", "300", "--seed", "42"]
    # the command measures the decay rows at the bad cube's level, where every
    # row above is 0, and so is blind to the decay job's stream; on the decay
    # probe at level 0, seed 528's one trial, the first of seeds 0-3000 that
    # does, keeps x in the level-0 grid and puts x in its cube's boundary
    # layer at eps 2e-6 (a greedy run, so no exact walk refuses the level)
    found["goodness-decay-probe"] = [
        "goodness", "--input", "probe.json", "--delta", "0.001", "--level", "0",
        "--center", "x", "--eps-schedule", "2e-6,4e-9,8e-12", "--trials", "1",
        "--seed", "528", "--mode", "greedy_permutation"]
    # exit 1: one trial cannot bound P(bad) below 1/2
    found["failed-check-csv"] = goodness + ["--trials", "1", "--seed", "0", "--format", "csv"]
    # exit 2, as a configuration error and as a refusal of the library
    found["refusal-config"] = goodness + ["--trials", "20", "--seed", "0",
                                          "--eps-schedule", "1e-4,abc"]
    found["refusal-library"] = goodness + ["--trials", "20", "--seed", "0", "--level", "0"]
    found["refusal-input"] = ["grids", "--input", "triangle.json", "--seed", "0"]
    return found


def _write_inputs(workdir: Path) -> None:
    for name, payload in (("elbow", ELBOW), ("l3", L3), ("ultra", ULTRA),
                          ("weighted", WEIGHTED), ("triangle", TRIANGLE)):
        (workdir / f"{name}.json").write_text(json.dumps(payload))
    dl.save_space(criterion_7_cloud(), str(workdir / "cloud.json"))
    dl.save_space(decay_probe_space(), str(workdir / "probe.json"))


def _run(argv: list[str]) -> dict:
    """One case's exit code and the sha256 of its text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text, other = (out, err) if code in (0, 1) else (err, out)
    if other.getvalue():
        raise AssertionError(f"{argv}: exit {code} also wrote {other.getvalue()!r}")
    return {"exit": code, "sha256": hashlib.sha256(text.getvalue().encode()).hexdigest()}


def report_digests(workdir: Path) -> dict[str, dict]:
    """Each case's exit code and digest, run from ``workdir``, an empty
    directory that receives the inputs."""
    _write_inputs(workdir)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return {name: _run(argv) for name, argv in cases().items()}
    finally:
        os.chdir(home)
