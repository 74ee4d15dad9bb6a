"""The four benchmark workloads: inputs, one op, and its correctness gate.

Each workload is a cycle of ``len(workload)`` ops.  The workload seed fixes
every master seed the ops pass to the library (op ``j`` uses
``seed * 1000 + j``); on ``DEFAULT_SEED`` every op's result must also equal
the reference recorded in ``reference.json``.  Ops look library functions up
through their modules at call time, so a tracer installed later sees them.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from dyadiclab import cli, coloring, goodness, lattice, metric
from dyadiclab.grids import finest_level

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
# relative to the repository root: the CLI copies --input into its report
WORK_DIR = Path("perfbench") / "out" / "work"

DEFAULT_SEED = 0
SEED_STRIDE = 1000

# the paper's goodness parameters, as in acceptance criteria 7 and 9
DELTA, GAMMA, R = 0.1, 0.1, 1

# the 3-point elbow space of tests/test_cli.py
ELBOW = {"points": ["x", "u", "w"],
         "dist": [[0, 0.06, 0.31], [0.06, 0, 0.25], [0.31, 0.25, 0]]}


def op_seed(seed: int, j: int) -> int:
    return seed * SEED_STRIDE + j


def report_digest(data: bytes) -> str:
    """SHA-256 of a report with every float cut to 12 significant digits.

    Distances and the decay fit pass through BLAS kernels that are chosen at
    run time by CPU type, so their last bits may differ between machines;
    every count, name and verdict is compared exactly.
    """
    def canon(x):
        if isinstance(x, float):
            return float(f"{x:.12g}")
        if isinstance(x, dict):
            return {k: canon(v) for k, v in x.items()}
        if isinstance(x, list):
            return [canon(v) for v in x]
        return x
    text = json.dumps(canon(json.loads(data)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Workload:
    """One benchmark workload; subclasses define setup, op and check."""
    name: str
    why: str
    cycle: int
    # one cycle's op time at the reference speed when the benchmark was
    # added; it sets how many cycles a run of a given length does
    cycle_s: float

    def __init__(self, seed: int, reference: dict | None = None):
        if seed < 0:
            raise ValueError("the workload seed must be nonnegative")
        self.seed = seed
        if reference is None and self.checks_reference():
            reference = load_reference()[self.name]
        self.reference = reference

    def __len__(self) -> int:
        return self.cycle

    def checks_reference(self) -> bool:
        return self.seed == DEFAULT_SEED

    def definition(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, j: int):
        raise NotImplementedError

    def warm_up(self):
        return self.op(0)

    def teardown(self) -> None:
        pass

    def key(self, j: int) -> str:
        """Name of op ``j`` in the reference file."""
        return str(j)

    def reference_value(self, j: int, result):
        """The value of an op's result that the reference records."""
        raise NotImplementedError

    def invariant_failures(self, j: int, result) -> list[str]:
        raise NotImplementedError

    def check(self, j: int, result) -> list[str]:
        """Failure messages for op ``j``; empty when the result is correct."""
        failures = self.invariant_failures(j, result)
        if self.reference is not None:
            expected = self.reference[self.key(j)]
            got = self.reference_value(j, result)
            if got != expected:
                failures.append(f"op {self.key(j)}: {got!r} differs from "
                                f"reference {expected!r}")
        return failures


class McCascade60(Workload):
    name = "mc-cascade60"
    why = "the seeded trial loop on the criterion-7 cascade cloud, in batches"
    cycle = 16
    cycle_s = 1.6
    batch = 16
    space_args = dict(kind="random_cloud", seed=10, n=60, dim=2, levels=4,
                      branching=3, ratio=0.1)

    def definition(self) -> dict:
        return {"op": "goodness.estimate_bad_probability", "space": self.space_args,
                "trials_per_op": self.batch, "delta": DELTA, "gamma": GAMMA,
                "r": R, "center": 0, "level": "finest",
                "master_seed": f"seed * {SEED_STRIDE} + op index"}

    def setup(self) -> None:
        self.space = metric.make_space(**self.space_args)
        self.params = goodness.GoodnessParams(delta=DELTA, gamma=GAMMA, r=R)
        self.level = finest_level(self.space, DELTA, 0)

    def op(self, j: int):
        return goodness.estimate_bad_probability(
            self.space, self.level, 0, self.params, trials=self.batch,
            seed=op_seed(self.seed, j), workers=1)

    def reference_value(self, j, result):
        return result.bad_count

    def invariant_failures(self, j, result) -> list[str]:
        failures = []
        if result.step_violations != 0:
            failures.append(f"op {j}: {result.step_violations} step violations")
        if result.trials != self.batch or not 0 <= result.bad_count <= self.batch:
            failures.append(f"op {j}: bad count {result.bad_count} of {result.trials}")
        return failures


class CliWorkload(Workload):
    """An in-process ``dyadiclab`` command that writes its report to a file."""
    input_name: str

    def setup(self) -> None:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.input = str(WORK_DIR / self.input_name)
        self.out = str(WORK_DIR / f"{self.name}-{os.getpid()}-report.json")
        self.write_input()

    def write_input(self) -> None:
        raise NotImplementedError

    def argv(self, j: int) -> list[str]:
        raise NotImplementedError

    def op(self, j: int):
        code = cli.main(self.argv(j) + ["--out", self.out])
        with open(self.out, "rb") as fh:
            return code, fh.read()

    def reference_value(self, j, result):
        return report_digest(result[1])

    def invariant_failures(self, j, result) -> list[str]:
        code, data = result
        failures = [] if code == 0 else [f"op {j}: exit code {code}"]
        failed = [c["name"] for c in json.loads(data)["checks"] if not c["pass"]]
        if failed:
            failures.append(f"op {j}: failed checks {failed}")
        return failures

    def teardown(self) -> None:
        if os.path.exists(self.out):
            os.remove(self.out)


class CliGoodnessElbow(CliWorkload):
    name = "cli-goodness-elbow"
    why = "the goodness command on a 3-point space, where per-trial overhead dominates"
    cycle = 8
    cycle_s = 2.0
    trials = 500
    input_name = "elbow.json"

    def definition(self) -> dict:
        return {"op": "cli.main goodness", "input": ELBOW, "delta": DELTA,
                "gamma": GAMMA, "r": R, "trials": self.trials,
                "seed": f"seed * {SEED_STRIDE} + op index"}

    def write_input(self) -> None:
        metric.validate_metric(ELBOW["dist"], ELBOW["points"])
        with open(self.input, "w") as fh:
            json.dump(ELBOW, fh)

    def argv(self, j: int) -> list[str]:
        return ["goodness", "--input", self.input, "--delta", str(DELTA),
                "--gamma", str(GAMMA), "--r", str(R), "--trials", str(self.trials),
                "--seed", str(op_seed(self.seed, j))]


class CliLatticeDeep(CliWorkload):
    name = "cli-lattice-deep"
    why = "the lattice command on a 200-point cascade: validation and cube checks, no goodness"
    cycle = 8
    cycle_s = 2.0
    space_args = dict(kind="random_cloud", seed=1, n=200, dim=2, levels=5,
                      branching=3, ratio=0.01)
    lattice_delta = 0.001
    input_name = "cascade200.json"

    def definition(self) -> dict:
        return {"op": "cli.main lattice", "space": self.space_args,
                "delta": self.lattice_delta,
                "seed": f"seed * {SEED_STRIDE} + op index"}

    def write_input(self) -> None:
        metric.save_space(metric.make_space(**self.space_args), self.input)

    def argv(self, j: int) -> list[str]:
        return ["lattice", "--input", self.input, "--delta", str(self.lattice_delta),
                "--seed", str(op_seed(self.seed, j))]


def criterion1_family() -> list[tuple[str, metric.FiniteMetricSpace]]:
    """The acceptance criterion-1 family: clouds, trees and snowflakes."""
    spaces = []
    for seed in range(25):
        spaces.append((f"cloud{seed}", metric.make_space(
            "random_cloud", seed=seed, n=4 + seed % 9, dim=1 + seed % 3,
            scale=2.2, min_sep=0.05)))
    for b, h in [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                 (2, 1), (2, 2), (3, 1)]:
        tree = metric.make_space("tree", branching=b, height=h)
        spaces.append((f"tree{b}{h}", tree.rescale(2.0)))
    for i in range(15):
        base = metric.make_space("random_cloud", seed=100 + i, n=4 + i % 9,
                                 dim=2, scale=2.5, min_sep=0.05)
        alpha = 0.5 if i % 2 == 0 else 0.75
        spaces.append((f"snow{i}", metric.make_space("snowflake", base=base,
                                                     alpha=alpha)))
    return spaces


class ExactSmall(Workload):
    name = "exact-small"
    why = "exact enumeration of colorings and forest outcomes on spaces of at most 9 points"
    max_points = 9
    cycle_s = 6.7

    def checks_reference(self) -> bool:
        return True  # no randomness: the reference holds on every seed

    def definition(self) -> dict:
        return {"op": "coloring audit and goodness.exact_good_probability",
                "family": "acceptance criterion 1", "max_points": self.max_points,
                "delta": DELTA, "gamma": GAMMA, "r": R, "center": 0,
                "level": "finest", "order": "permutation drawn from the seed"}

    def setup(self) -> None:
        self.family = [(label, s) for label, s in criterion1_family()
                       if len(s) <= self.max_points]
        self.order = [int(i) for i in np.random.default_rng(self.seed)
                      .permutation(len(self.family))]
        self.params = goodness.GoodnessParams(delta=DELTA, gamma=GAMMA, r=R)

    @property
    def cycle(self) -> int:
        return len(self.family)

    def key(self, j: int) -> str:
        return self.family[self.order[j]][0]

    def warm_up(self):
        # the seed permutes the measured order only; set-up always warms up
        # on the canonical first space, so its cost does not depend on the seed
        return self._exact(self.family[0][1])

    def op(self, j: int):
        return self._exact(self.family[self.order[j]][1])

    def _exact(self, space):
        universe = coloring.enumerate_proper_colorings(space)
        members = [coloring.membership_probability(universe, v) for v in range(len(space))]
        audits = [coloring.verify_recoloring_injective(universe, v)
                  for v in range(len(space))]
        p_good = goodness.exact_good_probability(
            space, 0, finest_level(space, DELTA, 0), self.params)
        return universe.d, members, audits, p_good

    def reference_value(self, j, result):
        return str(result[3])

    def invariant_failures(self, j, result) -> list[str]:
        d, members, audits, p_good = result
        label, space = self.family[self.order[j]]
        failures = []
        floor = Fraction(1, 2 ** d)
        if any(p < floor for p in members):
            failures.append(f"{label}: membership probability below 2^-{d}")
        if not all(a.ok for a in audits):
            failures.append(f"{label}: recoloring audit not ok")
        if not 0 <= p_good <= 1:
            failures.append(f"{label}: P(good) = {p_good}")
        outcomes = lattice.enumerate_forest_outcomes(space, DELTA, 0)
        if sum(p for _, p in outcomes) != 1:
            failures.append(f"{label}: outcome probabilities do not sum to 1")
        return failures


WORKLOADS = {w.name: w for w in (McCascade60, CliGoodnessElbow, CliLatticeDeep,
                                 ExactSmall)}
