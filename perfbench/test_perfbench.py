"""Self-tests of the benchmark: spec, gate, tracing determinism, empty checkout.

    python3 -m pytest -q perfbench/test_perfbench.py

They take a few minutes: each runs whole cycles of real workload ops.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
# the library function each workload's op enters once
ENTRY = {"mc-cascade60": "goodness.estimate_bad_probability",
         "cli-goodness-elbow": "cli.main", "cli-lattice-deep": "cli.main",
         "exact-small": "goodness.exact_good_probability"}


@pytest.fixture(autouse=True)
def at_root():
    cwd = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(cwd)


def test_spec_matches_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(NAMES) == run.WORKLOAD_NAMES
    traced = tracer.Tracer().metrics()
    traced["tracing_overhead"] = (0.0, "ratio")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in traced.items()]


def test_quantiles():
    xs = [i / 1000.0 for i in range(1, 42)]
    assert run.harrell_davis(xs, 0.5) == pytest.approx(0.021, rel=1e-6)
    assert run.harrell_davis([0.004] * 7, 0.9) == pytest.approx(0.004)
    tail = run.tail_latency(xs)
    assert (tail["percentile"], tail["beyond"]) == (100.0 * 31 / 41, 10)
    assert 30.0 < tail["value_ms"] < 32.0
    short = run.tail_latency([0.002, 0.001])
    assert (short["value_ms"], short["beyond"]) == (2.0, 0)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat(name):
    def counts():
        rec = run.run_workload(name, workloads.DEFAULT_SEED, 0, trace=True,
                               record=False)
        assert rec["result"]["correct"], rec["failures"]
        metrics = rec["result"]["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith(".calls") or k in tracer.COUNTERS}
    first, second = counts(), counts()
    assert first == second
    assert first[f"{ENTRY[name]}.calls"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_altered_reference_fails_its_op(name):
    reference = workloads.load_reference()[name]
    key = sorted(reference)[0]
    altered = dict(reference)
    altered[key] = altered[key] + 1 if isinstance(altered[key], int) else altered[key] + "0"
    rec = run.run_workload(name, workloads.DEFAULT_SEED, 0, trace=False,
                           reference=altered, record=False)
    result = rec["result"]
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == len(reference)
    assert key in rec["failures"][0]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
