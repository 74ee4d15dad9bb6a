"""Command-line interface: subcommands, exit codes, report determinism."""
import csv
import json
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dyadiclab as dl
from dyadiclab import cli, goodness, mc
from dyadiclab.cli import main
from dyadiclab.grids import MODES
from report_corpus import DIGESTS, report_digests


@pytest.fixture()
def l3_json(tmp_path):
    path = tmp_path / "l3.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "dist": [[0, 0.5, 1.0], [0.5, 0, 0.5], [1.0, 0.5, 0]],
    }))
    return str(path)


@pytest.fixture()
def elbow_json(tmp_path):
    path = tmp_path / "elbow.json"
    path.write_text(json.dumps({
        "points": ["x", "u", "w"],
        "dist": [[0, 0.06, 0.31], [0.06, 0, 0.25], [0.31, 0.25, 0]],
    }))
    return str(path)


@pytest.fixture()
def bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
    }))
    return str(path)


def run_to_file(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_validate_ok(tmp_path, l3_json):
    code, out = run_to_file(tmp_path, ["validate", "--input", l3_json])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"].startswith("dyadiclab-report/")
    assert report["checks"][0]["pass"] is True


def test_validate_bad_input_exits_3(tmp_path, bad_json):
    code, out = run_to_file(tmp_path, ["validate", "--input", bad_json])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"] is False


def test_parser_is_built_once_and_each_call_parses_afresh(tmp_path, l3_json):
    """One parser serves every call in a process; no option of one call
    carries into the next."""
    assert cli.build_parser() is cli.build_parser()
    code, out = run_to_file(tmp_path, ["validate", "--input", l3_json, "--format", "csv"],
                            name="first.csv")
    assert code == 0 and out.read_text().startswith("check,pass,detail")
    code, out = run_to_file(tmp_path, ["validate", "--input", l3_json])
    assert code == 0 and json.loads(out.read_text())["config"]["format"] == "json"


def test_missing_input_exits_3(tmp_path):
    code = main(["validate", "--input", str(tmp_path / "nope.json")])
    assert code == 3


def test_missing_seed_is_config_error(l3_json):
    assert main(["grids", "--input", l3_json]) == 2


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 2


def test_grids_subcommand(tmp_path, l3_json):
    code, out = run_to_file(tmp_path, [
        "grids", "--input", l3_json, "--delta", "0.1", "--seed", "3"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["name"] == "grid_cover_within_3_scale"
    assert report["checks"][0]["pass"] is True
    assert report["data"]["hierarchy"]["delta"] == 0.1


def test_lattice_subcommand(tmp_path, l3_json):
    code, out = run_to_file(tmp_path, [
        "lattice", "--input", l3_json, "--delta", "0.1", "--seed", "3"])
    assert code == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"cube_cover", "forest_invariants", "chain_separation"} <= names
    assert all(c["pass"] for c in report["checks"])


def test_coloring_subcommand(tmp_path, l3_json):
    code, out = run_to_file(tmp_path, ["coloring", "--input", l3_json])
    assert code == 0
    report = json.loads(out.read_text())
    probs = {v["point"]: v["probability"] for v in report["data"]["vertices"]}
    assert probs["b"] == {"num": 1, "den": 2}
    assert report["data"]["tree_probability"] == {"num": 1, "den": 8}


def test_coloring_limit_reaches_tree_experiment(tmp_path, elbow_json):
    # a height-3 ternary tree has 40 vertices, over the default cap of 20
    code, out = run_to_file(tmp_path, ["coloring", "--input", elbow_json,
                                       "--limit", "40", "--tree-height", "3"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["data"]["tree_probability"] == {"num": 512, "den": 681}


def test_coloring_family_budget_exits_2(tmp_path, capsys):
    """Coloring at unit scale on a 40-point cloud with distances doubled is
    one component whose family passes the maximal-set budget: exit 2 with
    no traceback."""
    cloud = dl.make_space("random_cloud", seed=1, n=40, scale=2.2, min_sep=0.05)
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"points": list(cloud.points), "dist": (cloud.d * 2).tolist()}))
    code, _ = run_to_file(tmp_path, ["coloring", "--input", str(path), "--limit", "40"])
    err = capsys.readouterr().err
    assert code == 2
    assert "maximal sets" in err and "Traceback" not in err


def test_goodness_subcommand(tmp_path, elbow_json):
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", elbow_json, "--delta", "0.1", "--gamma", "0.1",
        "--r", "1", "--trials", "400", "--seed", "11"])
    assert code == 0
    report = json.loads(out.read_text())
    frac = report["data"]["bad_probability"]["fraction"]
    assert 0.15 <= frac <= 0.35
    assert report["data"]["equalization"]["p_q"] == {"num": 3, "den": 4}
    names = {c["name"]: c["pass"] for c in report["checks"]}
    assert names["bad_probability_upper_half"] is True
    assert names["equalization_frequency"] is True


def test_goodness_deterministic_bytes(tmp_path, elbow_json):
    args = ["goodness", "--input", elbow_json, "--delta", "0.1",
            "--trials", "200", "--seed", "4"]
    _, first = run_to_file(tmp_path, args, "a.json")
    _, second = run_to_file(tmp_path, args, "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_goodness_csv_decay_rows(tmp_path, elbow_json):
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", elbow_json, "--delta", "0.1", "--trials", "100",
        "--seed", "2", "--format", "csv"], "report.csv")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eps,estimate,ci_low,ci_high"
    assert len(lines) > 1


def test_goodness_csv_keeps_the_failed_checks(tmp_path, elbow_json):
    """One trial leaves the Wilson upper bound at 0.79 > 1/2, so the run
    exits 1; its CSV holds the decay rows, one blank row, and then every
    check with its verdict and detail."""
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", elbow_json, "--delta", "0.1", "--trials", "1",
        "--seed", "0", "--format", "csv"], "report.csv")
    assert code == 1
    rows = list(csv.reader(out.read_text().splitlines()))
    blank = rows.index([])
    assert rows[0] == ["eps", "estimate", "ci_low", "ci_high"] and blank > 1
    assert rows[blank + 1] == ["check", "pass", "detail"]
    checks = {name: (verdict, detail) for name, verdict, detail in rows[blank + 2:]}
    assert list(checks) == ["bad_probability_upper_half", "theorem_step",
                            "boundary_decay_monotone", "equalization_frequency"]
    verdict, detail = checks["bad_probability_upper_half"]
    assert verdict == "False" and detail.endswith("wilson=(0.000000,0.793451)")


def criterion1_cloud_report(tmp_path, seed: int) -> tuple[int, dict]:
    """The goodness report of cloud ``seed`` of the criterion-1 family."""
    src = tmp_path / f"cloud{seed}.json"
    dl.save_space(dl.make_space("random_cloud", seed=seed, n=4 + seed % 9,
                                dim=1 + seed % 3, scale=2.2, min_sep=0.05), str(src))
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", str(src), "--delta", "0.1", "--gamma", "0.1",
        "--r", "1", "--trials", "50", "--seed", "0"])
    return code, json.loads(out.read_text())


def test_goodness_is_exact_on_an_11_point_cloud(tmp_path):
    """The 11-point cloud16 has 124,548 forests, more than the enumerator's
    cap, but the exact walk's row budget admits it: its P(good) is 17/216,
    and the equalization check runs."""
    code, report = criterion1_cloud_report(tmp_path, 16)
    assert code in (0, 1)
    assert report["data"]["equalization"]["p_q"] == {"num": 17, "den": 216}
    assert "equalization_frequency" in {c["name"] for c in report["checks"]}


def test_goodness_falls_back_when_exact_is_refused(tmp_path):
    """A 12-point space within --limit that unites more cube-matrix rows than
    the exact walk's budget gets the plugin estimate, not a configuration
    error."""
    code, report = criterion1_cloud_report(tmp_path, 17)
    assert code in (0, 1)
    equalization = report["data"]["equalization"]
    assert set(equalization) == {"p_q_plugin", "note"}
    assert equalization["note"] == (
        "plugin estimate, exact enumeration refused: "
        f"more than {goodness.MAX_UNITED_ROWS} cube-matrix rows to unite")
    fraction = report["data"]["bad_probability"]["fraction"]
    assert equalization["p_q_plugin"] == max(1.0 - fraction, 1.0 / 50)


@pytest.fixture(scope="module")
def criterion7_json(tmp_path_factory):
    """The 60-point cascade cloud of acceptance criterion 7."""
    path = tmp_path_factory.mktemp("criterion7") / "cloud.json"
    dl.save_space(dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                                branching=3, ratio=0.1, spread=(0.25, 0.45)), str(path))
    return str(path)


def test_goodness_notes_why_a_space_above_the_cap_is_not_exact(tmp_path, criterion7_json):
    """The exact enumerator itself refuses a space larger than --limit, since
    the base of the first level it enumerates is every point."""
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", criterion7_json, "--delta", "0.1", "--trials", "50",
        "--seed", "0"])
    assert code == 0
    equalization = json.loads(out.read_text())["data"]["equalization"]
    assert equalization["note"] == ("plugin estimate, exact enumeration refused: "
                                    "|base|=60 exceeds the cap 20")


def test_goodness_one_level_hierarchy_is_exact_above_the_cap(tmp_path, criterion7_json):
    """With --n0 at the finest level nothing is enumerated, so the 60-point
    cloud gets its exact P(good) = 1 and the equalization check."""
    finest = dl.finest_level(dl.load_space(criterion7_json), 0.1, 0)
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", criterion7_json, "--delta", "0.1", "--trials", "50",
        "--seed", "0", "--n0", str(finest)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["data"]["equalization"]["p_q"] == {"num": 1, "den": 1}
    assert "equalization_frequency" in {c["name"] for c in report["checks"]}


def test_goodness_greedy_mode_takes_the_plugin_path(tmp_path):
    """The exact law is that of uniform grids, so a greedy run is not checked
    against it.  On the path a-b-c the uniform law picks {b} at level 1 with
    probability 1/2, the greedy sampler with probability 1/3."""
    src = tmp_path / "path.json"
    src.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "dist": [[0, 0.07, 0.13], [0.07, 0, 0.07], [0.13, 0.07, 0]],
    }))
    args = ["goodness", "--input", str(src), "--delta", "0.1", "--gamma", "0.1",
            "--r", "1", "--center", "b", "--trials", "200", "--seed", "1",
            "--mode", "greedy_permutation"]
    _, out = run_to_file(tmp_path, args)
    report = json.loads(out.read_text())
    fraction = report["data"]["bad_probability"]["fraction"]
    assert report["data"]["equalization"] == {
        "p_q_plugin": max(1.0 - fraction, 1.0 / 200),
        "note": "plugin estimate, the exact identity needs exhaustive_uniform, "
                "not greedy_permutation"}
    assert "equalization_frequency" not in {c["name"] for c in report["checks"]}


def test_a2_subcommand(tmp_path):
    payload = {
        "points": ["p", "q"],
        "dist": [[0, 1], [1, 0]],
        "mu": {"p": 1, "q": 1},
        "w": {"p": 1, "q": 4},
    }
    src = tmp_path / "weighted.json"
    src.write_text(json.dumps(payload))
    code, out = run_to_file(tmp_path, ["a2", "--input", str(src)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["data"]["a2_characteristic"] == pytest.approx(25 / 16)
    assert report["data"]["growth"]["c_min"] == 2.0
    assert report["data"]["measure_doubling_constant"] == 1.0


def test_bad_delta_is_config_error(tmp_path, elbow_json):
    code = main(["goodness", "--input", elbow_json, "--delta", "0.9",
                 "--r", "1", "--trials", "10", "--seed", "1"])
    assert code == 2


def test_non_object_space_json_exits_3(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    code = main(["validate", "--input", str(path)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    code = main(["lattice", "--input", str(path), "--seed", "0"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("flag, weights, needle", [
    ("--input", {"mu": {"p": 1, "q": 1}, "w": {"p": 1}}, "'q'"),
    ("--weights", [1, 2], "not a JSON object"),
    ("--weights", {"w": {"p": "abc", "q": 1}}, "'p'"),
    ("--weights", {"mu": 5}, "mu is not a map"),
    ("--input", {"mu": {"p": 1, "q": 1, "typo": 5}}, "'typo'"),
], ids=["missing-point", "list-top-level", "non-numeric", "mu-not-a-map",
        "unknown-point"])
def test_a2_weights_missing_point_exits_3(tmp_path, capsys, flag, weights, needle):
    """Malformed weights, in the space file or a --weights file, exit 3."""
    space = {"points": ["p", "q"], "dist": [[0, 1], [1, 0]]}
    src = tmp_path / "weighted.json"
    args = ["a2", "--input", str(src)]
    if flag == "--input":
        space.update(weights)
    else:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(weights))
        args += ["--weights", str(path)]
    src.write_text(json.dumps(space))
    code = main(args)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and needle in err
    assert "Traceback" not in err


def test_validate_refuses_names_equal_as_strings(tmp_path, capsys):
    """The space keeps each name as a string, so 1 and "1" name one point."""
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"points": [1, "1", "z"],
                                "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]}))
    assert main(["validate", "--input", str(path)]) == 3
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["detail"] == "invalid space input: point names must be distinct"


@pytest.mark.parametrize("points", ["abc", {"a": 1, "b": 2, "c": 3}], ids=["str", "map"])
def test_validate_refuses_point_names_that_are_not_a_list(tmp_path, capsys, points):
    """A string or a map would load as its letters or its keys."""
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"points": points,
                                "dist": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]}))
    assert main(["validate", "--input", str(path)]) == 3
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["detail"] == "invalid space input: points must be a list of names"


def test_validate_keeps_default_names_for_null_points(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"points": None, "dist": [[0, 1], [1, 0]]}))
    assert main(["validate", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["points"] == ["p0", "p1"]


def test_a2_csv_input_uses_unit_weights(tmp_path):
    src = tmp_path / "line.csv"
    src.write_text("0\n1\n3\n")
    code, out = run_to_file(tmp_path, ["a2", "--input", str(src)])
    assert code == 0
    assert json.loads(out.read_text())["data"]["a2_characteristic"] == 1.0


@pytest.mark.parametrize("name, text, needle", [
    ("strings.json", '{"dist": [[0, "1"], ["1", 0]]}', "distances must be numbers"),
    ("bools.json", '{"dist": [[false, true], [true, false]]}', "distances must be numbers"),
    ("header.csv", "a\nb\n", "row 0 has no coordinates"),
    ("ragged.csv", "1,2\n3\n", "row 1 has 1 coordinates, row 0 has 2"),
    ("ragged.json", '{"dist": [[0, 1], [1]]}', "row 1 has 1 entries, row 0 has 2"),
    ("scalar-row.json", '{"dist": [[0, 1], 1]}', ": row 1 must be a list, got 1"),
    ("scalar-first-row.json", '{"dist": [1, [0, 1]]}', ": row 0 must be a list, got 1"),
    ("nested-rows.json", '{"dist": [[[0], [0, 1]], [[0], [1]]]}',
     ": row 0 entry 0 must be a number, got [0]"),
    ("infinite.csv", "1,inf\n2,3\n", "distances must be finite"),
    ("overflow.csv", "1e200,0\n-1e200,0\n", "distances must be finite"),
    ("empty.csv", "", "invalid space input: no rows in "),
    ("short.json", '{"points": ["a"], "dist": [[0, 1], [1, 0]]}',
     "invalid space input: points list length must match the matrix size"),
], ids=["string-distances", "bool-distances", "no-coordinates", "unequal-rows",
        "unequal-distance-rows", "non-list-row", "non-list-first-row", "nested-rows",
        "infinite-coordinate", "overflowing-distance", "empty-csv", "short-points-list"])
def test_validate_refuses_malformed_space_files(tmp_path, capsys, name, text, needle):
    """Each of these files once loaded as some other space, or was refused
    through a NumPy warning or message; each is refused with its own reason."""
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--input", str(path)]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert needle in json.loads(out)["checks"][0]["detail"]


GOODNESS = ["goodness", "--input", "{elbow}", "--delta", "0.1", "--trials", "20"]


@pytest.mark.parametrize("argv, code, needle", [
    (["validate", "--input", "{dir}"], 3, "Is a directory"),
    (["lattice", "--input", "{dir}", "--seed", "0"], 3, "input error:"),
    (["grids", "--input", "{empty}", "--seed", "0"], 3, "input error: invalid space input: "
     "no rows in "),
    (["grids", "--input", "{short}", "--seed", "0"], 3, "input error: invalid space input: "
     "points list length must match the matrix size\n"),
    (["lattice", "--seed", "0"], 2, "the following arguments are required: --input"),
    (["a2"], 2, "the following arguments are required: --input"),
    (GOODNESS + ["--seed", "0", "--level", "99"], 2, "error: level 99"),
    (GOODNESS + ["--seed", "0", "--level", "-5"], 2, "error: level -5"),
    (["grids", "--input", "{elbow}", "--seed", "-1"], 2,
     "error: argument --seed: seed must be an integer >= 0, got -1\n"),
    (["grids", "--input", "{elbow}", "--seed", "0", "--n0", "-400"], 2,
     "error: the coarsest scale"),
    (["lattice", "--input", "{elbow}", "--seed", "0", "--delta", "0.9999999"], 2,
     "error: levels 0 to 28134106 make 28134107 levels"),
    (["grids", "--input", "{elbow}", "--seed", "0", "--out", "{dir}/no/r.json"], 2,
     "config error: cannot write the report"),
    (GOODNESS + ["--seed", "0", "--eps-schedule", "nan"], 2, "error: eps values"),
    (GOODNESS + ["--seed", "0", "--eps-schedule", "1e-4,abc"], 2,
     "config error: bad --eps-schedule"),
    (GOODNESS + ["--seed", "0", "--freeze-above", "0"], 2,
     "config error: --freeze-above applies to grids and lattice only"),
    (["grids", "--input", "{elbow}", "--seed", "0", "--mode", "greedy_permutation",
      "--limit", "0"], 2, "error: limit must be an integer >= 1, got 0\n"),
    (["grids", "--input", "{elbow}", "--seed", "0", "--delta", "0.1", "--n0", "-308",
      "--out", "{dir}/r.json"], 2,
     "config error: the report holds a non-finite number"),
    (["a2", "--input", "{elbow}", "--m-exponent", "nan"], 2,
     "error: growth exponent must be positive"),
    (["a2", "--input", "{two}", "--m-exponent", "2000"], 2, "error: growth exponent 2000"),
    (["a2", "--input", "{elbow}", "--m-exponent", "400"], 2, "error: growth exponent 400"),
], ids=["dir-input", "dir-input-lattice", "empty-csv", "short-points-list",
        "no-input-lattice", "no-input-a2",
        "level-above", "level-below", "negative-seed", "overflowing-n0", "too-many-levels",
        "unwritable-out", "nan-eps", "unparsed-eps", "goodness-freeze-above", "greedy-zero-limit",
        "infinite-bound", "nan-growth-exponent", "overflowing-growth-power",
        "vanishing-growth-power"])
def test_bad_runs_exit_without_traceback(tmp_path, capsys, elbow_json, argv,
                                         code, needle):
    two = tmp_path / "two.json"  # points 2 apart: 2.0 ** 2000 overflows
    two.write_text(json.dumps({"points": ["p", "q"], "dist": [[0, 2], [2, 0]]}))
    (tmp_path / "empty.csv").write_text("")
    short = tmp_path / "short.json"  # a points list shorter than its matrix
    short.write_text(json.dumps({"points": ["a"], "dist": [[0, 1], [1, 0]]}))
    argv = [a.format(elbow=elbow_json, two=two, dir=tmp_path, empty=tmp_path / "empty.csv",
                     short=short) for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    # validate reports a bad input in its report; the others on stderr
    assert needle in (out if argv[0] == "validate" else err)
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()  # no partial report


@pytest.mark.parametrize("extra, needle", [
    (["--eps-schedule", "abc"], "config error: bad --eps-schedule"),
    (["--eps-schedule", "1e-1"], "error: every eps must satisfy 500*eps <= delta"),
    (["--eps-schedule", ","], "config error: bad --eps-schedule: empty value in ','"),
    (["--eps-schedule", "1e-4,,5e-5"],
     "config error: bad --eps-schedule: empty value in '1e-4,,5e-5'"),
    # the default's second value, (delta / 500) * delta ** gamma, is 0.0
    (["--delta", "1e-300"], "config error: the default eps schedule underflows to 0 at "
                            "delta=1e-300 and gamma=0.1; give --eps-schedule"),
    # the default's ratio, delta ** gamma, rounds to 1.0, so its values are all equal
    (["--gamma", "1e-17"], "config error: the default eps schedule is not strictly "
                           "decreasing at delta=0.1 and gamma=1e-17; give --eps-schedule"),
], ids=["unparsed", "too-wide", "empty", "double-comma", "default-underflows",
        "default-stalls"])
def test_goodness_refuses_a_bad_eps_schedule_before_any_trial(monkeypatch, tmp_path, capsys,
                                                              elbow_json, extra, needle):
    calls = count_runs(monkeypatch)
    argv = [a.format(elbow=elbow_json) for a in GOODNESS]
    assert main(argv + ["--seed", "0", *extra, "--out", str(tmp_path / "r.json")]) == 2
    assert needle in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [["grids"], ["lattice"], ["goodness", "--trials", "5"]])
def test_distances_near_the_float_maximum(tmp_path, capsys, argv):
    """delta**(M - 1) overflows past the finest level M = -102; the coarsest
    level is then refused as finer than M, and --n0 -102 runs."""
    src = tmp_path / "huge.json"
    src.write_text(json.dumps({"points": ["a", "b"], "dist": [[0, 1e308], [1e308, 0]]}))
    argv = argv + ["--input", str(src), "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        "error: coarsest level 0 is finer than the finest level -102\n")
    code, out = run_to_file(tmp_path, argv + ["--n0", "-102"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["n0"] == -102


@pytest.mark.parametrize("delta", ["0.123", "0.246"])
def test_goodness_default_eps_schedule_meets_its_bound(tmp_path, elbow_json, delta):
    """The default schedule starts at delta / 500, which the bound accepts
    even where 500 * (delta / 500) rounds above delta."""
    code, out = run_to_file(tmp_path, [
        "goodness", "--input", elbow_json, "--delta", delta, "--trials", "20",
        "--seed", "0"])
    assert code in (0, 1)
    assert json.loads(out.read_text())["data"]["decay"]["eps"][0] == float(delta) / 500


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
def test_malformed_workers_is_config_error(monkeypatch, tmp_path, capsys,
                                           elbow_json, value):
    monkeypatch.setenv("DYADICLAB_WORKERS", value)
    argv = [a.format(elbow=elbow_json) for a in GOODNESS]
    assert main(argv + ["--seed", "0", "--out", str(tmp_path / "r.json")]) == 2
    _, err = capsys.readouterr()
    assert err == (f"config error: DYADICLAB_WORKERS must be an integer >= 1, "
                   f"got {value!r}\n")
    assert not (tmp_path / "r.json").exists()


def test_goodness_bytes_do_not_depend_on_workers(monkeypatch, tmp_path, elbow_json):
    args = ["goodness", "--input", elbow_json, "--delta", "0.1",
            "--trials", "200", "--seed", "4"]
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DYADICLAB_WORKERS", workers)
        code, out = run_to_file(tmp_path, args, f"workers{workers}.json")
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_reports_match_their_recorded_digests(tmp_path):
    """The byte-identical contract: every report and refusal text of the
    corpus in ``report_corpus.py`` has the exit code and sha256 recorded in
    ``report_digests.json``, whatever DYADICLAB_WORKERS says.  A change that
    moves report bytes on purpose rewrites the file with
    ``tools/report_digests.py --write`` and lists what it printed."""
    recorded = json.loads(DIGESTS.read_text())["reports"]
    assert report_digests(tmp_path) == recorded


# --- one trial run per goodness command --------------------------------------------

def elbow_goodness(elbow_json, seed) -> list[str]:
    """The goodness command of the cli-goodness-elbow benchmark workload."""
    return ["goodness", "--input", elbow_json, "--delta", "0.1", "--gamma", "0.1",
            "--r", "1", "--trials", "500", "--seed", str(seed)]


def count_runs(monkeypatch) -> list:
    """The trial count of each run the estimators make, from now on."""
    runs, run_chunked = [], goodness.run_chunked
    monkeypatch.setattr(goodness, "run_chunked", lambda worker, payload, trials, workers=1:
                        runs.append(trials) or run_chunked(worker, payload, trials, workers))
    return runs


@pytest.mark.parametrize("mode", MODES)
def test_goodness_command_makes_one_run(monkeypatch, tmp_path, elbow_json, mode):
    """The command's estimators run as jobs of one ``run_chunked`` call,
    three in uniform mode and two in greedy mode."""
    runs = count_runs(monkeypatch)
    code, out = run_to_file(tmp_path, elbow_goodness(elbow_json, 0) + ["--mode", mode])
    assert code == 0
    assert runs == [500]
    assert ("frequency" in json.loads(out.read_text())["data"]["equalization"]) == (
        mode == MODES[0])


@pytest.mark.parametrize("extra, err", [
    (["--level", "0"], "error: fixed center 0 absent from the level-0 grid; "
                       "fix the center at the deterministic finest level\n"),
    (["--level", "99"], "error: level 99 not present in the hierarchy\n"),
    (["--center", "y"], "error: no point named 'y'\n"),
    (["--trials", "0"], "error: trials must be an integer >= 1, got 0\n"),
    (["--limit", "0"], "error: limit must be an integer >= 1, got 0\n"),
    (["cascade"], "error: component of size 26 exceeds the cap 20\n"),
    # the exact walk refuses level 99 first, but the trials' refusal is the command's
    (["cascade", "--level", "99"], "error: component of size 26 exceeds the cap 20\n"),
], ids=["level-0", "level-99", "no-center", "zero-trials", "zero-limit", "cascade",
        "cascade-level-99"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_goodness_refusals_keep_their_text(monkeypatch, tmp_path, capsys, elbow_json,
                                           extra, err, workers):
    """Refusals that the exact walk and the trials can both raise: the
    command gives the text of the first one met when its estimators ran one
    after another, the exact walk after the bad-probability and decay
    trials, whatever the worker count.  The cascade is the 60-point cloud of
    acceptance criterion 7, at the default delta."""
    monkeypatch.setenv("DYADICLAB_WORKERS", workers)
    argv = elbow_goodness(elbow_json, 0)
    if extra[:1] == ["cascade"]:
        cloud = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                              branching=3, ratio=0.1, spread=(0.25, 0.45))
        dl.save_space(cloud, str(tmp_path / "cloud.json"))
        argv = ["goodness", "--input", str(tmp_path / "cloud.json"), "--trials", "500",
                "--seed", "0", *extra[1:]]
    else:
        argv += extra
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "r.json").exists()


def test_goodness_raises_the_exact_walks_refusal_after_trials_that_pass(tmp_path, capsys):
    """Seed 1's one trial keeps a in the level-1 grid, so the trials refuse
    nothing, but the exact walk meets a grid outcome without a: the command
    raises the walk's refusal once its trials have run, exit 2, with no
    report and no traceback."""
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({"points": ["a", "b", "c"],
                               "dist": [[0, 0.05, 1], [0.05, 0, 0.96], [1, 0.96, 0]]}))
    assert main(["goodness", "--input", str(src), "--delta", "0.1", "--level", "1",
                 "--center", "a", "--trials", "1", "--seed", "1",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == ("error: fixed center 0 absent from the level-1 grid; "
                                       "fix the center at the deterministic finest level\n")
    assert not (tmp_path / "r.json").exists()


def test_goodness_command_builds_each_distinct_forest_once(monkeypatch, tmp_path,
                                                           elbow_json):
    """The elbow's trials hold 6 distinct forests.  The command's three
    estimators run as jobs of one trial chunk, in one session, so it builds
    6 forests in all, not 6 per estimator, and classifies each once: the
    bad-probability and really-good jobs share their rows.  A second command
    makes a new session and builds its 6 again.  The forests classified are
    counted over every batch the row function is called on."""
    monkeypatch.delenv("DYADICLAB_WORKERS", raising=False)
    built, classified = [], []
    build_forest, bad_rows = goodness.build_forest, goodness._bad_rows

    def counting_build_forest(hierarchy, rng):
        built.append(hierarchy)
        return build_forest(hierarchy, rng)

    def counting_bad_rows(forests, *args, **kwargs):
        classified.extend(forests)
        return bad_rows(forests, *args, **kwargs)

    monkeypatch.setattr(goodness, "build_forest", counting_build_forest)
    monkeypatch.setattr(goodness, "_bad_rows", counting_bad_rows)
    for _ in range(2):
        built.clear()
        classified.clear()
        code, _ = run_to_file(tmp_path, elbow_goodness(elbow_json, 0))
        assert code == 0
        assert len(built) == 6 and len(classified) == 6


def test_goodness_command_keeps_no_forest_it_cannot_reuse(monkeypatch, tmp_path):
    """On the criterion-7 cloud a trial's draw path has probability about
    1e-19, so no trial of a command can expect a memo hit.  Its one run is
    one chunk, whose two jobs (exact enumeration is refused) walk in one
    session: it enters the first trial's path, keeps that one forest, and
    stops before any other trial of either job builds.  With the stop never
    firing, the session enters and keeps all 120 forests of the two jobs,
    and the report bytes are the same."""
    monkeypatch.delenv("DYADICLAB_WORKERS", raising=False)
    cloud = dl.make_space("random_cloud", seed=10, n=60, dim=2, levels=4,
                          branching=3, ratio=0.1, spread=(0.25, 0.45))
    path = tmp_path / "cloud.json"
    dl.save_space(cloud, str(path))
    runs, sessions, chunk_rows = count_runs(monkeypatch), [], mc._chunk_rows
    monkeypatch.setattr(mc, "_chunk_rows", lambda session, build, jobs, *args: sessions.append(
        (session, len(jobs))) or chunk_rows(session, build, jobs, *args))
    reports = {}
    for stop in ("rule", "never"):
        if stop == "never":
            monkeypatch.setattr(mc, "_expects_no_hit", lambda session, left: False)
        runs.clear()
        sessions.clear()
        code, out = run_to_file(tmp_path, ["goodness", "--input", str(path), "--delta", "0.1",
                                           "--trials", "60", "--seed", "0"], f"{stop}.json")
        assert code in (0, 1)
        reports[stop] = out.read_bytes()
        assert runs == [60] and [jobs for _, jobs in sessions] == [2]
        (shared, _), = sessions
        kept = sum(build is not None for build in shared.builds)
        assert kept == shared.paths
        assert kept <= 1 if stop == "rule" else kept == 120
    assert reports["rule"] == reports["never"]


def test_goodness_command_walks_its_jobs_together(monkeypatch, tmp_path, elbow_json):
    """A seed-0 elbow command's three jobs take their states from one array
    pass and walk the memo together: 1 ``_walk``, 1 ``_state_block`` and one
    ``_draw`` per memo node with a call, 5 in all, where a walk per job made
    3, 3 and 15.  The decay rows, like the bad-probability rows, classify
    the 6 distinct forests once."""
    monkeypatch.delenv("DYADICLAB_WORKERS", raising=False)
    mc._words_match()  # the process's probe walks once, on a stream of its own
    counts, decayed = {}, []

    def counting(name, f):
        return lambda *args: counts.update({name: counts.get(name, 0) + 1}) or f(*args)

    for name in ("_walk", "_state_block", "_draw"):
        monkeypatch.setattr(mc, name, counting(name, getattr(mc, name)))
    decay_rows = goodness._decay_rows
    monkeypatch.setattr(goodness, "_decay_rows", lambda forests, *args, **kwargs:
                        decayed.extend(forests) or decay_rows(forests, *args, **kwargs))
    code, _ = run_to_file(tmp_path, elbow_goodness(elbow_json, 0))
    assert code == 0
    assert counts == {"_walk": 1, "_state_block": 1, "_draw": 5}
    assert len(decayed) == 6


def test_words_are_checked_once_per_process(monkeypatch, tmp_path, elbow_json, elbow,
                                            fresh_verdict):
    """Whether NumPy draws as ``mc``'s word math does is a fact of the
    process: two goodness commands and two estimator calls in one process
    compute the probe once."""
    monkeypatch.delenv("DYADICLAB_WORKERS", raising=False)
    for seed in (0, 1):
        code, _ = run_to_file(tmp_path, elbow_goodness(elbow_json, seed))
        assert code == 0
    params = dl.GoodnessParams(delta=0.1, gamma=0.1, r=1)
    for seed in (0, 1):
        dl.estimate_bad_probability(elbow, 2, "x", params, trials=300, seed=seed)
    assert fresh_verdict.cache_info().misses == 1


def test_goodness_command_starts_one_process_pool(monkeypatch, tmp_path, elbow_json):
    """With workers, the command's one run starts one process pool, shut
    down when the run ends."""
    monkeypatch.setenv("DYADICLAB_WORKERS", "2")
    started, shut = [], []

    class CountingPool(mc.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            shut.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", CountingPool)
    code, _ = run_to_file(tmp_path, ["goodness", "--input", elbow_json, "--delta", "0.1",
                                     "--trials", "50", "--seed", "3"])
    assert code == 0
    assert len(started) == 1 and shut == started


@pytest.mark.parametrize("mode", MODES)
def test_goodness_report_matches_the_estimators_one_by_one(monkeypatch, tmp_path, elbow,
                                                           ladder, mode):
    """The command's one run changes no field: each equals that of the
    public estimator called alone, in a run of its own.  On the ladder the
    miss budget is cut to 2 paths, below its count of distinct forests, so
    most of its trials take the build-only branch."""
    params = dl.GoodnessParams(delta=0.1, gamma=0.1, r=1)
    for space, budget in ((elbow, mc._MISS_BUDGET), (ladder, 2)):
        monkeypatch.setattr(mc, "_MISS_BUDGET", budget)
        path = tmp_path / "space.json"
        dl.save_space(space, str(path))
        level, center = dl.finest_level(space, 0.1, 0), space.name(0)
        for seed in (3, 8):
            code, out = run_to_file(tmp_path, [
                "goodness", "--input", str(path), "--delta", "0.1", "--gamma", "0.1",
                "--r", "1", "--trials", "300", "--seed", str(seed), "--mode", mode])
            assert code in (0, 1)
            data = json.loads(out.read_text())["data"]
            est = dl.estimate_bad_probability(space, level, center, params, trials=300,
                                              seed=seed, mode=mode)
            assert data["bad_probability"] == {
                "fraction": est.fraction, "bad": est.bad_count, "trials": est.trials,
                "wilson": [est.wilson_low, est.wilson_high]}
            fit = dl.estimate_boundary_decay(space, center, level, data["decay"]["eps"],
                                             trials=300, seed=seed + 1, params=params,
                                             mode=mode)
            assert data["decay"] == {
                "eps": list(fit.eps), "counts": list(fit.counts),
                "estimates": list(fit.estimates),
                "intervals": [list(iv) for iv in fit.intervals],
                "eta_hat": fit.eta_hat, "eta_reference": fit.eta_reference}
            equalization = data["equalization"]
            if mode == MODES[0]:
                p_q, a = (Fraction(equalization[k]["num"], equalization[k]["den"])
                          for k in ("p_q", "a"))
                assert equalization["frequency"] == dl.estimate_really_good(
                    space, center, level, params, float(a), float(p_q), trials=300,
                    seed=seed + 2, mode=mode)
            else:
                assert equalization["p_q_plugin"] == max(1.0 - est.fraction, 1 / 300)


# --- fuzzing -----------------------------------------------------------------------

def mostly(valid, invalid):
    """A valid draw three times in four, so most runs get past the parser;
    otherwise one of the listed invalid values."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else st.sampled_from(invalid))


def optional(flag, values):
    """The option with a drawn value, or nothing when the draw is None."""
    return st.one_of(st.none(), values).map(
        lambda v: [] if v is None else [flag, str(v)])


# points on a line, kept as coordinates for the CSV form of the input
LINE = st.lists(st.integers(0, 300), min_size=1, max_size=5, unique=True).map(
    lambda xs: {"coords": [x / 100 for x in xs],
                "points": [f"p{i}" for i in range(len(xs))],
                "dist": [[abs(a - b) / 100 for b in xs] for a in xs]})
SPACE = mostly(LINE, [
    [1, 2], {"points": ["a"]}, {"dist": {"a": 1}}, {"dist": [[0]], "points": 5},
    {"dist": []}, {"points": ["p", "p"], "dist": [[0, 1], [1, 0]]}, "text", None,
    {"dist": [[0, 1], [2, 0]]}, {"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}])
WEIGHTS = st.one_of(st.none(), st.sampled_from([[1], 3, "w"]), st.fixed_dictionaries({
    "mu": st.dictionaries(st.sampled_from(["p0", "p1", "p2"]),
                          st.sampled_from([0, 1, 2.5, -1, "a", None])),
    "w": st.dictionaries(st.sampled_from(["p0", "p1", "p2"]),
                         st.sampled_from([0, 1, 4, -1, "a"])),
}))
BAD_FLOATS = ["0", "1", "-0.1", "2", "nan", "inf"]
SEEDED = [
    optional("--delta", mostly(st.sampled_from(["0.001", "0.01", "0.1", "0.3"]),
                               BAD_FLOATS + ["0.5"])),
    optional("--gamma", mostly(st.sampled_from(["0.1", "0.5", "0.9"]), BAD_FLOATS)),
    optional("--r", mostly(st.integers(1, 3), [-1, 0])),
    optional("--n0", st.integers(-3, 3)),
    mostly(st.integers(0, 50), [-1, None]).map(
        lambda v: [] if v is None else ["--seed", str(v)]),
    optional("--mode", mostly(st.sampled_from(["exhaustive_uniform",
                                               "greedy_permutation"]), ["other"])),
    optional("--freeze-above", st.integers(-1, 4)),
]
OPTIONS = {
    "validate": [],
    "grids": SEEDED,
    "lattice": SEEDED,
    "coloring": [optional("--tree-branching", st.integers(0, 3)),
                 optional("--tree-height", st.integers(-1, 3))],
    "goodness": SEEDED + [
        optional("--trials", mostly(st.integers(1, 20), [-1, 0])),
        optional("--level", st.integers(-2, 8)),
        optional("--center", st.sampled_from(["p0", "p1", "zz"])),
        optional("--eps-schedule", mostly(
            st.sampled_from(["1e-6", "1e-6,1e-7"]),
            ["1e-7,1e-6", "nan", "-1", "x", "0.5", ","]))],
    "a2": [optional("--m-exponent", mostly(st.sampled_from(["0.5", "1", "2"]),
                                           BAD_FLOATS + ["400", "1000"]))],
}
ARGV = st.sampled_from(sorted(OPTIONS)).flatmap(lambda sub: st.tuples(
    st.just(sub),
    optional("--limit", mostly(st.integers(3, 20), [-1, 0, 1])),
    optional("--format", st.sampled_from(["json", "csv"])),
    *OPTIONS[sub]))


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, space=SPACE, weights=WEIGHTS, as_csv=st.booleans())
def test_cli_fuzz_exit_codes(argv, space, weights, as_csv):
    """No run raises; the exit code is 0-3; 1 means a check failed."""
    sub, *opts = argv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if as_csv and isinstance(space, dict) and "coords" in space:
            src = tmp / "space.csv"
            src.write_text("".join(f"{x}\n" for x in space["coords"]))
        else:
            src = tmp / "space.json"
            src.write_text(json.dumps(space))
        args = [sub, "--input", str(src), "--out", str(tmp / "report")]
        args += [tok for opt in opts for tok in opt]
        if weights is not None and sub == "a2":
            (tmp / "weights.json").write_text(json.dumps(weights))
            args += ["--weights", str(tmp / "weights.json")]
        code = main(args)
        assert code in (0, 1, 2, 3)
        if code in (0, 1) and "csv" not in args:
            report = json.loads((tmp / "report").read_text(),
                                parse_constant=reject_constant)
            if code == 1:
                assert any(not c["pass"] for c in report["checks"])
        if code == 1 and "csv" in args:
            rows = list(csv.reader((tmp / "report").read_text().splitlines()))
            checks = rows[rows.index(["check", "pass", "detail"]) + 1:]
            assert any(verdict == "False" for _, verdict, _ in checks)
