"""Command-line interface: subcommands, exit codes, report determinism."""
import json

import pytest

from dyadiclab.cli import main


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
], ids=["missing-point", "list-top-level", "non-numeric", "mu-not-a-map"])
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


def test_a2_csv_input_uses_unit_weights(tmp_path):
    src = tmp_path / "line.csv"
    src.write_text("0\n1\n3\n")
    code, out = run_to_file(tmp_path, ["a2", "--input", str(src)])
    assert code == 0
    assert json.loads(out.read_text())["data"]["a2_characteristic"] == 1.0
