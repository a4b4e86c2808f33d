import json
import pathlib

import pytest

from ddbd.cli import main
from ddbd.ucp import gen_random_instance

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = main(["gen", "--params", "2,3,2,7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["T"] == 3 and len(doc["generators"]) == 2
    # deterministic per seed
    assert out.read_text() == gen_random_instance(2, 3, 2, 7).to_json()


def test_solve_worked_mip_fixture(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["solve", "--instance", str(FIXTURES / "two_binary_mip.json"),
                 "--sense", "max", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(11.0 / 3.0, abs=1e-6)
    assert doc["feasibility_cuts"] == 1 and doc["optimality_cuts"] == 1
    assert (tmp_path / "report.csv").exists()
    assert "optimal" in captured


def test_solve_zero_demand_generated(tmp_path):
    inst = gen_random_instance(1, 2, 1, seed=3)
    # rebuild with zero demand: cheapest schedule is everything off
    doc = json.loads(inst.to_json())
    for sc in doc["scenarios"]:
        sc["D"] = [0.0] * doc["T"]
        sc["R"] = [0.0] * doc["T"]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    code = main(["solve", "--instance", str(path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["value"] == pytest.approx(0.0, abs=1e-9)
    assert rep["feasibility_cuts"] == 0


def test_solve_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    code = main(["solve", "--instance", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_width_flag_does_not_change_value(tmp_path):
    inst = gen_random_instance(2, 3, 2, seed=2)
    path = tmp_path / "inst.json"
    path.write_text(inst.to_json())
    reports = []
    for width in ("2", "1000000"):
        out = tmp_path / f"r{width}.json"
        code = main(["solve", "--instance", str(path), "--width", width,
                     "--out", str(out)])
        reports.append((code, json.loads(out.read_text())))
    (c1, r1), (c2, r2) = reports
    assert c1 == c2
    if c1 == 0:
        assert r1["value"] == pytest.approx(r2["value"], rel=1e-6, abs=1e-6)


def test_time_limit_report_file_is_strict_json(tmp_path):
    out = tmp_path / "r.json"
    code = main(["solve", "--gen", "4,8,3,0", "--time-limit", "0.0001",
                 "--out", str(out)])
    assert code == 2

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["status"] == "time_limit"
    assert doc["value"] is None and doc["gap"] is None


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "2,3,2,2", "--width", "0"],
    ["solve", "--instance", str(FIXTURES / "two_binary_mip.json"), "--sense", "max",
     "--width", "0"],
    ["compare", "--sizes", "2,2,1", "--seeds", "0", "--width", "0"],
])
def test_width_below_one_is_an_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "width" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["compare", "--sizes", "2,3", "--seeds", "0"],
    ["compare", "--sizes", "2,2,1,4", "--seeds", "0"],
    ["compare", "--sizes", "2,x,1", "--seeds", "0"],
    ["compare", "--sizes", "0,2,1", "--seeds", "0"],
    ["compare", "--sizes", "2,2,1", "--seeds", "0,x"],
])
def test_compare_rejects_malformed_arguments(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_compare_three_way_agreement(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--sizes", "2,2,2", "--seeds", "0,1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("instance,method,status")
    assert len(lines) == 1 + 2 * 3
    assert all(line.endswith(",=") for line in lines[1:])


def test_compare_empty_seed_list(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--sizes", "2,2,2", "--out", str(out)])
    assert code == 0
    assert out.read_text().strip().splitlines() == [
        "instance,method,status,value,time,f_cuts,o_cuts,branches,agree"]


def test_verify_fixture_pass_and_fail(capsys):
    code = main(["verify-decomposition", str(FIXTURES / "example_boxes.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out

    code = main(["verify-decomposition", str(FIXTURES / "extreme_points_only.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "equivalence[neg_square_x2]: FAIL" in out


def test_verify_missing_file(capsys):
    code = main(["verify-decomposition", "/nonexistent.json"])
    assert code == 1


def test_emit_dot_snapshots(tmp_path):
    dots = tmp_path / "dots"
    code = main(["solve", "--instance", str(FIXTURES / "two_binary_mip.json"),
                 "--emit-dot", str(dots), "--out", str(tmp_path / "r.json")])
    assert code == 0
    files = sorted(dots.glob("*.dot"))
    assert files, "expected diagram snapshots"
    assert "digraph" in files[0].read_text()
