import hashlib
import json
import math
import pathlib
import types

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
                 "--out", str(out)])
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


# removed flags, a missing source, a value of the wrong type: exit 1, as
# for any malformed input, never 2, which solve keeps for a time limit
@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "2,2,1,0", "--width", "2"],
    ["solve"],
    ["solve", "--gen", "2,2,1,0", "--time-limit", "abc"],
    ["compare", "--width", "2"],
    ["solve", "--gen", "2,3,2,2", "--width", "0"],
    ["solve", "--instance", str(FIXTURES / "two_binary_mip.json"), "--sense", "max",
     "--width", "0"],
    ["compare", "--sizes", "2,2,1", "--seeds", "0", "--width", "0"],
    ["solve", "--gen", "2,2,1,0", "--no-relaxed-cuts"],
], ids=["solve-width", "solve-no-source", "solve-time-limit-abc", "compare-width",
        "solve-width-0", "mip-sense-width-0", "compare-width-0", "solve-no-relaxed-cuts"])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ddbd") and "error:" in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["solve", "--help"])
    assert stop.value.code == 0
    assert "--time-limit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--gen", "2,3,2,2"],
    ["compare", "--sizes", "2,2,1", "--seeds", "0"],
    ["gen", "--params", "2,3,2,2"],
], ids=["solve", "compare", "gen"])
def test_unwritable_out_is_an_error_before_any_work(argv, tmp_path, capsys, monkeypatch):
    import ddbd.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the --out path was checked")

    monkeypatch.setattr(cli, "ucp_solve", no_solve)
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("limit", ["-1", "nan"])
def test_negative_or_nan_time_limit_is_an_error(limit, capsys):
    assert main(["solve", "--gen", "2,3,2,1", "--time-limit", limit]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "time limit" in captured.err
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


def broken_mip(tmp_path, edit):
    doc = json.loads((FIXTURES / "two_binary_mip.json").read_text())
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return ["solve", "--instance", str(path)]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["gen", "--params", "0,3,2,2"],
    lambda tmp_path: broken_mip(tmp_path, lambda doc: doc.pop("rows")),
    lambda tmp_path: broken_mip(tmp_path, lambda doc: doc.update(sense="min")),
], ids=["gen-without-units", "mip-without-rows", "mip-min-sense"])
def test_malformed_input_is_an_error_not_a_traceback(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def set_row(key, value):
    def edit(doc):
        doc["rows"][0][key] = value
    return edit


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(sense="maximise"),
    set_row("sense", "<"),
    lambda doc: doc.update(x_obj=[1.0]),
    set_row("ax", [1.0, 1.0, 1.0]),
    set_row("by", [0.0]),
    set_row("rhs", "1.0"),
    lambda doc: doc["x_domains"][1].append("two"),
    lambda doc: doc.update(z_bounds=[10.0, -10.0]),
    lambda doc: doc.update(z_bounds=[-10.0]),
    lambda doc: doc["x_obj"].__setitem__(0, 10 ** 400),
], ids=["sense", "row-sense", "x-obj-length", "ax-length", "by-length", "rhs-string",
        "domain-label", "z-bounds-reversed", "z-bounds-one-entry", "huge-x-obj"])
def test_malformed_mip_fixture_is_rejected(edit, tmp_path, capsys):
    assert main(broken_mip(tmp_path, edit)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad problem document:")
    assert captured.out == ""


def set_generator(key, value):
    def edit(doc):
        doc["generators"][0][key] = value
    return edit


def set_demand(doc):
    doc["scenarios"][0]["D"][1] = math.nan


# JSON's NaN and Infinity literals parse to floats, float() takes "500",
# and an integer past the float range overflows any conversion
@pytest.mark.parametrize("edit", [
    set_demand,
    set_generator("c_g", math.nan),
    set_generator("c_f", math.inf),
    lambda doc: doc.update(T=3.9),
    set_generator("c_f", "500"),
    set_generator("c_f", 10 ** 400),
], ids=["nan-demand", "nan-c_g", "infinite-c_f", "fractional-T", "string-c_f", "huge-c_f"])
def test_malformed_ucp_instance_is_rejected(edit, tmp_path, capsys):
    doc = json.loads(gen_random_instance(2, 3, 2, seed=2).to_json())
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_mip_without_continuous_variables_solves_its_master(tmp_path):
    # no y: the one row is a master row and the slave value is 0 for every x
    def drop_y(doc):
        doc.update(y_obj=[], rows=[{"ax": [1, 1], "by": [], "rhs": 1, "sense": ">="}])

    out = tmp_path / "r.json"
    assert main(broken_mip(tmp_path, drop_y) + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal" and doc["x"] == [1.0, 1.0]
    assert doc["value"] == 2.0 and doc["z"] == 0.0


def test_mip_without_integer_variables_solves_its_slave(tmp_path):
    # no x: the master is the value arc alone, and the slave LP is the problem
    def drop_x(doc):
        doc.update(x_domains=[], x_obj=[], rows=[
            {"ax": [], "by": [1, 1], "rhs": 0, "sense": ">="},
            {"ax": [], "by": [0.3, 0.7], "rhs": 0.3, "sense": "<="}])

    out = tmp_path / "r.json"
    assert main(broken_mip(tmp_path, drop_x) + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal" and doc["x"] == []
    assert doc["value"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("rows", [
    [{"ax": [1, 1], "by": [0], "rhs": 1, "sense": ">="}],
    [{"ax": [1, 1], "by": [0], "rhs": 1, "sense": ">="},
     {"ax": [0, 0], "by": [-1], "rhs": 0, "sense": "<="}],
], ids=["no-slave-row", "slave-row-without-bound"])
def test_unbounded_mip_is_an_error_not_a_traceback(rows, tmp_path, capsys):
    # y earns 1 per unit and no row caps it
    def unbounded(doc):
        doc.update(y_obj=[1.0], rows=rows)

    assert main(broken_mip(tmp_path, unbounded)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "unbounded" in captured.err
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


def test_compare_times_the_classical_split_and_brute_force(tmp_path, monkeypatch):
    import ddbd.cli as cli

    # naive-bd runs from 10.0 to 10.25, brute force from 20.0 to 21.5
    ticks = iter([10.0, 10.25, 20.0, 21.5])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--sizes", "2,2,1", "--seeds", "0", "--out", str(out)]) == 0
    times = {row[1]: row[4] for row in
             (line.split(",") for line in out.read_text().strip().splitlines()[1:])}
    assert times["naive-bd"] == "0.250" and times["brute-force"] == "1.500"


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


def boxes_with(edit):
    doc = json.loads((FIXTURES / "example_boxes.json").read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    "x",
    boxes_with(lambda doc: doc.update(membership=[1, 2])),
    boxes_with(lambda doc: doc.pop("samples")),
], ids=["list", "string", "membership-list", "no-samples"])
def test_verify_rejects_a_malformed_fixture(doc, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-decomposition", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad fixture document:")
    assert captured.out == ""


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


# sha256 of every --emit-dot file, by file name; the MIP hashes were
# recorded before diagrams were stored as flat arrays: to_dot must write
# the same bytes
PINNED_DOTS = {
    "two_binary_mip": {
        "0000_restricted.dot": "62eeff71c6ac96d1fe5e566fc4955674af9f62222fb76022c4f6c827630bbc2c",
        "0001_restricted.dot": "b839f89032174d29716791d54b013204efb73eba5b158cfb47b3e2e3986375ea",
        "0002_restricted.dot": "11e52109134673105a61e58cb0dad643b7548f0f9ea6f5a51d4e04cfe742f91a",
    },
}


def _dot_hashes(tmp_path, name, instance):
    dots = tmp_path / name
    code = main(["solve", "--instance", str(instance), "--emit-dot", str(dots),
                 "--out", str(tmp_path / f"{name}.json")])
    assert code == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(dots.glob("*.dot"))}


def test_emitted_dot_files_match_their_recorded_hashes(tmp_path):
    got = {"two_binary_mip": _dot_hashes(tmp_path, "two_binary_mip",
                                         FIXTURES / "two_binary_mip.json")}
    assert got == PINNED_DOTS


def test_emit_dot_is_a_usage_error_where_it_cannot_write_or_draw(tmp_path, capsys):
    from reference_lp import scaled_instance

    # a regular file where the directory should go
    taken = tmp_path / "taken"
    taken.write_text("")
    # a unit-commitment master builds no diagram to draw
    ucp = tmp_path / "ucp.json"
    ucp.write_text(scaled_instance(2, 4, 2, 5, 0.5).to_json())
    for instance, dots, message in [
            (FIXTURES / "two_binary_mip.json", taken, "error: "),
            (ucp, tmp_path / "dots", "error: --emit-dot needs a MIP instance")]:
        out = tmp_path / "r.json"
        code = main(["solve", "--instance", str(instance), "--emit-dot", str(dots),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith(message), captured.err
        assert captured.out == "" and not out.exists()
    assert not (tmp_path / "dots").exists()
