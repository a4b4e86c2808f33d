import json
import logging
import math
import os
import pathlib
import subprocess
import sys
import types

import pytest

import ddbd
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
    ["compare", "--sizes", "2,3,2"],
    ["compare", "--seeds", "0,1"],
    ["solve", "--gen", "2,2,1,0", "--out", "r.csv"],
], ids=["solve-width", "solve-no-source", "solve-time-limit-abc", "compare-width",
        "solve-width-0", "mip-sense-width-0", "compare-width-0", "solve-no-relaxed-cuts",
        "compare-no-seeds", "compare-no-sizes", "solve-out-csv"])
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
    if argv[0] == "solve":
        # solve also writes the CSV row at the same path with .csv: a
        # directory there is caught before the solve, and no report is written
        (tmp_path / "r.csv").mkdir()
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(tmp_path / "r.csv") in captured.err
        assert captured.out == "" and not out.exists()


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


def instance_file(text):
    def argv(tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(text)
        return ["solve", "--instance", str(path)]
    return argv


def overflowing_instance():
    """A well-formed instance whose dispatch cost bound overflows a float:
    one generator's output and ramps are 1e308."""
    doc = json.loads(gen_random_instance(2, 3, 2, 0).to_json())
    doc["generators"][0].update(M=1e308, SU=1e308, SD=1e308, RU=1e308, RD=1e308)
    return instance_file(json.dumps(doc))


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["gen", "--params", "0,3,2,2"],
    lambda tmp_path: broken_mip(tmp_path, lambda doc: doc.pop("rows")),
    instance_file("5"),
    instance_file("null"),
    instance_file('"generators"'),
    instance_file("[1, 2]"),
    overflowing_instance(),
], ids=["gen-without-units", "mip-without-rows", "number-document", "null-document",
        "string-document", "list-document", "overflowing-bounds"])
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


def set_negative_probability(doc):
    # they still sum to one, but a weight below 0 makes the aggregated
    # optimality cut no lower bound
    doc["scenarios"][0]["prob"], doc["scenarios"][1]["prob"] = 1.5, -0.5


# JSON's NaN and Infinity literals parse to floats, float() takes "500",
# and an integer past the float range overflows any conversion
@pytest.mark.parametrize("edit", [
    set_demand,
    set_generator("c_g", math.nan),
    set_generator("c_f", math.inf),
    lambda doc: doc.update(T=3.9),
    set_generator("c_f", "500"),
    set_generator("c_f", 10 ** 400),
    set_negative_probability,
], ids=["nan-demand", "nan-c_g", "infinite-c_f", "fractional-T", "string-c_f", "huge-c_f",
        "negative-prob"])
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


def test_a_min_mip_solves(tmp_path):
    # the fixture re-posed as min: x = (1, 0) with y = (0.75, 0.25) costs 2.75
    out = tmp_path / "r.json"
    assert main(broken_mip(tmp_path, lambda doc: doc.update(sense="min"))
                + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal" and doc["x"] == [1.0, 0.0]
    assert doc["value"] == pytest.approx(2.75, abs=1e-9)

    # with no y the slave's value cut bounds z from below by 0
    def drop_y(doc):
        doc.update(sense="min", y_obj=[],
                   rows=[{"ax": [1, 1], "by": [], "rhs": 1, "sense": ">="}])

    assert main(broken_mip(tmp_path, drop_y) + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal" and doc["x"] == [0.0, 1.0]
    assert doc["value"] == 1.0 and doc["z"] == 0.0


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


@pytest.mark.parametrize("z_bounds", [[5.0, 10.0], [0.0, 1.0]], ids=["above", "below"])
def test_mip_whose_z_bounds_do_not_hold_is_an_error_not_a_traceback(z_bounds, tmp_path,
                                                                    capsys):
    # the optimum 11/3 is at x = (1, 0), whose slave value 8/3 lies below
    # 5 and above 1; the first point evaluated, (0, 1), has value 2
    out = tmp_path / "r.json"
    code = main(broken_mip(tmp_path, lambda doc: doc.update(z_bounds=z_bounds))
                + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.startswith("error:"), captured.err
    assert "z_bounds" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


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

    # dd-bd runs from 1.0 to 1.125, naive-bd from 10.0 to 10.25, brute
    # force from 20.0 to 21.5: each cell is its solver's whole call
    ticks = iter([1.0, 1.125, 10.0, 10.25, 20.0, 21.5])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--sizes", "2,2,1", "--seeds", "0", "--out", str(out)]) == 0
    times = {row[1]: row[4] for row in
             (line.split(",") for line in out.read_text().strip().splitlines()[1:])}
    assert times == {"dd-bd": "0.125", "naive-bd": "0.250", "brute-force": "1.500"}


def test_compare_past_the_enumeration_cap(tmp_path, monkeypatch, caplog):
    # 2 units x 2 periods are 4 commitment bits, above a cap of 3: the
    # enumerating methods write error rows and the diagram solver stands alone
    monkeypatch.setattr("ddbd.oracle.ENUMERATION_CAP", 3)
    out = tmp_path / "cmp.csv"
    with caplog.at_level(logging.WARNING, logger="ddbd"):
        assert main(["compare", "--sizes", "2,2,1", "--seeds", "0", "--out", str(out)]) == 0
    rows = {row[1]: row for row in
            (line.split(",") for line in out.read_text().strip().splitlines()[1:])}
    assert rows["dd-bd"][2] == "optimal" and rows["dd-bd"][3] != ""
    for method in ("naive-bd", "brute-force"):
        assert rows[method][2:4] == ["error", ""] and rows[method][5:7] == ["0", "0"]
    assert all(row[-1] == "=" for row in rows.values())
    failed = [r.getMessage().split()[0] for r in caplog.records if "failed on" in r.getMessage()]
    assert failed == ["naive-bd", "brute-force"]


def test_verify_fixture_pass_and_fail(capsys):
    code = main(["verify-decomposition", str(FIXTURES / "example_boxes.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out

    code = main(["verify-decomposition", str(FIXTURES / "extreme_points_only.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "equivalence[neg_square_x2]: FAIL" in out


def test_verify_fails_when_no_sample_lies_in_a_piece(tmp_path, capsys):
    # the one sample sits in the dropped first piece: the second piece's
    # pool is empty, so every equivalence fails rather than raising
    doc = json.loads((FIXTURES / "example_boxes.json").read_text())
    doc.update(samples=[[0, 0, 0]], pieces=doc["pieces"][1:])
    path = tmp_path / "no_sample_in_piece.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-decomposition", str(path)]) == 1
    captured = capsys.readouterr()
    assert "equivalence[sum_all]: FAIL" in captured.out
    assert "equivalence[shifted_square]: FAIL" in captured.out
    assert captured.err == ""


def boxes_with(edit):
    doc = json.loads((FIXTURES / "example_boxes.json").read_text())
    edit(doc)
    return doc


def first_term_with(polynomial, exponents):
    """example_boxes.json with the first term of one polynomial given these exponents."""
    def edit(doc):
        polynomial(doc)["terms"][0][1] = exponents
    return boxes_with(edit)


@pytest.mark.parametrize("doc", [
    [1, 2],
    "x",
    boxes_with(lambda doc: doc.update(membership=[1, 2])),
    boxes_with(lambda doc: doc.pop("samples")),
    boxes_with(lambda doc: doc.update(pieces=[])),
    boxes_with(lambda doc: doc["pieces"][0].update(boxes=[])),
    boxes_with(lambda doc: doc["pieces"][0]["boxes"][0].update(lo=[0.0, 0.0])),
    boxes_with(lambda doc: doc["pieces"][1]["boxes"][0].update(lo=[1.0, 0.0], hi=[1.0, 2.0])),
    boxes_with(lambda doc: doc.update(samples=[])),
    first_term_with(lambda doc: doc["objectives"][0], [-1, 0, 0]),
    first_term_with(lambda doc: doc["membership"]["constraints"][0], [-1, 0, 0]),
    first_term_with(lambda doc: doc["objectives"][0], [1.5, 0, 0]),
    first_term_with(lambda doc: doc["objectives"][0], [True, 0, 0]),
    # one exponent per coordinate: a longer list would be cut off by zip
    first_term_with(lambda doc: doc["objectives"][0], [0, 0, 0, 5]),
    first_term_with(lambda doc: doc["membership"]["constraints"][0], [1, 0]),
    boxes_with(lambda doc: doc["membership"]["constraints"][0].update(sense="<")),
    # every index a fixture names must be a coordinate, and every coordinate
    # have one domain: zip would skip the ones past the shorter list
    boxes_with(lambda doc: doc["pieces"][0]["fixed"].update({"9": 1.0})),
    boxes_with(lambda doc: doc.update(free_indices=[0, 1, 2, 7])),
    boxes_with(lambda doc: doc["membership"]["domains"].pop()),
    boxes_with(lambda doc: doc["membership"]["domains"].append(None)),
    boxes_with(lambda doc: doc["membership"]["domains"].__setitem__(0, {"interva": [0, 1]})),
], ids=["list", "string", "membership-list", "no-samples", "empty-pieces", "piece-without-boxes",
        "box-lo-hi-lengths", "box-dimensions", "empty-samples", "negative-objective-exponent",
        "negative-constraint-exponent", "fractional-exponent", "bool-exponent",
        "long-objective-exponents", "short-constraint-exponents", "unknown-sense",
        "fixed-coordinate-outside", "free-index-outside", "short-domains", "long-domains",
        "unknown-domain"])
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


def test_importing_the_cli_loads_no_scipy():
    # scipy serves only the brute-force reference, which imports it on its first LP
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ddbd.__file__).resolve().parents[1]))
    code = "import sys, ddbd.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
