"""Reach guard: every function in src/ddbd runs under a command or is pinned.

CI's smoke commands run here in-process under sys.setprofile, which
records the code object of every Python call.  An ast walk of src/ddbd
lists every function and method by the qualified name its code object
carries (co_qualname).  Each must be reached by the commands or be named
in PINNED with the reason it stays in the package; a function defined
inside a pinned one is pinned with it.  A pinned name must exist and go
unreached, so the list holds nothing that a command already runs.
"""

import ast
import pathlib
import sys

import pytest

import ddbd
from ddbd.cli import main

SRC = pathlib.Path(ddbd.__file__).parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_BOUND = "perfbench/layers.py binds {} by name"
_STACK = "the perfbench-bound diagram stack calls it"
PINNED = {
    "diagram.refine_with_cut": _BOUND.format("engine.refine_with_cut (diagram.refine)"),
    "diagram.optimal_path": _BOUND.format("engine.optimal_path (diagram.optimal_path)"),
    "engine.replay_cuts": _BOUND.format("engine.replay_cuts and ucp.replay_cuts (engine.replay)"),
    "engine.enumerate_prefixes": _BOUND.format("engine.enumerate_prefixes"),
    "ucp.build_relaxed_master_dd": _BOUND.format("ucp.build_relaxed_master_dd "
                                                 "(ucp.compile_relaxed)"),
    "ucp._compile_master": _STACK,
    "ucp._merge_states": _STACK,
    "diagram._completion_limits": _STACK,
    "diagram._tighten": _STACK,
    "diagram._row_keys": _STACK,
    "diagram._drop_dead_nodes": _STACK,
    "diagram._alive_nodes": _STACK,
    "diagram._subset": _STACK,
    "diagram._arc_labels": _STACK,
    "diagram._endpoints": _STACK,
    "diagram._offsets": _STACK,
    "diagram.DiagramBuilder.__init__": _STACK,
    "diagram.DiagramBuilder.new_node": _STACK,
    "diagram.DiagramBuilder.add_arc": _STACK,
    "diagram.DiagramBuilder.build": _STACK,
    "diagram.DecisionDiagram.__post_init__": _STACK,
    "diagram.DecisionDiagram.num_arc_layers": _STACK,
    "diagram.DecisionDiagram.root": _STACK,
    "diagram.DecisionDiagram.terminal": _STACK,
    "diagram.DecisionDiagram.width": _STACK + ", and perfbench/layers.py reads it",
    "diagram.DecisionDiagram.node_count": _STACK + ", and perfbench/layers.py reads it",
    "diagram.DecisionDiagram.value_first": _STACK,
    "diagram.DecisionDiagram.out_index": _STACK,
    "engine.MasterOracle.best_point": "abstract: every master overrides it",
    "engine.SubproblemOracle.evaluate": "abstract: every subproblem oracle overrides it",
    "simplex._verify_farkas": "checks an infeasible LP's certificate; no smoke command "
                              "solves an unbounded MIP, whose dual slave is infeasible",
}


def defined_functions():
    """module.qualname of every function and method in src/ddbd, by ast."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                names.add(f"{module}.{qualname}")
                walk(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def smoke_commands(tmp):
    """CI's smoke commands, as argv lists for ddbd.cli.main."""
    return [
        ["solve", "--gen", "3,6,3,0", "--out", str(tmp / "r.json")],
        ["solve", "--gen", "3,6,3,0", "--time-limit", "0"],
        ["solve", "--instance", str(FIXTURES / "two_binary_mip.json"),
         "--out", str(tmp / "mip_r.json")],
        ["gen", "--params", "2,3,2,0", "--out", str(tmp / "inst.json")],
        ["solve", "--instance", str(tmp / "inst.json")],
        ["compare", "--sizes", "2,3,2", "--seeds", "0"],
        ["verify-decomposition", str(FIXTURES / "example_boxes.json")],
        ["verify-decomposition", str(FIXTURES / "extreme_points_only.json")],
    ]


def reached_functions(tmp):
    """module.qualname of every src/ddbd function the smoke commands call."""
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in smoke_commands(tmp):
            main(argv)
        with pytest.raises(SystemExit):   # a usage error: --out is the CSV path
            main(["solve", "--gen", "3,6,3,0", "--out", str(tmp / "r.csv")])
    finally:
        sys.setprofile(None)
    src = str(SRC)
    return {f"{pathlib.Path(c.co_filename).stem}.{c.co_qualname}"
            for c in codes if c.co_filename.startswith(src)}


def test_every_function_is_reached_by_a_command_or_pinned(tmp_path, capsys):
    defined = defined_functions()
    reached = reached_functions(tmp_path)
    capsys.readouterr()
    assert not set(PINNED) - defined, "pinned names that src/ddbd no longer defines"
    assert not set(PINNED) & reached, "pinned names that a command reaches"

    def pinned(name):
        return any(name == key or name.startswith(key + ".<locals>.") for key in PINNED)

    unreached = sorted(name for name in defined - reached if not pinned(name))
    assert not unreached, f"no command reaches these, and none is pinned: {unreached}"
