"""The package's interfaces: no type dispatch on a model, controller or
reference, one step call for both controllers, one file writer in the CLI,
and every name the traced benchmark reads still exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from pbrsim.control import FlController, IpController

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pbrsim"

# Each family answers one interface (params.rate, config.build, ref(t, q0)),
# so no code should pick behaviour by testing for one of these types.
FAMILY_TYPES = {
    "FullModelParams",
    "SimplifiedModelParams",
    "FlConfig",
    "IpConfig",
    "PiecewiseConstant",
    "DayNightLight",
    "MapReference",
}
# Calls that make a directory or write a file; in cli.py only _write_csv makes them.
WRITE_CALLS = {"mkdir", "write_text", "write_bytes", "open"}
# Tracer queries in perfbench/run.py whose string arguments are labels.
TRACER_QUERIES = {"calls", "calls_inside", "percentile", "total"}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _type_tests(tree: ast.AST):
    """(line, names) of each isinstance(...) call and each `type(...) is` test."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            yield node.lineno, _names(node.args[1]) if len(node.args) > 1 else set()
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type"
                   for s in sides):
                yield node.lineno, set().union(*map(_names, sides))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_type_dispatch_on_a_family(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [(line, sorted(names & FAMILY_TYPES)) for line, names in _type_tests(tree)]
    assert [hit for hit in hits if hit[1]] == []


def test_type_test_finder_sees_both_forms():
    tree = ast.parse("isinstance(p, FullModelParams)\ntype(r) is plant.MapReference\n")
    assert [names & FAMILY_TYPES for _, names in _type_tests(tree)] == [
        {"FullModelParams"},
        {"MapReference"},
    ]


def _write_calls(tree: ast.AST) -> set[ast.Call]:
    """Each call of a WRITE_CALLS name, as a method or as a plain function."""
    return {
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in WRITE_CALLS
    }


def test_cli_writes_files_in_one_place():
    tree = ast.parse((SRC / "cli.py").read_text())
    (writer,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_write_csv"
    )
    assert _write_calls(writer)
    assert sorted(call.lineno for call in _write_calls(tree) - _write_calls(writer)) == []


def test_write_call_finder_sees_both_forms():
    tree = ast.parse("open(p, 'w')\nout.mkdir()\np.read_text()\nPath(p).write_bytes(b)\n")
    assert sorted(call.lineno for call in _write_calls(tree)) == [1, 2, 4]


def _benchmark_labels() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in TRACER_QUERIES
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def test_benchmark_labels_resolve():
    """Each label the traced benchmark queries names a public function or
    method defined in that pbrsim module, as the tracer labels it."""
    labels = _benchmark_labels()
    assert "kinetics.mean_oxygen_rate" in labels and len(labels) >= 10
    for label in sorted(labels):
        module, *path = label.split(".")
        obj = importlib.import_module(f"pbrsim.{module}")
        for part in path:
            assert not part.startswith("_"), label
            obj = getattr(obj, part, None)
        assert inspect.isfunction(obj), label
        assert f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}" == label


def test_controllers_share_one_step_signature():
    """Both controllers are driven by the same call, step(t, y_meas, y_r, q0)."""
    names = [list(inspect.signature(c.step).parameters) for c in (FlController, IpController)]
    assert names == [["self", "t", "y_meas", "y_r", "q0"]] * 2
