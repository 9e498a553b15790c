"""The package's interfaces: no type dispatch on a model, controller or
reference, and each type test whose class is a variable pinned, one step call
for both controllers and no law outside it, rate_at as the only call of both
rate models, optics that import nothing of the package, one file writer in the
CLI, every name the traced benchmark reads still exists, the package
exports what its modules export, reference functions aside, README's
command lines parse, and every config is a frozen value."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import pbrsim
from pbrsim import cli
from pbrsim.control import FlController, IpController
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.scenarios import MapReference, Scenario, day_night_scenario, light_step_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pbrsim"

# Each family answers one interface (params.rate_at, config.build, ref(t, q0)),
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
# Each type test in src whose class is a variable, (file, test) -> why it is no family dispatch.
VARIABLE_CLASS_TESTS = {
    ("scenarios.py", "isinstance(base.controller, config_type)"):
        "robustness_sweep keeps the base's config for its own kind, a fresh one for the other",
    ("cli.py", "type(value) is cls"): "_encode writes the kind tag the KINDS table gives the type",
    ("cli.py", "type(value) is tp"): "_decode checks a field declared int, str or bool",
}
# Public functions kept in their modules but not exported: reference forms that
# tests compare against and perfbench's tracer labels, until ROADMAP items 2 and 11.
REFERENCE_NAMES = {
    "control": ["estimate_F_open", "estimate_F_closed"],
    "kinetics": ["local_oxygen_rate", "mean_oxygen_rate", "growth_rate_simplified"],
    "plant": ["plant_derivative"],
    "radiative": ["optical_coefficients", "irradiance_at_depth"],
}
MODEL_MODULES = ["control", "kinetics", "plant", "radiative", "scenarios", "steady_state"]
# Calls that make a directory or write a file; in cli.py only _write_csv makes them.
WRITE_CALLS = {"mkdir", "write_text", "write_bytes", "open"}
# functools decorators that keep results between calls.
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}
# Tracer queries in perfbench/run.py whose string arguments are labels.
TRACER_QUERIES = {"calls", "calls_inside", "percentile", "total"}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _is_call_of(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _class_operands(tree: ast.AST):
    """(node, classes) of each isinstance(...) call and each `type(...) is` test, where
    classes are the expressions it tests against, a tuple's items one by one."""
    for node in ast.walk(tree):
        if _is_call_of(node, "isinstance"):
            classes = node.args[1:2]
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            sides = [node.left, *node.comparators]
            if not any(_is_call_of(side, "type") for side in sides):
                continue
            classes = [side for side in sides if not _is_call_of(side, "type")]
        else:
            continue
        yield node, [c for cls in classes for c in (cls.elts if isinstance(cls, ast.Tuple)
                                                     else [cls])]


def _type_tests(tree: ast.AST):
    """(line, names) of each isinstance(...) call and each `type(...) is` test."""
    for node, classes in _class_operands(tree):
        yield node.lineno, set().union(*map(_names, classes))


def _variable_class_tests(tree: ast.AST):
    """Source of each type test whose class is a variable: a name that is neither a builtin
    type nor a class or module the file defines or imports at its top level."""
    named = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    named |= {(a.asname or a.name).split(".")[0] for n in tree.body
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    named |= {n for n in dir(builtins) if isinstance(getattr(builtins, n), type)}
    for node, classes in _class_operands(tree):
        roots = [next(n for n in ast.walk(c) if isinstance(n, ast.Name)) for c in classes]
        if any(root.id not in named for root in roots):
            yield ast.unparse(node)


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


def test_type_tests_on_a_variable_class_are_pinned():
    """A type test whose class comes from a variable can pick by family type unseen by the
    name check above, so each such site is listed in VARIABLE_CLASS_TESTS with its reason."""
    found = {(path.name, src) for path in sorted(SRC.glob("*.py"))
             for src in _variable_class_tests(ast.parse(path.read_text(), filename=str(path)))}
    assert found == set(VARIABLE_CLASS_TESTS)


def test_variable_class_finder_sees_each_form():
    tree = ast.parse(
        "from .kinetics import FullModelParams\nimport numpy as np\n"
        "isinstance(p, FullModelParams)\nisinstance(a, np.ndarray)\ntype(n) is int\n"
        "isinstance(p, (int, cls))\ntype(v) is tp\nisinstance(c, self.kind)\n"
        "isinstance(x, float) and type(y) is not kinds[k]\n"
    )
    assert list(_variable_class_tests(tree)) == [
        "isinstance(p, (int, cls))", "type(v) is tp", "isinstance(c, self.kind)",
        "type(y) is not kinds[k]",
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


def _repr_in_config_errors(tree: ast.AST) -> list[int]:
    """Line of each ConfigError(...) call that formats a value with !r."""
    return sorted(
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ConfigError"
        and any(isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                for node in ast.walk(call))
    )


def test_cli_errors_show_values_through_shown():
    """A refused value in a ConfigError message goes through _shown, which keeps at most 80
    characters of its repr; !r would print a 5,000-character value whole."""
    assert _repr_in_config_errors(ast.parse((SRC / "cli.py").read_text())) == []


def test_repr_finder_sees_each_form():
    tree = ast.parse(
        'ConfigError(f"a {k!r}")\nConfigError(f"b {_shown(k)}")\nValueError(f"c {k!r}")\n'
        'raise ConfigError("d " f"{k!r:.80}") from None\nConfigError(f"e {k!s}")\n'
    )
    assert _repr_in_config_errors(tree) == [1, 4]


def _caches(tree: ast.AST):
    """(function name, decorator source) of each functools cache decorator,
    written bare, called, or through the functools module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "attr", getattr(target, "id", None)) in CACHE_DECORATORS:
                    yield node.name, ast.unparse(dec)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_caches_hold_one_entry(path):
    """A cache can carry at most one entry from one benchmark pass to the
    next, so a gain measured over repeated passes is one a fresh run gets."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [
        (name, dec) for name, dec in _caches(tree)
        if dec.split(".")[-1] != "lru_cache(maxsize=1)"
    ] == []


def test_cache_finder_sees_both_forms():
    tree = ast.parse(
        "@lru_cache(maxsize=1)\ndef a(q): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef b(q): pass\n"
        "@functools.cache\ndef c(q): pass\n"
        "@staticmethod\ndef d(q): pass\n"
    )
    assert list(_caches(tree)) == [
        ("a", "lru_cache(maxsize=1)"),
        ("b", "functools.lru_cache(maxsize=None)"),
        ("c", "functools.cache"),
    ]


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


def test_control_laws_live_only_in_step():
    """Each law is written once, in its controller's step: control has no free law function."""
    control = importlib.import_module("pbrsim.control")
    public = {name for name, obj in vars(control).items()
              if inspect.isfunction(obj) and obj.__module__ == control.__name__
              and not name.startswith("_")}
    assert public == {"saturate", "estimate_F_open", "estimate_F_closed"}


def test_rate_models_share_one_rate_at_signature():
    """Both rate models bind their rate by the same call, rate_at(q0, geom)."""
    names = [list(inspect.signature(m.rate_at).parameters)
             for m in (FullModelParams, SimplifiedModelParams)]
    assert names == [["self", "q0", "geom"]] * 2


def test_rate_models_answer_only_rate_at():
    """A rate model has no per-point rate or scan beside the bound rate."""
    public = [{name for name in dir(m) if not name.startswith("_") and callable(getattr(m, name))}
              for m in (FullModelParams, SimplifiedModelParams)]
    assert public == [{"rate_at"}] * 2


def test_optics_import_nothing_of_the_package():
    """radiative.py is the two-flux optics alone: it imports no pbrsim module,
    not even for type checking, so the lumped light law lives in kinetics."""
    tree = ast.parse((SRC / "radiative.py").read_text())
    imported = ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert [name for name in imported if name.startswith((".", "pbrsim"))] == []
    assert "TYPE_CHECKING" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", MODEL_MODULES)
def test_package_exports_each_module_all(module):
    """`import pbrsim` gives every name in each model module's __all__."""
    mod = importlib.import_module(f"pbrsim.{module}")
    assert all(getattr(pbrsim, name) is getattr(mod, name) for name in mod.__all__)


def test_readme_python_example_runs(capsys):
    """README's Python API example runs as written against the package."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "TrackingMetrics(" in capsys.readouterr().out


def test_readme_command_lines_parse():
    """Each `pbrsim` line of README's Command line block parses as written, so a renamed
    subcommand or flag fails here; nothing runs."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = re.match(r"\s*```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("pbrsim ")]
    assert len(lines) == 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.build_parser().parse_args(argv).command == argv[0], line


def test_reference_functions_stay_out_of_the_package():
    """The reference forms resolve, public, in their modules, and `import pbrsim` gives
    none of them: the model modules export 41 names."""
    for module, names in REFERENCE_NAMES.items():
        mod = importlib.import_module(f"pbrsim.{module}")
        for name in names:
            assert name not in mod.__all__ and not hasattr(pbrsim, name), name
            assert getattr(mod, name).__module__ == mod.__name__, name
    exported = [name for module in MODEL_MODULES
                for name in importlib.import_module(f"pbrsim.{module}").__all__]
    assert len(set(exported)) == len(exported) <= 41


def _config_classes() -> list[type]:
    """Every class in the cli.KINDS tables, Scenario, and every class with a ranges table."""
    found = {cls for kinds in cli.KINDS.values() for cls in kinds.values()} | {Scenario}
    for module in MODEL_MODULES:
        members = inspect.getmembers(importlib.import_module(f"pbrsim.{module}"), inspect.isclass)
        found |= {cls for _, cls in members if hasattr(cls, "ranges")}
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _config_classes(), ids=lambda cls: cls.__name__)
def test_configs_are_frozen(cls):
    """A config value is set only by construction or dataclasses.replace, which both run its
    checks: assigning any field of a built-in's part raises."""
    step, day_night = light_step_scenario(), day_night_scenario("fl")
    samples = [step, day_night, MapReference(), SimplifiedModelParams(),
               *(getattr(sc, f.name) for sc in (step, day_night) for f in dataclasses.fields(sc))]
    value = next(v for v in samples if type(v) is cls)
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
