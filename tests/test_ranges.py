"""The config range tables: each class's `ranges` decides construction and the
CLI's exit code at and beyond every bound, and README lists every table."""

import contextlib
import io
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbrsim
from pbrsim.cli import EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK, main
from pbrsim.control import ActuatorBounds, FlConfig, IpConfig
from pbrsim.kinetics import FullModelParams, SimplifiedModelParams
from pbrsim.plant import DayNightLight, NoiseConfig, SamplingConfig
from pbrsim.radiative import Geometry, _shown
from pbrsim.scenarios import Scenario, light_step_scenario

ROOT = Path(__file__).resolve().parents[1]

TABLES = {
    cls: cls.ranges
    for cls in vars(pbrsim).values()
    if isinstance(cls, type) and isinstance(getattr(cls, "ranges", None), dict)
}

# Where each class sits in a built-in's config: the flags that put it there, its key prefix.
ROUTES = {
    FullModelParams: ([], "plant."),
    SimplifiedModelParams: (["--set", "plant.kind=simplified"], "plant."),
    Geometry: ([], "geometry."),
    FlConfig: (["--controller", "fl"], "controller."),
    IpConfig: ([], "controller."),
    DayNightLight: (["--scenario", "paper-4.2"], "light."),
    NoiseConfig: ([], "noise."),
    SamplingConfig: ([], "sampling."),
    Scenario: ([], ""),
    ActuatorBounds: ([], "bounds."),
}


def _text(interval) -> str:
    left, lo, hi, right = interval
    return f"{left}{lo:g}, {hi:g}{right}"


def _inside(interval, v: float) -> bool:
    """v in the interval, written apart from the checker: between the ends, and
    at an end only where its bracket is closed."""
    left, lo, hi, right = interval
    return lo <= v <= hi and not (v == lo and left == "(") and not (v == hi and right == ")")


def _values(interval, tp: type) -> list[float | int]:
    """Each finite end and the number beyond it, and 0; then for a float field a subnormal,
    NaN and both infinities, and for an int field (tp) the integers +-10**4000."""
    _, lo, hi, _ = interval
    ends = [e for e in (lo, hi) if math.isfinite(e)]
    if tp is int:
        beyond = [lo - 1] + [hi + 1] * (hi in ends)
        return list(dict.fromkeys([*ends, *beyond, 0, 10**4000, -(10**4000)]))
    beyond = [math.nextafter(lo, -math.inf)] + [math.nextafter(hi, math.inf)] * (hi in ends)
    return list(dict.fromkeys([*ends, *beyond, 0.0, 5e-324, math.nan, math.inf, -math.inf]))


CASES = [
    (cls, name, v)
    for cls, table in TABLES.items()
    for name, interval in table.items()
    for v in _values(interval, cls.__annotations__[name])
]


def test_every_table_has_a_route():
    assert set(TABLES) == set(ROUTES)


def _cli(cls, name: str, v: float) -> tuple[int, str]:
    """Exit code and stderr of simulate with cls's field name set to v, for 1 h
    unless the field is the duration itself."""
    flags, prefix = ROUTES[cls]
    sets = [f"{prefix}{name}={v!r}"] + ["duration_h=1"] * (prefix + name != "duration_h")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "run shorter than", UserWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", *flags, *(a for s in sets for a in ("--set", s)),
                         "--out", out])
    return code, err.getvalue()


@settings(derandomize=True, max_examples=2 * len(CASES), deadline=None, database=None)
@given(case=st.sampled_from(CASES))
def test_range_table_decides_construction_and_exit_code(case):
    """Construction raises the range error exactly when the value leaves the
    interval, naming it.  Through the CLI, a value outside exits 2 (a
    non-finite one is refused by the config reader first); a value inside
    exits 0 or 3, or 2 for a refusal that is not a range's (a duration that
    is no whole number of periods, say)."""
    cls, name, v = case
    interval = TABLES[cls][name]
    inside = _inside(interval, v)
    base = light_step_scenario() if cls is Scenario else cls()
    try:
        replace(base, **{name: v})
        message = ""
    except ValueError as exc:
        message = str(exc)
    assert message.startswith(f"{name} must lie in ") == (not inside), message
    if not inside:
        assert message == f"{name} must lie in {_text(interval)}, got {_shown(v)}"

    code, err = _cli(cls, name, v)
    if inside:
        assert code in (EXIT_OK, EXIT_INTEGRATION) or (
            code == EXIT_CONFIG and "must lie in" not in err
        ), err
    elif type(v) is int or math.isfinite(v):
        assert code == EXIT_CONFIG and err.endswith(f"{message}\n"), err
    else:
        assert code == EXIT_CONFIG and "must be a finite number" in err, err


# Each finite end of the plant and scenario tables but 0, the evidence of its README row.
ENDS = [
    (f"{ROUTES[cls][1]}{name}", end)
    for cls in (FullModelParams, Scenario)
    for name, (_, lo, hi, _) in TABLES[cls].items()
    for end in (lo, hi)
    if end and math.isfinite(end)
]


@pytest.mark.parametrize("key, end", ENDS, ids=[f"{k}={e:g}" for k, e in ENDS])
@pytest.mark.parametrize("scenario", ["paper-4.1", "paper-4.2"])
@pytest.mark.parametrize("kind", ["fl", "ip"])
def test_each_end_runs_on_the_builtins(tmp_path, key, end, scenario, kind):
    """A constant at its interval's end runs 1 h to exit 0 on both built-ins
    under both controllers."""
    argv = ["simulate", "--scenario", scenario, "--controller", kind, "--set", f"{key}={end!r}",
            "--set", "duration_h=1", "--out", str(tmp_path)]
    with pytest.warns(UserWarning, match="run shorter than"):
        assert main(argv) == EXIT_OK


def test_readme_table_matches_the_code():
    """README's table of config ranges lists every bounded field with its
    interval, as the checker's messages write it, and nothing else."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| [^|]+ \| ([\[(][^|]*[\])]) \|", readme, re.M)
    code = {(cls.__name__, name, _text(interval))
            for cls, table in TABLES.items() for name, interval in table.items()}
    assert len(rows) == len(set(rows))
    assert set(rows) == code


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: NoiseConfig(seed=-(10**5000)), "seed must lie in [0, inf), got <unprintable int>"),
        (lambda: NoiseConfig(seed=True), "seed must be an integer, got True"),
        (lambda: SamplingConfig(substeps=2.5), "substeps must be an integer, got 2.5"),
        (lambda: SamplingConfig(substeps=True), "substeps must be an integer, got True"),
    ],
    ids=["huge-seed", "bool-seed", "float-substeps", "bool-substeps"],
)
def test_int_fields_refuse_by_range_and_by_type(make, message):
    """An int over 4,300 digits, which only the Python API can pass, gets the range error and
    a placeholder for its value rather than the error of printing it; a float or True in an
    int field is still no integer."""
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
