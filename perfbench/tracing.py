"""Per-module call counts, self time and spans for pbrsim's public functions.

pbrsim modules import names from each other directly (``from .kinetics
import growth_rate``), so wrapping a function where it is defined would
miss most calls.  ``Tracer`` instead replaces every module global and
every class attribute in the package that refers to a public pbrsim
function, i.e. each name at the place it is looked up, and restores them
on exit.  A function's layer is the module that defines it.

For each call the tracer records, in memory:

- a count, keyed by the innermost open call of a WATCHED function, so that
  "kernel calls made inside a setpoint solve" is a plain lookup;
- inclusive time and self time (span minus the spans of its children);
- the duration, for the TIMED functions whose percentiles are reported;
- a span (name, parent span, start, end), up to SPAN_CAP spans per pass.

Nothing is written during a pass; ``write_spans`` saves the log at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from types import FunctionType

import numpy as np

TIMED = (
    "kinetics.mean_oxygen_rate",
    "plant.step",
    "control.FlController.step",
    "control.IpController.step",
    "steady_state.optimal_setpoint",
)
WATCHED = ("steady_state.optimal_setpoint", "scenarios.MapReference.value_at")
# About 50 MB of span log; a lean-ensemble pass makes ~6M calls, so its log
# holds the first third of the pass.  Counts and times cover every call.
SPAN_CAP = 1 << 21


def _public_functions():
    """(owner, attribute, function) for every public pbrsim function binding."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pbrsim"]

    def ours(obj) -> bool:
        return getattr(obj, "__module__", "").startswith("pbrsim.")

    seen_classes = set()
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if isinstance(val, FunctionType) and ours(val) and not attr.startswith("_"):
                yield mod, attr, val
            elif isinstance(val, type) and ours(val) and val not in seen_classes:
                seen_classes.add(val)
                for name, member in list(vars(val).items()):
                    if isinstance(member, FunctionType) and not name.startswith("_"):
                        yield val, name, member


def _label(fn: FunctionType) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Context manager that traces every public pbrsim function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls_under: dict[tuple[int, int], int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.durations: dict[int, array] = {}
        self.spans = {"name": array("i"), "parent": array("i"),
                      "start": array("d"), "end": array("d")}
        self._open_span: list[int] = []
        self._open_child: list[float] = []
        self._watch: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- install / remove -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[FunctionType, FunctionType] = {}
        for owner, attr, fn in _public_functions():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, _label(fn))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        """Forget all records; the containers are shared with the wrappers."""
        self.calls_under.clear()
        self.self_s[:] = [0.0] * len(self.names)
        self.total_s[:] = [0.0] * len(self.names)
        for arr in (*self.durations.values(), *self.spans.values()):
            del arr[:]

    def _wrap(self, fn: FunctionType, name: str) -> FunctionType:
        nid = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        durs = self.durations.setdefault(nid, array("d")) if name in TIMED else None
        watched = name in WATCHED
        under, self_s, total_s = self.calls_under, self.self_s, self.total_s
        open_span, open_child, watch = self._open_span, self._open_child, self._watch
        s_name, s_parent = self.spans["name"], self.spans["parent"]
        s_start, s_end = self.spans["start"], self.spans["end"]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = (watch[-1] if watch else -1, nid)
            under[key] = under.get(key, 0) + 1
            idx = len(s_start)
            if idx < SPAN_CAP:
                s_name.append(nid)
                s_parent.append(open_span[-1] if open_span else -1)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                idx = -1
            open_span.append(idx)
            open_child.append(0.0)
            if watched:
                watch.append(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if watched:
                    watch.pop()
                open_span.pop()
                dur = t1 - t0
                self_s[nid] += dur - open_child.pop()
                total_s[nid] += dur
                if open_child:
                    open_child[-1] += dur
                if idx >= 0:
                    s_start[idx] = t0
                    s_end[idx] = t1
                if durs is not None:
                    durs.append(dur)

        return traced

    # --- queries ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self.names.index(name)

    def calls(self, name: str) -> int:
        nid = self._id(name)
        return sum(n for (_, callee), n in self.calls_under.items() if callee == nid)

    def calls_inside(self, outer: str, name: str) -> int:
        """Calls of name whose innermost open WATCHED call is outer."""
        return self.calls_under.get((self._id(outer), self._id(name)), 0)

    def total(self, name: str) -> float:
        return self.total_s[self._id(name)]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def percentile(self, name: str, q: float) -> float:
        """q-th percentile of the call durations of a TIMED function, in s."""
        durs = self.durations[self._id(name)]
        return float(np.percentile(np.frombuffer(durs), q)) if len(durs) else 0.0

    def write_spans(self, path: Path) -> None:
        """Save the span log; times are perf_counter seconds."""
        np.savez(
            path,
            names=np.array(self.names),
            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()},
        )
