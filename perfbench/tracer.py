"""Span tracer behind the benchmark's per-layer metrics.

The tracer wraps public linklab functions from outside the library.  A
``from .x import f`` in another module is a binding of its own, so each
wrapper is installed under every name, in every linklab module, that holds
the original function object; wrapping only the defining module would miss
calls such as ``linklab.harness.theorem_check``.

Two kinds of wrapper exist:

* span functions get one record per call: name, parent span, operation id,
  start, busy time and the time covered by child spans.  Self time is busy
  time minus child coverage.  A generator function (``iter_collections``)
  is busy only while it is being resumed, so its busy time is the sum of
  its resumptions and each resumption counts as coverage of the span that
  resumed it.
* hot leaves (called millions of times) only aggregate a call count and a
  total time; they are not spans, so their time stays in the caller's self
  time.

Spans live in flat arrays in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``<module>.<function>`` plus how it is traced.

    ``ok`` maps a return value to 1 when the call produced a useful outcome
    (feeding ``ok_ratio``).  ``tally`` names a counter and maps a return
    value to the amount added to it.  ``only_in`` restricts the rebinding
    to the named importing modules.
    """

    module: str
    function: str
    kind: str = "span"  # "span", "generator" or "leaf"
    ok: Callable[[object], int] | None = None
    tally: tuple[str, Callable[[object], int]] | None = None
    only_in: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


def _not_none(result) -> int:
    return result is not None


def _truthy(result) -> int:
    return bool(result)


def _holds(report) -> int:
    return bool(report.holds)


TARGETS = (
    Target("cli", "cli_main"),
    Target("graphio", "parse_graph"),
    Target("harness", "campaign_exhaustive_small"),
    Target("harness", "gen_random_rooted"),
    Target("certificates", "theorem_check"),
    Target("certificates", "search_collection", ok=_not_none),
    Target("certificates", "iter_collections", kind="generator"),
    Target("certificates", "verify_linkage_collection", ok=_holds),
    Target("certificates", "verify_critical_collection", ok=_holds),
    Target("feasibility", "find_linkage_pair", ok=_not_none),
    Target("feasibility", "is_critically_feasible", ok=_truthy),
    Target("feasibility", "removable_path", ok=lambda r: bool(r.ok),
           tally=("iterations", lambda r: r.iterations)),
    Target("planarity", "is_planar", ok=_truthy),
    Target("planarity", "check_seymour_certificate", ok=_truthy),
    Target("planarity", "find_seymour_certificate", ok=_not_none),
    Target("connectivity", "has_connectivity_at_least", ok=_truthy),
    # Counted from the DFS only, as a proxy for DFS nodes expanded.
    Target("graphs", "component_mask", kind="leaf", only_in=("feasibility",)),
    Target("graphs", "is_connected_set", kind="leaf"),
    Target("graphs", "contract_collection", kind="leaf"),
    Target("graphs", "augment_rooted", kind="leaf"),
    Target("graphs", "validate_collection", kind="leaf"),
)

# (metric name, unit, better) for every per-layer metric the benchmark prints.
_STAT_UNITS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "families": ("count", "lower"),
    "iterations": ("count", "lower"),
}
LAYER_STATS = (
    ("planarity.is_planar", ("calls", "s")),
    ("planarity.check_seymour_certificate", ("calls", "ok_ratio")),
    ("planarity.find_seymour_certificate", ("calls", "s", "ok_ratio")),
    ("feasibility.find_linkage_pair", ("calls", "s", "ok_ratio")),
    ("graphs.component_mask", ("calls",)),
    ("certificates.iter_collections", ("s", "families")),
    ("graphs.is_connected_set", ("calls",)),
    ("feasibility.is_critically_feasible", ("calls", "s", "ok_ratio")),
    ("certificates.search_collection", ("calls", "s", "ok_ratio")),
    ("certificates.verify_critical_collection", ("calls", "s", "ok_ratio")),
    ("graphs.contract_collection", ("calls",)),
    ("graphs.augment_rooted", ("calls",)),
    ("graphs.validate_collection", ("calls",)),
    ("certificates.theorem_check", ("calls", "s", "self_s")),
    ("certificates.verify_linkage_collection", ("calls", "s", "ok_ratio")),
    ("connectivity.has_connectivity_at_least", ("calls", "s", "ok_ratio")),
    ("harness.gen_random_rooted", ("calls", "self_s")),
    ("feasibility.removable_path", ("calls", "s", "iterations")),
    ("harness.campaign_exhaustive_small", ("self_s",)),
    ("cli.cli_main", ("self_s",)),
    ("graphio.parse_graph", ("calls", "s")),
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = [
        (f"{layer}.{stat}", *_STAT_UNITS[stat])
        for layer, stats in LAYER_STATS
        for stat in stats
    ]
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


class Tracer:
    """Collects spans and leaf counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.sp_name = array("i")
        self.sp_parent = array("q")
        self.sp_op = array("q")
        self.sp_start = array("d")
        self.sp_busy = array("d")
        self.sp_child = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.op_spans: list[tuple[int, float, float]] = []
        self.leaves: dict[str, list] = {}
        self.ok: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.sp_start)
        self.sp_name.append(name_id)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_op.append(self.op)
        self.sp_busy.append(0.0)
        self.sp_child.append(0.0)
        self.sp_start.append(perf_counter())
        return idx

    def _cover_parent(self, duration: float) -> None:
        if self.stack:
            self.sp_child[self.stack[-1]] += duration

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def record_op(self, op_id: int, start: float, end: float) -> None:
        self.op_spans.append((op_id, start, end))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, target: Target, fn):
        name_id = len(self.names)
        self.names.append(target.name)
        self.ok[target.name] = 0
        judge = target.ok
        tracer = self
        if target.tally is not None:
            counter = f"{target.name}.{target.tally[0]}"
            self.counters[counter] = 0

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - tracer.sp_start[idx]
                tracer.sp_busy[idx] = duration
                tracer.stack.pop()
                tracer._cover_parent(duration)
            if judge is not None:
                tracer.ok[target.name] += judge(result)
            if target.tally is not None:
                tracer.counters[counter] += target.tally[1](result)
            return result

        return traced

    def _generator_wrapper(self, target: Target, fn):
        name_id = len(self.names)
        self.names.append(target.name)
        counter = f"{target.name}.families"
        self.counters[counter] = 0
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                while True:
                    resumed = perf_counter()
                    tracer.stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                        duration = perf_counter() - resumed
                        tracer.sp_busy[idx] += duration
                        tracer._cover_parent(duration)
                    tracer.counters[counter] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def _leaf_wrapper(self, target: Target, fn):
        agg = self.leaves.setdefault(target.name, [0, 0.0])

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += perf_counter() - start

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded linklab module that holds it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "linklab" or name.startswith("linklab.")
        }
        for target in TARGETS:
            home = importlib.import_module(f"linklab.{target.module}")
            original = getattr(home, target.function)
            make = {
                "span": self._span_wrapper,
                "generator": self._generator_wrapper,
                "leaf": self._leaf_wrapper,
            }[target.kind]
            wrapper = make(target, original)
            allowed = {f"linklab.{m}" for m in target.only_in}
            bound = 0
            for mod_name, mod in modules.items():
                if allowed and mod_name not in allowed:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"tracer found no binding of {target.name}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Aggregate spans and leaf counters into per-layer statistics."""
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        names = self.names
        for name_id, busy, child in zip(self.sp_name, self.sp_busy, self.sp_child):
            row = totals[names[name_id]]
            row[0] += 1
            row[1] += busy
            row[2] += busy - child
        stats: dict[str, float] = {}
        for name, (calls, busy, self_time) in totals.items():
            stats[f"{name}.calls"] = calls
            stats[f"{name}.s"] = busy
            stats[f"{name}.self_s"] = self_time
            stats[f"{name}.ok_ratio"] = self.ok.get(name, 0) / calls if calls else 0.0
        for name, (calls, busy) in self.leaves.items():
            stats[f"{name}.calls"] = calls
            stats[f"{name}.s"] = busy
        stats.update(self.counters)
        return stats

    def write(self, path, header: dict) -> None:
        """Write every span and operation record as one JSON document, in
        columns, with times in integer microseconds (starts relative to the
        first operation)."""
        origin = self.op_spans[0][1] if self.op_spans else 0.0

        def micros(values, offset=0.0):
            return [round((v - offset) * 1e6) for v in values]

        doc = {
            **header,
            "names": self.names,
            "ops_us": [[op, *micros((a, b), origin)] for op, a, b in self.op_spans],
            "spans_us": {
                "name": self.sp_name.tolist(),
                "parent": self.sp_parent.tolist(),
                "op": self.sp_op.tolist(),
                "start": micros(self.sp_start, origin),
                "busy": micros(self.sp_busy),
                "child": micros(self.sp_child),
            },
            "leaves": {name: {"calls": c, "s": s} for name, (c, s) in self.leaves.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
