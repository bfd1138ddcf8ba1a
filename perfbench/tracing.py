"""Spans and counts taken from outside lexsim, by wrapping its public functions.

A wrapper replaces a public function at every place a lexsim module looks it
up: the defining module's own namespace (so intra-module calls such as
`flip_rates -> trial_fractions` are seen) and every module that imported the
name (`runner.simulate`, `evolution.substream`, ...). Nothing inside the
package is edited. Each call records one span: a name
("<module>.<function>"), start and end on the shared monotonic clock, the
span that was open when it started, and the current op id. Spans live in
flat arrays and are reduced or written out only after the timed loop.

A few functions also report a count taken from their arguments or result
(samples asked for, bisection iterations, bytes produced); those are listed
in QUANTITIES.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "config", "runner", "charts", "contracts", "settlement", "frivolous",
          "evolution", "composition", "rng")


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _draw_bytes(fn, args, kwargs, result):
    # 24 bytes per rule-period: the (periods, 3, n) float64 draw array as
    # specified by the call, not a measured allocation
    pop = _arg(fn, args, kwargs, "population")
    return {"evolution.draw_bytes_computed": 24 * pop.n_rules * _arg(fn, args, kwargs, "periods")}


def _chart_counts(fn, args, kwargs, result):
    series = _arg(fn, args, kwargs, "series")
    return {"charts.line_chart_points": sum(len(xs) for _, xs, _ in series),
            "charts.svg_bytes": len(result.encode("utf-8"))}


QUANTITIES = {
    "evolution.simulate": _draw_bytes,
    "evolution.trial_fractions": lambda fn, a, kw, r: {
        "evolution.trial_fractions_samples": _arg(fn, a, kw, "n_samples")},
    "evolution.gap_closure_time": lambda fn, a, kw, r: {"evolution.gap_closure_steps": r},
    "contracts.solve_completeness": lambda fn, a, kw, r: {
        "contracts.bisection_iterations": r.iterations},
    "runner.run": lambda fn, a, kw, r: {"runner.csv_bytes": os.path.getsize(r.csv_path)},
    "charts.line_chart": _chart_counts,
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.quantities: list[tuple[int, str, int]] = []  # (op, name, value)
        self.current = -1
        self.op_id = -1
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int | None = None) -> None:
        """Record a span measured elsewhere (a child process, an interpreter start)."""
        self.name_id.append(self._intern(name))
        self.parent.append(self.current if parent is None else parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)

    def add_quantity(self, name: str, value: int) -> None:
        self.quantities.append((self.op_id, name, int(value)))

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        extract = QUANTITIES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.current)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            prev, tracer.current = tracer.current, idx
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = prev
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if extract is not None:
                for qname, value in extract(fn, args, kwargs, result).items():
                    tracer.quantities.append((tracer.op_id, qname, int(value)))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public lexsim function at every module binding of it."""
        modules = {layer: importlib.import_module(f"lexsim.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("lexsim.") or owner not in modules:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(f"{owner}.{value.__name__}", value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def spans(self) -> dict:
        """Plain-data copy of every span, for writing out or merging."""
        return {"names": list(self.names), "name_id": list(self.name_id),
                "parent": list(self.parent), "op": list(self.op),
                "start": list(self.start), "end": list(self.end),
                "quantities": list(self.quantities)}

    def merge(self, other: dict) -> None:
        """Append spans recorded by another process under the current op."""
        base = len(self.start)
        for nid, par, start, end in zip(other["name_id"], other["parent"],
                                        other["start"], other["end"]):
            self.add_span(other["names"][nid], start, end,
                          parent=self.current if par < 0 else base + par)
        for _, name, value in other["quantities"]:
            self.add_quantity(name, value)


def op_totals(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per op: `<span>_calls`, `<span>_s`, `<span>_self_s` and every quantity.

    Self time is a span's duration minus the durations of its direct
    children; lexsim is single-threaded, so children never overlap.
    """
    import numpy as np

    n = len(tracer.start)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start,
                                                                       dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    op = np.frombuffer(tracer.op, dtype=np.int32).astype(np.int64)
    key = op * len(tracer.names) + np.frombuffer(tracer.name_id, dtype=np.int32)
    keys, inverse = np.unique(key, return_inverse=True)
    calls = np.bincount(inverse)
    total = np.bincount(inverse, weights=dur)
    total_self = np.bincount(inverse, weights=self_time)
    totals: dict[int, dict[str, float]] = {}
    for k, c, t, ts in zip(keys.tolist(), calls.tolist(), total.tolist(), total_self.tolist()):
        op_id, nid = divmod(k, len(tracer.names))
        row = totals.setdefault(op_id, {})
        name = tracer.names[nid]
        row[f"{name}_calls"] = c
        row[f"{name}_s"] = t
        row[f"{name}_self_s"] = ts
    for op_id, name, value in tracer.quantities:
        row = totals.setdefault(op_id, {})
        row[name] = row.get(name, 0) + value
    return totals


def save(tracer: Tracer, path: str) -> None:
    """Write every span (and the quantities) as columns of an .npz file."""
    import numpy as np

    np.savez(path, names=np.array(tracer.names, dtype=str),
             name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             op=np.frombuffer(tracer.op, dtype=np.int32),
             start=np.frombuffer(tracer.start, dtype=np.float64),
             end=np.frombuffer(tracer.end, dtype=np.float64),
             quantities=np.array(json.dumps(tracer.quantities)))
