"""Spans around ordbench's public functions, and the per-layer numbers they give.

The recording half runs inside a traced child interpreter.  It wraps every
public function of the traced modules and rebinds the wrapper under every
name that bound the original in any ``ordbench`` module, so calls made
inside the package are traced too.  Generator functions are left alone,
because their work happens after the call returns; their time counts
toward the caller.  Spans are kept in memory as parallel arrays and written
out once, when the invocation ends.

The analysis half runs in the benchmark process.  It reads the spans back,
computes each span's self time, and folds spans and counters into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("lattice", "connection", "laws", "posetgen", "quantale", "cli")
# Copies of ordbench.laws.LAW_IDS and SUITE_ORDER: the metric names are part
# of the benchmark's definition and must not change with the program.
LAW_IDS = (
    "LM0", "LM1", "LM2", "LM3", "LM4", "LM5",
    "RM0", "RM1", "RM2", "RM3", "RM4", "RM5",
    "LF0", "LF1", "LF2",
    "RF0", "RF1", "RF2",
)
SUITES = ("lm", "rm", "rm045", "lm045", "lf", "rf", "derivations", "modularity", "composition")
# Public constructors that build an order table (they reach lattice._finalize).
BUILDERS = ("from_leq", "build_poset", "dual", "divisor_lattice", "down_set", "up_set")
CONNECTION_FNS = (
    "left_adjoint_connection", "right_adjoint_connection", "find_right_adjoint", "compose_adjoint",
)
QUANTALE_FNS = ("is_principal", "is_weak_principal", "element_connection", "residual")

NO_PARENT = -1
NO_VALUE = -1
HOLDS, FAILS, SKIPPED = 0, 1, 2


class Recorder:
    """Spans of one invocation: name, parent span, start, end and a value.

    The value is a count the wrapper read off the result (maps returned,
    connections yielded, cases run) or an eval_law outcome; NO_VALUE
    otherwise.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self._stack = [NO_PARENT]
        self._verdict_keys: set = set()
        self._caches: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name_of, value_of=None):
        """Wrap fn so each call records a span named name_of(*args)."""
        names, parent, start, end, value, stack = (
            self.name, self.parent, self.start, self.end, self.value, self._stack,
        )

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_of(*args))
            parent.append(stack[-1])
            value.append(NO_VALUE)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            if value_of is not None:
                value[i] = value_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of every traced ordbench module."""
        import ordbench
        from ordbench import laws, lattice, posetgen

        modules = [sys.modules[f"ordbench.{layer}"] for layer in LAYERS]
        self._caches = {
            "lattice.monotone_maps.cache_entries": lattice.monotone_maps,
            "posetgen.generated_lattices.cache_entries": posetgen.generated_lattices,
        }
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                wrappers[id(fn)] = self._wrap(layer, attr, fn)
        for mod in [ordbench, *modules]:
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers and wrappers[id(fn)].__wrapped__ is fn:
                    setattr(mod, attr, wrappers[id(fn)])
        witness_id = self.name_id("laws.witness_render")
        laws.Witness.render = self.span(laws.Witness.render, lambda *a: witness_id)

    def _wrap(self, layer, attr, fn):
        if (layer, attr) == ("laws", "eval_law"):
            return self._wrap_eval_law(fn)
        if (layer, attr) == ("laws", "run_suite"):
            ids = {s: self.name_id(f"laws.suite.{s}") for s in SUITES}
            fallback = self.name_id("laws.run_suite")
            return self.span(fn, lambda name, *a: ids.get(name, fallback), lambda r: r.cases)
        value_of = None
        if attr in ("monotone_maps", "enumerate_adjoint_connections", "generated_lattices"):
            value_of = len
        elif attr == "search_counterexample":
            value_of = lambda r: r.cases  # noqa: E731
        fid = self.name_id(f"{layer}.{attr}")
        return self.span(fn, lambda *a: fid, value_of)

    def _wrap_eval_law(self, fn):
        ids = {law: self.name_id(f"laws.eval_law.{law}") for law in LAW_IDS}
        fallback = self.name_id("laws.eval_law")
        keys = self._verdict_keys
        inner = self.span(fn, lambda law_id, ac: ids.get(law_id, fallback), _outcome)

        def eval_law(law_id, ac):
            # A verdict depends on the law, both lattices and both adjoint
            # tables.  Lattice names stand for the lattices: within one run a
            # name always denotes the same order table.
            keys.add((
                law_id, ac.source.name, ac.target.name,
                ac.left.values if ac.left is not None else None,
                ac.right.values if ac.right is not None else None,
            ))
            return inner(law_id, ac)

        eval_law.__wrapped__ = fn
        return eval_law

    def dump(self, path: str):
        counters = {"laws.eval_law.distinct": len(self._verdict_keys)}
        for metric, cached in self._caches.items():
            counters[metric] = cached.cache_info().currsize
        origin = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": [t - origin for t in self.start],
                    "end": [t - origin for t in self.end],
                    "value": self.value.tolist(),
                    "counters": counters,
                },
                fh,
                separators=(",", ":"),
            )


def _outcome(report) -> int:
    if report.skipped is not None:
        return SKIPPED
    return HOLDS if report.holds else FAILS


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Each span's children must follow it in start order, as recorded; a child may
    overlap its siblings or run past its parent, and only the covered part
    of the parent's own interval is subtracted.
    """
    own = [e - s for s, e in zip(start, end)]
    covered_to: dict[int, int] = {}
    for i, p in enumerate(parent):
        if p == NO_PARENT:
            continue
        lo = max(start[i], covered_to.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def _metric_names():
    names = [
        ("lattice.build.calls", "count"), ("lattice.build.self_s", "s"),
        ("lattice.dual.calls", "count"), ("lattice.divisor_lattice.self_s", "s"),
        ("lattice.monotone_maps.calls", "count"), ("lattice.monotone_maps.self_s", "s"),
        ("lattice.monotone_maps.maps", "count"), ("lattice.monotone_maps.cache_entries", "count"),
        ("connection.enumerate_adjoint_connections.calls", "count"),
        ("connection.enumerate_adjoint_connections.self_s", "s"),
        ("connection.enumerate_adjoint_connections.yielded", "count"),
        ("connection.enumerate_adjoint_connections.examined", "count"),
        ("connection.adjoint_yield", "ratio"),
    ]
    for fn in CONNECTION_FNS:
        names += [(f"connection.{fn}.calls", "count"), (f"connection.{fn}.self_s", "s")]
    names += [
        ("laws.eval_law.calls", "count"), ("laws.eval_law.self_s", "s"),
        ("laws.eval_law.holds", "count"), ("laws.eval_law.fails", "count"),
        ("laws.eval_law.skipped", "count"), ("laws.eval_law.fails_s", "s"),
        ("laws.eval_law.distinct", "count"), ("laws.eval_law.repeat_ratio", "ratio"),
    ]
    for law in LAW_IDS:
        names += [(f"laws.eval_law.{law}.calls", "count"), (f"laws.eval_law.{law}.s", "s")]
    names += [("laws.witness_render.calls", "count"), ("laws.witness_render.s", "s")]
    for suite in SUITES:
        names += [(f"laws.suite.{suite}.s", "s"), (f"laws.suite.{suite}.cases", "count")]
    names += [
        ("laws.search_counterexample.s", "s"), ("laws.search_counterexample.cases", "count"),
        ("posetgen.generated_lattices.s", "s"), ("posetgen.generated_lattices.lattices", "count"),
        ("posetgen.generated_lattices.cache_entries", "count"),
        ("quantale.zn_ideal_quantale.s", "s"), ("quantale.build_quantale.s", "s"),
    ]
    for fn in QUANTALE_FNS:
        names += [(f"quantale.{fn}.calls", "count"), (f"quantale.{fn}.self_s", "s")]
    names += [
        ("cli.run.self_s", "s"), ("cli.stdout_bytes", "bytes"), ("trace.overhead_ratio", "ratio"),
    ]
    return names


# Every per-layer metric, with its unit, in report order.
PER_LAYER = dict(_metric_names())


def merge(traces: list[dict]) -> dict:
    """One trace holding the spans and summed counters of several invocations."""
    merged = {"names": [], "name": [], "parent": [], "start": [], "end": [], "value": [], "counters": {}}
    ids: dict[str, int] = {}
    for trace in traces:
        offset = len(merged["name"])
        remap = [ids.setdefault(n, len(ids)) for n in trace["names"]]
        merged["name"] += [remap[i] for i in trace["name"]]
        merged["parent"] += [p if p == NO_PARENT else p + offset for p in trace["parent"]]
        for key in ("start", "end", "value"):
            merged[key] += trace[key]
        for key, v in trace["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + v
    merged["names"] = list(ids)
    return merged


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from dumped spans (see :func:`merge` for several).

    Counts are ints and times are seconds.  ``cli.stdout_bytes`` and
    ``trace.overhead_ratio`` are measured by the benchmark process, not
    from spans, and are not included.
    """
    parent, start, end, value = trace["parent"], trace["start"], trace["end"], trace["value"]
    names = [trace["names"][i] for i in trace["name"]]
    own = self_times(start, end, parent)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counted: dict[str, int] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end[i] - start[i]
        self_ns[name] = self_ns.get(name, 0) + own[i]
        if value[i] != NO_VALUE:
            counted[name] = counted.get(name, 0) + value[i]

    def s(ns):
        return ns / 1e9

    def sum_over(table, keys):
        return sum(v for k, v in table.items() if k in keys)

    m: dict[str, float] = {}
    builders = {f"lattice.{b}" for b in BUILDERS}
    m["lattice.build.calls"] = sum_over(calls, builders)
    m["lattice.build.self_s"] = s(sum_over(self_ns, builders))
    m["lattice.dual.calls"] = calls.get("lattice.dual", 0)
    m["lattice.divisor_lattice.self_s"] = s(self_ns.get("lattice.divisor_lattice", 0))
    m["lattice.monotone_maps.calls"] = calls.get("lattice.monotone_maps", 0)
    m["lattice.monotone_maps.self_s"] = s(self_ns.get("lattice.monotone_maps", 0))
    m["lattice.monotone_maps.maps"] = counted.get("lattice.monotone_maps", 0)

    # Maps examined: the monotone maps an enumeration call fetched itself,
    # i.e. on its cache misses; yield compares connections found on those
    # same calls with the maps examined for them.
    enum = "connection.enumerate_adjoint_connections"
    examined_by: dict[int, int] = {}
    for i, name in enumerate(names):
        p = parent[i]
        if name == "lattice.monotone_maps" and p != NO_PARENT and names[p] == enum:
            examined_by[p] = examined_by.get(p, 0) + value[i]
    examined = sum(examined_by.values())
    fresh_yield = sum(value[p] for p in examined_by)
    m[f"{enum}.calls"] = calls.get(enum, 0)
    m[f"{enum}.self_s"] = s(self_ns.get(enum, 0))
    m[f"{enum}.yielded"] = counted.get(enum, 0)
    m[f"{enum}.examined"] = examined
    m["connection.adjoint_yield"] = fresh_yield / examined if examined else 0.0
    for fn in CONNECTION_FNS:
        m[f"connection.{fn}.calls"] = calls.get(f"connection.{fn}", 0)
        m[f"connection.{fn}.self_s"] = s(self_ns.get(f"connection.{fn}", 0))

    law_spans = [f"laws.eval_law.{law}" for law in LAW_IDS] + ["laws.eval_law"]
    outcomes = [0, 0, 0]
    fails_ns = 0
    for i, name in enumerate(names):
        if name.startswith("laws.eval_law") and value[i] != NO_VALUE:
            outcomes[value[i]] += 1
            if value[i] == FAILS:
                fails_ns += end[i] - start[i]
    eval_calls = sum_over(calls, law_spans)
    distinct = trace["counters"].get("laws.eval_law.distinct", 0)
    m["laws.eval_law.calls"] = eval_calls
    m["laws.eval_law.self_s"] = s(sum_over(self_ns, law_spans))
    m["laws.eval_law.holds"] = outcomes[HOLDS]
    m["laws.eval_law.fails"] = outcomes[FAILS]
    m["laws.eval_law.skipped"] = outcomes[SKIPPED]
    m["laws.eval_law.fails_s"] = s(fails_ns)
    m["laws.eval_law.distinct"] = distinct
    m["laws.eval_law.repeat_ratio"] = eval_calls / distinct if distinct else 0.0
    for law in LAW_IDS:
        m[f"laws.eval_law.{law}.calls"] = calls.get(f"laws.eval_law.{law}", 0)
        m[f"laws.eval_law.{law}.s"] = s(total.get(f"laws.eval_law.{law}", 0))
    m["laws.witness_render.calls"] = calls.get("laws.witness_render", 0)
    m["laws.witness_render.s"] = s(total.get("laws.witness_render", 0))
    for suite in SUITES:
        m[f"laws.suite.{suite}.s"] = s(total.get(f"laws.suite.{suite}", 0))
        m[f"laws.suite.{suite}.cases"] = counted.get(f"laws.suite.{suite}", 0)
    m["laws.search_counterexample.s"] = s(total.get("laws.search_counterexample", 0))
    m["laws.search_counterexample.cases"] = counted.get("laws.search_counterexample", 0)

    m["posetgen.generated_lattices.s"] = s(total.get("posetgen.generated_lattices", 0))
    m["posetgen.generated_lattices.lattices"] = counted.get("posetgen.generated_lattices", 0)
    for metric in ("lattice.monotone_maps.cache_entries", "posetgen.generated_lattices.cache_entries"):
        m[metric] = trace["counters"].get(metric, 0)

    m["quantale.zn_ideal_quantale.s"] = s(total.get("quantale.zn_ideal_quantale", 0))
    m["quantale.build_quantale.s"] = s(total.get("quantale.build_quantale", 0))
    for fn in QUANTALE_FNS:
        m[f"quantale.{fn}.calls"] = calls.get(f"quantale.{fn}", 0)
        m[f"quantale.{fn}.self_s"] = s(self_ns.get(f"quantale.{fn}", 0))

    # Time in cli code under cli.run that no other layer's span covers:
    # argument parsing, dispatch and report rendering.
    m["cli.run.self_s"] = s(sum(v for k, v in self_ns.items() if k.startswith("cli.")))
    return m
