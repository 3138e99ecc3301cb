"""Per-layer metrics, taken from outside the package.

``LayerTrace.install`` rebinds the public functions of each layer to
timing wrappers, the way ``blockmem.lawcheck.mutations`` swaps in its
seeded bugs, so calls between the package's own modules are seen too
(including the names ``laws_base`` imports from ``generators``).  A
wrapper's self time is its duration minus the time of the wrapped calls
nested in it.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

# (name, unit, better), in the order they are reported.
METRICS = (
    ("memstate.alloc.calls", "count", "lower"),
    ("memstate.alloc.self_s", "s", "lower"),
    ("memstate.store.calls", "count", "lower"),
    ("memstate.store.self_s", "s", "lower"),
    ("memstate.free.calls", "count", "lower"),
    ("memstate.free.self_s", "s", "lower"),
    ("memstate.load.calls", "count", "lower"),
    ("memstate.load.self_s", "s", "lower"),
    ("memstate.entries_copied", "count", "lower"),
    ("cells.store_contents.calls", "count", "lower"),
    ("cells.store_contents.self_s", "s", "lower"),
    ("cells.load_contents.calls", "count", "lower"),
    ("cells.load_contents.self_s", "s", "lower"),
    ("cells.cells_copied", "count", "lower"),
    ("chunks.convert.calls", "count", "lower"),
    ("chunks.convert.self_s", "s", "lower"),
    ("relations.mem_lessdef.calls", "count", "lower"),
    ("relations.mem_lessdef.self_s", "s", "lower"),
    ("relations.mem_extends.calls", "count", "lower"),
    ("relations.mem_extends.self_s", "s", "lower"),
    ("relations.mem_inject.calls", "count", "lower"),
    ("relations.mem_inject.self_s", "s", "lower"),
    ("relations.access_pairs", "count", "lower"),
    ("trace.parse_trace.self_s", "s", "lower"),
    ("trace.exec_trace.self_s", "s", "lower"),
    ("trace.relate.self_s", "s", "lower"),
    ("trace.statements", "count", "higher"),
    ("lawcheck.sample.self_s", "s", "lower"),
    ("lawcheck.replay.calls", "count", "lower"),
    ("lawcheck.replay.self_s", "s", "lower"),
    ("lawcheck.check.self_s", "s", "lower"),
    ("lawcheck.useful_draw_ratio", "ratio", "higher"),
    ("lawcheck.memo_hit_ratio", "ratio", "higher"),
)

_REPLAY = ("run_ops", "build_lessdef_pair", "build_extends_pair", "build_emb_scenario")
_MEMOS = (
    "run_cached",
    "state_of",
    "lessdef_pair_cached",
    "extends_pair_cached",
    "emb_scenario_cached",
    "cells_of",
)


class LayerTrace:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack = [0.0]  # time spent in wrapped callees, per open span
        self._undo: list = []
        self._laws = None
        self._memo: list = []

    def span(self, key: str, fn, before=None, after=None):
        """``fn`` wrapped to count calls and self time under ``key``;
        ``before(args)`` and ``after(result)`` update counters."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
                calls[key] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _rebind(self, modules, attr: str, wrapper) -> None:
        for module in modules:
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def install(self) -> None:
        from blockmem import cells, chunks, memstate, relations, trace
        from blockmem.lawcheck import generators, laws_base

        counts = self.counts

        def entries(k):
            def before(args):
                counts["memstate.entries_copied"] += args[k].nextblock - 1

            return before

        def cells_copied(args):
            counts["cells.cells_copied"] += len(args[0])

        def access_pairs(result):
            counts["relations.access_pairs"] += len(result)
            return result

        def executed(report):
            counts["trace.statements"] += len(report.steps)

        def stepped(report):
            counts["trace.statements"] += 2 * len(report.steps)

        def drawn(case):
            counts["lawcheck.draws"] += 1
            counts["lawcheck.useful_draws"] += case[0] != "skip"

        plan = (
            (memstate, "alloc", entries(0), None),
            (memstate, "store", entries(1), None),
            (memstate, "free", entries(0), None),
            (memstate, "load", None, None),
            (cells, "store_contents", cells_copied, None),
            (cells, "load_contents", None, None),
            (chunks, "convert", None, None),
            (relations, "mem_lessdef", None, None),
            (relations, "mem_extends", None, None),
            (relations, "mem_inject", None, None),
            (trace, "parse_trace", None, None),
            (trace, "exec_trace", None, executed),
            (trace, "relate", None, stepped),
        )
        for module, attr, before, after in plan:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._rebind((module,), attr, self.span(key, getattr(module, attr), before, after))
        # A counter, not a span: building the access list stays in the
        # caller's self time.
        original = relations.valid_accesses
        self._rebind(
            (relations,), "valid_accesses", lambda *a: access_pairs(original(*a))
        )
        for attr in _REPLAY:
            wrapper = self.span("lawcheck.replay", getattr(generators, attr))
            self._rebind((generators, laws_base), attr, wrapper)
        self._laws = dict(laws_base.LAWS)
        for name, law in self._laws.items():
            laws_base.LAWS[name] = dataclasses.replace(
                law,
                sample=self.span("lawcheck.sample", law.sample, after=drawn),
                check=self.span("lawcheck.check", law.check),
            )

    def uninstall(self) -> None:
        from blockmem.lawcheck import laws_base

        if self._laws is not None:
            self._memo = [getattr(laws_base, name).cache_info() for name in _MEMOS]
            laws_base.LAWS.update(self._laws)
            self._laws = None
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict:
        """Every metric of ``METRICS`` by name; ratios with no base are 0."""
        values = {}
        for name, _, _ in METRICS:
            key, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = self.calls[key]
            elif what == "self_s":
                values[name] = self.self_s[key]
            else:
                values[name] = self.counts[name]
        draws = self.counts["lawcheck.draws"]
        values["lawcheck.useful_draw_ratio"] = (
            self.counts["lawcheck.useful_draws"] / draws if draws else 0.0
        )
        hits = sum(i.hits for i in self._memo)
        lookups = hits + sum(i.misses for i in self._memo)
        values["lawcheck.memo_hit_ratio"] = hits / lookups if lookups else 0.0
        return values
