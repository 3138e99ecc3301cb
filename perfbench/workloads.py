"""One round of each workload: inputs, set-up, the timed work, and the
checks of its outputs.

A round runs in its own process (see ``worker.py``), so it starts with the
cold memo caches a fresh ``blockmem`` process has.  blockmem is imported
inside ``setup`` only, so that the import is timed as set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Per-family random case counts for the laws workload: the defaults
# (10k state, 10k cells, 2k relation) scaled by 1/25.  Each law's exhaustive
# phase is capped so that, as in a default run, the random phase takes most
# of the time (about two thirds of a round).
LAWS_FULL = {"cases_state": 400, "cases_cells": 400, "cases_relation": 80, "max_exhaustive": 5000}
LAWS_TINY = {"cases_state": 10, "cases_cells": 10, "cases_relation": 2, "max_exhaustive": 200}

SIZES = {
    "full": {"laws": LAWS_FULL, "heap": gen.HEAP_FULL, "relate": gen.RELATE_FULL},
    "tiny": {"laws": LAWS_TINY, "heap": gen.HEAP_TINY, "relate": gen.RELATE_TINY},
}
WORKLOADS = ("laws", "heap", "relate")

# The speed of a shared host drifts, within seconds and over minutes, by up
# to a third.  Each round process therefore times a fixed pure-Python slice
# of work (about 1 ms) every CALIB_EVERY_S seconds while the set-up and the
# work run, from a timer signal, and takes the slices out of their times;
# run.py divides each time by the mean slice time measured alongside it,
# which takes most of the drift out of the reported times.  The slice is
# integer arithmetic only, so that it does not depend on the program: a
# slice that also read from a large buffer ran a third slower inside the
# `heap` work than after the set-up, because the work evicts its buffer
# from the cache, and would have damped any change to the program's memory
# traffic.
CALIB_STEPS = 10_000
CALIB_EVERY_S = 0.1
# Spans shorter than a second are topped up to this many slices, timed
# right after them.
CALIB_MIN_SLICES = 10


def calib_slice() -> float:
    """Seconds the calibration slice takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIB_STEPS):
        s += i * i % 7
    return time.perf_counter() - t0


class CalibSampler:
    """Times one calibration slice every ``CALIB_EVERY_S`` seconds of wall
    time while active; ``slices`` holds their times."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.slices.append(calib_slice())

    def __enter__(self) -> "CalibSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def calib_mean(slices: list[float]) -> float:
    """Mean slice time, topped up to ``CALIB_MIN_SLICES`` slices timed now."""
    slices = slices + [calib_slice() for _ in range(CALIB_MIN_SLICES - len(slices))]
    return sum(slices) / len(slices)


def import_program() -> None:
    """Import blockmem from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blockmem.cli  # the CLI's import registers every law

    where = Path(blockmem.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"blockmem was imported from {where}, not from {SRC}")


def make_inputs(workload: str, seed: int, size: str):
    """The workload's inputs, generated by the benchmark alone."""
    spec = SIZES[size][workload]
    if workload == "laws":
        return {"seed": seed, **spec}
    if workload == "heap":
        return gen.heap_input(seed, spec)
    return gen.relate_input(seed, spec)


# --- set-up: the import plus what the workload builds before timing ----------


def setup(workload: str, inputs):
    import_program()
    if workload == "laws":
        from blockmem.lawcheck.runner import SuiteConfig

        return SuiteConfig(jobs=1, **inputs)
    if workload == "heap":
        return inputs
    from blockmem import trace

    return [(trace.parse_trace(it.left), trace.parse_trace(it.right)) for it in inputs]


# --- timed work ----------------------------------------------------------------


def work(workload: str, inputs, ctx):
    if workload == "laws":
        from blockmem.lawcheck import runner

        return runner.run_suite(ctx)
    from blockmem import trace

    if workload == "heap":
        parsed = trace.parse_trace(inputs.text)
        return parsed, trace.exec_trace(parsed)
    return [
        trace.relate(t1, t2, it.relation, emb=it.emb, stepwise=it.stepwise)
        for it, (t1, t2) in zip(inputs, ctx)
    ]


# --- checks: (items done, digest, problems) ------------------------------------


def check(workload: str, inputs, ctx, out) -> tuple[int, str, list[str]]:
    return {"laws": _check_laws, "heap": _check_heap, "relate": _check_relate}[workload](
        inputs, ctx, out
    )


def _check_laws(inputs, cfg, suite):
    from blockmem.lawcheck import registry, runner

    problems = []
    names = [r.name for r in suite.results]
    if names != list(registry.LAWS):
        problems.append(f"{len(names)} law results for {len(registry.LAWS)} registered laws")
    implemented = [e.name for e in registry.catalogue() if e.status == registry.IMPLEMENTED]
    if sorted(implemented) != sorted(names):
        problems.append("the catalogue's implemented laws differ from the results")
    for r in suite.results:
        want = cfg.cases_for(registry.LAWS[r.name])
        if r.cases_random != want:
            problems.append(f"{r.name}: {r.cases_random} random cases, configured {want}")
        if not 0 <= r.cases_exhaustive <= cfg.max_exhaustive:
            problems.append(f"{r.name}: {r.cases_exhaustive} exhaustive cases")
        if not r.passed:
            problems.append(f"{r.name} fails on the healthy model: {r.violations[0].detail}")
    report = runner.jsonl_report(suite)
    records = [json.loads(line) for line in report.splitlines()]
    summary = records[-1]
    if summary.get("kind") != "summary" or summary.get("passed") is not True:
        problems.append("the JSON-lines summary does not record a pass")
    laws = [r for r in records if r.get("kind") == "law"]
    if len(laws) != len(names) or any(not r["passed"] for r in laws):
        problems.append("the JSON-lines report does not list every law as passed")
    items = sum(r.cases_random for r in suite.results)
    return items, hashlib.sha256(report.encode("utf-8")).hexdigest(), problems


def _program_value(value: tuple, ids: dict):
    from blockmem.chunks import VUNDEF, Vfloat, Vint, Vptr

    if value[0] == "int":
        return Vint(value[1])
    if value[0] == "float":
        return Vfloat(value[1])
    if value[0] == "ptr":
        return Vptr(ids[value[1]], value[2])
    return VUNDEF


def _check_heap(inputs, ctx, out):
    from blockmem import memstate
    from blockmem.chunks import Chunk

    parsed, report = out
    problems = []
    if len(parsed.statements) != inputs.statements:
        problems.append(f"parsed {len(parsed.statements)} of {inputs.statements} statements")
    if not report.ok:
        f = report.failure
        problems.append(f"trace failed at line {f.line}: {f.note}")
        return len(report.steps), "", problems
    m = report.state
    ids = {b.var: k for k, b in enumerate(inputs.blocks, start=1)}
    if report.env != ids:
        problems.append("variables are not bound to blocks in allocation order")
        return len(report.steps), "", problems
    if not memstate.fresh_block(m, len(ids) + 1) or memstate.fresh_block(m, len(ids)):
        problems.append("the next block id is not one past the last allocation")
    live = 0
    for k, b in enumerate(inputs.blocks, start=1):
        live += b.live
        if memstate.valid_block(m, k) != b.live:
            problems.append(f"{b.var}: valid_block is {not b.live}")
        if memstate.bounds(m, k) != (b.low, b.high):
            problems.append(f"{b.var}: bounds {memstate.bounds(m, k)}, expected {(b.low, b.high)}")
        # Every load that any store of the block makes possible, on the
        # final state, against the reference model.
        for ofs, token in set(b.anchors):
            for t in gen.SAME_WIDTH[token]:
                want = b.load(t, ofs)
                got = memstate.load(Chunk.from_token(t), m, k, ofs)
                if want is None:
                    ok = got is None
                else:
                    ok = got == _program_value(want, ids)
                if not ok:
                    problems.append(f"final load {t} {b.var} {ofs}: got {got}, expected {want}")
    digest = hashlib.sha256(f"{len(report.steps)} {live} {m.nextblock}".encode()).hexdigest()
    return len(report.steps), digest, problems[:20]


def _check_relate(inputs, ctx, reports):
    from blockmem import trace
    from blockmem.lawcheck import oracle

    reference = {
        "lessdef": lambda emb, m1, m2: oracle.ref_mem_lessdef(m1, m2),
        "extends": lambda emb, m1, m2: oracle.ref_mem_extends(m1, m2),
        "inject": oracle.ref_mem_inject,
    }
    problems = []
    items = 0
    verdicts = []
    for it, (t1, t2), rep in zip(inputs, ctx, reports):
        verdicts.append(f"{it.name}:{rep.ok}:{len(rep.steps)}")
        if it.stepwise:
            items += len(rep.steps)
            want = [(k, True) for k in range(it.statements)]
            if not it.holds:
                want = want[: it.fail_step] + [(it.fail_step, False)]
            if rep.steps != want or rep.ok != it.holds:
                problems.append(f"{it.name}: {rep.message}")
            continue
        items += 1
        outcome = "holds" if it.holds else "fails"
        if rep.ok != it.holds or rep.message != f"{it.relation} {outcome} on the final states":
            problems.append(f"{it.name}: {rep.message}")
        if it.small:
            r1, r2 = trace.exec_trace(t1), trace.exec_trace(t2)
            if not (r1.ok and r2.ok):
                problems.append(f"{it.name}: a trace of the pair does not execute")
            elif reference[it.relation](it.emb, r1.state, r2.state) != it.holds:
                problems.append(f"{it.name}: the reference checker disagrees with the construction")
    digest = hashlib.sha256(" ".join(verdicts).encode()).hexdigest()
    return items, digest, problems


# --- one round -------------------------------------------------------------------


def timed(fn, *args):
    """``fn(*args)`` with calibration slices timed alongside: its result, its
    wall time without the slices, and the mean slice time."""
    sampler = CalibSampler()
    t0 = time.perf_counter()
    with sampler:
        out = fn(*args)
    elapsed = time.perf_counter() - t0
    return out, elapsed - sum(sampler.slices), calib_mean(sampler.slices)


def run_round(workload: str, seed: int, size: str = "full", traced: bool = False) -> dict:
    """Set up, do the workload's fixed work once, check it; timings in
    seconds.  With ``traced`` the per-layer metrics come back as well."""
    inputs = make_inputs(workload, seed, size)
    ctx, setup_s, setup_calib_s = timed(setup, workload, inputs)
    layer_trace = None
    if traced:
        # No timer here: its slices would land in the layers' self times.
        import layers

        layer_trace = layers.LayerTrace()
        layer_trace.install()
        try:
            t0 = time.perf_counter()
            out = work(workload, inputs, ctx)
            wall_s = time.perf_counter() - t0
        finally:
            layer_trace.uninstall()
        calib_s = calib_mean([])
    else:
        out, wall_s, calib_s = timed(work, workload, inputs, ctx)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux
    items, digest, problems = check(workload, inputs, ctx, out)
    result = {
        "setup_s": setup_s,
        "setup_calib_s": setup_calib_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "items": items,
        "peak_rss_mb": rss,
        "digest": digest,
        "problems": problems,
    }
    if layer_trace is not None:
        result["layers"] = layer_trace.metrics()
    return result


def run_setup(workload: str, seed: int, size: str = "full") -> dict:
    """Set-up alone, for extra set-up samples."""
    _, setup_s, setup_calib_s = timed(setup, workload, make_inputs(workload, seed, size))
    return {"setup_s": setup_s, "setup_calib_s": setup_calib_s}
