"""Suite runner: evaluates every law and emits the reports.

Each law runs two phases over its domain (``domains``): a sweep of the
domain's exhaustive scope, then seeded random draws.  The suite runs by
exhaustive domain (``run_group``): the laws whose ``law.exhaustive`` is
the same function enumerate it once, each case going to every law of the
group that has not failed yet, and each law then draws its own random
phase.  A random case is a scenario, taken from the stream its domain
shares with every other law of the domain (draw k of the law takes
scenario k), and an assignment drawn from the law's own stream (see
``rng``).  Both depend only on the seed, the law and the draw number, so
a law's result does not depend on which laws run, in which order, in
which group, or in how many processes.  A failing random case shrinks
through the u64s its draw read (one tape for the law's stream, one per
scenario), which ``law.sample`` reads again: the shrunk case is a draw of
the law's domain that still violates the law when replayed on its own.

Reports come in two forms: human-readable text with timings, and a
machine-readable JSON-lines file with one record per catalogue entry.
The file deliberately contains no timing, so two runs with the same seed
and case counts are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import islice

from . import registry
from .domains import Skip
from .laws_base import Law, render_case
from .rng import LawStream, SplitMix64, law_stream, scenario_stream

# The way cases are generated, recorded in the report's header: bumped by
# every change that moves any law's exhaustive cases or random draws.
REPORT_FORMAT = 2
_SHRINK_BUDGET = 20_000  # candidate replays per shrink


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for a law run.

    ``random_cases`` overrides every per-family default when set; 0 gives
    an exhaustive-only run.  Relation laws default lower than the flat
    state/cell laws because each of their cases re-verifies a relation on
    whole states; the witness-construction laws are still guaranteed at
    least a thousand instances by the relation default.
    """

    seed: int = 42
    random_cases: int | None = None
    cases_state: int = 10_000
    cases_cells: int = 10_000
    cases_relation: int = 2_000
    max_exhaustive: int = 1_000_000
    jobs: int = 1

    def cases_for(self, law: Law) -> int:
        if self.random_cases is not None:
            return self.random_cases
        if law.family == "relation":
            return self.cases_relation
        if law.family == "cells":
            return self.cases_cells
        return self.cases_state


@dataclass
class Violation:
    detail: str
    scenario: str
    assignment: str


@dataclass
class LawResult:
    name: str
    module: str
    groups: tuple
    about: str
    cases_exhaustive: int
    cases_random: int
    cases_skipped: int = 0  # random draws that came back ("skip",)
    violations: list = field(default_factory=list)
    seconds: float = 0.0  # the random phase and a share of the group's enumeration
    seconds_exhaustive: float = 0.0  # that share

    @property
    def passed(self) -> bool:
        return not self.violations


class _Recorder(LawStream):
    """The law stream from ``state``, keeping the u64s its draw reads: its
    own in ``tapes[0]``, then one tape per scenario request, each read
    from a fresh stream of the domain rather than from ``SCENARIOS``."""

    __slots__ = ("tapes",)

    def __init__(self, state: int, seed: int = 0, scenarios: int = 0) -> None:
        self.state, self.seed, self.scenarios, self.tapes = state, seed, scenarios, [[]]

    def next_u64(self) -> int:
        self.tapes[0].append(SplitMix64.next_u64(self))
        return self.tapes[0][-1]

    def scenario(self, domain: str, sample):
        stream = scenario_stream(self.seed, domain)
        for _ in range(self.scenarios):
            sample(stream)
        self.scenarios += 1
        recorder = _Recorder(stream.state)
        self.tapes += recorder.tapes
        return sample(recorder)


class _Replay(SplitMix64):
    """Reads ``tapes[0]`` and then zeros, and serves its k-th scenario
    request from ``tapes[k]``.  An overrun, a thousand zeros read, is a
    skip: on zeros, ``sample_emb_plan(need_mapped=True)`` retries forever."""

    __slots__ = ("tapes", "read", "scenarios")

    def __init__(self, tapes: list) -> None:
        self.tapes, self.read, self.scenarios = tapes or [[]], 0, 0

    def next_u64(self) -> int:
        tape, self.read = self.tapes[0], self.read + 1
        if self.read > len(tape) + 1000:
            raise Skip
        return tape[self.read - 1] if self.read <= len(tape) else 0

    def scenario(self, domain: str, sample):
        self.scenarios += 1
        return sample(_Replay(self.tapes[self.scenarios : self.scenarios + 1]))


def _shrink(law: Law, seed: int, n: int):
    """The smallest tapes found for the law's failing n-th draw, and the
    case and detail they read.  Passes delete spans and lower values (to 0
    or by a binary search), and when stuck lower a value by one with a
    later span deleted: a count and one item's draws.  A candidate is kept
    when the check still fails and its scenario renders no longer, as a
    zero need not read as the simpler choice (``chance`` holds at 0)."""
    rng = law_stream(seed, law.name)
    for _ in range(n - 1):
        law.sample(rng)
    recorder = _Recorder(rng.state, rng.seed, rng.scenarios)
    case = law.sample(recorder)
    tapes, detail, budget = recorder.tapes, law.check(case), _SHRINK_BUDGET

    def lines(c) -> int:
        return render_case(c)["scenario"].count("\n")

    def put(t: int, i: int, x: int) -> list:
        return tapes[t][:i] + [x] + tapes[t][i + 1 :]

    def keep(t: int, tape: list) -> bool:
        nonlocal tapes, case, detail, budget
        budget -= 1
        candidate = tapes[:t] + [tape] + tapes[t + 1 :]
        new = budget >= 0 and law.sample(_Replay(candidate))
        if new and new[0] != "skip" and (d := law.check(new)) and lines(new) <= lines(case):
            tapes, case, detail = candidate, new, d
            return True
        return False

    def delete_spans(t: int, i: int = -1) -> None:
        # With i >= 0, each deletion also takes one off value i.
        for size in range(8, 0, -1):
            j = len(tapes[t]) - size
            while j > i and (i < 0 or tapes[t][i]):
                tape = tapes[t] if i < 0 else put(t, i, tapes[t][i] - 1)
                keep(t, tape[:j] + tape[j + size :])
                j = min(j - 1, len(tapes[t]) - size)

    def lower(t: int, i: int) -> None:
        x, lo = tapes[t][i], 0
        if x and not keep(t, put(t, i, 0)) and keep(t, put(t, i, x - 1)):
            while tapes[t][i] - lo > 1:
                mid = (lo + tapes[t][i]) // 2
                lo = lo if keep(t, put(t, i, mid)) else mid

    while budget > 0:
        before = tapes
        for t in range(len(tapes)):
            delete_spans(t)
            for i in range(len(tapes[t])):
                lower(t, i)
        for t in range(len(tapes) if tapes == before else 0):
            for i in range(len(tapes[t])):
                delete_spans(t, i)
        if tapes == before:
            break
    return tapes, case, detail


def _random_phase(law: Law, cfg: SuiteConfig) -> tuple:
    """The law's random draws: (draws, skips, violations)."""
    n_random = n_skipped = 0
    rng = law_stream(cfg.seed, law.name)
    for _ in range(cfg.cases_for(law)):
        n_random += 1
        case = law.sample(rng)
        if case[0] == "skip":
            n_skipped += 1
            continue
        if law.check(case):
            _, case, detail = _shrink(law, cfg.seed, n_random)
            return n_random, n_skipped, [_violation(detail, case)]
    return n_random, n_skipped, []


def _violation(detail: str, case) -> Violation:
    rendered = render_case(case)
    return Violation(detail, rendered["scenario"], rendered["assignment"])


def run_group(laws: list, cfg: SuiteConfig) -> list:
    """Run laws that share one exhaustive domain (the same
    ``law.exhaustive``): the domain is enumerated once, up to
    ``max_exhaustive`` cases, and each case object goes to every law that
    has not failed yet, in order.  A law stops at its first violation and
    its siblings go on.  Then each law that passed runs its own random
    phase.  A law's ``seconds`` is its random phase plus an equal share
    of the enumeration."""
    t0 = time.perf_counter()
    active = list(enumerate(law.check for law in laws))
    failed_at: list = [None] * len(laws)  # the case a law failed at
    violations: list = [[] for _ in laws]
    n = 0
    for case in islice(laws[0].exhaustive(), cfg.max_exhaustive):
        n += 1
        if case[0] == "skip":
            continue
        for i, check in active:
            detail = check(case)
            if detail:
                failed_at[i], violations[i] = n, [_violation(detail, case)]
                active = [a for a in active if a[0] != i]
        if not active:
            break
    share = (time.perf_counter() - t0) / len(laws)
    results = []
    for law, n_exhaustive, found in zip(laws, failed_at, violations):
        t0 = time.perf_counter()
        n_random = n_skipped = 0
        if not found:
            n_random, n_skipped, found = _random_phase(law, cfg)
        results.append(
            LawResult(
                name=law.name,
                module=law.module,
                groups=law.groups,
                about=law.about,
                cases_exhaustive=n if n_exhaustive is None else n_exhaustive,
                cases_random=n_random,
                cases_skipped=n_skipped,
                violations=found,
                seconds=share + time.perf_counter() - t0,
                seconds_exhaustive=share,
            )
        )
    return results


def run_law(law: Law, cfg: SuiteConfig) -> LawResult:
    return run_group([law], cfg)[0]


def domain_groups(laws: dict) -> list:
    """The names of ``laws`` grouped by exhaustive domain (the same
    ``law.exhaustive`` function), each group in registry order."""
    groups: dict = {}
    for name, law in laws.items():
        groups.setdefault(law.exhaustive, []).append(name)
    return list(groups.values())


def _run_names(args) -> list:
    names, cfg = args
    return run_group([registry.law(name) for name in names], cfg)


@dataclass
class SuiteResult:
    config: SuiteConfig
    results: list
    seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_names(self) -> list[str]:
        return [r.name for r in self.results if not r.passed]

    def by_name(self) -> dict[str, LawResult]:
        return {r.name: r for r in self.results}


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> SuiteResult:
    """Evaluate every registered law, one task per exhaustive domain
    (``domain_groups``).  Results come back in registry order regardless
    of scheduling, and each law's cases depend only on the seed and the
    law, so each result is independent of every other law.  The pool has
    no more processes than tasks: it starts all of them at the first
    task."""
    tasks = [(names, cfg) for names in domain_groups(registry.LAWS)]
    t0 = time.perf_counter()
    if cfg.jobs > 1:
        # Imported only here, so a one-process run loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
            done = list(pool.map(_run_names, tasks))
    else:
        done = list(map(_run_names, tasks))
    by_name = {r.name: r for results in done for r in results}
    results = [by_name[name] for name in registry.LAWS]
    return SuiteResult(config=cfg, results=results, seconds=time.perf_counter() - t0)


# --- reports -------------------------------------------------------------------


def text_report(suite: SuiteResult) -> str:
    lines = []
    results = suite.by_name()
    for entry in registry.catalogue():
        if entry.status != registry.IMPLEMENTED:
            note = f" <- {', '.join(entry.subsumed_by)}" if entry.subsumed_by else ""
            lines.append(f"....  {entry.name}  [{entry.module}]  {entry.status}{note}")
            continue
        r = results[entry.name]
        mark = "ok  " if r.passed else "FAIL"
        groups = f" {{{','.join(r.groups)}}}" if r.groups else ""
        lines.append(
            f"{mark}  {r.name}  [{r.module}]{groups}  "
            f"exhaustive={r.cases_exhaustive} random={r.cases_random} "
            f"skipped={r.cases_skipped}  ({r.seconds:.2f}s)"
        )
        for v in r.violations:
            lines.append(f"      violation: {v.detail}")
            for text, label in ((v.scenario, "scenario"), (v.assignment, "assignment")):
                if text:
                    pad = "\n          ".join(text.splitlines())
                    lines.append(f"      {label}:\n          {pad}")
    n_impl = len(suite.results)
    exhaustive = sum(r.seconds_exhaustive for r in suite.results)
    random = sum(r.seconds for r in suite.results) - exhaustive
    lines.append(
        f"\n{n_impl} laws, {n_impl - len(suite.failed_names)} passed, "
        f"{len(suite.failed_names)} failed, {suite.seconds:.1f}s total, "
        f"exhaustive {exhaustive:.1f} s, random {random:.1f} s"
    )
    if suite.failed_names:
        lines.append("failed: " + ", ".join(suite.failed_names))
    for group, names in registry.group_coverage().items():
        lines.append(f"group {group}: {len(names)} laws")
    return "\n".join(lines) + "\n"


def jsonl_report(suite: SuiteResult) -> str:
    """One JSON record per line: a suite header, one record per catalogue
    entry (laws carry their results), and a summary.  No timings, so the
    bytes depend only on the seed and case counts."""
    cfg = suite.config
    records = [
        {
            "kind": "suite",
            "report_format": REPORT_FORMAT,
            "seed": cfg.seed,
            "random_cases": cfg.random_cases,
            "cases_state": cfg.cases_state,
            "cases_cells": cfg.cases_cells,
            "cases_relation": cfg.cases_relation,
            "laws": len(suite.results),
        }
    ]
    results = suite.by_name()
    for entry in registry.catalogue():
        if entry.status != registry.IMPLEMENTED:
            records.append(
                {
                    "kind": "lemma",
                    "name": entry.name,
                    "module": entry.module,
                    "status": entry.status,
                    "subsumed_by": list(entry.subsumed_by),
                }
            )
            continue
        r = results[entry.name]
        records.append(
            {
                "kind": "law",
                "name": r.name,
                "module": r.module,
                "status": registry.IMPLEMENTED,
                "groups": list(r.groups),
                "cases_exhaustive": r.cases_exhaustive,
                "cases_random": r.cases_random,
                "passed": r.passed,
                "counterexamples": [
                    {"detail": v.detail, "scenario": v.scenario, "assignment": v.assignment}
                    for v in r.violations
                ],
            }
        )
    records.append(
        {
            "kind": "summary",
            "passed": suite.passed,
            "failed": suite.failed_names,
            "groups": {g: list(v) for g, v in registry.group_coverage().items()},
        }
    )
    return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
