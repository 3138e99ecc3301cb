"""Suite runner: evaluates every law and emits the reports.

Each law runs two phases over its domain (``domains``): a sweep of the
domain's exhaustive scope, then seeded random draws.  A random case is a scenario, taken from
the stream its domain shares with every other law of the domain (draw k
of the law takes scenario k), and an assignment drawn from the law's own
stream (see ``rng``).  Both depend only on the seed, the law and the draw
number, so a law's result does not depend on which laws run, in which
order, or in how many processes.  A failing case is shrunk greedily
before being reported, and the shrunk case still violates the law when
replayed on its own (the shrinker only ever keeps candidates that fail
the same check).

Reports come in two forms: human-readable text with timings, and a
machine-readable JSON-lines file with one record per catalogue entry.
The file deliberately contains no timing, so two runs with the same seed
and case counts are byte-identical.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from . import registry
from .laws_base import ALL_GROUPS, Law, render_case, shrink_case
from .rng import law_stream

_SHRINK_ROUNDS = 200
# The way cases are generated, recorded in the report's header: bumped by
# every change that moves any law's exhaustive cases or random draws.
REPORT_FORMAT = 2
# Laws per worker task when the suite runs in several processes.
_CHUNK = 4


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
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def _shrink(law: Law, case, detail: str):
    for _ in range(_SHRINK_ROUNDS):
        for candidate in shrink_case(case):
            d = law.check(candidate)
            if d:
                case, detail = candidate, d
                break
        else:
            break
    return case, detail


def run_law(law: Law, cfg: SuiteConfig) -> LawResult:
    t0 = time.perf_counter()
    violations = []
    n_exhaustive = 0
    for case in islice(law.exhaustive(), cfg.max_exhaustive):
        n_exhaustive += 1
        if case[0] == "skip":
            continue
        detail = law.check(case)
        if detail:
            rendered = render_case(case)
            violations.append(Violation(detail, rendered["scenario"], rendered["assignment"]))
            break
    n_random = n_skipped = 0
    if not violations:
        rng = law_stream(cfg.seed, law.name)
        for _ in range(cfg.cases_for(law)):
            n_random += 1
            case = law.sample(rng)
            if case[0] == "skip":
                n_skipped += 1
                continue
            detail = law.check(case)
            if detail:
                case, detail = _shrink(law, case, detail)
                rendered = render_case(case)
                violations.append(
                    Violation(detail, rendered["scenario"], rendered["assignment"])
                )
                break
    return LawResult(
        name=law.name,
        module=law.module,
        groups=law.groups,
        about=law.about,
        cases_exhaustive=n_exhaustive,
        cases_random=n_random,
        cases_skipped=n_skipped,
        violations=violations,
        seconds=time.perf_counter() - t0,
    )


def _run_by_name(args) -> LawResult:
    name, cfg = args
    return run_law(registry.law(name), cfg)


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
    """Evaluate every registered law.  Results come back in registry
    order regardless of scheduling, and each law's cases depend only on
    the seed and the law, so each result is independent of every other
    law.  The pool has no more processes than tasks: it starts all of
    them at the first task."""
    names = list(registry.LAWS)
    t0 = time.perf_counter()
    if cfg.jobs > 1:
        tasks = -(-len(names) // _CHUNK)
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, tasks)) as pool:
            results = list(pool.map(_run_by_name, [(n, cfg) for n in names], chunksize=_CHUNK))
    else:
        results = [run_law(registry.LAWS[n], cfg) for n in names]
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
    lines.append(
        f"\n{n_impl} laws, {n_impl - len(suite.failed_names)} passed, "
        f"{len(suite.failed_names)} failed, {suite.seconds:.1f}s total"
    )
    if suite.failed_names:
        lines.append("failed: " + ", ".join(suite.failed_names))
    for group in ALL_GROUPS:
        names = registry.group_coverage()[group]
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
