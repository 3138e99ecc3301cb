"""Registry integrity, runner determinism, shrinking soundness."""

import hashlib
import importlib
import json
import pkgutil
from dataclasses import replace
from itertools import islice

from blockmem import lawcheck
from blockmem.lawcheck import generators, laws_base, mutations, registry, runner
from blockmem.lawcheck.laws_base import ALL_GROUPS, CONCRETE_MEM, LAWS, Law, render_case
from blockmem.lawcheck.rng import law_stream
from blockmem.lawcheck.runner import SuiteConfig, jsonl_report, run_law, run_suite, text_report
from blockmem.trace import exec_trace, parse_trace

SMALL = SuiteConfig(random_cases=40)


def test_registry_size_and_modules():
    assert len(LAWS) >= 40
    for law in LAWS.values():
        assert law.module in registry.MODULE_ORDER
        assert law.family in ("cells", "state", "relation")


def test_catalogue_statuses():
    cat = registry.catalogue()
    names = [e.name for e in cat]
    assert len(names) == len(set(names))
    for e in cat:
        if e.status == registry.IMPLEMENTED:
            assert e.name in LAWS
        elif e.status == registry.SUBSUMED:
            assert e.subsumed_by
            for target in e.subsumed_by:
                assert target in LAWS
        else:
            assert e.status == registry.OUT_OF_SCOPE


def test_axiom_groups_covered():
    cov = registry.group_coverage()
    for g in ALL_GROUPS:
        assert cov[g], f"group {g} has no law"


def test_small_suite_passes():
    suite = run_suite(SMALL)
    assert suite.passed, suite.failed_names
    assert len(suite.results) == len(LAWS)
    for r in suite.results:
        assert r.cases_exhaustive > 0


def test_reports_are_deterministic():
    cfg = SuiteConfig(random_cases=25, seed=7)
    a = jsonl_report(run_suite(cfg))
    b = jsonl_report(run_suite(cfg))
    assert a == b
    for line in a.splitlines():
        json.loads(line)


def test_parallel_run_matches_serial():
    serial = jsonl_report(run_suite(SuiteConfig(random_cases=15, seed=3, jobs=1)))
    parallel = jsonl_report(run_suite(SuiteConfig(random_cases=15, seed=3, jobs=2)))
    assert serial == parallel


def test_exhaustive_only_run():
    suite = run_suite(SuiteConfig(random_cases=0))
    assert suite.passed
    assert all(r.cases_random == 0 for r in suite.results)


def test_shrunk_counterexample_still_violates():
    """Break an operation, catch it, and replay the shrunk case."""
    law = registry.law("load_store_contents_overlap")
    with mutations.applied("continuation-clear-skipped"):
        rng = law_stream(0, law.name)
        failing = None
        for _ in range(500):
            case = law.sample(rng)
            if case[0] != "skip" and law.check(case):
                failing = case
                break
        assert failing is not None, "mutation was not caught by sampling"
        from blockmem.lawcheck.runner import _shrink

        detail = law.check(failing)
        shrunk, detail2 = _shrink(law, failing, detail)
        assert law.check(shrunk), "shrunk case no longer violates the law"
        assert len(shrunk[1]) <= len(failing[1])
    assert law.check(shrunk) is None, "mutation leaked out of its context"


def test_violation_reports_carry_scenarios():
    law = registry.law("valid_block_free_")
    with mutations.applied("free-validity-unchecked"):
        result = run_law(law, SuiteConfig(random_cases=300))
    assert not result.passed
    v = result.violations[0]
    assert v.detail
    assert "alloc" in v.scenario or v.scenario == ""


_SIDES = ("left", "middle", "right", "first", "second")


def _rendered_sides(scenario: str) -> dict:
    """The traces of a rendered scenario by their ``# name`` headers."""
    sides: dict = {}
    for line in scenario.splitlines():
        if line[2:] in _SIDES and line.startswith("# "):
            sides[line[2:]] = []
        else:
            sides[next(reversed(sides))].append(line)
    return {name: "\n".join(lines) for name, lines in sides.items()}


def test_chain_cases_render_as_replayable_traces():
    """A case of a transitivity law renders one trace per state of its
    chain, and each trace parses and runs to its end."""
    for name in ("mem_lessdef_trans", "mem_extends_trans"):
        for case in registry.law(name).exhaustive():
            sides = _rendered_sides(render_case(case)["scenario"])
            assert list(sides) == ["left", "middle", "right"]
            for text in sides.values():
                report = exec_trace(parse_trace(text))
                assert report.ok, (name, case, text)
    same_domain = registry.law("free_same_domain")
    case = next(iter(same_domain.exhaustive()))
    rendered = render_case(case)
    assert list(_rendered_sides(rendered["scenario"])) == ["first", "second"]
    assert rendered["assignment"] == repr(case[3:])


def test_pool_has_no_more_processes_than_tasks(monkeypatch):
    """A stand-in pool records its size and maps serially, so no process
    is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    cfg = SuiteConfig(random_cases=0, max_exhaustive=1)
    tasks = -(-len(LAWS) // runner._CHUNK)
    for jobs, want in ((2, 2), (tasks, tasks), (tasks + 1, tasks), (10_000, tasks)):
        suite = run_suite(replace(cfg, jobs=jobs))
        assert sizes[-1] == want
        assert [r.name for r in suite.results] == list(LAWS)


def test_cases_skipped_counts_the_skip_draws():
    # About three in four draws of this law skip (no unmapped store target).
    law = registry.law("store_unmapped_inject")
    laws_base.clear_caches()
    result = run_law(law, SuiteConfig(random_cases=200, seed=5))
    rng = law_stream(5, law.name)
    skips = sum(law.sample(rng)[0] == "skip" for _ in range(200))
    assert result.passed and result.cases_random == 200
    assert result.cases_skipped == skips
    assert 100 <= skips < 200
    # The text report shows the count; the JSON-lines report does not.
    suite = run_suite(SuiteConfig(random_cases=0, max_exhaustive=1))
    suite.results = [result if r.name == law.name else r for r in suite.results]
    line = next(ln for ln in text_report(suite).splitlines() if f" {law.name} " in ln)
    assert f"random=200 skipped={skips} " in line
    assert "skipped" not in jsonl_report(suite)


def test_random_phase_violation_does_not_depend_on_the_schedule():
    """One law's counterexample is the same alone, after other laws of its
    scenario domain, and inside the suite at one and at two processes."""
    law = registry.law("valid_pointer_dec")
    siblings = ("valid_block_dec", "aligned_dec")  # the same "ops" domain
    cfg = SuiteConfig(random_cases=300, max_exhaustive=50, seed=0)
    with mutations.applied("alignment-check-dropped"):
        laws_base.clear_caches()
        alone = run_law(law, cfg)
        # Caught by a random draw, not by the exhaustive phase.
        assert alone.violations and alone.cases_random > 0
        laws_base.clear_caches()
        for name in siblings:
            run_law(registry.law(name), cfg)
        assert len(generators.SCENARIOS[(0, "ops")][1]) == 300
        after = run_law(law, cfg)
        serial = run_suite(replace(cfg, jobs=1)).by_name()[law.name]
        parallel = run_suite(replace(cfg, jobs=2)).by_name()[law.name]
    for other in (after, serial, parallel):
        assert other.violations == alone.violations
        assert (other.cases_random, other.cases_skipped) == (alone.cases_random, alone.cases_skipped)


def test_clear_caches_empties_every_lawcheck_cache():
    """The mutation harness clears the caches around a mutated run, so that
    no state built by the healthy model survives into it."""
    modules = [
        importlib.import_module(f"{lawcheck.__name__}.{info.name}")
        for info in pkgutil.iter_modules(lawcheck.__path__)
    ]
    caches = {
        f"{module.__name__}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    run_suite(SuiteConfig(random_cases=5, max_exhaustive=300))
    assert all(cache.cache_info().currsize for cache in caches.values())
    assert generators.SCENARIOS and laws_base._LAST_STORE != [None, None]
    laws_base.clear_caches()
    kept = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert {name: size for name, size in kept.items() if size} == {}
    assert not generators.SCENARIOS
    assert laws_base._LAST_STORE == [None, None]


def test_checks_never_see_a_skip():
    """run_law drops ("skip",) cases in both phases before calling check."""

    def sample(rng):
        return ("skip",) if rng.chance(1, 2) else ("arith", rng.below(10))

    def check(case):
        if case[0] == "skip":
            raise AssertionError("check was called on a skip case")
        return None

    law = Law(
        "stub",
        CONCRETE_MEM,
        "a law whose phases both produce skips",
        "cells",
        exhaustive=lambda: [("skip",), ("arith", 1), ("skip",)],
        sample=sample,
        check=check,
    )
    result = run_law(law, SuiteConfig(random_cases=60, seed=3))
    rng = law_stream(3, "stub")
    skips = sum(sample(rng)[0] == "skip" for _ in range(60))
    assert result.passed and result.cases_random == 60
    assert result.cases_skipped == skips
    assert 0 < skips < 60


def _streams_sha256(cases) -> str:
    """sha256 over the lines f"{name} {digest}\\n", one per law in registry
    order, where digest is the sha256 of repr(case) over ``cases(law)``."""
    lines = []
    for name, law in registry.LAWS.items():
        h = hashlib.sha256()
        for case in cases(law):
            h.update(repr(case).encode())
        lines.append(f"{name} {h.hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# The report hash in test_acceptance records only counts and verdicts; these
# pin the cases themselves, one constant per phase, so that a change to one
# phase's case generation re-pins that phase's constant alone (together with
# LAW_REPORT_SHA256 when the case counts move).
# Each law's first 5,000 exhaustive cases:
EXHAUSTIVE_STREAMS_SHA256 = "809afa7ee3d722a9a4d122ea5b28e69899fb532c706e5ed5112226184553e12e"
# Each law's first 400 draws of law.sample(law_stream(42, name)):
RANDOM_STREAMS_SHA256 = "55974b4e7eb55c82a29d12a4b69fefc31256572b577456977b7745f4c832c093"


def test_case_streams_are_pinned():
    def draws(law):
        rng = law_stream(42, law.name)
        return (law.sample(rng) for _ in range(400))

    exhaustive = _streams_sha256(lambda law: islice(law.exhaustive(), 5000))
    random = _streams_sha256(draws)
    assert (exhaustive, random) == (EXHAUSTIVE_STREAMS_SHA256, RANDOM_STREAMS_SHA256)
