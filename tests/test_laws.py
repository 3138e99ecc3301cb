"""Registry integrity, runner determinism, shrinking soundness."""

import concurrent.futures
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from blockmem import lawcheck, memstate, relations
from blockmem.lawcheck import generators, laws_base, mutations, registry, runner
from blockmem.lawcheck.domains import Domain, Given, Skip, ints, lists, sampler, tuples
from blockmem.lawcheck.laws_base import ALL_GROUPS, CONCRETE_MEM, LAWS, Law, render_case
from blockmem.lawcheck.rng import SCENARIOS, law_stream
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


def _statements(scenario: str) -> list:
    """The statements of a rendered scenario: its lines but the ``# side``
    headers and the ``[emb]`` header."""
    return [ln for ln in scenario.splitlines() if not ln.startswith("# ") and ln != "[emb]"]


# Random-phase catches at max_exhaustive=0 and seed 42, with the number of
# statements their counterexample had when each case shape had its own
# shrinker.
SHRUNK_CATCHES = (
    ("sign-extension-zeroed", "load_store_same_", 2),
    ("alignment-check-dropped", "valid_pointer_dec", 3),
    ("freed-id-reused", "alloc_left_unmapped_emb", 10),
)


@pytest.mark.parametrize("mutation, name, statements", SHRUNK_CATCHES)
def test_shrunk_counterexample_is_a_failing_draw(mutation, name, statements):
    """The shrunk case is what law.sample reads from its own tapes, so it
    is a draw of the law's domain; the check still fails on it, and it is
    no larger than what the shape shrinkers gave."""
    law = registry.law(name)
    with mutations.applied(mutation):
        result = run_law(law, SuiteConfig(max_exhaustive=0, seed=42))
        assert result.violations and result.cases_random > 0
        tapes, case, detail = runner._shrink(law, 42, result.cases_random)
        assert law.sample(runner._Replay(tapes)) == case
        assert law.check(case) == detail == result.violations[0].detail
    scenario = render_case(case)["scenario"]
    assert scenario == result.violations[0].scenario
    assert 0 < len(_statements(scenario)) <= statements
    assert law.check(case) is None, "mutation leaked out of its context"


def test_shrinker_knows_no_case_tag():
    """A case shape that no shrinker knows shrinks to the minimal failing
    case: a list of one item, just over the bound."""
    domain = tuples("arith", lists(ints(0, 6), ints(0, 100)))
    law = Law(
        "stub",
        CONCRETE_MEM,
        "a sum of at most 50",
        "cells",
        sample=sampler(domain),
        check=lambda case: f"sum {sum(case[1])}" if sum(case[1]) > 50 else None,
    )
    result = run_law(law, SuiteConfig(random_cases=100, seed=3))
    assert result.violations[0].scenario == repr(("arith", (51,)))


def test_an_empty_tape_overruns_rather_than_loops():
    """On zeros, sample_emb_plan(need_mapped=True) never draws a mapped
    source and retries forever.  A replay stops it once it has read a
    thousand zeros, and the law's draw reads that as a skip."""
    with pytest.raises(Skip):
        generators.sample_emb_plan(runner._Replay([]), need_mapped=True)
    law = registry.law("store_mapped_inject")
    assert law.sample(runner._Replay([])) == ("skip",)


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
    """A case of a pair or transitivity law renders one trace per state of
    its pair or chain, and each trace parses and runs to its end."""
    chain, pair = ["left", "middle", "right"], ["left", "right"]
    for name, names in (
        ("mem_lessdef_trans", chain),
        ("mem_extends_trans", chain),
        ("load_lessdef", pair),
        ("load_extends", pair),
    ):
        for case in registry.law(name).exhaustive():
            sides = _rendered_sides(render_case(case)["scenario"])
            assert list(sides) == names
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

    # The runner imports the pool from its module when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SuiteConfig(random_cases=0, max_exhaustive=1)
    tasks = len(runner.domain_groups(LAWS))
    for jobs, want in ((2, 2), (tasks, tasks), (tasks + 1, tasks), (10_000, tasks)):
        suite = run_suite(replace(cfg, jobs=jobs))
        assert sizes[-1] == want
        assert [r.name for r in suite.results] == list(LAWS)


def _outcome(result) -> tuple:
    return (
        result.cases_exhaustive,
        result.cases_random,
        result.cases_skipped,
        result.violations,
    )


def test_suite_gives_each_law_its_result_alone():
    """A law checked beside the other laws of its exhaustive domain, each
    case going to every law of the group in turn, gives the result it
    gives alone."""
    cfg = SuiteConfig(random_cases=30, max_exhaustive=800, seed=11)
    laws_base.clear_caches()
    suite = run_suite(cfg).by_name()
    assert len(suite) == len(LAWS)
    for name, law in LAWS.items():
        assert _outcome(suite[name]) == _outcome(run_law(law, cfg)), name


@pytest.mark.parametrize("mutation", sorted(mutations.MUTATIONS))
def test_groups_under_a_mutation_give_each_law_its_result_alone(mutation):
    """Under each seeded bug, the groups that hold its catching laws give
    every law, failing or passing, the result it gives alone."""
    cfg = SuiteConfig(random_cases=20, seed=5)
    caught_by = mutations.MUTATIONS[mutation].caught_by
    groups = [g for g in runner.domain_groups(LAWS) if set(g) & set(caught_by)]
    with mutations.applied(mutation):
        results = [r for g in groups for r in runner.run_group([LAWS[n] for n in g], cfg)]
        alone = [run_law(LAWS[r.name], cfg) for r in results]
    assert [_outcome(r) for r in results] == [_outcome(r) for r in alone]
    assert any(r.violations for r in results if r.name in caught_by)


def test_a_law_failing_its_enumeration_leaves_its_siblings_going():
    """Under a dropped alignment check, aligned_dec fails in the exhaustive
    phase of its domain; the rest of the group sees every case and runs
    its random phase."""
    cfg = SuiteConfig(random_cases=10, max_exhaustive=2000, seed=5)
    (group,) = [g for g in runner.domain_groups(LAWS) if "aligned_dec" in g]
    aligned = LAWS["aligned_dec"]
    with mutations.applied("alignment-check-dropped"):
        results = {r.name: r for r in runner.run_group([LAWS[n] for n in group], cfg)}
        cases = enumerate(islice(aligned.exhaustive(), 2000), 1)
        first = next(k for k, c in cases if c[0] != "skip" and aligned.check(c))
    failed = results.pop("aligned_dec")
    assert failed.violations and failed.cases_random == 0
    assert failed.cases_exhaustive == first
    siblings = [r for r in results.values() if r.passed]
    assert siblings
    for r in siblings:
        assert r.cases_exhaustive == 2000 > failed.cases_exhaustive
        assert r.cases_random == 10


def test_suite_enumerates_each_domain_once(monkeypatch):
    """run_suite calls each distinct ``law.exhaustive`` once, however many
    laws share it."""
    calls: dict = {}

    def counting(exhaustive):
        def cases():
            calls[exhaustive] = calls.get(exhaustive, 0) + 1
            return exhaustive()

        return cases

    wrappers: dict = {}
    for name, law in LAWS.items():
        wrapper = wrappers.setdefault(law.exhaustive, counting(law.exhaustive))
        monkeypatch.setitem(LAWS, name, replace(law, exhaustive=wrapper))
    run_suite(SuiteConfig(random_cases=0, max_exhaustive=50))
    assert len(calls) == len(runner.domain_groups(LAWS)) == len(wrappers)
    assert set(calls.values()) == {1}


def test_a_store_group_stores_once_per_case(monkeypatch):
    """The six laws of the store domain apply each case's store once."""
    (group,) = [g for g in runner.domain_groups(LAWS) if "store_inversion" in g]
    assert len(group) == 6
    laws = [LAWS[n] for n in group]
    cases = [c for c in islice(laws[0].exhaustive(), 3000) if c[0] != "skip"]
    laws_base.clear_caches()
    for ops in generators.tiny_states_small():  # build every state before counting
        laws_base.state_of(ops)
    stores = [0]
    store = memstate.store

    def counting(*args):
        stores[0] += 1
        return store(*args)

    monkeypatch.setattr(memstate, "store", counting)
    runner.run_group(laws, SuiteConfig(random_cases=0, max_exhaustive=3000))
    assert stores[0] == len(cases) > 0


def test_a_mutation_reaches_a_case_already_checked():
    """A case object checked on the healthy model and then again, after
    ``clear_caches``, under a mutation of its operation sees the mutated
    model: the prologue's last result is dropped with the other caches."""
    law = LAWS["alloc_fresh_block_"]
    with mutations.applied("freed-id-reused"):
        case = next(c for c in law.exhaustive() if c[0] != "skip" and law.check(c))
    assert law.check(case) is None
    assert laws_base.LAST_PROLOGUE[0] is case
    laws_base.clear_caches()
    with mutations.applied("freed-id-reused"):
        assert law.check(case) == "alloc returned a block that was not fresh"
    assert law.check(case) is None


def test_runner_import_leaves_worker_pool_unloaded():
    # A one-process run never starts a pool, so it does not import one.
    src = str(Path(lawcheck.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, blockmem.lawcheck.runner; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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
        assert len(SCENARIOS[(0, "ops")][1]) == 300
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
    assert SCENARIOS and laws_base._LAST_STORE != [None, None]
    assert laws_base.LAST_PROLOGUE != [None, None, None]
    laws_base.clear_caches()
    kept = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert {name: size for name, size in kept.items() if size} == {}
    assert not SCENARIOS
    assert laws_base._LAST_STORE == [None, None]
    assert laws_base.LAST_PROLOGUE == [None, None, None]


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


def test_relation_hypotheses_are_decided_by_the_gates(monkeypatch):
    """With the relation checkers rebound to reject every pair, each law
    whose scenario is built to satisfy its hypothesis reports the
    constructor, mem_lessdef_refl (whose property is the relation itself)
    fails, and every other relation law passes vacuously."""
    built = (
        "store_lessdef",
        "alloc_parallel_emb",
        "alloc_left_mapped_emb",
        "alloc_left_mapped_inject",
        "alloc_list_alloc_inject",
    )
    with monkeypatch.context() as patch:
        for name in ("mem_lessdef", "mem_emb", "mem_inject"):
            patch.setattr(relations, name, lambda *args: False)
        laws_base.clear_caches()
        for law in LAWS.values():
            if law.family != "relation":
                continue
            rng = law_stream(42, law.name)
            draws = (law.sample(rng) for _ in range(40))
            cases = list(islice(law.exhaustive(), 300)) + [c for c in draws if c[0] != "skip"]
            details = [law.check(case) for case in cases]
            if law.name in built:
                first = next(k for k, c in enumerate(cases) if c[0] != "emb" or not c[1].overlap)
                hypothesis = r"constructed (pair|scenario) fails the \w+ hypothesis"
                assert re.fullmatch(hypothesis, details[first] or ""), (law.name, details[first])
            elif law.name == "mem_lessdef_refl":
                assert details[0] == "refinement is not reflexive on this state"
            else:
                assert details == [None] * len(cases), law.name
    laws_base.clear_caches()


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


# Laws whose draws still build domain objects, with the most that 200 draws
# may build; none is left.
DRAW_BUILDS_CEILING: dict = {}


def test_draws_build_no_domain_objects(monkeypatch):
    """A random draw reads its law's prebuilt description and the replay
    tables; it builds no domain object (a ``Domain`` or a ``Given``).
    Counted over 200 draws of each law at seed 42, after one warm-up
    draw."""
    built = [0]
    for cls in (Domain, Given):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    counts = {}
    for name, law in LAWS.items():
        rng = law_stream(42, name)
        law.sample(rng)
        built[0] = 0
        for _ in range(200):
            law.sample(rng)
        counts[name] = built[0]
    over = {n: c for n, c in counts.items() if c > DRAW_BUILDS_CEILING.get(n, 0)}
    assert over == {}


def test_recorded_draws_replay_from_their_tapes():
    """For the first 50 draws of every law, the case recorded from the law's
    stream is the law's own draw, and a replay of its tapes draws it again.
    So a draw reads only its stream and asks it for each scenario
    (``rng.scenario``), which is what the tape shrinker relies on."""
    laws_base.clear_caches()
    for name, law in LAWS.items():
        rng = law_stream(42, name)
        for _ in range(50):
            recorder = runner._Recorder(rng.state, rng.seed, rng.scenarios)
            case = law.sample(recorder)
            assert law.sample(rng) == case, name
            assert (recorder.state, recorder.scenarios) == (rng.state, rng.scenarios), name
            assert law.sample(runner._Replay(recorder.tapes)) == case, name
