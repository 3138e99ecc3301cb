"""Law objects and shared case plumbing.

A *law* is an executable, universally quantified property with a name tag
taken verbatim from the classic lemma inventory for this memory model, so
suite reports can be diffed against that catalogue.  A law is one domain
description (``domains``) and a check: the description is read once to
enumerate the exhaustive phase and once to draw the random phase, so a
law's exhaustive scope is its description's scope.  A case is a
self-contained tuple (tag, payload...) that the law's checker can
evaluate from scratch, which is what makes shrinking and standalone
counterexample replay possible.

A draw that meets an empty choice gives ``("skip",)``.  Checks never see
such a case: ``runner.run_law`` drops skips in both phases before calling
``check``, and ``shrink_case`` never yields one.  Check functions return
``None`` when the case passes (including vacuously, when the case fails
the law's hypotheses) and a short human-readable detail string when it
exhibits a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .. import chunks, memstate
from . import generators
from .domains import Domain, bind, extend, pick, sampler, source
# perfbench rebinds run_ops and build_* here by name; see "cached rebuilds".
from .generators import (
    EmbPlan,
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    format_ops,
    project,
    run_ops,
    shrink_emb_plan,
    shrink_ops,
    shrink_plan_steps,
)

# Module tags, matching the catalogue's module names.
GEN_MEM = "Gen_Mem_Facts"
REF_GEN_MEM = "Ref_Gen_Mem_Facts"
CONCRETE_MEM = "Concrete_Mem"
REL_MEM = "Rel_Mem"
MEM_EXTENDS = "Mem_Extends"
MEM_LESSDEF = "Mem_Lessdef"
MEM_INJECT = "Mem_Inject"

# Axiom-group tags used for coverage accounting.
G_GOODVARS = "S5-S8"
G_VALIDITY = "S9-S13"
G_BOUNDS = "S14-S17"
G_ACCESS = "S18/D19-D22"
G_FRESH = "P30-P34"
G_DETERMINISM = "P35"

ALL_GROUPS = (G_GOODVARS, G_VALIDITY, G_BOUNDS, G_ACCESS, G_FRESH, G_DETERMINISM)


@dataclass(frozen=True)
class Law:
    name: str
    module: str
    about: str
    family: str  # "cells" | "state" | "relation"
    groups: tuple = ()
    exhaustive: Callable[[], Iterable] = lambda: ()
    sample: Callable = lambda rng: ("skip",)
    check: Callable = lambda case: None


LAWS: dict[str, Law] = {}


def deflaw(
    name: str,
    module: str,
    about: str,
    *,
    family: str,
    groups: tuple = (),
    domain: Domain,
    check: Callable,
) -> Law:
    """Register a law whose cases are ``domain``: the exhaustive phase
    enumerates it and the random phase draws from it."""
    if name in LAWS:
        raise ValueError(f"duplicate law {name}")
    law = Law(name, module, about, family, groups, domain.cases, sampler(domain), check)
    LAWS[name] = law
    return law


# --- cached rebuilds ---------------------------------------------------------
#
# Cases carry scenarios, not states, so that they stay replayable; these
# memos turn a scenario back into what it builds, once for every law and
# case that reads it while the memo holds it.  A ``RunResult`` also carries
# the tables that domains read off its state, built once per replay.
#
# perfbench/layers.py reads these six memos' ``cache_info()``, and rebinds
# ``run_ops`` and the ``build_*`` functions in this module, by name; CI's
# "Benchmark self-check" step fails without them.  Removing them (ROADMAP
# item 2) waits for the next change to perfbench (item 10).


@lru_cache(maxsize=32768)
def run_cached(ops: tuple):
    return run_ops(ops)


@lru_cache(maxsize=32768)
def state_of(ops: tuple):
    return run_cached(ops).state


@lru_cache(maxsize=8192)
def lessdef_pair_cached(plan: tuple):
    return build_lessdef_pair(plan)


@lru_cache(maxsize=8192)
def extends_pair_cached(plan: tuple):
    return build_extends_pair(plan)


@lru_cache(maxsize=16384)
def emb_scenario_cached(plan: EmbPlan):
    return build_emb_scenario(plan)


# The last store a check applied, for the cases of an enumeration that vary
# only after their store: ((ops, t, b, i, v), (state, state after)).
_LAST_STORE: list = [None, None]


def stored(ops, t, b, i, v):
    """The state of ``ops`` and the state after storing ``v`` at ``(t, b,
    i)`` in it (None when the store fails)."""
    args = (ops, t, b, i, v)
    if _LAST_STORE[0] != args:
        m = state_of(ops)
        _LAST_STORE[:] = args, (m, memstate.store(t, m, b, i, v))
    return _LAST_STORE[1]


@lru_cache(maxsize=4096)
def cells_of(recipe: tuple):
    """Content map built by a sequence of datum stores."""
    from .. import cells

    f: dict = {}
    for t, ofs, v in recipe:
        f = cells.store_contents(f, t, ofs, v)
    return f


# --- domains over states ---------------------------------------------------------

# The shared random scenarios; enumerated, the tiny universe.
SCENARIO_OPS = source(generators.shared_ops, generators.tiny_states_small)
STATE = SCENARIO_OPS.map(lambda ops: ("state", ops))


def on_state(tail) -> Domain:
    """Cases ("state", ops) + a tuple of ``tail(r)``, a domain over the
    replay r of the scenario (a ``generators.RunResult``)."""
    return extend(STATE, lambda case: tail(run_cached(case[1])))


def valid_access(r, scope=None) -> Domain:
    """A (chunk, block, offset) access valid in the state of the replay
    ``r``: a block with valid accesses, then one of them; enumerated, each
    block's lowest access of each size, or ``scope(accesses)``.  Empty
    where no block has a valid access."""
    table = r.accesses

    def of_block(b):
        menu = (lambda: r.lowest[b]) if scope is None else (lambda: scope(table[b]))
        return pick(table[b], menu).map(lambda ti: (ti[0], b, ti[1]))

    return bind(pick(tuple(table)), of_block)


def clear_caches() -> None:
    """Drop all memoized rebuilds.  Required around mutation runs, where
    the patched operations must not be shadowed by cached results."""
    run_cached.cache_clear()
    state_of.cache_clear()
    lessdef_pair_cached.cache_clear()
    extends_pair_cached.cache_clear()
    emb_scenario_cached.cache_clear()
    cells_of.cache_clear()
    generators.SCENARIOS.clear()
    _LAST_STORE[:] = None, None
    generators.tiny_states_small.cache_clear()


def _drop_each(recipe):
    for k in range(len(recipe) - 1, -1, -1):
        yield recipe[:k] + recipe[k + 1 :]


# case tag -> smaller candidates for the case's scenario (its second field)
_SHRINKERS = {
    "state": shrink_ops,
    "cells": _drop_each,
    "lessdef": shrink_ops,
    "lessdef3": shrink_plan_steps,
    "extends": shrink_plan_steps,
    "extends3": shrink_plan_steps,
    "emb": shrink_emb_plan,
}


def shrink_case(case) -> Iterator:
    """Generic smaller-case candidates, dispatched on the case tag: the
    scenario shrinks, the quantifier assignment stays."""
    shrink = _SHRINKERS.get(case[0])
    if shrink is not None:
        for smaller in shrink(case[1]):
            yield (case[0], smaller) + case[2:]


def widen_plan(plan, widenings):
    """An extends plan whose k-th alloc is widened further on the right
    by ``widenings[k % len(widenings)]``: the third state of an extension
    chain."""
    out = []
    k = 0
    for st in plan:
        if st[0] == "alloc":
            dl2, dh2 = widenings[k % len(widenings)] if widenings else (0, 0)
            out.append(("alloc", st[1], st[2], st[3] + dl2, st[4] + dh2))
            k += 1
        else:
            out.append(st)
    return tuple(out)


def _sides(*named) -> str:
    """One trace per side, each under a ``# name`` header."""
    return "\n".join(f"# {name}\n{format_ops(ops)}" for name, ops in named)


def render_case(case) -> dict:
    """Violation payload: a replayable scenario, one trace per state the
    case builds, plus the quantifier assignment that failed."""
    tag = case[0]
    # Fields after the tag that the scenario covers; the rest is the assignment.
    covered = 2 if tag in ("state2", "extends3") else 1
    assignment = repr(case[1 + covered :]) if len(case) > 1 + covered else ""
    if tag == "state":
        scenario = format_ops(case[1])
    elif tag == "state2":
        scenario = _sides(("first", case[1]), ("second", case[2]))
    elif tag == "cells":
        recipe = case[1]
        scenario = "\n".join(
            f"store-contents {t.token} {ofs} {chunks.value_text(v)}" for t, ofs, v in recipe
        )
    elif tag in ("lessdef", "extends"):
        build = lessdef_pair_cached if tag == "lessdef" else extends_pair_cached
        _, _, ops1, ops2 = build(case[1])
        scenario = _sides(("left", ops1), ("right", ops2))
    elif tag == "lessdef3":
        scenario = _sides(*zip(("left", "middle", "right"), project(case[1], 3)))
    elif tag == "extends3":
        ops1, ops2 = project(case[1])
        scenario = _sides(
            ("left", ops1), ("middle", ops2), ("right", project(widen_plan(case[1], case[2]))[1])
        )
    elif tag == "emb":
        sc = emb_scenario_cached(case[1])
        emb_lines = "\n".join(f"{b} -> {tb} + {d}" for b, (tb, d) in sorted(sc.emb.items()))
        scenario = _sides(("left", sc.ops1), ("right", sc.ops2)) + "\n[emb]\n" + emb_lines
    else:
        scenario = repr(case)
    return {"scenario": scenario, "assignment": assignment}
