"""Law objects and shared case plumbing.

A *law* is an executable, universally quantified property with a name tag
taken verbatim from the classic lemma inventory for this memory model, so
suite reports can be diffed against that catalogue.  A law is one domain
description (``domains``) and a check: the description is read once to
enumerate the exhaustive phase and once to draw the random phase, so a
law's exhaustive scope is its description's scope.  The part of a case
that depends on its scenario is stated as a direct draw on the scenario's
replay beside its scope (``on_state``), so a draw builds no domain.  A
case is a self-contained tuple (tag, payload...) that the law's checker
can evaluate from scratch, which makes counterexamples replayable; a
failing random case shrinks through the random numbers its draw read
(``runner``).

A draw that meets an empty choice gives ``("skip",)``.  Checks never see
such a case: ``runner.run_group`` drops skips in both phases before
calling ``check``, and the shrinker drops the skips it reads.  Check
functions return ``None`` when the case passes (including vacuously, when
the case fails the law's hypotheses) and a short human-readable detail
string when it exhibits a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .. import chunks, memstate
from ..trace import entry_text
from . import generators
from .domains import Domain, choose, extend, given, sampler, source
# perfbench rebinds run_ops and build_* here by name; see "cached rebuilds".
from .generators import (
    EmbPlan,
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    format_ops,
    project,
    run_ops,
)
from .rng import SCENARIOS

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
# case that reads it while the memo holds it.  Each side is a ``RunResult``,
# which carries its ops and the tables that domains read off its state,
# built once per replay.
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


# The last operation prologue a state law applied (``laws_state._after``):
# [case, prologue, result].  The laws of one exhaustive domain check each
# case object in turn (``runner.run_group``), so they apply its operation
# once.  The entry holds its case, so no other case can take its identity.
LAST_PROLOGUE: list = [None, None, None]


@lru_cache(maxsize=4096)
def cells_of(recipe: tuple):
    """Content map built by a sequence of datum stores."""
    from .. import cells

    f: dict = {}
    for t, ofs, v in recipe:
        f = cells.store_contents(f, t, ofs, v)
    return f


# --- domains over states ---------------------------------------------------------
#
# A state law's case is a shared scenario and a tail on its replay r (a
# ``generators.RunResult``).  A tail is stated as two functions of r: a
# direct draw, which reads r's tables and calls the stream in the order a
# domain built on r would, raising ``Skip`` where that domain would meet an
# empty choice, and its scope, the tuples the exhaustive phase takes.

# The shared random scenarios; enumerated, the tiny universe.
SCENARIO_OPS = source(generators.shared_ops, generators.tiny_states_small)
STATE = SCENARIO_OPS.map(lambda ops: ("state", ops))


def on_scenario(head: Domain, build, draw, scope) -> Domain:
    """Cases (tag, scenario) of ``head``, each followed by ``draw(rng, x)``,
    a tuple drawn on what the scenario builds, ``x = build(scenario)``;
    enumerated, by each tuple of ``scope(x)``."""
    return extend(
        head,
        given(lambda rng, case: draw(rng, build(case[1])), lambda case: scope(build(case[1]))),
    )


def on_state(draw, scope) -> Domain:
    """Cases ("state", ops) + ``draw(rng, r)``, a tuple drawn on the replay
    r of the scenario; enumerated, ("state", ops) + each tuple of
    ``scope(r)``."""
    return on_scenario(STATE, run_cached, draw, scope)


def valid_access(rng, r) -> tuple:
    """A (chunk, block, offset) access valid in the state of the replay
    ``r``: a block with valid accesses, then one of them.  Skip where no
    block has a valid access."""
    table = r.accesses
    b = choose(rng, tuple(table))
    accesses = table[b]
    t, i = accesses[rng.next_u64() % len(accesses)]
    return t, b, i


def valid_access_scope(r, scope=None):
    """``valid_access`` enumerated: each block's lowest access of each size,
    or ``scope(accesses)``."""
    for b, accesses in r.accesses.items():
        for t, i in r.lowest[b] if scope is None else scope(accesses):
            yield t, b, i


# Per chunk, the chunks of another size: a reload at one of them reads undef.
MISMATCHED_CHUNKS = {
    t: tuple(t2 for t2 in chunks.ALL_CHUNKS if not chunks.compat(t, t2)) for t in chunks.ALL_CHUNKS
}


def clear_caches() -> None:
    """Drop all memoized rebuilds.  Required around mutation runs, where
    the patched operations must not be shadowed by cached results."""
    run_cached.cache_clear()
    state_of.cache_clear()
    lessdef_pair_cached.cache_clear()
    extends_pair_cached.cache_clear()
    emb_scenario_cached.cache_clear()
    cells_of.cache_clear()
    SCENARIOS.clear()
    _LAST_STORE[:] = None, None
    LAST_PROLOGUE[:] = None, None, None
    generators.tiny_states_small.cache_clear()


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
        scenario = _sides(*zip(("left", "right"), project(case[1])))
    elif tag == "lessdef3":
        scenario = _sides(*zip(("left", "middle", "right"), project(case[1], 3)))
    elif tag == "extends3":
        ops1, ops2 = project(case[1])
        scenario = _sides(
            ("left", ops1), ("middle", ops2), ("right", project(widen_plan(case[1], case[2]))[1])
        )
    elif tag == "emb":
        sc = emb_scenario_cached(case[1])
        emb_lines = "\n".join(entry_text(b, *target) for b, target in sorted(sc.emb.items()))
        scenario = _sides(("left", sc.r1.ops), ("right", sc.r2.ops)) + "\n[emb]\n" + emb_lines
    else:
        scenario = repr(case)
    return {"scenario": scenario, "assignment": assignment}
