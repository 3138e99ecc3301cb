"""Law objects and shared case plumbing.

A *law* is an executable, universally quantified property with a name tag
taken verbatim from the classic lemma inventory for this memory model, so
suite reports can be diffed against that catalogue.  Each law supplies an
exhaustive case iterator over the tiny universe and a random case sampler;
a case is a self-contained tuple (tag, payload...) that the law's checker
can evaluate from scratch, which is what makes shrinking and standalone
counterexample replay possible.

A sampler may return ``("skip",)`` when the drawn scenario admits no
assignment.  Checks never see such a case: ``runner.run_law`` drops skips
in both phases before calling ``check``, and ``shrink_case`` never yields
one.  Check functions return ``None`` when the case passes (including
vacuously, when the case fails the law's hypotheses) and a short
human-readable detail string when it exhibits a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .. import chunks
from . import generators
from .generators import (
    EmbPlan,
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    format_ops,
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
    exhaustive=lambda: (),
    sample=lambda rng: ("skip",),
    check=lambda case: None,
) -> Law:
    if name in LAWS:
        raise ValueError(f"duplicate law {name}")
    law = Law(name, module, about, family, groups, exhaustive, sample, check)
    LAWS[name] = law
    return law


# --- cached rebuilds ---------------------------------------------------------
#
# Cases carry scenarios, not states; rebuilding through a memo keeps
# exhaustive sweeps (which revisit the same scenario with many quantifier
# assignments) cheap without giving up replayability.  Random cases share
# their scenarios across the laws of a domain (``generators.shared_ops``
# and its siblings), so the memos are sized to hold everything a default
# run builds, lest a law evict the states its domain's next law needs: at
# seed 42 that is about 18k states and 9k embedding scenarios, where a
# domain has up to 10k scenarios.


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


@lru_cache(maxsize=4096)
def cells_of(recipe: tuple):
    """Content map built by a sequence of datum stores."""
    from .. import cells

    f: dict = {}
    for t, ofs, v in recipe:
        f = cells.store_contents(f, t, ofs, v)
    return f


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
    generators.tiny_states_small.cache_clear()
    generators.tiny_states_full.cache_clear()


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


def _two_sides(ops1, ops2) -> str:
    return "# left\n" + format_ops(ops1) + "\n# right\n" + format_ops(ops2)


def render_case(case) -> dict:
    """Violation payload: a replayable scenario plus the quantifier
    assignment that failed."""
    tag = case[0]
    assignment = repr(case[2:]) if len(case) > 2 else ""
    if tag == "state":
        scenario = format_ops(case[1])
    elif tag == "cells":
        recipe = case[1]
        scenario = "\n".join(
            f"store-contents {t.token} {ofs} {chunks.value_text(v)}" for t, ofs, v in recipe
        )
    elif tag in ("lessdef", "extends"):
        build = lessdef_pair_cached if tag == "lessdef" else extends_pair_cached
        _, _, ops1, ops2 = build(case[1])
        scenario = _two_sides(ops1, ops2)
    elif tag == "emb":
        sc = emb_scenario_cached(case[1])
        emb_lines = "\n".join(f"{b} -> {tb} + {d}" for b, (tb, d) in sorted(sc.emb.items()))
        scenario = _two_sides(sc.ops1, sc.ops2) + "\n[emb]\n" + emb_lines
    else:
        scenario = repr(case)
    return {"scenario": scenario, "assignment": assignment}
