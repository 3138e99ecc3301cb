"""Simulation laws over the four memory relations.

Every relation answers ``holds(embedding, left state, right state)``.
Refinement and extension are embeddings along ``relations.IDENTITY``,
which maps every block to itself at delta 0 (Leroy & Blazy 2008; in
CompCert, ``Mem.extends`` is equal ``nextblock`` plus ``mem_inj
inject_id``).  A relation law's case is (tag, plan, *assignment), and its
plan builds a scenario of a left run, a right run and an embedding: the
pair memo's two runs along the identity, or an embedding scenario.  One
gate, ``_under``, rebuilds the scenario and re-verifies the relation
before the property ``prop(sc, *assignment)`` runs.  A case whose
hypothesis does not hold passes vacuously, except in the
witness-construction laws (``built``), where a broken hypothesis means
the constructor itself is wrong and is reported.

The existential laws (store_lessdef, store_mapped_emb, alloc_parallel_emb,
alloc_list_alloc_inject, ...) build their witness explicitly, a rebuild of
the right-hand state with one field replaced or an extension of the
relocation map, and require the real operation to return exactly that
witness before checking the relation on it.

A law is assembled from a domain, whose plans come from a shared plan
stream and enumerate as a fixed plan menu, and whose assignment is a
direct draw on the plan's runs or scenario stated beside its scope
(``LESSDEF.cases(draw, scope)``, ``_emb(draw, scope)``), and one check
per property.  A property is written once
and takes the relation as a parameter: load transport, the witness
store, the parallel store and the one-sided update serve both families
(``_load_transport(LESSDEF, ...)``, ``_one_sided(INJECT, ...)``).  An
operation that comes in two forms, such as ``free``/``free_list``,
``store``/``storev`` or ``load``/``loadv``, is a parameter too.  Free and
alloc stay per family: a pair law reports a right-side free that fails
where ``free_parallel_emb`` passes vacuously, and their cases differ.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Callable, NamedTuple

from .. import cells, chunks, memstate, relations
from ..chunks import ALL_CHUNKS, Chunk, Vfloat, Vint, Vptr, VUNDEF
from . import generators
from .domains import branch, choose, extend, given, ints, lists, pick, source, tuples
from .generators import EmbPlan
from .laws_base import (
    MEM_EXTENDS,
    MEM_INJECT,
    MEM_LESSDEF,
    REL_MEM,
    STATE,
    deflaw,
    emb_scenario_cached,
    extends_pair_cached,
    lessdef_pair_cached,
    on_scenario,
    state_of,
    valid_access,
    valid_access_scope,
    widen_plan,
)

_OVERLAP_SOME = (1, 6)
_NO_OVERLAP = (0, 1)


def _accesses(r, blocks, limit):
    """The first ``limit`` valid (chunk, block, offset) of each of
    ``blocks`` in the state of the run ``r``."""
    table = r.accesses
    return [(t, b, i) for b in blocks if b in table for t, i in table[b][:limit]]


# --- fixed exhaustive plan menus -----------------------------------------------

_F15 = Vfloat.from_float(1.5)

EX_LESSDEF_PLANS = (
    (),
    (("alloc", 0, 8),),
    (("alloc", 0, 8), ("store2", Chunk.INT32, 0, 0, VUNDEF, Vint(5))),
    (("alloc", 0, 8), ("store2", Chunk.INT32, 0, 4, Vint(-3), Vint(-3))),
    (("alloc", -4, 4), ("store2", Chunk.INT16U, 0, -4, VUNDEF, Vint(70000))),
    (("alloc", 0, 8), ("store2", Chunk.FLOAT64, 0, 0, VUNDEF, _F15)),
    (("alloc", 0, 4), ("alloc", 0, 8), ("store2", Chunk.INT8S, 1, 3, VUNDEF, Vint(300))),
    (("alloc", 0, 4), ("free", 0)),
    (
        ("alloc", 0, 8),
        ("alloc", -4, 4),
        ("store2", Chunk.INT32, 0, 0, Vint(1), Vint(1)),
        ("store2", Chunk.INT8U, 1, -2, VUNDEF, Vint(9)),
        ("free", 1),
    ),
    (("alloc", 2, 1),),
)

EX_EXTENDS_PLANS = (
    (),
    (("alloc", 0, 8, 0, 0),),
    (("alloc", 0, 8, 0, 8), ("store", Chunk.INT32, 0, 0, Vint(7))),
    (("alloc", 0, 4, 4, 0), ("store", Chunk.INT8U, 0, 2, Vint(300))),
    (("alloc", 0, 4, 0, 4), ("margin", Chunk.INT32, 0, 4, Vint(11))),
    (("alloc", -4, 4, 4, 8), ("store", Chunk.INT16S, 0, -4, Vint(-2)), ("margin", Chunk.INT8U, 0, 5, Vint(1))),
    (("alloc", 0, 8, 0, 0), ("alloc", 0, 4, 0, 4), ("free", 0)),
    (("alloc", 2, 1, 0, 8),),
    (("alloc", 0, 8, 8, 8), ("margin", Chunk.FLOAT64, 0, -8, _F15), ("store", Chunk.INT32, 0, 4, Vint(3))),
)

EX_EMB_PLANS = (
    EmbPlan(sources=((0, 8, ("own", 0)),), stores=((0, Chunk.INT32, 0, ("int", 5)),)),
    EmbPlan(sources=((0, 8, ("own", 8)),), stores=((0, Chunk.INT8U, 1, ("int", 300)),)),
    EmbPlan(
        sources=((0, 8, ("slot",)), (0, 4, ("slot",))),
        stores=((0, Chunk.INT32, 4, ("ptr", 1, 0)), (1, Chunk.INT16S, 0, ("int", -2))),
    ),
    EmbPlan(sources=((0, 4, ("none",)), (-4, 4, ("slot",)))),
    EmbPlan(
        sources=((0, 8, ("own", -8)), (0, 8, ("slot",))),
        frees=(0,),
        stores=((1, Chunk.FLOAT64, 0, ("float", _F15.bits)),),
    ),
    EmbPlan(
        sources=((0, 4, ("own", 16)),),
        extra_targets=((0, 8),),
        extra_stores=((0, Chunk.INT32, 0, ("int", 9)),),
    ),
    EmbPlan(sources=((0, 8, ("slot",)), (0, 8, ("slot",))), overlap=True),
    EmbPlan(
        sources=((0, 8, ("slot",)), (0, 8, ("slot",))),
        overlap=True,
        stores=((1, Chunk.INT32, 0, ("int", 9)),),
    ),
    EmbPlan(sources=((0, 8, ("slot",)),), hole_span=8),
    EmbPlan(sources=((0, 0, ("own", 0)), (2, 1, ("slot",)))),
    EmbPlan(
        sources=((-4, 4, ("slot",)), (0, 2, ("own", 8))),
        stores=((0, Chunk.INT16S, -4, ("int", -7)), (1, Chunk.INT8U, 0, ("ptr", 0, 3))),
        extra_targets=((0, 4),),
    ),
)


# --- relations and the gate ----------------------------------------------------


class _Pair(NamedTuple):
    """A relation whose instances are one plan projected onto two states,
    related along ``IDENTITY``."""

    tag: str  # case tag, the plan kind
    noun: str  # "refinement" | "extension", for failure details
    adjective: str  # of the right-hand state: "refined" | "extended"
    holds: Callable  # (embedding, left state, right state) -> bool
    scenario: Callable  # memoised plan -> its two runs, a generators.RunPair
    plans: object  # the domain of plans: the shared stream; enumerated, a menu

    def cases(self, draw=None, scope=None):
        """Cases (tag, plan) + ``draw(rng, runs)``, a tuple drawn on the
        plan's runs (a ``generators.RunPair``); enumerated, (tag, plan) +
        each tuple of ``scope(runs)``."""
        head = self.plans.map(lambda plan: (self.tag, plan))
        return head if draw is None else on_scenario(head, self.scenario, draw, scope)


LESSDEF = _Pair(
    "lessdef",
    "refinement",
    "refined",
    lambda emb, m1, m2: relations.mem_lessdef(m1, m2),
    lessdef_pair_cached,
    source(generators.shared_lessdef_plan, EX_LESSDEF_PLANS),
)
EXTENDS = _Pair(
    "extends",
    "extension",
    "extended",
    lambda emb, m1, m2: relations.mem_extends(m1, m2),
    extends_pair_cached,
    source(generators.shared_extends_plan, EX_EXTENDS_PLANS),
)


class _EmbRel(NamedTuple):
    """A relation over (embedding, left state, right state) whose
    instances are embedding scenarios.  The checkers are called through
    ``relations`` so that a rebinding there (a seeded mutation, a tracing
    wrapper) is seen."""

    noun: str  # for failure details
    holds: Callable
    scenario: Callable = emb_scenario_cached  # plan -> scenario


EMB = _EmbRel("embedding", lambda emb, m1, m2: relations.mem_emb(emb, m1, m2))
# The embedding together with its no-overlap side condition.
EMB_APART = _EmbRel(
    "embedding",
    lambda emb, m1, m2: relations.emb_no_overlap(emb, m1) and relations.mem_emb(emb, m1, m2),
)
INJECT = _EmbRel("injection", lambda emb, m1, m2: relations.mem_inject(emb, m1, m2))
NO_OVERLAP = _EmbRel(
    "no-overlap side condition", lambda emb, m1, m2: relations.emb_no_overlap(emb, m1)
)


def _under(rel, built=False):
    """Decorator for a property ``prop(sc, *assignment)`` of cases (tag,
    plan, *assignment): it runs on the plan's scenario where ``rel``
    holds.  Elsewhere the case passes vacuously.  A ``built`` (witness)
    law takes only the plans without overlap, which its constructor
    promises to relate, and reports a scenario that fails ``rel``."""

    def wrap(prop):
        def check(case):
            plan = case[1]
            if built and isinstance(plan, EmbPlan) and plan.overlap:
                return None
            sc = rel.scenario(plan)
            if not rel.holds(sc.emb, sc.m1, sc.m2):
                return f"constructed scenario fails the {rel.noun} hypothesis" if built else None
            return prop(sc, *case[2:])

        return check

    return wrap


# --- properties of every relation ------------------------------------------------

# Operations on one state: (state, *assignment) -> state after (for a load,
# the value loaded), or None.


def _do_alloc(m, low, high):
    r = memstate.alloc(m, low, high)
    return None if r is None else r[1]


def _do_store(m, t, b, i, v):
    return memstate.store(t, m, b, i, v)


def _do_storev(m, t, b, i, v):
    return memstate.storev(t, m, Vptr(b, i), v)


def _do_free(m, b):
    return memstate.free(m, b)


def _do_free_list(m, bs):
    return memstate.free_list(m, bs)


def _do_alloc_list(m, reqs):
    r = memstate.alloc_list(m, reqs)
    return None if r is None else r[1]


def _do_load(m, t, b, i):
    return memstate.load(t, m, b, i)


def _do_loadv(m, t, b, i):
    return memstate.loadv(t, m, Vptr(b, i))


def _load_transport(rel, op, what: str):
    """A load through ``op`` at a mapped location and its relocated twin
    give values related through the embedding."""

    @_under(rel)
    def check(sc, t, b1, i):
        v1 = op(sc.m1, t, b1, i)
        if v1 is None:
            return None
        b2, delta = sc.emb[b1]
        if not relations.val_emb(sc.emb, Vptr(b1, i), Vptr(b2, i + delta)):
            return "constructed addresses do not relate"
        v2 = op(sc.m2, t, b2, i + delta)
        if v2 is None:
            return f"{what} failed on the relocated address"
        if not relations.val_emb(sc.emb, v1, v2):
            return f"{what}s do not relate through the {rel.noun}: {v1!r} vs {v2!r}"
        return None

    return check


def _witness_store(rel, built=False):
    """A store at a mapped location, related values stored, is answered at
    its relocated twin by the contents-rebuild witness, which keeps
    ``rel``."""

    @_under(rel, built)
    def check(sc, t, b1, i, v1, v2):
        if not relations.val_emb(sc.emb, v1, v2):
            return None
        m1p = memstate.store(t, sc.m1, b1, i, v1)
        if m1p is None:
            return None
        b2, delta = sc.emb[b1]
        c2 = cells.store_contents(memstate.contents_of(sc.m2, b2), t, i + delta, v2)
        witness = memstate.set_contents(sc.m2, b2, c2)
        if memstate.store(t, sc.m2, b2, i + delta, v2) != witness:
            return "relocated store is not the contents-rebuild witness"
        if not rel.holds(sc.emb, m1p, witness):
            return f"relocated store broke the {rel.noun}"
        return None

    return check


def _parallel_store(rel, op, what: str):
    """A store through ``op`` at a mapped location and its relocated twin,
    related values stored, keep ``rel``."""

    @_under(rel)
    def check(sc, t, b1, i, v1, v2):
        if not relations.val_emb(sc.emb, v1, v2):
            return None
        m1p = op(sc.m1, t, b1, i, v1)
        if m1p is None:
            return None
        b2, delta = sc.emb[b1]
        m2p = op(sc.m2, t, b2, i + delta, v2)
        if m2p is None:
            return f"{what} failed on the relocated address"
        if not rel.holds(sc.emb, m1p, m2p):
            return f"a {what} broke the {rel.noun}"
        return None

    return check


def _one_sided(rel, side: str, op, what: str, applies=None):
    """``rel`` survives ``op(m, *assignment)`` on one side, "left" or
    "right"; ``applies(scenario, *assignment)`` is the law's own
    hypothesis."""
    left = side == "left"

    @_under(rel)
    def check(sc, *args):
        if applies is not None and not applies(sc, *args):
            return None
        m = op(sc.m1 if left else sc.m2, *args)
        if m is None:
            return None
        if not (rel.holds(sc.emb, m, sc.m2) if left else rel.holds(sc.emb, sc.m1, m)):
            return f"{what} broke the {rel.noun}"
        return None

    return check


# --- the pair relations: refinement and extension ------------------------------


def _pair_access(rel: _Pair):
    """A plan plus a valid access of its left state."""
    return rel.cases(
        lambda rng, runs: valid_access(rng, runs[0]), lambda runs: valid_access_scope(runs[0])
    )


def _pair_store(rel: _Pair, values):
    """A plan, a valid access of its left state and a pair of values, the
    left one undefined a third of the time; the right one is enumerated
    at ``values``."""

    def draw(rng, runs):
        r1 = runs[0]
        access = valid_access(rng, r1)
        v2 = generators.sample_value(rng, tuple(range(1, r1.state.nextblock)))
        return access + (VUNDEF if rng.next_u64() % 3 < 1 else v2, v2)

    def scope(runs):
        return [
            a + (v1, v2) for a in valid_access_scope(runs[0]) for v2 in values for v1 in (VUNDEF, v2)
        ]

    return rel.cases(draw, scope)


def _pair_free(rel: _Pair):
    return rel.cases(
        lambda rng, runs: (choose(rng, runs[0].live),), lambda runs: [(b,) for b in runs[0].live]
    )


def _refl(rel: _Pair):
    def check(case):
        m = state_of(case[1])
        if not rel.holds(relations.IDENTITY, m, m):
            return f"{rel.noun} is not reflexive on this state"
        return None

    return check


def _trans(rel: _Pair, triple):
    """``triple(case)`` gives three states, each pair of neighbours built
    to be related."""

    def check(case):
        m1, m2, m3 = triple(case)
        holds = lambda ma, mb: rel.holds(relations.IDENTITY, ma, mb)
        if holds(m1, m2) and holds(m2, m3) and not holds(m1, m3):
            return f"{rel.noun} chain does not compose"
        return None

    return check


def _free_along(rel: _Pair):
    @_under(rel)
    def check(sc, b):
        r1 = memstate.free(sc.m1, b)
        if r1 is None:
            return None
        r2 = memstate.free(sc.m2, b)
        if r2 is None:
            return f"{rel.adjective} state fails a free the original allows"
        if not rel.holds(sc.emb, r1, r2):
            return f"parallel free broke the {rel.noun}"
        return None

    return check


def _alloc_along(rel: _Pair, requests):
    """Parallel allocs keep ``rel``: each request (low, high, dl, dh)
    allocates (low, high) on the left and (low - dl, high + dh) on the
    right."""

    @_under(rel)
    def check(sc):
        for low, high, dl, dh in requests:
            r1 = memstate.alloc(sc.m1, low, high)
            r2 = memstate.alloc(sc.m2, low - dl, high + dh)
            if (r1 is None) != (r2 is None):
                return "parallel allocs disagree on success"
            if r1 is not None:
                if r1[0] != r2[0]:
                    return "parallel allocs chose different blocks"
                if not rel.holds(sc.emb, r1[1], r2[1]):
                    return f"parallel alloc broke the {rel.noun}"
        return None

    return check


# --- refinement (Mem_Lessdef) -----------------------------------------------------


deflaw(
    "mem_lessdef_refl",
    MEM_LESSDEF,
    "refinement is reflexive",
    family="relation",
    domain=STATE,
    check=_refl(LESSDEF),
)


def _lessdef3_states(case):
    return tuple(state_of(tuple(ops)) for ops in generators.project(case[1], 3))


# Each menu plan with its right-hand values repeated for the third side.
_LESSDEF3_PLANS = tuple(
    tuple(
        ("store3",) + st[1:4] + (st[4], st[5], st[5]) if st[0] == "store2" else st
        for st in plan
    )
    for plan in EX_LESSDEF_PLANS
)


deflaw(
    "mem_lessdef_trans",
    MEM_LESSDEF,
    "refinement composes",
    family="relation",
    domain=source(generators.sample_lessdef3_plan, _LESSDEF3_PLANS).map(
        lambda plan: ("lessdef3", plan)
    ),
    check=_trans(LESSDEF, _lessdef3_states),
)

deflaw(
    "alloc_lessdef",
    MEM_LESSDEF,
    "parallel allocation preserves refinement",
    family="relation",
    domain=LESSDEF.cases(),
    check=_alloc_along(LESSDEF, ((0, 8, 0, 0), (2, 1, 0, 0))),
)

deflaw(
    "load_lessdef",
    MEM_LESSDEF,
    "loads transport along refinement",
    family="relation",
    domain=_pair_access(LESSDEF),
    check=_load_transport(LESSDEF, _do_load, "load"),
)

deflaw(
    "store_lessdef",
    MEM_LESSDEF,
    "a refined store admits the contents-rebuild witness",
    family="relation",
    domain=_pair_store(LESSDEF, (Vint(4), VUNDEF)),
    check=_witness_store(LESSDEF, built=True),
)

deflaw(
    "free_lessdef",
    MEM_LESSDEF,
    "parallel free preserves refinement",
    family="relation",
    domain=_pair_free(LESSDEF),
    check=_free_along(LESSDEF),
)


# --- extension (Mem_Extends) --------------------------------------------------------


deflaw(
    "mem_extends_refl",
    MEM_EXTENDS,
    "extension is reflexive",
    family="relation",
    domain=STATE,
    check=_refl(EXTENDS),
)


def _extends3_states(case):
    _, plan, widenings = case
    sc = EXTENDS.scenario(plan)
    return sc.m1, sc.m2, EXTENDS.scenario(widen_plan(plan, widenings)).m2


# Three more widenings of the right side, one per alloc of the plan; each
# enumerated at none and at both sides.
_WIDENINGS = tuples(*[tuples(pick((0, 4)), pick((0, 8))).scoped(((0, 0), (4, 8)))] * 3)


deflaw(
    "mem_extends_trans",
    MEM_EXTENDS,
    "extension composes",
    family="relation",
    domain=tuples("extends3", EXTENDS.plans, _WIDENINGS),
    check=_trans(EXTENDS, _extends3_states),
)

deflaw(
    "alloc_extends",
    MEM_EXTENDS,
    "parallel allocation with containing bounds preserves extension",
    family="relation",
    domain=EXTENDS.cases(),
    check=_alloc_along(EXTENDS, ((0, 8, 0, 0), (0, 4, 4, 8), (2, 1, 0, 4))),
)

deflaw(
    "load_extends",
    MEM_EXTENDS,
    "loads transport along extension",
    family="relation",
    domain=_pair_access(EXTENDS),
    check=_load_transport(EXTENDS, _do_load, "load"),
)

deflaw(
    "store_within_extends",
    MEM_EXTENDS,
    "a store inside the original bounds preserves extension",
    family="relation",
    domain=_pair_store(EXTENDS, (Vint(4),)),
    check=_parallel_store(EXTENDS, _do_store, "store inside the original bounds"),
)


def _outside_left_bounds(sc, t, b, i, v):
    l1, h1 = memstate.bounds(sc.m1, b)
    return i + chunks.size_chunk(t) <= l1 or i >= h1


deflaw(
    "store_outside_extends",
    MEM_EXTENDS,
    "a right-side store outside the original bounds preserves extension",
    family="relation",
    domain=EXTENDS.cases(
        lambda rng, runs: choose(rng, runs.margins) + (generators.sample_value(rng, ()),),
        lambda runs: [slot + (Vint(13),) for slot in dict.fromkeys(runs.margins)],
    ),
    check=_one_sided(
        EXTENDS, "right", _do_store, "a store outside the original bounds", _outside_left_bounds
    ),
)

deflaw(
    "free_extends",
    MEM_EXTENDS,
    "parallel free preserves extension",
    family="relation",
    domain=_pair_free(EXTENDS),
    check=_free_along(EXTENDS),
)


# --- the embedding family ------------------------------------------------------


def _mapped_sources(sc, mapped: bool = True):
    """The valid left blocks that the embedding maps (or, with ``mapped``
    false, leaves unmapped)."""
    return [b for b in sc.r1.live if (b in sc.emb) == mapped]


def _mapped_accesses(sc, limit):
    return _accesses(sc.r1, _mapped_sources(sc), limit)


def _unmapped_accesses(sc, limit):
    return _accesses(sc.r1, _mapped_sources(sc, mapped=False), limit)


def _extra_accesses(sc, limit):
    return _accesses(sc.r2, sc.extra_ids, limit)


def _sole_pairs(sc):
    """Own-target pairs whose source and target are still valid."""
    live1, live2 = sc.r1.live, sc.r2.live
    return [(src, tgt) for src, tgt, _ in sc.own_pairs if src in live1 and tgt in live2]


def _emb_plans(overlap=_OVERLAP_SOME, hole_span=0, need_mapped=False):
    """The shared embedding plans of one keyword set; enumerated, the menu
    plans (each given the reserved gap, if there is one)."""

    def menu():
        if not hole_span:
            return EX_EMB_PLANS
        return [replace(plan, hole_span=hole_span) for plan in EX_EMB_PLANS]

    def draw(rng):
        return generators.shared_emb_plan(
            rng, overlap_chance=overlap, hole_span=hole_span, need_mapped=need_mapped
        )

    return source(draw, menu)


def _emb(draw=None, scope=None, **plans):
    """Cases ("emb", plan) + ``draw(rng, sc)``, a tuple drawn on the plan's
    scenario; enumerated, ("emb", plan) + each tuple of ``scope(sc)``; over
    the plans of ``_emb_plans(**plans)``."""
    head = _emb_plans(**plans).map(lambda plan: ("emb", plan))
    return head if draw is None else on_scenario(head, emb_scenario_cached, draw, scope)


_EMB_ACCESS = _emb(
    lambda rng, sc: choose(rng, _mapped_accesses(sc, 6)),
    lambda sc: _mapped_accesses(sc, 3),
    need_mapped=True,
)
_EMB_FREE = _emb(
    lambda rng, sc: (choose(rng, sc.r1.live),), lambda sc: [(b,) for b in sc.r1.live]
)
_FREE_PARALLEL = _emb(
    lambda rng, sc: (choose(rng, _sole_pairs(sc)),), lambda sc: [(p,) for p in _sole_pairs(sc)]
)


def _bounds(lows, spans):
    """Alloc bounds (low, low + span), enumerated at ``lows`` and ``spans``."""
    return source(_draw_bounds, [(low, low + span) for low in lows for span in spans])


def _draw_bounds(rng):
    low = -4 + rng.next_u64() % 9
    return low, low + (0, 2, 4, 8)[rng.next_u64() % 4]


_ALLOC_BOUNDS = _bounds((-4, 0), (0, 4, 8))


def _emb_alloc(overlap):
    return extend(_emb(overlap=overlap), _ALLOC_BOUNDS)


_REQUESTS = tuples(lists(ints(0, 3, (0, 1, 2)), _bounds((0,), (4, 8))))


def _emb_reqs(overlap):
    return extend(_emb(overlap=overlap), _REQUESTS)


def _subset(rng, items):
    """Each item kept or left out with even odds."""
    return tuple([x for x in items if rng.next_u64() % 2 == 0])


def _subsets(items):
    return [
        tuple(x for x, k in zip(items, kept) if k)
        for kept in product((True, False), repeat=len(items))
    ]


_EMB_FREE_LIST = _emb(
    lambda rng, sc: (_subset(rng, sc.r1.live),), lambda sc: [(s,) for s in _subsets(sc.r1.live)]
)


# The one-sided laws' own hypotheses on their target block.
def _unmapped_store(sc, t, b, i, v):
    return b not in sc.emb


def _extra_store(sc, t, b, i, v):
    return b in sc.extra_ids


def _extra_block(sc, b):
    return b in sc.extra_ids


def _alloc_left_unmapped(rel: _EmbRel):
    @_under(rel)
    def check(sc, low, high):
        r = memstate.alloc(sc.m1, low, high)
        if r is None:
            return None
        b1, m1p = r
        if b1 in sc.emb:
            return "fresh block already mapped"
        if not rel.holds(sc.emb, m1p, sc.m2):
            return f"an unmapped left-side allocation broke the {rel.noun}"
        return None

    return check


def _alloc_left_mapped(rel: _EmbRel):
    """A fresh left block mapped into the scenario's reserved gap keeps
    ``rel``; the scenario is built to satisfy it."""

    @_under(rel, built=True)
    def check(sc, span):
        if sc.hole is None or span > sc.hole[2]:
            return None
        tgt, start, _ = sc.hole
        r = memstate.alloc(sc.m1, 0, span)
        if r is None:
            return "allocation failed under the default policy"
        b1, m1p = r
        emb2 = dict(sc.emb)
        emb2[b1] = (tgt, start)
        if not relations.emb_incr(sc.emb, emb2):
            return "extended map does not extend the original"
        if not rel.holds(emb2, m1p, sc.m2):
            return f"mapping the fresh block into the gap broke the {rel.noun}"
        return None

    return check


# A plan with a reserved gap of 8 or 16 bytes, and the span of the block to
# map into it.
_ALLOC_LEFT_MAPPED = tuples(
    "emb",
    branch(*[(1, _emb_plans(_NO_OVERLAP, hole_span=hole)) for hole in (8, 16)]),
    pick((0, 2, 4, 8), (0, 4, 8)),
)


def _free_pair(rel: _EmbRel):
    """Freeing a block together with its private image keeps ``rel``."""

    @_under(rel)
    def check(sc, pair):
        src, tgt = pair
        m1p = memstate.free(sc.m1, src)
        m2p = memstate.free(sc.m2, tgt)
        if m1p is None or m2p is None:
            return None
        if not rel.holds(sc.emb, m1p, m2p):
            return f"freeing a private pair broke the {rel.noun}"
        return None

    return check


# --- embeddings (Rel_Mem) ------------------------------------------------------------


@_under(EMB)
def _ck_valid_pointer_emb(sc, t, b1, i):
    if not memstate.valid_access(sc.m1, t, b1, i):
        return None
    b2, delta = sc.emb[b1]
    if not memstate.valid_access(sc.m2, t, b2, i + delta):
        return "relocated access is invalid in the target state"
    return None


deflaw(
    "valid_pointer_emb",
    REL_MEM,
    "valid accesses relocate to valid accesses",
    family="relation",
    domain=_EMB_ACCESS,
    check=_ck_valid_pointer_emb,
)


def _ck_alignment_shift(case):
    _, t, i, delta = case
    if i % chunks.align_chunk(t) == 0 and delta % 8 == 0:
        if (i + delta) % chunks.align_chunk(t) != 0:
            return f"delta {delta} broke the alignment of {i} for {t.token}"
    return None


deflaw(
    "alignment_shift",
    REL_MEM,
    "multiples of 8 preserve every chunk's alignment",
    family="cells",
    domain=tuples(
        "arith",
        pick(ALL_CHUNKS),
        given(
            lambda rng, d: (-8 + rng.next_u64() % 17) * chunks.align_chunk(d[1]),
            lambda d: [k * chunks.align_chunk(d[1]) for k in range(-8, 9)],
        ),
        ints(-4, 4, (-2, -1, 0, 1, 2)).map(lambda k: 8 * k),
    ),
    check=_ck_alignment_shift,
)


def _emb_value_pair(rng, sc):
    """Two values related through the embedding: undef and a value, equal
    ints or floats, or a mapped pointer and its relocation."""
    r = rng.next_u64() % 8
    if r < 1:
        return VUNDEF, (Vint(5), VUNDEF)[rng.next_u64() % 2]
    if r < 4:
        return _int_pair(-8 + rng.next_u64() % 309)
    if r < 5:
        f = generators.FLOAT_POOL[rng.next_u64() % len(generators.FLOAT_POOL)]
        return Vfloat(f.bits), Vfloat(f.bits)
    mapped = [b for b in sc.src_ids if b in sc.emb]
    if not mapped:
        return _int_pair(-8 + rng.next_u64() % 17)
    b = mapped[rng.next_u64() % len(mapped)]
    tb, d = sc.emb[b]
    po = -2 + rng.next_u64() % 9
    return Vptr(b, po), Vptr(tb, po + d)


def _emb_value_pair_scope(sc):
    """Undef and an int, an int, and a pointer into the first mapped source."""
    pairs = [(VUNDEF, Vint(5)), _int_pair(6)]
    for b in [b for b in sc.src_ids if b in sc.emb][:1]:
        tb, d = sc.emb[b]
        pairs.append((Vptr(b, 0), Vptr(tb, d)))
    return pairs


def _int_pair(n):
    return Vint(n), Vint(n)


_STORE_MAPPED = _emb(
    lambda rng, sc: choose(rng, _mapped_accesses(sc, 6)) + _emb_value_pair(rng, sc),
    lambda sc: [a + v for a in _mapped_accesses(sc, 2) for v in _emb_value_pair_scope(sc)],
    need_mapped=True,
)


deflaw(
    "store_mapped_emb",
    REL_MEM,
    "a store relocates through a non-overlapping embedding",
    family="relation",
    domain=_STORE_MAPPED,
    check=_witness_store(EMB_APART),
)

_STORE_UNMAPPED = _emb(
    lambda rng, sc: choose(rng, _unmapped_accesses(sc, 6))
    + (generators.sample_value(rng, sc.src_ids),),
    lambda sc: [a + (Vint(3),) for a in _unmapped_accesses(sc, 6)],
)

deflaw(
    "store_unmapped_emb",
    REL_MEM,
    "stores in unmapped blocks preserve the embedding",
    family="relation",
    domain=_STORE_UNMAPPED,
    check=_one_sided(EMB, "left", _do_store, "a store in an unmapped block", _unmapped_store),
)

deflaw(
    "store_outside_emb",
    REL_MEM,
    "right-side stores outside every image preserve the embedding",
    family="relation",
    domain=_emb(
        lambda rng, sc: choose(rng, _extra_accesses(sc, 6)) + (generators.sample_value(rng, ()),),
        lambda sc: [a + (Vint(8),) for a in _extra_accesses(sc, 6)],
    ),
    check=_one_sided(EMB, "right", _do_store, "a store outside every image", _extra_store),
)


@_under(EMB_APART, built=True)
def _ck_alloc_parallel_emb(sc, low, high):
    r1 = memstate.alloc(sc.m1, low, high)
    r2 = memstate.alloc(sc.m2, low, high)
    if r1 is None or r2 is None:
        return "parallel allocation failed under the default policy"
    b1, m1p = r1
    b2, m2p = r2
    emb2 = dict(sc.emb)
    emb2[b1] = (b2, 0)
    if not relations.emb_incr(sc.emb, emb2):
        return "extended map does not extend the original"
    if not relations.emb_no_overlap(emb2, m1p):
        return "parallel allocation introduced an image overlap"
    if not relations.mem_emb(emb2, m1p, m2p):
        return "parallel allocation broke the embedding"
    return None


deflaw(
    "alloc_parallel_emb",
    REL_MEM,
    "parallel allocation extends the embedding with a zero-delta mapping",
    family="relation",
    domain=_emb_alloc(_NO_OVERLAP),
    check=_ck_alloc_parallel_emb,
)

deflaw(
    "alloc_right_emb",
    REL_MEM,
    "right-side allocation preserves the embedding",
    family="relation",
    domain=_emb_alloc(_OVERLAP_SOME),
    check=_one_sided(EMB, "right", _do_alloc, "a right-side allocation"),
)

deflaw(
    "alloc_left_unmapped_emb",
    REL_MEM,
    "left-side allocation of an unmapped block preserves the embedding",
    family="relation",
    domain=_emb_alloc(_OVERLAP_SOME),
    check=_alloc_left_unmapped(EMB),
)

deflaw(
    "alloc_left_mapped_emb",
    REL_MEM,
    "a fresh left block maps into a reserved gap of the target",
    family="relation",
    domain=_ALLOC_LEFT_MAPPED,
    check=_alloc_left_mapped(EMB_APART),
)

deflaw(
    "free_left_emb",
    REL_MEM,
    "left-side free preserves the embedding",
    family="relation",
    domain=_EMB_FREE,
    check=_one_sided(EMB, "left", _do_free, "a left-side free"),
)

deflaw(
    "free_right_emb",
    REL_MEM,
    "freeing a target block outside every image preserves the embedding",
    family="relation",
    domain=_emb(
        lambda rng, sc: (choose(rng, sc.extra_ids),), lambda sc: [(b,) for b in sc.extra_ids]
    ),
    check=_one_sided(EMB, "right", _do_free, "freeing an imageless target block", _extra_block),
)

deflaw(
    "free_parallel_emb",
    REL_MEM,
    "freeing a block together with its private image preserves the embedding",
    family="relation",
    domain=_FREE_PARALLEL,
    check=_free_pair(EMB),
)

deflaw(
    "free_list_left_emb",
    REL_MEM,
    "left-side free_list preserves the embedding",
    family="relation",
    domain=_EMB_FREE_LIST,
    check=_one_sided(EMB, "left", _do_free_list, "a left-side free_list"),
)


@_under(EMB)
def _ck_free_list_free_parallel_emb(sc):
    pairs = _sole_pairs(sc)
    if not pairs:
        return None
    m1p = memstate.free_list(sc.m1, [p[0] for p in pairs])
    m2p = memstate.free_list(sc.m2, [p[1] for p in pairs])
    if m1p is None or m2p is None:
        return None
    if not relations.mem_emb(sc.emb, m1p, m2p):
        return "parallel free_list over private images broke the embedding"
    return None


deflaw(
    "free_list_free_parallel_emb",
    REL_MEM,
    "freeing all private pairs in one sweep preserves the embedding",
    family="relation",
    domain=_emb(),
    check=_ck_free_list_free_parallel_emb,
)


# --- injections (Mem_Inject) -----------------------------------------------------------


deflaw(
    "load_inject",
    MEM_INJECT,
    "loads transport along an injection",
    family="relation",
    domain=_EMB_ACCESS,
    check=_load_transport(INJECT, _do_load, "load"),
)


deflaw(
    "store_mapped_inject",
    MEM_INJECT,
    "mapped stores preserve the injection",
    family="relation",
    domain=_STORE_MAPPED,
    check=_parallel_store(INJECT, _do_store, "mapped store"),
)

deflaw(
    "store_unmapped_inject",
    MEM_INJECT,
    "stores in unmapped blocks preserve the injection",
    family="relation",
    domain=_STORE_UNMAPPED,
    check=_one_sided(INJECT, "left", _do_store, "a store in an unmapped block", _unmapped_store),
)

deflaw(
    "loadv_inject",
    MEM_INJECT,
    "value-addressed loads transport along an injection",
    family="relation",
    domain=_EMB_ACCESS,
    check=_load_transport(INJECT, _do_loadv, "value-addressed load"),
)

deflaw(
    "storev_inject",
    MEM_INJECT,
    "value-addressed stores preserve the injection",
    family="relation",
    domain=_STORE_MAPPED,
    check=_parallel_store(INJECT, _do_storev, "value-addressed store"),
)

deflaw(
    "embedding_no_overlap_free",
    MEM_INJECT,
    "free preserves the no-overlap side condition",
    family="relation",
    domain=_EMB_FREE,
    check=_one_sided(NO_OVERLAP, "left", _do_free, "a left-side free"),
)

deflaw(
    "embedding_no_overlap_free_list",
    MEM_INJECT,
    "free_list preserves the no-overlap side condition",
    family="relation",
    domain=_EMB_FREE_LIST,
    check=_one_sided(NO_OVERLAP, "left", _do_free_list, "a left-side free_list"),
)

deflaw(
    "free_inject",
    MEM_INJECT,
    "freeing a block with its private image preserves the injection",
    family="relation",
    domain=_FREE_PARALLEL,
    check=_free_pair(INJECT),
)


def _fresh_mapping(rng, sc):
    """A block id above the sources, a target (an extra one if there is
    one) and a delta."""
    src = max(sc.src_ids, default=0) + 1 + rng.next_u64() % 3
    tgt = choose(rng, sc.extra_ids) if sc.extra_ids else 1
    return src, tgt, 8 * (-2 + rng.next_u64() % 5)


def _fresh_mapping_scope(sc):
    """The first block above the sources, each target and each delta."""
    top = max(sc.src_ids, default=0)
    return product((top + 1,), sc.extra_ids or (1,), (-16, -8, 0, 8, 16))


def _ck_extend_embedding_incr(case):
    _, plan, new_src, tgt, delta = case
    sc = emb_scenario_cached(plan)
    if new_src in sc.emb:
        return None
    emb2 = dict(sc.emb)
    emb2[new_src] = (tgt, delta)
    if not relations.emb_incr(sc.emb, sc.emb):
        return "embedding extension order is not reflexive"
    if not relations.emb_incr(sc.emb, emb2):
        return "adding a fresh mapping does not extend the embedding"
    if relations.emb_incr(emb2, sc.emb):
        return "extension order ignores a missing mapping"
    return None


deflaw(
    "extend_embedding_incr",
    MEM_INJECT,
    "adding a mapping for a fresh block extends the embedding",
    family="relation",
    domain=_emb(_fresh_mapping, _fresh_mapping_scope),
    check=_ck_extend_embedding_incr,
)

deflaw(
    "alloc_right_inject",
    MEM_INJECT,
    "right-side allocation preserves the injection",
    family="relation",
    domain=_emb_alloc(_OVERLAP_SOME),
    check=_one_sided(INJECT, "right", _do_alloc, "a right-side allocation"),
)

deflaw(
    "alloc_left_unmapped_inject",
    MEM_INJECT,
    "left-side allocation of an unmapped block preserves the injection",
    family="relation",
    domain=_emb_alloc(_OVERLAP_SOME),
    check=_alloc_left_unmapped(INJECT),
)

deflaw(
    "alloc_left_mapped_inject",
    MEM_INJECT,
    "a fresh left block maps into a reserved gap under the injection",
    family="relation",
    domain=_ALLOC_LEFT_MAPPED,
    check=_alloc_left_mapped(INJECT),
)

deflaw(
    "alloc_list_left_inject",
    MEM_INJECT,
    "left-side alloc_list of unmapped blocks preserves the injection",
    family="relation",
    domain=_emb_reqs(_OVERLAP_SOME),
    check=_one_sided(INJECT, "left", _do_alloc_list, "left-side alloc_list"),
)


@_under(INJECT, built=True)
def _ck_alloc_list_alloc_inject(sc, reqs):
    r = memstate.alloc_list(sc.m1, reqs)
    if r is None:
        return "alloc_list failed under the default policy"
    bs, m1p = r
    deltas, total = generators.pack(reqs)
    r2 = memstate.alloc(sc.m2, 0, total)
    if r2 is None:
        return "covering allocation failed under the default policy"
    b2, m2p = r2
    emb2 = dict(sc.emb)
    for b, d in zip(bs, deltas):
        emb2[b] = (b2, d)
    if not relations.emb_incr(sc.emb, emb2):
        return "extended map does not extend the original"
    if not relations.mem_inject(emb2, m1p, m2p):
        return "packing the new blocks into one target broke the injection"
    return None


deflaw(
    "alloc_list_alloc_inject",
    MEM_INJECT,
    "a block list packs into a single covering target block",
    family="relation",
    domain=_emb_reqs(_NO_OVERLAP),
    check=_ck_alloc_list_alloc_inject,
)
