"""Simulation laws over the four memory relations.

Hypothesis instances come from the related-pair constructors: refinement
pairs, extension pairs, and embedding scenarios.  Laws re-verify the
constructed hypothesis before using it; a case whose hypothesis does not
hold passes vacuously, except in the witness-construction laws, where a
broken hypothesis means the constructor itself is wrong and is reported.

The existential laws (store_lessdef, store_mapped_emb, alloc_parallel_emb,
alloc_list_alloc_inject, ...) build their witness explicitly, a rebuild of
the right-hand state with one field replaced or an extension of the
relocation map, and require the real operation to return exactly that
witness before checking the relation on it.

A law is assembled from a domain, whose plans come from a shared plan
stream and enumerate as a fixed plan menu (``LESSDEF.cases(...)``,
``_emb(...)``), and one check per property.  A property stated for
several relations is written once and takes the relation as a
parameter: ``LESSDEF`` and ``EXTENDS`` for the pair relations, ``EMB``,
``EMB_APART``, ``INJECT`` and ``NO_OVERLAP`` for the embedding family
(``_load_along(LESSDEF)``, ``_one_sided(INJECT, ...)``); an operation
that comes in two forms, such as ``free``/``free_list`` or
``store``/``storev``, is a parameter too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

from .. import cells, chunks, memstate, relations
from ..chunks import ALL_CHUNKS, Chunk, Vfloat, Vint, Vptr, VUNDEF
from . import generators
from .domains import bind, branch, const, extend, ints, lists, pick, source, tuples
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
    state_of,
    valid_access,
    widen_plan,
)

_OVERLAP_SOME = (1, 6)
_NO_OVERLAP = (0, 1)


def _accesses(m, blocks, limit):
    """The first ``limit`` valid (chunk, block, offset) of each block."""
    return [(t, b, i) for b in blocks for t, i in relations.valid_accesses(m, b)[:limit]]


def _value(ids, scope):
    """A stored value that may point into ``ids``; enumerated at ``scope``."""
    return source(lambda rng: generators.sample_value(rng, ids), scope)


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


# --- the pair relations: refinement and extension ------------------------------


class _Pair(NamedTuple):
    """A relation whose instances are one plan projected onto two states."""

    tag: str  # case tag, the plan kind
    noun: str  # "refinement" | "extension", for failure details
    adjective: str  # of the right-hand state: "refined" | "extended"
    holds: Callable  # (left state, right state) -> bool
    build: Callable  # memoised plan -> (left run, right run, left ops, right ops)
    plans: object  # the domain of plans: the shared stream; enumerated, a menu

    def states(self, plan):
        r1, r2, _, _ = self.build(plan)
        return r1.state, r2.state

    def cases(self, *tails):
        """Cases (tag, plan) + a tuple of each ``tail(left run, right
        run)`` in turn (``generators.RunResult``s)."""
        head = self.plans.map(lambda plan: (self.tag, plan))
        return extend(head, *(lambda case, t=t: t(*self.build(case[1])[:2]) for t in tails))


LESSDEF = _Pair(
    "lessdef",
    "refinement",
    "refined",
    lambda m1, m2: relations.mem_lessdef(m1, m2),
    lessdef_pair_cached,
    source(generators.shared_lessdef_plan, EX_LESSDEF_PLANS),
)
EXTENDS = _Pair(
    "extends",
    "extension",
    "extended",
    lambda m1, m2: relations.mem_extends(m1, m2),
    extends_pair_cached,
    source(generators.shared_extends_plan, EX_EXTENDS_PLANS),
)


def _pair_access(rel: _Pair):
    """A plan plus a valid access of its left state."""
    return rel.cases(lambda r1, r2: valid_access(r1))


def _pair_store(rel: _Pair, values):
    """A plan, a valid access of its left state and a pair of values, the
    left one undefined a third of the time; the right one is enumerated
    at ``values``."""

    def pair(r1, r2):
        right = _value(tuple(range(1, r1.state.nextblock)), values)
        left = lambda v2: branch((1, const(VUNDEF)), (2, const(v2))).map(lambda v1: (v1, v2))
        return bind(right, left)

    return rel.cases(lambda r1, r2: valid_access(r1), pair)


def _pair_free(rel: _Pair):
    return rel.cases(lambda r1, r2: tuples(pick(r1.live)))


def _refl(rel: _Pair):
    def check(case):
        m = state_of(case[1])
        if not rel.holds(m, m):
            return f"{rel.noun} is not reflexive on this state"
        return None

    return check


def _trans(rel: _Pair, triple):
    """``triple(case)`` gives three states, each pair of neighbours built
    to be related."""

    def check(case):
        m1, m2, m3 = triple(case)
        if rel.holds(m1, m2) and rel.holds(m2, m3) and not rel.holds(m1, m3):
            return f"{rel.noun} chain does not compose"
        return None

    return check


def _load_along(rel: _Pair):
    def check(case):
        _, plan, t, b, i = case
        m1, m2 = rel.states(plan)
        if not rel.holds(m1, m2):
            return None
        v1 = memstate.load(t, m1, b, i)
        if v1 is None:
            return None
        v2 = memstate.load(t, m2, b, i)
        if v2 is None:
            return f"{rel.adjective} state fails a load the original answers"
        if not relations.val_lessdef(v1, v2):
            return f"loads do not refine along the {rel.noun}: {v1!r} vs {v2!r}"
        return None

    return check


def _free_along(rel: _Pair):
    def check(case):
        _, plan, b = case
        m1, m2 = rel.states(plan)
        if not rel.holds(m1, m2):
            return None
        r1 = memstate.free(m1, b)
        if r1 is None:
            return None
        r2 = memstate.free(m2, b)
        if r2 is None:
            return f"{rel.adjective} state fails a free the original allows"
        if not rel.holds(r1, r2):
            return f"parallel free broke the {rel.noun}"
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


def _sample_lessdef3_plan(rng):
    steps = []
    planned = []
    for _ in range(rng.randint(1, 6)):
        r = rng.below(10)
        if r < 4 and len(planned) < 3:
            low = rng.randint(-6, 4)
            high = low + rng.choice((2, 4, 8, 8))
            steps.append(("alloc", low, high))
            planned.append([low, high, True])
        elif r < 9 and planned:
            slot = generators._pick_store(rng, planned)
            if slot is None:
                continue
            k, t, i = slot
            v3 = generators.sample_value(rng, generators._live_ids(planned))
            v2 = VUNDEF if rng.chance(1, 3) else v3
            v1 = v2 if (v2 != VUNDEF and rng.chance(1, 2)) else VUNDEF if v2 == VUNDEF or rng.chance(1, 2) else v2
            if v2 == VUNDEF:
                v1 = VUNDEF
            steps.append(("store3", t, k, i, v1, v2, v3))
        elif planned:
            generators._free_one(rng, planned, steps)
    return tuple(steps)


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
    domain=source(_sample_lessdef3_plan, _LESSDEF3_PLANS).map(lambda plan: ("lessdef3", plan)),
    check=_trans(LESSDEF, _lessdef3_states),
)


def _ck_alloc_lessdef(case):
    m1, m2 = LESSDEF.states(case[1])
    if not relations.mem_lessdef(m1, m2):
        return None
    for low, high in ((0, 8), (2, 1)):
        r1 = memstate.alloc(m1, low, high)
        r2 = memstate.alloc(m2, low, high)
        if (r1 is None) != (r2 is None):
            return "parallel allocs disagree on success"
        if r1 is not None:
            if r1[0] != r2[0]:
                return "parallel allocs chose different blocks"
            if not relations.mem_lessdef(r1[1], r2[1]):
                return "alloc broke refinement"
    return None


deflaw(
    "alloc_lessdef",
    MEM_LESSDEF,
    "parallel allocation preserves refinement",
    family="relation",
    domain=LESSDEF.cases(),
    check=_ck_alloc_lessdef,
)

deflaw(
    "load_lessdef",
    MEM_LESSDEF,
    "loads transport along refinement",
    family="relation",
    domain=_pair_access(LESSDEF),
    check=_load_along(LESSDEF),
)


def _store_witness(m2, t, b, i, v):
    return memstate.set_contents(
        m2, b, cells.store_contents(memstate.contents_of(m2, b), t, i, v)
    )


def _ck_store_lessdef(case):
    _, plan, t, b, i, v1, v2 = case
    m1, m2 = LESSDEF.states(plan)
    if not relations.mem_lessdef(m1, m2):
        return "constructed pair fails the refinement hypothesis"
    if not relations.val_lessdef(v1, v2):
        return None
    m1p = memstate.store(t, m1, b, i, v1)
    if m1p is None:
        return None
    witness = _store_witness(m2, t, b, i, v2)
    actual = memstate.store(t, m2, b, i, v2)
    if actual != witness:
        return "store on the refined state is not the contents-rebuild witness"
    if not relations.mem_lessdef(m1p, witness):
        return "constructed witness does not preserve refinement"
    return None


deflaw(
    "store_lessdef",
    MEM_LESSDEF,
    "a refined store admits the contents-rebuild witness",
    family="relation",
    domain=_pair_store(LESSDEF, (Vint(4), VUNDEF)),
    check=_ck_store_lessdef,
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
    m1, m2 = EXTENDS.states(plan)
    return m1, m2, EXTENDS.states(widen_plan(plan, widenings))[1]


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


def _ck_alloc_extends(case):
    m1, m2 = EXTENDS.states(case[1])
    if not relations.mem_extends(m1, m2):
        return None
    for (l1, h1), (dl, dh) in (((0, 8), (0, 0)), ((0, 4), (4, 8)), ((2, 1), (0, 4))):
        r1 = memstate.alloc(m1, l1, h1)
        r2 = memstate.alloc(m2, l1 - dl, h1 + dh)
        if r1 is None or r2 is None:
            continue
        if r1[0] != r2[0]:
            return "parallel allocs chose different blocks"
        if not relations.mem_extends(r1[1], r2[1]):
            return "widened parallel alloc broke extension"
    return None


deflaw(
    "alloc_extends",
    MEM_EXTENDS,
    "parallel allocation with containing bounds preserves extension",
    family="relation",
    domain=EXTENDS.cases(),
    check=_ck_alloc_extends,
)

deflaw(
    "load_extends",
    MEM_EXTENDS,
    "loads transport along extension",
    family="relation",
    domain=_pair_access(EXTENDS),
    check=_load_along(EXTENDS),
)


def _ck_store_within_extends(case):
    _, plan, t, b, i, v1, v2 = case
    m1, m2 = EXTENDS.states(plan)
    if not relations.mem_extends(m1, m2) or not relations.val_lessdef(v1, v2):
        return None
    m1p = memstate.store(t, m1, b, i, v1)
    if m1p is None:
        return None
    m2p = memstate.store(t, m2, b, i, v2)
    if m2p is None:
        return "extended state rejects a store inside the original bounds"
    if not relations.mem_extends(m1p, m2p):
        return "in-bounds store broke extension"
    return None


deflaw(
    "store_within_extends",
    MEM_EXTENDS,
    "a store inside the original bounds preserves extension",
    family="relation",
    domain=_pair_store(EXTENDS, (Vint(4),)),
    check=_ck_store_within_extends,
)


def _margin_slots(m1, m2, limit=3):
    out = []
    for b, l1, h1, _ in memstate.live_blocks(m1):
        l2, h2 = memstate.bounds(m2, b)
        for t, i in relations._access_list(h1, h2, True)[:limit]:
            out.append((t, b, i))
        for t, i in relations._access_list(l2, l1, True)[:limit]:
            out.append((t, b, i))
    return out


def _ck_store_outside_extends(case):
    _, plan, t, b, i, v = case
    m1, m2 = EXTENDS.states(plan)
    if not relations.mem_extends(m1, m2):
        return None
    l1, h1 = memstate.bounds(m1, b)
    if not (i + chunks.size_chunk(t) <= l1 or i >= h1):
        return None
    m2p = memstate.store(t, m2, b, i, v)
    if m2p is None:
        return None
    if not relations.mem_extends(m1, m2p):
        return "a store outside the original bounds broke extension"
    return None


deflaw(
    "store_outside_extends",
    MEM_EXTENDS,
    "a right-side store outside the original bounds preserves extension",
    family="relation",
    domain=EXTENDS.cases(
        lambda r1, r2: pick(_margin_slots(r1.state, r2.state)),
        lambda r1, r2: tuples(_value((), (Vint(13),))),
    ),
    check=_ck_store_outside_extends,
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


class _EmbRel(NamedTuple):
    """A relation over (embedding, left state, right state).  The checkers
    are called through ``relations`` so that a rebinding there (a seeded
    mutation, a tracing wrapper) is seen."""

    noun: str  # for failure details
    holds: Callable


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


def _holds(rel: _EmbRel, sc) -> bool:
    return rel.holds(sc.emb, sc.m1, sc.m2)


def _mapped_sources(sc, mapped: bool = True):
    """The valid left blocks that the embedding maps (or, with ``mapped``
    false, leaves unmapped)."""
    return [
        b for b in sc.src_ids if (b in sc.emb) == mapped and memstate.valid_block(sc.m1, b)
    ]


def _mapped_accesses(sc, limit):
    return _accesses(sc.m1, _mapped_sources(sc), limit)


def _unmapped_accesses(sc, limit):
    return _accesses(sc.m1, _mapped_sources(sc, mapped=False), limit)


def _extra_accesses(sc, limit):
    return _accesses(sc.m2, sc.extra_ids, limit)


def _valid_sources(sc):
    return [b for b in sc.src_ids if memstate.valid_block(sc.m1, b)]


def _sole_pairs(sc):
    """Own-target pairs whose source is still valid."""
    return [
        (src, tgt)
        for src, tgt, _ in sc.own_pairs
        if memstate.valid_block(sc.m1, src) and memstate.valid_block(sc.m2, tgt)
    ]


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


def _emb(*tails, **plans):
    """Cases ("emb", plan) + a tuple of each ``tail(scenario)`` in turn,
    over the plans of ``_emb_plans(**plans)``."""
    head = _emb_plans(**plans).map(lambda plan: ("emb", plan))
    return extend(head, *(lambda case, t=t: t(emb_scenario_cached(case[1])) for t in tails))


_EMB_ACCESS = _emb(
    lambda sc: pick(_mapped_accesses(sc, 6), _mapped_accesses(sc, 3)), need_mapped=True
)
_EMB_FREE = _emb(lambda sc: tuples(pick(_valid_sources(sc))))
_FREE_PARALLEL = _emb(lambda sc: tuples(pick(_sole_pairs(sc))))


def _bounds(lows, spans):
    """Alloc bounds (low, low + span), enumerated at ``lows`` and ``spans``."""
    of_low = lambda low: pick((0, 2, 4, 8), spans).map(lambda span: (low, low + span))
    return bind(ints(-4, 4, lows), of_low)


def _emb_alloc(overlap):
    return _emb(lambda sc: _bounds((-4, 0), (0, 4, 8)), overlap=overlap)


_REQUESTS = lists(ints(0, 3, (0, 1, 2)), _bounds((0,), (4, 8)))


def _emb_reqs(overlap):
    return _emb(lambda sc: tuples(_REQUESTS), overlap=overlap)


def _subset(items):
    """Each item kept or left out with even odds."""
    keep = tuples(*[pick((True, False))] * len(items))
    return keep.map(lambda kept: tuple(x for x, k in zip(items, kept) if k))


_EMB_FREE_LIST = _emb(lambda sc: tuples(_subset(_valid_sources(sc))))


# Operations on one state: (state, *assignment) -> state after, or None.


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


def _one_sided(rel: _EmbRel, side: str, op, what: str, applies=None):
    """``rel`` survives ``op(m, *assignment)`` on one side, "left" or
    "right"; ``applies(scenario, *assignment)`` is the law's own
    hypothesis."""
    left = side == "left"

    def check(case):
        sc = emb_scenario_cached(case[1])
        args = case[2:]
        if applies is not None and not applies(sc, *args):
            return None
        if not _holds(rel, sc):
            return None
        m = op(sc.m1 if left else sc.m2, *args)
        if m is None:
            return None
        if not (rel.holds(sc.emb, m, sc.m2) if left else rel.holds(sc.emb, sc.m1, m)):
            return f"{what} broke the {rel.noun}"
        return None

    return check


# The one-sided laws' own hypotheses on their target block.
def _unmapped_store(sc, t, b, i, v):
    return b not in sc.emb


def _extra_store(sc, t, b, i, v):
    return b in sc.extra_ids


def _extra_block(sc, b):
    return b in sc.extra_ids


def _alloc_left_unmapped(rel: _EmbRel):
    def check(case):
        _, plan, low, high = case
        sc = emb_scenario_cached(plan)
        if not _holds(rel, sc):
            return None
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

    def check(case):
        _, plan, span = case
        if plan.overlap:
            return None
        sc = emb_scenario_cached(plan)
        if sc.hole is None or span > sc.hole[2]:
            return None
        if not _holds(rel, sc):
            return f"constructed scenario fails the {rel.noun} hypothesis"
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
    bind(pick((8, 16)), lambda hole: _emb_plans(_NO_OVERLAP, hole_span=hole)),
    pick((0, 2, 4, 8), (0, 4, 8)),
)


def _free_pair(rel: _EmbRel):
    """Freeing a block together with its private image keeps ``rel``."""

    def check(case):
        _, plan, (src, tgt) = case
        sc = emb_scenario_cached(plan)
        if not _holds(rel, sc):
            return None
        m1p = memstate.free(sc.m1, src)
        m2p = memstate.free(sc.m2, tgt)
        if m1p is None or m2p is None:
            return None
        if not rel.holds(sc.emb, m1p, m2p):
            return f"freeing a private pair broke the {rel.noun}"
        return None

    return check


# --- embeddings (Rel_Mem) ------------------------------------------------------------


def _ck_valid_pointer_emb(case):
    _, plan, t, b1, i = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
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
        lambda d: ints(-8, 8).map(lambda k: k * chunks.align_chunk(d[1])),
        ints(-4, 4, (-2, -1, 0, 1, 2)).map(lambda k: 8 * k),
    ),
    check=_ck_alignment_shift,
)


def _emb_value_pair(sc):
    """Two values related through the embedding."""

    def pointer(b):
        tb, d = sc.emb[b]
        return ints(-2, 6, (0,)).map(lambda po: (Vptr(b, po), Vptr(tb, po + d)))

    mapped = [b for b in sc.src_ids if b in sc.emb]
    return branch(
        (1, pick((Vint(5), VUNDEF), (Vint(5),)).map(lambda v: (VUNDEF, v))),
        (3, ints(-8, 300, (6,)).map(_int_pair)),
        (1, pick(generators.FLOAT_POOL, ()).map(lambda f: (Vfloat(f.bits), Vfloat(f.bits)))),
        (3, bind(pick(mapped, mapped[:1]), pointer) if mapped else ints(-8, 8, ()).map(_int_pair)),
    )


def _int_pair(n):
    return Vint(n), Vint(n)


_STORE_MAPPED = _emb(
    lambda sc: pick(_mapped_accesses(sc, 6), _mapped_accesses(sc, 2)),
    _emb_value_pair,
    need_mapped=True,
)


def _ck_store_mapped_emb(case):
    _, plan, t, b1, i, v1, v2 = case
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not _holds(EMB_APART, sc) or not relations.val_emb(emb, v1, v2):
        return None
    m1p = memstate.store(t, sc.m1, b1, i, v1)
    if m1p is None:
        return None
    b2, delta = emb[b1]
    witness = _store_witness(sc.m2, t, b2, i + delta, v2)
    actual = memstate.store(t, sc.m2, b2, i + delta, v2)
    if actual != witness:
        return "relocated store is not the contents-rebuild witness"
    if not relations.mem_emb(emb, m1p, witness):
        return "relocated store broke the embedding"
    return None


deflaw(
    "store_mapped_emb",
    REL_MEM,
    "a store relocates through a non-overlapping embedding",
    family="relation",
    domain=_STORE_MAPPED,
    check=_ck_store_mapped_emb,
)

_STORE_UNMAPPED = _emb(
    lambda sc: pick(_unmapped_accesses(sc, 6)), lambda sc: tuples(_value(sc.src_ids, (Vint(3),)))
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
        lambda sc: pick(_extra_accesses(sc, 6)), lambda sc: tuples(_value((), (Vint(8),)))
    ),
    check=_one_sided(EMB, "right", _do_store, "a store outside every image", _extra_store),
)


def _ck_alloc_parallel_emb(case):
    _, plan, low, high = case
    if plan.overlap:
        return None
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not relations.emb_no_overlap(emb, sc.m1):
        return "constructed scenario fails the no-overlap hypothesis"
    if not relations.mem_emb(emb, sc.m1, sc.m2):
        return "constructed scenario fails the embedding hypothesis"
    r1 = memstate.alloc(sc.m1, low, high)
    r2 = memstate.alloc(sc.m2, low, high)
    if r1 is None or r2 is None:
        return "parallel allocation failed under the default policy"
    b1, m1p = r1
    b2, m2p = r2
    emb2 = dict(emb)
    emb2[b1] = (b2, 0)
    if not relations.emb_incr(emb, emb2):
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
    domain=_emb(lambda sc: tuples(pick(sc.extra_ids))),
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


def _ck_free_list_free_parallel_emb(case):
    sc = emb_scenario_cached(case[1])
    pairs = _sole_pairs(sc)
    if not pairs or not relations.mem_emb(sc.emb, sc.m1, sc.m2):
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


def _ck_load_inject(case):
    _, plan, t, b1, i = case
    sc = emb_scenario_cached(plan)
    if not _holds(INJECT, sc):
        return None
    v1 = memstate.load(t, sc.m1, b1, i)
    if v1 is None:
        return None
    b2, delta = sc.emb[b1]
    v2 = memstate.load(t, sc.m2, b2, i + delta)
    if v2 is None:
        return "target load failed under an injection"
    if not relations.val_emb(sc.emb, v1, v2):
        return f"loads do not relate through the injection: {v1!r} vs {v2!r}"
    return None


deflaw(
    "load_inject",
    MEM_INJECT,
    "loads transport along an injection",
    family="relation",
    domain=_EMB_ACCESS,
    check=_ck_load_inject,
)


def _mapped_store_inject(op, what: str):
    """A store through ``op`` at a mapped location and its relocated twin
    keep the injection."""

    def check(case):
        _, plan, t, b1, i, v1, v2 = case
        sc = emb_scenario_cached(plan)
        if not _holds(INJECT, sc) or not relations.val_emb(sc.emb, v1, v2):
            return None
        m1p = op(sc.m1, t, b1, i, v1)
        if m1p is None:
            return None
        b2, delta = sc.emb[b1]
        m2p = op(sc.m2, t, b2, i + delta, v2)
        if m2p is None:
            return f"{what} failed on the relocated address"
        if not relations.mem_inject(sc.emb, m1p, m2p):
            return f"a {what} broke the injection"
        return None

    return check


deflaw(
    "store_mapped_inject",
    MEM_INJECT,
    "mapped stores preserve the injection",
    family="relation",
    domain=_STORE_MAPPED,
    check=_mapped_store_inject(_do_store, "mapped store"),
)

deflaw(
    "store_unmapped_inject",
    MEM_INJECT,
    "stores in unmapped blocks preserve the injection",
    family="relation",
    domain=_STORE_UNMAPPED,
    check=_one_sided(INJECT, "left", _do_store, "a store in an unmapped block", _unmapped_store),
)


def _ck_loadv_inject(case):
    _, plan, t, b1, i = case
    sc = emb_scenario_cached(plan)
    if not _holds(INJECT, sc):
        return None
    a1 = Vptr(b1, i)
    v1 = memstate.loadv(t, sc.m1, a1)
    if v1 is None:
        return None
    b2, delta = sc.emb[b1]
    a2 = Vptr(b2, i + delta)
    if not relations.val_emb(sc.emb, a1, a2):
        return "constructed addresses do not relate"
    v2 = memstate.loadv(t, sc.m2, a2)
    if v2 is None:
        return "value-addressed load failed on the relocated address"
    if not relations.val_emb(sc.emb, v1, v2):
        return "value-addressed loads do not relate"
    return None


deflaw(
    "loadv_inject",
    MEM_INJECT,
    "value-addressed loads transport along an injection",
    family="relation",
    domain=_EMB_ACCESS,
    check=_ck_loadv_inject,
)

deflaw(
    "storev_inject",
    MEM_INJECT,
    "value-addressed stores preserve the injection",
    family="relation",
    domain=_STORE_MAPPED,
    check=_mapped_store_inject(_do_storev, "value-addressed store"),
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


def _fresh_mapping(sc):
    """A block id above the sources, a target (an extra one if there is
    one) and a delta."""
    top = max(sc.src_ids, default=0)
    target = pick(sc.extra_ids) if sc.extra_ids else const(1)
    return tuples(ints(top + 1, top + 3, (top + 1,)), target, ints(-2, 2).map(lambda k: 8 * k))


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
    domain=_emb(_fresh_mapping),
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


def _ck_alloc_list_left_inject(case):
    _, plan, reqs = case
    sc = emb_scenario_cached(plan)
    if not _holds(INJECT, sc):
        return None
    r = memstate.alloc_list(sc.m1, reqs)
    if r is None:
        return None
    if not relations.mem_inject(sc.emb, r[1], sc.m2):
        return "left-side alloc_list broke the injection"
    return None


deflaw(
    "alloc_list_left_inject",
    MEM_INJECT,
    "left-side alloc_list of unmapped blocks preserves the injection",
    family="relation",
    domain=_emb_reqs(_OVERLAP_SOME),
    check=_ck_alloc_list_left_inject,
)


def _pack_requests(reqs):
    deltas = []
    cursor = 0
    for low, high in reqs:
        d = generators._ceil8(cursor - low)
        deltas.append(d)
        if high > low:
            cursor = generators._ceil8(high + d)
    return deltas, cursor


def _ck_alloc_list_alloc_inject(case):
    _, plan, reqs = case
    if plan.overlap:
        return None
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not relations.mem_inject(emb, sc.m1, sc.m2):
        return "constructed scenario fails the injection hypothesis"
    r = memstate.alloc_list(sc.m1, reqs)
    if r is None:
        return "alloc_list failed under the default policy"
    bs, m1p = r
    deltas, total = _pack_requests(reqs)
    r2 = memstate.alloc(sc.m2, 0, total)
    if r2 is None:
        return "covering allocation failed under the default policy"
    b2, m2p = r2
    emb2 = dict(emb)
    for b, d in zip(bs, deltas):
        emb2[b] = (b2, d)
    if not relations.emb_incr(emb, emb2):
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
