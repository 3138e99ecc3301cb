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

A law is assembled from a domain, an enumerator over a fixed plan menu
and a sampler over a shared plan stream (``_ex_pair_access``/
``_sm_pair_access``, ``_ex_emb_pick``/``_sm_emb_pick``), and one check
per property.  A property stated for several relations is written once
and takes the relation as a parameter: ``LESSDEF`` and ``EXTENDS`` for
the pair relations, ``EMB``, ``EMB_APART``, ``INJECT`` and
``NO_OVERLAP`` for the embedding family (``_load_along(LESSDEF)``,
``_one_sided(INJECT, ...)``); an operation that comes in two forms, such
as ``free``/``free_list`` or ``store``/``storev``, is a parameter too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

from .. import cells, chunks, memstate, relations
from ..chunks import ALL_CHUNKS, Chunk, Vfloat, Vint, Vptr, VUNDEF
from . import generators
from .generators import EmbPlan
from .laws_base import (
    MEM_EXTENDS,
    MEM_INJECT,
    MEM_LESSDEF,
    REL_MEM,
    deflaw,
    emb_scenario_cached,
    extends_pair_cached,
    lessdef_pair_cached,
    state_of,
)

_OVERLAP_SOME = (1, 6)
_NO_OVERLAP = (0, 1)


def _sm_state(rng):
    return ("state", generators.shared_ops(rng))


def _ex_states():
    for ops, _ in generators.tiny_states_small():
        yield ("state", ops)


def _live(m):
    return [b for b, _, _, _ in memstate.live_blocks(m)]


def _accesses(m, blocks, limit):
    """The first ``limit`` valid (chunk, block, offset) of each block."""
    return [(t, b, i) for b in blocks for t, i in relations.valid_accesses(m, b)[:limit]]


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
    draw: Callable  # rng -> a plan of the shared domain
    plans: tuple  # the exhaustive plan menu

    def states(self, plan):
        r1, r2, _, _ = self.build(plan)
        return r1.state, r2.state


LESSDEF = _Pair(
    "lessdef",
    "refinement",
    "refined",
    lambda m1, m2: relations.mem_lessdef(m1, m2),
    lessdef_pair_cached,
    generators.shared_lessdef_plan,
    EX_LESSDEF_PLANS,
)
EXTENDS = _Pair(
    "extends",
    "extension",
    "extended",
    lambda m1, m2: relations.mem_extends(m1, m2),
    extends_pair_cached,
    generators.shared_extends_plan,
    EX_EXTENDS_PLANS,
)


def _sm_pair(rel: _Pair):
    return lambda rng: (rel.tag, rel.draw(rng))


def _ex_pair(rel: _Pair):
    return lambda: ((rel.tag, plan) for plan in rel.plans)


def _sm_pair_access(rel: _Pair):
    """A plan plus a valid access of its left state, or a skip."""

    def sample(rng):
        plan = rel.draw(rng)
        acc = generators.sample_valid_access(rng, rel.states(plan)[0])
        if acc is None:
            return ("skip",)
        return (rel.tag, plan) + acc

    return sample


def _ex_pair_access(rel: _Pair, limit: int, tails=((),)):
    def gen():
        for plan in rel.plans:
            m1 = rel.states(plan)[0]
            for acc in _accesses(m1, _live(m1), limit):
                for tail in tails:
                    yield (rel.tag, plan) + acc + tail

    return gen


def _sm_pair_store(rel: _Pair):
    """A plan, a valid access of its left state and a pair of values, the
    left one undefined a third of the time."""
    draw_access = _sm_pair_access(rel)

    def sample(rng):
        case = draw_access(rng)
        if case[0] == "skip":
            return case
        v2 = generators.sample_value(rng, tuple(range(1, rel.states(case[1])[0].nextblock)))
        v1 = VUNDEF if rng.chance(1, 3) else v2
        return case + (v1, v2)

    return sample


def _sm_pair_free(rel: _Pair):
    def sample(rng):
        plan = rel.draw(rng)
        blocks = _live(rel.states(plan)[0])
        if not blocks:
            return ("skip",)
        return (rel.tag, plan, rng.choice(blocks))

    return sample


def _ex_pair_free(rel: _Pair):
    return lambda: ((rel.tag, plan, b) for plan in rel.plans for b in _live(rel.states(plan)[0]))


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
    exhaustive=_ex_states,
    sample=_sm_state,
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


def _ex_lessdef_trans():
    for plan in EX_LESSDEF_PLANS:
        steps = tuple(
            ("store3",) + st[1:4] + (st[4], st[5], st[5]) if st[0] == "store2" else st
            for st in plan
        )
        yield ("lessdef3", steps)


deflaw(
    "mem_lessdef_trans",
    MEM_LESSDEF,
    "refinement composes",
    family="relation",
    exhaustive=_ex_lessdef_trans,
    sample=lambda rng: ("lessdef3", _sample_lessdef3_plan(rng)),
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
    exhaustive=_ex_pair(LESSDEF),
    sample=_sm_pair(LESSDEF),
    check=_ck_alloc_lessdef,
)

deflaw(
    "load_lessdef",
    MEM_LESSDEF,
    "loads transport along refinement",
    family="relation",
    exhaustive=_ex_pair_access(LESSDEF, 4),
    sample=_sm_pair_access(LESSDEF),
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


_STORE_VALUES = ((Vint(4), Vint(4)), (VUNDEF, Vint(4)), (VUNDEF, VUNDEF))

deflaw(
    "store_lessdef",
    MEM_LESSDEF,
    "a refined store admits the contents-rebuild witness",
    family="relation",
    exhaustive=_ex_pair_access(LESSDEF, 2, _STORE_VALUES),
    sample=_sm_pair_store(LESSDEF),
    check=_ck_store_lessdef,
)

deflaw(
    "free_lessdef",
    MEM_LESSDEF,
    "parallel free preserves refinement",
    family="relation",
    exhaustive=_ex_pair_free(LESSDEF),
    sample=_sm_pair_free(LESSDEF),
    check=_free_along(LESSDEF),
)


# --- extension (Mem_Extends) --------------------------------------------------------


deflaw(
    "mem_extends_refl",
    MEM_EXTENDS,
    "extension is reflexive",
    family="relation",
    exhaustive=_ex_states,
    sample=_sm_state,
    check=_refl(EXTENDS),
)


def _widen_plan(plan, widenings):
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


def _extends3_states(case):
    _, plan, widenings = case
    m1, m2 = EXTENDS.states(plan)
    return m1, m2, EXTENDS.states(_widen_plan(plan, widenings))[1]


def _sm_extends_trans(rng):
    plan = generators.shared_extends_plan(rng)
    widenings = tuple((rng.choice((0, 4)), rng.choice((0, 8))) for _ in range(3))
    return ("extends3", plan, widenings)


def _ex_extends_trans():
    for plan in EX_EXTENDS_PLANS:
        yield ("extends3", plan, ((4, 0), (0, 8)))


deflaw(
    "mem_extends_trans",
    MEM_EXTENDS,
    "extension composes",
    family="relation",
    exhaustive=_ex_extends_trans,
    sample=_sm_extends_trans,
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
    exhaustive=_ex_pair(EXTENDS),
    sample=_sm_pair(EXTENDS),
    check=_ck_alloc_extends,
)

deflaw(
    "load_extends",
    MEM_EXTENDS,
    "loads transport along extension",
    family="relation",
    exhaustive=_ex_pair_access(EXTENDS, 4),
    sample=_sm_pair_access(EXTENDS),
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
    exhaustive=_ex_pair_access(EXTENDS, 2, _STORE_VALUES[:2]),
    sample=_sm_pair_store(EXTENDS),
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


def _sm_store_outside_extends(rng):
    plan = generators.shared_extends_plan(rng)
    slots = _margin_slots(*EXTENDS.states(plan))
    if not slots:
        return ("skip",)
    t, b, i = rng.choice(slots)
    return ("extends", plan, t, b, i, generators.sample_value(rng, ()))


def _ex_store_outside_extends():
    for plan in EX_EXTENDS_PLANS:
        for t, b, i in _margin_slots(*EXTENDS.states(plan), 2):
            yield ("extends", plan, t, b, i, Vint(13))


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
    exhaustive=_ex_store_outside_extends,
    sample=_sm_store_outside_extends,
    check=_ck_store_outside_extends,
)

deflaw(
    "free_extends",
    MEM_EXTENDS,
    "parallel free preserves extension",
    family="relation",
    exhaustive=_ex_pair_free(EXTENDS),
    sample=_sm_pair_free(EXTENDS),
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


def _sm_emb_pick(pick, then=None, **kw):
    """A shared embedding plan and one of the tuples ``pick(scenario)``,
    or a skip when there is none; ``then(rng, scenario)`` appends a tail."""

    def sample(rng):
        plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME, **kw)
        sc = emb_scenario_cached(plan)
        choices = pick(sc)
        if not choices:
            return ("skip",)
        case = ("emb", plan) + rng.choice(choices)
        return case if then is None else case + then(rng, sc)

    return sample


def _ex_emb_pick(pick, tails=((),)):
    """Every tuple of ``pick(scenario)`` on every menu plan, with each tail."""

    def gen():
        for plan in EX_EMB_PLANS:
            for head in pick(emb_scenario_cached(plan)):
                for tail in tails:
                    yield ("emb", plan) + head + tail

    return gen


def _ex_emb_fixed(tails):
    return lambda: (("emb", plan) + tail for plan in EX_EMB_PLANS for tail in tails)


def _one_field(pick):
    """``pick`` with each item made a one-field tail."""
    return lambda sc: [(x,) for x in pick(sc)]


_ex_emb_access = _ex_emb_pick(lambda sc: _mapped_accesses(sc, 3))
_sm_emb_access = _sm_emb_pick(lambda sc: _mapped_accesses(sc, 6), need_mapped=True)
_ex_emb_free = _ex_emb_pick(_one_field(_valid_sources))
_sm_emb_free = _sm_emb_pick(_one_field(_valid_sources))
_ex_free_parallel = _ex_emb_pick(_one_field(_sole_pairs))
_sm_free_parallel = _sm_emb_pick(_one_field(_sole_pairs))
_ex_emb_alloc = _ex_emb_fixed(((0, 8), (0, 0), (-4, 4)))
_ex_emb_reqs = _ex_emb_fixed(
    tuple((reqs,) for reqs in ((), ((0, 4),), ((0, 8), (-4, 4)), ((2, 1), (0, 2), (0, 8))))
)


def _sm_emb_alloc(overlap):
    def sample(rng):
        plan = generators.shared_emb_plan(rng, overlap_chance=overlap)
        low = rng.randint(-4, 4)
        return ("emb", plan, low, low + rng.choice((0, 2, 4, 8)))

    return sample


def _sm_emb_reqs(overlap):
    def sample(rng):
        plan = generators.shared_emb_plan(rng, overlap_chance=overlap)
        reqs = []
        for _ in range(rng.below(4)):
            low = rng.randint(-4, 4)
            reqs.append((low, low + rng.choice((0, 2, 4, 8))))
        return ("emb", plan, tuple(reqs))

    return sample


def _sm_emb_free_list(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    srcs = _valid_sources(emb_scenario_cached(plan))
    return ("emb", plan, tuple(b for b in srcs if rng.chance(1, 2)))


def _ex_emb_free_list():
    for plan in EX_EMB_PLANS:
        srcs = _valid_sources(emb_scenario_cached(plan))
        yield ("emb", plan, tuple(srcs))
        if len(srcs) > 1:
            yield ("emb", plan, (srcs[0],))


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


def _sm_alloc_left_mapped(rng):
    plan = generators.shared_emb_plan(
        rng, overlap_chance=_NO_OVERLAP, hole_span=rng.choice((8, 16))
    )
    span = rng.choice((0, 2, 4, 8))
    return ("emb", plan, span)


def _ex_alloc_left_mapped():
    for hole in (8, 16):
        for plan in EX_EMB_PLANS[:6]:
            for span in (0, 4, 8):
                yield ("emb", replace(plan, hole_span=hole), span)


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
    exhaustive=_ex_emb_access,
    sample=_sm_emb_access,
    check=_ck_valid_pointer_emb,
)


def _ex_alignment_shift():
    for t in ALL_CHUNKS:
        for i in range(-16, 17):
            if i % chunks.align_chunk(t) == 0:
                for delta in (-16, -8, 0, 8, 16):
                    yield ("arith", t, i, delta)


def _sm_alignment_shift(rng):
    t = rng.choice(ALL_CHUNKS)
    i = rng.randint(-8, 8) * chunks.align_chunk(t)
    return ("arith", t, i, 8 * rng.randint(-4, 4))


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
    exhaustive=_ex_alignment_shift,
    sample=_sm_alignment_shift,
    check=_ck_alignment_shift,
)


def _emb_value_pair(rng, sc):
    mapped = [b for b in sc.src_ids if b in sc.emb]
    r = rng.below(8)
    if r < 1:
        return VUNDEF, (Vint(5) if rng.chance(1, 2) else VUNDEF)
    if r < 4:
        n = rng.randint(-8, 300)
        return Vint(n), Vint(n)
    if r < 5:
        bits = rng.choice(generators.FLOAT_POOL).bits
        return Vfloat(bits), Vfloat(bits)
    if mapped:
        b = rng.choice(mapped)
        po = rng.randint(-2, 6)
        tb, d = sc.emb[b]
        return Vptr(b, po), Vptr(tb, po + d)
    n = rng.randint(-8, 8)
    return Vint(n), Vint(n)


_ex_store_mapped = _ex_emb_pick(
    lambda sc: _mapped_accesses(sc, 2), ((Vint(6), Vint(6)), (VUNDEF, Vint(2)))
)
_sm_store_mapped = _sm_emb_pick(
    lambda sc: _mapped_accesses(sc, 6), _emb_value_pair, need_mapped=True
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
    exhaustive=_ex_store_mapped,
    sample=_sm_store_mapped,
    check=_ck_store_mapped_emb,
)

_ex_store_unmapped = _ex_emb_pick(lambda sc: _unmapped_accesses(sc, 2), ((Vint(3),),))
_sm_store_unmapped = _sm_emb_pick(
    lambda sc: _unmapped_accesses(sc, 6),
    lambda rng, sc: (generators.sample_value(rng, sc.src_ids),),
)

deflaw(
    "store_unmapped_emb",
    REL_MEM,
    "stores in unmapped blocks preserve the embedding",
    family="relation",
    exhaustive=_ex_store_unmapped,
    sample=_sm_store_unmapped,
    check=_one_sided(EMB, "left", _do_store, "a store in an unmapped block", _unmapped_store),
)

deflaw(
    "store_outside_emb",
    REL_MEM,
    "right-side stores outside every image preserve the embedding",
    family="relation",
    exhaustive=_ex_emb_pick(lambda sc: _extra_accesses(sc, 2), ((Vint(8),),)),
    sample=_sm_emb_pick(
        lambda sc: _extra_accesses(sc, 6),
        lambda rng, sc: (generators.sample_value(rng, ()),),
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
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc(_NO_OVERLAP),
    check=_ck_alloc_parallel_emb,
)

deflaw(
    "alloc_right_emb",
    REL_MEM,
    "right-side allocation preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc(_OVERLAP_SOME),
    check=_one_sided(EMB, "right", _do_alloc, "a right-side allocation"),
)

deflaw(
    "alloc_left_unmapped_emb",
    REL_MEM,
    "left-side allocation of an unmapped block preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc(_OVERLAP_SOME),
    check=_alloc_left_unmapped(EMB),
)

deflaw(
    "alloc_left_mapped_emb",
    REL_MEM,
    "a fresh left block maps into a reserved gap of the target",
    family="relation",
    exhaustive=_ex_alloc_left_mapped,
    sample=_sm_alloc_left_mapped,
    check=_alloc_left_mapped(EMB_APART),
)

deflaw(
    "free_left_emb",
    REL_MEM,
    "left-side free preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_free,
    sample=_sm_emb_free,
    check=_one_sided(EMB, "left", _do_free, "a left-side free"),
)

deflaw(
    "free_right_emb",
    REL_MEM,
    "freeing a target block outside every image preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_pick(_one_field(lambda sc: sc.extra_ids)),
    sample=_sm_emb_pick(_one_field(lambda sc: sc.extra_ids)),
    check=_one_sided(EMB, "right", _do_free, "freeing an imageless target block", _extra_block),
)

deflaw(
    "free_parallel_emb",
    REL_MEM,
    "freeing a block together with its private image preserves the embedding",
    family="relation",
    exhaustive=_ex_free_parallel,
    sample=_sm_free_parallel,
    check=_free_pair(EMB),
)

deflaw(
    "free_list_left_emb",
    REL_MEM,
    "left-side free_list preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_free_list,
    sample=_sm_emb_free_list,
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
    exhaustive=_ex_emb_fixed(((),)),
    sample=lambda rng: ("emb", generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)),
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
    exhaustive=_ex_emb_access,
    sample=_sm_emb_access,
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
    exhaustive=_ex_store_mapped,
    sample=_sm_store_mapped,
    check=_mapped_store_inject(_do_store, "mapped store"),
)

deflaw(
    "store_unmapped_inject",
    MEM_INJECT,
    "stores in unmapped blocks preserve the injection",
    family="relation",
    exhaustive=_ex_store_unmapped,
    sample=_sm_store_unmapped,
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
    exhaustive=_ex_emb_access,
    sample=_sm_emb_access,
    check=_ck_loadv_inject,
)

deflaw(
    "storev_inject",
    MEM_INJECT,
    "value-addressed stores preserve the injection",
    family="relation",
    exhaustive=_ex_store_mapped,
    sample=_sm_store_mapped,
    check=_mapped_store_inject(_do_storev, "value-addressed store"),
)

deflaw(
    "embedding_no_overlap_free",
    MEM_INJECT,
    "free preserves the no-overlap side condition",
    family="relation",
    exhaustive=_ex_emb_free,
    sample=_sm_emb_free,
    check=_one_sided(NO_OVERLAP, "left", _do_free, "a left-side free"),
)

deflaw(
    "embedding_no_overlap_free_list",
    MEM_INJECT,
    "free_list preserves the no-overlap side condition",
    family="relation",
    exhaustive=_ex_emb_free_list,
    sample=_sm_emb_free_list,
    check=_one_sided(NO_OVERLAP, "left", _do_free_list, "a left-side free_list"),
)

deflaw(
    "free_inject",
    MEM_INJECT,
    "freeing a block with its private image preserves the injection",
    family="relation",
    exhaustive=_ex_free_parallel,
    sample=_sm_free_parallel,
    check=_free_pair(INJECT),
)


def _sm_extend_incr(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    new_src = max(sc.src_ids, default=0) + 1 + rng.below(3)
    tgt = rng.choice(sc.extra_ids) if sc.extra_ids else 1
    return ("emb", plan, new_src, tgt, 8 * rng.randint(-2, 2))


def _ex_extend_incr():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        yield ("emb", plan, max(sc.src_ids, default=0) + 1, 1, 8)


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
    exhaustive=_ex_extend_incr,
    sample=_sm_extend_incr,
    check=_ck_extend_embedding_incr,
)

deflaw(
    "alloc_right_inject",
    MEM_INJECT,
    "right-side allocation preserves the injection",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc(_OVERLAP_SOME),
    check=_one_sided(INJECT, "right", _do_alloc, "a right-side allocation"),
)

deflaw(
    "alloc_left_unmapped_inject",
    MEM_INJECT,
    "left-side allocation of an unmapped block preserves the injection",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc(_OVERLAP_SOME),
    check=_alloc_left_unmapped(INJECT),
)

deflaw(
    "alloc_left_mapped_inject",
    MEM_INJECT,
    "a fresh left block maps into a reserved gap under the injection",
    family="relation",
    exhaustive=_ex_alloc_left_mapped,
    sample=_sm_alloc_left_mapped,
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
    exhaustive=_ex_emb_reqs,
    sample=_sm_emb_reqs(_OVERLAP_SOME),
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
    exhaustive=_ex_emb_reqs,
    sample=_sm_emb_reqs(_NO_OVERLAP),
    check=_ck_alloc_list_alloc_inject,
)
