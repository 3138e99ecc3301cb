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
"""

from __future__ import annotations

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


# --- refinement (Mem_Lessdef) -----------------------------------------------------


def _ck_lessdef_refl(case):
    m = state_of(case[1])
    if not relations.mem_lessdef(m, m):
        return "refinement is not reflexive on this state"
    return None


deflaw(
    "mem_lessdef_refl",
    MEM_LESSDEF,
    "refinement is reflexive",
    family="relation",
    exhaustive=_ex_states,
    sample=_sm_state,
    check=_ck_lessdef_refl,
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
            v3 = generators.sample_value(rng, tuple(j + 1 for j, p in enumerate(planned) if p[2]))
            v2 = VUNDEF if rng.chance(1, 3) else v3
            v1 = v2 if (v2 != VUNDEF and rng.chance(1, 2)) else VUNDEF if v2 == VUNDEF or rng.chance(1, 2) else v2
            if v2 == VUNDEF:
                v1 = VUNDEF
            steps.append(("store3", t, k, i, v1, v2, v3))
        elif planned:
            alive = [k for k, p in enumerate(planned) if p[2]]
            if alive:
                k = rng.choice(alive)
                planned[k][2] = False
                steps.append(("free", k))
    return tuple(steps)


def _build_lessdef3(plan):
    ops = ([], [], [])
    for st in plan:
        if st[0] == "store3":
            _, t, k, i, v1, v2, v3 = st
            for ops_k, v in zip(ops, (v1, v2, v3)):
                ops_k.append(("store", t, k, i, v))
        else:
            for ops_k in ops:
                ops_k.append(st)
    return tuple(state_of(tuple(o)) for o in ops)


def _ck_lessdef_trans(case):
    m1, m2, m3 = _build_lessdef3(case[1])
    if relations.mem_lessdef(m1, m2) and relations.mem_lessdef(m2, m3):
        if not relations.mem_lessdef(m1, m3):
            return "refinement chain does not compose"
    return None


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
    check=_ck_lessdef_trans,
)


def _sm_lessdef(rng):
    return ("lessdef", generators.shared_lessdef_plan(rng))


def _ex_lessdef():
    for plan in EX_LESSDEF_PLANS:
        yield ("lessdef", plan)


def _lessdef_states(case):
    r1, r2, _, _ = lessdef_pair_cached(case[1])
    return r1.state, r2.state


def _ck_alloc_lessdef(case):
    m1, m2 = _lessdef_states(case)
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
    exhaustive=_ex_lessdef,
    sample=_sm_lessdef,
    check=_ck_alloc_lessdef,
)


def _first_access(m, limit=2):
    out = []
    for b, _, _, _ in memstate.live_blocks(m):
        for acc in relations.valid_accesses(m, b)[:limit]:
            out.append((acc[0], b, acc[1]))
    return out


def _sm_lessdef_access(rng):
    plan = generators.shared_lessdef_plan(rng)
    m1, _ = _lessdef_states(("lessdef", plan))
    acc = generators.sample_valid_access(rng, m1)
    if acc is None:
        return ("skip",)
    return ("lessdef", plan) + acc


def _ex_lessdef_access():
    for plan in EX_LESSDEF_PLANS:
        m1, _ = _lessdef_states(("lessdef", plan))
        for acc in _first_access(m1, 4):
            yield ("lessdef", plan) + acc


def _ck_load_lessdef(case):
    if case[0] == "skip":
        return None
    _, plan, t, b, i = case
    m1, m2 = _lessdef_states(case)
    if not relations.mem_lessdef(m1, m2):
        return None
    v1 = memstate.load(t, m1, b, i)
    if v1 is None:
        return None
    v2 = memstate.load(t, m2, b, i)
    if v2 is None:
        return "refined state fails a load the original answers"
    if not relations.val_lessdef(v1, v2):
        return f"loads do not refine: {v1!r} vs {v2!r}"
    return None


deflaw(
    "load_lessdef",
    MEM_LESSDEF,
    "loads transport along refinement",
    family="relation",
    exhaustive=_ex_lessdef_access,
    sample=_sm_lessdef_access,
    check=_ck_load_lessdef,
)


def _store_witness(m2, t, b, i, v):
    return memstate.set_contents(
        m2, b, cells.store_contents(memstate.contents_of(m2, b), t, i, v)
    )


def _sm_store_lessdef(rng):
    plan = generators.shared_lessdef_plan(rng)
    m1, _ = _lessdef_states(("lessdef", plan))
    acc = generators.sample_valid_access(rng, m1)
    if acc is None:
        return ("skip",)
    t, b, i = acc
    v2 = generators.sample_value(rng, tuple(range(1, m1.nextblock)))
    v1 = VUNDEF if rng.chance(1, 3) else v2
    return ("lessdef", plan, t, b, i, v1, v2)


def _ex_store_lessdef():
    for plan in EX_LESSDEF_PLANS:
        m1, _ = _lessdef_states(("lessdef", plan))
        for t, b, i in _first_access(m1, 2):
            for v1, v2 in ((Vint(4), Vint(4)), (VUNDEF, Vint(4)), (VUNDEF, VUNDEF)):
                yield ("lessdef", plan, t, b, i, v1, v2)


def _ck_store_lessdef(case):
    if case[0] == "skip":
        return None
    _, plan, t, b, i, v1, v2 = case
    m1, m2 = _lessdef_states(case)
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
    exhaustive=_ex_store_lessdef,
    sample=_sm_store_lessdef,
    check=_ck_store_lessdef,
)


def _sm_lessdef_free(rng):
    plan = generators.shared_lessdef_plan(rng)
    m1, _ = _lessdef_states(("lessdef", plan))
    blocks = [b for b, _, _, _ in memstate.live_blocks(m1)]
    if not blocks:
        return ("skip",)
    return ("lessdef", plan, rng.choice(blocks))


def _ex_lessdef_free():
    for plan in EX_LESSDEF_PLANS:
        m1, _ = _lessdef_states(("lessdef", plan))
        for b, _, _, _ in memstate.live_blocks(m1):
            yield ("lessdef", plan, b)


def _ck_free_lessdef(case):
    if case[0] == "skip":
        return None
    _, plan, b = case
    m1, m2 = _lessdef_states(case)
    if not relations.mem_lessdef(m1, m2):
        return None
    r1 = memstate.free(m1, b)
    if r1 is None:
        return None
    r2 = memstate.free(m2, b)
    if r2 is None:
        return "refined state fails a free the original allows"
    if not relations.mem_lessdef(r1, r2):
        return "free broke refinement"
    return None


deflaw(
    "free_lessdef",
    MEM_LESSDEF,
    "parallel free preserves refinement",
    family="relation",
    exhaustive=_ex_lessdef_free,
    sample=_sm_lessdef_free,
    check=_ck_free_lessdef,
)


# --- extension (Mem_Extends) --------------------------------------------------------


def _ck_extends_refl(case):
    m = state_of(case[1])
    if not relations.mem_extends(m, m):
        return "extension is not reflexive on this state"
    return None


deflaw(
    "mem_extends_refl",
    MEM_EXTENDS,
    "extension is reflexive",
    family="relation",
    exhaustive=_ex_states,
    sample=_sm_state,
    check=_ck_extends_refl,
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


def _ck_extends_trans(case):
    _, plan, widenings = case
    r1, r2, _, _ = extends_pair_cached(plan)
    _, r3, _, _ = extends_pair_cached(_widen_plan(plan, widenings))
    m1, m2, m3 = r1.state, r2.state, r3.state
    if relations.mem_extends(m1, m2) and relations.mem_extends(m2, m3):
        if not relations.mem_extends(m1, m3):
            return "extension chain does not compose"
    return None


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
    check=_ck_extends_trans,
)


def _extends_states(case):
    r1, r2, _, _ = extends_pair_cached(case[1])
    return r1.state, r2.state


def _sm_extends(rng):
    return ("extends", generators.shared_extends_plan(rng))


def _ex_extends():
    for plan in EX_EXTENDS_PLANS:
        yield ("extends", plan)


def _ck_alloc_extends(case):
    m1, m2 = _extends_states(case)
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
    exhaustive=_ex_extends,
    sample=_sm_extends,
    check=_ck_alloc_extends,
)


def _sm_extends_access(rng):
    plan = generators.shared_extends_plan(rng)
    m1, _ = _extends_states(("extends", plan))
    acc = generators.sample_valid_access(rng, m1)
    if acc is None:
        return ("skip",)
    return ("extends", plan) + acc


def _ex_extends_access():
    for plan in EX_EXTENDS_PLANS:
        m1, _ = _extends_states(("extends", plan))
        for acc in _first_access(m1, 4):
            yield ("extends", plan) + acc


def _ck_load_extends(case):
    if case[0] == "skip":
        return None
    _, plan, t, b, i = case
    m1, m2 = _extends_states(case)
    if not relations.mem_extends(m1, m2):
        return None
    v1 = memstate.load(t, m1, b, i)
    if v1 is None:
        return None
    v2 = memstate.load(t, m2, b, i)
    if v2 is None:
        return "extended state fails a load the original answers"
    if not relations.val_lessdef(v1, v2):
        return f"loads do not refine across extension: {v1!r} vs {v2!r}"
    return None


deflaw(
    "load_extends",
    MEM_EXTENDS,
    "loads transport along extension",
    family="relation",
    exhaustive=_ex_extends_access,
    sample=_sm_extends_access,
    check=_ck_load_extends,
)


def _sm_store_within_extends(rng):
    plan = generators.shared_extends_plan(rng)
    m1, _ = _extends_states(("extends", plan))
    acc = generators.sample_valid_access(rng, m1)
    if acc is None:
        return ("skip",)
    t, b, i = acc
    v2 = generators.sample_value(rng, tuple(range(1, m1.nextblock)))
    v1 = VUNDEF if rng.chance(1, 3) else v2
    return ("extends", plan, t, b, i, v1, v2)


def _ex_store_within_extends():
    for plan in EX_EXTENDS_PLANS:
        m1, _ = _extends_states(("extends", plan))
        for t, b, i in _first_access(m1, 2):
            for v1, v2 in ((Vint(4), Vint(4)), (VUNDEF, Vint(4))):
                yield ("extends", plan, t, b, i, v1, v2)


def _ck_store_within_extends(case):
    if case[0] == "skip":
        return None
    _, plan, t, b, i, v1, v2 = case
    m1, m2 = _extends_states(case)
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
    exhaustive=_ex_store_within_extends,
    sample=_sm_store_within_extends,
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
    m1, m2 = _extends_states(("extends", plan))
    slots = _margin_slots(m1, m2)
    if not slots:
        return ("skip",)
    t, b, i = rng.choice(slots)
    return ("extends", plan, t, b, i, generators.sample_value(rng, ()))


def _ex_store_outside_extends():
    for plan in EX_EXTENDS_PLANS:
        m1, m2 = _extends_states(("extends", plan))
        for t, b, i in _margin_slots(m1, m2, 2):
            yield ("extends", plan, t, b, i, Vint(13))


def _ck_store_outside_extends(case):
    if case[0] == "skip":
        return None
    _, plan, t, b, i, v = case
    m1, m2 = _extends_states(case)
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


def _sm_extends_free(rng):
    plan = generators.shared_extends_plan(rng)
    m1, _ = _extends_states(("extends", plan))
    blocks = [b for b, _, _, _ in memstate.live_blocks(m1)]
    if not blocks:
        return ("skip",)
    return ("extends", plan, rng.choice(blocks))


def _ex_extends_free():
    for plan in EX_EXTENDS_PLANS:
        m1, _ = _extends_states(("extends", plan))
        for b, _, _, _ in memstate.live_blocks(m1):
            yield ("extends", plan, b)


def _ck_free_extends(case):
    if case[0] == "skip":
        return None
    _, plan, b = case
    m1, m2 = _extends_states(case)
    if not relations.mem_extends(m1, m2):
        return None
    r1 = memstate.free(m1, b)
    if r1 is None:
        return None
    r2 = memstate.free(m2, b)
    if r2 is None:
        return "extended state fails a parallel free"
    if not relations.mem_extends(r1, r2):
        return "parallel free broke extension"
    return None


deflaw(
    "free_extends",
    MEM_EXTENDS,
    "parallel free preserves extension",
    family="relation",
    exhaustive=_ex_extends_free,
    sample=_sm_extends_free,
    check=_ck_free_extends,
)


# --- embeddings (Rel_Mem) ------------------------------------------------------------


def _sm_emb(rng, **kw):
    return ("emb", generators.shared_emb_plan(rng, **kw))


def _ex_emb():
    for plan in EX_EMB_PLANS:
        yield ("emb", plan)


def _mapped_accesses(sc, limit=3):
    out = []
    for b1 in sc.src_ids:
        if b1 not in sc.emb or not memstate.valid_block(sc.m1, b1):
            continue
        for t, i in relations.valid_accesses(sc.m1, b1)[:limit]:
            out.append((t, b1, i))
    return out


def _sm_emb_access(rng, overlap=_OVERLAP_SOME):
    plan = generators.shared_emb_plan(rng, overlap_chance=overlap, need_mapped=True)
    sc = emb_scenario_cached(plan)
    accs = _mapped_accesses(sc, 6)
    if not accs:
        return ("skip",)
    return ("emb", plan) + rng.choice(accs)


def _ex_emb_access():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for acc in _mapped_accesses(sc):
            yield ("emb", plan) + acc


def _ck_valid_pointer_emb(case):
    if case[0] == "skip":
        return None
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


def _sm_store_mapped(rng, overlap):
    plan = generators.shared_emb_plan(rng, overlap_chance=overlap, need_mapped=True)
    sc = emb_scenario_cached(plan)
    accs = _mapped_accesses(sc, 6)
    if not accs:
        return ("skip",)
    t, b1, i = rng.choice(accs)
    v1, v2 = _emb_value_pair(rng, sc)
    return ("emb", plan, t, b1, i, v1, v2)


def _ex_store_mapped():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for t, b1, i in _mapped_accesses(sc, 2):
            for v1, v2 in ((Vint(6), Vint(6)), (VUNDEF, Vint(2))):
                yield ("emb", plan, t, b1, i, v1, v2)


def _ck_store_mapped_emb(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i, v1, v2 = case
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not relations.emb_no_overlap(emb, sc.m1):
        return None
    if not relations.mem_emb(emb, sc.m1, sc.m2):
        return None
    if not relations.val_emb(emb, v1, v2):
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
    sample=lambda rng: _sm_store_mapped(rng, _OVERLAP_SOME),
    check=_ck_store_mapped_emb,
)


def _unmapped_accesses(sc, limit=3):
    out = []
    for b1 in sc.src_ids:
        if b1 in sc.emb or not memstate.valid_block(sc.m1, b1):
            continue
        for t, i in relations.valid_accesses(sc.m1, b1)[:limit]:
            out.append((t, b1, i))
    return out


def _sm_store_unmapped(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    accs = _unmapped_accesses(sc, 6)
    if not accs:
        return ("skip",)
    t, b1, i = rng.choice(accs)
    return ("emb", plan, t, b1, i, generators.sample_value(rng, sc.src_ids))


def _ex_store_unmapped():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for t, b1, i in _unmapped_accesses(sc, 2):
            yield ("emb", plan, t, b1, i, Vint(3))


def _ck_store_unmapped_emb(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i, v = case
    sc = emb_scenario_cached(plan)
    if b1 in sc.emb or not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m1p = memstate.store(t, sc.m1, b1, i, v)
    if m1p is None:
        return None
    if not relations.mem_emb(sc.emb, m1p, sc.m2):
        return "a store in an unmapped block broke the embedding"
    return None


deflaw(
    "store_unmapped_emb",
    REL_MEM,
    "stores in unmapped blocks preserve the embedding",
    family="relation",
    exhaustive=_ex_store_unmapped,
    sample=_sm_store_unmapped,
    check=_ck_store_unmapped_emb,
)


def _extra_accesses(sc, limit=3):
    out = []
    for b2 in sc.extra_ids:
        for t, i in relations.valid_accesses(sc.m2, b2)[:limit]:
            out.append((t, b2, i))
    return out


def _sm_store_outside_emb(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    accs = _extra_accesses(sc, 6)
    if not accs:
        return ("skip",)
    t, b2, i = rng.choice(accs)
    return ("emb", plan, t, b2, i, generators.sample_value(rng, ()))


def _ex_store_outside_emb():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for t, b2, i in _extra_accesses(sc, 2):
            yield ("emb", plan, t, b2, i, Vint(8))


def _ck_store_outside_emb(case):
    if case[0] == "skip":
        return None
    _, plan, t, b2, i, v = case
    sc = emb_scenario_cached(plan)
    if b2 not in sc.extra_ids:
        return None
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m2p = memstate.store(t, sc.m2, b2, i, v)
    if m2p is None:
        return None
    if not relations.mem_emb(sc.emb, sc.m1, m2p):
        return "a store outside every image broke the embedding"
    return None


deflaw(
    "store_outside_emb",
    REL_MEM,
    "right-side stores outside every image preserve the embedding",
    family="relation",
    exhaustive=_ex_store_outside_emb,
    sample=_sm_store_outside_emb,
    check=_ck_store_outside_emb,
)


def _sm_emb_alloc(rng, overlap=_OVERLAP_SOME, hole=0):
    plan = generators.shared_emb_plan(rng, overlap_chance=overlap, hole_span=hole)
    low, high = rng.randint(-4, 4), 0
    high = low + rng.choice((0, 2, 4, 8))
    return ("emb", plan, low, high)


def _ex_emb_alloc():
    for plan in EX_EMB_PLANS:
        for low, high in ((0, 8), (0, 0), (-4, 4)):
            yield ("emb", plan, low, high)


def _ck_alloc_parallel_emb(case):
    if case[0] == "skip":
        return None
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
    sample=lambda rng: _sm_emb_alloc(rng, overlap=_NO_OVERLAP),
    check=_ck_alloc_parallel_emb,
)


def _ck_alloc_right_emb(case):
    if case[0] == "skip":
        return None
    _, plan, low, high = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    r = memstate.alloc(sc.m2, low, high)
    if r is None:
        return None
    if not relations.mem_emb(sc.emb, sc.m1, r[1]):
        return "a right-side allocation broke the embedding"
    return None


deflaw(
    "alloc_right_emb",
    REL_MEM,
    "right-side allocation preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc,
    check=_ck_alloc_right_emb,
)


def _ck_alloc_left_unmapped_emb(case):
    if case[0] == "skip":
        return None
    _, plan, low, high = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    r = memstate.alloc(sc.m1, low, high)
    if r is None:
        return None
    b1, m1p = r
    if b1 in sc.emb:
        return "fresh block already mapped"
    if not relations.mem_emb(sc.emb, m1p, sc.m2):
        return "an unmapped left-side allocation broke the embedding"
    return None


deflaw(
    "alloc_left_unmapped_emb",
    REL_MEM,
    "left-side allocation of an unmapped block preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc,
    check=_ck_alloc_left_unmapped_emb,
)


def _sm_alloc_left_mapped(rng):
    plan = generators.shared_emb_plan(
        rng, overlap_chance=_NO_OVERLAP, hole_span=rng.choice((8, 16))
    )
    span = rng.choice((0, 2, 4, 8))
    return ("emb", plan, span)


def _ex_alloc_left_mapped():
    for hole in (8, 16):
        for plan in EX_EMB_PLANS[:6]:
            amended = EmbPlan(
                sources=plan.sources,
                frees=plan.frees,
                stores=plan.stores,
                extra_targets=plan.extra_targets,
                extra_stores=plan.extra_stores,
                overlap=plan.overlap,
                hole_span=hole,
            )
            for span in (0, 4, 8):
                yield ("emb", amended, span)


def _ck_alloc_left_mapped_emb(case):
    if case[0] == "skip":
        return None
    _, plan, span = case
    if plan.overlap:
        return None
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if sc.hole is None or span > sc.hole[2]:
        return None
    if not relations.emb_no_overlap(emb, sc.m1):
        return "constructed scenario fails the no-overlap hypothesis"
    if not relations.mem_emb(emb, sc.m1, sc.m2):
        return "constructed scenario fails the embedding hypothesis"
    tgt, start, _ = sc.hole
    r = memstate.alloc(sc.m1, 0, span)
    if r is None:
        return "allocation failed under the default policy"
    b1, m1p = r
    emb2 = dict(emb)
    emb2[b1] = (tgt, start)
    if not relations.emb_incr(emb, emb2):
        return "extended map does not extend the original"
    if not relations.emb_no_overlap(emb2, m1p):
        return "mapping into the reserved gap overlaps an image"
    if not relations.mem_emb(emb2, m1p, sc.m2):
        return "mapping the fresh block into the gap broke the embedding"
    return None


deflaw(
    "alloc_left_mapped_emb",
    REL_MEM,
    "a fresh left block maps into a reserved gap of the target",
    family="relation",
    exhaustive=_ex_alloc_left_mapped,
    sample=_sm_alloc_left_mapped,
    check=_ck_alloc_left_mapped_emb,
)


def _valid_sources(sc):
    return [b for b in sc.src_ids if memstate.valid_block(sc.m1, b)]


def _sm_emb_free(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    srcs = _valid_sources(sc)
    if not srcs:
        return ("skip",)
    return ("emb", plan, rng.choice(srcs))


def _ex_emb_free():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for b in _valid_sources(sc):
            yield ("emb", plan, b)


def _ck_free_left_emb(case):
    if case[0] == "skip":
        return None
    _, plan, b = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m1p = memstate.free(sc.m1, b)
    if m1p is None:
        return None
    if not relations.mem_emb(sc.emb, m1p, sc.m2):
        return "a left-side free broke the embedding"
    return None


deflaw(
    "free_left_emb",
    REL_MEM,
    "left-side free preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_free,
    sample=_sm_emb_free,
    check=_ck_free_left_emb,
)


def _sm_free_right_emb(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    if not sc.extra_ids:
        return ("skip",)
    return ("emb", plan, rng.choice(sc.extra_ids))


def _ex_free_right_emb():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for b in sc.extra_ids:
            yield ("emb", plan, b)


def _ck_free_right_emb(case):
    if case[0] == "skip":
        return None
    _, plan, b2 = case
    sc = emb_scenario_cached(plan)
    if b2 not in sc.extra_ids:
        return None
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m2p = memstate.free(sc.m2, b2)
    if m2p is None:
        return None
    if not relations.mem_emb(sc.emb, sc.m1, m2p):
        return "freeing an imageless target block broke the embedding"
    return None


deflaw(
    "free_right_emb",
    REL_MEM,
    "freeing a target block outside every image preserves the embedding",
    family="relation",
    exhaustive=_ex_free_right_emb,
    sample=_sm_free_right_emb,
    check=_ck_free_right_emb,
)


def _sole_pairs(sc):
    """Own-target pairs whose source is still valid."""
    return [
        (src, tgt)
        for src, tgt, _ in sc.own_pairs
        if memstate.valid_block(sc.m1, src) and memstate.valid_block(sc.m2, tgt)
    ]


def _sm_free_parallel(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    pairs = _sole_pairs(sc)
    if not pairs:
        return ("skip",)
    return ("emb", plan, rng.choice(pairs))


def _ex_free_parallel():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        for pair in _sole_pairs(sc):
            yield ("emb", plan, pair)


def _ck_free_parallel_emb(case):
    if case[0] == "skip":
        return None
    _, plan, (src, tgt) = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m1p = memstate.free(sc.m1, src)
    m2p = memstate.free(sc.m2, tgt)
    if m1p is None or m2p is None:
        return None
    if not relations.mem_emb(sc.emb, m1p, m2p):
        return "freeing a sole-source pair broke the embedding"
    return None


deflaw(
    "free_parallel_emb",
    REL_MEM,
    "freeing a block together with its private image preserves the embedding",
    family="relation",
    exhaustive=_ex_free_parallel,
    sample=_sm_free_parallel,
    check=_ck_free_parallel_emb,
)


def _sm_emb_free_list(rng):
    plan = generators.shared_emb_plan(rng, overlap_chance=_OVERLAP_SOME)
    sc = emb_scenario_cached(plan)
    srcs = _valid_sources(sc)
    picks = tuple(b for b in srcs if rng.chance(1, 2))
    return ("emb", plan, picks)


def _ex_emb_free_list():
    for plan in EX_EMB_PLANS:
        sc = emb_scenario_cached(plan)
        srcs = _valid_sources(sc)
        yield ("emb", plan, tuple(srcs))
        if len(srcs) > 1:
            yield ("emb", plan, (srcs[0],))


def _ck_free_list_left_emb(case):
    if case[0] == "skip":
        return None
    _, plan, bs = case
    sc = emb_scenario_cached(plan)
    if not relations.mem_emb(sc.emb, sc.m1, sc.m2):
        return None
    m1p = memstate.free_list(sc.m1, bs)
    if m1p is None:
        return None
    if not relations.mem_emb(sc.emb, m1p, sc.m2):
        return "a left-side free_list broke the embedding"
    return None


deflaw(
    "free_list_left_emb",
    REL_MEM,
    "left-side free_list preserves the embedding",
    family="relation",
    exhaustive=_ex_emb_free_list,
    sample=_sm_emb_free_list,
    check=_ck_free_list_left_emb,
)


def _ck_free_list_free_parallel_emb(case):
    if case[0] == "skip":
        return None
    _, plan = case[:2]
    sc = emb_scenario_cached(plan)
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
    exhaustive=_ex_emb,
    sample=lambda rng: _sm_emb(rng, overlap_chance=_OVERLAP_SOME),
    check=_ck_free_list_free_parallel_emb,
)


# --- injections (Mem_Inject) -----------------------------------------------------------


def _inject_ok(sc):
    return relations.mem_inject(sc.emb, sc.m1, sc.m2)


def _ck_load_inject(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
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


def _ck_store_mapped_inject(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i, v1, v2 = case
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not relations.mem_inject(emb, sc.m1, sc.m2):
        return None
    if not relations.val_emb(emb, v1, v2):
        return None
    m1p = memstate.store(t, sc.m1, b1, i, v1)
    if m1p is None:
        return None
    b2, delta = emb[b1]
    m2p = memstate.store(t, sc.m2, b2, i + delta, v2)
    if m2p is None:
        return "relocated store failed under an injection"
    if not relations.mem_inject(emb, m1p, m2p):
        return "a mapped store broke the injection"
    return None


deflaw(
    "store_mapped_inject",
    MEM_INJECT,
    "mapped stores preserve the injection",
    family="relation",
    exhaustive=_ex_store_mapped,
    sample=lambda rng: _sm_store_mapped(rng, _OVERLAP_SOME),
    check=_ck_store_mapped_inject,
)


def _ck_store_unmapped_inject(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i, v = case
    sc = emb_scenario_cached(plan)
    if b1 in sc.emb or not _inject_ok(sc):
        return None
    m1p = memstate.store(t, sc.m1, b1, i, v)
    if m1p is None:
        return None
    if not relations.mem_inject(sc.emb, m1p, sc.m2):
        return "a store in an unmapped block broke the injection"
    return None


deflaw(
    "store_unmapped_inject",
    MEM_INJECT,
    "stores in unmapped blocks preserve the injection",
    family="relation",
    exhaustive=_ex_store_unmapped,
    sample=_sm_store_unmapped,
    check=_ck_store_unmapped_inject,
)


def _ck_loadv_inject(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
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


def _ck_storev_inject(case):
    if case[0] == "skip":
        return None
    _, plan, t, b1, i, v1, v2 = case
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if not relations.mem_inject(emb, sc.m1, sc.m2):
        return None
    if not relations.val_emb(emb, v1, v2):
        return None
    m1p = memstate.storev(t, sc.m1, Vptr(b1, i), v1)
    if m1p is None:
        return None
    b2, delta = emb[b1]
    m2p = memstate.storev(t, sc.m2, Vptr(b2, i + delta), v2)
    if m2p is None:
        return "value-addressed store failed on the relocated address"
    if not relations.mem_inject(emb, m1p, m2p):
        return "a value-addressed store broke the injection"
    return None


deflaw(
    "storev_inject",
    MEM_INJECT,
    "value-addressed stores preserve the injection",
    family="relation",
    exhaustive=_ex_store_mapped,
    sample=lambda rng: _sm_store_mapped(rng, _OVERLAP_SOME),
    check=_ck_storev_inject,
)


def _ck_no_overlap_free(case):
    if case[0] == "skip":
        return None
    _, plan, b = case
    sc = emb_scenario_cached(plan)
    if not relations.emb_no_overlap(sc.emb, sc.m1):
        return None
    m1p = memstate.free(sc.m1, b)
    if m1p is None:
        return None
    if not relations.emb_no_overlap(sc.emb, m1p):
        return "free broke the no-overlap side condition"
    return None


deflaw(
    "embedding_no_overlap_free",
    MEM_INJECT,
    "free preserves the no-overlap side condition",
    family="relation",
    exhaustive=_ex_emb_free,
    sample=_sm_emb_free,
    check=_ck_no_overlap_free,
)


def _ck_no_overlap_free_list(case):
    if case[0] == "skip":
        return None
    _, plan, bs = case
    sc = emb_scenario_cached(plan)
    if not relations.emb_no_overlap(sc.emb, sc.m1):
        return None
    m1p = memstate.free_list(sc.m1, bs)
    if m1p is None:
        return None
    if not relations.emb_no_overlap(sc.emb, m1p):
        return "free_list broke the no-overlap side condition"
    return None


deflaw(
    "embedding_no_overlap_free_list",
    MEM_INJECT,
    "free_list preserves the no-overlap side condition",
    family="relation",
    exhaustive=_ex_emb_free_list,
    sample=_sm_emb_free_list,
    check=_ck_no_overlap_free_list,
)


def _ck_free_inject(case):
    if case[0] == "skip":
        return None
    _, plan, (src, tgt) = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
        return None
    m1p = memstate.free(sc.m1, src)
    m2p = memstate.free(sc.m2, tgt)
    if m1p is None or m2p is None:
        return None
    if not relations.mem_inject(sc.emb, m1p, m2p):
        return "freeing a private pair broke the injection"
    return None


deflaw(
    "free_inject",
    MEM_INJECT,
    "freeing a block with its private image preserves the injection",
    family="relation",
    exhaustive=_ex_free_parallel,
    sample=_sm_free_parallel,
    check=_ck_free_inject,
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
    if case[0] == "skip":
        return None
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


def _ck_alloc_right_inject(case):
    if case[0] == "skip":
        return None
    _, plan, low, high = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
        return None
    r = memstate.alloc(sc.m2, low, high)
    if r is None:
        return None
    if not relations.mem_inject(sc.emb, sc.m1, r[1]):
        return "a right-side allocation broke the injection"
    return None


deflaw(
    "alloc_right_inject",
    MEM_INJECT,
    "right-side allocation preserves the injection",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc,
    check=_ck_alloc_right_inject,
)


def _ck_alloc_left_unmapped_inject(case):
    if case[0] == "skip":
        return None
    _, plan, low, high = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
        return None
    r = memstate.alloc(sc.m1, low, high)
    if r is None:
        return None
    b1, m1p = r
    if b1 in sc.emb:
        return "fresh block already mapped"
    if not relations.mem_inject(sc.emb, m1p, sc.m2):
        return "an unmapped left-side allocation broke the injection"
    return None


deflaw(
    "alloc_left_unmapped_inject",
    MEM_INJECT,
    "left-side allocation of an unmapped block preserves the injection",
    family="relation",
    exhaustive=_ex_emb_alloc,
    sample=_sm_emb_alloc,
    check=_ck_alloc_left_unmapped_inject,
)


def _ck_alloc_left_mapped_inject(case):
    if case[0] == "skip":
        return None
    _, plan, span = case
    if plan.overlap:
        return None
    sc = emb_scenario_cached(plan)
    emb = sc.emb
    if sc.hole is None or span > sc.hole[2]:
        return None
    if not relations.mem_inject(emb, sc.m1, sc.m2):
        return "constructed scenario fails the injection hypothesis"
    tgt, start, _ = sc.hole
    r = memstate.alloc(sc.m1, 0, span)
    if r is None:
        return "allocation failed under the default policy"
    b1, m1p = r
    emb2 = dict(emb)
    emb2[b1] = (tgt, start)
    if not relations.emb_incr(emb, emb2):
        return "extended map does not extend the original"
    if not relations.mem_inject(emb2, m1p, sc.m2):
        return "mapping the fresh block into the gap broke the injection"
    return None


deflaw(
    "alloc_left_mapped_inject",
    MEM_INJECT,
    "a fresh left block maps into a reserved gap under the injection",
    family="relation",
    exhaustive=_ex_alloc_left_mapped,
    sample=_sm_alloc_left_mapped,
    check=_ck_alloc_left_mapped_inject,
)


def _sm_emb_reqs(rng, overlap=_OVERLAP_SOME):
    plan = generators.shared_emb_plan(rng, overlap_chance=overlap)
    reqs = []
    for _ in range(rng.below(4)):
        low = rng.randint(-4, 4)
        reqs.append((low, low + rng.choice((0, 2, 4, 8))))
    return ("emb", plan, tuple(reqs))


def _ex_emb_reqs():
    for plan in EX_EMB_PLANS:
        for reqs in ((), ((0, 4),), ((0, 8), (-4, 4)), ((2, 1), (0, 2), (0, 8))):
            yield ("emb", plan, reqs)


def _ck_alloc_list_left_inject(case):
    if case[0] == "skip":
        return None
    _, plan, reqs = case
    sc = emb_scenario_cached(plan)
    if not _inject_ok(sc):
        return None
    r = memstate.alloc_list(sc.m1, reqs)
    if r is None:
        return None
    _, m1p = r
    if not relations.mem_inject(sc.emb, m1p, sc.m2):
        return "left-side alloc_list broke the injection"
    return None


deflaw(
    "alloc_list_left_inject",
    MEM_INJECT,
    "left-side alloc_list of unmapped blocks preserves the injection",
    family="relation",
    exhaustive=_ex_emb_reqs,
    sample=_sm_emb_reqs,
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
    if case[0] == "skip":
        return None
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
    sample=lambda rng: _sm_emb_reqs(rng, overlap=_NO_OVERLAP),
    check=_ck_alloc_list_alloc_inject,
)
