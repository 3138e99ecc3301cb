"""Scenario generation for the law suite.

Scenarios are flat op lists in the trace vocabulary (alloc, free,
free_list, store, load, plus validity/bounds/freshness queries; see
``blockmem.trace``), replayed by the trace interpreter ``trace.run_op``.
They are the only way states are built, so every generated state is
reachable and satisfies the structural invariants by construction.
Blocks are referred to by allocation order (ref ``k`` is the block of the
k-th alloc of the scenario; if that alloc failed, any op on ``k`` fails),
which keeps scenarios meaningful under shrinking; two reserved refs probe
an always-invalid and an always-fresh block id.

Besides single states, this module constructs *related pairs*: two
scenarios replayed in lockstep whose final states satisfy one of the
memory relations by construction (refinement, extension, or an embedding
with its relocation map).  The relation laws draw their hypothesis
instances from these constructors.

Laws take their scenarios through the ``shared_*`` draws, which hand every
law of one domain the same scenario k at its k-th request; see "shared
scenario streams" below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .. import chunks, memstate, relations
from ..chunks import ALL_CHUNKS, Chunk, Value, Vfloat, Vint, Vptr, VUNDEF
from ..memstate import DEFAULT_CONFIG, MemConfig, MemState
from ..trace import PROBE_FRESH, PROBE_INVALID, SUCCEEDS, Statement, refs, run_op, statement_text
from .rng import LawStream, SplitMix64, scenario_stream


@dataclass
class RunResult:
    """A replayed scenario: its final state, one outcome per op, and the
    tables that law domains read off the state, each built when first read."""

    state: MemState
    outcomes: list

    @cached_property
    def live(self) -> tuple:
        """The live block ids, ascending."""
        m = self.state
        return tuple(b for b in range(1, m.nextblock) if memstate.valid_block(m, b))

    @cached_property
    def accesses(self) -> dict:
        """Block id -> ``relations.valid_accesses``, for the live blocks
        that have some."""
        m = self.state
        return {b: a for b in self.live if (a := relations.valid_accesses(m, b))}

    @cached_property
    def lowest(self) -> dict:
        """Block id -> the lowest access of each access size, for the
        blocks of ``accesses``."""
        table = {}
        for b, accesses in self.accesses.items():
            by_size: dict = {}
            for t, i in accesses:
                by_size.setdefault(chunks.size_chunk(t), (t, i))
            table[b] = tuple(by_size.values())
        return table


def run_ops(ops, config: MemConfig = DEFAULT_CONFIG) -> RunResult:
    """Replay a scenario on the real model, recording one observable
    ``(kind, outcome)`` per op (see ``trace.run_op``)."""
    m = memstate.empty(config)
    blocks: list = []
    outcomes = []
    for op in ops:
        m, got = run_op(m, blocks, op)
        outcomes.append((op[0], got))
    return RunResult(m, outcomes)


_PROBE_NAMES = {PROBE_INVALID: "$invalid", PROBE_FRESH: "$fresh"}


def format_ops(ops) -> str:
    """Render a scenario as trace lines: ref k is ``$bk``, allocs, frees
    and stores are expected to succeed, loads and queries are comments."""
    lines = []
    allocs = 0
    for op in ops:
        if op[0] == "alloc":
            names = (f"$b{allocs}",)
            allocs += 1
        else:
            names = tuple(_PROBE_NAMES.get(r, f"$b{r}") for r in refs(op))
        expect = SUCCEEDS if op[0] in ("alloc", "free", "free_list", "store") else None
        lines.append(statement_text(Statement(op, expect, names)))
    return "\n".join(lines)


# --- random scenarios --------------------------------------------------------


@dataclass(frozen=True)
class UniverseConfig:
    """Bounds on the random scenario universe."""

    max_blocks: int = 3
    min_ops: int = 0
    max_ops: int = 8


# Allocation bounds in a random scenario: the low bound and the span.
_LO_MIN, _LO_MAX = -8, 8
_SPANS = (0, 1, 2, 4, 8, 8, 12, 16)


DEFAULT_UNIVERSE = UniverseConfig()

FLOAT_POOL = tuple(
    Vfloat.from_float(x)
    for x in (
        0.0,
        -0.0,
        1.0,
        1.5,
        -2.75,
        0.1,
        3.5e38,  # overflows single precision
        1e-40,  # single subnormal range
        5e-324,  # double subnormal, rounds to zero
        float("inf"),
        float("-inf"),
        float("nan"),
    )
)
_WILD_INTS = (300, -300, 70000, 2**31, -(2**31) - 5, 2**40)


def sample_value(rng: SplitMix64, live_ids=()) -> Value:
    r = rng.below(10)
    if r < 2:
        return VUNDEF
    if r < 5:
        return Vint(rng.randint(-8, 8))
    if r < 6:
        return Vint(rng.choice(_WILD_INTS))
    if r < 8:
        return Vfloat(rng.choice(FLOAT_POOL).bits)
    if live_ids:
        return Vptr(rng.choice(live_ids), rng.randint(-4, 8))
    return Vint(rng.randint(-8, 8))


def _aligned_slot(rng: SplitMix64, low: int, high: int, t: Chunk):
    """A valid aligned offset for ``t`` within [low, high), or None."""
    size, align = chunks.size_chunk(t), chunks.align_chunk(t)
    first = low + (-low) % align
    last = high - size
    if first > last:
        return None
    return first + align * rng.below((last - first) // align + 1)


def _pick_store(rng: SplitMix64, planned):
    """(index, chunk, offset) for a store that will succeed, or None;
    ``planned`` holds [low, high, ..., alive] per block."""
    alive = [k for k, p in enumerate(planned) if p[-1] and p[1] - p[0] >= 1]
    if not alive:
        return None
    for _ in range(4):
        k = rng.choice(alive)
        low, high = planned[k][:2]
        t = rng.choice(ALL_CHUNKS)
        i = _aligned_slot(rng, low, high, t)
        if i is not None:
            return k, t, i
    k = rng.choice(alive)
    return k, Chunk.INT8U, planned[k][0]


def sample_ops(rng: SplitMix64, u: UniverseConfig = DEFAULT_UNIVERSE) -> list:
    """A random scenario: allocs, mostly-valid stores, frees, and a few
    deliberately invalid probes."""
    ops = []
    planned = []  # [low, high, alive]
    live_ids = []
    n = rng.randint(u.min_ops, u.max_ops)
    for _ in range(n):
        r = rng.below(12)
        if r < 4 and len(planned) < u.max_blocks:
            low = rng.randint(_LO_MIN, _LO_MAX)
            if rng.chance(1, 12):
                high = low - rng.below(3)  # empty-span block
            else:
                high = low + rng.choice(_SPANS)
            ops.append(("alloc", low, high))
            planned.append([low, high, True])
            live_ids.append(len(planned))  # ids are 1-based allocation order
        elif r < 8 and planned:
            slot = _pick_store(rng, planned)
            if slot is None:
                continue
            k, t, i = slot
            v = sample_value(rng, tuple(live_ids))
            if rng.chance(1, 10):
                i += rng.choice((-1, 1, 3))  # misaligned / out-of-bounds probe
            ops.append(("store", t, k, i, v))
        elif r < 9 and planned:
            alive = [k for k, p in enumerate(planned) if p[2]]
            if alive and rng.chance(3, 4):
                k = rng.choice(alive)
                planned[k][2] = False
                if (k + 1) in live_ids:
                    live_ids.remove(k + 1)
                ops.append(("free", k))
            else:
                ops.append(("free", rng.choice((PROBE_INVALID, PROBE_FRESH))))
        else:
            ref = rng.below(len(planned)) if planned and rng.chance(5, 6) else PROBE_INVALID
            q = rng.below(4)
            if q == 0:
                t = rng.choice(ALL_CHUNKS)
                ops.append(("load", t, ref, rng.randint(-6, 8)))
            elif q == 1:
                ops.append(("valid", ref))
            elif q == 2:
                ops.append(("bounds", ref))
            else:
                ops.append(("fresh", ref))
    return ops


def gen_state(seed: int, cfg: UniverseConfig = DEFAULT_UNIVERSE) -> MemState:
    """A reachable random state, reproducible from the seed alone."""
    rng = SplitMix64(seed)
    return run_ops(sample_ops(rng, cfg)).state


# --- shrinking ---------------------------------------------------------------


def shrink_ops(ops):
    """Smaller candidates for a scenario or a lessdef plan, as tuples: drop
    one op, last first (with the ops on its block when an alloc goes away),
    or simplify one stored value."""
    ops = tuple(ops)
    for k in range(len(ops) - 1, -1, -1):
        if ops[k][0] != "alloc":
            yield ops[:k] + ops[k + 1 :]
            continue
        dropped = sum(op[0] == "alloc" for op in ops[:k])
        shifted = (_shift_refs(op, dropped) for j, op in enumerate(ops) if j != k)
        yield tuple(op for op in shifted if op is not None)
    for k, op in enumerate(ops):
        if op[0] == "store" and op[4] != VUNDEF:
            yield ops[:k] + (op[:4] + (VUNDEF,),) + ops[k + 1 :]


def _shift_refs(op, dropped: int):
    """Rewrite an op after alloc number ``dropped`` was removed; None means
    the op depended on it and must go too.  A plan's "store2" step holds
    its ref where a store does."""

    def shift(ref):
        if ref < dropped:
            return ref
        return None if ref == dropped else ref - 1

    kind = op[0]
    if kind == "alloc":
        return op
    if kind == "free_list":
        rs = tuple(map(shift, op[1]))
        return None if None in rs else (kind, rs)
    k = 1 if kind in ("free", "valid", "fresh", "bounds") else 2
    r = shift(op[k])
    return None if r is None else op[:k] + (r,) + op[k + 1 :]


# --- related plans -------------------------------------------------------------
#
# A plan is one scenario that ``project`` turns into an op list per side;
# replayed, the sides are related by construction:
#
# - in a refinement (lessdef) plan each store carries one value per side,
#   each one either equal to the next side's or undefined ("store2",
#   "store3"), so the sides have equal domains and their loads refine;
# - an extension (extends) plan allocates each block with wider bounds on
#   the right ("alloc" with margins dl and dh) and may add right-only
#   stores ("margin") whose footprints stay inside the widened margin,
#   outside the left block's bounds.
#
# Plan samplers track each planned block as [low, high, ..., alive].


def _live_ids(planned) -> tuple:
    return tuple(j + 1 for j, p in enumerate(planned) if p[-1])


def _free_one(rng: SplitMix64, planned, steps) -> None:
    """Plan a free of a live block, if there is one."""
    alive = [k for k, p in enumerate(planned) if p[-1]]
    if alive:
        k = rng.choice(alive)
        planned[k][-1] = False
        steps.append(("free", k))


def sample_lessdef_plan(rng: SplitMix64):
    steps = []
    planned = []
    for _ in range(rng.randint(1, 7)):
        r = rng.below(10)
        if r < 4 and len(planned) < 3:
            low = rng.randint(-6, 4)
            high = low + rng.choice((2, 4, 8, 8, 12))
            steps.append(("alloc", low, high))
            planned.append([low, high, True])
        elif r < 9 and planned:
            slot = _pick_store(rng, planned)
            if slot is None:
                continue
            k, t, i = slot
            v2 = sample_value(rng, _live_ids(planned))
            v1 = VUNDEF if rng.chance(2, 5) else v2
            steps.append(("store2", t, k, i, v1, v2))
        elif planned:
            _free_one(rng, planned, steps)
    return tuple(steps)


def sample_extends_plan(rng: SplitMix64):
    steps = []
    planned = []  # [low, high, dl, dh, alive]
    for _ in range(rng.randint(1, 7)):
        r = rng.below(12)
        if r < 4 and len(planned) < 3:
            low = rng.randint(-6, 4)
            high = low + rng.choice((0, 2, 4, 8, 8))
            dl = rng.choice((0, 0, 4, 8))
            dh = rng.choice((0, 0, 4, 8))
            steps.append(("alloc", low, high, dl, dh))
            planned.append([low, high, dl, dh, True])
        elif r < 8 and planned:
            slot = _pick_store(rng, planned)
            if slot is None:
                continue
            k, t, i = slot
            steps.append(("store", t, k, i, sample_value(rng, _live_ids(planned))))
        elif r < 10 and planned:
            margins = [
                (k, p)
                for k, p in enumerate(planned)
                if p[4] and (p[2] > 0 or p[3] > 0)
            ]
            if not margins:
                continue
            k, p = rng.choice(margins)
            low, high, dl, dh, _ = p
            side_high = dh > 0 and (dl == 0 or rng.chance(1, 2))
            t = rng.choice(ALL_CHUNKS)
            if side_high:
                i = _aligned_slot(rng, high, high + dh, t)
            else:
                i = _aligned_slot(rng, low - dl, low, t)
            if i is None:
                continue
            steps.append(("margin", t, k, i, sample_value(rng, ())))
        elif planned:
            _free_one(rng, planned, steps)
    return tuple(steps)


def project(plan, sides: int = 2) -> tuple:
    """The op lists a lessdef or extends plan stands for, one per side
    (three for a plan of "store3" steps)."""
    out = tuple([] for _ in range(sides))
    for st in plan:
        kind = st[0]
        for side, ops in enumerate(out):
            if kind in ("store2", "store3"):
                ops.append(("store",) + st[1:4] + (st[4 + side],))
            elif kind == "alloc" and len(st) == 5:
                _, low, high, dl, dh = st
                ops.append(("alloc", low - dl, high + dh) if side else ("alloc", low, high))
            elif kind == "margin":
                if side:
                    ops.append(("store",) + st[1:])
            else:
                ops.append(st)
    return out


def build_lessdef_pair(plan, config: MemConfig = DEFAULT_CONFIG):
    """Replay both sides of a plan: (left run, right run, left ops, right ops)."""
    ops1, ops2 = project(plan)
    return run_ops(ops1, config), run_ops(ops2, config), ops1, ops2


build_extends_pair = build_lessdef_pair  # an extends plan projects the same way


def shrink_plan_steps(plan):
    """Drop one step other than an alloc, last first: the shrinker of
    extends plans and of the laws' plan triples."""
    for k in range(len(plan) - 1, -1, -1):
        if plan[k][0] != "alloc":
            yield plan[:k] + plan[k + 1 :]


# --- embedding scenarios ------------------------------------------------------


@dataclass(frozen=True)
class EmbPlan:
    """Recipe for a pair of states related through an embedding.

    Sources are the left-hand blocks; each is unmapped, relocated into a
    private target block at a fixed delta, or packed into one shared
    target at staggered slots.  Stores replay through the relocation map;
    frees apply to the left state only.  With ``overlap`` set the packed
    slots all start at the same base, producing images that intersect.
    """

    sources: tuple  # (low, high, kind); kind: ("none",) | ("own", delta) | ("slot",)
    frees: tuple = ()  # source indexes, freed left-only after the stores
    stores: tuple = ()  # (src_idx, chunk, ofs, vspec)
    extra_targets: tuple = ()  # (low, high) right-only blocks
    extra_stores: tuple = ()  # (extra_idx, chunk, ofs, vspec)
    overlap: bool = False
    hole_span: int = 0  # unmapped gap reserved inside the packed target


@dataclass
class EmbScenario:
    m1: MemState
    m2: MemState
    emb: dict
    src_ids: tuple
    own_pairs: tuple  # (src_id, tgt_id, delta) for sole-source targets
    hole: tuple | None  # (tgt_id, start, span)
    extra_ids: tuple
    ops1: tuple
    ops2: tuple


def _ceil8(x: int) -> int:
    return x + (-x) % 8


def _realize(vspec, src_ids) -> Value:
    kind = vspec[0]
    if kind == "int":
        return Vint(vspec[1])
    if kind == "float":
        return Vfloat(vspec[1])
    if kind == "ptr":
        return Vptr(src_ids[vspec[1]], vspec[2])
    return VUNDEF


def _transport(vspec, src_ids, emb) -> Value:
    if vspec[0] == "ptr":
        tb, delta = emb[src_ids[vspec[1]]]
        return Vptr(tb, vspec[2] + delta)
    return _realize(vspec, src_ids)


def build_emb_scenario(plan: EmbPlan, config: MemConfig = DEFAULT_CONFIG) -> EmbScenario:
    n = len(plan.sources)
    src_ids = tuple(range(1, n + 1))

    # Pack slot sources into the shared target.
    slot_delta: dict[int, int] = {}
    cursor = 0
    for idx, (low, high, kind) in enumerate(plan.sources):
        if kind[0] != "slot":
            continue
        delta = _ceil8((0 if plan.overlap else cursor) - low)
        slot_delta[idx] = delta
        if high > low:
            cursor = _ceil8(max(cursor, high + delta))
    hole = None
    hole_start = cursor
    if plan.hole_span:
        cursor = _ceil8(cursor + plan.hole_span)
    have_big = bool(slot_delta) or plan.hole_span > 0

    # Right-hand allocation order: big target, own targets, extras.
    ops2 = []
    next_tgt = 1
    big_target = None
    if have_big:
        ops2.append(("alloc", 0, cursor))
        big_target = next_tgt
        next_tgt += 1
        if plan.hole_span:
            hole = (big_target, hole_start, plan.hole_span)
    own_pairs = []
    emb: dict[int, tuple[int, int]] = {}
    tgt_ref: dict[int, int] = {}  # source idx -> ref of its target in ops2
    for idx, (low, high, kind) in enumerate(plan.sources):
        if kind[0] == "own":
            delta = kind[1]
            ops2.append(("alloc", low + delta, high + delta))
            emb[src_ids[idx]] = (next_tgt, delta)
            own_pairs.append((src_ids[idx], next_tgt, delta))
            tgt_ref[idx] = next_tgt - 1
            next_tgt += 1
        elif kind[0] == "slot":
            emb[src_ids[idx]] = (big_target, slot_delta[idx])
            tgt_ref[idx] = big_target - 1
    extra_ids = []
    extra_ref_base = next_tgt - 1
    for low, high in plan.extra_targets:
        ops2.append(("alloc", low, high))
        extra_ids.append(next_tgt)
        next_tgt += 1

    ops1 = [("alloc", low, high) for (low, high, _) in plan.sources]
    for src_idx, t, ofs, vspec in plan.stores:
        ops1.append(("store", t, src_idx, ofs, _realize(vspec, src_ids)))
        if src_ids[src_idx] in emb:
            _, delta = emb[src_ids[src_idx]]
            ops2.append(
                ("store", t, tgt_ref[src_idx], ofs + delta, _transport(vspec, src_ids, emb))
            )
    for extra_idx, t, ofs, vspec in plan.extra_stores:
        ops2.append(("store", t, extra_ref_base + extra_idx, ofs, _realize(vspec, src_ids)))
    for src_idx in plan.frees:
        ops1.append(("free", src_idx))

    r1 = run_ops(ops1, config)
    r2 = run_ops(ops2, config)
    return EmbScenario(
        m1=r1.state,
        m2=r2.state,
        emb=emb,
        src_ids=src_ids,
        own_pairs=tuple(own_pairs),
        hole=hole,
        extra_ids=tuple(extra_ids),
        ops1=tuple(ops1),
        ops2=tuple(ops2),
    )


def sample_emb_plan(
    rng: SplitMix64,
    *,
    overlap_chance: tuple[int, int] = (0, 1),
    hole_span: int = 0,
    need_mapped: bool = False,
) -> EmbPlan:
    while True:
        sources = []
        for _ in range(rng.randint(1, 3)):
            low = rng.choice((-8, -4, 0, 0, 4))
            high = low + rng.choice((0, 2, 4, 8, 8, 16))
            r = rng.below(10)
            if r < 2:
                kind = ("none",)
            elif r < 5:
                kind = ("own", 8 * rng.randint(-2, 2))
            else:
                kind = ("slot",)
            sources.append((low, high, kind))
        mapped = [k for k, s in enumerate(sources) if s[2][0] != "none"]
        if need_mapped and not mapped:
            continue
        storable = [k for k, s in enumerate(sources) if s[1] - s[0] >= 1]
        stores = []
        for _ in range(rng.below(5)):
            if not storable:
                break
            k = rng.choice(storable)
            low, high, _ = sources[k]
            t = rng.choice(ALL_CHUNKS)
            i = _aligned_slot(rng, low, high, t)
            if i is None:
                continue
            r = rng.below(6)
            if r < 1:
                vspec = ("undef",)
            elif r < 4:
                vspec = ("int", rng.randint(-8, 300))
            elif r < 5:
                vspec = ("float", rng.choice(FLOAT_POOL).bits)
            elif mapped:
                vspec = ("ptr", rng.choice(mapped), rng.randint(-2, 6))
            else:
                vspec = ("int", rng.randint(-8, 8))
            stores.append((k, t, i, vspec))
        frees = tuple(
            k for k in range(len(sources)) if rng.chance(1, 6)
        )
        extra_targets = tuple(
            (0, rng.choice((4, 8))) for _ in range(rng.below(3))
        )
        extra_stores = []
        for _ in range(rng.below(2)):
            if not extra_targets:
                break
            k = rng.below(len(extra_targets))
            low, high = extra_targets[k]
            t = rng.choice(ALL_CHUNKS)
            i = _aligned_slot(rng, low, high, t)
            if i is not None:
                extra_stores.append((k, t, i, ("int", rng.randint(-8, 8))))
        return EmbPlan(
            sources=tuple(sources),
            frees=frees,
            stores=tuple(stores),
            extra_targets=extra_targets,
            extra_stores=tuple(extra_stores),
            overlap=rng.chance(*overlap_chance),
            hole_span=hole_span,
        )


def shrink_emb_plan(plan: EmbPlan):
    for k in range(len(plan.stores) - 1, -1, -1):
        yield replace(plan, stores=plan.stores[:k] + plan.stores[k + 1 :])
    if plan.frees:
        yield replace(plan, frees=())
    if plan.extra_targets and not plan.extra_stores:
        yield replace(plan, extra_targets=())


# --- shared scenario streams -----------------------------------------------------
#
# A scenario domain is one of the samplers above with fixed arguments.  Its
# scenarios come from one stream per (seed, domain), extended lazily and kept
# for the process, so scenario k is the same value for every law that asks
# for it.  A law's k-th request (counted by its ``LawStream``) takes scenario
# k; the law's assignment stays on its own stream.  So a case depends on the
# seed, the law and the draw number only.  Replaying a scenario is left to
# the memos of ``laws_base``, which hand every law of the domain the same
# ``RunResult`` (or pair, or ``EmbScenario``) while they hold it; each process
# of a parallel run replays for itself.

SCENARIOS: dict = {}  # (seed, domain) -> (stream, scenarios drawn so far)


def _shared(rng: LawStream, domain: str, sample):
    k = rng.next_scenario()
    key = (rng.seed, domain)
    entry = SCENARIOS.get(key)
    if entry is None:
        entry = SCENARIOS[key] = (scenario_stream(rng.seed, domain), [])
    stream, drawn = entry
    while len(drawn) <= k:
        drawn.append(sample(stream))
    return drawn[k]


def shared_ops(rng: LawStream) -> tuple:
    return _shared(rng, "ops", lambda s: tuple(sample_ops(s)))


def shared_lessdef_plan(rng: LawStream) -> tuple:
    return _shared(rng, "lessdef", sample_lessdef_plan)


def shared_extends_plan(rng: LawStream) -> tuple:
    return _shared(rng, "extends", sample_extends_plan)


def shared_emb_plan(
    rng: LawStream,
    *,
    overlap_chance: tuple[int, int] = (0, 1),
    hole_span: int = 0,
    need_mapped: bool = False,
) -> EmbPlan:
    """One domain per keyword set."""
    return _shared(
        rng,
        f"emb overlap={overlap_chance} hole={hole_span} mapped={need_mapped}",
        lambda s: sample_emb_plan(
            s, overlap_chance=overlap_chance, hole_span=hole_span, need_mapped=need_mapped
        ),
    )


# --- the exhaustive tiny universe ---------------------------------------------

TINY_BOUNDS_SMALL = ((0, 8), (-4, 4), (0, 4))
TINY_BOUNDS_SECOND = ((0, 8), (-4, 8))

TINY_CONTENT = (
    (),
    ((Chunk.INT32, 0, Vint(1)),),
    ((Chunk.INT8U, 1, Vint(300)), (Chunk.INT16S, 2, Vint(-2))),
)


def _tiny_build(bounds_list, content_list, freed_mask):
    allocs = [("alloc", low, high) for low, high in bounds_list]
    stores = [
        ("store", t, k, i, v)
        for k, content in enumerate(content_list)
        for t, i, v in content
        if bounds_list[k][0] <= i and i + chunks.size_chunk(t) <= bounds_list[k][1]
    ]
    frees = [("free", k) for k in range(len(bounds_list)) if freed_mask >> k & 1]
    return tuple(allocs + stores + frees)


@lru_cache(maxsize=None)
def tiny_states_small():
    """The scenarios of a few hundred reachable states: up to two blocks,
    bounds within [-4, 8), freed combinations, a handful of content
    shapes.  Only stores that fit their block are kept, so every op
    succeeds."""
    out = [_tiny_build((), (), 0)]
    for bd in TINY_BOUNDS_SMALL:
        for content in TINY_CONTENT:
            for freed in (0, 1):
                out.append(_tiny_build((bd,), (content,), freed))
    for bd1 in TINY_BOUNDS_SMALL:
        for bd2 in TINY_BOUNDS_SECOND:
            for c1 in TINY_CONTENT:
                for c2 in TINY_CONTENT:
                    for freed in range(4):
                        out.append(_tiny_build((bd1, bd2), (c1, c2), freed))
    return tuple(out)
