"""State-level laws: the axiom groups over alloc/free/load/store.

Cases are scenarios plus a quantifier assignment (an access triple, a
probe block, alloc arguments).  The exhaustive phase sweeps the tiny
universe; the random phase draws reachable states and mostly-valid
assignments, with deliberate invalid probes mixed in so that both
directions of the iff-style laws get exercised.

A law is assembled from three parts:

- a *domain* over the replay of a shared scenario (``on_state``): the
  probe, access, store, alloc and free draws, and their extensions with a
  second access or a reload chunk (``_overlap`` draws ``_valid_store`` and
  then an overlapping load), each stated beside its scope;
- the *prologue* of an operation (``_after``), which rebuilds the state,
  applies alloc, store, free or free_list with the case's arguments, and
  passes vacuously when the operation fails;
- one check per property.  A property that holds for several operations,
  in both directions or for several classes of locations, is stated once
  and takes the operation, the direction or the class as a parameter
  (``_kept("free", "bounds", exempt=True)``, ``_access_iff("load",
  forward=True)``, ``_load_after_store("overlap", _overlapping)``).
"""

from __future__ import annotations

from itertools import chain, product, starmap
from operator import add

from .. import chunks, memstate, relations
from ..chunks import ALL_CHUNKS, Chunk, Vint, VUNDEF
from . import generators, oracle
from .domains import choose, extend, given, ints, lists, source, tuples
from .laws_base import (
    CONCRETE_MEM,
    GEN_MEM,
    G_ACCESS,
    G_BOUNDS,
    G_DETERMINISM,
    G_FRESH,
    G_GOODVARS,
    G_VALIDITY,
    LAST_PROLOGUE,
    MEM_INJECT,
    MISMATCHED_CHUNKS,
    REF_GEN_MEM,
    REL_MEM,
    SCENARIO_OPS,
    STATE,
    deflaw,
    on_state,
    run_cached,
    state_of,
    stored,
    valid_access,
    valid_access_scope,
)

# --- domains --------------------------------------------------------------------
#
# A tail on the replay r of a case's scenario is a direct draw ``f(rng, r)``
# and its scope ``f_scope(r)`` (see ``laws_base.on_state``).


def _probe_block(rng, r):
    """Any block id, valid or not."""
    nb = r.state.nextblock
    return (0, 1, 2, 3, nb, nb + 2)[rng.next_u64() % 6]


def _probe_block_scope(r):
    """Blocks 0, 1, 2 and the next."""
    return (0, 1, 2, r.state.nextblock)


# One chunk of each size.
_SIZES = (Chunk.INT8U, Chunk.INT16S, Chunk.INT32, Chunk.FLOAT64)
# The chunks and offsets a probe is enumerated at: widely for the laws about
# arbitrary accesses, narrowly where a probe only stands in for a missing
# valid access.
_PROBE_WIDE = (_SIZES, (-4, -1, 0, 1, 2, 4, 6))
_PROBE_NARROW = ((Chunk.INT8U, Chunk.INT32), (0, 1))


def _access_probe(rng, r):
    """An arbitrary (chunk, block, offset), valid or not: any chunk, a probe
    block and an offset in [-6, 9]."""
    t = ALL_CHUNKS[rng.next_u64() % len(ALL_CHUNKS)]
    return t, _probe_block(rng, r), -6 + rng.next_u64() % 16


def _access_probe_scope(r, scope=_PROBE_WIDE):
    return product(scope[0], _probe_block_scope(r), scope[1])


def _access_or_probe(rng, r):
    """A valid access, or a probe where there is none."""
    return valid_access(rng, r) if r.accesses else _access_probe(rng, r)


def _access_or_probe_scope(r):
    return valid_access_scope(r) if r.accesses else _access_probe_scope(r, _PROBE_NARROW)


def _block_or(rng, r, odds, fallback):
    """A valid block with probability ``odds``, else one of ``fallback``."""
    blocks = r.live
    if blocks and rng.next_u64() % odds[1] < odds[0]:
        return blocks[rng.next_u64() % len(blocks)]
    return fallback[rng.next_u64() % len(fallback)]


def _block_or_scope(r, fallback):
    """The valid blocks, then ``fallback`` (each once)."""
    return r.live + tuple(dict.fromkeys(fallback))


# The stored values enumerated: an int and undef.
_VALUES = (Vint(7), VUNDEF)
_ALLOC_SPANS = (0, 1, 2, 4, 8, 12)


def _alloc_args(lows=(0, 2), spans=(0, 8)):
    """Alloc bounds: now and then an empty span, else a span from a menu;
    enumerated at ``lows``, with one empty span and ``spans``."""
    scope = [(low, high) for low in lows for high in (low - 1, *(low + s for s in spans))]
    return source(_draw_alloc_args, scope)


def _draw_alloc_args(rng):
    low = -6 + rng.next_u64() % 13
    if rng.next_u64() % 10 < 1:
        return low, low - rng.next_u64() % 3
    return low, low + _ALLOC_SPANS[rng.next_u64() % len(_ALLOC_SPANS)]


def _access(rng, r):
    """An access triple, valid three times out of four."""
    if rng.next_u64() % 4 < 3 and r.accesses:
        return valid_access(rng, r)
    return _access_probe(rng, r)


def _access_scope(r):
    """The valid accesses and the probes, once each."""
    return chain(valid_access_scope(r), _access_probe_scope(r))


def _valid_store(rng, r):
    """A store that will succeed: a valid access and a value."""
    return valid_access(rng, r) + (generators.sample_value(rng, r.live),)


def _valid_store_scope(r):
    return [a + (v,) for a in valid_access_scope(r) for v in _VALUES]


def _free_block(rng, r):
    return (_block_or(rng, r, (4, 5), (0, 1, r.state.nextblock)),)


def _free_block_scope(r):
    return [(b,) for b in _block_or_scope(r, (0, 1, r.state.nextblock))]


_PROBE = on_state(
    lambda rng, r: (_probe_block(rng, r),), lambda r: [(b,) for b in _probe_block_scope(r)]
)
_ACCESS = on_state(_access, _access_scope)
_STORE = on_state(_valid_store, _valid_store_scope)
_ALLOC = extend(STATE, _alloc_args())
_FREE = on_state(_free_block, _free_block_scope)


# --- operation prologues ------------------------------------------------------------
#
# Each prologue applies an operation to the state of a case ("state", ops,
# *args, ...) with the case's arguments and returns (state before, state
# after, block acted on), or None when the operation fails.  The block is
# the new one for alloc, the target of a store or free, and the tuple of
# targets for free_list.


def _alloc(case):
    m = state_of(case[1])
    r = memstate.alloc(m, case[2], case[3])
    return None if r is None else (m, r[1], r[0])


def _store(case):
    m, m2 = stored(*case[1:6])
    return None if m2 is None else (m, m2, case[3])


def _free(case):
    m = state_of(case[1])
    m2 = memstate.free(m, case[2])
    return None if m2 is None else (m, m2, case[2])


def _free_list(case):
    m = state_of(case[1])
    m2 = memstate.free_list(m, case[2])
    return None if m2 is None else (m, m2, case[2])


_PROLOGUES = {"alloc": _alloc, "store": _store, "free": _free, "free_list": _free_list}


def _after(op: str, given=None):
    """Decorator for a check whose cases apply ``op``: the property
    ``prop(case, m, m2, b)`` runs on the prologue's result.  A case passes
    vacuously when ``given(case)``, the law's own hypothesis checked
    before the operation runs, is false, or when the operation fails.  The
    prologue's last result is kept for the next check of the same case
    object (``laws_base.LAST_PROLOGUE``)."""
    prologue = _PROLOGUES[op]
    last = LAST_PROLOGUE

    def wrap(prop):
        def check(case):
            if given is not None and not given(case):
                return None
            if last[0] is case and last[1] is prologue:
                r = last[2]
            else:
                r = prologue(case)
                last[:] = case, prologue, r
            return None if r is None else prop(case, *r)

        return check

    return wrap


# --- decidability / definitional laws ------------------------------------------


def _ck_valid_block_dec(case):
    _, ops, b = case
    m = state_of(ops)
    spelled = 1 <= b < m.nextblock and b not in memstate.freed_blocks(m)
    if memstate.valid_block(m, b) != spelled:
        return f"valid_block({b}) disagrees with its definition"
    return None


deflaw(
    "valid_block_dec",
    CONCRETE_MEM,
    "block validity agrees with its spelled-out definition",
    family="state",
    groups=(G_VALIDITY,),
    domain=_PROBE,
    check=_ck_valid_block_dec,
)


def _ck_aligned_dec(case):
    _, ops, t, b, i = case
    m = state_of(ops)
    if memstate.valid_access(m, t, b, i) and i % chunks.align_chunk(t) != 0:
        return f"valid access at misaligned offset {i} for {t.token}"
    return None


deflaw(
    "aligned_dec",
    CONCRETE_MEM,
    "every valid access is aligned",
    family="state",
    groups=(G_ACCESS,),
    domain=_ACCESS,
    check=_ck_aligned_dec,
)


def _ck_valid_pointer_dec(case):
    _, ops, t, b, i = case
    m = state_of(ops)
    low, high = memstate.bounds(m, b)
    spelled = (
        memstate.valid_block(m, b)
        and low <= i
        and i + chunks.size_chunk(t) <= high
        and i % chunks.align_chunk(t) == 0
    )
    if memstate.valid_access(m, t, b, i) != spelled:
        return f"valid_access({t.token}, {b}, {i}) disagrees with its definition"
    return None


deflaw(
    "valid_pointer_dec",
    CONCRETE_MEM,
    "valid access agrees with its four-conjunct definition",
    family="state",
    groups=(G_ACCESS,),
    domain=_ACCESS,
    check=_ck_valid_pointer_dec,
)


# --- bounds (S14-S17) -----------------------------------------------------------


@_after("alloc")
def _ck_alloc_result_bounds(case, m, m2, b):
    _, _, low, high = case
    if memstate.bounds(m2, b) != (low, high):
        return "fresh block does not carry the requested bounds"
    return None


deflaw(
    "alloc_result_bounds_",
    CONCRETE_MEM,
    "a fresh block has the bounds given to alloc",
    family="state",
    groups=(G_BOUNDS,),
    domain=_ALLOC,
    check=_ck_alloc_result_bounds,
)


# What a frame law compares before and after an operation on block b: the
# ``memstate`` query, and the blocks it probes in the state m before.
_FRAMES = {
    "bounds": ("bounds", lambda m, b: range(0, m.nextblock + 1)),
    "validity": ("valid_block", lambda m, b: range(1, m.nextblock)),
    "freshness": ("fresh_block", lambda m, b: (0, 1, b, m.nextblock, m.nextblock + 2)),
}


def _kept(op: str, what: str, exempt: bool = False):
    """``op`` keeps the ``what`` of every probed block; with ``exempt``,
    of every block but the one it acts on."""
    query, probes = _FRAMES[what]

    @_after(op)
    def check(case, m, m2, b):
        get = getattr(memstate, query)
        for other in probes(m, b):
            if not (exempt and other == b) and get(m2, other) != get(m, other):
                return f"{op} changed the {what} of block {other}"
        return None

    return check


deflaw(
    "alloc_bounds_inv_",
    CONCRETE_MEM,
    "alloc preserves the bounds of every other block",
    family="state",
    groups=(G_BOUNDS,),
    domain=_ALLOC,
    check=_kept("alloc", "bounds", exempt=True),
)

deflaw(
    "store_bounds_inv_",
    CONCRETE_MEM,
    "store preserves all bounds",
    family="state",
    groups=(G_BOUNDS,),
    domain=_STORE,
    check=_kept("store", "bounds"),
)

deflaw(
    "free_bounds_inv_",
    CONCRETE_MEM,
    "free preserves the bounds of every other block",
    family="state",
    groups=(G_BOUNDS,),
    domain=_FREE,
    check=_kept("free", "bounds", exempt=True),
)


@_after("free")
def _ck_free_same_bounds(case, m, m2, b):
    if memstate.bounds(m2, b) != memstate.bounds(m, b):
        return "free changed the bounds of the freed block"
    return None


deflaw(
    "free_same_bounds_",
    CONCRETE_MEM,
    "the freed block keeps its bounds",
    family="state",
    groups=(G_BOUNDS,),
    domain=_FREE,
    check=_ck_free_same_bounds,
)


# --- validity (S9-S13) ------------------------------------------------------------


@_after("alloc")
def _ck_alloc_valid_block(case, m, m2, b):
    if not memstate.valid_block(m2, b):
        return "fresh block is not valid after alloc"
    return None


deflaw(
    "alloc_valid_block",
    CONCRETE_MEM,
    "alloc validates the new block",
    family="state",
    groups=(G_VALIDITY,),
    domain=_ALLOC,
    check=_ck_alloc_valid_block,
)


def _ck_alloc_validates_only_new(case):
    _, ops, b = case
    m = state_of(ops)
    r = memstate.alloc(m, 0, 4)
    if r is None:
        return None
    nb, m2 = r
    if b != nb and not memstate.valid_block(m, b) and memstate.valid_block(m2, b):
        return f"alloc validated unrelated block {b}"
    return None


deflaw(
    "alloc_not_valid_block_",
    CONCRETE_MEM,
    "alloc validates nothing but the new block",
    family="state",
    groups=(G_VALIDITY,),
    domain=_PROBE,
    check=_ck_alloc_validates_only_new,
)


def _ck_load_valid_block(case):
    _, ops, t, b, i = case
    m = state_of(ops)
    if memstate.load(t, m, b, i) is not None and not memstate.valid_block(m, b):
        return "load succeeded on an invalid block"
    return None


deflaw(
    "load_valid_block_",
    CONCRETE_MEM,
    "a successful load implies a valid block",
    family="state",
    groups=(G_VALIDITY,),
    domain=_ACCESS,
    check=_ck_load_valid_block,
)


def _store_validity(backward: bool):
    """A store neither invalidates a block nor, backward, validates one."""

    @_after("store")
    def check(case, m, m2, b):
        before, after = (m2, m) if backward else (m, m2)
        for other in range(1, before.nextblock):
            if memstate.valid_block(before, other) and not memstate.valid_block(after, other):
                return f"store {'validated' if backward else 'invalidated'} block {other}"
        return None

    return check


deflaw(
    "store_valid_block_",
    CONCRETE_MEM,
    "store preserves block validity",
    family="state",
    groups=(G_VALIDITY,),
    domain=_STORE,
    check=_store_validity(backward=False),
)

deflaw(
    "store_valid_block_inv_",
    CONCRETE_MEM,
    "store validates no block",
    family="state",
    groups=(G_VALIDITY,),
    domain=_STORE,
    check=_store_validity(backward=True),
)

deflaw(
    "free_valid_block_",
    CONCRETE_MEM,
    "free changes no other block's validity",
    family="state",
    groups=(G_VALIDITY,),
    domain=_FREE,
    check=_kept("free", "validity", exempt=True),
)


@_after("free")
def _ck_free_not_valid_block(case, m, m2, b):
    if memstate.valid_block(m2, b):
        return "freed block is still valid"
    return None


deflaw(
    "free_not_valid_block_",
    CONCRETE_MEM,
    "the freed block is invalid afterwards",
    family="state",
    groups=(G_VALIDITY,),
    domain=_FREE,
    check=_ck_free_not_valid_block,
)


def _ck_valid_block_free(case):
    _, ops, b = case
    m = state_of(ops)
    succeeded = memstate.free(m, b) is not None
    if succeeded != memstate.valid_block(m, b):
        return f"free success on {b} disagrees with block validity"
    return None


deflaw(
    "valid_block_free_",
    CONCRETE_MEM,
    "free succeeds exactly on valid blocks",
    family="state",
    groups=(G_VALIDITY,),
    domain=_FREE,
    check=_ck_valid_block_free,
)


# --- freshness (P30-P34) ------------------------------------------------------------


def _ck_fresh_exclusive(case):
    _, ops, b = case
    m = state_of(ops)
    if memstate.fresh_block(m, b) and memstate.valid_block(m, b):
        return f"block {b} is both fresh and valid"
    return None


deflaw(
    "fresh_valid_block_exclusive_",
    CONCRETE_MEM,
    "freshness and validity are mutually exclusive",
    family="state",
    groups=(G_FRESH,),
    domain=_PROBE,
    check=_ck_fresh_exclusive,
)


@_after("alloc")
def _ck_alloc_fresh(case, m, m2, b):
    if not memstate.fresh_block(m, b):
        return "alloc returned a block that was not fresh"
    return None


deflaw(
    "alloc_fresh_block_",
    CONCRETE_MEM,
    "the block returned by alloc was fresh beforehand",
    family="state",
    groups=(G_FRESH,),
    domain=_ALLOC,
    check=_ck_alloc_fresh,
)


@_after("alloc")
def _ck_alloc_fresh_2(case, m, m2, b):
    if memstate.fresh_block(m2, b):
        return "allocated block is still fresh"
    for b2 in range(m.nextblock, m.nextblock + 3):
        if memstate.fresh_block(m, b2) and b2 != b and not memstate.fresh_block(m2, b2):
            return f"alloc consumed freshness of {b2}"
    return None


deflaw(
    "alloc_fresh_block_2_",
    CONCRETE_MEM,
    "alloc consumes exactly the freshness of its result",
    family="state",
    groups=(G_FRESH,),
    domain=_ALLOC,
    check=_ck_alloc_fresh_2,
)

deflaw(
    "store_fresh_block_",
    CONCRETE_MEM,
    "store preserves freshness",
    family="state",
    groups=(G_FRESH,),
    domain=_STORE,
    check=_kept("store", "freshness"),
)

deflaw(
    "free_fresh_block_",
    CONCRETE_MEM,
    "free preserves freshness",
    family="state",
    groups=(G_FRESH,),
    domain=_FREE,
    check=_kept("free", "freshness"),
)


# --- valid access iff (S18, D19-D22) --------------------------------------------------


def _access_iff(op: str, forward: bool):
    """One direction of "``op`` succeeds exactly at valid accesses": forward,
    it succeeds at every valid access; backward, only at valid ones."""

    def check(case):
        _, ops, t, b, i = case
        m = state_of(ops)

        def succeeds():
            if op == "load":
                return memstate.load(t, m, b, i) is not None
            return memstate.store(t, m, b, i, Vint(1)) is not None

        if forward and memstate.valid_access(m, t, b, i) and not succeeds():
            return f"valid access but {op} failed"
        if not forward and succeeds() and not memstate.valid_access(m, t, b, i):
            return f"{op} succeeded at an invalid access"
        return None

    return check


for _name, _op, _forward, _about in (
    ("valid_pointer_load_", "load", True, "loads succeed at valid accesses"),
    ("load_valid_pointer_", "load", False, "loads succeed only at valid accesses"),
    ("valid_pointer_store_", "store", True, "stores succeed at valid accesses"),
    ("store_valid_pointer_", "store", False, "stores succeed only at valid accesses"),
):
    deflaw(
        _name,
        CONCRETE_MEM,
        _about,
        family="state",
        groups=(G_ACCESS,),
        domain=_ACCESS,
        check=_access_iff(_op, _forward),
    )


def _ck_valid_pointer_compat(case):
    _, ops, t, b, i = case
    m = state_of(ops)
    for t2 in chunks.COMPAT_CHUNKS[t]:
        if memstate.valid_access(m, t, b, i) != memstate.valid_access(m, t2, b, i):
            return f"access validity differs between {t.token} and {t2.token}"
    return None


deflaw(
    "valid_pointer_compat_",
    CONCRETE_MEM,
    "access validity only depends on the chunk's size class",
    family="state",
    groups=(G_ACCESS,),
    domain=_ACCESS,
    check=_ck_valid_pointer_compat,
)


def _preserve_pointer_check(op: str, forward: bool):
    """``op`` keeps every valid access (forward) or creates none
    (backward).  The case's extra field is the freed block, or the
    (block, offset) stored to; an alloc is exempt on its new block."""

    def check(case):
        _, ops, t, b, i, extra = case
        m = state_of(ops)
        if op == "alloc":
            r = memstate.alloc(m, 0, 4)
            if r is None or b == r[0]:
                return None
            m2 = r[1]
        elif op == "free":
            m2 = memstate.free(m, extra)
        else:
            m2 = memstate.store(Chunk.INT8U, m, extra[0], extra[1], Vint(1))
        if m2 is None:
            return None
        before = memstate.valid_access(m, t, b, i)
        after = memstate.valid_access(m2, t, b, i)
        if forward and before and not after:
            return f"{op} lost a valid access in block {b}"
        if not forward and after and not before:
            return f"{op} created a valid access in block {b}"
        return None

    return check


# The draw and the scope of what a pointer law's operation acts on.
_ACTED_ON = {
    "free": (lambda rng, r: choose(rng, r.live), lambda r: r.live),
    "store": (
        lambda rng, r: valid_access(rng, r)[1:],
        lambda r: [a[1:] for a in valid_access_scope(r, lambda accesses: accesses[:1])],
    ),
    "alloc": (lambda rng, r: None, lambda r: (None,)),
}


def _pointer_inv(op: str):
    """An access (a valid one where there is one), and the freed block or
    the (block, offset) stored to."""
    draw, scope = _ACTED_ON[op]
    return on_state(
        lambda rng, r: _access_or_probe(rng, r) + (draw(rng, r),),
        lambda r: [a + (x,) for a, x in product(_access_or_probe_scope(r), scope(r))],
    )


_POINTER_INV_ABOUT = {
    "store": "store creates no valid access",
    "alloc": "alloc creates no valid access in other blocks",
    "free": "free creates no valid access",
}

for _name, _op in (
    ("store_valid_pointer_inv_", "store"),
    ("alloc_valid_pointer_inv_", "alloc"),
    ("free_valid_pointer_inv_", "free"),
):
    deflaw(
        _name,
        CONCRETE_MEM,
        _POINTER_INV_ABOUT[_op],
        family="state",
        groups=(G_ACCESS,),
        domain=_pointer_inv(_op),
        check=_preserve_pointer_check(_op, forward=False),
    )


# --- good variables (S5-S8) -------------------------------------------------------


def _load_after_store(cls: str, given=None):
    """A load after a store behaves per the class of the two locations
    (``_class_predicates``): a "similar" one reads the stored value
    converted, a "mismatch" or "overlap" one reads undef, an "other" one
    what it read before.  ``given(case)`` is the law's hypothesis that
    the locations fall in ``cls``.  A case ("state", ops, t, b, i, v, t2,
    ...) loads t2 at the block and offset that follow it; where it gives
    only an offset, or neither, the store's block and offset stand in."""

    @_after("store", given=given)
    def check(case, m, m2, b):
        t2, *at = case[6:]
        b2, i2 = at if at[1:] else (b, at[0] if at else case[4])
        got = memstate.load(t2, m2, b2, i2)
        if cls == "similar":
            want = oracle.oracle_convert(case[5], t2)
            if got != want:
                return f"reload after store gave {got!r}, conversion oracle says {want!r}"
        elif cls == "other":
            if got != memstate.load(t2, m, b2, i2):
                return f"store at ({b}, {case[4]}) changed a disjoint load at ({b2}, {i2})"
        elif got is not None and got != VUNDEF:
            where = "size-mismatched reload" if cls == "mismatch" else f"overlapping reload at {i2}"
            return f"{where} produced a defined value"
        return None

    return check


def _reloaded(chunks_of):
    """A valid store and a reload chunk of ``chunks_of[t]``, t the store's."""

    def draw(rng, r):
        st = _valid_store(rng, r)
        return st + (choose(rng, chunks_of[st[0]]),)

    def scope(r):
        return [st + (t2,) for st in _valid_store_scope(r) for t2 in chunks_of[st[0]]]

    return on_state(draw, scope)


_LOAD_STORE_SAME = _reloaded(chunks.COMPAT_CHUNKS)


deflaw(
    "load_store_same_",
    CONCRETE_MEM,
    "store then load at the same location yields the converted value",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_SAME,
    check=_load_after_store("similar"),
)


def _disjoint(case):
    _, _, t, b, i, v, t2, b2, i2 = case
    return b != b2 or not (i < i2 + chunks.size_chunk(t2) and i2 < i + chunks.size_chunk(t))


_LOAD_STORE_DISJOINT = on_state(
    lambda rng, r: _valid_store(rng, r) + _access_or_probe(rng, r),
    lambda r: starmap(add, product(_valid_store_scope(r), _access_or_probe_scope(r))),
)


deflaw(
    "load_store_disjoint_",
    CONCRETE_MEM,
    "a store preserves loads at disjoint footprints",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_DISJOINT,
    check=_load_after_store("other", _disjoint),
)


def _mismatched(case):
    return not chunks.compat(case[2], case[6])


_LOAD_STORE_MISMATCH = _reloaded(MISMATCHED_CHUNKS)


deflaw(
    "load_store_mismatch_",
    CONCRETE_MEM,
    "reading back at a size-mismatched chunk yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_MISMATCH,
    check=_load_after_store("mismatch", _mismatched),
)


def _overlapping(case):
    _, _, t, b, i, v, t2, i2 = case
    return i2 != i and i < i2 + chunks.size_chunk(t2) and i2 < i + chunks.size_chunk(t)


def _overlap(rng, r):
    """A valid store, and a chunk and an offset whose footprint overlaps
    the store's."""
    st = _valid_store(rng, r)
    t2 = ALL_CHUNKS[rng.next_u64() % len(ALL_CHUNKS)]
    lo, hi = st[2] - chunks.size_chunk(t2) + 1, st[2] + chunks.size_chunk(st[0]) - 1
    return st + (t2, lo + rng.next_u64() % (hi - lo + 1))


def _overlap_scope(r):
    """Each store at one chunk of each size and up to five offsets near the
    store's."""
    return [
        st + (t2, st[2] + d)
        for st in _valid_store_scope(r)
        for t2 in _SIZES
        for d in (-2, -1, 1, 2, 3)
        if 1 - chunks.size_chunk(t2) <= d < chunks.size_chunk(st[0])
    ]


_LOAD_STORE_OVERLAP = on_state(_overlap, _overlap_scope)


deflaw(
    "load_store_overlap_",
    CONCRETE_MEM,
    "reading across an overlapping store yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_OVERLAP,
    check=_load_after_store("overlap", _overlapping),
)


@_after("alloc")
def _ck_load_alloc_same(case, m, m2, b):
    for t, i in relations.valid_accesses(m2, b)[:12]:
        if memstate.load(t, m2, b, i) != VUNDEF:
            return f"fresh block loaded defined at ({t.token}, {i})"
    return None


deflaw(
    "load_alloc_same_",
    CONCRETE_MEM,
    "every load from a fresh block yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_ALLOC,
    check=_ck_load_alloc_same,
)


def _ck_load_alloc_other(case):
    _, ops, t, b, i = case
    m = state_of(ops)
    before = memstate.load(t, m, b, i)
    if before is None:
        return None
    r = memstate.alloc(m, 0, 8)
    if r is None:
        return None
    if memstate.load(t, r[1], b, i) != before:
        return "alloc changed a load in an existing block"
    return None


deflaw(
    "load_alloc_other_",
    CONCRETE_MEM,
    "alloc preserves loads in existing blocks",
    family="state",
    groups=(G_GOODVARS,),
    domain=_ACCESS,
    check=_ck_load_alloc_other,
)


def _ck_load_free_other(case):
    _, ops, t, b, i, victim = case
    m = state_of(ops)
    if victim == b:
        return None
    before = memstate.load(t, m, b, i)
    if before is None:
        return None
    m2 = memstate.free(m, victim)
    if m2 is None:
        return None
    if memstate.load(t, m2, b, i) != before:
        return f"freeing {victim} changed a load in block {b}"
    return None


_LOAD_FREE_OTHER = on_state(
    lambda rng, r: valid_access(rng, r) + (choose(rng, r.live),),
    lambda r: [a + (b,) for a in valid_access_scope(r) for b in r.live],
)


deflaw(
    "load_free_other_",
    CONCRETE_MEM,
    "free preserves loads in other blocks",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_FREE_OTHER,
    check=_ck_load_free_other,
)


# --- domains and determinism (P35) ---------------------------------------------------


def _scrambled(ops, salt: int):
    out = []
    for op in ops:
        if op[0] == "store":
            out.append((op[0], op[1], op[2], op[3], Vint(9 + salt)))
        else:
            out.append(op)
    return tuple(out)


# A scenario and its twin with other stored values; the salt of the twin's
# values is enumerated at 0.
_STATE2 = tuples(SCENARIO_OPS, ints(0, 4, (0,))).map(
    lambda d: ("state2", d[0], _scrambled(*d))
)


def _ck_same_domain_nextblock(case):
    _, ops1, ops2 = case
    m1, m2 = state_of(ops1), state_of(ops2)
    if memstate.same_domain(m1, m2) and m1.nextblock != m2.nextblock:
        return "same domain but different next block"
    return None


deflaw(
    "same_domain_same_nextblock",
    CONCRETE_MEM,
    "equal domains share the next-block counter",
    family="state",
    groups=(G_DETERMINISM,),
    domain=_STATE2,
    check=_ck_same_domain_nextblock,
)


def _ck_alloc_same_domain(case):
    _, ops1, ops2 = case
    m1, m2 = state_of(ops1), state_of(ops2)
    if not memstate.same_domain(m1, m2):
        return None
    for low, high in ((0, 8), (2, 1)):
        r1 = memstate.alloc(m1, low, high)
        r2 = memstate.alloc(m2, low, high)
        if (r1 is None) != (r2 is None):
            return "alloc determinism broken: one side failed"
        if r1 is not None:
            if r1[0] != r2[0]:
                return f"alloc chose different blocks: {r1[0]} vs {r2[0]}"
            if not memstate.same_domain(r1[1], r2[1]):
                return "alloc broke domain equality"
    return None


deflaw(
    "alloc_same_domain_",
    CONCRETE_MEM,
    "alloc picks the same block on equal domains",
    family="state",
    groups=(G_DETERMINISM,),
    domain=_STATE2,
    check=_ck_alloc_same_domain,
)


@_after("store")
def _ck_store_inversion(case, m, m2, b):
    ids = range(1, m.nextblock)
    if (
        m2.nextblock != m.nextblock
        or memstate.freed_blocks(m2) != memstate.freed_blocks(m)
        or any(memstate.bounds(m2, k) != memstate.bounds(m, k) for k in ids)
        or m2.allocated_bytes != m.allocated_bytes
    ):
        return "store changed something besides contents"
    for other in ids:
        if other != b and memstate.contents_of(m2, other) != memstate.contents_of(m, other):
            return f"store changed the contents of block {other}"
    return None


deflaw(
    "store_inversion",
    CONCRETE_MEM,
    "a successful store only rewrites the stored block's contents",
    family="state",
    groups=(G_DETERMINISM,),
    domain=_STORE,
    check=_ck_store_inversion,
)


# --- general facts (abstract-model module) --------------------------------------------


for _name, _about in (
    (
        "alloc_valid_block_inv",
        "blocks valid after an alloc were valid before, except the new one",
    ),
    ("alloc_not_valid_block_2", "alloc keeps unrelated invalid blocks invalid"),
):
    deflaw(
        _name,
        GEN_MEM,
        _about,
        family="state",
        groups=(G_VALIDITY,),
        domain=_PROBE,
        check=_ck_alloc_validates_only_new,
    )


deflaw(
    "load_alloc_other_2",
    GEN_MEM,
    "alloc preserves loads in existing blocks",
    family="state",
    groups=(G_GOODVARS,),
    domain=_ACCESS,
    check=_ck_load_alloc_other,
)


@_after("alloc")
def _ck_alloc_result_valid_pointer(case, m, m2, b):
    for t, i in relations.valid_accesses(m2, b):
        if not memstate.valid_access(m2, t, b, i):
            return f"in-bounds aligned access ({t.token}, {i}) invalid in fresh block"
    return None


deflaw(
    "alloc_result_valid_pointer",
    GEN_MEM,
    "a fresh block admits every aligned in-bounds access",
    family="state",
    groups=(G_ACCESS,),
    domain=_ALLOC,
    check=_ck_alloc_result_valid_pointer,
)

for _name, _op in (
    ("alloc_valid_pointer_inv", "alloc"),
    ("store_valid_pointer_inv", "store"),
    ("free_valid_pointer_inv", "free"),
):
    deflaw(
        _name,
        GEN_MEM,
        _POINTER_INV_ABOUT[_op],
        family="state",
        groups=(G_ACCESS,),
        domain=_pointer_inv(_op),
        check=_preserve_pointer_check(_op, forward=False),
    )


deflaw(
    "store_valid_pointer_2",
    REF_GEN_MEM,
    "store preserves valid accesses",
    family="state",
    groups=(G_ACCESS,),
    domain=_pointer_inv("store"),
    check=_preserve_pointer_check("store", forward=True),
)

deflaw(
    "load_alloc_same_2",
    REF_GEN_MEM,
    "every load from a fresh block yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_ALLOC,
    check=_ck_load_alloc_same,
)

deflaw(
    "load_store_mismatch_2",
    REF_GEN_MEM,
    "reading back at a size-mismatched chunk yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_MISMATCH,
    check=_load_after_store("mismatch", _mismatched),
)

deflaw(
    "load_store_overlap_2",
    REF_GEN_MEM,
    "reading across an overlapping store yields undef",
    family="state",
    groups=(G_GOODVARS,),
    domain=_LOAD_STORE_OVERLAP,
    check=_load_after_store("overlap", _overlapping),
)


# --- the load/store classification ------------------------------------------------


def _class_predicates(t1, b1, i1, t2, b2, i2):
    same_spot = b1 == b2 and i1 == i2
    overlapping = (
        b1 == b2
        and i1 != i2
        and i1 < i2 + chunks.size_chunk(t2)
        and i2 < i1 + chunks.size_chunk(t1)
    )
    return {
        "similar": same_spot and chunks.compat(t1, t2),
        "mismatch": same_spot and not chunks.compat(t1, t2),
        "overlap": overlapping,
        "other": b1 != b2
        or (not same_spot and not overlapping),
    }


def _classification(rng, r):
    """A store, and any access, half the time replaced by one near the
    stored location."""
    st = _valid_store(rng, r)
    anywhere = _access_or_probe(rng, r)
    if rng.next_u64() % 2:
        return st + anywhere
    t2 = ALL_CHUNKS[rng.next_u64() % len(ALL_CHUNKS)]
    return st + (t2, st[1], st[2] - 2 + rng.next_u64() % 6)


def _classification_scope(r):
    """Each store with the accesses near it."""
    return [
        st + (t2, st[1], i2)
        for st in _valid_store_scope(r)
        for t2 in (Chunk.INT8U, Chunk.INT16S, Chunk.INT32)
        for i2 in (st[2] - 2, st[2], st[2] + 1)
    ]


_CLASSIFICATION = on_state(_classification, _classification_scope)


def _ck_classification(case):
    _, ops, t, b, i, v, t2, b2, i2 = case
    classes = _class_predicates(t, b, i, t2, b2, i2)
    if sum(classes.values()) != 1:
        return f"classification is not a partition: {classes}"
    return None


deflaw(
    "load_store_classification",
    REF_GEN_MEM,
    "every load/store location pair falls in exactly one class",
    family="state",
    domain=_CLASSIFICATION,
    check=_ck_classification,
)


def _in_class(cls: str):
    return lambda case: _class_predicates(*case[2:5], *case[6:9])[cls]


for _name, _mode in (
    ("load_store_characterization_lsc_similar", "similar"),
    ("load_store_characterization_lsc_other", "other"),
    ("load_store_characterization_lsc_overlap", "overlap"),
    ("load_store_characterization_lsc_mismatch", "mismatch"),
):
    deflaw(
        _name,
        REF_GEN_MEM,
        f"load-after-store behaves per its class ({_mode})",
        family="state",
        groups=(G_GOODVARS,),
        domain=_CLASSIFICATION,
        check=_load_after_store(_mode, _in_class(_mode)),
    )


@_after("store")
def _ck_store_same_domain(case, m, m2, b):
    if not memstate.same_domain(m, m2):
        return "store changed the domain"
    return None


deflaw(
    "store_same_domain",
    REF_GEN_MEM,
    "store preserves the domain",
    family="state",
    groups=(G_DETERMINISM,),
    domain=_STORE,
    check=_ck_store_same_domain,
)


def _ck_free_same_domain(case):
    _, ops1, ops2, b = case
    m1, m2 = state_of(ops1), state_of(ops2)
    if not memstate.same_domain(m1, m2):
        return None
    r1 = memstate.free(m1, b)
    r2 = memstate.free(m2, b)
    if (r1 is None) != (r2 is None):
        return "parallel frees disagree on success"
    if r1 is not None and not memstate.same_domain(r1, r2):
        return "parallel frees broke domain equality"
    return None


_FREE_SAME_DOMAIN = tuples(
    SCENARIO_OPS,
    given(
        lambda rng, d: _block_or(rng, run_cached(d[0]), (4, 5), (0, 1)),
        lambda d: _block_or_scope(run_cached(d[0]), (0, 1)),
    ),
    ints(0, 4, (0,)),
).map(lambda d: ("state2", d[0], _scrambled(d[0], d[2]), d[1]))


deflaw(
    "free_same_domain",
    REF_GEN_MEM,
    "free acts identically on equal domains",
    family="state",
    groups=(G_DETERMINISM,),
    domain=_FREE_SAME_DOMAIN,
    check=_ck_free_same_domain,
)


@_after("free")
def _ck_free_not_valid_pointer(case, m, m2, b):
    low, high = memstate.bounds(m, b)
    for t in (Chunk.INT8U, Chunk.INT32):
        for i in (low, 0, high - chunks.size_chunk(t)):
            if memstate.valid_access(m2, t, b, i):
                return f"freed block still admits access ({t.token}, {i})"
    return None


deflaw(
    "free_not_valid_pointer",
    REF_GEN_MEM,
    "a freed block admits no access",
    family="state",
    groups=(G_ACCESS,),
    domain=_FREE,
    check=_ck_free_not_valid_pointer,
)


# --- list operations --------------------------------------------------------------


_REQUESTS = lists(ints(0, 3, (0, 1, 2)), _alloc_args(lows=(0,), spans=(4,)))
_ALLOC_LIST = extend(STATE, tuples(_REQUESTS))


def _ck_alloc_list_unfold(case):
    _, ops, reqs = case
    m = state_of(ops)
    whole = memstate.alloc_list(m, reqs)
    if not reqs:
        if whole != ([], m):
            return "alloc_list on the empty list is not the identity"
        return None
    head = memstate.alloc(m, reqs[0][0], reqs[0][1])
    if head is None:
        if whole is not None:
            return "alloc_list succeeded although its first alloc fails"
        return None
    b, m1 = head
    rest = memstate.alloc_list(m1, reqs[1:])
    if rest is None:
        if whole is not None:
            return "alloc_list succeeded although its tail fails"
        return None
    bs, mf = rest
    if whole != ([b] + bs, mf):
        return "alloc_list does not unfold into alloc plus the tail"
    return None


deflaw(
    "alloc_list_unfold",
    MEM_INJECT,
    "alloc_list unfolds one allocation at a time",
    family="state",
    domain=_ALLOC_LIST,
    check=_ck_alloc_list_unfold,
)


def _free_list_args(rng, r):
    """Up to three blocks, each a valid one (where there is one) five times
    out of six."""
    fallback = (0, 1, r.state.nextblock)
    return (tuple([_block_or(rng, r, (5, 6), fallback) for _ in range(rng.next_u64() % 4)]),)


def _free_list_args_scope(r):
    """Lists of up to two of the valid blocks and the next."""
    blocks = _block_or_scope(r, (r.state.nextblock,))
    return [(bs,) for n in (0, 1, 2) for bs in product(blocks, repeat=n)]


_FREE_LIST = on_state(_free_list_args, _free_list_args_scope)


@_after("free_list")
def _ck_free_list_fresh_block(case, m, m2, bs):
    for b in bs:
        if memstate.fresh_block(m, b):
            return f"free_list freed a fresh block {b}"
    for probe in (0, 1, m.nextblock, m.nextblock + 1):
        if memstate.fresh_block(m2, probe) != memstate.fresh_block(m, probe):
            return f"free_list changed the freshness of {probe}"
    return None


deflaw(
    "free_list_fresh_block",
    MEM_INJECT,
    "free_list never touches fresh blocks and preserves freshness",
    family="state",
    groups=(G_FRESH,),
    domain=_FREE_LIST,
    check=_ck_free_list_fresh_block,
)


@_after("free_list")
def _ck_free_list_not_valid_block(case, m, m2, bs):
    for b in bs:
        if memstate.valid_block(m2, b):
            return f"block {b} is still valid after free_list"
    return None


deflaw(
    "free_list_not_valid_block",
    REL_MEM,
    "no freed-list element stays valid",
    family="state",
    groups=(G_VALIDITY,),
    domain=_FREE_LIST,
    check=_ck_free_list_not_valid_block,
)
