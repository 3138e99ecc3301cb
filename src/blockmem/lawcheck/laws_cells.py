"""Content-map laws: update, continuation handling, datum store/load.

Cases are built from *recipes*, sequences of datum stores applied to the
empty map; random recipes overlap freely, so broken-continuation shapes
arise naturally.  Expected values on the read-back path come from the
naive oracle's independently written conversion, keeping the two routes
honest against each other.
"""

from __future__ import annotations

from itertools import product

from .. import cells, chunks
from ..chunks import ALL_CHUNKS, Chunk, Vfloat, Vint, VUNDEF
from . import generators, oracle
from .domains import Domain, branch, choose, const, given, ints, pick, source, tuples
from .laws_base import CONCRETE_MEM, MISMATCHED_CHUNKS, cells_of, deflaw

_EX_SINGLE = tuple(
    (t, ofs, v)
    for t in ALL_CHUNKS
    for ofs in (-2, 0, 1, 4)
    for v in (Vint(5), VUNDEF)
)
_EX_SEED_CHUNKS = (Chunk.INT8U, Chunk.INT32, Chunk.FLOAT64)
_EX_SEED = tuple((t, ofs, Vint(5)) for t in _EX_SEED_CHUNKS for ofs in (0, 1))
_EX_RECIPES = (
    ((),)
    + tuple((s,) for s in _EX_SINGLE)
    + tuple((a, b) for a in _EX_SEED for b in _EX_SINGLE)
)
_EX_OFS = (-2, 0, 1, 2, 4)


def _sample_recipe(rng, max_n: int = 3) -> tuple:
    out = []
    for _ in range(rng.below(max_n + 1)):
        t = rng.choice(ALL_CHUNKS)
        out.append((t, rng.randint(-4, 6), generators.sample_value(rng, (1, 2))))
    return tuple(out)


def _recipes(n) -> Domain:
    """A random recipe; enumerated, the first ``n`` exhaustive recipes."""
    return source(_sample_recipe, _EX_RECIPES[:n])


def _store(ofs=(0, 1), values=(Vint(5),)):
    """The three parts of a drawn datum store: chunk, offset and value,
    enumerated at the seed chunks and the given offsets and values."""
    return (
        pick(ALL_CHUNKS, _EX_SEED_CHUNKS),
        ints(-4, 6, ofs),
        source(lambda rng: generators.sample_value(rng, (1, 2)), values),
    )


def _cells(k: int):
    """The case ("cells", recipe, *the other parts) of parts drawn with
    the recipe at position ``k``."""
    if k == 0:
        return ("cells",).__add__
    return lambda d: ("cells", d[k]) + d[:k] + d[k + 1 :]


def _after_store(prop):
    """Decorator for a check on ("cells", recipe, t, ofs, v, ...): the
    property ``prop(case, f, g)`` sees the recipe's map before and after
    storing v at ofs with chunk t."""

    def check(case):
        f = cells_of(case[1])
        return prop(case, f, cells.store_contents(f, case[2], case[3], case[4]))

    return check


# --- update ---------------------------------------------------------------------


# The datum ignores its drawn offset, so that offset is enumerated once.
_DATUM = tuples(*_store(ofs=(0,))).map(lambda s: cells.Datum(s[0], s[2]))
_DATUM_OR_NONE = branch((1, const(None)), (2, _DATUM))


def _ck_update_s(case):
    _, recipe, ofs, c = case
    f = cells_of(recipe)
    got = cells.lookup(cells.update(ofs, c, f), ofs)
    if got != c:
        return f"update then read back at {ofs}: {got!r} != {c!r}"
    return None


deflaw(
    "update_s",
    CONCRETE_MEM,
    "point update is visible at the updated offset",
    family="cells",
    domain=tuples(_DATUM_OR_NONE, _recipes(120), ints(-4, 6, (-2, 0, 3))).map(
        lambda d: ("cells", d[1], d[2], d[0])
    ),
    check=_ck_update_s,
)


def _ck_update_o(case):
    _, recipe, ofs, i = case
    f = cells_of(recipe)
    g = cells.update(ofs, cells.Datum(Chunk.INT8U, Vint(9)), f)
    if cells.lookup(g, i) != cells.lookup(f, i):
        return f"update at {ofs} disturbed offset {i}"
    return None


deflaw(
    "update_o",
    CONCRETE_MEM,
    "point update leaves every other offset untouched",
    family="cells",
    # An offset i drawn equal to ofs moves to ofs + 1.
    domain=tuples(ints(-4, 6, (-2, 0, 3)), ints(-4, 6, (-2, -1, 0, 1, 3, 4)), _recipes(120)).map(
        lambda d: ("cells", d[2], d[0], d[1] + 1 if d[1] == d[0] else d[1])
    ),
    check=_ck_update_o,
)


# --- check_cont / set_cont ------------------------------------------------------


def _ck_charact(case):
    _, recipe, ofs, n = case
    f = cells_of(recipe)
    expected = all(cells.lookup(f, i) is None for i in range(ofs, ofs + n))
    if cells.check_cont(f, ofs, n) != expected:
        return f"check_cont({ofs}, {n}) disagrees with cell-by-cell emptiness"
    return None


deflaw(
    "check_cont_charact",
    CONCRETE_MEM,
    "check_cont is true exactly when every cell of the range is empty",
    family="cells",
    domain=tuples(_recipes(None), ints(-4, 6, (-2, 0, 2)), ints(0, 8, (0, 1, 3, 8))).map(
        _cells(0)
    ),
    check=_ck_charact,
)


def _agree_on(f, g0, lo, hi):
    g = dict(g0)
    for i in range(lo, hi):
        c = f.get(i)
        if c is None:
            g.pop(i, None)
        else:
            g[i] = c
    return g


# Two recipes: the first of a case and a second one to agree with it.
_EX_SECOND = (_EX_RECIPES[0], _EX_RECIPES[9], _EX_RECIPES[70])
_TWO_RECIPES = (_recipes(60), source(_sample_recipe, _EX_SECOND))


def _ck_check_cont_exten(case):
    _, recipe, recipe2, ofs, n = case
    f = cells_of(recipe)
    g = _agree_on(f, cells_of(recipe2), ofs, ofs + n)
    if cells.check_cont(f, ofs, n) != cells.check_cont(g, ofs, n):
        return "check_cont distinguishes maps that agree on the range"
    return None


deflaw(
    "check_cont_exten",
    CONCRETE_MEM,
    "check_cont only reads the cells of its range",
    family="cells",
    domain=tuples(*_TWO_RECIPES, ints(-4, 6, (0, 2)), ints(0, 8, (0, 2, 5))).map(_cells(0)),
    check=_ck_check_cont_exten,
)


def _ck_load_exten(case):
    _, recipe, recipe2, t, ofs = case
    f = cells_of(recipe)
    g = _agree_on(f, cells_of(recipe2), ofs, ofs + chunks.size_chunk(t))
    if cells.load_contents(t, f, ofs) != cells.load_contents(t, g, ofs):
        return "load_contents reads outside the access footprint"
    return None


deflaw(
    "load_contents_exten",
    CONCRETE_MEM,
    "load_contents only reads the cells of the access footprint",
    family="cells",
    domain=tuples(*_TWO_RECIPES, pick(ALL_CHUNKS), ints(-4, 6, (0,))).map(_cells(0)),
    check=_ck_load_exten,
)


def _outside(rng, d):
    """An offset outside [ofs, ofs + n); one drawn inside moves past the
    range."""
    ofs, n = d
    i = -6 + rng.next_u64() % 17
    return ofs + n + rng.next_u64() % 3 if ofs <= i < ofs + n else i


def _outside_scope(d):
    ofs, n = d
    return [ofs + n if ofs <= i < ofs + n else i for i in (-2, -1, 0, 2, 4, 5, 8)]


def _ck_set_cont_outside(case):
    _, recipe, ofs, n, i = case
    f = cells_of(recipe)
    if cells.lookup(cells.set_cont(f, ofs, n), i) != cells.lookup(f, i):
        return f"set_cont({ofs}, {n}) disturbed outside offset {i}"
    return None


deflaw(
    "set_cont_outside",
    CONCRETE_MEM,
    "clearing a range leaves offsets outside it untouched",
    family="cells",
    domain=tuples(
        ints(-4, 4, (0, 2)), ints(0, 6, (0, 3)), given(_outside, _outside_scope), _recipes(120)
    ).map(_cells(3)),
    check=_ck_set_cont_outside,
)


def _ck_set_cont_inside(case):
    _, recipe, ofs, n, i = case
    f = cells_of(recipe)
    if cells.lookup(cells.set_cont(f, ofs, n), i) is not None:
        return f"set_cont({ofs}, {n}) left offset {i} non-empty"
    return None


deflaw(
    "set_cont_inside",
    CONCRETE_MEM,
    "clearing a range empties every cell inside it",
    family="cells",
    domain=tuples(
        ints(-4, 4, (-1, 0, 2)),
        ints(1, 7, (1, 3, 6)),
        _recipes(120),
        given(lambda rng, d: d[0] + rng.next_u64() % d[1], lambda d: range(d[0], d[0] + d[1])),
    ).map(_cells(2)),
    check=_ck_set_cont_inside,
)


# --- store_contents -------------------------------------------------------------


_STORE_AT = tuples(*_store(), _recipes(120)).map(_cells(3))


@_after_store
def _ck_store_at(case, f, g):
    _, _, t, ofs, v = case
    if cells.lookup(g, ofs) != cells.Datum(t, v):
        return "stored datum not anchored at its offset"
    return None


deflaw(
    "store_contents_at",
    CONCRETE_MEM,
    "a datum store anchors the datum at the written offset",
    family="cells",
    domain=_STORE_AT,
    check=_ck_store_at,
)


@_after_store
def _ck_store_cont(case, f, g):
    _, _, t, ofs, v = case
    for i in range(ofs + 1, ofs + chunks.size_chunk(t)):
        if cells.lookup(g, i) is not None:
            return f"footprint cell {i} not cleared by the store"
    return None


deflaw(
    "store_contents_cont",
    CONCRETE_MEM,
    "a datum store clears the continuation cells of its footprint",
    family="cells",
    domain=_STORE_AT,
    check=_ck_store_cont,
)


def _beside(rng, d):
    """An offset before or after the footprint of the store (t, ofs)."""
    t, ofs = d[0], d[1]
    if rng.next_u64() % 2 < 1:
        return ofs - 1 - rng.next_u64() % 4
    return ofs + chunks.size_chunk(t) + rng.next_u64() % 4


def _beside_scope(d):
    t, ofs = d[0], d[1]
    end = ofs + chunks.size_chunk(t)
    return (ofs - 1, ofs - 3, end, end + 2)


@_after_store
def _ck_store_outside(case, f, g):
    i = case[5]
    if cells.lookup(g, i) != cells.lookup(f, i):
        return f"store touched offset {i} outside its footprint"
    return None


deflaw(
    "store_contents_outside",
    CONCRETE_MEM,
    "a datum store leaves everything outside its footprint untouched",
    family="cells",
    domain=tuples(*_store(), given(_beside, _beside_scope), _recipes(120)).map(_cells(4)),
    check=_ck_store_outside,
)


# --- load after store -------------------------------------------------------------


def _reload_chunk(chunks_of):
    """A reload chunk of ``chunks_of[t]``, t the store's."""
    return given(lambda rng, d: choose(rng, chunks_of[d[0]]), lambda d: chunks_of[d[0]])


@_after_store
def _ck_load_store_same(case, f, g):
    _, _, t, ofs, v, t2 = case
    got = cells.load_contents(t2, g, ofs)
    want = oracle.oracle_convert(v, t2)
    if got != want:
        return f"reload at {t2.token} gave {got!r}, conversion oracle says {want!r}"
    return None


deflaw(
    "load_store_contents_same",
    CONCRETE_MEM,
    "reloading a stored datum at a compatible chunk yields its conversion",
    family="cells",
    domain=tuples(
        *_store(values=(Vint(5), Vint(-3), Vint(300), VUNDEF, Vfloat.from_float(1.5))),
        _recipes(60),
        _reload_chunk(chunks.COMPAT_CHUNKS),
    ).map(_cells(3)),
    check=_ck_load_store_same,
)


@_after_store
def _ck_load_store_mismatch(case, f, g):
    _, _, t, ofs, v, t2 = case
    if cells.load_contents(t2, g, ofs) != VUNDEF:
        return "size-mismatched reload produced a defined value"
    return None


deflaw(
    "load_store_contents_mismatch",
    CONCRETE_MEM,
    "reloading at an incompatible chunk yields undef",
    family="cells",
    domain=tuples(
        *_store(),
        _recipes(60),
        _reload_chunk(MISMATCHED_CHUNKS),
    ).map(_cells(3)),
    check=_ck_load_store_mismatch,
)


def _overlapping(ofs1: int, size1: int, ofs2: int, size2: int) -> bool:
    return ofs1 < ofs2 + size2 and ofs2 < ofs1 + size1


def _overlapping_load(rng, d):
    """A load (chunk, offset) at another offset that overlaps the store
    (t, ofs); a draw tries eight times, then gives None."""
    t, ofs = d[0], d[1]
    size = chunks.size_chunk(t)
    for _ in range(8):
        t2 = rng.choice(ALL_CHUNKS)
        ofs2 = ofs + rng.randint(-chunks.size_chunk(t2) + 1, size - 1)
        if ofs2 != ofs and _overlapping(ofs, size, ofs2, chunks.size_chunk(t2)):
            return t2, ofs2
    return None


def _overlapping_load_scope(d):
    t, ofs = d[0], d[1]
    size = chunks.size_chunk(t)
    return [
        (t2, ofs2)
        for t2, ofs2 in product(ALL_CHUNKS, _EX_OFS)
        if ofs2 != ofs and _overlapping(ofs, size, ofs2, chunks.size_chunk(t2))
    ]


def _overlap_case(d):
    t, ofs, v, load, recipe = d
    if load is None:
        return ("cells", recipe, Chunk.INT32, 0, v, Chunk.INT16S, 2)
    return ("cells", recipe, t, ofs, v) + load


@_after_store
def _ck_load_store_overlap(case, f, g):
    _, _, t, ofs, v, t2, ofs2 = case
    if cells.load_contents(t2, g, ofs2) != VUNDEF:
        return f"overlapping reload at {ofs2} produced a defined value"
    return None


deflaw(
    "load_store_contents_overlap",
    CONCRETE_MEM,
    "reloading across an overlapping store yields undef",
    family="cells",
    domain=tuples(
        *_store(), given(_overlapping_load, _overlapping_load_scope), _recipes(40)
    ).map(_overlap_case),
    check=_ck_load_store_overlap,
)


def _disjoint_offset(rng, d):
    """An offset for a load at chunk t2 whose footprint misses the store
    (t, ofs): after it or before it."""
    t, ofs, _, t2 = d
    if rng.next_u64() % 2 < 1:
        return ofs + chunks.size_chunk(t) + rng.next_u64() % 4
    return ofs - chunks.size_chunk(t2) - rng.next_u64() % 4


def _disjoint_offset_scope(d):
    t, ofs, _, t2 = d
    after, before = ofs + chunks.size_chunk(t), ofs - chunks.size_chunk(t2)
    return (after, after + 2, before, before - 2)


@_after_store
def _ck_load_store_disjoint(case, f, g):
    _, _, t, ofs, v, t2, ofs2 = case
    if _overlapping(ofs, chunks.size_chunk(t), ofs2, chunks.size_chunk(t2)):
        return None  # hypothesis not met
    if cells.load_contents(t2, g, ofs2) != cells.load_contents(t2, f, ofs2):
        return f"disjoint store changed the load at {ofs2}"
    return None


deflaw(
    "load_store_contents_disjoint",
    CONCRETE_MEM,
    "a store with a disjoint footprint commutes with loads",
    family="cells",
    domain=tuples(
        *_store(), pick(ALL_CHUNKS), given(_disjoint_offset, _disjoint_offset_scope), _recipes(40)
    ).map(_cells(5)),
    check=_ck_load_store_disjoint,
)


# --- the four-case load characterization ------------------------------------------


def _make_load_case_check(want: str):
    def check(case):
        _, recipe, t, ofs = case
        f = cells_of(recipe)
        d = cells.lookup(f, ofs)
        cont = cells.check_cont(f, ofs + 1, chunks.size_chunk(t) - 1)
        got = cells.load_contents(t, f, ofs)
        if want == "defined":
            if d is not None and chunks.compat(t, d.chunk) and cont:
                if got != chunks.convert(d.value, t):
                    return "intact compatible datum did not load as its conversion"
        elif want == "mismatch":
            if d is not None and not chunks.compat(t, d.chunk) and got != VUNDEF:
                return "incompatible datum loaded defined"
        elif want == "empty":
            if d is None and got != VUNDEF:
                return "empty cell loaded defined"
        else:  # broken continuation
            if d is not None and chunks.compat(t, d.chunk) and not cont and got != VUNDEF:
                return "datum with broken footprint loaded defined"
        return None

    return check


_LOAD_CASES = tuples(_recipes(None), pick(ALL_CHUNKS), ints(-4, 6, _EX_OFS)).map(_cells(0))

for _name, _mode, _about in (
    ("load_contents_1", "defined", "an intact compatible datum loads as its conversion"),
    ("load_contents_2", "mismatch", "a size-mismatched datum loads as undef"),
    ("load_contents_3", "empty", "an empty cell loads as undef"),
    ("load_contents_4", "broken", "a datum with a broken footprint loads as undef"),
):
    deflaw(
        _name,
        CONCRETE_MEM,
        _about,
        family="cells",
        domain=_LOAD_CASES,
        check=_make_load_case_check(_mode),
    )


# --- divisibility ------------------------------------------------------------------


def _ck_zdivide(case):
    _, a, b = case
    by_mod = b % a == 0
    by_witness = any(b == k * a for k in range(-abs(b) - 1, abs(b) + 2))
    if by_mod != by_witness:
        return f"{a} | {b}: modulo test and witness search disagree"
    return None


deflaw(
    "zdivide_Zmod",
    CONCRETE_MEM,
    "divisibility coincides with a zero remainder",
    family="cells",
    domain=tuples("arith", ints(1, 8), ints(-64, 64, range(-17, 18))),
    check=_ck_zdivide,
)
