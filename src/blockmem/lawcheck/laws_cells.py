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
from ..chunks import ALL_CHUNKS, Chunk, Vint, VUNDEF
from . import generators, oracle
from .laws_base import CONCRETE_MEM, cells_of, deflaw

_EX_SINGLE = tuple(
    (t, ofs, v)
    for t in ALL_CHUNKS
    for ofs in (-2, 0, 1, 4)
    for v in (Vint(5), VUNDEF)
)
_EX_SEED = tuple(
    (t, ofs, Vint(5)) for t in (Chunk.INT8U, Chunk.INT32, Chunk.FLOAT64) for ofs in (0, 1)
)
_EX_RECIPES = (
    ((),)
    + tuple((s,) for s in _EX_SINGLE)
    + tuple((a, b) for a in _EX_SEED for b in _EX_SINGLE)
)
_EX_OFS = (-2, 0, 1, 2, 4)
_EX_NS = (0, 1, 3, 8)


def _ex_cells(n, tails):
    """The enumerator of the cases ("cells", recipe) + tail over the
    first ``n`` exhaustive recipes (all with ``n`` None) and ``tails``."""
    tails = tuple(tails)
    return lambda: (("cells", recipe) + tail for recipe in _EX_RECIPES[:n] for tail in tails)


def _after_store(prop):
    """Decorator for a check on ("cells", recipe, t, ofs, v, ...): the
    property ``prop(case, f, g)`` sees the recipe's map before and after
    storing v at ofs with chunk t."""

    def check(case):
        f = cells_of(case[1])
        return prop(case, f, cells.store_contents(f, case[2], case[3], case[4]))

    return check


def _sample_recipe(rng, max_n: int = 3) -> tuple:
    out = []
    for _ in range(rng.below(max_n + 1)):
        t = rng.choice(ALL_CHUNKS)
        out.append((t, rng.randint(-4, 6), generators.sample_value(rng, (1, 2))))
    return tuple(out)


def _sample_store(rng):
    return rng.choice(ALL_CHUNKS), rng.randint(-4, 6), generators.sample_value(rng, (1, 2))


# --- update -------------------------------------------------------------------


_ex_update_s = _ex_cells(120, product((-2, 0, 3), (None, cells.Datum(Chunk.INT8U, Vint(1)))))


def _sm_update_s(rng):
    if rng.chance(1, 3):
        c = None
    else:
        t, _, v = _sample_store(rng)
        c = cells.Datum(t, v)
    return ("cells", _sample_recipe(rng), rng.randint(-4, 6), c)


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
    exhaustive=_ex_update_s,
    sample=_sm_update_s,
    check=_ck_update_s,
)


_ex_update_o = _ex_cells(
    120, ((ofs, i) for ofs, i in product((-2, 0, 3), (-2, -1, 0, 1, 3, 4)) if i != ofs)
)


def _sm_update_o(rng):
    ofs = rng.randint(-4, 6)
    i = rng.randint(-4, 6)
    if i == ofs:
        i += 1
    return ("cells", _sample_recipe(rng), ofs, i)


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
    exhaustive=_ex_update_o,
    sample=_sm_update_o,
    check=_ck_update_o,
)


# --- check_cont / set_cont ------------------------------------------------------


_ex_charact = _ex_cells(None, product((-2, 0, 2), _EX_NS))


def _sm_charact(rng):
    return ("cells", _sample_recipe(rng), rng.randint(-4, 6), rng.below(9))


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
    exhaustive=_ex_charact,
    sample=_sm_charact,
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


_EX_SECOND = (_EX_RECIPES[0], _EX_RECIPES[9], _EX_RECIPES[70])

_ex_check_cont_exten = _ex_cells(60, product(_EX_SECOND, (0, 2), (0, 2, 5)))


def _sm_check_cont_exten(rng):
    return (
        "cells",
        _sample_recipe(rng),
        _sample_recipe(rng),
        rng.randint(-4, 6),
        rng.below(9),
    )


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
    exhaustive=_ex_check_cont_exten,
    sample=_sm_check_cont_exten,
    check=_ck_check_cont_exten,
)


_ex_load_exten = _ex_cells(60, product(_EX_SECOND, ALL_CHUNKS, (0,)))


def _sm_load_exten(rng):
    return (
        "cells",
        _sample_recipe(rng),
        _sample_recipe(rng),
        rng.choice(ALL_CHUNKS),
        rng.randint(-4, 6),
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
    exhaustive=_ex_load_exten,
    sample=_sm_load_exten,
    check=_ck_load_exten,
)


_ex_set_cont_outside = _ex_cells(
    120,
    (
        (ofs, n, i)
        for ofs, n, i in product((0, 2), (0, 3), (-2, -1, 0, 2, 4, 5, 8))
        if not ofs <= i < ofs + n
    ),
)


def _sm_set_cont_outside(rng):
    ofs = rng.randint(-4, 4)
    n = rng.below(7)
    i = rng.randint(-6, 10)
    if ofs <= i < ofs + n:
        i = ofs + n + rng.below(3)
    return ("cells", _sample_recipe(rng), ofs, n, i)


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
    exhaustive=_ex_set_cont_outside,
    sample=_sm_set_cont_outside,
    check=_ck_set_cont_outside,
)


_ex_set_cont_inside = _ex_cells(
    120, ((ofs, n, i) for ofs in (-1, 0, 2) for n in (1, 3, 6) for i in range(ofs, ofs + n))
)


def _sm_set_cont_inside(rng):
    ofs = rng.randint(-4, 4)
    n = rng.randint(1, 7)
    return ("cells", _sample_recipe(rng), ofs, n, ofs + rng.below(n))


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
    exhaustive=_ex_set_cont_inside,
    sample=_sm_set_cont_inside,
    check=_ck_set_cont_inside,
)


# --- store_contents -------------------------------------------------------------


_ex_store_at = _ex_cells(120, _EX_SEED)


def _sm_store_at(rng):
    t, ofs, v = _sample_store(rng)
    return ("cells", _sample_recipe(rng), t, ofs, v)


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
    exhaustive=_ex_store_at,
    sample=_sm_store_at,
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
    exhaustive=_ex_store_at,
    sample=_sm_store_at,
    check=_ck_store_cont,
)


_ex_store_outside = _ex_cells(
    120,
    (
        (t, ofs, v, i)
        for (t, ofs, v), i in product(_EX_SEED, (-3, -1, 0, 2, 5, 8, 9))
        if not ofs <= i < ofs + chunks.size_chunk(t)
    ),
)


def _sm_store_outside(rng):
    t, ofs, v = _sample_store(rng)
    size = chunks.size_chunk(t)
    i = ofs - rng.randint(1, 4) if rng.chance(1, 2) else ofs + size + rng.below(4)
    return ("cells", _sample_recipe(rng), t, ofs, v, i)


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
    exhaustive=_ex_store_outside,
    sample=_sm_store_outside,
    check=_ck_store_outside,
)


# --- load after store -------------------------------------------------------------


_ex_load_store_same = _ex_cells(
    60,
    (
        (t, ofs, v, t2)
        for t, ofs, _ in _EX_SEED
        for v in (Vint(5), Vint(-3), Vint(300), VUNDEF, generators.TINY_VALUES[3])
        for t2 in chunks.COMPAT_CHUNKS[t]
    ),
)


def _sm_load_store_same(rng):
    t, ofs, v = _sample_store(rng)
    return ("cells", _sample_recipe(rng), t, ofs, v, rng.choice(chunks.COMPAT_CHUNKS[t]))


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
    exhaustive=_ex_load_store_same,
    sample=_sm_load_store_same,
    check=_ck_load_store_same,
)


_ex_load_store_mismatch = _ex_cells(
    60,
    (
        (t, ofs, v, t2)
        for (t, ofs, v), t2 in product(_EX_SEED, ALL_CHUNKS)
        if not chunks.compat(t, t2)
    ),
)


def _sm_load_store_mismatch(rng):
    t, ofs, v = _sample_store(rng)
    others = [t2 for t2 in ALL_CHUNKS if not chunks.compat(t, t2)]
    return ("cells", _sample_recipe(rng), t, ofs, v, rng.choice(others))


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
    exhaustive=_ex_load_store_mismatch,
    sample=_sm_load_store_mismatch,
    check=_ck_load_store_mismatch,
)


def _overlapping(ofs1: int, size1: int, ofs2: int, size2: int) -> bool:
    return ofs1 < ofs2 + size2 and ofs2 < ofs1 + size1


_ex_load_store_overlap = _ex_cells(
    40,
    (
        (t, ofs, v, t2, ofs2)
        for (t, ofs, v), t2, ofs2 in product(_EX_SEED, ALL_CHUNKS, _EX_OFS)
        if ofs2 != ofs and _overlapping(ofs, chunks.size_chunk(t), ofs2, chunks.size_chunk(t2))
    ),
)


def _sm_load_store_overlap(rng):
    t, ofs, v = _sample_store(rng)
    for _ in range(8):
        t2 = rng.choice(ALL_CHUNKS)
        ofs2 = ofs + rng.randint(-chunks.size_chunk(t2) + 1, chunks.size_chunk(t) - 1)
        if ofs2 != ofs and _overlapping(
            ofs, chunks.size_chunk(t), ofs2, chunks.size_chunk(t2)
        ):
            return ("cells", _sample_recipe(rng), t, ofs, v, t2, ofs2)
    return ("cells", _sample_recipe(rng), Chunk.INT32, 0, v, Chunk.INT16S, 2)


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
    exhaustive=_ex_load_store_overlap,
    sample=_sm_load_store_overlap,
    check=_ck_load_store_overlap,
)


_ex_load_store_disjoint = _ex_cells(
    40,
    (
        (t, ofs, v, t2, ofs2)
        for (t, ofs, v), t2, ofs2 in product(_EX_SEED, ALL_CHUNKS, (-4, -2, 0, 2, 5, 8))
        if not _overlapping(ofs, chunks.size_chunk(t), ofs2, chunks.size_chunk(t2))
    ),
)


def _sm_load_store_disjoint(rng):
    t, ofs, v = _sample_store(rng)
    t2 = rng.choice(ALL_CHUNKS)
    if rng.chance(1, 2):
        ofs2 = ofs + chunks.size_chunk(t) + rng.below(4)
    else:
        ofs2 = ofs - chunks.size_chunk(t2) - rng.below(4)
    return ("cells", _sample_recipe(rng), t, ofs, v, t2, ofs2)


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
    exhaustive=_ex_load_store_disjoint,
    sample=_sm_load_store_disjoint,
    check=_ck_load_store_disjoint,
)


# --- the four-case load characterization ------------------------------------------


_ex_load_cases = _ex_cells(None, ((t, ofs) for t in ALL_CHUNKS for ofs in _EX_OFS))


def _sm_load_cases(rng):
    return ("cells", _sample_recipe(rng), rng.choice(ALL_CHUNKS), rng.randint(-4, 6))


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
        exhaustive=_ex_load_cases,
        sample=_sm_load_cases,
        check=_make_load_case_check(_mode),
    )


# --- divisibility ------------------------------------------------------------------


def _ex_zdivide():
    for a in range(1, 9):
        for b in range(-17, 18):
            yield ("arith", a, b)


def _sm_zdivide(rng):
    return ("arith", rng.randint(1, 8), rng.randint(-64, 64))


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
    exhaustive=_ex_zdivide,
    sample=_sm_zdivide,
    check=_ck_zdivide,
)
