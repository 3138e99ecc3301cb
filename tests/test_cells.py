"""Content-map primitives against their one-cell-at-a-time twins."""

from hypothesis import given, settings, strategies as st

from blockmem import cells
from blockmem.cells import (
    Datum,
    check_cont,
    load_contents,
    lookup,
    set_cont,
    store_contents,
    update,
)
from blockmem.chunks import ALL_CHUNKS, Chunk, Vint, Vptr, VUNDEF
from blockmem.lawcheck import oracle


def test_update_readback():
    d = Datum(Chunk.INT32, Vint(1))
    f = update(0, d, {})
    assert lookup(f, 0) == d
    assert lookup(f, 5) is None
    assert lookup(update(0, None, f), 0) is None


def test_check_cont_examples():
    assert check_cont({}, 0, 3)
    f = update(1, Datum(Chunk.INT8U, Vint(2)), {})
    assert not check_cont(f, 0, 3)
    assert check_cont(f, 7, 0)


def test_set_cont_examples():
    f = store_contents({}, Chunk.INT32, 0, Vint(9))
    assert set_cont(f, 0, 0) == f
    g = set_cont(f, 2, 3)
    assert lookup(g, 5) == lookup(f, 5)
    assert lookup(g, 3) is None
    assert lookup(g, 0) == lookup(f, 0)


def test_store_contents_examples():
    f = store_contents({}, Chunk.INT32, 0, Vint(9))
    assert lookup(f, 0) == Datum(Chunk.INT32, Vint(9))
    assert lookup(f, 2) is None
    g = update(8, Datum(Chunk.INT8U, Vint(1)), {})
    g2 = store_contents(g, Chunk.INT16S, 0, Vint(4))
    assert lookup(g2, 8) == lookup(g, 8)


def test_load_contents_examples():
    f = store_contents({}, Chunk.INT32, 0, Vint(5))
    assert load_contents(Chunk.INT32, f, 0) == Vint(5)
    assert load_contents(Chunk.INT16U, f, 0) == VUNDEF
    overlapped = store_contents(f, Chunk.INT32, 2, Vint(2))
    assert load_contents(Chunk.INT32, overlapped, 0) == VUNDEF
    assert load_contents(Chunk.INT32, {}, 0) == VUNDEF


def test_load_contents_float_kind_mismatch():
    f = store_contents({}, Chunk.INT32, 0, Vint(5))
    assert load_contents(Chunk.FLOAT32, f, 0) == VUNDEF


Recipes = st.lists(
    st.tuples(
        st.sampled_from(ALL_CHUNKS),
        st.integers(-4, 8),
        st.one_of(st.just(VUNDEF), st.integers(-300, 300).map(Vint)),
    ),
    max_size=4,
)


def _both(recipe):
    f = {}
    alist = ()
    for t, ofs, v in recipe:
        f = store_contents(f, t, ofs, v)
        alist = oracle.o_store_contents(alist, t, ofs, v)
    return f, alist


def _cells_equal(f, alist, lo=-6, hi=18):
    for i in range(lo, hi):
        d = lookup(f, i)
        c = oracle.o_lookup(alist, i)
        if d is None:
            if c is not None:
                return False
        elif c is None or (d.chunk, d.value) != c:
            return False
    return True


@settings(max_examples=300)
@given(Recipes)
def test_store_contents_matches_recursive_twin(recipe):
    f, alist = _both(recipe)
    assert _cells_equal(f, alist)


@settings(max_examples=300)
@given(Recipes, st.integers(-5, 10), st.integers(0, 9))
def test_check_cont_matches_recursive_twin(recipe, ofs, n):
    f, alist = _both(recipe)
    assert check_cont(f, ofs, n) == oracle.o_check_cont(alist, ofs, n)


@settings(max_examples=300)
@given(Recipes, st.integers(-5, 10), st.integers(0, 9))
def test_set_cont_matches_recursive_twin(recipe, ofs, n):
    f, alist = _both(recipe)
    assert _cells_equal(set_cont(f, ofs, n), oracle.o_set_cont(alist, ofs, n))


@settings(max_examples=300)
@given(Recipes, st.sampled_from(ALL_CHUNKS), st.integers(-5, 10))
def test_load_contents_matches_recursive_twin(recipe, t, ofs):
    f, alist = _both(recipe)
    assert load_contents(t, f, ofs) == oracle.o_load_contents(t, alist, ofs)


Values = st.one_of(
    st.just(VUNDEF),
    st.integers(-300, 300).map(Vint),
    st.builds(Vptr, st.integers(1, 3), st.integers(-4, 8)),
)


@settings(max_examples=200)
@given(Recipes, st.sampled_from(ALL_CHUNKS), st.integers(-4, 8), Values)
def test_store_is_update_after_clear(recipe, t, ofs, v):
    """The one-copy store equals the documented composition."""
    f, _ = _both(recipe)
    composed = update(ofs, Datum(t, v), set_cont(f, ofs + 1, cells.chunks.size_chunk(t) - 1))
    assert store_contents(f, t, ofs, v) == composed
