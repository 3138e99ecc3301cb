"""States and the four operations: success conditions and bookkeeping."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from blockmem import (
    CapacityPolicy,
    Chunk,
    MemConfig,
    Vint,
    Vptr,
    VUNDEF,
    alloc,
    alloc_list,
    bounds,
    cells,
    contents_of,
    empty,
    free,
    free_list,
    freed_blocks,
    fresh_block,
    load,
    loadv,
    memstate,
    same_domain,
    store,
    storev,
    valid_access,
    valid_block,
)

CAP4 = MemConfig(capacity=CapacityPolicy(max_total_bytes=4))


def _one_block(low=0, high=8):
    b, m = alloc(empty(), low, high)
    return b, m


def test_empty_state():
    m = empty()
    assert m.nextblock == 1
    assert not valid_block(m, 1)
    assert load(Chunk.INT32, m, 1, 0) is None
    assert empty() == empty()


def test_alloc_basics():
    b, m = alloc(empty(), 0, 8)
    assert b == 1 and m.nextblock == 2
    assert bounds(m, 1) == (0, 8)
    assert alloc(empty(CAP4), 0, 8) is None
    assert alloc(empty(CAP4), 0, 4) is not None


def test_alloc_negative_and_empty_spans():
    b, m = alloc(empty(), -4, 12)
    assert bounds(m, b) == (-4, 12)
    b2, m2 = alloc(m, 5, 1)  # low > high: empty block
    assert valid_block(m2, b2)
    assert not valid_access(m2, Chunk.INT8U, b2, 5)
    assert m2.allocated_bytes == 16


def test_free_basics():
    b, m = _one_block()
    m2 = free(m, b)
    assert m2 is not None and not valid_block(m2, b)
    assert free(empty(), 1) is None
    assert bounds(m2, b) == bounds(m, b)
    assert free(m2, b) is None  # double free


def test_capacity_accounting_allows_reuse():
    cfg = MemConfig(capacity=CapacityPolicy(max_total_bytes=8))
    b, m = alloc(empty(cfg), 0, 8)
    assert alloc(m, 0, 8) is None
    m = free(m, b)
    assert m.allocated_bytes == 0
    b2, m = alloc(m, 0, 8)
    assert b2 == 2  # ids never reused


def test_load_store_roundtrip():
    b, m = _one_block()
    m = store(Chunk.INT32, m, b, 0, Vint(42))
    assert load(Chunk.INT32, m, b, 0) == Vint(42)


def test_load_fresh_block_is_undef():
    b, m = _one_block()
    assert load(Chunk.INT32, m, b, 4) == VUNDEF


def test_load_misaligned_fails():
    b, m = _one_block()
    assert load(Chunk.INT32, m, b, 1) is None


def test_alignment_can_be_disabled():
    cfg = MemConfig(check_alignment=False)
    b, m = alloc(empty(cfg), 0, 8)
    assert valid_access(m, Chunk.INT32, b, 1)
    m2 = store(Chunk.INT32, m, b, 1, Vint(9))
    assert load(Chunk.INT32, m2, b, 1) == Vint(9)


def test_store_failures():
    b, m = _one_block()
    assert store(Chunk.INT32, m, b, 0, Vint(1)) is not None
    assert store(Chunk.INT32, m, b, 6, Vint(1)) is None  # 6 + 4 > 8
    assert store(Chunk.INT32, empty(), 1, 0, Vint(1)) is None


def test_valid_and_fresh():
    m0 = empty()
    assert fresh_block(m0, 1)
    b, m = alloc(m0, 0, 4)
    assert valid_block(m, b) and not fresh_block(m, b)
    m2 = free(m, b)
    assert not valid_block(m2, b) and not fresh_block(m2, b)
    for probe in (0, 1, 2, 5):
        assert not (fresh_block(m, probe) and valid_block(m, probe))


def test_bounds_defaults_and_stability():
    assert bounds(empty(), 7) == (0, 0)
    b, m = _one_block()
    m2 = store(Chunk.INT8U, m, b, 3, Vint(1))
    assert bounds(m2, b) == bounds(m, b)
    b2, m3 = alloc(m2, -4, 4)
    assert bounds(m3, b) == (0, 8)


def test_valid_access_examples():
    b, m = _one_block()
    assert valid_access(m, Chunk.INT32, b, 4)
    assert valid_access(m, Chunk.FLOAT64, b, 0)
    b7, m7 = alloc(empty(), 0, 7)
    assert not valid_access(m7, Chunk.FLOAT64, b7, 0)
    m_freed = free(m, b)
    assert not valid_access(m_freed, Chunk.INT8U, b, 0)


def test_same_domain():
    b, m = _one_block()
    assert same_domain(m, m)
    m2 = store(Chunk.INT32, m, b, 0, Vint(3))
    assert same_domain(m, m2)
    _, m3 = alloc(m, 0, 4)
    assert not same_domain(m, m3)


def test_free_list():
    b, m = _one_block()
    assert free_list(m, []) == m
    assert free_list(m, [b, b]) is None
    b2, m2 = alloc(m, 0, 4)
    both = free_list(m2, [b, b2])
    assert both == free(free(m2, b), b2)


def test_a_failed_free_list_frees_nothing_on_a_transient():
    # A transient state is updated in place, so a free-list that freed its
    # valid prefix before failing would leave that prefix freed.
    b, m = _one_block()
    b2, m = alloc(m, 0, 4)
    t = memstate.transient(m)
    for bs in ([b, b], [b, 99], [b2, b, b2]):
        assert free_list(t, bs) is None
        assert valid_block(t, b) and valid_block(t, b2)
    assert memstate.persistent(t).slots == m.slots
    assert memstate.persistent(free_list(t, [b, b2])).slots == free_list(m, [b, b2]).slots
    assert memstate.persistent(m) is m


def test_alloc_list():
    assert alloc_list(empty(), []) == ([], empty())
    bs, m = alloc_list(empty(), [(0, 4), (0, 4)])
    assert bs == [1, 2] and m.nextblock == 3
    head = alloc(empty(), 0, 4)
    b, m1 = head
    rest = alloc_list(m1, [(0, 4)])
    assert alloc_list(empty(), [(0, 4), (0, 4)]) == ([b] + rest[0], rest[1])
    # a request the capacity rejects fails the whole list
    capped = empty(MemConfig(capacity=CapacityPolicy(8)))
    assert alloc_list(capped, [(0, 4), (0, 8)]) is None


def _alloc_fold(m, requests):
    """``alloc_list`` as the left-to-right fold of ``alloc``."""
    out = []
    for low, high in requests:
        r = alloc(m, low, high)
        if r is None:
            return None
        b, m = r
        out.append(b)
    return out, m


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([None, 0, 1, 8, 20, -1, -8]),
    st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 16)), max_size=2),
    st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 16)), max_size=4),
)
def test_alloc_list_is_the_fold_of_alloc(capacity, before, requests):
    # alloc_list decides on the total span before it allocates; spans are
    # never negative, so its verdict and result are the fold's.
    m = empty(MemConfig(capacity=CapacityPolicy(capacity)))
    for low, high in before:
        r = alloc(m, low, high)
        if r is not None:
            m = r[1]
    assert alloc_list(m, requests) == _alloc_fold(m, requests)
    assert alloc_list(m, iter(requests)) == _alloc_fold(m, requests)


def test_a_failed_alloc_list_allocates_nothing_on_a_transient():
    # A transient state is updated in place, so an alloc-list that allocated
    # a prefix before failing would leave that prefix in its slots.
    m = memstate.empty(MemConfig(capacity=CapacityPolicy(12)))
    b, m = alloc(m, 0, 8)
    t = memstate.transient(m)
    for requests in ([(0, 4), (0, 1)], [(0, 2), (0, 2), (0, 8)], [(0, 5)]):
        assert alloc_list(t, requests) is None
        assert len(t.slots) == 1 and memstate.persistent(t).slots == m.slots
        assert (t.nextblock, t.allocated_bytes) == (2, 8)
    assert alloc_list(t, [(0, 2), (0, 2)])[0] == [2, 3]


def test_loadv_storev():
    b, m = _one_block()
    assert loadv(Chunk.INT32, m, VUNDEF) is None
    assert storev(Chunk.INT32, m, Vint(3), Vint(1)) is None
    m2 = storev(Chunk.INT32, m, Vptr(b, 0), Vint(5))
    assert m2 == store(Chunk.INT32, m, b, 0, Vint(5))
    assert loadv(Chunk.INT32, m2, Vptr(b, 0)) == load(Chunk.INT32, m2, b, 0) == Vint(5)


def test_store_changes_only_target_contents():
    b1, m = alloc(empty(), 0, 8)
    b2, m = alloc(m, 0, 8)
    m = store(Chunk.INT32, m, b1, 0, Vint(1))
    m2 = store(Chunk.INT32, m, b2, 4, Vint(2))
    assert contents_of(m2, b1) == contents_of(m, b1)
    assert m2.nextblock == m.nextblock
    assert freed_blocks(m2) == freed_blocks(m)
    ids = range(1, m.nextblock)
    assert [bounds(m2, k) for k in ids] == [bounds(m, k) for k in ids]


def _observe(m, ids):
    return [(bounds(m, b), valid_block(m, b), load(Chunk.INT32, m, b, 0)) for b in ids]


@pytest.mark.parametrize("n", [1, 33, 1100])
def test_states_persist_under_derived_operations(n):
    m = empty()
    for k in range(n):
        b, m = alloc(m, -8 * (k % 3), 8 + k % 5)
        m = store(Chunk.INT32, m, b, 0, Vint(k))
    for b in range(3, n + 1, 3):
        m = free(m, b)
    ids = range(0, n + 3)
    before = _observe(m, ids)
    for b in sorted({1, n // 2 + 1, n}):
        b2, grown = alloc(m, 0, 16)
        assert load(Chunk.INT32, store(Chunk.INT32, grown, b2, 0, Vint(-1)), b2, 0) == Vint(-1)
        if valid_block(m, b):
            stored = store(Chunk.INT32, m, b, 0, Vint(-2))
            assert load(Chunk.INT32, stored, b, 0) == Vint(-2)
            assert not valid_block(free(m, b), b)
            assert not valid_block(free(stored, b), b)
        else:
            assert free(m, b) is None
        assert _observe(m, ids) == before


def _fields(m):
    return list(m.slots), m.nextblock, m.allocated_bytes


@pytest.mark.parametrize("run", [False, True])
def test_set_contents_raises_off_domain(run):
    # Block 0 would index the last slot from the end: the writer raises
    # at either edge of the domain and leaves the state as it was.
    b, m = alloc(empty(), 0, 8)
    _, m = alloc(m, -4, 4)
    m = store(Chunk.INT32, free(m, 2), b, 0, Vint(5))
    if run:
        m = memstate.transient(m)
    before = _fields(m)
    for bad in (0, m.nextblock):
        with pytest.raises(IndexError):
            memstate.set_contents(m, bad, contents_of(m, b))
        assert _fields(m) == before


def test_a_run_updates_its_slots_in_place():
    # Inside a run, alloc and store update the run's own slots: 400 ops on
    # a 20,000-block state allocate far less than one copy of its 20,000
    # slot references (160 KB).  A snapshot taken before them stays as it
    # was while the run goes on.
    # Traced from before the run's list exists, so that a resize of the
    # list counts its growth only.
    tracemalloc.start()
    try:
        t = memstate.transient(empty())
        for _ in range(20_000):
            _, t = alloc(t, 0, 8)
        p = memstate.persistent(t)
        snapshot = _fields(p)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for k in range(200):
            t = store(Chunk.INT32, t, 1 + k % 2, 4 * (k % 2), Vint(k))
            _, t = alloc(t, 0, 8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert t.nextblock == 20_201 and load(Chunk.INT32, t, 2, 4) == Vint(199)
    assert _fields(p) == snapshot and load(Chunk.INT32, p, 2, 4) == VUNDEF


def _filled_run(n):
    """A run with one block of ``n`` int8u cells, whose map the run owns."""
    t = memstate.transient(empty())
    b, t = alloc(t, 0, n)
    full = {k: cells.Datum(Chunk.INT8U, Vint(k % 256)) for k in range(n)}
    t = memstate.set_contents(t, b, full)
    return b, store(Chunk.INT8U, t, b, 0, Vint(1))  # the run copies it once here


def test_a_run_writes_its_own_cell_maps_in_place():
    # Inside a run, a store into a block whose map the run owns writes it
    # in place: the last 200 stores into a 40,000-cell block allocate far
    # less than one copy of its map (over 1 MB).
    b, t = _filled_run(40_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for k in range(200):
            t = store(Chunk.INT32, t, b, 4 * k, Vint(k))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert load(Chunk.INT32, t, b, 796) == Vint(199)
    assert load(Chunk.INT8U, t, b, 797) == VUNDEF and load(Chunk.INT8U, t, b, 800) == Vint(32)


def test_a_snapshot_never_sees_the_runs_later_stores():
    # persistent(m) shares the run's maps, so the run gives them up: its
    # next store into a block copies the map before writing it.
    b, t = _filled_run(64)
    t = store(Chunk.INT32, t, b, 4, Vint(-2))
    p = memstate.persistent(t)
    kept = dict(contents_of(p, b))
    seen = [load(Chunk.INT8U, p, b, k) for k in range(64)]
    t = store(Chunk.INT32, t, b, 0, Vint(3))
    t = store(Chunk.FLOAT64, t, b, 8, VUNDEF)
    t = store(Chunk.INT8U, t, b, 5, Vint(9))
    assert contents_of(p, b) == kept
    assert [load(Chunk.INT8U, p, b, k) for k in range(64)] == seen
    assert load(Chunk.INT32, p, b, 4) == Vint(-2) and load(Chunk.INT32, t, b, 4) == VUNDEF
    assert load(Chunk.INT32, t, b, 0) == Vint(3) and load(Chunk.INT32, p, b, 0) == VUNDEF


def test_a_run_never_writes_a_map_given_to_set_contents():
    # The run owned the block's map before set_contents replaced it; the
    # map it was given belongs to the caller, so later stores copy it.
    b, t = _filled_run(16)
    given = {0: cells.Datum(Chunk.INT32, Vint(5)), 12: cells.Datum(Chunk.INT8U, Vint(1))}
    kept = dict(given)
    t = memstate.set_contents(t, b, given)
    t = store(Chunk.INT32, t, b, 0, Vint(6))
    t = store(Chunk.INT32, t, b, 12, Vint(7))
    assert given == kept
    assert load(Chunk.INT32, t, b, 0) == Vint(6) and load(Chunk.INT32, t, b, 12) == Vint(7)


def test_a_run_is_one_state_object():
    # Every write op on a run updates it in place and returns the very
    # state it was given, over an exact list (indexing a list subclass is
    # not specialized by the interpreter).
    t = memstate.transient(empty())
    assert type(t.slots) is list
    b, same = alloc(t, 0, 16)
    assert same is t
    assert store(Chunk.INT32, t, b, 0, Vint(1)) is t
    assert store(Chunk.INT32, t, b, 4, Vint(2)) is t  # into a map it owns
    assert memstate.set_contents(t, b, {}) is t
    assert free(t, b) is t
    bs, same = alloc_list(t, [(0, 4), (0, 4)])
    assert same is t and bs == [2, 3]
    assert free_list(t, bs) is t
    assert type(t.slots) is list
    assert (t.nextblock, t.allocated_bytes) == (4, 0)
    assert freed_blocks(t) == {1, 2, 3}


def test_a_failed_op_leaves_a_run_as_it_was():
    t = memstate.transient(memstate.empty(MemConfig(capacity=CapacityPolicy(12))))
    b, t = alloc(t, 0, 8)
    t = store(Chunk.INT32, t, b, 0, Vint(5))
    _, t = alloc(t, 0, 4)
    t = free(t, 2)
    before = (t.nextblock, t.allocated_bytes, list(t.slots))
    failed = (
        alloc(t, 0, 8),
        alloc_list(t, [(0, 2), (0, 4)]),
        free(t, 2),
        free(t, 9),
        free_list(t, [b, 2]),
        free_list(t, [b, b]),
        store(Chunk.INT32, t, b, 6, Vint(1)),
        store(Chunk.INT32, t, 2, 0, Vint(1)),
        storev(Chunk.INT32, t, Vint(1), Vint(1)),
    )
    assert failed == (None,) * len(failed)
    assert (t.nextblock, t.allocated_bytes, list(t.slots)) == before
    assert load(Chunk.INT32, t, b, 0) == Vint(5)


def test_a_run_compares_as_a_state_of_its_slots():
    # The ids a run owns take no part in comparison; a snapshot owns none.
    b, m = _one_block()
    t = store(Chunk.INT32, memstate.transient(m), b, 0, Vint(1))
    u = store(Chunk.INT32, memstate.transient(m), b, 0, Vint(1))
    memstate.persistent(u)
    assert t.owned == {b} and u.owned == set()
    assert t == u
    assert memstate.persistent(t).owned is None and m.owned is None
