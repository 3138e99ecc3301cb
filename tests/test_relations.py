"""Relation checkers: spec examples plus agreement with the enumerating
reference versions."""

from dataclasses import replace

from blockmem import (
    Chunk,
    Vfloat,
    Vint,
    Vptr,
    VUNDEF,
    alloc,
    empty,
    free,
    mem_emb,
    mem_extends,
    mem_inject,
    mem_lessdef,
    store,
    val_emb,
    val_lessdef,
    emb_incr,
    emb_no_overlap,
)
from blockmem import memstate, relations
from blockmem.lawcheck import oracle
from blockmem.lawcheck.generators import (
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    run_ops,
    sample_emb_plan,
    sample_extends_plan,
    sample_lessdef_plan,
    sample_ops,
)
from blockmem.lawcheck.rng import SplitMix64
from blockmem.memstate import DEFAULT_CONFIG, MemConfig

UNALIGNED = MemConfig(check_alignment=False)
# (left config, right config): uniform and mixed alignment checking.
CONFIG_PAIRS = (
    (DEFAULT_CONFIG, DEFAULT_CONFIG),
    (UNALIGNED, UNALIGNED),
    (UNALIGNED, DEFAULT_CONFIG),
    (DEFAULT_CONFIG, UNALIGNED),
)


def test_val_lessdef():
    assert val_lessdef(VUNDEF, Vint(3))
    assert val_lessdef(Vint(3), Vint(3))
    assert not val_lessdef(Vint(3), Vint(4))
    assert not val_lessdef(Vint(3), VUNDEF)


def test_val_emb():
    assert val_emb({}, VUNDEF, Vptr(9, 9))
    assert val_emb({1: (3, 8)}, Vptr(1, 4), Vptr(3, 12))
    assert not val_emb({}, Vptr(1, 0), Vptr(1, 0))
    assert val_emb({}, Vint(2), Vint(2))
    assert not val_emb({}, Vint(2), Vint(3))
    assert not val_emb({1: (3, 8)}, Vptr(1, 4), Vint(12))
    f = Vfloat.from_float(1.5)
    assert val_emb({}, f, f)


def _two_states():
    b, m = alloc(empty(), 0, 8)
    m1 = store(Chunk.INT32, m, b, 0, VUNDEF)
    m2 = store(Chunk.INT32, m, b, 0, Vint(5))
    return b, m, m1, m2


def test_identity_embedding_relates_values_as_refinement():
    """The premise of relating pairs along IDENTITY: it maps every block
    to itself at delta 0, and along it val_emb is val_lessdef."""
    ident = relations.IDENTITY
    for b in (0, 1, 2, 9, 10**6):
        assert ident[b] == ident.get(b) == (b, 0) and b in ident
    values = [VUNDEF, Vint(0), Vint(5), Vint(-7), Vfloat.from_float(0.0), Vfloat.from_float(1.5)]
    values += [Vptr(b, i) for b in (1, 2, 10**6) for i in (-4, 0, 8)]
    for v1 in values:
        for v2 in values:
            assert val_emb(ident, v1, v2) == val_lessdef(v1, v2), (v1, v2)


def test_mem_lessdef_examples():
    b, m, m1, m2 = _two_states()
    assert mem_lessdef(m, m)
    assert mem_lessdef(m1, m2)  # undef refines a defined store
    m4 = store(Chunk.INT32, m, b, 0, Vint(4))
    assert not mem_lessdef(m4, m2)
    assert not mem_lessdef(m2, m1)


def test_mem_extends_examples():
    b, m = alloc(empty(), 0, 4)
    bw, mw = alloc(empty(), -4, 8)  # same id, wider bounds
    m_s = store(Chunk.INT8U, m, b, 1, Vint(7))
    mw_s = store(Chunk.INT8U, mw, bw, 1, Vint(7))
    assert mem_extends(m, m)
    assert mem_extends(m_s, mw_s)
    assert not mem_extends(mw_s, m_s)  # bounds shrink
    m_freed = free(m, b)
    assert not mem_extends(m, m_freed)  # block lost on the right


def test_emb_no_overlap_examples():
    _, m = alloc(empty(), 0, 4)
    b2, m = alloc(m, 0, 4)
    assert emb_no_overlap({1: (7, 0), 2: (8, 0)}, m)
    assert emb_no_overlap({1: (7, 0), 2: (7, 8)}, m)
    assert not emb_no_overlap({1: (7, 0), 2: (7, 0)}, m)
    m_freed = free(m, b2)
    assert emb_no_overlap({1: (7, 0), 2: (7, 0)}, m_freed)  # only one valid


def test_mem_inject_examples():
    b, m = alloc(empty(), 0, 8)
    m = store(Chunk.INT32, m, b, 0, Vint(5))
    ident = {b: (b, 0)}
    assert mem_inject(ident, m, m)
    assert not mem_inject({b: (b, 4)}, m, m)  # delta not a multiple of 8
    # relocation by 8 into a wider target
    tb, m2 = alloc(empty(), 8, 16)
    m2 = store(Chunk.INT32, m2, tb, 8, Vint(5))
    assert mem_inject({b: (tb, 8)}, m, m2)


def test_emb_incr():
    e = {1: (2, 0)}
    assert emb_incr(e, e)
    assert emb_incr(e, {1: (2, 0), 3: (4, 8)})
    assert not emb_incr({1: (2, 0)}, {1: (5, 0)})
    assert not emb_incr({1: (2, 0)}, {})


def test_mem_emb_unaligned_source_into_aligned_target():
    # The left state checks no alignment, so int16 is valid at offset 3 of
    # [2, 9); relocated by -8 it lands at -5, misaligned on the right.
    b, m1 = alloc(empty(UNALIGNED), 2, 9)
    tb, m2 = alloc(empty(), -7, 30)
    emb = {b: (tb, -8)}
    assert not oracle.ref_mem_emb(emb, m1, m2)
    assert not mem_emb(emb, m1, m2)
    assert not mem_inject(emb, m1, m2)
    # Without alignment checks on the right the same relocation is fine.
    m2u = replace(m2, config=UNALIGNED)
    assert oracle.ref_mem_emb(emb, m1, m2u)
    assert mem_emb(emb, m1, m2u)


def test_mem_inject_huge_block_without_enumeration():
    span, delta = 2**27, 64
    cached = relations._access_list.cache_info().currsize
    b, m1 = alloc(empty(), 0, span)
    writes = (
        (Chunk.INT32, 0, Vint(7)),
        (Chunk.FLOAT64, 4096, Vfloat.from_float(2.5)),
        (Chunk.INT16S, span // 2, Vptr(b, 12)),
        (Chunk.INT8U, span - 2, Vint(200)),
    )
    for t, ofs, v in writes:
        m1 = store(t, m1, b, ofs, v)

    def image(low, high):
        tb, m2 = alloc(empty(), low, high)
        for t, ofs, v in writes:
            v2 = Vptr(tb, v.offset + delta) if type(v) is Vptr else v
            m2 = store(t, m2, tb, ofs + delta, v2)
        return tb, m2

    tb, exact = image(delta, span + delta)
    assert mem_inject({b: (tb, delta)}, m1, exact)
    # One byte short on the right: the last byte access falls out.
    tb, short = image(delta, span + delta - 1)
    assert not mem_inject({b: (tb, delta)}, m1, short)
    # With room to spare, a delta off the multiples of 8 stays in bounds
    # but misaligns the float64 access at offset 0.
    tb, wide = image(0, span + 2 * delta)
    assert mem_inject({b: (tb, delta)}, m1, wide)
    assert not mem_inject({b: (tb, delta - 4)}, m1, wide)
    assert not mem_emb({b: (tb, delta - 4)}, m1, wide)
    assert relations._access_list.cache_info().currsize == cached


def test_checkers_agree_with_reference_on_pairs():
    rng = SplitMix64(2024)
    for c1, c2 in CONFIG_PAIRS:
        for _ in range(150):
            plan = sample_lessdef_plan(rng)
            r1, _ = build_lessdef_pair(plan, c1)
            _, r2 = build_lessdef_pair(plan, c2)
            assert mem_lessdef(r1.state, r2.state) == oracle.ref_mem_lessdef(
                r1.state, r2.state
            )
            plan = sample_extends_plan(rng)
            e1, _ = build_extends_pair(plan, c1)
            _, e2 = build_extends_pair(plan, c2)
            assert mem_extends(e1.state, e2.state) == oracle.ref_mem_extends(
                e1.state, e2.state
            )
            plan = sample_emb_plan(rng, overlap_chance=(1, 4))
            sc1 = build_emb_scenario(plan, c1)
            sc2 = build_emb_scenario(plan, c2)
            assert mem_inject(sc1.emb, sc1.m1, sc2.m2) == oracle.ref_mem_inject(
                sc1.emb, sc1.m1, sc2.m2
            )


def test_checkers_agree_with_reference_on_unrelated_states():
    rng = SplitMix64(99)
    from blockmem.lawcheck.generators import sample_ops, run_ops

    for c1, c2 in CONFIG_PAIRS:
        for _ in range(150):
            m1 = run_ops(sample_ops(rng), c1).state
            m2 = run_ops(sample_ops(rng), c2).state
            assert mem_lessdef(m1, m2) == oracle.ref_mem_lessdef(m1, m2)
            assert mem_extends(m1, m2) == oracle.ref_mem_extends(m1, m2)
            # The same slots on both sides, each side under its own config.
            shared = replace(m1, config=c2)
            assert mem_lessdef(m1, shared) == oracle.ref_mem_lessdef(m1, shared)
            assert mem_extends(m1, shared) == oracle.ref_mem_extends(m1, shared)
            emb = {}
            for b in range(1, m1.nextblock):
                if rng.chance(1, 2):
                    tb = rng.randint(1, max(1, m2.nextblock - 1))
                    emb[b] = (tb, 8 * rng.randint(-1, 2))
            assert mem_inject(emb, m1, m2) == oracle.ref_mem_inject(emb, m1, m2)
            # Deltas off the multiples of 8 reach the alignment arithmetic
            # that mem_inject's delta check screens out.
            emb = {b: (tb, delta + rng.randint(-3, 3)) for b, (tb, delta) in emb.items()}
            assert mem_emb(emb, m1, m2) == oracle.ref_mem_emb(emb, m1, m2)


def _contained_on_the_right(m1, m2) -> bool:
    """Every block valid in ``m1`` is valid in ``m2`` with containing bounds."""
    for b in range(1, m1.nextblock):
        if memstate.valid_block(m1, b):
            low1, high1 = memstate.bounds(m1, b)
            low2, high2 = memstate.bounds(m2, b)
            if not (memstate.valid_block(m2, b) and low2 <= low1 and high1 <= high2):
                return False
    return True


def test_refinement_and_extension_are_identity_transport_on_a_domain():
    # On the enumerating reference: lessdef is same_domain plus transport
    # along IDENTITY, and extends is an equal nextblock, containment and
    # the same transport; mem_emb decides that transport as the reference
    # does.  Reversed extension pairs and unrelated states reach pairs whose
    # transport holds while the domain condition fails.
    rng = SplitMix64(515)
    ident = relations.IDENTITY
    transport_only = 0
    for c1, c2 in CONFIG_PAIRS:
        for _ in range(400):
            plan = sample_lessdef_plan(rng)
            r1, _ = build_lessdef_pair(plan, c1)
            _, r2 = build_lessdef_pair(plan, c2)
            plan = sample_extends_plan(rng)
            e1, _ = build_extends_pair(plan, c1)
            _, e2 = build_extends_pair(plan, c2)
            u1 = run_ops(sample_ops(rng), c1).state
            u2 = run_ops(sample_ops(rng), c2).state
            pairs = [(r1.state, r2.state), (e1.state, e2.state), (e2.state, e1.state), (u1, u2)]
            for m1, m2 in pairs:
                transport = oracle.ref_mem_emb(ident, m1, m2)
                assert mem_emb(ident, m1, m2) == transport
                lessdef = memstate.same_domain(m1, m2) and transport
                assert oracle.ref_mem_lessdef(m1, m2) == lessdef
                extends = m1.nextblock == m2.nextblock and _contained_on_the_right(m1, m2)
                assert oracle.ref_mem_extends(m1, m2) == (extends and transport)
                transport_only += transport and not extends
    assert transport_only > 0


def test_whole_state_lessdef_and_extends_read_no_block_by_id(monkeypatch):
    # Both walk the two states' slots in step: no call to a memstate
    # reader that takes a block id, whether the states share their slots
    # or were built apart.
    def filled(n, extra):
        m = empty()
        for k in range(n):
            b, m = alloc(m, -extra, 8 + extra)
            m = store(Chunk.INT32, m, b, 0, Vint(k))
        return m

    m = filled(2000, 0)
    stored = store(Chunk.INT32, m, 1000, 4, Vint(-1))
    apart, wider = filled(2000, 0), filled(2000, 8)
    reads = []
    for name in ("slot", "valid_block", "bounds", "contents_of", "access_slot"):
        reader = getattr(memstate, name)
        monkeypatch.setattr(
            memstate, name, lambda *a, _r=reader, _n=name: reads.append(_n) or _r(*a)
        )
    assert mem_lessdef(m, stored) and mem_lessdef(m, apart)
    assert not mem_lessdef(stored, m) and not mem_lessdef(m, wider)
    assert mem_extends(m, stored) and mem_extends(m, wider)
    assert not mem_extends(wider, m)
    assert reads == []
