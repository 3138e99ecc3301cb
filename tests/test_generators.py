"""Scenario generators: determinism, invariants, pair constructors."""

import pickle

from blockmem import chunks, memstate, relations
from blockmem.lawcheck import generators, registry
from blockmem.lawcheck.generators import (
    UniverseConfig,
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    gen_state,
    pack,
    run_ops,
    sample_emb_plan,
    sample_extends_plan,
    sample_lessdef_plan,
    sample_ops,
    tiny_states_small,
)
from blockmem.lawcheck.rng import SCENARIOS, SplitMix64, law_stream


def test_splitmix_reference_values():
    # splitmix64 with seed 0: first outputs of the reference algorithm
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_law_streams_are_independent():
    a = [law_stream(42, "x").next_u64() for _ in range(3)]
    b = [law_stream(42, "y").next_u64() for _ in range(3)]
    assert a != b
    assert a == [law_stream(42, "x").next_u64() for _ in range(3)]


def test_gen_state_deterministic():
    cfg = UniverseConfig()
    for seed in (0, 1, 42, 2**63):
        assert gen_state(seed, cfg) == gen_state(seed, cfg)


def test_gen_state_empty_universe():
    assert gen_state(5, UniverseConfig(max_blocks=0, max_ops=0)) == memstate.empty()


def _check_invariants(m):
    live = list(memstate.live_blocks(m))
    freed = memstate.freed_blocks(m)
    # Every issued id is valid or freed, never both.
    assert sorted(freed.union(b for b, _, _, _ in live)) == list(range(1, m.nextblock))
    assert len(freed) + len(live) == m.nextblock - 1
    assert m.allocated_bytes == sum(max(h - l, 0) for _, l, h, _ in live)


def test_generated_states_satisfy_invariants():
    rng = SplitMix64(123)
    for _ in range(10_000):
        _check_invariants(run_ops(sample_ops(rng)).state)


def test_lessdef_pairs_satisfy_relation():
    rng = SplitMix64(9)
    for _ in range(300):
        r1, r2 = build_lessdef_pair(sample_lessdef_plan(rng))
        assert relations.mem_lessdef(r1.state, r2.state)


def test_extends_pairs_satisfy_relation():
    rng = SplitMix64(10)
    for _ in range(300):
        r1, r2 = build_extends_pair(sample_extends_plan(rng))
        assert relations.mem_extends(r1.state, r2.state)


def test_emb_scenarios_satisfy_injection_without_overlap():
    rng = SplitMix64(11)
    for _ in range(300):
        sc = build_emb_scenario(sample_emb_plan(rng))
        assert relations.mem_inject(sc.emb, sc.m1, sc.m2)
        _check_invariants(sc.m1)
        _check_invariants(sc.m2)


def test_emb_hole_scenarios_reserve_an_unmapped_gap():
    rng = SplitMix64(12)
    for _ in range(100):
        sc = build_emb_scenario(sample_emb_plan(rng, hole_span=8))
        assert sc.hole is not None
        tgt, start, span = sc.hole
        assert span == 8 and start % 8 == 0
        low, high = memstate.bounds(sc.m2, tgt)
        assert low <= start and start + span <= high
        for b, (tb, d) in sc.emb.items():
            if tb == tgt and memstate.valid_block(sc.m1, b):
                l1, h1 = memstate.bounds(sc.m1, b)
                if l1 < h1:
                    assert h1 + d <= start or l1 + d >= start + span


def test_tiny_universe_shape():
    small = tiny_states_small()
    assert 200 <= len(small)
    for ops in small:
        m = run_ops(ops).state
        assert m.nextblock <= 3  # at most two blocks
        for b in range(1, m.nextblock):
            low, high = memstate.bounds(m, b)
            assert -4 <= low <= high <= 8
        _check_invariants(m)


# --- shared scenario streams ----------------------------------------------------

_SHARED = (
    generators.shared_ops,
    generators.shared_lessdef_plan,
    generators.shared_extends_plan,
    lambda rng: generators.shared_emb_plan(rng, overlap_chance=(1, 6), need_mapped=True),
)


def _draws(draw, seed, law, n):
    rng = law_stream(seed, law)
    return [draw(rng) for _ in range(n)]


def test_laws_of_one_domain_share_scenario_k():
    SCENARIOS.clear()
    for draw in _SHARED:
        a = _draws(draw, 3, "law_a", 40)
        assert a == _draws(draw, 3, "law_b", 40)
        assert len(set(map(repr, a))) > 20


def test_two_real_laws_get_the_same_scenarios():
    x, y = registry.law("valid_block_dec"), registry.law("free_list_fresh_block")
    rx, ry = law_stream(1, x.name), law_stream(1, y.name)
    for _ in range(50):
        cx, cy = x.sample(rx), y.sample(ry)
        assert cx[0] == cy[0] == "state" and cx[1] == cy[1]


def test_scenarios_depend_on_the_seed():
    for draw in _SHARED:
        assert _draws(draw, 1, "law", 20) != _draws(draw, 2, "law", 20)


def test_scenario_k_does_not_depend_on_the_order_of_requests():
    for draw in _SHARED:
        SCENARIOS.clear()
        rng = law_stream(8, "law")
        rng.scenarios = 5
        first = draw(rng)
        SCENARIOS.clear()
        assert _draws(draw, 8, "other", 6)[5] == first


def test_emb_keyword_sets_are_separate_domains():
    plain = _draws(generators.shared_emb_plan, 4, "law", 30)
    holed = _draws(lambda r: generators.shared_emb_plan(r, hole_span=8), 4, "law", 30)
    assert all(p.hole_span == 0 for p in plain) and all(p.hole_span == 8 for p in holed)
    # Spelling out a default keyword names the same domain.
    assert _draws(lambda r: generators.shared_emb_plan(r, overlap_chance=(0, 1)), 4, "x", 30) == plain


# --- the tables a replay carries --------------------------------------------------


def _lowest_of_each_size(accesses):
    """The first access of each access size: ``accesses`` lists each
    chunk's offsets in ascending order."""
    by_size = {}
    for t, i in accesses:
        by_size.setdefault(chunks.size_chunk(t), (t, i))
    return tuple(by_size.values())


def _check_tables(r):
    m = r.state
    assert r.live == tuple(b for b in range(1, m.nextblock) if memstate.valid_block(m, b))
    want = {b: relations.valid_accesses(m, b) for b in r.live if relations.valid_accesses(m, b)}
    assert r.accesses == want and list(r.accesses) == list(want)
    assert r.lowest == {b: _lowest_of_each_size(a) for b, a in want.items()}


def test_replay_tables_match_their_definitions():
    for ops in tiny_states_small():
        _check_tables(run_ops(ops))
    rng = law_stream(42, "tables")
    for _ in range(2000):
        _check_tables(run_ops(generators.shared_ops(rng)))
    for draw, build in (
        (generators.shared_lessdef_plan, build_lessdef_pair),
        (generators.shared_extends_plan, build_extends_pair),
    ):
        rng = law_stream(42, "tables")
        for _ in range(500):
            r1, r2 = build(draw(rng))
            _check_tables(r1)
            _check_tables(r2)
    for keywords in ({}, {"hole_span": 8}):
        rng = law_stream(42, "tables")
        for _ in range(500):
            sc = build_emb_scenario(generators.shared_emb_plan(rng, **keywords))
            _check_tables(sc.r1)
            _check_tables(sc.r2)


# --- packing spans into one block -------------------------------------------------


def _pack_requests(reqs):
    """Packing as ``alloc_list_alloc_inject`` first wrote it: each span at
    the first multiple of 8 at or after the end of the non-empty spans
    before it."""
    ceil8 = lambda x: x + (-x) % 8
    deltas = []
    cursor = 0
    for low, high in reqs:
        d = ceil8(cursor - low)
        deltas.append(d)
        if high > low:
            cursor = ceil8(high + d)
    return deltas, cursor


def test_pack():
    rng = SplitMix64(31)
    for _ in range(2000):
        spans = []
        for _ in range(rng.below(5)):
            low = rng.randint(-12, 12)
            spans.append((low, low + rng.randint(-2, 16)))  # empty when high <= low
        for overlap in (False, True):
            deltas, end = pack(spans, overlap)
            assert len(deltas) == len(spans) and all(d % 8 == 0 for d in deltas)
            placed = [(low + d, high + d) for (low, high), d in zip(spans, deltas)]
            images = [(low, high) for low, high in placed if high > low]
            assert all(0 <= low and high <= end for low, high in images)
            if overlap:
                assert all(0 <= low < 8 for low, _ in placed)
            else:
                assert all(h1 <= l2 for (_, h1), (l2, _) in zip(images, images[1:]))
                assert (deltas, end) == _pack_requests(spans)


def test_scenario_is_its_tuple_and_pickles_as_one():
    """A ``Scenario`` equals its plain tuple and hashes like it, computes
    the hash once, and pickles as the plain tuple, without the hash."""
    ops = tuple(sample_ops(SplitMix64(9)))
    scenario = generators.Scenario(ops)
    assert scenario == ops and hash(scenario) == hash(ops)
    assert {ops: 1}[scenario] == 1
    assert scenario._hash == hash(ops)
    back = pickle.loads(pickle.dumps(scenario))
    assert back == ops and type(back) is tuple
    assert b"_hash" not in pickle.dumps(scenario)
    assert repr(scenario) == repr(ops)


def test_shared_and_tiny_scenarios_are_scenarios():
    rng = law_stream(42, "a")
    assert type(generators.shared_ops(rng)) is generators.Scenario
    assert all(type(ops) is generators.Scenario for ops in tiny_states_small())
