"""Scenario generators: determinism, invariants, pair constructors."""

from blockmem import memstate, relations
from blockmem.lawcheck.generators import (
    UniverseConfig,
    build_emb_scenario,
    build_extends_pair,
    build_lessdef_pair,
    gen_state,
    run_ops,
    sample_emb_plan,
    sample_extends_plan,
    sample_lessdef_plan,
    sample_ops,
    shrink_ops,
    tiny_states_full,
    tiny_states_small,
)
from blockmem.lawcheck.rng import SplitMix64, law_stream


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
        r1, r2, _, _ = build_lessdef_pair(sample_lessdef_plan(rng))
        assert relations.mem_lessdef(r1.state, r2.state)


def test_extends_pairs_satisfy_relation():
    rng = SplitMix64(10)
    for _ in range(300):
        r1, r2, _, _ = build_extends_pair(sample_extends_plan(rng))
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
    full = tiny_states_full()
    assert 200 <= len(small) <= len(full)
    for ops, m in small:
        assert m.nextblock <= 3  # at most two blocks
        for b in range(1, m.nextblock):
            low, high = memstate.bounds(m, b)
            assert -4 <= low <= high <= 8
        _check_invariants(m)


def test_shrink_ops_candidates_stay_runnable():
    rng = SplitMix64(77)
    for _ in range(200):
        ops = sample_ops(rng)
        for cand in shrink_ops(ops):
            run_ops(cand)  # must not raise
            assert len(cand) <= len(ops)
