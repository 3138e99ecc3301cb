"""The naive twin: independent conversion and differential execution."""

import math
import struct

from hypothesis import given, settings, strategies as st

import pytest

from blockmem import chunks, memstate
from blockmem.chunks import ALL_CHUNKS, Chunk, Vfloat, Vint, Vptr, VUNDEF, Vundef
from blockmem.lawcheck import oracle
from blockmem.lawcheck.generators import run_ops, sample_ops
from blockmem.lawcheck.oracle import oracle_convert, oracle_exec, oracle_float32_round_bits
from blockmem.lawcheck.rng import SplitMix64
from blockmem.memstate import CapacityPolicy, MemConfig

CURATED = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1.5,
    0.1,
    -2.75,
    3.4028234663852886e38,  # float32 max
    3.4028235677973366e38,  # rounds up past float32 max: infinity
    0.9999999999999999,  # the mantissa carries into the next binade
    math.nextafter(2**-126, 0),  # just below the smallest normal: rounds up to it
    3.5e38,
    1e39,
    -1e39,
    1e-40,
    1e-45,
    5e-324,
    float("inf"),
    float("-inf"),
    float("nan"),
]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def test_float32_rounding_matches_struct_on_curated():
    for x in CURATED:
        b = _bits(x)
        assert oracle_float32_round_bits(b) == chunks.float32_round_bits(b), x


@settings(max_examples=2000)
@given(st.integers(0, 2**64 - 1))
def test_float32_rounding_matches_struct_on_random_bits(bits):
    exp = (bits >> 52) & 0x7FF
    if exp == 0x7FF and bits & ((1 << 52) - 1):
        bits |= 1 << 51  # quiet the NaN; signaling payloads are platform lore
    assert oracle_float32_round_bits(bits) == chunks.float32_round_bits(bits)


def test_convert_agreement():
    # Every chunk crossed with undef (the shared one and one built apart),
    # pointers, each integer width's boundaries and their neighbours, and
    # floats including NaN, the infinities and magnitudes past float32.
    edges = {s * 2**w + d for w in (7, 8, 15, 16, 31, 32) for s in (1, -1) for d in (-1, 0, 1)}
    ints = edges | {-(2**40), -65537, -300, -1, 0, 7, 255, 300, 65535, 2**40}
    values = (
        [VUNDEF, Vundef(), Vptr(1, 0), Vptr(2, -3)]
        + [Vint(n) for n in sorted(ints)]
        + [Vfloat.from_float(x) for x in CURATED]
    )
    for v in values:
        for t in ALL_CHUNKS:
            assert oracle_convert(v, t) == chunks.convert(v, t), (v, t)


def _describe_main(result):
    m = result.state
    freed = memstate.freed_blocks(m)
    return {
        "nextblock": m.nextblock,
        "valid_blocks": sorted(b for b in range(1, m.nextblock) if b not in freed),
        "bounds": {b: memstate.bounds(m, b) for b in range(1, m.nextblock)},
        "allocated_bytes": m.allocated_bytes,
    }


def test_differential_small_run():
    rng = SplitMix64(7)
    for _ in range(300):
        ops = sample_ops(rng)
        main = run_ops(ops)
        desc, outcomes = oracle_exec(ops)
        assert outcomes == main.outcomes
        assert desc == _describe_main(main)


def test_oracle_respects_capacity_and_alignment_flags():
    ops = [("alloc", 0, 8), ("store", Chunk.INT32, 0, 1, Vint(5))]
    desc, outcomes = oracle_exec(ops, capacity=4)
    assert outcomes[0] == ("alloc", None)
    desc, outcomes = oracle_exec(ops, check_alignment=False)
    assert outcomes == [("alloc", 1), ("store", True)]


@pytest.mark.parametrize("check_alignment", [True, False])
@pytest.mark.parametrize("capacity", [0, 8, 24, None])
def test_differential_under_memory_configs(capacity, check_alignment):
    # Small capacities reject allocs, so later ops meet unbound refs.
    config = MemConfig(capacity=CapacityPolicy(capacity), check_alignment=check_alignment)
    rng = SplitMix64(1000 + (capacity or 0))
    for _ in range(300):
        ops = sample_ops(rng)
        main = run_ops(ops, config)
        desc, outcomes = oracle_exec(ops, capacity=capacity, check_alignment=check_alignment)
        assert outcomes == main.outcomes, ops
        assert desc == _describe_main(main), ops


def test_ref_of_a_rejected_alloc_stays_unbound():
    # Ref 1 is the second alloc, the first one the capacity admits.
    ops = [
        ("alloc", 0, 100),
        ("alloc", 0, 8),
        ("store", Chunk.INT8U, 1, 0, Vint(7)),
        ("load", Chunk.INT8U, 1, 0),
        ("store", Chunk.INT8U, 0, 0, Vint(7)),
        ("valid", 0),
    ]
    want = [
        ("alloc", None),
        ("alloc", 1),
        ("store", True),
        ("load", Vint(7)),
        ("store", False),
        ("valid", None),
    ]
    assert run_ops(ops, MemConfig(capacity=CapacityPolicy(8))).outcomes == want
    assert oracle_exec(ops, capacity=8)[1] == want


def test_failed_free_list_frees_nothing():
    ops = [("alloc", 0, 8), ("alloc", 0, 8), ("free_list", (0, 1, 1)), ("valid", 0)]
    want = [("alloc", 1), ("alloc", 2), ("free_list", False), ("valid", True)]
    assert run_ops(ops).outcomes == want
    desc, outcomes = oracle_exec(ops)
    assert outcomes == want
    assert desc == _describe_main(run_ops(ops))
