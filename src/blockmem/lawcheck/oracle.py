"""A deliberately naive twin of the memory model, for differential testing.

Everything here is written the slow, obvious way and shares no model code
with the main implementation (only ``oracle_exec``'s reading of scenario
refs, ``trace.block_of``): content maps are association lists, the
continuation helpers are the one-cell-at-a-time recursions, integer
narrowing uses modular arithmetic instead of bit masks, and float rounding
is done by hand on the bit pattern instead of through ``struct``.  The
module also carries reference versions of the relation checkers that
enumerate the whole access universe literally; the optimized checkers in
``blockmem.relations`` must agree with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import memstate, relations
from ..trace import block_of
from ..chunks import ALL_CHUNKS, Chunk, Value, Vfloat, Vint, Vptr, VUNDEF
from ..memstate import MemState

# Independent size/alignment tables, written out longhand.
O_SIZE = {
    Chunk.INT8S: 1,
    Chunk.INT8U: 1,
    Chunk.INT16S: 2,
    Chunk.INT16U: 2,
    Chunk.INT32: 4,
    Chunk.FLOAT32: 4,
    Chunk.FLOAT64: 8,
}
O_ALIGN = {
    Chunk.INT8S: 1,
    Chunk.INT8U: 1,
    Chunk.INT16S: 2,
    Chunk.INT16U: 2,
    Chunk.INT32: 4,
    Chunk.FLOAT32: 4,
    Chunk.FLOAT64: 8,
}


def _narrow_unsigned(n: int, width_bits: int) -> int:
    return n % (2**width_bits)


def _narrow_signed(n: int, width_bits: int) -> int:
    r = n % (2**width_bits)
    if r >= 2 ** (width_bits - 1):
        r -= 2**width_bits
    return r


def _round_shift_even(x: int, k: int) -> int:
    """x / 2**k rounded to nearest, ties to even."""
    if k <= 0:
        return x << (-k)
    keep = x >> k
    rem = x & ((1 << k) - 1)
    half = 1 << (k - 1)
    if rem > half or (rem == half and keep & 1):
        keep += 1
    return keep


def _widen_single(sign: int, e32: int, m23: int) -> int:
    """Assemble double bits from single-precision fields."""
    if e32 == 0xFF:
        return (sign << 63) | (0x7FF << 52) | (m23 << 29)
    if e32 == 0:
        if m23 == 0:
            return sign << 63
        # subnormal single: m23 * 2^-149, always normal as a double
        top = m23.bit_length() - 1
        exp = top - 149
        mant = (m23 - (1 << top)) << (52 - top)
        return (sign << 63) | ((exp + 1023) << 52) | mant
    return (sign << 63) | ((e32 - 127 + 1023) << 52) | (m23 << 29)


def oracle_float32_round_bits(bits: int) -> int:
    """Hand-rolled double -> single -> double rounding on raw bits, with
    round-to-nearest-even, gradual underflow, and overflow to infinity."""
    sign = bits >> 63
    e = (bits >> 52) & 0x7FF
    m = bits & ((1 << 52) - 1)
    if e == 0x7FF:
        if m == 0:
            return _widen_single(sign, 0xFF, 0)
        m23 = m >> 29
        if m23 == 0:
            m23 = 1 << 22  # keep NaN a NaN
        return _widen_single(sign, 0xFF, m23)
    if e == 0:
        # double subnormals sit far below the single range: round to zero
        return _widen_single(sign, 0, 0)
    exp = e - 1023
    e32 = exp + 127
    if e32 >= 0xFF:
        return _widen_single(sign, 0xFF, 0)
    full = (1 << 52) | m
    if e32 <= 0:
        # target is a single subnormal in units of 2^-149
        m23 = _round_shift_even(full, -(exp + 97))
        if m23 >= 1 << 23:
            return _widen_single(sign, 1, m23 - (1 << 23))
        return _widen_single(sign, 0, m23)
    m23 = _round_shift_even(full, 29)
    if m23 >= 1 << 24:
        m23 >>= 1
        e32 += 1
        if e32 >= 0xFF:
            return _widen_single(sign, 0xFF, 0)
    return _widen_single(sign, e32, m23 - (1 << 23))


def oracle_convert(v: Value, t: Chunk) -> Value:
    """Independent rendering of load-time conversion."""
    if isinstance(v, Vint):
        n = v.value
        if t is Chunk.INT8S:
            return Vint(_narrow_signed(n, 8))
        if t is Chunk.INT8U:
            return Vint(_narrow_unsigned(n, 8))
        if t is Chunk.INT16S:
            return Vint(_narrow_signed(n, 16))
        if t is Chunk.INT16U:
            return Vint(_narrow_unsigned(n, 16))
        if t is Chunk.INT32:
            return Vint(_narrow_signed(n, 32))
        return VUNDEF
    if isinstance(v, Vfloat):
        if t is Chunk.FLOAT64:
            return v
        if t is Chunk.FLOAT32:
            return Vfloat(oracle_float32_round_bits(v.bits))
        return VUNDEF
    if isinstance(v, Vptr):
        return v if t is Chunk.INT32 else VUNDEF
    return VUNDEF


# --- content cells as association lists (latest binding first) -------------


def o_update(ofs, c, f):
    return ((ofs, c),) + f


def o_lookup(f, ofs):
    for k, c in f:
        if k == ofs:
            return c
    return None


def o_check_cont(f, ofs, n) -> bool:
    if n <= 0:
        return True
    return o_lookup(f, ofs) is None and o_check_cont(f, ofs + 1, n - 1)


def o_set_cont(f, ofs, n):
    if n <= 0:
        return f
    return o_set_cont(o_update(ofs, None, f), ofs + 1, n - 1)


def o_store_contents(f, t, ofs, v):
    return o_update(ofs, (t, v), o_set_cont(f, ofs + 1, O_SIZE[t] - 1))


def o_load_contents(t, f, ofs) -> Value:
    c = o_lookup(f, ofs)
    if c is None:
        return VUNDEF
    t2, v = c
    if O_SIZE[t] != O_SIZE[t2]:
        return VUNDEF
    if not o_check_cont(f, ofs + 1, O_SIZE[t] - 1):
        return VUNDEF
    return oracle_convert(v, t)


# --- naive memory states ----------------------------------------------------


@dataclass
class OracleState:
    nextblock: int = 1
    bounds: list = field(default_factory=list)  # [(block, (low, high))]
    freed: list = field(default_factory=list)
    contents: list = field(default_factory=list)  # [(block, cell alist)]
    allocated: int = 0
    capacity: int | None = None
    check_alignment: bool = True


def o_bounds(s: OracleState, b: int):
    for k, bd in s.bounds:
        if k == b:
            return bd
    return (0, 0)


def o_cells(s: OracleState, b: int):
    for k, f in s.contents:
        if k == b:
            return f
    return ()


def o_valid_block(s: OracleState, b: int) -> bool:
    return any(k == b for k, _ in s.bounds) and b not in s.freed


def o_fresh_block(s: OracleState, b: int) -> bool:
    return b >= s.nextblock


def o_valid_access(s: OracleState, t: Chunk, b: int, i: int) -> bool:
    if not o_valid_block(s, b):
        return False
    low, high = o_bounds(s, b)
    if not (low <= i and i + O_SIZE[t] <= high):
        return False
    return not s.check_alignment or i % O_ALIGN[t] == 0


def o_alloc(s: OracleState, low: int, high: int):
    request = high - low if high > low else 0
    if s.capacity is not None and s.allocated + request > s.capacity:
        return None
    b = s.nextblock
    s.nextblock += 1
    s.bounds = [(b, (low, high))] + s.bounds
    s.contents = [(b, ())] + s.contents
    s.allocated += request
    return b


def o_free(s: OracleState, b: int) -> bool:
    if not o_valid_block(s, b):
        return False
    low, high = o_bounds(s, b)
    s.freed = [b] + s.freed
    s.allocated -= high - low if high > low else 0
    return True


def o_store(s: OracleState, t: Chunk, b: int, i: int, v: Value) -> bool:
    if not o_valid_access(s, t, b, i):
        return False
    f = o_store_contents(o_cells(s, b), t, i, v)
    s.contents = [(b, f)] + [kv for kv in s.contents if kv[0] != b]
    return True


def o_load(s: OracleState, t: Chunk, b: int, i: int):
    if not o_valid_access(s, t, b, i):
        return None
    return o_load_contents(t, o_cells(s, b), i)


def oracle_exec(ops, capacity: int | None = None, check_alignment: bool = True):
    """Run a scenario on the naive model.

    Returns (description, outcomes): a summary of the final state plus one
    observable outcome per operation, in the same shape the main runner
    produces, so the two can be compared wholesale.  Refs follow the trace
    rule: ref k is the block of the k-th alloc, unbound when that alloc
    failed, and an op on an unbound ref fails (False for a free, free_list
    or store, None otherwise).
    """
    s = OracleState(capacity=capacity, check_alignment=check_alignment)
    blocks: list = []  # per alloc op, its block or None
    outcomes = []
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            out = o_alloc(s, op[1], op[2])
            blocks.append(out)
        elif kind == "free":
            b = block_of(blocks, op[1])
            out = b is not None and o_free(s, b)
        elif kind == "free_list":
            # All or nothing: every block valid, none twice.
            ids = [block_of(blocks, r) for r in op[1]]
            out = len(set(ids)) == len(ids) and all(o_valid_block(s, b) for b in ids)
            if out:
                for b in ids:
                    o_free(s, b)
        elif kind == "store":
            b = block_of(blocks, op[2])
            out = b is not None and o_store(s, op[1], b, op[3], op[4])
        elif kind == "load":
            b = block_of(blocks, op[2])
            out = None if b is None else o_load(s, op[1], b, op[3])
        elif kind in ("valid", "fresh", "bounds"):
            b = block_of(blocks, op[1])
            query = {"valid": o_valid_block, "fresh": o_fresh_block, "bounds": o_bounds}[kind]
            out = None if b is None else query(s, b)
        else:
            raise ValueError(f"unknown op {kind!r}")
        outcomes.append((kind, out))
    description = {
        "nextblock": s.nextblock,
        "valid_blocks": sorted(b for b, _ in s.bounds if b not in s.freed),
        "bounds": {b: bd for b, bd in sorted(s.bounds)},
        "allocated_bytes": s.allocated,
    }
    return description, outcomes


# --- reference relation checkers (full enumeration) -------------------------
#
# These spell the relations out as their quantified definitions, one load
# per (chunk, block, offset) triple, using the public model operations.
# They exist to pin down the optimized checkers, not for speed.


def _offsets(m: MemState, b: int):
    low, high = memstate.bounds(m, b)
    return range(low, high)


def ref_mem_lessdef(m1: MemState, m2: MemState) -> bool:
    if not memstate.same_domain(m1, m2):
        return False
    for b in range(1, m1.nextblock):
        for t in ALL_CHUNKS:
            for i in _offsets(m1, b):
                if not memstate.valid_access(m1, t, b, i):
                    continue
                v1 = memstate.load(t, m1, b, i)
                v2 = memstate.load(t, m2, b, i)
                if v2 is None or not relations.val_lessdef(v1, v2):
                    return False
    return True


def ref_mem_extends(m1: MemState, m2: MemState) -> bool:
    if m1.nextblock != m2.nextblock:
        return False
    for b in range(1, m1.nextblock):
        if not memstate.valid_block(m1, b):
            continue
        if not memstate.valid_block(m2, b):
            return False
        low1, high1 = memstate.bounds(m1, b)
        low2, high2 = memstate.bounds(m2, b)
        if not (low2 <= low1 and high1 <= high2):
            return False
        for t in ALL_CHUNKS:
            for i in _offsets(m1, b):
                if not memstate.valid_access(m1, t, b, i):
                    continue
                v1 = memstate.load(t, m1, b, i)
                v2 = memstate.load(t, m2, b, i)
                if v2 is None or not relations.val_lessdef(v1, v2):
                    return False
    return True


def ref_mem_emb(emb, m1: MemState, m2: MemState) -> bool:
    for b1 in range(1, m1.nextblock):
        target = emb.get(b1)
        if target is None or not memstate.valid_block(m1, b1):
            continue
        b2, delta = target
        for t in ALL_CHUNKS:
            for i in _offsets(m1, b1):
                if not memstate.valid_access(m1, t, b1, i):
                    continue
                if not memstate.valid_access(m2, t, b2, i + delta):
                    return False
                v1 = memstate.load(t, m1, b1, i)
                v2 = memstate.load(t, m2, b2, i + delta)
                if not relations.val_emb(emb, v1, v2):
                    return False
    return True


def ref_mem_inject(emb, m1: MemState, m2: MemState) -> bool:
    if any(delta % relations.DELTA_ALIGNMENT != 0 for _, delta in emb.values()):
        return False
    if not relations.emb_no_overlap(emb, m1):
        return False
    return ref_mem_emb(emb, m1, m2)
