"""Executable checkers for the four relations between memory states.

Each relation quantifies over loads, which is a finite universe once block
bounds are fixed: all chunks crossed with the aligned in-bounds offsets of
every valid block.  The checkers never enumerate that universe.  A load
produces a defined value only at an offset holding a datum, so the value
half of each relation is a sweep over materialized cells.  The access half
("every valid access of a block of the left state is valid at its image in
the right state") is decided per block in closed form: an interval
containment test, because byte accesses reach every offset of a non-empty
block, and, when the right state checks alignment, an arithmetic test on
the first fitting offset of each chunk.  Cost therefore scales with cells
and blocks, never with block span.  The results are exactly the full
enumeration's (see the reference checkers in the law-suite oracle, which
do enumerate and are tested to agree, also across alignment configs).

An embedding is a partial relocation map ``block -> (target block, byte
delta)``; absent keys are unmapped.  Deltas of an injection must be
multiples of 8 so that relocation preserves every chunk's alignment.
"""

from __future__ import annotations

from functools import lru_cache

from . import cells, chunks, memstate
from .chunks import ALL_CHUNKS, COMPAT_CHUNKS, Chunk, Value, Vptr, VUNDEF
from .memstate import MemState

# Finite map block -> (target block, delta); absent keys are unmapped.
Embedding = dict

DELTA_ALIGNMENT = 8


def val_lessdef(v1: Value, v2: Value) -> bool:
    """Value refinement: undefined refines anything, everything else only
    itself."""
    return v1 == VUNDEF or v1 == v2


def val_emb(emb: Embedding, v1: Value, v2: Value) -> bool:
    """Value relation through an embedding: undefined refines anything,
    integers and floats relate to themselves, and a pointer relates to its
    relocation through ``emb``."""
    if v1 == VUNDEF:
        return True
    if type(v1) is Vptr:
        if type(v2) is not Vptr:
            return False
        target = emb.get(v1.block)
        return (
            target is not None
            and target[0] == v2.block
            and v1.offset + target[1] == v2.offset
        )
    return v1 == v2


def emb_incr(e1: Embedding, e2: Embedding) -> bool:
    """Whether ``e2`` extends ``e1``: every mapping of ``e1`` is present and
    identical in ``e2``."""
    for b, target in e1.items():
        if e2.get(b) != target:
            return False
    return True


def emb_no_overlap(emb: Embedding, m1: MemState) -> bool:
    """No two distinct valid blocks of ``m1`` relocate onto intersecting
    ranges of the same target block.  Empty-span blocks never overlap."""
    by_target: dict[int, list[tuple[int, int]]] = {}
    for b, low, high, _ in memstate.live_blocks(m1):
        target = emb.get(b)
        if target is None:
            continue
        if low >= high:
            continue
        tb, delta = target
        by_target.setdefault(tb, []).append((low + delta, high + delta))
    for ranges in by_target.values():
        if len(ranges) < 2:
            continue
        ranges.sort()
        for (_, h1), (l2, _) in zip(ranges, ranges[1:]):
            if l2 < h1:
                return False
    return True


@lru_cache(maxsize=4096)
def _access_list(low: int, high: int, aligned: bool) -> tuple[tuple[Chunk, int], ...]:
    """All (chunk, offset) pairs whose footprint fits ``[low, high)``,
    restricted to aligned offsets unless ``aligned`` is False."""
    out = []
    for t in ALL_CHUNKS:
        size = chunks.size_chunk(t)
        step = chunks.align_chunk(t) if aligned else 1
        i = low + (-low) % step
        while i + size <= high:
            out.append((t, i))
            i += step
    return tuple(out)


def valid_accesses(m: MemState, b: int) -> tuple[tuple[Chunk, int], ...]:
    """The finite set of valid (chunk, offset) accesses of block ``b``."""
    if not memstate.valid_block(m, b):
        return ()
    low, high = memstate.bounds(m, b)
    return _access_list(low, high, m.config.check_alignment)


def _defined_loads(c: cells.BlockContents, low: int, high: int, aligned: bool):
    """Yield every (chunk, offset, value) with a defined (non-undef) load in
    a valid block with cell map ``c`` and bounds ``[low, high)``, under the
    given alignment rule.  Defined loads only arise at datum cells, read at
    a chunk of the same size class; such chunks share the datum's
    footprint, so bounds and the intact-footprint test are decided once per
    datum."""
    for ofs, datum in c.items():
        size = chunks.size_chunk(datum.chunk)
        if ofs < low or ofs + size > high or not cells.check_cont(c, ofs + 1, size - 1):
            continue
        for t in COMPAT_CHUNKS[datum.chunk]:
            if aligned and ofs % chunks.align_chunk(t):
                continue
            v = chunks.convert(datum.value, t)
            if v != VUNDEF:
                yield t, ofs, v


def _relocation_aligned(low: int, high: int, aligned: bool, delta: int) -> bool:
    """Whether every access that fits ``[low, high)`` (at aligned offsets
    only, when ``aligned``) lands on an address aligned for its chunk once
    shifted by ``delta``.

    A chunk's fitting offsets form the progression ``first, first + step,
    ...``; all of them relocate to aligned addresses exactly when the first
    one does and, if there is a second, the step is a multiple of the
    alignment."""
    if aligned and delta % DELTA_ALIGNMENT == 0:
        return True  # every alignment divides 8
    for t in ALL_CHUNKS:
        size = chunks.size_chunk(t)
        align = chunks.align_chunk(t)
        step = align if aligned else 1
        first = low + (-low) % step
        if first + size > high:
            continue  # no access at this chunk
        if (first + delta) % align:
            return False
        if step % align and first + step + size <= high:
            return False
    return True


def mem_lessdef(m1: MemState, m2: MemState) -> bool:
    """Pointwise refinement: same domain, and every valid load of ``m1`` is
    refined by the load of ``m2`` at the same location."""
    if not memstate.same_domain(m1, m2):
        return False
    # Equal bounds admit the same accesses, except that a left state that
    # checks no alignment allows offsets an aligning right state rejects.
    aligned = m1.config.check_alignment
    realign = m2.config.check_alignment and not aligned
    # The same domain has the same valid blocks, so the walks stay in step.
    for (_, low, high, c1), (_, _, _, c2) in zip(
        memstate.live_blocks(m1), memstate.live_blocks(m2)
    ):
        if realign and not _relocation_aligned(low, high, False, 0):
            return False
        if c1 is c2 or c1 == c2:
            continue
        for t, ofs, v1 in _defined_loads(c1, low, high, aligned):
            if v1 != cells.load_contents(t, c2, ofs):
                return False
    return True


def mem_extends(m1: MemState, m2: MemState) -> bool:
    """Memory extension: same next block, every block valid in ``m1`` is
    valid in ``m2`` with containing bounds, and loads are preserved up to
    refinement at the same locations."""
    if m1.nextblock != m2.nextblock:
        return False
    aligned = m1.config.check_alignment
    realign = m2.config.check_alignment and not aligned
    # Merge the two walks: each valid block of m1 must turn up among the
    # valid blocks of m2.
    right = memstate.live_blocks(m2)
    for b, low1, high1, c1 in memstate.live_blocks(m1):
        for b2, low2, high2, c2 in right:
            if b2 >= b:
                break
        else:
            return False
        if b2 != b or not (low2 <= low1 and high1 <= high2):
            return False
        if realign and not _relocation_aligned(low1, high1, False, 0):
            return False
        if c1 is c2 or c1 == c2:
            continue
        for t, ofs, v1 in _defined_loads(c1, low1, high1, aligned):
            if v1 != cells.load_contents(t, c2, ofs):
                return False
    return True


def mem_emb(emb: Embedding, m1: MemState, m2: MemState) -> bool:
    """Load transport through an embedding: every valid access of a mapped
    block of ``m1`` is valid at its relocated location in ``m2``, and the
    loaded values relate by ``val_emb``.  Unmapped blocks impose nothing.

    The access half is decided per block without enumerating accesses.  A
    mapped block with a non-empty span ``[low1, high1)`` has byte accesses
    at every offset, so its accesses stay in bounds exactly when the target
    block is valid in ``m2`` and ``[low1 + delta, high1 + delta)`` lies
    within its bounds; alignment is then checked chunk by chunk in closed
    form when ``m2`` checks alignment.  Blocks with empty spans have no
    accesses and are skipped."""
    aligned = m1.config.check_alignment
    check_alignment = m2.config.check_alignment
    for b1, low1, high1, c1 in memstate.live_blocks(m1):
        target = emb.get(b1)
        if target is None or high1 <= low1:
            continue
        b2, delta = target
        if not memstate.valid_block(m2, b2):
            return False
        low2, high2 = memstate.bounds(m2, b2)
        if not (low2 <= low1 + delta and high1 + delta <= high2):
            return False
        if check_alignment and not _relocation_aligned(low1, high1, aligned, delta):
            return False
        c2 = memstate.contents_of(m2, b2)
        for t, ofs, v1 in _defined_loads(c1, low1, high1, aligned):
            if not val_emb(emb, v1, cells.load_contents(t, c2, ofs + delta)):
                return False
    return True


def mem_inject(emb: Embedding, m1: MemState, m2: MemState) -> bool:
    """Memory injection: load transport plus the two side conditions that
    make relocation sound, namely non-overlapping images and deltas that
    preserve every chunk's alignment."""
    for _, delta in emb.values():
        if delta % DELTA_ALIGNMENT != 0:
            return False
    if not emb_no_overlap(emb, m1):
        return False
    return mem_emb(emb, m1, m2)
