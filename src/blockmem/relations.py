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

Each relation is a domain condition plus one per-block condition, load
transport (``_emb_block``), along the relation's embedding.  Refinement is
``same_domain`` and transport along ``IDENTITY``.  Extension is an equal
``nextblock``, every valid left block valid and contained on the right
(empty spans too, which transport skips), and transport along
``IDENTITY``.  An injection is deltas that are multiples of 8, images that
do not overlap, and transport along its map.  An operation changes one
block and leaves the condition of every other block as it was, so
``holds_after_step`` decides a relation after a step from the blocks the
step changed.  Its answer is the whole-state checker's, given that the
relation held before the step.  Its work is proportional to the changed
blocks, plus, for an injection, the left blocks mapped onto a changed
right block, not to the size of the states.  Stepwise ``trace.relate``
uses it after its first statement pair.
"""

from __future__ import annotations

from functools import lru_cache, partial

from . import cells, chunks, memstate
from .chunks import ALL_CHUNKS, COMPAT_CHUNKS, Chunk, Value, Vptr, VUNDEF
from .memstate import MemState

# Finite map block -> (target block, delta); absent keys are unmapped.
Embedding = dict


class _Identity:
    """The embedding that maps every block to itself at delta 0.  Along
    it ``val_emb`` is ``val_lessdef``, so refinement and extension are
    embeddings (Leroy & Blazy, JAR 2008)."""

    def __getitem__(self, b: int) -> tuple[int, int]:
        return b, 0

    def get(self, b: int, default=None) -> tuple[int, int]:
        return b, 0

    def __contains__(self, b: int) -> bool:
        return True


IDENTITY = _Identity()

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


def _emb_block(
    emb: Embedding, b1: int, low1: int, high1: int, c1, m2: MemState, aligned: bool
) -> bool:
    """The load-transport condition on one valid block ``b1`` of the left
    state, with bounds ``[low1, high1)`` and cells ``c1``: when it is mapped
    and its span is not empty, the target is valid in ``m2`` with
    containing bounds, the relocated accesses are aligned if ``m2`` checks
    alignment, and the loads relate by ``val_emb``.  Along ``IDENTITY``
    equal cell maps relate at once, since ``val_lessdef`` is reflexive."""
    target = emb.get(b1)
    if target is None or high1 <= low1:
        return True
    b2, delta = target
    if not memstate.valid_block(m2, b2):
        return False
    low2, high2 = memstate.bounds(m2, b2)
    if not (low2 <= low1 + delta and high1 + delta <= high2):
        return False
    if m2.config.check_alignment and not _relocation_aligned(low1, high1, aligned, delta):
        return False
    c2 = memstate.contents_of(m2, b2)
    if emb is IDENTITY and (c1 is c2 or c1 == c2):
        return True
    for t, ofs, v1 in _defined_loads(c1, low1, high1, aligned):
        if not val_emb(emb, v1, cells.load_contents(t, c2, ofs + delta)):
            return False
    return True


def _transports(emb: Embedding, m1: MemState, m2: MemState) -> bool:
    """``_emb_block`` on every valid block of ``m1``: ``mem_emb``'s walk.
    Refinement calls it, not the public name, so rebinding ``mem_emb``
    leaves it alone; extension walks ``_emb_block`` itself."""
    aligned = m1.config.check_alignment
    for b1, low1, high1, c1 in memstate.live_blocks(m1):
        if not _emb_block(emb, b1, low1, high1, c1, m2, aligned):
            return False
    return True


def _same_slot(m1: MemState, m2: MemState, b: int) -> bool:
    """Refinement's domain condition on the issued id ``b``: equal
    ``(low, high, live)`` slots, freed or not."""
    return memstate.slot(m1, b) == memstate.slot(m2, b)


def _contained(m1: MemState, m2: MemState, b: int) -> bool:
    """Extension's domain condition on the id ``b``: when ``b`` is valid in
    ``m1``, it is valid in ``m2`` with containing bounds.  This binds
    empty-span blocks too, which load transport skips."""
    if not memstate.valid_block(m1, b):
        return True
    low1, high1 = memstate.bounds(m1, b)
    low2, high2 = memstate.bounds(m2, b)
    return memstate.valid_block(m2, b) and low2 <= low1 and high1 <= high2


def mem_lessdef(m1: MemState, m2: MemState) -> bool:
    """Pointwise refinement: same domain, and every valid load of ``m1`` is
    refined by the load of ``m2`` at the same location (load transport
    along ``IDENTITY``)."""
    return memstate.same_domain(m1, m2) and _transports(IDENTITY, m1, m2)


def mem_extends(m1: MemState, m2: MemState) -> bool:
    """Memory extension: same next block, every block valid in ``m1`` is
    valid in ``m2`` with containing bounds, and loads are preserved up to
    refinement at the same locations (load transport along ``IDENTITY``).
    One walk over the valid blocks of ``m1`` checks both per block."""
    if m1.nextblock != m2.nextblock:
        return False
    aligned = m1.config.check_alignment
    for b1, low1, high1, c1 in memstate.live_blocks(m1):
        if not (_contained(m1, m2, b1) and _emb_block(IDENTITY, b1, low1, high1, c1, m2, aligned)):
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
    return _transports(emb, m1, m2)


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


# --- one step at a time -----------------------------------------------------------


def sources_by_target(emb: Embedding) -> dict[int, tuple[int, ...]]:
    """The reverse of ``emb``: target block -> the blocks mapped onto it."""
    out: dict[int, list[int]] = {}
    for b, (tb, _) in emb.items():
        out.setdefault(tb, []).append(b)
    return {tb: tuple(bs) for tb, bs in out.items()}


def _no_new_overlap(emb: Embedding, sources: dict, m1: MemState, b: int) -> bool:
    """An injection's domain condition on the id ``b``: when ``b`` is valid
    in ``m1``, it relocates clear of the image of every other valid source
    of its target."""
    target = emb.get(b)
    if target is None or not memstate.valid_block(m1, b):
        return True
    low, high = memstate.bounds(m1, b)
    if low >= high:
        return True
    tb, delta = target
    low, high = low + delta, high + delta
    for s in sources[tb]:
        if s == b or not memstate.valid_block(m1, s):
            continue
        slow, shigh = memstate.bounds(m1, s)
        if slow < shigh and slow + emb[s][1] < high and low < shigh + emb[s][1]:
            return False
    return True


def holds_after_step(
    relation: str,
    m1: MemState,
    m2: MemState,
    changed1,
    changed2,
    emb: Embedding | None = None,
    sources: dict | None = None,
) -> bool:
    """Whether ``relation`` ("lessdef", "extends" or "inject") holds
    between ``m1`` and ``m2``, given that it held between the states they
    came from, and that the step changed only the block ids ``changed1`` on
    the left and ``changed2`` on the right (an alloc changes its new id, a
    store or free its block).  The answer equals the whole-state checker's.

    Every other block carries its condition over.  Each changed left block
    is checked for its domain condition: an equal slot, containment, or,
    for an injection, no overlap with the other sources of its target.
    Then load transport is checked on the changed left blocks and on the
    left blocks mapped onto a changed right block: ``sources =
    sources_by_target(emb)`` for an injection, the block itself along
    ``IDENTITY``.  An injection's deltas depend on no state and held
    before.  The work is proportional to those blocks, not to the size of
    the states."""
    if relation == "inject":
        domain = partial(_no_new_overlap, emb, sources, m1)
        blocks = {*changed1, *(b for tb in changed2 for b in sources.get(tb, ()))}
    else:
        if m1.nextblock != m2.nextblock:
            return False
        # Along the identity a changed right block is its own only source,
        # and the domain condition reads both states.
        emb = IDENTITY
        changed1 = blocks = {*changed1, *changed2}
        domain = partial(_same_slot if relation == "lessdef" else _contained, m1, m2)
    for b in changed1:
        if not domain(b):
            return False
    aligned = m1.config.check_alignment
    for b in blocks:
        if memstate.valid_block(m1, b):
            low, high = memstate.bounds(m1, b)
            if not _emb_block(emb, b, low, high, memstate.contents_of(m1, b), m2, aligned):
                return False
    return True
