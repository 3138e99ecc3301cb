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
transport (``_transport``), along the relation's embedding.  Transport
reads the left block's bounds and cells and the slot of its target in the
right state (see ``memstate``), so each block costs one slot read on each
side.  Refinement is an equal ``nextblock``, equal ``(low, high, live)``
slots and transport along ``IDENTITY``.  Extension is an equal
``nextblock``, every valid left block valid and contained on the right
(empty spans too, which transport skips), and transport along
``IDENTITY``.  Both decide a whole state in one walk over the two states'
slots in id order, reading no block by id; a slot the two states share
holds at once when both check alignment the same way.  An injection is
deltas that are multiples of 8, images that do not overlap, and transport
along its map, each target's slot read by id.  An operation changes one
block and leaves the condition of every other block as it was, so
``holds_after_step`` decides a relation after a step from the blocks the
step changed.  Its answer is the whole-state checker's, given that the
relation held before the step.  Its work is proportional to the changed
blocks, plus, for an injection, the left blocks mapped onto a changed
right block, not to the size of the states.  Stepwise ``trace.relate``
uses it after its first statement pair.
"""

from __future__ import annotations

from functools import lru_cache

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
    s = memstate.slot(m, b)
    if s is None or not s[2]:
        return ()
    return _access_list(s[0], s[1], m.config.check_alignment)


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


def _transport(
    emb: Embedding, b1: int, low1: int, high1: int, c1, aligned: bool, s2, aligned2: bool
) -> bool:
    """The load-transport condition on one valid block ``b1`` of the left
    state, with bounds ``[low1, high1)`` and cells ``c1``, whose accesses
    are aligned when ``aligned``.  ``s2`` is the slot of its target in the
    right state (``None`` when that id was never issued there), whose
    accesses are aligned when ``aligned2``.  When ``b1`` is mapped and its
    span is not empty, the target is valid with containing bounds, the
    relocated accesses are aligned if ``aligned2``, and the loads relate by
    ``val_emb``.  Along ``IDENTITY`` equal cell maps relate at once, since
    ``val_lessdef`` is reflexive."""
    if high1 <= low1:
        return True
    if s2 is None:
        return False
    low2, high2, live2, c2 = s2
    delta = 0 if emb is IDENTITY else emb[b1][1]
    if not (live2 and low2 <= low1 + delta and high1 + delta <= high2):
        return False
    if aligned2 and not _relocation_aligned(low1, high1, aligned, delta):
        return False
    if emb is IDENTITY and (c1 is c2 or c1 == c2):
        return True
    for t, ofs, v1 in _defined_loads(c1, low1, high1, aligned):
        if not val_emb(emb, v1, cells.load_contents(t, c2, ofs + delta)):
            return False
    return True


def _transport_by_id(
    emb: Embedding, b1: int, low1: int, high1: int, c1, aligned: bool, m2: MemState
) -> bool:
    """``_transport`` on the valid left block ``b1`` when it is mapped,
    after one read of its target's slot in ``m2`` by id."""
    target = emb.get(b1)
    if target is None:
        return True
    s2 = memstate.slot(m2, target[0])
    return _transport(emb, b1, low1, high1, c1, aligned, s2, m2.config.check_alignment)


def _refines(b: int, s1, s2, aligned: bool, aligned2: bool) -> bool:
    """Refinement's condition on the issued id ``b`` with slots ``s1`` and
    ``s2``: equal ``(low, high, live)``, freed or not, and load transport
    along ``IDENTITY`` when live.  A slot shared by both states holds at
    once when both states check alignment the same way."""
    if s1 is s2 and aligned == aligned2:
        return True
    low1, high1, live1, c1 = s1
    low2, high2, live2, _ = s2
    if low1 != low2 or high1 != high2 or live1 != live2:
        return False
    return not live1 or _transport(IDENTITY, b, low1, high1, c1, aligned, s2, aligned2)


def _extends(b: int, s1, s2, aligned: bool, aligned2: bool) -> bool:
    """Extension's condition on the issued id ``b`` with slots ``s1`` and
    ``s2``: when ``b`` is valid on the left, it is valid on the right with
    containing bounds, which binds empty-span blocks too, and load
    transport along ``IDENTITY`` holds.  A slot shared by both states holds
    at once when both states check alignment the same way."""
    low1, high1, live1, c1 = s1
    if not live1 or s1 is s2 and aligned == aligned2:
        return True
    low2, high2, live2, _ = s2
    if not (live2 and low2 <= low1 and high1 <= high2):
        return False
    return _transport(IDENTITY, b, low1, high1, c1, aligned, s2, aligned2)


def _in_step(condition, m1: MemState, m2: MemState) -> bool:
    """An equal ``nextblock``, and ``condition`` on every issued id, in one
    walk over both states' slots in id order that reads no id."""
    if m1.nextblock != m2.nextblock:
        return False
    aligned, aligned2 = m1.config.check_alignment, m2.config.check_alignment
    slots2 = memstate.issued_slots(m2)
    for b, s1 in enumerate(memstate.issued_slots(m1), 1):
        if not condition(b, s1, next(slots2), aligned, aligned2):
            return False
    return True


def mem_lessdef(m1: MemState, m2: MemState) -> bool:
    """Pointwise refinement: same domain, and every valid load of ``m1`` is
    refined by the load of ``m2`` at the same location (load transport
    along ``IDENTITY``).  One walk over both states checks both per
    block."""
    return _in_step(_refines, m1, m2)


def mem_extends(m1: MemState, m2: MemState) -> bool:
    """Memory extension: same next block, every block valid in ``m1`` is
    valid in ``m2`` with containing bounds, and loads are preserved up to
    refinement at the same locations (load transport along ``IDENTITY``).
    One walk over both states checks both per block."""
    return _in_step(_extends, m1, m2)


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
    for b1, low1, high1, c1 in memstate.live_blocks(m1):
        if not _transport_by_id(emb, b1, low1, high1, c1, aligned, m2):
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
    s = memstate.slot(m1, b)
    if target is None or s is None or not s[2] or s[0] >= s[1]:
        return True
    tb, delta = target
    low, high = s[0] + delta, s[1] + delta
    for other in sources[tb]:
        so = memstate.slot(m1, other)
        if other == b or so is None or not so[2]:
            continue
        olow, ohigh, _, _ = so
        odelta = emb[other][1]
        if olow < ohigh and olow + odelta < high and low < ohigh + odelta:
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

    Every other block carries its condition over.  Along ``IDENTITY`` a
    changed block, on either side, is read once by id on each side and
    checked for the whole-state walk's per-block condition: an equal slot
    or containment, and load transport.  For an injection, each changed
    left block is checked for no overlap with the other sources of its
    target; then load transport is checked on the changed left blocks and
    on the left blocks mapped onto a changed right block (``sources =
    sources_by_target(emb)``), each after one read of its target's slot.
    An injection's deltas depend on no state and held before.  The work is
    proportional to those blocks, not to the size of the states."""
    aligned = m1.config.check_alignment
    if relation != "inject":
        if m1.nextblock != m2.nextblock:
            return False
        condition = _refines if relation == "lessdef" else _extends
        aligned2 = m2.config.check_alignment
        for b in {*changed1, *changed2}:
            if not condition(b, memstate.slot(m1, b), memstate.slot(m2, b), aligned, aligned2):
                return False
        return True
    for b in changed1:
        if not _no_new_overlap(emb, sources, m1, b):
            return False
    for b in {*changed1, *(b for tb in changed2 for b in sources.get(tb, ()))}:
        s1 = memstate.slot(m1, b)
        if s1 is not None and s1[2]:
            low1, high1, _, c1 = s1
            if not _transport_by_id(emb, b, low1, high1, c1, aligned, m2):
                return False
    return True
