"""Memory states and the four memory operations.

A state is a collection of isolated blocks: a monotone next-block counter,
and per issued block id its bounds, whether it is still valid, and its
content map.  Block ids are never reused; freeing a block marks it invalid
and keeps its bounds and contents, so bounds queries are stable across the
block's whole lifetime.  Byte accounting (``allocated_bytes``) backs the
capacity policy and is a function of bounds and validity, which keeps
allocation outcomes deterministic in the domain of the state.

States are immutable values: every operation returns a new state, and the
partial operations (alloc, free, load, store and their derived forms)
signal failure by returning ``None``, leaving the state as it was.  Ids
are dense, so the per-block data sits in one tuple indexed by ``b - 1``:
the slot ``(low, high, live, contents)``, one record per block as in
Leroy & Blazy's concrete model.  Every operation decides first and then
makes one functional update of one slot through ``_put``: ``alloc``
appends a slot and ``store``, ``free`` and the unchecked writers each
replace one, building a new tuple of n slot references that shares every
unchanged slot with the state it came from.  One access check,
``access_slot``, reads the slot once and hands it to ``load`` and
``store``.

The one exception is a run: a single mutable state that a caller
dropping every intermediate state (``trace.exec_trace``, stepwise
``trace.relate``) makes with ``transient(m)``.  A run holds its own
``list`` of the slots and, in ``owned``, the ids whose cell maps it
copied itself.  ``_put`` updates the run in place, in O(1), and every
operation returns the run itself.  ``store`` copies a block's map once,
at the run's first store into it, and from then on writes that copy in
place (``cells.write``), so a store costs the chunk's width, not the
block's cell count.  A map the run did not copy itself
(``EMPTY_CONTENTS``, a map handed to ``set_contents``, a map a snapshot
holds) is never written.  Since each operation decides before it writes,
a failed one leaves the run unchanged.  The caller hands back
``persistent(m)``, which gives up the run's ownership, so a run never
leaves the caller that made it.

Code outside this module reads states through ``nextblock`` and the
functions here: ``valid_block``, ``bounds``, ``slot`` (one read by id),
``live_blocks`` and ``issued_slots`` (in-order walks that read no id),
``contents_of`` and ``freed_blocks``.  ``set_contents`` and ``set_block``
rewrite one issued slot unchecked, for witness states and seeded bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cells, chunks
from .cells import EMPTY_CONTENTS, BlockContents
from .chunks import Chunk, Value, Vptr

Bounds = tuple[int, int]


@dataclass(frozen=True, slots=True)
class CapacityPolicy:
    """Byte-budget admission policy for alloc; ``None`` means unlimited.

    Deterministic in (bytes currently allocated, requested span), so two
    states with the same domain make identical allocation decisions.
    """

    max_total_bytes: int | None = None

    def admits(self, allocated_bytes: int, request: int) -> bool:
        limit = self.max_total_bytes
        return limit is None or allocated_bytes + request <= limit


@dataclass(frozen=True, slots=True)
class MemConfig:
    """Model-wide knobs: the capacity policy and whether the valid-access
    relation includes the alignment conjunct."""

    capacity: CapacityPolicy = CapacityPolicy()
    check_alignment: bool = True


DEFAULT_CONFIG = MemConfig()


@dataclass(slots=True)
class MemState:
    """One sequence of length ``nextblock - 1``, indexed by ``b - 1``: the
    slot ``(low, high, live, contents)`` of each issued id.  Read it
    through the accessors below.  A persistent state holds a tuple, has
    ``owned`` None and is never mutated once built.  A run (see
    ``transient``) holds a list and the set of ids whose maps it owns,
    and its operations update it in place.  ``owned`` takes no part in
    comparison.  A state is unhashable: the dataclass compares by value
    and is not frozen."""

    nextblock: int
    slots: tuple | list
    allocated_bytes: int
    config: MemConfig
    owned: set | None = field(default=None, compare=False, repr=False)


def _span(low: int, high: int) -> int:
    return high - low if high > low else 0


def empty(config: MemConfig = DEFAULT_CONFIG) -> MemState:
    """The initial memory state: no blocks, next id 1."""
    return MemState(1, (), 0, config)


def transient(m: MemState) -> MemState:
    """A run: one mutable state that starts equal to ``m``, over its own
    ``list`` copy of the slots, which every operation then updates in
    place and returns; for the one caller that makes it.  The new run owns
    no map, and ``m``, when it is a run, gives its maps up first (see
    ``persistent``)."""
    m = persistent(m)
    return MemState(m.nextblock, list(m.slots), m.allocated_bytes, m.config, set())


def persistent(m: MemState) -> MemState:
    """``m`` as a persistent state: ``m`` itself when it already is one,
    otherwise one snapshot of the run's slots in a tuple.  The run then
    owns no map, so its later stores copy a map before they write it and
    the snapshot never sees them."""
    if m.owned is None:
        return m
    m.owned.clear()
    return MemState(m.nextblock, tuple(m.slots), m.allocated_bytes, m.config)


def _put(m: MemState, i: int, s: tuple, allocated: int) -> MemState:
    """``m`` with slot ``s`` at index ``i`` (an append when ``i`` is
    ``nextblock - 1``) and ``allocated`` bytes: the one slot writer.  A
    run is updated in place and returned; otherwise a new state is built
    over a new tuple."""
    slots, n = m.slots, m.nextblock
    if m.owned is not None:
        if i == n - 1:
            slots.append(s)
            m.nextblock = n + 1
        else:
            slots[i] = s
        m.allocated_bytes = allocated
        return m
    if i == n - 1:
        return MemState(n + 1, slots + (s,), allocated, m.config)
    return MemState(n, slots[:i] + (s,) + slots[i + 1 :], allocated, m.config)


def valid_block(m: MemState, b: int) -> bool:
    """Allocated and not yet freed."""
    return 1 <= b < m.nextblock and m.slots[b - 1][2]


def fresh_block(m: MemState, b: int) -> bool:
    """Id not issued yet; mutually exclusive with validity."""
    return b >= m.nextblock


def bounds(m: MemState, b: int) -> Bounds:
    """(low inclusive, high exclusive) of ``b``; (0, 0) off-domain."""
    if 1 <= b < m.nextblock:
        return m.slots[b - 1][:2]
    return (0, 0)


def access_slot(m: MemState, t: Chunk, b: int, i: int) -> tuple | None:
    """The slot of ``b`` when an access at chunk ``t`` to ``(b, i)`` is
    legal: valid block, footprint within bounds, and (unless disabled)
    aligned address; ``None`` otherwise.  ``valid_access``, ``load`` and
    ``store`` all decide access through it."""
    if not 1 <= b < m.nextblock:
        return None
    s = m.slots[b - 1]
    low, high, live, _ = s
    if not live or i < low or i + chunks.size_chunk(t) > high:
        return None
    if m.config.check_alignment and i % chunks.align_chunk(t):
        return None
    return s


def valid_access(m: MemState, t: Chunk, b: int, i: int) -> bool:
    """Whether an access at chunk ``t`` to ``(b, i)`` is legal."""
    return access_slot(m, t, b, i) is not None


def alloc(m: MemState, low: int, high: int) -> tuple[int, MemState] | None:
    """Allocate a fresh block with the given bounds.

    ``low > high`` is permitted and yields an empty-span block with no
    valid accesses.  Fails exactly when the capacity policy rejects the
    requested span.
    """
    request = _span(low, high)
    if not m.config.capacity.admits(m.allocated_bytes, request):
        return None
    b = m.nextblock
    return b, _put(m, b - 1, (low, high, True, EMPTY_CONTENTS), m.allocated_bytes + request)


def free(m: MemState, b: int) -> MemState | None:
    """Deallocate ``b``.  Fails unless ``b`` is currently valid; bounds and
    contents are kept so off-domain queries stay stable."""
    if not 1 <= b < m.nextblock:
        return None
    low, high, live, c = m.slots[b - 1]
    if not live:
        return None
    return _put(m, b - 1, (low, high, False, c), m.allocated_bytes - _span(low, high))


def load(t: Chunk, m: MemState, b: int, i: int) -> Value | None:
    """Read chunk ``t`` at ``(b, i)``.  Succeeds iff the access is valid;
    the result may still be ``Vundef`` (never-written or clobbered cell)."""
    s = access_slot(m, t, b, i)
    if s is None:
        return None
    return cells.load_contents(t, s[3], i)


def store(t: Chunk, m: MemState, b: int, i: int, v: Value) -> MemState | None:
    """Write ``v`` as chunk ``t`` at ``(b, i)``.  Succeeds iff the access is
    valid; only the contents of ``b`` change.  A run writes a map it owns
    in place and returns itself; it copies a map it does not own, once,
    and then owns it."""
    s = access_slot(m, t, b, i)
    if s is None:
        return None
    owned = m.owned
    if owned is not None:
        if b in owned:
            cells.write(s[3], t, i, v)
            return m
        owned.add(b)
    low, high, live, c = s
    c = cells.store_contents(c, t, i, v)
    return _put(m, b - 1, (low, high, live, c), m.allocated_bytes)


def same_domain(m1: MemState, m2: MemState) -> bool:
    """Equal next-block counter, freed set, and bounds; contents may
    differ."""
    return m1.nextblock == m2.nextblock and all(
        s1 is s2 or s1[:3] == s2[:3] for s1, s2 in zip(m1.slots, m2.slots)
    )


# --- accessors ------------------------------------------------------------------


def live_blocks(m: MemState):
    """``(b, low, high, contents)`` of every valid block, in id order."""
    for b, (low, high, live, c) in enumerate(m.slots, 1):
        if live:
            yield b, low, high, c


def issued_slots(m: MemState):
    """The slot ``(low, high, live, contents)`` of every issued id, in id
    order: one in-order walk, reading no id."""
    return iter(m.slots)


def slot(m: MemState, b: int) -> tuple | None:
    """The slot ``(low, high, live, contents)`` of ``b``; ``None`` when
    ``b`` was never issued."""
    if 1 <= b < m.nextblock:
        return m.slots[b - 1]
    return None


def contents_of(m: MemState, b: int) -> BlockContents:
    """The cell map of ``b``, freed or not; empty off-domain."""
    if 1 <= b < m.nextblock:
        return m.slots[b - 1][3]
    return EMPTY_CONTENTS


def freed_blocks(m: MemState) -> frozenset:
    """The ids issued and since freed."""
    return frozenset(b for b, s in enumerate(m.slots, 1) if not s[2])


def set_contents(m: MemState, b: int, c: BlockContents) -> MemState:
    """``m`` with the cell map of the issued id ``b`` replaced by ``c``.
    Unchecked: no access validity, no footprint rules; for building
    witness states.  ``IndexError`` when ``b`` was never issued.  A run
    does not own ``c``, so its later stores into ``b`` copy it first."""
    if not 1 <= b < m.nextblock:
        raise IndexError(b)
    low, high, live, _ = m.slots[b - 1]
    if m.owned is not None:
        m.owned.discard(b)
    return _put(m, b - 1, (low, high, live, c), m.allocated_bytes)


def set_block(m: MemState, b: int, low: int, high: int, live: bool) -> MemState:
    """``m`` with the issued id ``b`` given bounds ``(low, high)`` and
    validity ``live``, the byte count following.  Unchecked: it can revive
    a freed id; for building seeded bugs.  ``IndexError`` when ``b`` was
    never issued."""
    if not 1 <= b < m.nextblock:
        raise IndexError(b)
    old_low, old_high, old_live, c = m.slots[b - 1]
    allocated = (
        m.allocated_bytes
        - (_span(old_low, old_high) if old_live else 0)
        + (_span(low, high) if live else 0)
    )
    return _put(m, b - 1, (low, high, live, c), allocated)


def free_list(m: MemState, bs) -> MemState | None:
    """Free the blocks ``bs``.  Fails, freeing none of them, unless every
    id is valid in ``m`` and none repeats: the verdict of freeing left to
    right, where a duplicate fails on its second occurrence.  Deciding
    first keeps a failed free-list from freeing a prefix of a run in
    place."""
    bs = tuple(bs)
    if len(set(bs)) != len(bs) or not all(valid_block(m, b) for b in bs):
        return None
    for b in bs:
        m = free(m, b)
    return m


def alloc_list(m: MemState, requests) -> tuple[list[int], MemState] | None:
    """Allocate one block per (low, high) request, left to right, returning
    the new block ids in order.  Fails, allocating none, unless the capacity
    admits a nonempty list's total span: spans are never negative, so that
    is the verdict of allocating left to right."""
    requests = tuple(requests)
    total = sum(_span(low, high) for low, high in requests)
    if requests and not m.config.capacity.admits(m.allocated_bytes, total):
        return None
    out: list[int] = []
    for low, high in requests:
        b, m = alloc(m, low, high)
        out.append(b)
    return out, m


def loadv(t: Chunk, m: MemState, addr: Value) -> Value | None:
    """Value-addressed load: delegates when ``addr`` is a pointer, fails
    otherwise."""
    if type(addr) is Vptr:
        return load(t, m, addr.block, addr.offset)
    return None


def storev(t: Chunk, m: MemState, addr: Value, v: Value) -> MemState | None:
    """Value-addressed store: delegates when ``addr`` is a pointer, fails
    otherwise."""
    if type(addr) is Vptr:
        return store(t, m, addr.block, addr.offset, v)
    return None
