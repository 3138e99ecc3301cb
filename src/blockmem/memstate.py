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
signal failure by returning ``None``.  Ids are dense, so the per-block data
sits in two persistent vectors indexed by ``b - 1`` (see ``pvec``):
``blocks`` holds ``(low, high, live)`` and ``contents`` the cell map.
``alloc`` appends to both, ``store`` replaces one ``contents`` slot and
``free`` one ``blocks`` slot, each copying one root-to-leaf path,
O(log32 n), and sharing the rest with the state it came from.

Code outside this module reads states through ``nextblock`` and the
functions here: ``valid_block``, ``bounds``, ``slot``, ``live_blocks`` (one
in-order walk over the valid blocks), ``contents_of`` and ``freed_blocks``.
``set_contents`` and ``set_block`` rewrite one slot unchecked, for
witness states and seeded bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from . import cells, chunks
from .cells import EMPTY_CONTENTS, BlockContents
from .chunks import Chunk, Value, Vptr
from .pvec import PVec

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
    """Two persistent vectors of one length, ``nextblock - 1``, indexed by
    ``b - 1``: ``blocks`` holds ``(low, high, live)`` per issued id and
    ``contents`` the block's cell map.  Read them through the accessors
    below.  A state is never mutated once built (states share their
    vectors); it is unhashable, as its vectors are."""

    nextblock: int
    blocks: PVec
    contents: PVec
    allocated_bytes: int
    config: MemConfig


def _span(low: int, high: int) -> int:
    return high - low if high > low else 0


def empty(config: MemConfig = DEFAULT_CONFIG) -> MemState:
    """The initial memory state: no blocks, next id 1."""
    return MemState(1, PVec(), PVec(), 0, config)


def valid_block(m: MemState, b: int) -> bool:
    """Allocated and not yet freed."""
    return 1 <= b < m.nextblock and m.blocks.get(b - 1)[2]


def fresh_block(m: MemState, b: int) -> bool:
    """Id not issued yet; mutually exclusive with validity."""
    return b >= m.nextblock


def bounds(m: MemState, b: int) -> Bounds:
    """(low inclusive, high exclusive) of ``b``; (0, 0) off-domain."""
    if 1 <= b < m.nextblock:
        return m.blocks.get(b - 1)[:2]
    return (0, 0)


def valid_access(m: MemState, t: Chunk, b: int, i: int) -> bool:
    """Whether an access at chunk ``t`` to ``(b, i)`` is legal: valid block,
    footprint within bounds, and (unless disabled) aligned address."""
    if not 1 <= b < m.nextblock:
        return False
    low, high, live = m.blocks.get(b - 1)
    if not live or i < low or i + chunks.size_chunk(t) > high:
        return False
    return not m.config.check_alignment or i % chunks.align_chunk(t) == 0


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
    return b, MemState(
        b + 1,
        m.blocks.append((low, high, True)),
        m.contents.append(EMPTY_CONTENTS),
        m.allocated_bytes + request,
        m.config,
    )


def free(m: MemState, b: int) -> MemState | None:
    """Deallocate ``b``.  Fails unless ``b`` is currently valid; bounds and
    contents are kept so off-domain queries stay stable."""
    if not 1 <= b < m.nextblock:
        return None
    low, high, live = m.blocks.get(b - 1)
    if not live:
        return None
    return MemState(
        m.nextblock,
        m.blocks.set(b - 1, (low, high, False)),
        m.contents,
        m.allocated_bytes - _span(low, high),
        m.config,
    )


def load(t: Chunk, m: MemState, b: int, i: int) -> Value | None:
    """Read chunk ``t`` at ``(b, i)``.  Succeeds iff the access is valid;
    the result may still be ``Vundef`` (never-written or clobbered cell)."""
    if not valid_access(m, t, b, i):
        return None
    return cells.load_contents(t, m.contents.get(b - 1), i)


def store(t: Chunk, m: MemState, b: int, i: int, v: Value) -> MemState | None:
    """Write ``v`` as chunk ``t`` at ``(b, i)``.  Succeeds iff the access is
    valid; only the contents of ``b`` change."""
    if not valid_access(m, t, b, i):
        return None
    c = m.contents
    return MemState(
        m.nextblock,
        m.blocks,
        c.set(b - 1, cells.store_contents(c.get(b - 1), t, i, v)),
        m.allocated_bytes,
        m.config,
    )


def same_domain(m1: MemState, m2: MemState) -> bool:
    """Equal next-block counter, freed set, and bounds; contents may
    differ."""
    return m1.nextblock == m2.nextblock and (
        m1.blocks is m2.blocks or m1.blocks == m2.blocks
    )


# --- accessors ------------------------------------------------------------------


def live_blocks(m: MemState):
    """``(b, low, high, contents)`` of every valid block, in id order."""
    for b, (low, high, live), c in zip(count(1), m.blocks, m.contents):
        if live:
            yield b, low, high, c


def slot(m: MemState, b: int) -> tuple[int, int, bool]:
    """``(low, high, live)`` of the issued id ``b``."""
    return m.blocks.get(b - 1)


def contents_of(m: MemState, b: int) -> BlockContents:
    """The cell map of ``b``, freed or not; empty off-domain."""
    if 1 <= b < m.nextblock:
        return m.contents.get(b - 1)
    return EMPTY_CONTENTS


def freed_blocks(m: MemState) -> frozenset:
    """The ids issued and since freed."""
    return frozenset(b for b, (_, _, live) in enumerate(m.blocks, 1) if not live)


def set_contents(m: MemState, b: int, c: BlockContents) -> MemState:
    """``m`` with the cell map of the issued id ``b`` replaced by ``c``.
    Unchecked: no access validity, no footprint rules; for building
    witness states."""
    return MemState(
        m.nextblock, m.blocks, m.contents.set(b - 1, c), m.allocated_bytes, m.config
    )


def set_block(m: MemState, b: int, low: int, high: int, live: bool) -> MemState:
    """``m`` with the issued id ``b`` given bounds ``(low, high)`` and
    validity ``live``, the byte count following.  Unchecked: it can revive
    a freed id; for building seeded bugs."""
    old_low, old_high, old_live = m.blocks.get(b - 1)
    allocated = (
        m.allocated_bytes
        - (_span(old_low, old_high) if old_live else 0)
        + (_span(low, high) if live else 0)
    )
    return MemState(
        m.nextblock, m.blocks.set(b - 1, (low, high, live)), m.contents, allocated, m.config
    )


def free_list(m: MemState, bs) -> MemState | None:
    """Free blocks left to right; fails at the first invalid element (so a
    duplicate fails on its second occurrence)."""
    for b in bs:
        m2 = free(m, b)
        if m2 is None:
            return None
        m = m2
    return m


def alloc_list(m: MemState, requests) -> tuple[list[int], MemState] | None:
    """Allocate one block per (low, high) request, left to right, returning
    the new block ids in order; fails if any allocation fails."""
    out: list[int] = []
    for low, high in requests:
        r = alloc(m, low, high)
        if r is None:
            return None
        b, m = r
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
