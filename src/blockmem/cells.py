"""Per-block content maps and their primitive operations.

A block's contents are a finite map from byte offset to cell.  A cell is
either empty or a datum: a value tagged with the chunk it was stored at,
anchored at the datum's first byte.  The remaining bytes of a datum's
footprint are *continuation* cells, which are simply empty cells; a store
clears them, and a load refuses to produce the datum if any cell inside
the footprint has been overwritten since.

Absent offsets read as empty.  Every operation here returns a fresh map
and leaves its argument alone, except ``write``, the footprint rule
stated once: it updates the map it is given in place.  ``store_contents``
is ``write`` on a copy; a trace run calls ``write`` directly on the maps
it owns (see ``memstate.store``), and never on ``EMPTY_CONTENTS`` or on a
map that any other state can read.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import chunks
from .chunks import Chunk, Value, VUNDEF


@dataclass(slots=True, unsafe_hash=True)
class Datum:
    """A stored value anchored at a cell, tagged with its store chunk.
    Never mutated once built, since its hash depends on its fields."""

    chunk: Chunk
    value: Value


# Finite map offset -> Datum; an absent key is an empty cell.
BlockContents = dict

EMPTY_CONTENTS: BlockContents = {}


def lookup(f: BlockContents, ofs: int) -> Datum | None:
    """Cell at ``ofs``; ``None`` means empty."""
    return f.get(ofs)


def update(ofs: int, c: Datum | None, f: BlockContents) -> BlockContents:
    """Point update: the result maps ``ofs`` to ``c`` and agrees with ``f``
    everywhere else."""
    g = dict(f)
    if c is None:
        g.pop(ofs, None)
    else:
        g[ofs] = c
    return g


def check_cont(f: BlockContents, ofs: int, n: int) -> bool:
    """True iff every cell in ``[ofs, ofs + n)`` is empty."""
    for i in range(ofs, ofs + n):
        if i in f:
            return False
    return True


def set_cont(f: BlockContents, ofs: int, n: int) -> BlockContents:
    """Clear the ``n`` cells starting at ``ofs``, leaving the rest of ``f``
    untouched.  Iterative rendering of the one-cell-at-a-time recursion."""
    g = dict(f)
    for i in range(ofs, ofs + n):
        g.pop(i, None)
    return g


def write(f: BlockContents, t: Chunk, ofs: int, v: Value) -> None:
    """Write a datum into ``f`` in place: clear the continuation cells over
    the rest of the footprint, then set ``v`` tagged with ``t`` at ``ofs``;
    everything outside the footprint is untouched."""
    for i in range(ofs + 1, ofs + chunks.size_chunk(t)):
        f.pop(i, None)
    f[ofs] = Datum(t, v)


def store_contents(f: BlockContents, t: Chunk, ofs: int, v: Value) -> BlockContents:
    """Write a datum into a copy of ``f``.  Equal to ``update(ofs,
    Datum(t, v), set_cont(f, ofs + 1, size - 1))``, in one copy.  Calls
    ``write`` through this module, so a rebinding of ``cells.write``
    reaches it."""
    g = dict(f)
    write(g, t, ofs, v)
    return g


def load_contents(t: Chunk, f: BlockContents, ofs: int) -> Value:
    """Read a datum at ``ofs`` as chunk ``t``.

    Produces ``convert(v, t)`` when the cell holds a datum stored at a
    compatible chunk whose footprint is intact; otherwise ``Vundef``.
    Total function, never fails.
    """
    d = f.get(ofs)
    if d is None or not chunks.compat(t, d.chunk):
        return VUNDEF
    if not check_cont(f, ofs + 1, chunks.size_chunk(t) - 1):
        return VUNDEF
    return chunks.convert(d.value, t)
