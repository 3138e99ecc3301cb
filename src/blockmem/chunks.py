"""Runtime values and memory access chunks.

A chunk is the type annotation of a memory access: it fixes how many bytes
the access covers, how the address must be aligned, and how a stored value
is normalized when it is loaded back (``convert``).  Values are undefined,
machine integers, IEEE-754 doubles, or block/offset pointers.

Floats are carried as raw 64-bit patterns so that value equality is exact
bit equality (NaN compares equal to itself), which keeps every property in
the law suite decidable.

Values are never mutated once built: they are hashed by their fields
(``unsafe_hash``), and states and statements share them.  They are not
frozen, because a frozen dataclass sets each field through
``object.__setattr__`` and so costs about twice as much to build.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum


class Chunk(IntEnum):
    """The seven access types of the 32-bit model."""

    INT8S = 0
    INT8U = 1
    INT16S = 2
    INT16U = 3
    INT32 = 4
    FLOAT32 = 5
    FLOAT64 = 6

    @property
    def token(self) -> str:
        """Lowercase name used by the trace format."""
        return _TOKENS[self]

    @classmethod
    def from_token(cls, text: str) -> "Chunk | None":
        return _FROM_TOKEN.get(text)


ALL_CHUNKS: tuple[Chunk, ...] = tuple(Chunk)

_TOKENS = {
    Chunk.INT8S: "int8s",
    Chunk.INT8U: "int8u",
    Chunk.INT16S: "int16s",
    Chunk.INT16U: "int16u",
    Chunk.INT32: "int32",
    Chunk.FLOAT32: "float32",
    Chunk.FLOAT64: "float64",
}
_FROM_TOKEN = {tok: c for c, tok in _TOKENS.items()}

# Indexed by Chunk value.  Alignment is natural (== size) except that byte
# accesses are always unaligned-safe; every alignment divides 8.
_SIZE = (1, 1, 2, 2, 4, 4, 8)
_ALIGN = (1, 1, 2, 2, 4, 4, 8)


def size_chunk(c: Chunk) -> int:
    """Byte width of an access at chunk ``c``."""
    return _SIZE[c]


def align_chunk(c: Chunk) -> int:
    """Required address alignment for an access at chunk ``c``."""
    return _ALIGN[c]


def compat(t: Chunk, t2: Chunk) -> bool:
    """Whether a value stored at ``t`` may be read back at ``t2``.

    Compatibility is size equality; kind mismatches (e.g. int32 read as
    float32) are absorbed by ``convert`` returning ``Vundef``.
    """
    return _SIZE[t] == _SIZE[t2]


COMPAT_CHUNKS: dict[Chunk, tuple[Chunk, ...]] = {
    t: tuple(t2 for t2 in ALL_CHUNKS if _SIZE[t] == _SIZE[t2]) for t in ALL_CHUNKS
}


@dataclass(slots=True, unsafe_hash=True)
class Vundef:
    """The undefined value; refines to anything."""

    def __repr__(self) -> str:
        return "Vundef"


@dataclass(slots=True, unsafe_hash=True)
class Vint:
    """A machine integer.  Carried as a plain int for headroom; values are
    canonicalized to the chunk's range only by ``convert``."""

    value: int

    def __repr__(self) -> str:
        return f"Vint({self.value})"


@dataclass(slots=True, unsafe_hash=True)
class Vfloat:
    """An IEEE-754 double, stored as its raw 64-bit pattern."""

    bits: int

    @classmethod
    def from_float(cls, x: float) -> "Vfloat":
        return cls(struct.unpack("<Q", struct.pack("<d", x))[0])

    def __repr__(self) -> str:
        return f"Vfloat(0x{self.bits:016X})"


@dataclass(slots=True, unsafe_hash=True)
class Vptr:
    """A pointer: block id plus byte offset within that block."""

    block: int
    offset: int

    def __repr__(self) -> str:
        return f"Vptr({self.block}, {self.offset})"


Value = Vundef | Vint | Vfloat | Vptr

VUNDEF = Vundef()


def float32_round_bits(bits: int) -> int:
    """Round a double bit pattern to single precision, widened back to
    double bits.  Overflowing magnitudes become infinities of the same
    sign; NaN stays NaN."""
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    try:
        single = struct.pack("<f", x)
    except OverflowError:
        single = struct.pack("<f", math.inf if x > 0 else -math.inf)
    y = struct.unpack("<f", single)[0]
    return struct.unpack("<Q", struct.pack("<d", y))[0]


def value_text(v: Value) -> str:
    """Serialize a value the way the trace format spells it: ``undef``,
    ``(int N)``, ``(float HEXBITS)``, ``(ptr B I)``."""
    if type(v) is Vint:
        return f"(int {v.value})"
    if type(v) is Vfloat:
        return f"(float 0x{v.bits:016X})"
    if type(v) is Vptr:
        return f"(ptr {v.block} {v.offset})"
    return "undef"


def convert(v: Value, t: Chunk) -> Value:
    """Normalization applied by a load at chunk ``t`` to the stored value.

    Integers are sign- or zero-extended from the chunk's width; doubles
    survive float chunks (rounded to single precision for float32); a
    pointer survives only an int32 read.  Every other combination, and
    ``Vundef`` itself, collapses to ``Vundef``.  Total function.
    """
    if type(v) is Vint:
        n = v.value
        if t is Chunk.INT32:
            m = ((n & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000
        elif t is Chunk.INT8S:
            m = ((n & 0xFF) ^ 0x80) - 0x80
        elif t is Chunk.INT8U:
            m = n & 0xFF
        elif t is Chunk.INT16S:
            m = ((n & 0xFFFF) ^ 0x8000) - 0x8000
        elif t is Chunk.INT16U:
            m = n & 0xFFFF
        else:
            return VUNDEF
        return v if m == n else Vint(m)
    if type(v) is Vfloat:
        if t is Chunk.FLOAT64:
            return v
        if t is Chunk.FLOAT32:
            b = float32_round_bits(v.bits)
            return v if b == v.bits else Vfloat(b)
        return VUNDEF
    if type(v) is Vptr:
        return v if t is Chunk.INT32 else VUNDEF
    return VUNDEF
