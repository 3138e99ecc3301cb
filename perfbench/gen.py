"""Seeded inputs for the heap and relate workloads.

Everything here is independent of blockmem: the traces are plain text, and
every expectation written into them (load results, final live blocks and
bounds, relation verdicts) comes from the small reference model below, not
from the package under test.  The model tracks, for every byte of a block,
the store that wrote it last; a load yields a value only when all bytes of
its footprint were last written by one store anchored at the load offset,
of the same width, and the value then goes through ``normalize``.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, field

# token -> (width in bytes, kind, signed)
CHUNKS = {
    "int8s": (1, "int", True),
    "int8u": (1, "int", False),
    "int16s": (2, "int", True),
    "int16u": (2, "int", False),
    "int32": (4, "int", True),
    "float32": (4, "float", None),
    "float64": (8, "float", None),
}
TOKENS = tuple(CHUNKS)
SAME_WIDTH = {t: tuple(u for u in TOKENS if CHUNKS[u][0] == CHUNKS[t][0]) for t in TOKENS}

UNDEF = ("undef",)

_FLOATS = (
    0.0, -0.0, 1.0, 1.5, -2.75, 0.1, 3.14159, 1e10, 1e-40, 5e-324,
    3.5e38, math.inf, -math.inf, math.nan,
)
FLOAT_BITS = tuple(int.from_bytes(struct.pack("<d", x), "little") for x in _FLOATS)
WILD_INTS = (300, -300, 70000, 2**31, -(2**31) - 5, 2**40, -1, 255, 65535)


def _round_float32(bits: int) -> int:
    """IEEE single rounding of a double bit pattern, widened back; values
    beyond the single range round to an infinity of the same sign."""
    x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
    try:
        y = struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        y = math.copysign(math.inf, x)
    return int.from_bytes(struct.pack("<d", y), "little")


def normalize(value: tuple, token: str) -> tuple:
    """What a load at ``token`` yields for a stored ``value`` of the same
    width: integers wrap to the chunk's width and signedness, doubles pass
    float64 and round at float32, pointers pass int32 only, and every other
    combination is undefined."""
    width, kind, signed = CHUNKS[token]
    if value[0] == "int" and kind == "int":
        raw = (value[1] & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        return ("int", int.from_bytes(raw, "little", signed=signed))
    if value[0] == "float" and kind == "float":
        return value if width == 8 else ("float", _round_float32(value[1]))
    if value[0] == "ptr" and token == "int32":
        return value
    return UNDEF


def value_text(value: tuple) -> str:
    if value[0] == "int":
        return f"(int {value[1]})"
    if value[0] == "float":
        return f"(float 0x{value[1]:016X})"
    if value[0] == "ptr":
        return f"(ptr {value[1]} {value[2]})"
    return "undef"


def _slots(low: int, high: int, token: str) -> range:
    """Aligned offsets whose footprint fits ``[low, high)``."""
    width = CHUNKS[token][0]
    first = low + (-low) % width
    return range(first, high - width + 1, width)


def _access(rng: random.Random, low: int, high: int, tokens=TOKENS) -> tuple[str, int]:
    """A random chunk among ``tokens`` that fits the block, and a valid
    offset for it."""
    token = rng.choice([t for t in tokens if _slots(low, high, t)])
    return token, rng.choice(_slots(low, high, token))


class Block:
    __slots__ = ("var", "low", "high", "live", "writer", "anchors")

    def __init__(self, var: str, low: int, high: int) -> None:
        self.var = var
        self.low = low
        self.high = high
        self.live = True
        self.writer: dict[int, tuple] = {}  # byte -> (anchor, token, value)
        self.anchors: list[tuple[int, str]] = []  # stores so far, oldest first

    def store(self, token: str, ofs: int, value: tuple) -> None:
        w = (ofs, token, value)
        for byte in range(ofs, ofs + CHUNKS[token][0]):
            self.writer[byte] = w
        self.anchors.append((ofs, token))

    def accessible(self, token: str, ofs: int) -> bool:
        width = CHUNKS[token][0]
        return self.live and self.low <= ofs and ofs + width <= self.high and ofs % width == 0

    def load(self, token: str, ofs: int) -> tuple | None:
        """Expected result of a load: None when the access is invalid."""
        if not self.accessible(token, ofs):
            return None
        w = self.writer.get(ofs)
        width = CHUNKS[token][0]
        if w is None or w[0] != ofs or CHUNKS[w[1]][0] != width:
            return UNDEF
        for byte in range(ofs + 1, ofs + width):
            if self.writer.get(byte) is not w:
                return UNDEF
        return normalize(w[2], token)


# --- heap: one long trace, checked statement by statement --------------------


@dataclass(frozen=True)
class HeapSize:
    small_blocks: int  # small blocks allocated over the trace
    ops_per_alloc: int  # other statements between two small allocs
    dense_blocks: int
    dense_span: int  # bytes per dense block


HEAP_FULL = HeapSize(small_blocks=6000, ops_per_alloc=6, dense_blocks=4, dense_span=1024)
HEAP_TINY = HeapSize(small_blocks=60, ops_per_alloc=6, dense_blocks=2, dense_span=96)

# Statement mix after each alloc: (kind, weight).
_HEAP_MIX = (
    ("store", 28),
    ("store_dense", 14),
    ("load_recent", 22),
    ("load_any", 8),
    ("free", 6),
    ("load_freed", 3),
    ("store_out_of_bounds", 3),
    ("load_misaligned", 3),
    ("double_free", 2),
    ("store_freed", 2),
    ("assert_bounds", 5),
    ("assert_valid", 4),
)
_SMALL_LOWS = (0, 0, 0, -8, -16, 8, 4)
_SMALL_SPANS = (8, 16, 16, 24, 32, 48, 64)


@dataclass
class HeapInput:
    text: str
    statements: int
    blocks: list  # every Block, in allocation order (block id = index + 1)
    loads: int
    defined_loads: int  # loads expecting a defined value


class _HeapGen:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.blocks: list[Block] = []
        self.live_small: list[Block] = []
        self.freed: list[Block] = []
        self.dense: list[Block] = []
        self.loads = 0
        self.defined_loads = 0

    def alloc(self, prefix: str, low: int, high: int) -> Block:
        b = Block(f"${prefix}{len(self.blocks)}", low, high)
        self.blocks.append(b)
        self.lines.append(f"alloc {low} {high} -> {b.var}")
        return b

    def value_for(self, token: str) -> tuple:
        rng = self.rng
        r = rng.randrange(100)
        if CHUNKS[token][1] == "float":
            if r < 70:
                return ("float", rng.choice(FLOAT_BITS))
            if r < 85:
                return ("int", rng.randint(-100, 100))
            return UNDEF
        if r < 50:
            return ("int", rng.randint(-200, 200))
        if r < 65:
            return ("int", rng.choice(WILD_INTS))
        if r < 85:
            target = rng.choice(self.blocks)
            return ("ptr", target.var, rng.randint(-4, 64))
        if r < 93:
            return ("float", rng.choice(FLOAT_BITS))
        return UNDEF

    def store(self, b: Block) -> None:
        token, ofs = _access(self.rng, b.low, b.high)
        v = self.value_for(token)
        b.store(token, ofs, v)
        self.lines.append(f"store {token} {b.var} {ofs} {value_text(v)}")

    def load(self, b: Block, token: str, ofs: int) -> None:
        want = b.load(token, ofs)
        if want is None:
            self.lines.append(f"load {token} {b.var} {ofs} => fail")
            return
        self.loads += 1
        if want != UNDEF:
            self.defined_loads += 1
        self.lines.append(f"load {token} {b.var} {ofs} => {value_text(want)}")

    def live_block(self) -> Block:
        if self.dense and self.rng.randrange(4) == 0:
            return self.rng.choice(self.dense)
        return self.rng.choice(self.live_small)

    def step(self, kind: str) -> None:
        rng = self.rng
        if kind == "store":
            self.store(rng.choice(self.live_small))
        elif kind == "store_dense":
            self.store(rng.choice(self.dense or self.live_small))
        elif kind == "load_recent":
            b = self.live_block()
            if not b.anchors:
                self.store(b)
                return
            ofs, token = rng.choice(b.anchors[-8:])
            self.load(b, rng.choice(SAME_WIDTH[token]), ofs)
        elif kind == "load_any":
            b = self.live_block()
            self.load(b, *_access(rng, b.low, b.high))
        elif kind == "free":
            if len(self.live_small) < 2:
                self.store(self.live_small[0])
                return
            k = rng.randrange(len(self.live_small))
            b = self.live_small[k]
            self.live_small[k] = self.live_small[-1]
            self.live_small.pop()
            b.live = False
            self.freed.append(b)
            self.lines.append(f"free {b.var}")
        elif kind == "load_freed":
            if not self.freed:
                self.step("load_any")
                return
            b = rng.choice(self.freed)
            self.lines.append(f"load int8u {b.var} {b.low} => fail")
        elif kind == "store_out_of_bounds":
            b = self.live_block()
            token = rng.choice(TOKENS)
            ofs = b.high - CHUNKS[token][0] + 8 * rng.randint(1, 4)
            ofs -= ofs % CHUNKS[token][0]
            self.lines.append(f"expect-fail store {token} {b.var} {ofs} (int 1)")
        elif kind == "load_misaligned":
            b = self.live_block()
            token, ofs = _access(rng, b.low, b.high, TOKENS[2:])
            self.lines.append(f"expect-fail load {token} {b.var} {ofs + 1}")
        elif kind == "double_free":
            if not self.freed:
                self.step("assert_valid")
                return
            self.lines.append(f"expect-fail free {rng.choice(self.freed).var}")
        elif kind == "store_freed":
            if not self.freed:
                self.step("assert_bounds")
                return
            b = rng.choice(self.freed)
            self.lines.append(f"expect-fail store int8s {b.var} {b.low} (int 5)")
        elif kind == "assert_bounds":
            b = rng.choice(self.blocks)
            self.lines.append(f"assert-bounds {b.var} {b.low} {b.high}")
        elif kind == "assert_valid":
            self.lines.append(f"assert-valid {self.live_block().var}")
        else:
            raise ValueError(kind)


def heap_input(seed: int, size: HeapSize = HEAP_FULL) -> HeapInput:
    """One trace that grows to thousands of live blocks, with a few dense
    blocks of hundreds of cells, frees, loads after free and failing
    accesses; every load carries the model's expectation."""
    rng = random.Random(f"heap:{seed}")
    g = _HeapGen(rng)
    g.lines.append(f"# heap workload, seed {seed}")
    kinds = [k for k, _ in _HEAP_MIX]
    weights = [w for _, w in _HEAP_MIX]
    dense_every = max(1, size.small_blocks // (size.dense_blocks + 1))
    for k in range(size.small_blocks):
        if k % dense_every == dense_every - 1 and len(g.dense) < size.dense_blocks:
            g.dense.append(g.alloc("d", 0, size.dense_span))
        low = rng.choice(_SMALL_LOWS)
        g.live_small.append(g.alloc("b", low, low + rng.choice(_SMALL_SPANS)))
        for kind in rng.choices(kinds, weights, k=size.ops_per_alloc):
            g.step(kind)
    return HeapInput(
        text="\n".join(g.lines) + "\n",
        statements=len(g.lines) - 1,
        blocks=g.blocks,
        loads=g.loads,
        defined_loads=g.defined_loads,
    )


# --- relate: trace pairs whose verdict is known by construction --------------


@dataclass
class RelateItem:
    name: str
    relation: str  # "lessdef" | "extends" | "inject"
    left: str
    right: str
    emb: dict | None  # block -> (target block, delta), inject only
    stepwise: bool
    holds: bool
    fail_step: int | None = None  # stepwise: index of the first failing step
    small: bool = False  # also compared with the full-enumeration reference
    statements: int = 0  # per side


@dataclass(frozen=True)
class RelateSize:
    stepwise_statements: int  # per side, per stepwise pair
    final_statements: int  # per side, per final-state pair
    small_pairs: int  # per relation; half of them unrelated
    large_spans: tuple  # one-block inject pairs, bytes


RELATE_FULL = RelateSize(
    stepwise_statements=600,
    final_statements=3000,
    small_pairs=6,
    large_spans=(65536, 131072, 262144),
)
RELATE_TINY = RelateSize(
    stepwise_statements=40, final_statements=60, small_pairs=4, large_spans=(4096,)
)

_DELTAS = (-16, -8, 0, 0, 8, 24, 64)
# Step kinds of a pair, per hundred steps.  Kinds and block spans are dealt
# from shuffled decks rather than drawn one by one, so that every seed gives
# traces of the same make-up (and cost), in another order.
_STEP_KINDS = ("alloc",) * 18 + ("store",) * 60 + ("free",) * 6 + ("margin",) * 8 + ("assert",) * 8


@dataclass
class _PairBuilder:
    """Emits two traces statement for statement, keeping the chosen
    relation true between them after every step."""

    rng: random.Random
    relation: str
    max_span: int = 64
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    blocks: list = field(default_factory=list)  # (var, low, high, delta, margin)
    live: list = field(default_factory=list)  # indices into blocks
    emb: dict = field(default_factory=dict)
    kinds: list = field(default_factory=list)  # the rest of the step-kind deck
    spans: list = field(default_factory=list)  # the rest of the span deck

    def deal(self, deck: list, cards: tuple):
        """The next card of ``deck``, reshuffled from ``cards`` when empty."""
        if not deck:
            deck.extend(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    def emit(self, left: str, right: str) -> None:
        self.left.append(left)
        self.right.append(right)

    def alloc(self) -> None:
        rng = self.rng
        low = rng.choice((0, 0, -8, 8, -24))
        high = low + self.deal(self.spans, (8, 16, 24, 32, self.max_span))
        k = len(self.blocks)
        var = f"$b{k}"
        delta, margin = 0, 0
        if self.relation == "lessdef":
            right = (low, high)
        elif self.relation == "extends":
            margin = 8 * rng.randint(1, 2)
            right = (low - margin, high + margin)
        else:
            delta = rng.choice(_DELTAS)
            margin = rng.choice((0, 0, 8))
            right = (low + delta - margin, high + delta + margin)
            self.emb[k + 1] = (k + 1, delta)
        self.blocks.append((var, low, high, delta, margin))
        self.live.append(k)
        self.emit(f"alloc {low} {high} -> {var}", f"alloc {right[0]} {right[1]} -> {var}")

    def _value(self, token: str) -> tuple[tuple, tuple]:
        """A left value and its counterpart on the right."""
        rng = self.rng
        r = rng.randrange(100)
        if CHUNKS[token][1] == "float":
            v = ("float", rng.choice(FLOAT_BITS)) if r < 85 else ("int", r)
        elif r < 60:
            v = ("int", rng.randint(-1000, 1000))
        elif r < 85 and self.blocks:
            var, _, _, delta, _ = rng.choice(self.blocks)
            ofs = rng.randint(-4, 32)
            return ("ptr", var, ofs), ("ptr", var, ofs + delta)
        else:
            v = ("int", rng.choice(WILD_INTS))
        return v, v

    def store(self) -> None:
        rng = self.rng
        var, low, high, delta, _ = self.blocks[rng.choice(self.live)]
        token, ofs = _access(rng, low, high)
        v1, v2 = self._value(token)
        if rng.randrange(5) == 0:
            v1 = UNDEF  # the left side is less defined
        self.emit(
            f"store {token} {var} {ofs} {value_text(v1)}",
            f"store {token} {var} {ofs + delta} {value_text(v2)}",
        )

    def free(self) -> None:
        k = self.live.pop(self.rng.randrange(len(self.live)))
        var = self.blocks[k][0]
        self.emit(f"free {var}", f"free {var}")

    def margin_store(self) -> None:
        """extends: the right side writes outside the left block's bounds."""
        var, low, _, _, margin = self.blocks[self.rng.choice(self.live)]
        ofs = low - margin
        self.emit(f"assert-valid {var}", f"store int32 {var} {ofs} (int {self.rng.randint(0, 99)})")

    def step(self) -> None:
        kind = self.deal(self.kinds, _STEP_KINDS)
        if not self.live or kind == "alloc":
            self.alloc()
        elif kind == "store":
            self.store()
        elif kind == "free" and len(self.live) > 4:
            self.free()
        elif kind == "margin" and self.relation == "extends":
            self.margin_store()
        else:
            var = self.blocks[self.rng.choice(self.live)][0]
            self.emit(f"assert-valid {var}", f"assert-valid {var}")

    def breaking_step(self, last_block: bool) -> None:
        """One statement pair after which the relation fails."""
        if last_block:
            k = max(self.live)
        else:
            k = self.rng.choice(self.live)
        var, low, high, delta, _ = self.blocks[k]
        if self.relation == "extends" and self.rng.randrange(2) == 0:
            self.emit(f"assert-valid {var}", f"free {var}")
            return
        ofs = self.rng.choice(_slots(low, high, "int32"))
        n = self.rng.randint(-1000, 1000)
        self.emit(
            f"store int32 {var} {ofs} (int {n})",
            f"store int32 {var} {ofs + delta} (int {n + 1})",
        )


def _pair(rng, name, relation, statements, *, stepwise, break_at=None, max_span=64, small=False):
    b = _PairBuilder(rng, relation, max_span=max_span)
    b.alloc()
    while len(b.left) < statements:
        if break_at is not None and len(b.left) == break_at:
            b.breaking_step(last_block=not stepwise)
        else:
            b.step()
    return RelateItem(
        name=name,
        relation=relation,
        left="\n".join(b.left) + "\n",
        right="\n".join(b.right) + "\n",
        emb=dict(b.emb) if relation == "inject" else None,
        stepwise=stepwise,
        holds=break_at is None,
        fail_step=break_at if stepwise else None,
        small=small,
        statements=len(b.left),
    )


def _plain_value(rng: random.Random, token: str) -> tuple:
    """An integer or a float, whichever the chunk's kind loads back."""
    if CHUNKS[token][1] == "int":
        return ("int", rng.randint(-50, 50))
    return ("float", rng.choice(FLOAT_BITS))


def _packed_inject(rng, name, sources: int) -> RelateItem:
    """Many small left blocks relocated into one right block, side by side
    at 8-aligned deltas; final state only."""
    left, right_stores, emb = [], [], {}
    cursor = 0
    for k in range(sources):
        low = rng.choice((0, -8, 8))
        high = low + rng.choice((8, 16, 24))
        delta = cursor - low + (-(cursor - low)) % 8
        emb[k + 1] = (1, delta)
        cursor = high + delta
        var = f"$s{k}"
        left.append(f"alloc {low} {high} -> {var}")
        token, ofs = _access(rng, low, high)
        v = _plain_value(rng, token)
        left.append(f"store {token} {var} {ofs} {value_text(v)}")
        right_stores.append(f"store {token} $t {ofs + delta} {value_text(v)}")
    right = [f"alloc 0 {cursor} -> $t"] + right_stores
    return RelateItem(
        name=name,
        relation="inject",
        left="\n".join(left) + "\n",
        right="\n".join(right) + "\n",
        emb=emb,
        stepwise=False,
        holds=True,
        statements=len(left),
    )


def _large_inject(rng, name, span: int, low: int) -> RelateItem:
    """One block of ``span`` bytes and its relocated copy."""
    delta = 8 * rng.randint(1, 64)
    left = [f"alloc {low} {low + span} -> $a"]
    right = [f"alloc {low + delta} {low + delta + span} -> $a"]
    for _ in range(16):
        token, ofs = _access(rng, low, low + span)
        v = _plain_value(rng, token)
        left.append(f"store {token} $a {ofs} {value_text(v)}")
        right.append(f"store {token} $a {ofs + delta} {value_text(v)}")
    return RelateItem(
        name=name,
        relation="inject",
        left="\n".join(left) + "\n",
        right="\n".join(right) + "\n",
        emb={1: (1, delta)},
        stepwise=False,
        holds=True,
        statements=len(left),
    )


def relate_input(seed: int, size: RelateSize = RELATE_FULL) -> list[RelateItem]:
    """Stepwise pairs over growing states, final-state pairs over many
    blocks, small pairs for the reference checkers, and one-block inject
    pairs of large span whose bounds no other item uses."""
    rng = random.Random(f"relate:{seed}")
    items = []
    n = size.stepwise_statements
    for rel in ("lessdef", "extends", "inject"):
        items.append(_pair(rng, f"stepwise-{rel}", rel, n, stepwise=True))
        items.append(
            _pair(rng, f"stepwise-{rel}-broken", rel, n, stepwise=True, break_at=(3 * n) // 4)
        )
    n = size.final_statements
    for rel in ("lessdef", "extends", "inject"):
        items.append(_pair(rng, f"final-{rel}", rel, n, stepwise=False))
        items.append(_pair(rng, f"final-{rel}-broken", rel, n, stepwise=False, break_at=n - 1))
    items.append(_packed_inject(rng, "final-inject-packed", n // 2))
    for rel in ("lessdef", "extends", "inject"):
        for k in range(size.small_pairs):
            statements = rng.randint(8, 20)
            broken = statements - 1 if k % 2 else None
            items.append(
                _pair(rng, f"small-{rel}-{k}", rel, statements, stepwise=False,
                      break_at=broken, max_span=24, small=True)
            )
    lows = rng.sample(range(1, 4096), len(size.large_spans))
    for span, low in zip(size.large_spans, lows):
        items.append(_large_inject(rng, f"large-inject-{span}", span, -8 * low))
    return items
