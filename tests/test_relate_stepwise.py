"""Stepwise `relate`: each step re-checks only the blocks its statements
changed, and its report equals the whole-state check after every statement.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blockmem import relations
from blockmem.memstate import MemConfig
from blockmem.trace import RelateReport, Trace, exec_trace, parse_trace, relate

RELATIONS = ("lessdef", "extends", "inject")

WHOLE_STATE = {
    "lessdef": lambda emb, m1, m2: relations.mem_lessdef(m1, m2),
    "extends": lambda emb, m1, m2: relations.mem_extends(m1, m2),
    "inject": relations.mem_inject,
}


def whole_state_report(t1, t2, relation, emb, config):
    """What stepwise `relate` must answer: every prefix of both traces
    executed from scratch, and the whole-state checker on the two states."""
    steps = []
    for k in range(len(t1.statements)):
        states = []
        for side, t in (("left", t1), ("right", t2)):
            r = exec_trace(Trace(t.statements[: k + 1]), config)
            if not r.ok:
                note = f"{side} trace failed at line {r.failure.line}: {r.failure.note}"
                return RelateReport(False, note, steps)
            states.append(r.state)
        holds = WHOLE_STATE[relation](emb, *states)
        steps.append((k, holds))
        if not holds:
            return RelateReport(False, f"{relation} fails after statement {k + 1}", steps)
    return RelateReport(True, f"{relation} holds after every statement", steps)


# --- pinned rows: one per rule of the incremental check ------------------------

# (relation, left, right, emb, the failing statement).  Each pair stays
# related until that statement, where only the rule named fails.
PINNED = {
    "lessdef: a right-only free": (
        "lessdef",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nstore int32 $a 0 (int 1)\nassert-valid $b",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nstore int32 $a 0 (int 1)\nfree $b",
        None,
        4,
    ),
    "extends: a right free of a block still live on the left": (
        "extends",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nassert-valid $a\nassert-valid $a",
        "alloc -8 16 -> $a\nalloc 0 8 -> $b\nstore int32 $a -8 (int 5)\nfree $a",
        None,
        4,
    ),
    "extends: a right free-list whose second block is still live on the left": (
        "extends",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nfree $a\nassert-valid $b",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nassert-valid $a\nfree-list $a $b",
        None,
        4,
    ),
    "inject: a right free of a target an untouched left block maps onto": (
        "inject",
        "alloc 0 8 -> $a\nalloc 0 8 -> $b\nstore int32 $b 0 (int 2)\nassert-valid $a",
        "alloc 0 32 -> $t\nalloc 0 8 -> $u\nstore int32 $u 0 (int 2)\nfree $t",
        {1: (1, 8), 2: (2, 0)},
        4,
    ),
    "inject: a left alloc whose image overlaps an earlier source's": (
        "inject",
        "alloc 0 8 -> $a\nstore int32 $a 0 (int 3)\nalloc 0 8 -> $b",
        "alloc 0 16 -> $t\nstore int32 $t 8 (int 3)\nassert-valid $t",
        {1: (1, 8), 2: (1, 8)},
        3,
    ),
    "inject: a delta that is not a multiple of 8": (
        "inject",
        "alloc 0 8 -> $a\nassert-valid $a",
        "alloc 0 16 -> $t\nassert-valid $t",
        {1: (1, 4)},
        1,
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_step_failures(name):
    relation, left, right, emb, fails_at = PINNED[name]
    t1, t2 = parse_trace(left), parse_trace(right)
    r = relate(t1, t2, relation, emb=emb, stepwise=True)
    want = [(k, True) for k in range(fails_at - 1)] + [(fails_at - 1, False)]
    assert r.steps == want
    assert r.message == f"{relation} fails after statement {fails_at}"
    assert r == whole_state_report(t1, t2, relation, emb, MemConfig())


def test_overlapping_alloc_is_the_only_fault():
    # With the second source moved clear of the first one's image, [8, 16),
    # to [0, 8) of the same target, the pinned overlap row holds throughout.
    _, left, right, _, _ = PINNED["inject: a left alloc whose image overlaps an earlier source's"]
    emb = {1: (1, 8), 2: (1, 0)}
    r = relate(parse_trace(left), parse_trace(right), "inject", emb=emb, stepwise=True)
    assert r.ok and len(r.steps) == 3


def _count_block_checks(monkeypatch) -> list:
    """The arguments of every per-block load-transport check from now on."""
    checked = []
    transport = relations._transport

    def counted(*args):
        checked.append(args)
        return transport(*args)

    monkeypatch.setattr(relations, "_transport", counted)
    return checked


def test_incremental_check_skips_unchanged_blocks(monkeypatch):
    # A step's work follows the blocks it changed: loads are compared only
    # on the stored block, never on the blocks stored before it.
    n = 40
    left = [f"alloc 0 8 -> $b{k}\nstore int32 $b{k} 0 (int {k})" for k in range(n)]
    t = parse_trace("\n".join(left))
    checked = _count_block_checks(monkeypatch)
    for relation in ("lessdef", "extends"):
        checked.clear()
        r = relate(t, t, relation, stepwise=True)
        assert r.ok and len(r.steps) == 2 * n
        # One block per step after the first, whose whole-state check sees one.
        assert len(checked) == 2 * n, relation


def test_incremental_inject_check_follows_the_map(monkeypatch):
    # Six left blocks, three mapped side by side onto each of two right
    # blocks.  A right-side store re-checks the sources mapped onto its
    # block, and no other block.
    left = [f"alloc 0 8 -> $s{k}" for k in range(6)] + ["assert-valid $s0"]
    right = ["alloc 0 24 -> $t", "alloc 0 24 -> $u"] + ["assert-valid $t"] * 4
    right.append("store int32 $u 8 (int 1)")
    emb = {k + 1: (1 + k // 3, 8 * (k % 3)) for k in range(6)}
    t1, t2 = parse_trace("\n".join(left)), parse_trace("\n".join(right))
    checked = _count_block_checks(monkeypatch)
    r = relate(t1, t2, "inject", emb=emb, stepwise=True)
    assert r.ok and len(r.steps) == 7
    # One block for each alloc; then the three sources of $u.
    assert [args[1] for args in checked[:6]] == [1, 2, 3, 4, 5, 6]
    assert sorted(args[1] for args in checked[6:]) == [4, 5, 6]


# --- the differential property -------------------------------------------------

# token -> (size, alignment)
CHUNKS = {"int8u": (1, 1), "int16s": (2, 2), "int32": (4, 4), "float32": (4, 4), "float64": (8, 8)}


class _Builder:
    """Two traces built statement for statement from Hypothesis draws, most
    steps keeping the relation, some breaking it on one side only."""

    def __init__(self, draw, relation: str, aligned: bool) -> None:
        self.draw = draw
        self.relation = relation
        self.aligned = aligned
        self.left: list[str] = []
        self.right: list[str] = []
        # name -> [left id or None, right id or None, left bounds, right
        # bounds, live left, live right, shift]
        self.vars: dict[str, list] = {}
        self.ids = [0, 0]
        self.emb: dict = {}

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def rarely(self) -> bool:
        """True about one time in ten."""
        return self.draw(st.integers(0, 9)) == 9

    def live(self, side: int) -> list[str]:
        return [v for v, b in self.vars.items() if b[side] is not None and b[4 + side]]

    def both_live(self) -> list[str]:
        return [v for v in self.live(0) if v in self.live(1)]

    def noop(self, side: int) -> str:
        """A statement that leaves the state as it was; rarely, one that
        fails, asserting that a freed block is valid."""
        var = self.pick([v for v, b in self.vars.items() if b[side] is not None])
        if self.rarely() or var in self.live(side) and self.pick([0, 1, 2]) == 0:
            return f"assert-valid {var}"
        return self.pick(
            [f"expect-fail load int32 {var} 4096", f"expect-fail store int8u {var} 4096 (int 1)"]
        )

    def alloc(self, sides) -> tuple:
        var = f"$v{len(self.vars)}"
        low = self.pick([0, 0, -8, 4, 8])
        high = low + self.pick([0, 4, 8, 8, 16, 24])
        # A delta that is not a multiple of 8 fails an injection at its
        # first statement, whichever block it maps.
        if self.relation == "inject":
            shift = 4 if self.rarely() else self.pick([0, 8, -8, 16])
        else:
            shift = self.pick([8, -8, 16, 4]) if self.rarely() else 0
        if self.relation == "lessdef":
            margin = 8 if self.rarely() else 0
        else:
            margin = self.pick([0, 0, 8])
        rlow, rhigh = low + shift - margin, high + shift + margin
        block = [None, None, (low, high), (rlow, rhigh), True, True, shift]
        lines = []
        for side in (0, 1):
            if side in sides:
                self.ids[side] += 1
                block[side] = self.ids[side]
                lo, hi = block[2 + side]
                lines.append(f"alloc {lo} {hi} -> {var}")
            else:
                lines.append(self.noop(side))
        self.vars[var] = block
        if block[0] is not None and self.pick(["own", "other", "none"]) != "none":
            targets = [b for b in self.vars.values() if b[1] is not None and b is not block]
            if block[1] is not None and self.pick([0, 0, 1]) == 0:
                self.emb[block[0]] = (block[1], shift)
            elif targets:
                # Many to one: at or near the start of another block's
                # right bounds or of its own image there, at a delta that
                # is a multiple of 8.
                target = self.pick(targets)
                start = self.pick([target[3][0], target[2][0] + target[6]])
                delta = start - low + (low - start) % 8 + self.pick([0, 8])
                self.emb[block[0]] = (target[1], delta)
        return tuple(lines)

    def offset(self, low: int, high: int, chunk: str):
        size, align = CHUNKS[chunk]
        step = align if self.aligned else 1
        first = low + (-low) % step
        if first + size > high:
            return None
        return first + step * self.draw(st.integers(0, (high - size - first) // step))

    def value(self):
        """A left value and its counterpart on the right."""
        kind = "other" if self.rarely() else self.pick(["int", "int", "undef", "ptr"])
        if kind == "undef":
            return "undef", self.pick(["undef", "(int 7)"])
        if kind == "ptr":
            var = self.pick([v for v, b in self.vars.items() if None not in b[:2]])
            ofs = self.draw(st.integers(-4, 12))
            return f"(ptr {var} {ofs})", f"(ptr {var} {ofs + self.vars[var][6]})"
        n = self.draw(st.integers(-3, 3))
        return f"(int {n})", f"(int {n + 1})" if kind == "other" else f"(int {n})"

    def store(self, sides) -> tuple | None:
        candidates = self.both_live() if len(sides) == 2 else self.live(sides[0])
        if not candidates:
            return None
        var = self.pick(candidates)
        block = self.vars[var]
        chunk = self.pick(list(CHUNKS))
        side = sides[0]
        ofs = self.offset(*block[2 + side], chunk)
        if ofs is None:
            return None
        ofs -= block[6] * side  # the left offset; the right one is shifted
        v1, v2 = self.value()
        lines = []
        for s in (0, 1):
            if s in sides:
                where = ofs + block[6] * s
                lines.append(f"store {chunk} {var} {where} {v2 if s else v1}")
            else:
                lines.append(self.noop(s))
        return tuple(lines)

    def free(self, sides, many: bool = False) -> tuple | None:
        candidates = self.both_live() if len(sides) == 2 else self.live(sides[0])
        if not candidates:
            return None
        names = [self.pick(candidates)]
        if many and len(candidates) > 1:
            pairs = st.lists(st.sampled_from(candidates), min_size=1, max_size=2, unique=True)
            names = self.draw(pairs)
        lines = []
        for s in (0, 1):
            if s in sides:
                for var in names:
                    self.vars[var][4 + s] = False
                op = "free-list" if many else "free"
                lines.append(" ".join([op, *names]))
            else:
                lines.append(self.noop(s))
        return tuple(lines)

    def step(self) -> None:
        # One side only: one step in three for an injection, whose sides need
        # not stay in step, one in five for the others, which it mostly
        # breaks.
        odds = 2 if self.relation == "inject" else 4
        if self.draw(st.integers(0, odds)) == odds:
            kind = self.pick(["alloc", "store", "free", "free", "free-list"])
            sides = self.pick([(0,), (1,)])
        else:
            kinds = ["alloc"] * 3 + ["store"] * 6 + ["noop"] * 2 + ["free"] * 2 + ["free-list"]
            kind = self.pick(kinds)
            sides = (0, 1)
        if kind == "alloc":
            lines = self.alloc(sides)
        elif kind == "store":
            lines = self.store(sides)
        elif kind.startswith("free"):
            lines = self.free(sides, many=kind == "free-list")
        else:
            lines = None
        if lines is None:
            lines = (self.noop(0), self.noop(1))
        self.left.append(lines[0])
        self.right.append(lines[1])


@st.composite
def related_pairs(draw):
    relation = draw(st.sampled_from(RELATIONS))
    aligned = draw(st.booleans())
    b = _Builder(draw, relation, aligned)
    first = b.alloc((0, 1))
    b.left.append(first[0])
    b.right.append(first[1])
    for _ in range(draw(st.integers(0, 14))):
        b.step()
    left = parse_trace("\n".join(b.left))
    right = parse_trace("\n".join(b.right))
    emb = b.emb if relation == "inject" else None
    return relation, left, right, emb, MemConfig(check_alignment=aligned)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(related_pairs())
def test_stepwise_report_equals_whole_state_check(case):
    relation, t1, t2, emb, config = case
    got = relate(t1, t2, relation, emb=emb, stepwise=True, config=config)
    assert got == whole_state_report(t1, t2, relation, emb, config)
