"""Line-oriented traces: parsing, pretty-printing, execution, relating.

A trace is a sequence of memory operations with inline assertions::

    # read-after-write
    alloc 0 8 -> $a
    store int32 $a 0 (int 42)
    load int32 $a 0 => (int 42)
    free $a

Blocks never appear as literal ids in operations, only as variables bound
by ``alloc``; this keeps traces stable under allocation-order refactoring.
Values are written ``undef``, ``(int N)``, ``(float HEXBITS)`` and
``(ptr B I)`` (where B may be a variable or a literal id).  ``load``
carries its expectation after ``=>``: a value, ``undef``, or ``fail``.
``expect-fail`` wraps an operation that must fail; a ``load`` it wraps
has no ``=>`` part.

An optional ``[emb]`` section at the end of a trace, or a separate file of
the same shape (where the ``[emb]`` header is optional), is a relocation
map for the injection checker: one ``B -> TB + DELTA`` line per mapped
block.  Nothing may follow ``DELTA`` or the ``[emb]`` header, and a block
mapped twice is an error.  ``mem_inject`` requires every ``DELTA`` to be a
multiple of 8, so an injection with another delta does not hold.  A map
passed to ``relate`` wins over the traces' sections; without one, two
sections must be equal, and ``relate`` rejects two different ones.

Parsing is total: any input either parses or raises a
``TraceParseError`` carrying line and column; the CLI reports it as a
usage error (exit 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import memstate, relations
from .chunks import Chunk, Value, Vfloat, Vint, Vptr, VUNDEF, value_text
from .memstate import DEFAULT_CONFIG, MemConfig, MemState


class TraceParseError(Exception):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class PtrLit:
    """A pointer literal; the block is a variable name or a literal id."""

    target: str | int
    offset: int


ValueExpr = Value | PtrLit


@dataclass(frozen=True)
class Alloc:
    line: int = field(compare=False)
    low: int = 0
    high: int = 0
    var: str = ""


@dataclass(frozen=True)
class Free:
    line: int = field(compare=False)
    var: str = ""


@dataclass(frozen=True)
class FreeList:
    line: int = field(compare=False)
    vars: tuple = ()


@dataclass(frozen=True)
class Store:
    line: int = field(compare=False)
    chunk: Chunk = Chunk.INT32
    var: str = ""
    offset: int = 0
    value: ValueExpr = VUNDEF


@dataclass(frozen=True)
class Load:
    line: int = field(compare=False)
    chunk: Chunk = Chunk.INT32
    var: str = ""
    offset: int = 0
    expect: tuple = ("fail",)  # ("fail",) | ("value", ValueExpr)


@dataclass(frozen=True)
class AssertValid:
    line: int = field(compare=False)
    var: str = ""


@dataclass(frozen=True)
class AssertBounds:
    line: int = field(compare=False)
    var: str = ""
    low: int = 0
    high: int = 0


@dataclass(frozen=True)
class ExpectFail:
    line: int = field(compare=False)
    inner: object = None


Statement = Alloc | Free | FreeList | Store | Load | AssertValid | AssertBounds | ExpectFail


@dataclass(frozen=True)
class Trace:
    statements: tuple = ()
    emb: tuple | None = None  # ((block, target, delta), ...)


# --- parsing -------------------------------------------------------------------

# A token is a parenthesis or a run of characters other than blanks,
# parentheses and '#'; a line's code ends at its first '#'.
_TOKEN = re.compile(r"[()]|[^ \t()#]+")


class _Error(Exception):
    """A parse error at token ``index`` of its line; an index past the last
    token stands for the end of the line."""

    def __init__(self, index: int, message: str) -> None:
        self.index = index
        self.message = message

    def at(self, lineno: int, code: str) -> TraceParseError:
        """This error placed on line ``lineno``, whose code is ``code``."""
        spans = [m.span() for m in _TOKEN.finditer(code)]
        if self.index < len(spans):
            column = spans[self.index][0] + 1
        else:
            column = spans[-1][1] + 1
        return TraceParseError(lineno, column, self.message)


def _lines(text: str):
    """``(line number, code, tokens)`` for every line that has a token."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        k = raw.find("#")
        code = raw if k < 0 else raw[:k]
        tokens = _TOKEN.findall(code)
        if tokens:
            yield lineno, code, tokens


def _peek(tokens: list, k: int) -> str:
    return tokens[k] if k < len(tokens) else ""


def _take(tokens: list, k: int, what: str) -> str:
    try:
        return tokens[k]
    except IndexError:
        raise _Error(k, f"expected {what}") from None


def _end(tokens: list, k: int, message: str = "unexpected trailing token") -> None:
    if k < len(tokens):
        raise _Error(k, message)


def _expect(tokens: list, k: int, literal: str) -> None:
    text = _take(tokens, k, repr(literal))
    if text != literal:
        raise _Error(k, f"expected {literal!r}, got {text!r}")


def _int(tokens: list, k: int, what: str) -> int:
    text = _take(tokens, k, what)
    try:
        return int(text, 0)
    except ValueError:
        raise _Error(k, f"expected {what}, got {text!r}") from None


def _var(tokens: list, k: int, bound: set, *, binding: bool = False) -> str:
    """The $variable at token ``k``: bound already, or else (``binding``)
    not bound yet, and bound from here on."""
    text = _take(tokens, k, "a $variable")
    if not text.startswith("$") or len(text) < 2:
        raise _Error(k, f"expected a $variable, got {text!r}")
    if binding:
        if text in bound:
            raise _Error(k, f"{text} is already bound")
        bound.add(text)
    elif text not in bound:
        raise _Error(k, f"{text} is not bound")
    return text


def _chunk(tokens: list, k: int) -> Chunk:
    text = _take(tokens, k, "a chunk name")
    c = Chunk.from_token(text)
    if c is None:
        raise _Error(k, f"unknown chunk {text!r}")
    return c


def _value(tokens: list, k: int, bound: set) -> tuple[ValueExpr, int]:
    """The value starting at token ``k``, and the index after it."""
    text = _peek(tokens, k)
    if text == "undef":
        return VUNDEF, k + 1
    if text != "(":
        raise _Error(k, f"expected a value, got {text!r}")
    kind = _take(tokens, k + 1, "value kind")
    if kind == "int":
        v: ValueExpr = Vint(_int(tokens, k + 2, "an integer"))
    elif kind == "float":
        bits_text = _take(tokens, k + 2, "float bits")
        try:
            bits = int(bits_text, 16)
        except ValueError:
            raise _Error(k + 2, f"expected hex bits, got {bits_text!r}") from None
        if not 0 <= bits < 1 << 64:
            raise _Error(k + 2, "float bits out of 64-bit range")
        v = Vfloat(bits)
    elif kind == "ptr":
        if _peek(tokens, k + 2).startswith("$"):
            target: str | int = _var(tokens, k + 2, bound)
        else:
            target = _int(tokens, k + 2, "a block id or $variable")
        v = PtrLit(target, _int(tokens, k + 3, "a pointer offset"))
        k += 1
    else:
        raise _Error(k + 1, f"unknown value kind {kind!r}")
    _expect(tokens, k + 3, ")")
    return v, k + 4


def _access(tokens: list, k: int, bound: set) -> tuple[Chunk, str, int]:
    """The chunk, $variable and offset of a store or load, from token ``k``."""
    return _chunk(tokens, k), _var(tokens, k + 1, bound), _int(tokens, k + 2, "an offset")


def _operation(line: int, tokens: list, k: int, bound: set) -> tuple[Statement, int]:
    """The operation named by token ``k``, and the index after it.  A
    ``load`` here carries no expectation: it is the operand of
    ``expect-fail``."""
    head = tokens[k]
    if head == "store":
        chunk, var, ofs = _access(tokens, k + 1, bound)
        value, end = _value(tokens, k + 4, bound)
        return Store(line, chunk, var, ofs, value), end
    if head == "alloc":
        low = _int(tokens, k + 1, "a low bound")
        high = _int(tokens, k + 2, "a high bound")
        _expect(tokens, k + 3, "->")
        return Alloc(line, low, high, _var(tokens, k + 4, bound, binding=True)), k + 5
    if head == "free":
        return Free(line, _var(tokens, k + 1, bound)), k + 2
    if head == "free-list":
        vs = tuple(_var(tokens, j, bound) for j in range(k + 1, len(tokens)))
        return FreeList(line, vs), len(tokens)
    if head == "load":
        return Load(line, *_access(tokens, k + 1, bound)), k + 4
    raise _Error(k, f"unknown operation {head!r}")


def _statement(line: int, tokens: list, bound: set) -> tuple[Statement, int]:
    """The statement of one line, and the index after it."""
    head = tokens[0]
    if head == "load":
        chunk, var, ofs = _access(tokens, 1, bound)
        _expect(tokens, 4, "=>")
        if _peek(tokens, 5) == "fail":
            return Load(line, chunk, var, ofs, ("fail",)), 6
        value, end = _value(tokens, 5, bound)
        return Load(line, chunk, var, ofs, ("value", value)), end
    if head == "assert-valid":
        return AssertValid(line, _var(tokens, 1, bound)), 2
    if head == "assert-bounds":
        var = _var(tokens, 1, bound)
        low = _int(tokens, 2, "a low bound")
        return AssertBounds(line, var, low, _int(tokens, 3, "a high bound")), 4
    if head == "expect-fail":
        _take(tokens, 1, "an operation")
        inner, end = _operation(line, tokens, 1, bound)
        return ExpectFail(line, inner), end
    return _operation(line, tokens, 0, bound)


def _entry(tokens: list, emb: dict) -> None:
    """Add the relocation entry ``B -> TB + DELTA`` of one line to ``emb``."""
    b = _int(tokens, 0, "a block id")
    if b in emb:
        raise _Error(0, f"block {b} is already mapped")
    _expect(tokens, 1, "->")
    tb = _int(tokens, 2, "a target block id")
    _expect(tokens, 3, "+")
    emb[b] = (tb, _int(tokens, 4, "a delta"))
    _end(tokens, 5)


def parse_trace(text: str) -> Trace:
    """Parse a trace; raises TraceParseError with position on bad input."""
    statements = []
    emb: dict | None = None
    bound: set[str] = set()
    for lineno, code, tokens in _lines(text):
        try:
            if tokens[0] == "[emb]":
                if emb is not None:
                    raise _Error(0, "duplicate [emb] section")
                _end(tokens, 1, "unexpected token after [emb]")
                emb = {}
            elif emb is not None:
                _entry(tokens, emb)
            else:
                stmt, end = _statement(lineno, tokens, bound)
                _end(tokens, end)
                statements.append(stmt)
        except _Error as e:
            raise e.at(lineno, code) from None
    if emb is None:
        return Trace(tuple(statements))
    return Trace(tuple(statements), tuple((b, tb, d) for b, (tb, d) in emb.items()))


def parse_embedding(text: str) -> dict:
    """Parse a relocation map: ``B -> TB + DELTA`` lines, with an optional
    ``[emb]`` header; raises TraceParseError with position on bad input."""
    emb: dict = {}
    for lineno, code, tokens in _lines(text):
        try:
            if tokens[0] == "[emb]":
                _end(tokens, 1, "unexpected token after [emb]")
            else:
                _entry(tokens, emb)
        except _Error as e:
            raise e.at(lineno, code) from None
    return emb


# --- pretty-printing -----------------------------------------------------------


def _value_expr_text(v: ValueExpr) -> str:
    if isinstance(v, PtrLit):
        return f"(ptr {v.target} {v.offset})"
    return value_text(v)


def _statement_text(stmt: Statement, operand: bool = False) -> str:
    """The line of ``stmt``; ``operand`` for the operation of an
    ``expect-fail``, where a load has no expectation."""
    if isinstance(stmt, Alloc):
        return f"alloc {stmt.low} {stmt.high} -> {stmt.var}"
    if isinstance(stmt, Free):
        return f"free {stmt.var}"
    if isinstance(stmt, FreeList):
        return "free-list" + "".join(" " + v for v in stmt.vars)
    if isinstance(stmt, Store):
        return (
            f"store {stmt.chunk.token} {stmt.var} {stmt.offset} "
            f"{_value_expr_text(stmt.value)}"
        )
    if isinstance(stmt, Load):
        text = f"load {stmt.chunk.token} {stmt.var} {stmt.offset}"
        if operand:
            return text
        expect = "fail" if stmt.expect[0] == "fail" else _value_expr_text(stmt.expect[1])
        return f"{text} => {expect}"
    if isinstance(stmt, AssertValid):
        return f"assert-valid {stmt.var}"
    if isinstance(stmt, AssertBounds):
        return f"assert-bounds {stmt.var} {stmt.low} {stmt.high}"
    if isinstance(stmt, ExpectFail):
        return f"expect-fail {_statement_text(stmt.inner, operand=True)}"
    raise TypeError(f"not a statement: {stmt!r}")


def format_trace(trace: Trace) -> str:
    lines = [_statement_text(s) for s in trace.statements]
    if trace.emb is not None:
        lines.append("[emb]")
        lines.extend(f"{b} -> {tb} + {delta}" for b, tb, delta in trace.emb)
    return "\n".join(lines) + "\n"


# --- execution -------------------------------------------------------------------


@dataclass
class StepOutcome:
    line: int
    ok: bool
    note: str


@dataclass
class TraceReport:
    ok: bool
    steps: list
    state: MemState
    env: dict
    failure: StepOutcome | None = None


class _Exec:
    def __init__(self, config: MemConfig) -> None:
        self.m = memstate.empty(config)
        self.env: dict[str, int] = {}

    def value(self, v: ValueExpr) -> Value | None:
        if isinstance(v, PtrLit):
            if isinstance(v.target, int):
                return Vptr(v.target, v.offset)
            b = self.env.get(v.target)
            if b is None:
                return None
            return Vptr(b, v.offset)
        return v

    def operate(self, stmt) -> tuple[bool, str]:
        """Apply an operation; True plus a note when it succeeded."""
        if isinstance(stmt, Alloc):
            r = memstate.alloc(self.m, stmt.low, stmt.high)
            if r is None:
                return False, "allocation rejected by the capacity policy"
            b, self.m = r
            self.env[stmt.var] = b
            return True, f"{stmt.var} = block {b}"
        if isinstance(stmt, Free):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            m2 = memstate.free(self.m, b)
            if m2 is None:
                return False, f"free of block {b} failed"
            self.m = m2
            return True, f"freed block {b}"
        if isinstance(stmt, FreeList):
            ids = []
            for var in stmt.vars:
                b = self.env.get(var)
                if b is None:
                    return False, f"{var} is unbound"
                ids.append(b)
            m2 = memstate.free_list(self.m, ids)
            if m2 is None:
                return False, f"free-list {ids} failed"
            self.m = m2
            return True, f"freed blocks {ids}"
        if isinstance(stmt, Store):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            v = self.value(stmt.value)
            if v is None:
                return False, "pointer value references an unbound variable"
            m2 = memstate.store(stmt.chunk, self.m, b, stmt.offset, v)
            if m2 is None:
                return False, f"store at ({b}, {stmt.offset}) is not a valid access"
            self.m = m2
            return True, f"stored at ({b}, {stmt.offset})"
        if isinstance(stmt, Load):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            got = memstate.load(stmt.chunk, self.m, b, stmt.offset)
            if got is None:
                return False, f"load at ({b}, {stmt.offset}) is not a valid access"
            return True, value_text(got)
        raise TypeError(f"not an operation: {stmt!r}")

    def step(self, stmt) -> tuple[bool, str]:
        """Run one statement; True when its assertion holds."""
        if isinstance(stmt, ExpectFail):
            ok, note = self.operate(stmt.inner)
            if ok:
                return False, f"operation succeeded but was expected to fail ({note})"
            return True, f"failed as expected: {note}"
        if isinstance(stmt, AssertValid):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            if not memstate.valid_block(self.m, b):
                return False, f"block {b} is not valid"
            return True, f"block {b} is valid"
        if isinstance(stmt, AssertBounds):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            got = memstate.bounds(self.m, b)
            if got != (stmt.low, stmt.high):
                return False, f"bounds of block {b} are {got}, not ({stmt.low}, {stmt.high})"
            return True, f"bounds of block {b} are {got}"
        if isinstance(stmt, Load):
            b = self.env.get(stmt.var)
            if b is None:
                return False, f"{stmt.var} is unbound"
            got = memstate.load(stmt.chunk, self.m, b, stmt.offset)
            if stmt.expect[0] == "fail":
                if got is not None:
                    return False, f"load succeeded with {value_text(got)}, expected failure"
                return True, "failed as expected"
            want = self.value(stmt.expect[1])
            if want is None:
                return False, "expected pointer references an unbound variable"
            if got is None:
                return False, f"load failed, expected {value_text(want)}"
            if got != want:
                return False, f"loaded {value_text(got)}, expected {value_text(want)}"
            return True, f"loaded {value_text(got)}"
        return self.operate(stmt)


def exec_trace(trace: Trace, config: MemConfig = DEFAULT_CONFIG) -> TraceReport:
    """Run the statements in order against an evolving state, stopping at
    the first failed assertion or unexpected operation failure."""
    ex = _Exec(config)
    steps: list[StepOutcome] = []
    for stmt in trace.statements:
        ok, note = ex.step(stmt)
        outcome = StepOutcome(stmt.line, ok, note)
        steps.append(outcome)
        if not ok:
            return TraceReport(False, steps, ex.m, ex.env, outcome)
    return TraceReport(True, steps, ex.m, ex.env)


# --- relating two traces -----------------------------------------------------------


RELATIONS = ("lessdef", "extends", "inject")


@dataclass
class RelateReport:
    ok: bool
    message: str
    steps: list = field(default_factory=list)  # (index, holds) in stepwise mode


def _check_relation(relation: str, m1: MemState, m2: MemState, emb) -> bool:
    if relation == "lessdef":
        return relations.mem_lessdef(m1, m2)
    if relation == "extends":
        return relations.mem_extends(m1, m2)
    return relations.mem_inject(emb, m1, m2)


def _changed(stmt, ex: _Exec, before: MemState) -> tuple:
    """The block ids that ``stmt``, just run by ``ex`` from the state
    ``before``, changed.  A statement that changed the state ran an alloc,
    a store or a free; anything else leaves the state as it was."""
    if ex.m is before:
        return ()
    if isinstance(stmt, FreeList):
        return tuple(ex.env[var] for var in stmt.vars)
    return (ex.env[stmt.var],)


def relate(
    trace1: Trace,
    trace2: Trace,
    relation: str,
    emb: dict | None = None,
    stepwise: bool = False,
    config: MemConfig = DEFAULT_CONFIG,
) -> RelateReport:
    """Execute both traces and check the chosen relation between their
    final states; with ``stepwise``, check it after every statement pair
    of two equal-length traces.

    Stepwise verdicts are the whole-state checker's after every statement
    pair.  Only the first pair is checked whole; since ``relate`` stops at
    the first failure, every later pair starts from related states, and
    ``relations.holds_after_step`` re-checks just the blocks the two
    statements changed (see ``_changed``), plus, for an injection, the left
    blocks mapped onto a changed right block.  A step's work is
    proportional to those blocks, not to the size of the states.

    Without ``emb``, an injection uses the traces' ``[emb]`` sections;
    ``ValueError`` when neither has one or their two maps differ."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if relation == "inject" and emb is None:
        maps = [{b: (tb, d) for b, tb, d in t.emb} for t in (trace1, trace2) if t.emb is not None]
        if not maps:
            raise ValueError("inject needs a relocation map (--emb or an [emb] section)")
        if len(maps) == 2 and maps[0] != maps[1]:
            raise ValueError("the two traces carry different [emb] sections; pass one with --emb")
        emb = maps[0]
    if not stepwise:
        r1 = exec_trace(trace1, config)
        if not r1.ok:
            return RelateReport(False, f"left trace failed at line {r1.failure.line}: {r1.failure.note}")
        r2 = exec_trace(trace2, config)
        if not r2.ok:
            return RelateReport(False, f"right trace failed at line {r2.failure.line}: {r2.failure.note}")
        holds = _check_relation(relation, r1.state, r2.state, emb)
        return RelateReport(holds, f"{relation} {'holds' if holds else 'fails'} on the final states")
    if len(trace1.statements) != len(trace2.statements):
        return RelateReport(
            False,
            "stepwise mode needs traces of equal length "
            f"({len(trace1.statements)} vs {len(trace2.statements)})",
        )
    sources = relations.sources_by_target(emb) if relation == "inject" else None
    ex1 = _Exec(config)
    ex2 = _Exec(config)
    steps = []
    for k, (s1, s2) in enumerate(zip(trace1.statements, trace2.statements)):
        m1, m2 = ex1.m, ex2.m
        ok1, note1 = ex1.step(s1)
        if not ok1:
            return RelateReport(False, f"left trace failed at line {s1.line}: {note1}", steps)
        ok2, note2 = ex2.step(s2)
        if not ok2:
            return RelateReport(False, f"right trace failed at line {s2.line}: {note2}", steps)
        if k == 0:
            holds = _check_relation(relation, ex1.m, ex2.m, emb)
        else:
            holds = relations.holds_after_step(
                relation, ex1.m, ex2.m, _changed(s1, ex1, m1), _changed(s2, ex2, m2),
                emb, sources,
            )
        steps.append((k, holds))
        if not holds:
            return RelateReport(False, f"{relation} fails after statement {k + 1}", steps)
    return RelateReport(True, f"{relation} holds after every statement", steps)
