"""Line-oriented traces: parsing, pretty-printing, execution, relating.

A trace is a scenario plus one expectation per statement::

    # read-after-write
    alloc 0 8 -> $a
    store int32 $a 0 (int 42)
    load int32 $a 0 => (int 42)
    free $a

A statement holds an op of the law suite's scenario vocabulary (see
``run_op``, the one interpreter of ops) and what it expects of the op.
Ops name blocks by ref: ref k is the block of the k-th ``alloc`` op, and
if that alloc failed, k is unbound and any op on it fails.  A
``$variable`` stands for the ref of the alloc that binds it, so blocks
never appear as literal ids in operations; this keeps traces stable under
allocation-order refactoring.  Values are written ``undef``, ``(int N)``,
``(float HEXBITS)`` and ``(ptr B I)`` (where B may be a variable, resolved
when the statement runs, or a literal id).  ``load`` carries its
expectation after ``=>``: a value, ``undef``, or ``fail``.
``expect-fail`` wraps an operation that must fail; a ``load`` it wraps
has no ``=>`` part.

An optional ``[emb]`` section at the end of a trace, or a separate file
read as one (where the ``[emb]`` header is optional, but may not follow
an entry), is a relocation map for the injection checker: one ``B -> TB +
DELTA`` line per mapped block.  Nothing may follow ``DELTA`` or the
``[emb]`` header, and a block mapped twice is an error.  ``mem_inject``
requires every ``DELTA`` to be a multiple of 8, so an injection with
another delta does not hold.  A map passed to ``relate`` wins over the
traces' sections; without one, two sections must be equal, and
``relate`` rejects two different ones.  Refinement and extension relate
each block to itself, so ``relate`` rejects a map, passed or in a
section, for them.

Parsing is total: any input either parses or raises a
``TraceParseError`` carrying line and column; the CLI reports it as a
usage error (exit 2).
"""

from __future__ import annotations

import functools
import gc
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import memstate, relations
from .chunks import BY_TOKEN, Chunk, Value, Vfloat, Vint, Vptr, VUNDEF, value_text
from .memstate import DEFAULT_CONFIG, MemConfig, MemState


def _collector_paused(fn):
    """``fn`` with the cyclic garbage collector paused while it runs.

    Trace work builds no reference cycles (``tests/test_trace.py`` checks
    this): its garbage is freed by reference counting, so a collection
    during it would walk every live object, statements and states, and
    free nothing.  The caller's setting is restored on every exit.

    The objects the call leaves alive would still be young when it
    returns, and the first allocation after it would run a generation-0
    collection that walks them all and frees nothing (15-28 ms after
    parsing and running ``heap``'s 42,004 statements, on 2 vCPUs).  So on the way out the survivors are
    promoted to the oldest generation: ``gc.freeze()`` moves every tracked
    object to the permanent generation and resets the young count, and
    ``gc.unfreeze()`` moves them all back into the oldest generation: a
    few list splices, O(1).  A later full collection still reaches them, so
    a cycle that a caller builds through them is freed; ``gc.freeze()``
    alone would put them out of the collector's reach for good.  The
    promotion runs only when the collector was on and nothing was frozen,
    so that it never thaws what a caller froze."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()

    return paused


class TraceParseError(Exception):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(slots=True, unsafe_hash=True)
class PtrLit:
    """A pointer literal; the block is a variable name or a literal id.
    Instances are never mutated: statements hash them."""

    target: str | int
    offset: int


ValueExpr = Value | PtrLit


SUCCEEDS = "succeeds"  # a plain alloc, free, free-list or store line
EXPECT_FAIL = "expect-fail"  # expect-fail OP: the op fails, or names an unbound variable
LOAD_FAILS = "fail"  # load ... => fail: the load of a bound variable fails


class Statement:
    """One statement: an op, what it expects of the op, the names of the
    op's refs (for an alloc, the variable it binds), and its line.

    The expectation is one of the constants above (compared by identity), the
    value of a ``load ... => V``, True (``assert-valid``), the pair of an
    ``assert-bounds``, or None: no expectation, printed as a comment and
    never run by ``exec_trace``.  Equality ignores the line."""

    __slots__ = ("op", "expect", "names", "line")

    def __init__(self, op: tuple, expect, names: tuple, line: int = 0) -> None:
        self.op = op
        self.expect = expect
        self.names = names
        self.line = line

    def __eq__(self, other) -> bool:
        return isinstance(other, Statement) and (
            (self.op, self.expect, self.names) == (other.op, other.expect, other.names)
        )

    def __hash__(self) -> int:
        return hash((self.op, self.expect, self.names))

    def __repr__(self) -> str:
        return f"Statement({self.op!r}, {self.expect!r}, {self.names!r}, line={self.line})"


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
    if k >= len(tokens):
        raise _Error(k, f"expected {literal!r}")
    if tokens[k] != literal:
        raise _Error(k, f"expected {literal!r}, got {tokens[k]!r}")


def _int(tokens: list, k: int, what: str) -> int:
    text = _take(tokens, k, what)
    try:
        return int(text, 0)
    except ValueError:
        raise _Error(k, f"expected {what}, got {text!r}") from None


def _shared(literals: dict, cls, *fields):
    """The one ``cls(*fields)`` of this parse, a value or a pair of bounds:
    literals are never mutated, so equal ones can be one object."""
    key = (cls, *fields)
    v = literals.get(key)
    if v is None:
        v = literals[key] = cls(*fields)
    return v


def _var(tokens: list, k: int, bound: dict) -> tuple[int, tuple]:
    """The entry of the bound $variable at token ``k``: its ref and a tuple
    of its name that all its statements share."""
    try:
        return bound[tokens[k]]
    except (IndexError, KeyError):
        pass
    text = _take(tokens, k, "a $variable")
    if not text.startswith("$") or len(text) < 2:
        raise _Error(k, f"expected a $variable, got {text!r}")
    raise _Error(k, f"{text} is not bound")


def _bind(tokens: list, k: int, bound: dict) -> tuple:
    """Bind the $variable at token ``k``, not bound yet, to the next ref;
    the tuple of its name."""
    text = _take(tokens, k, "a $variable")
    if not text.startswith("$") or len(text) < 2:
        raise _Error(k, f"expected a $variable, got {text!r}")
    if text in bound:
        raise _Error(k, f"{text} is already bound")
    names = (text,)
    bound[text] = (len(bound), names)
    return names


def _chunk(tokens: list, k: int) -> Chunk:
    try:
        return BY_TOKEN[tokens[k]]
    except KeyError:
        raise _Error(k, f"unknown chunk {tokens[k]!r}") from None
    except IndexError:
        raise _Error(k, "expected a chunk name") from None


def _value(tokens: list, k: int, bound: dict, literals: dict) -> tuple[ValueExpr, int]:
    """The value starting at token ``k``, and the index after it."""
    text = _peek(tokens, k)
    if text == "undef":
        return VUNDEF, k + 1
    if text != "(":
        raise _Error(k, f"expected a value, got {text!r}")
    kind = _take(tokens, k + 1, "value kind")
    if kind == "int":
        cls, fields = Vint, (_int(tokens, k + 2, "an integer"),)
    elif kind == "float":
        bits_text = _take(tokens, k + 2, "float bits")
        try:
            bits = int(bits_text, 16)
        except ValueError:
            raise _Error(k + 2, f"expected hex bits, got {bits_text!r}") from None
        if not 0 <= bits < 1 << 64:
            raise _Error(k + 2, "float bits out of 64-bit range")
        cls, fields = Vfloat, (bits,)
    elif kind == "ptr":
        if _peek(tokens, k + 2).startswith("$"):
            target: str | int = _var(tokens, k + 2, bound)[1][0]
        else:
            target = _int(tokens, k + 2, "a block id or $variable")
        cls, fields = PtrLit, (target, _int(tokens, k + 3, "a pointer offset"))
        k += 1
    else:
        raise _Error(k + 1, f"unknown value kind {kind!r}")
    _expect(tokens, k + 3, ")")
    return _shared(literals, cls, *fields), k + 4


def _access(tokens: list, k: int, bound: dict) -> tuple[Chunk, int, tuple, int]:
    """The chunk, the ref and name of the $variable, and the offset of a
    store or load, from token ``k``."""
    chunk = _chunk(tokens, k)
    ref, names = _var(tokens, k + 1, bound)
    return chunk, ref, names, _int(tokens, k + 2, "an offset")


def _operation(tokens: list, k: int, bound: dict, literals: dict) -> tuple[tuple, tuple, int]:
    """The op named by token ``k``, the names of its variables, and the
    index after it.  A ``load`` here carries no expectation: it is the
    operand of ``expect-fail``."""
    head = tokens[k]
    if head == "store":
        chunk, ref, names, ofs = _access(tokens, k + 1, bound)
        value, end = _value(tokens, k + 4, bound, literals)
        return ("store", chunk, ref, ofs, value), names, end
    if head == "alloc":
        low = _int(tokens, k + 1, "a low bound")
        high = _int(tokens, k + 2, "a high bound")
        _expect(tokens, k + 3, "->")
        return ("alloc", low, high), _bind(tokens, k + 4, bound), k + 5
    if head == "free":
        ref, names = _var(tokens, k + 1, bound)
        return ("free", ref), names, k + 2
    if head == "free-list":
        entries = [_var(tokens, j, bound) for j in range(k + 1, len(tokens))]
        op = ("free_list", tuple(ref for ref, _ in entries))
        return op, tuple(names[0] for _, names in entries), len(tokens)
    if head == "load":
        chunk, ref, names, ofs = _access(tokens, k + 1, bound)
        return ("load", chunk, ref, ofs), names, k + 4
    raise _Error(k, f"unknown operation {head!r}")


def _statement(line: int, tokens: list, bound: dict, literals: dict) -> tuple[Statement, int]:
    """The statement of one line, and the index after it."""
    head = tokens[0]
    if head == "load":
        op, names, _ = _operation(tokens, 0, bound, literals)
        _expect(tokens, 4, "=>")
        if _peek(tokens, 5) == "fail":
            return Statement(op, LOAD_FAILS, names, line), 6
        value, end = _value(tokens, 5, bound, literals)
        return Statement(op, value, names, line), end
    if head == "assert-valid":
        ref, names = _var(tokens, 1, bound)
        return Statement(("valid", ref), True, names, line), 2
    if head == "assert-bounds":
        ref, names = _var(tokens, 1, bound)
        low = _int(tokens, 2, "a low bound")
        high = _int(tokens, 3, "a high bound")
        return Statement(("bounds", ref), _shared(literals, tuple, (low, high)), names, line), 4
    if head == "expect-fail":
        _take(tokens, 1, "an operation")
        op, names, end = _operation(tokens, 1, bound, literals)
        return Statement(op, EXPECT_FAIL, names, line), end
    op, names, end = _operation(tokens, 0, bound, literals)
    return Statement(op, SUCCEEDS, names, line), end


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


# --- the token readers ---------------------------------------------------------
#
# Most lines of a trace are well-formed statements.  When a line's code has
# no blanks but spaces and tabs, ``str.split`` cuts it into words, and the
# reader of its head reads the statement from them with the descent's table
# of bound variables, its literal interning and its conversions.  A word is a
# run of the descent's tokens with no blank between them, so a parenthesis
# stays glued to its neighbours: a reader takes a value as ``undef`` or as
# the words ``(int N)``, ``(float B)`` or ``(ptr B I)``, and every other
# word it compares, looks up or converts, none of which accepts a
# parenthesis; the one word it takes as written, an alloc's binder, it
# checks for one.  ``expect-fail OP`` is read by OP's reader from OP's head
# on.  Where the descent would read the line otherwise or report an error, a
# reader raises IndexError, KeyError or ValueError before it binds anything,
# and the line goes to the descent, which names the error.  So a reader
# accepts only a line that the descent parses to the same statement;
# tests/test_trace_fuzz.py compares the two.


def _float_bits(text: str) -> int:
    """The float bits ``text`` spells, read as the descent reads them."""
    bits = int(text, 16)
    if not 0 <= bits < 1 << 64:
        raise ValueError(f"float bits out of range: {text!r}")
    return bits


def _word_value(words: list, k: int, bound: dict, literals: dict) -> tuple[ValueExpr, int]:
    """The value written from word ``k`` on, and the index after it."""
    kind = words[k]
    if kind == "undef":
        return VUNDEF, k + 1
    end = k + 3 if kind == "(ptr" else k + 2
    last = words[end - 1]
    if last[-1] != ")":
        raise ValueError(f"expected a closing parenthesis, got {last!r}")
    last = last[:-1]
    if kind == "(int":
        return _shared(literals, Vint, int(last, 0)), end
    if kind == "(float":
        return _shared(literals, Vfloat, _float_bits(last)), end
    if kind != "(ptr":
        raise ValueError(f"expected a value, got {kind!r}")
    target = words[k + 1]
    target = bound[target][1][0] if target.startswith("$") else int(target, 0)
    return _shared(literals, PtrLit, target, int(last, 0)), end


# Each reader takes the words of a line from its head on, the line number,
# the descent's bound variables and literals, and the expectation of an
# operation: SUCCEEDS, or EXPECT_FAIL under ``expect-fail``.


def _read_alloc(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    _, low, high, arrow, name = words
    op = ("alloc", int(low, 0), int(high, 0))
    # The descent would split a parenthesis off the name.
    if arrow != "->" or name[:1] != "$" or len(name) < 2 or "(" in name or ")" in name:
        raise ValueError(f"not an alloc binding a $variable: {words!r}")
    if name in bound:
        raise KeyError(name)
    names = (name,)
    bound[name] = (len(bound), names)
    return Statement(op, expect, names, line)


def _read_free(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    _, var = words
    ref, names = bound[var]
    return Statement(("free", ref), expect, names, line)


def _read_free_list(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    entries = [bound[var] for var in words[1:]]
    op = ("free_list", tuple(ref for ref, _ in entries))
    return Statement(op, expect, tuple(names[0] for _, names in entries), line)


def _read_store(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    ref, names = bound[words[2]]
    value, end = _word_value(words, 4, bound, literals)
    if end != len(words):
        raise ValueError("trailing words")
    op = ("store", BY_TOKEN[words[1]], ref, int(words[3], 0), value)
    return Statement(op, expect, names, line)


def _read_load(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    """A load; a plain one expects what follows its ``=>``."""
    if expect is not SUCCEEDS:
        end = 4
    elif words[4] != "=>":
        raise ValueError(f"expected '=>', got {words[4]!r}")
    elif words[5] == "fail":
        expect, end = LOAD_FAILS, 6
    else:
        expect, end = _word_value(words, 5, bound, literals)
    if end != len(words):
        raise ValueError("trailing words")
    ref, names = bound[words[2]]
    return Statement(("load", BY_TOKEN[words[1]], ref, int(words[3], 0)), expect, names, line)


def _read_valid(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    if expect is EXPECT_FAIL:
        raise KeyError("expect-fail wraps an operation, not an assertion")
    _, var = words
    ref, names = bound[var]
    return Statement(("valid", ref), True, names, line)


def _read_bounds(words: list, line: int, bound: dict, literals: dict, expect) -> Statement:
    if expect is EXPECT_FAIL:
        raise KeyError("expect-fail wraps an operation, not an assertion")
    _, var, low, high = words
    ref, names = bound[var]
    pair = _shared(literals, tuple, (int(low, 0), int(high, 0)))
    return Statement(("bounds", ref), pair, names, line)


_READERS = {
    "alloc": _read_alloc,
    "free": _read_free,
    "free-list": _read_free_list,
    "store": _read_store,
    "load": _read_load,
    "assert-valid": _read_valid,
    "assert-bounds": _read_bounds,
}


def _read(text: str, emb: dict | None) -> tuple[list, dict | None]:
    """The statements and the relocation map of ``text``.  ``emb`` is None
    for a trace and ``{}`` for a map file, an ``[emb]`` section whose header
    is optional but may not follow an entry.  A statement line whose code
    has no blanks but spaces and tabs goes to the reader of its head first;
    the descent reads every line no reader accepts."""
    readers = _READERS
    statements = []
    header = False
    # Each variable's ref (the number of allocs before the one that binds
    # it) and the tuple of its name that all its statements share.
    bound: dict[str, tuple[int, tuple]] = {}
    literals: dict = {}  # see _shared
    for lineno, raw in enumerate(text.splitlines(), start=1):
        k = raw.find("#")
        code = raw if k < 0 else raw[:k]
        if emb is None and (code.isprintable() or code.replace("\t", " ").isprintable()):
            words = code.split()
            try:
                head = words[0]
                if head == "expect-fail":
                    stmt = readers[words[1]](words[1:], lineno, bound, literals, EXPECT_FAIL)
                else:
                    stmt = readers[head](words, lineno, bound, literals, SUCCEEDS)
            except (IndexError, KeyError, ValueError):
                pass
            else:
                statements.append(stmt)
                continue
        tokens = _TOKEN.findall(code)
        if not tokens:
            continue
        try:
            if tokens[0] == "[emb]":
                _end(tokens, 1, "unexpected token after [emb]")
                if header:
                    raise _Error(0, "duplicate [emb] section")
                if emb:
                    raise _Error(0, "unexpected [emb] header after an entry")
                header, emb = True, {}
            elif emb is not None:
                _entry(tokens, emb)
            else:
                stmt, end = _statement(lineno, tokens, bound, literals)
                _end(tokens, end)
                statements.append(stmt)
        except _Error as e:
            raise e.at(lineno, code) from None
    return statements, emb


@_collector_paused
def parse_trace(text: str) -> Trace:
    """Parse a trace; raises TraceParseError with position on bad input."""
    statements, emb = _read(text, None)
    if emb is None:
        return Trace(tuple(statements))
    return Trace(tuple(statements), tuple((b, tb, d) for b, (tb, d) in emb.items()))


def parse_embedding(text: str) -> dict:
    """Parse a relocation map: an optional ``[emb]`` header, then ``B -> TB
    + DELTA`` lines; raises TraceParseError with position on bad input."""
    return _read(text, {})[1]


# --- pretty-printing -----------------------------------------------------------


def _value_expr_text(v: ValueExpr) -> str:
    if isinstance(v, PtrLit):
        return f"(ptr {v.target} {v.offset})"
    return value_text(v)


def statement_text(stmt: Statement) -> str:
    """The line of ``stmt``.  With no expectation, a load or query prints
    as a comment."""
    op, names, expect = stmt.op, stmt.names, stmt.expect
    kind = op[0]
    if kind == "alloc":
        text = f"alloc {op[1]} {op[2]} -> {names[0]}"
    elif kind == "free":
        text = f"free {names[0]}"
    elif kind == "free_list":
        text = "free-list" + "".join(" " + v for v in names)
    elif kind == "store":
        text = f"store {op[1].token} {names[0]} {op[3]} {_value_expr_text(op[4])}"
    elif kind == "load":
        text = f"load {op[1].token} {names[0]} {op[3]}"
    elif expect is None:
        return f"# query {kind} {names[0]}"
    elif kind == "valid":
        return f"assert-valid {names[0]}"
    else:
        return f"assert-bounds {names[0]} {expect[0]} {expect[1]}"
    if expect is SUCCEEDS:
        return text
    if expect is EXPECT_FAIL:
        return "expect-fail " + text
    if expect is None:
        return "# " + text
    if expect is LOAD_FAILS:
        return text + " => fail"
    return f"{text} => {_value_expr_text(expect)}"


def entry_text(b: int, tb: int, delta: int) -> str:
    """The line of the relocation entry mapping block ``b`` to ``tb``."""
    return f"{b} -> {tb} + {delta}"


def format_trace(trace: Trace) -> str:
    lines = [statement_text(s) for s in trace.statements]
    if trace.emb is not None:
        lines.append("[emb]")
        lines.extend(entry_text(*entry) for entry in trace.emb)
    return "\n".join(lines) + "\n"


# --- execution -------------------------------------------------------------------

# Negative refs are probes, which name no alloc: PROBE_FRESH stands for a
# far-away id, fresh in any small scenario, and any other negative ref for
# block 0, which is never allocated.  Traces have no syntax for them.
PROBE_INVALID = -1
PROBE_FRESH = -2
_FRESH_ID = 1_000_000


def block_of(blocks: list, ref: int) -> int | None:
    """The block ``ref`` stands for, where ``blocks[k]`` is the block of
    the k-th alloc so far; None when ``ref`` is unbound."""
    if ref >= 0:
        return blocks[ref] if ref < len(blocks) else None
    return _FRESH_ID if ref == PROBE_FRESH else 0


def refs(op: tuple) -> tuple:
    """The refs ``op`` names, in order."""
    kind = op[0]
    if kind == "alloc":
        return ()
    if kind == "free_list":
        return op[1]
    return (op[2],) if kind in ("store", "load") else (op[1],)


def run_op(m: MemState, blocks: list, op: tuple) -> tuple[MemState, object]:
    """Apply ``op`` to ``m``: the state after it, and its outcome.

    ``blocks[k]`` is the block of the k-th alloc so far, None if it
    failed; an alloc appends to it.  The outcome is an alloc's block,
    whether a free, free_list or store succeeded, a load's value, or a
    query's answer; None for a failed alloc or load.  An op on an unbound
    ref fails: False for a free, free_list or store, None otherwise.  A
    failed op leaves the state as it was."""
    kind = op[0]
    if kind == "store" or kind == "load":
        ref = op[2]
        b = blocks[ref] if 0 <= ref < len(blocks) else block_of(blocks, ref)
        if kind == "load":
            return m, None if b is None else memstate.load(op[1], m, b, op[3])
        m2 = None if b is None else memstate.store(op[1], m, b, op[3], op[4])
        return (m, False) if m2 is None else (m2, True)
    if kind == "alloc":
        r = memstate.alloc(m, op[1], op[2])
        if r is None:
            blocks.append(None)
            return m, None
        blocks.append(r[0])
        return r[1], r[0]
    if kind == "free_list":
        ids = [block_of(blocks, ref) for ref in op[1]]
        m2 = None if None in ids else memstate.free_list(m, ids)
        return (m, False) if m2 is None else (m2, True)
    ref = op[1]
    b = blocks[ref] if 0 <= ref < len(blocks) else block_of(blocks, ref)
    if kind == "free":
        m2 = None if b is None else memstate.free(m, b)
        return (m, False) if m2 is None else (m2, True)
    if b is None:
        return m, None
    if kind == "valid":
        return m, memstate.valid_block(m, b)
    if kind == "bounds":
        return m, memstate.bounds(m, b)
    if kind == "fresh":
        return m, memstate.fresh_block(m, b)
    raise ValueError(f"unknown op {kind!r}")


@dataclass(slots=True)
class StepOutcome:
    line: int
    ok: bool
    note: str


class Steps(Sequence):
    """The steps of a run, as a read-only sequence of ``StepOutcome``:
    one per statement that ran, each built when it is read.

    A run keeps only the trace's statements, how many of them ran, the
    final bindings and the failure.  That is enough: every step but the
    last held its expectation, and an ok step's note depends only on its
    statement and on bindings that no later step changes (see "describing
    steps" below).  The last step, when it failed, is the failure, whose
    note was written when it happened."""

    __slots__ = ("_statements", "_count", "_env", "_failure")

    def __init__(
        self, statements: tuple, count: int, env: dict, failure: StepOutcome | None
    ) -> None:
        self._statements = statements
        self._count = count
        self._env = env
        self._failure = failure

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int | slice) -> StepOutcome | list:
        n = self._count
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(n))]
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("step index out of range")
        if k == n - 1 and self._failure is not None:
            return self._failure
        stmt = self._statements[k]
        return StepOutcome(stmt.line, True, _ok_note(stmt, self._env))


@dataclass
class TraceReport:
    """The outcome of ``exec_trace``: whether every statement held its
    expectation, the steps that ran (a ``Steps`` view), the final state
    and bindings, and the step that failed, if one did."""

    ok: bool
    steps: Steps
    state: MemState
    env: dict
    failure: StepOutcome | None = None


def _resolve(v: ValueExpr, env: dict) -> Value | None:
    """``v`` with a pointer literal's variable looked up in ``env``; None
    when it is unbound."""
    if type(v) is not PtrLit:
        return v
    b = v.target if isinstance(v.target, int) else env.get(v.target)
    return None if b is None else Vptr(b, v.offset)


def _step(stmt: Statement, m: MemState, blocks: list, env: dict):
    """Run one statement: the state after it, whether its expectation
    holds, and the op's outcome (see ``run_op``).  A stored pointer's
    variable is looked up in ``env``; when it is unbound the store does
    not run and its outcome is False.  A successful alloc binds its
    variable in ``env``.  The notes are written apart, by ``_ok_note`` and
    ``_failure_note``."""
    op = stmt.op
    kind = op[0]
    expect = stmt.expect
    if kind == "store" and type(op[4]) is PtrLit:
        v = _resolve(op[4], env)
        if v is None:
            return m, expect is EXPECT_FAIL, False
        op = op[:4] + (v,)
    m, got = run_op(m, blocks, op)
    if kind == "alloc" and got is not None:
        env[stmt.names[0]] = got
    if expect is SUCCEEDS:
        return m, got is not None and got is not False, got
    if expect is EXPECT_FAIL:
        return m, got is None or got is False, got
    # An assertion or a load with an expected result: its op is a query,
    # whose outcome is None when its variable is unbound.
    if kind == "valid":
        return m, got is True, got
    if kind == "bounds":
        return m, got == expect, got
    if expect is LOAD_FAILS:
        return m, got is None and stmt.names[0] in env, got
    return m, got is not None and got == _resolve(expect, env), got


# --- describing steps ------------------------------------------------------------
#
# A note names blocks through ``env``.  A variable is bound at most once,
# by an alloc that comes before every statement naming it, and a failed
# alloc never binds, so the final ``env`` gives any statement of the run
# the blocks that the ``env`` of its step did.


def _why_not(stmt: Statement, env: dict) -> str | None:
    """Why the op of ``stmt`` cannot run, or None: one of its variables,
    or the one of the pointer it stores, is unbound."""
    op = stmt.op
    if op[0] != "alloc":
        for name in stmt.names:
            if name not in env:
                return f"{name} is unbound"
        if op[0] == "store" and type(op[4]) is PtrLit and _resolve(op[4], env) is None:
            return "pointer value references an unbound variable"
    return None


def _op_done_note(stmt: Statement, env: dict, got) -> str:
    """The note of an op that succeeded with outcome ``got``."""
    op, names = stmt.op, stmt.names
    kind = op[0]
    if kind == "alloc":
        return f"{names[0]} = block {env[names[0]]}"
    if kind == "free_list":
        return f"freed blocks {[env[name] for name in names]}"
    if kind == "free":
        return f"freed block {env[names[0]]}"
    if kind == "store":
        return f"stored at ({env[names[0]]}, {op[3]})"
    return value_text(got)


def _op_failed_note(stmt: Statement, env: dict) -> str:
    """The note of an op that failed."""
    why = _why_not(stmt, env)
    if why is not None:
        return why
    op, names = stmt.op, stmt.names
    kind = op[0]
    if kind == "alloc":
        return "allocation rejected by the capacity policy"
    if kind == "free_list":
        return f"free-list {[env[name] for name in names]} failed"
    b = env[names[0]]
    if kind == "free":
        return f"free of block {b} failed"
    if kind == "store":
        return f"store at ({b}, {op[3]}) is not a valid access"
    return f"load at ({b}, {op[3]}) is not a valid access"


def _ok_note(stmt: Statement, env: dict) -> str:
    """The note of a statement whose expectation held."""
    expect = stmt.expect
    if expect is SUCCEEDS:
        return _op_done_note(stmt, env, None)
    if expect is EXPECT_FAIL:
        return f"failed as expected: {_op_failed_note(stmt, env)}"
    kind = stmt.op[0]
    if kind == "valid":
        return f"block {env[stmt.names[0]]} is valid"
    if kind == "bounds":
        return f"bounds of block {env[stmt.names[0]]} are {expect}"
    if expect is LOAD_FAILS:
        return "failed as expected"
    return f"loaded {value_text(_resolve(expect, env))}"


def _failure_note(stmt: Statement, env: dict, got) -> str:
    """The note of a statement whose expectation did not hold, where
    ``got`` is the outcome ``_step`` gave."""
    expect = stmt.expect
    if expect is SUCCEEDS:
        return _op_failed_note(stmt, env)
    if expect is EXPECT_FAIL:
        return f"operation succeeded but was expected to fail ({_op_done_note(stmt, env, got)})"
    if got is None or got is False:
        why = _why_not(stmt, env)
        if why is not None:
            return why
    b = env[stmt.names[0]]
    kind = stmt.op[0]
    if kind == "valid":
        return f"block {b} is not valid"
    if kind == "bounds":
        return f"bounds of block {b} are {got}, not {expect}"
    if expect is LOAD_FAILS:
        return f"load succeeded with {value_text(got)}, expected failure"
    want = _resolve(expect, env)
    if want is None:
        return "expected pointer references an unbound variable"
    if got is None:
        return f"load failed, expected {value_text(want)}"
    return f"loaded {value_text(got)}, expected {value_text(want)}"


@_collector_paused
def exec_trace(trace: Trace, config: MemConfig = DEFAULT_CONFIG) -> TraceReport:
    """Run the statements in order against an evolving state, stopping at
    the first statement whose expectation does not hold.

    The report keeps the final state and bindings and the failure, and
    describes each step when ``report.steps`` is read; a run builds no
    record per statement.  The run keeps no intermediate state, so it is
    one state object that every statement updates in place (see
    ``memstate.transient``), and the report holds one persistent snapshot
    of it."""
    m = memstate.transient(memstate.empty(config))
    blocks: list = []
    env: dict[str, int] = {}
    statements = trace.statements
    for k, stmt in enumerate(statements):
        m, ok, got = _step(stmt, m, blocks, env)
        if not ok:
            failure = StepOutcome(stmt.line, False, _failure_note(stmt, env, got))
            steps = Steps(statements, k + 1, env, failure)
            return TraceReport(False, steps, memstate.persistent(m), env, failure)
    steps = Steps(statements, len(statements), env, None)
    return TraceReport(True, steps, memstate.persistent(m), env)


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


def _changed(op: tuple, got, blocks: list) -> tuple:
    """The block ids that ``op`` changed, read from its outcome ``got``
    (see ``_step``).  A load or a query changes nothing, and neither does
    a failed op; an alloc changes its block, and a store, free or
    free-list the blocks of its refs."""
    kind = op[0]
    if kind == "alloc":
        return () if got is None else (got,)
    if got is True and kind in ("store", "free", "free_list"):
        return tuple(block_of(blocks, ref) for ref in refs(op))
    return ()


@_collector_paused
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
    statements changed, which ``_changed`` reads from their ops' outcomes,
    plus, for an injection, the left blocks mapped onto a changed right
    block.  A step's work is proportional to those blocks, not to the
    size of the states.  Each side is one state object that its
    statements update in place (see ``memstate.transient``), and no
    report keeps it.

    Without ``emb``, an injection uses the traces' ``[emb]`` sections;
    ``ValueError`` when neither has one or their two maps differ, and when
    ``emb`` is given, or either trace has an ``[emb]`` section, for a
    relation along the identity."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if relation != "inject" and emb is not None:
        raise ValueError(
            f"{relation} relates each block to itself; a relocation map is for inject"
        )
    if relation != "inject" and (trace1.emb is not None or trace2.emb is not None):
        raise ValueError(
            f"{relation} relates each block to itself; an [emb] section is for inject"
        )
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
    m1 = memstate.transient(memstate.empty(config))
    m2 = memstate.transient(memstate.empty(config))
    blocks1, blocks2, env1, env2 = [], [], {}, {}
    steps = []
    for k, (s1, s2) in enumerate(zip(trace1.statements, trace2.statements)):
        m1, ok1, got1 = _step(s1, m1, blocks1, env1)
        if not ok1:
            note = _failure_note(s1, env1, got1)
            return RelateReport(False, f"left trace failed at line {s1.line}: {note}", steps)
        m2, ok2, got2 = _step(s2, m2, blocks2, env2)
        if not ok2:
            note = _failure_note(s2, env2, got2)
            return RelateReport(False, f"right trace failed at line {s2.line}: {note}", steps)
        if k == 0:
            holds = _check_relation(relation, m1, m2, emb)
        else:
            holds = relations.holds_after_step(
                relation, m1, m2,
                _changed(s1.op, got1, blocks1), _changed(s2.op, got2, blocks2),
                emb, sources,
            )
        steps.append((k, holds))
        if not holds:
            return RelateReport(False, f"{relation} fails after statement {k + 1}", steps)
    return RelateReport(True, f"{relation} holds after every statement", steps)
