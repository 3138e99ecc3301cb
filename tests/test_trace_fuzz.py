"""Fuzzing the trace front end: the parser is total, its token readers
agree with the token descent, printing round-trips, a run's step
view agrees with the run, a run hands back a persistent state, and the
CLI answers every input with an exit code."""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from blockmem import memstate, trace
from blockmem.chunks import Chunk, Vint
from blockmem.cli import main
from blockmem.memstate import CapacityPolicy, MemConfig
from blockmem.trace import TraceParseError, exec_trace, format_trace, parse_embedding, parse_trace

FUZZ = settings(max_examples=150, deadline=None)

# $a and $b are bound by every generated trace, $c never.
VARS = st.sampled_from(["$a", "$b", "$a", "$b", "$c"])
# Fresh names but for the odd collision, so that most allocations bind.
BINDERS = st.integers(0, 999).map("$n{}".format)
INTS = st.one_of(st.integers(-24, 24), st.sampled_from([2**31, -(2**40), 0x10]))
CHUNKS = st.sampled_from([c.token for c in Chunk])


def statements(variables, binders):
    """One statement line over the $variables drawn from ``variables``;
    an alloc binds one drawn from ``binders``."""
    values = st.one_of(
        st.just("undef"),
        INTS.map("(int {})".format),
        st.integers(0, 2**64 - 1).map("(float 0x{:X})".format),
        st.builds("(ptr {} {})".format, st.one_of(variables, st.integers(0, 4)), INTS),
    )
    operations = st.one_of(
        st.builds("alloc {} {} -> {}".format, INTS, INTS, binders),
        variables.map("free {}".format),
        st.lists(variables, max_size=3).map(lambda vs: " ".join(["free-list", *vs])),
        st.builds("store {} {} {} {}".format, CHUNKS, variables, INTS, values),
        st.builds("load {} {} {}".format, CHUNKS, variables, INTS),
    )
    return st.one_of(
        st.builds("alloc {} {} -> {}".format, INTS, INTS, binders),
        st.builds("store {} {} {} {}".format, CHUNKS, variables, INTS, values),
        st.builds("load {} {} {} => {}".format, CHUNKS, variables, INTS, values | st.just("fail")),
        operations.map("expect-fail {}".format),
        variables.map("assert-valid {}".format),
        st.builds("assert-bounds {} {} {}".format, variables, INTS, INTS),
    )


STATEMENTS = statements(VARS, BINDERS)


def entries(blocks):
    """An [emb] line mapping a block drawn from ``blocks``."""
    return st.builds(
        "{} -> {} + {}".format, blocks, st.integers(1, 4), st.sampled_from([0, 8, -8, 4])
    )


ENTRIES = entries(st.integers(1, 4))
# Characters that matter to the tokenizer, for mutations.
NOISE = st.sampled_from(list(" \t()#\n$x0-[]>=+") + ["\r\n", "\x0c", "é"])


@st.composite
def mutated(draw, lines):
    """Lines from ``lines`` joined into a text, then a few characters
    inserted or deleted."""
    text = "\n".join(draw(lines))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and k < len(text):
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + draw(NOISE) + text[k:]
    return text


@st.composite
def trace_lines(draw):
    """Statements that first bind $a and $b, then maybe an [emb] section."""
    lines = ["alloc 0 16 -> $a", "alloc -8 8 -> $b"]
    lines += draw(st.lists(STATEMENTS, max_size=8))
    if draw(st.booleans()):
        lines += ["[emb]", *draw(st.lists(ENTRIES, max_size=3))]
    return lines


@st.composite
def parsing_traces(draw):
    """Trace texts that parse: a $variable is used only once an alloc has
    bound it, every alloc binds a fresh $nK, and the [emb] section maps
    each block once."""
    bound = ["$a", "$b"]
    lines = ["alloc 0 16 -> $a", "alloc -8 8 -> $b"]
    for _ in range(draw(st.integers(0, 8))):
        fresh = f"$n{len(lines)}"
        line = draw(statements(st.sampled_from(tuple(bound)), st.just(fresh)))
        if line.endswith(f"-> {fresh}"):
            bound.append(fresh)
        lines.append(line)
    if draw(st.booleans()):
        blocks = draw(st.lists(st.integers(1, 4), unique=True, max_size=3))
        lines.append("[emb]")
        lines += [draw(entries(st.just(b))) for b in blocks]
    return "\n".join(lines)


TRACES = mutated(trace_lines())
MAPS = mutated(st.lists(ENTRIES, max_size=4).map(lambda es: ["[emb]", *es]))
TEXTS = st.one_of(TRACES, MAPS, st.text(max_size=60))


def _parses(parse, text):
    try:
        return parse(text)
    except TraceParseError:
        return None


@FUZZ
@given(TEXTS)
def test_parsers_return_or_raise_parse_errors(text):
    _parses(parse_trace, text)
    _parses(parse_embedding, text)


def _outcome(text):
    """What ``parse_trace`` makes of ``text``: every statement with its line
    and the [emb] section, or the error's position and message."""
    try:
        t = parse_trace(text)
    except TraceParseError as e:
        return "error", e.line, e.column, e.message
    return [(s.op, s.expect, s.names, s.line) for s in t.statements], t.emb


def _descent_outcome(text):
    """``_outcome`` with no token reader: the token descent alone."""
    with mock.patch.dict(trace._READERS, clear=True):
        return _outcome(text)


def _map_outcome(text):
    """What ``parse_embedding`` makes of ``text``: the map as ``(block,
    target, delta)`` entries, or the error's position and message."""
    try:
        return tuple((b, tb, d) for b, (tb, d) in parse_embedding(text).items())
    except TraceParseError as e:
        return "error", e.line, e.column, e.message


def _section_outcome(text):
    """``_map_outcome`` of ``text`` read as a trace's [emb] section, after a
    header line: an error's line is given as a line of ``text``."""
    try:
        return parse_trace("[emb]\n" + text).emb
    except TraceParseError as e:
        return "error", e.line - 1, e.column, e.message


@FUZZ
@given(mutated(st.lists(ENTRIES, max_size=4)))
def test_a_map_file_reads_as_the_section_it_heads(text):
    assume("[emb]" not in text)
    assert _map_outcome(text) == _section_outcome(text)


BLANK_RUNS = st.sampled_from([" ", " ", " ", "\t", "  ", " \t"])
COMMENTS = st.sampled_from(["", "", " # note", "\t#", "#(ptr $a 0)", " #"])


@st.composite
def respaced(draw, lines):
    """Lines from ``lines`` with each space widened to a run of blanks, and
    maybe a trailing comment, joined into a text."""
    out = []
    for line in draw(lines):
        parts = line.split(" ")
        text = parts[0] + "".join(draw(BLANK_RUNS) + part for part in parts[1:])
        out.append(text + draw(COMMENTS))
    return "\n".join(out)


BOUND_STATEMENTS = st.lists(STATEMENTS, max_size=6).map(
    lambda lines: ["alloc 0 16 -> $a", "alloc -8 8 -> $b", *lines]
)


@FUZZ
@given(st.one_of(respaced(BOUND_STATEMENTS), BOUND_STATEMENTS.map("\n".join), TRACES))
def test_patterns_parse_as_the_descent_does(text):
    assert _outcome(text) == _descent_outcome(text)


# What a reader must not take for part of a word or for a blank: the descent
# splits a parenthesis off its neighbours and cuts the code at '#', takes a
# tab for a blank, and keeps a no-break space or a unit separator, blanks to
# str.split, in its token.
GLUE = st.sampled_from(["(", ")", "#", "\t", "\xa0", "\x1f"])


@st.composite
def glued(draw, lines):
    """Lines from ``lines`` joined into a text, with a character from GLUE
    put at a token boundary of one of them: where one of its tokens starts
    or ends."""
    lines = list(draw(lines))
    k = draw(st.integers(0, len(lines) - 1))
    spans = [m.span() for m in trace._TOKEN.finditer(lines[k])]
    at = draw(st.sampled_from([at for span in spans for at in span]))
    lines[k] = lines[k][:at] + draw(GLUE) + lines[k][at:]
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(glued(BOUND_STATEMENTS))
def test_readers_parse_glued_lines_as_the_descent_does(text):
    assert _outcome(text) == _descent_outcome(text)


# Lines at the edges of what a reader accepts, after $a and $b are bound.
EDGE_LINES = [
    "store int32 $a 0 (float 0x10000000000000000)",
    "store int32 $a 0 (float 0000000000000000001)",
    "store int32 $a 0 (float -0)",
    "store int32 $a 0 (float 0x_f)",
    "store int32 $a 0 (int 0_1)",
    "store int32 $a 0 (int 012)",
    "store int32 $a 0 (int +0b101)",
    "store int32 $a -0x8 (ptr -1 +2)",
    "store int32 $a 0 (ptr $ 0)",
    "store int32 $a 0 (ptr $c 0)",
    "store int64 $a 0 undef",
    "store int32 $a 0 undef(",
    "store int32 $a 0 undef#(",
    "store int32 $a 0(int 1)",
    "store int32 $a 0 ( int\t1 )",
    "store int32 $a 0 (int1)",
    "load int32 $a 0 =>(int 1)",
    "load int32 $a 0 =>undef",
    "load int32 $a 0 => fail#",
    "load int32 $a 0 => failed",
    "load int32 $a 0",
    "alloc 0 8 -> $a",
    "alloc 0 8 -> $",
    "alloc 0 8 ->$c",
    "alloc 0 8 -> $c $d",
    "alloc 0 8\t->\t$c",
    "free-list",
    "free-list $a $a",
    "free-list $a\t$b # both",
    "free-list $a $c",
    "expect-fail  free $a",
    "expect-fail free-list",
    "expect-fail load int32 $a 0",
    "expect-fail load int32 $a 0 => undef",
    "expect-fail alloc 0 8 -> $b",
    "expect-fail\tfree $a",
    "expect-fail store\tint32 $a 0 (int 1)",
    "expect-fail store int32 $c 0 undef",
    "expect-fail free-list $a $c",
    "expect-fail alloc 0 8 -> $a",
    "assert-valid $a $b",
    "assert-bounds $a 0x0 16 # c",
    "assert-bounds $a 0 16 16",
    "store int32 $a 0 (int 1) ",
    " store int32 $a 0 (int 1)",
    "\tfree $a",
    "free $a\x1f",
    # Words after a value, and a value left open.
    "store int32 $a 0 undef undef",
    "store int32 $a 0 (ptr $a 0) 1",
    "load int32 $a 0 => fail fail",
    "load int32 $a 0 => (int 1) x",
    "store int32 $a 0 (int 12",
    "load int32 $a 0 => (ptr $a 10",
    # Parentheses glued to their neighbours, as str.split leaves them.
    "alloc 0 8 -> $c(",
    "alloc 0 8 -> $c)",
    "store int32 $a 0 (int 1)(",
    "load int32 $a 0 => (ptr $a( 0)",
    "free-list $a( $b",
    "assert-bounds $a 0 16)",
    # Blanks to str.split, but part of a token to the descent.
    "free\xa0$a",
    "alloc 0 8 -> $c\xa0",
    "alloc 0 8 -> $c\u2007d",
    "store int32 $a 0 (int\u30001)",
    "assert-valid $a\u3000",
    "free-list $a\u2007$b",
    # expect-fail wraps an operation, never an assertion.
    "expect-fail assert-valid $a",
    "expect-fail assert-bounds $a 0 16",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_patterns_parse_edge_lines_as_the_descent_does(line):
    text = f"alloc 0 16 -> $a\nalloc -8 8 -> $b\n{line}\nfree $b"
    assert _outcome(text) == _descent_outcome(text)


SMOKE = Path(__file__).resolve().parent / "smoke"


def test_expect_fail_lines_go_through_their_operations_readers(monkeypatch):
    calls = []  # (the reader's head, the first word it was given, what it gave)

    for head, read in list(trace._READERS.items()):

        def recording(words, *args, head=head, read=read):
            try:
                stmt = read(words, *args)
            except (IndexError, KeyError, ValueError):
                calls.append((head, words[0], "refused"))
                raise
            calls.append((head, words[0], stmt.expect))
            return stmt

        monkeypatch.setitem(trace._READERS, head, recording)
    bind = "alloc 0 16 -> $a\nalloc -8 8 -> $b\n"
    wrapped = ["alloc 0 8 -> $c", "free $c", "free-list $a", "store int32 $b 0 (int 1)", "load int32 $b 0"]
    text = bind + "".join(f"expect-fail {op}\n" for op in wrapped)
    with mock.patch.object(trace, "_statement", side_effect=AssertionError("descent")):
        t = parse_trace(text)
    heads = [op.split()[0] for op in wrapped]
    assert calls[2:] == [(head, head, trace.EXPECT_FAIL) for head in heads]
    assert [s.op[0] for s in t.statements[2:]] == ["alloc", "free", "free_list", "store", "load"]
    assert _outcome(text) == _descent_outcome(text)
    # A wrapped load has no expectation: its reader refuses the line, and
    # the descent reports the "=>".
    calls.clear()
    with pytest.raises(TraceParseError) as e:
        parse_trace(bind + "expect-fail load int32 $a 0 => (int 1)")
    assert calls[2:] == [("load", "load", "refused")]
    assert (e.value.line, e.value.column, e.value.message) == (3, 29, "unexpected trailing token")


def test_every_well_formed_statement_is_read_by_its_pattern():
    text = (SMOKE / "forms.trace").read_text(encoding="utf-8")
    with mock.patch.object(trace, "_statement", side_effect=AssertionError("descent")):
        t = parse_trace(text)
    ops = {"alloc", "free", "free_list", "store", "load"}
    assert {s.op[0] for s in t.statements} == ops | {"valid", "bounds"}
    assert {s.op[0] for s in t.statements if s.expect is trace.EXPECT_FAIL} == ops
    stored = {type(s.op[4]).__name__ for s in t.statements if s.op[0] == "store"}
    loaded = {type(s.expect).__name__ for s in t.statements if s.op[0] == "load"}
    assert stored == {"Vint", "Vfloat", "PtrLit", "Vundef"}
    assert loaded == stored | {"str"}  # a value, "fail" or expect-fail
    assert _outcome(text) == _descent_outcome(text)


def test_spacing_smoke_statements_are_read_by_the_descent():
    text = (SMOKE / "spacing.trace").read_text(encoding="utf-8")
    read = []
    statement = trace._statement

    def recording(line, *args):
        read.append(line)
        return statement(line, *args)

    with mock.patch.object(trace, "_statement", recording):
        t = parse_trace(text)
    spaced = [k for k, line in enumerate(text.splitlines(), 1) if "(" in line.partition("#")[0]]
    assert read == spaced and len(spaced) >= 6
    assert _outcome(text) == _descent_outcome(text)
    assert exec_trace(t).ok


@FUZZ
@given(parsing_traces())
def test_format_then_parse_is_identity(text):
    t = parse_trace(text)
    assert parse_trace(format_trace(t)) == t


@FUZZ
@given(parsing_traces(), st.sampled_from([None, 8, 24]))
def test_steps_view_agrees_with_the_run(text, capacity):
    config = MemConfig(capacity=CapacityPolicy(max_total_bytes=capacity))
    report = exec_trace(parse_trace(text), config)
    steps = report.steps
    n = len(steps)
    listed = list(steps)
    assert len(listed) == n > 0
    assert [steps[k] for k in range(n)] == listed == [steps[k - n] for k in range(n)]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            steps[k]
    assert all(s.ok for s in listed[:-1])
    assert listed[-1].ok == report.ok
    assert (listed[-1] == report.failure) == (not report.ok)


def _replayed(statements, env, config):
    """The state after the ops of ``statements``, replayed through
    ``run_op`` from the empty state, with stored pointers resolved in the
    run's final ``env``; a store of an unbound pointer does not run."""
    m, blocks = memstate.empty(config), []
    for stmt in statements:
        op = stmt.op
        if op[0] == "store" and type(op[4]) is trace.PtrLit:
            v = trace._resolve(op[4], env)
            if v is None:
                continue
            op = op[:4] + (v,)
        m, _ = trace.run_op(m, blocks, op)
    return m


def _same_state(m1, m2) -> bool:
    return (m1.slots, m1.nextblock, m1.allocated_bytes) == (
        m2.slots, m2.nextblock, m2.allocated_bytes
    )


@FUZZ
@given(parsing_traces(), st.sampled_from([None, 8, 24]))
def test_a_run_hands_back_a_persistent_state(text, capacity):
    # A run updates a transient state in place; the state it reports, ok
    # or failed, is persistent and equal to the persistent replay.
    config = MemConfig(capacity=CapacityPolicy(max_total_bytes=capacity))
    t = parse_trace(text)
    report = exec_trace(t, config)
    m = report.state
    assert type(m.slots) is tuple
    want = _replayed(t.statements[: len(report.steps)], report.env, config)
    assert _same_state(m, want)
    for b, low, high, _ in memstate.live_blocks(m):
        if low < high:
            stored = memstate.store(Chunk.INT8U, m, b, low, Vint(7))
            assert memstate.load(Chunk.INT8U, stored, b, low) == Vint(7)
            assert _same_state(m, want)


def _exit_code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return main(argv)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    TRACES,
    TRACES,
    MAPS,
    st.sampled_from(["lessdef", "extends", "inject"]),
    st.booleans(),
    st.booleans(),
)
def test_cli_answers_with_an_exit_code(left, right, emb, relation, with_emb, stepwise):
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d, name) for name in ("left.trace", "right.trace", "map.emb")]
        for path, text in zip(paths, (left, right, emb)):
            path.write_text(text, encoding="utf-8")
        f, g, m = map(str, paths)
        assert _exit_code(["run", f]) in (0, 1, 2)
        argv = ["relate", f, g, "--relation", relation]
        argv += ["--emb", m] if with_emb else []
        argv += ["--stepwise"] if stepwise else []
        assert _exit_code(argv) in (0, 1, 2)
