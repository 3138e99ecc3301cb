"""Trace grammar, execution semantics, and the relate command."""

import contextlib
import gc
import tracemalloc
import weakref
from pathlib import Path

import pytest

from blockmem.lawcheck.generators import run_ops, sample_ops
from blockmem.lawcheck.oracle import oracle_exec
from blockmem import cells, memstate, trace
from blockmem.lawcheck.rng import SplitMix64
from blockmem.memstate import CapacityPolicy, MemConfig
from blockmem.trace import (
    TraceParseError,
    exec_trace,
    format_trace,
    parse_embedding,
    parse_trace,
    relate,
)

READ_AFTER_WRITE = """\
# read-after-write
alloc 0 8 -> $a
store int32 $a 0 (int 42)
load int32 $a 0 => (int 42)
free $a
"""


def test_parse_basics():
    t = parse_trace("alloc 0 8 -> $a")
    assert len(t.statements) == 1
    assert t.statements[0].op[0] == "alloc"
    two = parse_trace("alloc 0 8 -> $a\nstore int32 $a 0 (int 42)\nload int32 $a 0 => (int 42)")
    assert len(two.statements) == 3
    assert two.statements[1].op[0] == "store"
    assert two.statements[2].op[0] == "load"


A = "alloc 0 8 -> $a\n"
AB = A + "alloc 0 16 -> $b\n"

# Every diagnostic the parser gives, as (input, line, column, message).
PARSE_ERRORS = [
    # "expected ..." at the end of a line
    ("expect-fail", 1, 12, "expected an operation"),
    ("alloc", 1, 6, "expected a low bound"),
    ("alloc 0", 1, 8, "expected a high bound"),
    ("alloc 0 8", 1, 10, "expected '->'"),
    ("alloc 0 8 ->", 1, 13, "expected a $variable"),
    ("free", 1, 5, "expected a $variable"),
    ("store", 1, 6, "expected a chunk name"),
    (A + "store int32", 2, 12, "expected a $variable"),
    (A + "store int32 $a", 2, 15, "expected an offset"),
    (A + "store int32 $a 0", 2, 17, "expected a value, got ''"),
    (A + "store int32 $a 0 (", 2, 19, "expected value kind"),
    (A + "store int32 $a 0 (int", 2, 22, "expected an integer"),
    (A + "store int32 $a 0 (float", 2, 24, "expected float bits"),
    (A + "store int32 $a 0 (ptr", 2, 22, "expected a block id or $variable"),
    (A + "store int32 $a 0 (ptr $a", 2, 25, "expected a pointer offset"),
    (A + "store int32 $a 0 (int 1", 2, 24, "expected ')'"),
    (A + "load int32 $a 0", 2, 16, "expected '=>'"),
    (A + "load int32 $a 0 =>", 2, 19, "expected a value, got ''"),
    ("assert-valid", 1, 13, "expected a $variable"),
    (A + "assert-bounds $a", 2, 17, "expected a low bound"),
    (A + "assert-bounds $a 0", 2, 19, "expected a high bound"),
    ("[emb]\n1", 2, 2, "expected '->'"),
    ("[emb]\n1 ->", 2, 5, "expected a target block id"),
    ("[emb]\n1 -> 2", 2, 7, "expected '+'"),
    ("[emb]\n1 -> 2 +", 2, 9, "expected a delta"),
    # expected literal, got another token
    ("alloc 0 8 => $a", 1, 11, "expected '->', got '=>'"),
    (A + "load int32 $a 0 -> undef", 2, 17, "expected '=>', got '->'"),
    ("[emb]\n1 => 2 + 0", 2, 3, "expected '->', got '=>'"),
    ("[emb]\n1 -> 2 - 0", 2, 8, "expected '+', got '-'"),
    # bad int
    ("alloc x 8 -> $a", 1, 7, "expected a low bound, got 'x'"),
    ("alloc 0 010 -> $a", 1, 9, "expected a high bound, got '010'"),
    (A + "store int32 $a 1.5 undef", 2, 16, "expected an offset, got '1.5'"),
    (A + "store int32 $a 0 (int 0xg)", 2, 23, "expected an integer, got '0xg'"),
    (A + "store int32 $a 0 (ptr 2 $a)", 2, 25, "expected a pointer offset, got '$a'"),
    (A + "store int32 $a 0 (ptr x 0)", 2, 23, "expected a block id or $variable, got 'x'"),
    (A + "assert-bounds $a lo 8", 2, 18, "expected a low bound, got 'lo'"),
    ("[emb]\n->", 2, 1, "expected a block id, got '->'"),
    ("[emb]\n1 -> b2 + 0", 2, 6, "expected a target block id, got 'b2'"),
    ("[emb]\n1 -> 2 + 8d", 2, 10, "expected a delta, got '8d'"),
    # bad $variable
    ("alloc 0 8 -> a", 1, 14, "expected a $variable, got 'a'"),
    ("alloc 0 8 -> $", 1, 14, "expected a $variable, got '$'"),
    ("free (", 1, 6, "expected a $variable, got '('"),
    (A + "free-list $a b", 2, 14, "expected a $variable, got 'b'"),
    # already bound, not bound
    (A + "alloc 0 8 -> $a", 2, 14, "$a is already bound"),
    (A + "expect-fail alloc 0 8 -> $a", 2, 26, "$a is already bound"),
    ("free $b", 1, 6, "$b is not bound"),
    (A + "store int32 $b 0 (int 1)", 2, 13, "$b is not bound"),
    (A + "store int32 $a 0 (ptr $z 0)", 2, 23, "$z is not bound"),
    (A + "load int32 $a 0 => (ptr $z 0)", 2, 25, "$z is not bound"),
    (A + "free-list $a $b", 2, 14, "$b is not bound"),
    ("store int32 $a 0 (int 1)", 1, 13, "$a is not bound"),
    (A + "free $b", 2, 6, "$b is not bound"),
    # unknown chunk, unknown value kind, hex bits, bits range
    ("load bogus $a 0 => undef", 1, 6, "unknown chunk 'bogus'"),
    (A + "store $a 0 (int 1)", 2, 7, "unknown chunk '$a'"),
    (A + "store int32 $a 0 (wat 1)", 2, 19, "unknown value kind 'wat'"),
    (A + "store int32 $a 0 ((int 1))", 2, 19, "unknown value kind '('"),
    (A + "store int32 $a 0 (float 0xZZ)", 2, 25, "expected hex bits, got '0xZZ'"),
    (A + "store int32 $a 0 (float 1.0)", 2, 25, "expected hex bits, got '1.0'"),
    (A + "store int32 $a 0 (float -1)", 2, 25, "float bits out of 64-bit range"),
    (A + "store int32 $a 0 (float 10000000000000000)", 2, 25, "float bits out of 64-bit range"),
    # expected a value
    (A + "store int32 $a 0 x", 2, 18, "expected a value, got 'x'"),
    (A + "store int32 $a 0 )", 2, 18, "expected a value, got ')'"),
    (A + "load int32 $a 0 => int", 2, 20, "expected a value, got 'int'"),
    # missing ')', trailing tokens
    (A + "store int32 $a 0 (int 1 2)", 2, 25, "expected ')', got '2'"),
    (A + "store int32 $a 0 (ptr $a 0 0)", 2, 28, "expected ')', got '0'"),
    (A + "store int32 $a 0 (int 1)x", 2, 25, "unexpected trailing token"),
    ("alloc 0 8 -> $a extra", 1, 17, "unexpected trailing token"),
    (A + "free $a )", 2, 9, "unexpected trailing token"),
    (A + "load int32 $a 0 => fail fail", 2, 25, "unexpected trailing token"),
    (A + "expect-fail load int32 $a 0 => fail", 2, 29, "unexpected trailing token"),
    ("[emb]\n1 -> 2 + 0 junk", 2, 12, "unexpected trailing token"),
    # unknown operation
    ("frobnicate $a", 1, 1, "unknown operation 'frobnicate'"),
    (A + "expect-fail assert-valid $a", 2, 13, "unknown operation 'assert-valid'"),
    (A + "expect-fail expect-fail free $a", 2, 13, "unknown operation 'expect-fail'"),
    ("( alloc 0 8 -> $a", 1, 1, "unknown operation '('"),
    # [emb] header
    ("[emb]\n1 -> 2 + 0\n[emb]", 3, 1, "duplicate [emb] section"),
    ("[emb]\n\n  [emb] # again", 3, 3, "duplicate [emb] section"),
    ("[emb] extra", 1, 7, "unexpected token after [emb]"),
    ("[emb] (", 1, 7, "unexpected token after [emb]"),
    ("[emb]\n[emb] x", 2, 7, "unexpected token after [emb]"),
    ("[emb]\nalloc 0 8 -> $a", 2, 1, "expected a block id, got 'alloc'"),
    # tabs, '#' inside a token, columns and line numbers
    ("alloc\t0\t8\t->\t$a\tx", 1, 17, "unexpected trailing token"),
    ("\t alloc 0 8 -> $a ) # comment", 1, 19, "unexpected trailing token"),
    ("alloc 0 8#9 -> $a", 1, 10, "expected '->'"),
    ("alloc 0 8 -> $ab#\nfree $a", 2, 6, "$a is not bound"),
    (A + "store int32 $a 0 (int 1#)", 2, 24, "expected ')'"),
    (A + "store\tint32 $a\t0\t(int\t1)\t#c\n# x\n\n   \nfree $b", 6, 6, "$b is not bound"),
    ("# header\n\nalloc 0 8 -> $a\nfree $a\nfree\t$a\tz", 5, 9, "unexpected trailing token"),
    ("alloc 0 8 -> $é x", 1, 17, "unexpected trailing token"),
    ("alloc 0 8 -> $a\r\nfree $a junk", 2, 9, "unexpected trailing token"),
    ("alloc 0 8 -> $a\x0cfree $b", 2, 6, "$b is not bound"),
    # a token that names no bound variable or no chunk
    (A + "store int32 $a 0 (ptr $ 0)", 2, 23, "expected a $variable, got '$'"),
    (A + "free $", 2, 6, "expected a $variable, got '$'"),
    (A + "assert-valid a", 2, 14, "expected a $variable, got 'a'"),
    (A + "load int32 a 0 => undef", 2, 12, "expected a $variable, got 'a'"),
    (A + "free-list $a $", 2, 14, "expected a $variable, got '$'"),
    (A + "load int32 $a 0 => (ptr $b 0)", 2, 25, "$b is not bound"),
    (A + "assert-bounds $ 0 8", 2, 15, "expected a $variable, got '$'"),
    (A + "load int32$a 0 => undef", 2, 6, "unknown chunk 'int32$a'"),
    (A + "load Int32 $a 0 => undef", 2, 6, "unknown chunk 'Int32'"),
    (A + "expect-fail load float32 $a", 2, 28, "expected an offset"),
    # every cut, after each token, of one line of each statement form
    (AB + "alloc", 3, 6, "expected a low bound"),
    (AB + "alloc 0", 3, 8, "expected a high bound"),
    (AB + "alloc 0 8", 3, 10, "expected '->'"),
    (AB + "alloc 0 8 ->", 3, 13, "expected a $variable"),
    (AB + "free", 3, 5, "expected a $variable"),
    (AB + "store", 3, 6, "expected a chunk name"),
    (AB + "store int32", 3, 12, "expected a $variable"),
    (AB + "store int32 $a", 3, 15, "expected an offset"),
    (AB + "store int32 $a 0", 3, 17, "expected a value, got ''"),
    (AB + "store int32 $a 0 (", 3, 19, "expected value kind"),
    (AB + "store int32 $a 0 (int", 3, 22, "expected an integer"),
    (AB + "store int32 $a 0 (int 7", 3, 24, "expected ')'"),
    (AB + "store float64", 3, 14, "expected a $variable"),
    (AB + "store float64 $a", 3, 17, "expected an offset"),
    (AB + "store float64 $a 0", 3, 19, "expected a value, got ''"),
    (AB + "store float64 $a 0 (", 3, 21, "expected value kind"),
    (AB + "store float64 $a 0 (float", 3, 26, "expected float bits"),
    (AB + "store float64 $a 0 (float 0x3FF0000000000000", 3, 45, "expected ')'"),
    (AB + "store int32 $a 0 (ptr", 3, 22, "expected a block id or $variable"),
    (AB + "store int32 $a 0 (ptr $b", 3, 25, "expected a pointer offset"),
    (AB + "store int32 $a 0 (ptr $b 4", 3, 27, "expected ')'"),
    (AB + "store int32 $a 0 (ptr 2", 3, 24, "expected a pointer offset"),
    (AB + "store int32 $a 0 (ptr 2 4", 3, 26, "expected ')'"),
    (AB + "load", 3, 5, "expected a chunk name"),
    (AB + "load int32", 3, 11, "expected a $variable"),
    (AB + "load int32 $a", 3, 14, "expected an offset"),
    (AB + "load int32 $a 0", 3, 16, "expected '=>'"),
    (AB + "load int32 $a 0 =>", 3, 19, "expected a value, got ''"),
    (AB + "load int32 $a 0 => (", 3, 21, "expected value kind"),
    (AB + "load int32 $a 0 => (int", 3, 24, "expected an integer"),
    (AB + "load int32 $a 0 => (int 7", 3, 26, "expected ')'"),
    (AB + "expect-fail", 3, 12, "expected an operation"),
    (AB + "expect-fail alloc", 3, 18, "expected a low bound"),
    (AB + "expect-fail alloc 0", 3, 20, "expected a high bound"),
    (AB + "expect-fail alloc 0 8", 3, 22, "expected '->'"),
    (AB + "expect-fail alloc 0 8 ->", 3, 25, "expected a $variable"),
    (AB + "expect-fail free", 3, 17, "expected a $variable"),
    (AB + "expect-fail store", 3, 18, "expected a chunk name"),
    (AB + "expect-fail store int32", 3, 24, "expected a $variable"),
    (AB + "expect-fail store int32 $a", 3, 27, "expected an offset"),
    (AB + "expect-fail store int32 $a 0", 3, 29, "expected a value, got ''"),
    (AB + "expect-fail store int32 $a 0 (", 3, 31, "expected value kind"),
    (AB + "expect-fail store int32 $a 0 (int", 3, 34, "expected an integer"),
    (AB + "expect-fail store int32 $a 0 (int 7", 3, 36, "expected ')'"),
    (AB + "expect-fail load", 3, 17, "expected a chunk name"),
    (AB + "expect-fail load int32", 3, 23, "expected a $variable"),
    (AB + "expect-fail load int32 $a", 3, 26, "expected an offset"),
    (AB + "assert-valid", 3, 13, "expected a $variable"),
    (AB + "assert-bounds", 3, 14, "expected a $variable"),
    (AB + "assert-bounds $a", 3, 17, "expected a low bound"),
    (AB + "assert-bounds $a 0", 3, 19, "expected a high bound"),
]
EMBEDDING_ERRORS = [
    ("1", 1, 2, "expected '->'"),
    ("1 ->", 1, 5, "expected a target block id"),
    ("1 -> 2", 1, 7, "expected '+'"),
    ("1 -> 2 +", 1, 9, "expected a delta"),
    ("x -> 2 + 0", 1, 1, "expected a block id, got 'x'"),
    ("1 -> 2 + 0\n# c\n\n3 => 4 + 0", 4, 3, "expected '->', got '=>'"),
    ("[emb]\n1 -> 2 + 0x", 2, 10, "expected a delta, got '0x'"),
    ("1\t->\t2\t+\t0\n2 -> 3 + (", 2, 10, "expected a delta, got '('"),
    ("1 -> 2 + 0#c\n)", 2, 1, "expected a block id, got ')'"),
    ("[emb]\n1 -> 2 + 0\n[emb]\n3 -> 2 + 8", 3, 1, "duplicate [emb] section"),
    ("1 -> 2 + 0\n# c\n[emb]\n3 -> 2 + 8", 3, 1, "unexpected [emb] header after an entry"),
    ("# a trace\nalloc 0 8 -> $a", 2, 1, "expected a block id, got 'alloc'"),
]


def test_parse_errors_have_positions():
    for text, line, column, message in PARSE_ERRORS:
        assert _diagnostic(parse_trace, text) == (line, column, message), text
    for text, line, column, message in EMBEDDING_ERRORS:
        assert _diagnostic(parse_embedding, text) == (line, column, message), text


def _header_line(text):
    """The number of the first line of ``text`` that is an [emb] header, or None."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.split("#")[0].split() == ["[emb]"]:
            return lineno
    return None


def test_a_map_file_reads_as_an_emb_section():
    # parse_embedding and parse_trace share one line loop: a map file is an
    # [emb] section whose header is optional.  Read after a header, a map
    # without one fails where it fails alone, one line later; in a map with
    # its own header, that header is the section's second.
    for text, line, column, message in EMBEDDING_ERRORS:
        got = _diagnostic(parse_trace, "[emb]\n" + text)
        header = _header_line(text)
        if header is None:
            assert got == (line + 1, column, message), text
        else:
            assert got == (header + 1, 1, "duplicate [emb] section"), text
    maps = ["", "# none", "1 -> 2 + 8", "\t1\t->\t2\t+\t-8 # c\n\n0x3 -> 1 + 0", "2 -> 2 + 0\n1 -> 2 + 8"]
    for text in maps:
        emb = parse_embedding(text)
        assert parse_embedding("[emb]\n" + text) == emb, text
        assert parse_trace("[emb]\n" + text).emb == tuple((b, tb, d) for b, (tb, d) in emb.items())


def test_the_cuts_that_parse():
    # The cuts of the lines above that are statements: a free-list of any length.
    for text, refs in [("free-list", ()), ("free-list $a", (0,)), ("free-list $a $b", (0, 1))]:
        for line in (text, "expect-fail " + text):
            assert parse_trace(AB + line).statements[-1].op == ("free_list", refs), line


def test_roundtrip_with_all_features():
    text = """\
alloc 0 8 -> $a
alloc -4 4 -> $b
store int16u $a 2 (int 70000)
store float64 $a 0 (float 0x3FF8000000000000)
store int32 $a 4 (ptr $b 0)
store int32 $a 4 (ptr 7 -3)
load int32 $a 4 => (ptr 7 -3)
load float32 $b -4 => undef
load int8s $b 9 => fail
expect-fail store int32 $b 3 (int 1)
expect-fail alloc 0 8 -> $c
expect-fail load int32 $b 9
assert-valid $a
assert-bounds $b -4 4
free-list $a $b
[emb]
1 -> 3 + 8
2 -> 3 + 16
"""
    t = parse_trace(text)
    assert parse_trace(format_trace(t)) == t
    assert t.emb == ((1, 3, 8), (2, 3, 16))


def test_exec_read_after_write():
    report = exec_trace(parse_trace(READ_AFTER_WRITE))
    assert report.ok
    assert [s.ok for s in report.steps] == [True] * 4


def test_exec_load_before_store_is_undef():
    t = parse_trace("alloc 0 8 -> $a\nload int32 $a 4 => undef")
    assert exec_trace(t).ok


def test_exec_load_after_free_fails():
    t = parse_trace("alloc 0 8 -> $a\nfree $a\nload int32 $a 0 => fail")
    assert exec_trace(t).ok


def test_exec_assertion_failure_reports_line():
    t = parse_trace("alloc 0 8 -> $a\nload int32 $a 0 => (int 9)")
    report = exec_trace(t)
    assert not report.ok
    assert report.failure.line == 2


def test_exec_unexpected_failure_stops():
    t = parse_trace("alloc 0 8 -> $a\nfree $a\nfree $a")
    report = exec_trace(t)
    assert not report.ok and report.failure.line == 3


def test_expect_fail_semantics():
    ok = parse_trace("alloc 0 8 -> $a\nexpect-fail store int32 $a 1 (int 1)")
    assert exec_trace(ok).ok
    bad = parse_trace("alloc 0 8 -> $a\nexpect-fail store int32 $a 0 (int 1)")
    assert not exec_trace(bad).ok


def test_capacity_config_flows_into_execution():
    t = parse_trace("expect-fail alloc 0 64 -> $a")
    cfg = MemConfig(capacity=CapacityPolicy(max_total_bytes=16))
    assert exec_trace(t, cfg).ok
    assert not exec_trace(t).ok  # unlimited by default, alloc succeeds


def test_assert_bounds():
    t = parse_trace("alloc -4 12 -> $a\nassert-bounds $a -4 12\nassert-valid $a")
    assert exec_trace(t).ok


U = "expect-fail alloc 0 16 -> $u\n"  # at capacity 8, $u stays unbound

# One row per note the interpreter gives, recorded before the trace
# statements became ops: (the note, capacity, trace, (line, ok, note) per step).
EXEC_NOTES = [
    ("allocation rejected", 8, "alloc 0 16 -> $a",
     [(1, False, "allocation rejected by the capacity policy")]),
    ("alloc binds", None, "alloc -4 8 -> $a\nalloc 0 0 -> $b",
     [(1, True, "$a = block 1"), (2, True, "$b = block 2")]),
    ("free: unbound", 8, U + "free $u",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, False, "$u is unbound")]),
    ("free failed", None, A + "free $a\nfree $a",
     [(1, True, "$a = block 1"), (2, True, "freed block 1"), (3, False, "free of block 1 failed")]),
    ("freed block", None, A + "free $a",
     [(1, True, "$a = block 1"), (2, True, "freed block 1")]),
    ("free-list: unbound", 8, A + U + "free-list $a $u",
     [(1, True, "$a = block 1"),
      (2, True, "failed as expected: allocation rejected by the capacity policy"),
      (3, False, "$u is unbound")]),
    ("free-list failed", None, A + "alloc 0 8 -> $b\nfree $b\nfree-list $a $b",
     [(1, True, "$a = block 1"), (2, True, "$b = block 2"), (3, True, "freed block 2"),
      (4, False, "free-list [1, 2] failed")]),
    ("freed blocks", None, A + "alloc 0 8 -> $b\nfree-list $b $a",
     [(1, True, "$a = block 1"), (2, True, "$b = block 2"), (3, True, "freed blocks [2, 1]")]),
    ("store: unbound", 8, U + "store int32 $u 0 (int 1)",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, False, "$u is unbound")]),
    ("store: unbound pointer", 8, A + U + "store int32 $a 0 (ptr $u 0)",
     [(1, True, "$a = block 1"),
      (2, True, "failed as expected: allocation rejected by the capacity policy"),
      (3, False, "pointer value references an unbound variable")]),
    ("store invalid", None, A + "store int32 $a 2 (int 1)",
     [(1, True, "$a = block 1"), (2, False, "store at (1, 2) is not a valid access")]),
    ("stored", None, A + "store int32 $a 4 (ptr 9 -3)",
     [(1, True, "$a = block 1"), (2, True, "stored at (1, 4)")]),
    ("operand load: unbound", 8, U + "expect-fail load int32 $u 0",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, True, "failed as expected: $u is unbound")]),
    ("operand load invalid", None, A + "expect-fail load int32 $a 8",
     [(1, True, "$a = block 1"),
      (2, True, "failed as expected: load at (1, 8) is not a valid access")]),
    ("operand load value", None, A + "store int16s $a 2 (int 70000)\nexpect-fail load int16s $a 2",
     [(1, True, "$a = block 1"), (2, True, "stored at (1, 2)"),
      (3, False, "operation succeeded but was expected to fail ((int 4464))")]),
    ("expect-fail succeeded", None, A + "expect-fail free $a",
     [(1, True, "$a = block 1"),
      (2, False, "operation succeeded but was expected to fail (freed block 1)")]),
    ("expect-fail failed", None, A + "expect-fail store int32 $a 1 (int 1)",
     [(1, True, "$a = block 1"),
      (2, True, "failed as expected: store at (1, 1) is not a valid access")]),
    ("assert-valid: unbound", 8, U + "assert-valid $u",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, False, "$u is unbound")]),
    ("not valid", None, A + "free $a\nassert-valid $a",
     [(1, True, "$a = block 1"), (2, True, "freed block 1"), (3, False, "block 1 is not valid")]),
    ("valid", None, A + "assert-valid $a",
     [(1, True, "$a = block 1"), (2, True, "block 1 is valid")]),
    ("assert-bounds: unbound", 8, U + "assert-bounds $u 0 16",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, False, "$u is unbound")]),
    ("bounds differ", None, A + "assert-bounds $a 0 4",
     [(1, True, "$a = block 1"), (2, False, "bounds of block 1 are (0, 8), not (0, 4)")]),
    ("bounds", None, "alloc -4 12 -> $a\nassert-bounds $a -4 12",
     [(1, True, "$a = block 1"), (2, True, "bounds of block 1 are (-4, 12)")]),
    ("load: unbound", 8, U + "load int32 $u 0 => fail",
     [(1, True, "failed as expected: allocation rejected by the capacity policy"),
      (2, False, "$u is unbound")]),
    ("load succeeded, expected failure", None, A + "load int32 $a 0 => fail",
     [(1, True, "$a = block 1"), (2, False, "load succeeded with undef, expected failure")]),
    ("load failed as expected", None, A + "free $a\nload int32 $a 0 => fail",
     [(1, True, "$a = block 1"), (2, True, "freed block 1"), (3, True, "failed as expected")]),
    ("load: unbound expected pointer", 8, A + U + "load int32 $a 0 => (ptr $u 0)",
     [(1, True, "$a = block 1"),
      (2, True, "failed as expected: allocation rejected by the capacity policy"),
      (3, False, "expected pointer references an unbound variable")]),
    ("load failed, expected a value", None, A + "load int32 $a 8 => (int 1)",
     [(1, True, "$a = block 1"), (2, False, "load failed, expected (int 1)")]),
    ("loaded another value", None,
     A + "store float64 $a 0 (float 0x3FF8000000000000)\nload float32 $a 0 => (int 1)",
     [(1, True, "$a = block 1"), (2, True, "stored at (1, 0)"),
      (3, False, "loaded undef, expected (int 1)")]),
    ("loaded", None, A + "store int32 $a 0 (ptr $a 4)\nload int32 $a 0 => (ptr $a 4)",
     [(1, True, "$a = block 1"), (2, True, "stored at (1, 0)"), (3, True, "loaded (ptr 1 4)")]),
]


@pytest.mark.parametrize("row", EXEC_NOTES, ids=[r[0] for r in EXEC_NOTES])
def test_exec_notes_are_pinned(row):
    _, capacity, text, steps = row
    cfg = MemConfig(capacity=CapacityPolicy(max_total_bytes=capacity))
    report = exec_trace(parse_trace(text), cfg)
    assert [(s.line, s.ok, s.note) for s in report.steps] == steps
    assert report.ok == steps[-1][1]


def test_ref_of_a_rejected_alloc_stays_unbound():
    # Ref k is the k-th alloc statement, whether or not it succeeded: $b1
    # is block 1 here, the first block the capacity admits.
    text = (
        "expect-fail alloc 0 100 -> $b0\n"
        "alloc 0 8 -> $b1\n"
        "store int8u $b1 0 (int 7)\n"
        "load int8u $b1 0 => (int 7)\n"
    )
    report = exec_trace(parse_trace(text), MemConfig(capacity=CapacityPolicy(max_total_bytes=8)))
    assert report.ok and report.env == {"$b1": 1}


def _one_block_trace(n: int) -> str:
    """One alloc and a store, then ``n`` loads, assertions, failing loads and small
    stores on its block."""
    lines = ["alloc 0 64 -> $a", "store int32 $a 0 (int 7)"]
    for k in range(n):
        lines.append((
            "load int32 $a 0 => (int 7)",
            "assert-valid $a",
            "assert-bounds $a 0 64",
            "expect-fail load int32 $a 64",
            f"store int8u $a {8 + k % 56} (int {k % 7})",
        )[k % 5])
    return "\n".join(lines)


def test_a_run_keeps_no_record_per_statement():
    n = 5000
    t = parse_trace(_one_block_trace(n))
    exec_trace(parse_trace(_one_block_trace(5)))  # warm up lazily built module state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = exec_trace(t)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.steps) == n + 2
    assert retained < 16 * (n + 2), f"{retained / (n + 2):.1f} B per statement"
    # Every step is still described when read.
    assert report.steps[-1].note == f"stored at (1, {8 + (n - 1) % 56})"


def test_a_parse_keeps_little_per_statement():
    # Equal literals share one object, so what a statement keeps is its
    # own record, op and line number.
    n = 5000
    text = _one_block_trace(n)
    parse_trace(_one_block_trace(5))  # warm up lazily built module state
    gc.collect()  # else a collection in the parse could free earlier tests' cycles
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = parse_trace(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(t.statements) == n + 2
    assert kept < 175 * (n + 2), f"{kept / (n + 2):.1f} B per statement"


def test_equal_literals_share_one_object():
    t = parse_trace(
        "alloc 0 64 -> $a\n"
        "store int32 $a 0 (int 7)\nload int32 $a 0 => (int 0x7)\n"
        "store float64 $a 8 (float 3ff0000000000000)\n"
        "load float64 $a 8 => (float 0x3FF0000000000000)\n"
        "store int32 $a 16 (ptr $a 4)\nload int32 $a 16 => (ptr $a 4)\n"
        "assert-bounds $a 0 64\nassert-bounds $a 0 64"
    )
    s = t.statements
    assert s[1].op[4] is s[2].expect and s[3].op[4] is s[4].expect and s[5].op[4] is s[6].expect
    assert s[7].expect is s[8].expect == (0, 64)
    # A literal pointer block is not the variable bound to that block.
    p = parse_trace("alloc 0 8 -> $a\nstore int32 $a 0 (ptr 1 0)\nstore int32 $a 4 (ptr $a 0)")
    assert p.statements[1].op[4] != p.statements[2].op[4]


def _collector_states(monkeypatch):
    """The collector's setting seen each time a parse reads an alloc line
    and each time a run or relate makes its first state."""
    seen = []
    read_alloc, empty = trace._READERS["alloc"], memstate.empty

    def recording_alloc(*args):
        seen.append(("parse", gc.isenabled()))
        return read_alloc(*args)

    def recording_empty(*args):
        seen.append(("state", gc.isenabled()))
        return empty(*args)

    monkeypatch.setitem(trace._READERS, "alloc", recording_alloc)
    monkeypatch.setattr(memstate, "empty", recording_empty)
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_trace_work_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    seen = _collector_states(monkeypatch)
    left = parse_trace("alloc 0 8 -> $x\nstore int32 $x 0 (int 3)\n[emb]\n1 -> 1 + 8")
    right = parse_trace("alloc 8 16 -> $y\nstore int32 $y 8 (int 3)\n[emb]\n1 -> 1 + 0")
    right_plain = parse_trace("alloc 8 16 -> $y\nstore int32 $y 8 (int 3)")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        parse_trace(READ_AFTER_WRITE)
        assert gc.isenabled() is enabled
        exec_trace(left)
        assert gc.isenabled() is enabled
        relate(left, right, "inject", emb={1: (1, 8)})
        assert gc.isenabled() is enabled
        relate(right_plain, right_plain, "lessdef", stepwise=True)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="section is for inject"):
            relate(left, left, "lessdef", stepwise=True)
        assert gc.isenabled() is enabled
        with pytest.raises(TraceParseError):
            parse_trace(A + "free $b")
        assert gc.isenabled() is enabled
        for stepwise in (False, True):
            with pytest.raises(ValueError, match="different"):
                relate(left, right, "inject", stepwise=stepwise)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert {where for where, _ in seen} == {"parse", "state"}
    assert not any(enabled for _, enabled in seen)


def _no_cycles_left(work) -> int:
    """The objects that ``work()`` left unreachable, run with the collector
    off after a warm-up run; reference counting frees all other garbage."""
    work()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was:
            gc.enable()


TRACES = Path(__file__).resolve().parents[1] / "traces"


def test_trace_work_builds_no_cycles():
    long_text = _one_block_trace(200)

    def run_long():
        assert exec_trace(parse_trace(long_text)).ok

    def run_shipped():
        for path in sorted(TRACES.iterdir()):
            text = path.read_text()
            if path.suffix == ".emb":
                parse_embedding(text)
            else:
                exec_trace(parse_trace(text))

    long_trace = parse_trace(long_text)
    pack = [parse_trace((TRACES / f"pack_{side}.trace").read_text()) for side in ("left", "right")]
    pack_emb = parse_embedding((TRACES / "pack.emb").read_text())

    def relate_stepwise():
        assert relate(long_trace, long_trace, "lessdef", stepwise=True).ok

    def relate_pack():
        assert relate(*pack, "inject", emb=pack_emb).ok

    for work in (run_long, run_shipped, relate_stepwise, relate_pack):
        assert _no_cycles_left(work) == 0, work.__name__


def test_runs_leave_the_empty_map_empty():
    # Every block starts on the shared EMPTY_CONTENTS; a run copies a map
    # before it first writes one, so the shared map is never written.
    t = parse_trace(_one_block_trace(50))
    assert exec_trace(t).ok
    assert cells.EMPTY_CONTENTS == {}
    assert relate(t, t, "lessdef", stepwise=True).ok
    assert cells.EMPTY_CONTENTS == {}


@contextlib.contextmanager
def _collector_on():
    was = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was:
            gc.disable()


def test_trace_work_leaves_no_young_collection_behind():
    # A paused call promotes what it leaves alive to the oldest generation,
    # so the next allocation does not start a generation-0 collection that
    # walks all of it and frees nothing.
    t = parse_trace(_one_block_trace(2000))
    threshold = gc.get_threshold()[0]
    with _collector_on():
        parse_trace(_one_block_trace(2000))
        after_parse = gc.get_count()[0]
        report = exec_trace(t)
        after_run = gc.get_count()[0]
        stepwise = relate(t, t, "lessdef", stepwise=True)
        after_relate = gc.get_count()[0]
    assert report.ok and stepwise.ok
    assert max(after_parse, after_run, after_relate) < threshold, (
        after_parse, after_run, after_relate
    )


def test_trace_work_keeps_a_callers_frozen_objects_frozen():
    t = parse_trace(READ_AFTER_WRITE)
    with _collector_on():
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            parse_trace(READ_AFTER_WRITE)
            exec_trace(t)
            relate(t, t, "lessdef", stepwise=True)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


class _Node:
    pass


def test_a_callers_cycle_is_still_freed_after_trace_work():
    # The promotion moves a caller's young objects to the oldest
    # generation, where a full collection still reaches them.
    t = parse_trace(READ_AFTER_WRITE)
    freed = []
    with _collector_on():
        gc.collect()
        node = _Node()
        node.me = node
        weakref.finalize(node, freed.append, True)
        del node
        exec_trace(t)
        relate(t, t, "lessdef", stepwise=True)
        assert not freed and gc.get_freeze_count() == 0
        gc.collect()
    assert freed


def test_parse_embedding_file():
    emb = parse_embedding("[emb]\n# comment\n1 -> 2 + 8\n3 -> 2 + -16\n")
    assert emb == {1: (2, 8), 3: (2, -16)}


def _diagnostic(parse, text):
    with pytest.raises(TraceParseError) as e:
        parse(text)
    return e.value.line, e.value.column, e.value.message


def test_parse_embedding_rejects_trailing_tokens():
    text = "1 -> 2 + 0 junk\n3 -> 4 + 8 ( (\n[emb] extra"
    assert _diagnostic(parse_embedding, text) == (1, 12, "unexpected trailing token")
    text = "1 -> 2 + 0\n3 -> 4 + 8 ( ("
    assert _diagnostic(parse_embedding, text) == (2, 12, "unexpected trailing token")
    text = "1 -> 2 + 0\n\t[emb] extra"
    assert _diagnostic(parse_embedding, text) == (2, 8, "unexpected token after [emb]")


def test_relocation_map_rejects_a_block_mapped_twice():
    text = "1 -> 2 + 0\n# again\n 0x1 -> 3 + 8"
    assert _diagnostic(parse_embedding, text) == (3, 2, "block 1 is already mapped")
    text = "alloc 0 8 -> $a\n[emb]\n1 -> 2 + 0\n1 -> 3 + 8"
    assert _diagnostic(parse_trace, text) == (4, 1, "block 1 is already mapped")


def test_relate_lessdef_and_inject():
    t1 = parse_trace("alloc 0 8 -> $x\nstore int32 $x 0 (int 1)")
    t2 = parse_trace("alloc 0 8 -> $y\nstore int32 $y 0 (int 1)")
    assert relate(t1, t2, "lessdef").ok
    assert relate(t1, t2, "extends").ok
    assert relate(t1, t2, "inject", emb={1: (1, 0)}).ok
    # refinement: left stores nothing where right stores a defined value
    tu = parse_trace("alloc 0 8 -> $x")
    assert relate(tu, t2, "lessdef").ok
    assert not relate(t2, tu, "lessdef").ok
    # a trace whose assertion fails relates nothing
    bad = parse_trace("alloc 0 8 -> $y\nload int32 $y 0 => (int 1)")
    r = relate(t1, bad, "lessdef")
    assert not r.ok and r.message.startswith("right trace failed at line 2:")


def test_relate_uses_trace_emb_section():
    t1 = parse_trace("alloc 0 8 -> $x\nstore int32 $x 4 (int 3)")
    t2 = parse_trace("alloc 8 16 -> $y\nstore int32 $y 12 (int 3)\n[emb]\n1 -> 1 + 8")
    assert relate(t1, t2, "inject").ok


def test_relate_inject_needs_emb():
    t = parse_trace("alloc 0 8 -> $x")
    with pytest.raises(ValueError):
        relate(t, t, "inject")


@pytest.mark.parametrize("relation", ["lessdef", "extends"])
def test_relate_rejects_a_map_for_a_relation_along_the_identity(relation):
    # A map the relation would ignore is refused, not silently dropped.
    t = parse_trace("alloc 0 8 -> $x")
    for stepwise in (False, True):
        with pytest.raises(ValueError, match="relocation map is for inject"):
            relate(t, t, relation, emb={1: (1, 0)}, stepwise=stepwise)
    assert relate(t, t, relation).ok


@pytest.mark.parametrize("relation", ["lessdef", "extends"])
def test_relate_rejects_an_emb_section_for_a_relation_along_the_identity(relation):
    # A trace's own map is refused as a passed one is: on either side,
    # whole-state and stepwise.
    plain = parse_trace("alloc 0 8 -> $x")
    mapped = parse_trace("alloc 0 8 -> $x\n[emb]\n1 -> 1 + 8")
    for pair in ((mapped, mapped), (mapped, plain), (plain, mapped)):
        for stepwise in (False, True):
            with pytest.raises(ValueError, match=r"\[emb\] section is for inject"):
                relate(*pair, relation, stepwise=stepwise)
    assert relate(plain, plain, relation).ok


def test_relate_rejects_two_different_emb_sections():
    # The left map relates these two traces, the right one does not; with
    # no --emb, neither silently wins.
    t1 = parse_trace("alloc 0 8 -> $x\nstore int32 $x 0 (int 3)\n[emb]\n1 -> 1 + 8")
    t2 = parse_trace("alloc 8 16 -> $y\nstore int32 $y 8 (int 3)\n[emb]\n1 -> 1 + 0")
    with pytest.raises(ValueError, match="different"):
        relate(t1, t2, "inject")
    with pytest.raises(ValueError, match="different"):
        relate(t1, t2, "inject", stepwise=True)
    assert relate(t1, t2, "inject", emb={1: (1, 8)}).ok
    same = parse_trace("alloc 8 16 -> $y\nstore int32 $y 8 (int 3)\n[emb]\n1 -> 1 + 8")
    assert relate(t1, same, "inject").ok
    assert relate(t1, same, "inject", stepwise=True).ok


def test_relate_stepwise():
    t1 = parse_trace("alloc 0 8 -> $x\nstore int32 $x 0 (int 1)")
    t2 = parse_trace("alloc 0 8 -> $y\nstore int32 $y 0 (int 1)")
    r = relate(t1, t2, "lessdef", stepwise=True)
    assert r.ok and len(r.steps) == 2
    short = parse_trace("alloc 0 8 -> $x")
    assert not relate(t1, short, "lessdef", stepwise=True).ok
    # extends: the right block is wider and written outside the left bounds.
    wide = parse_trace("alloc -8 16 -> $y\nstore int32 $y 0 (int 1)\nstore int32 $y -8 (int 9)")
    t1x = parse_trace("alloc 0 8 -> $x\nstore int32 $x 0 (int 1)\nassert-valid $x")
    r = relate(t1x, wide, "extends", stepwise=True)
    assert r.ok and r.steps == [(0, True), (1, True), (2, True)]
    r = relate(t1x, wide, "lessdef", stepwise=True)
    assert r.steps == [(0, False)] and r.message == "lessdef fails after statement 1"
    # inject: the right block holds the left one 8 bytes in.
    moved = parse_trace("alloc 0 16 -> $y\nstore int32 $y 8 (int 1)")
    r = relate(t1, moved, "inject", emb={1: (1, 8)}, stepwise=True)
    assert r.ok and r.steps == [(0, True), (1, True)]
    r = relate(t1, moved, "inject", emb={1: (1, 0)}, stepwise=True)
    assert r.steps == [(0, True), (1, False)] and r.message == "inject fails after statement 2"


def test_stepwise_relate_sees_a_store_of_another_value():
    smoke = TRACES.parent / "tests" / "smoke"
    t1 = parse_trace((smoke / "store_left.trace").read_text())
    t2 = parse_trace((smoke / "store_right.trace").read_text())
    r = relate(t1, t2, "lessdef", stepwise=True)
    assert r.steps == [(0, True), (1, False)]
    assert r.message == "lessdef fails after statement 2"


CHANGES = """\
alloc 0 16 -> $a
alloc 0 8 -> $b
expect-fail alloc 0 64 -> $c
store int32 $a 0 (int 1)
store int32 $b 0 (ptr $a 0)
load int32 $a 0 => (int 1)
assert-valid $a
assert-bounds $b 0 8
expect-fail store int32 $a 2 (int 1)
expect-fail store int32 $c 0 (int 1)
expect-fail store int32 $a 0 (ptr $c 0)
expect-fail load int32 $a 16
free $b
expect-fail free $b
expect-fail free-list $a $a
alloc 0 8 -> $d
free-list $a $d
"""


def test_changed_blocks_are_read_from_the_outcome():
    # A step's changed blocks come from its op and outcome alone: none for
    # a load, a query or a failed op, the new block for an alloc, and the
    # blocks of its refs for a store, free or free-list.
    m = memstate.transient(memstate.empty(MemConfig(capacity=CapacityPolicy(64))))
    blocks, env, changed = [], {}, []
    for stmt in parse_trace(CHANGES).statements:
        m, ok, got = trace._step(stmt, m, blocks, env)
        assert ok, stmt.line
        changed.append(trace._changed(stmt.op, got, blocks))
    assert changed == [
        (1,), (2,), (), (1,), (2,), (), (), (), (), (), (), (), (2,), (), (), (3,), (1, 3),
    ]
    assert trace._changed(("valid", 0), True, blocks) == ()
    assert trace._changed(("fresh", 0), True, blocks) == ()


def test_steps_slice_as_a_list():
    text = "alloc 0 8 -> $a\nstore int32 $a 0 (int 42)\nassert-valid $a\nload int32 $a 0 => (int 7)"
    report = exec_trace(parse_trace(text))
    steps = report.steps
    listed = [steps[k] for k in range(len(steps))]
    assert steps[1:3] == listed[1:3] and len(steps[1:3]) == 2
    assert steps[2:] == [listed[2], report.failure]
    assert steps[::-1] == listed[::-1] and steps[:] == listed
    assert steps[9:] == [] and steps[-2:-1] == [listed[2]]


def _grammar_ops(rng):
    """Random ops expressible in the trace grammar (no probe refs); a free
    at an odd position becomes a free_list, which sampled scenarios never
    hold."""
    ops = []
    for op in sample_ops(rng):
        if op[0] in ("valid", "fresh"):
            continue
        refs = [op[2]] if op[0] in ("store", "load") else [] if op[0] == "alloc" else [op[1]]
        if any(r < 0 for r in refs):
            continue
        if op[0] == "free" and len(ops) % 2:
            op = ("free_list", (op[1],))
        ops.append(op)
    return ops


def _ops_to_trace(ops, outcomes):
    """Render ops as a trace whose expectations are the real outcomes."""
    from blockmem.chunks import value_text

    lines = []
    k = 0
    for op, out in zip(ops, outcomes):
        if op[0] == "alloc":
            line = f"alloc {op[1]} {op[2]} -> $b{k}"
            k += 1
        elif op[0] == "free":
            line = f"free $b{op[1]}"
        elif op[0] == "free_list":
            line = "free-list " + " ".join(f"$b{r}" for r in op[1])
        elif op[0] == "bounds":
            lines.append(f"assert-bounds $b{op[1]} {out[1][0]} {out[1][1]}")
            continue
        elif op[0] == "store":
            line = f"store {op[1].token} $b{op[2]} {op[3]} {value_text(op[4])}"
        else:
            expect = "fail" if out[1] is None else value_text(out[1])
            lines.append(f"load {op[1].token} $b{op[2]} {op[3]} => {expect}")
            continue
        if out[1] in (None, False):
            line = "expect-fail " + line
        lines.append(line)
    return "\n".join(lines)


def test_exec_trace_matches_oracle_observably():
    rng = SplitMix64(505)
    for _ in range(150):
        ops = _grammar_ops(rng)
        main = run_ops(ops)
        _, oracle_outcomes = oracle_exec(ops)
        assert oracle_outcomes == main.outcomes
        text = _ops_to_trace(ops, main.outcomes)
        report = exec_trace(parse_trace(text))
        assert report.ok, (text, report.failure)
