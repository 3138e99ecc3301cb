"""Fuzzing the trace front end: the parser is total, printing round-trips,
a run's step view agrees with the run, and the CLI answers every input
with an exit code."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from blockmem.chunks import Chunk
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
