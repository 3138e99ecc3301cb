"""The persistent vector against a Python list, old versions included;
its O(n) builder against appends; the transient against a list."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from blockmem import pvec
from blockmem.pvec import PVec, Transient

# Sizes at which the trie gains a level, and their neighbours.
BOUNDARIES = (0, 1, 31, 32, 33, 1023, 1024, 1025, 32767, 32768, 32769)


def _same(v: PVec, model: list) -> None:
    assert len(v) == len(model)
    assert list(v) == model
    for i in (0, len(model) // 2, len(model) - 1):
        if 0 <= i < len(model):
            assert v.get(i) == model[i]


def test_empty():
    v = PVec()
    assert len(v) == 0 and list(v) == []
    with pytest.raises(IndexError):
        v.get(0)
    with pytest.raises(IndexError):
        v.set(0, 1)


Ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers()),
        st.tuples(st.just("set"), st.integers(0, 200), st.integers()),
    ),
    max_size=120,
)


@settings(max_examples=200)
@given(Ops)
def test_random_ops_keep_every_version(ops):
    versions = [(PVec(), [])]
    for op in ops:
        v, model = versions[-1]
        if op[0] == "append":
            v, model = v.append(op[1]), model + [op[1]]
        elif model:
            i = op[1] % len(model)
            v, model = v.set(i, op[2]), model[:i] + [op[2]] + model[i + 1 :]
        versions.append((v, model))
        for old, old_model in versions:
            _same(old, old_model)
            assert all(old.get(i) == x for i, x in enumerate(old_model))


def test_across_depth_boundaries():
    rng = random.Random(5)
    v, model, kept = PVec(), [], []
    while len(model) < BOUNDARIES[-1]:
        prev, v = v, v.append(len(model))
        model.append(len(model))
        assert len(prev) == len(model) - 1 and v.get(len(prev)) == model[-1]
        if prev:
            assert prev.get(len(prev) - 1) == model[len(prev) - 1]
        if len(model) not in BOUNDARIES:
            continue
        for _ in range(40):
            i, x = rng.randrange(len(model)), rng.randrange(10**6)
            w = v.set(i, x)
            assert w.get(i) == x and v.get(i) == model[i]
            v, model[i] = w, x
        kept.append((v, list(model)))
        for old, old_model in kept:
            _same(old, old_model)
    for old, old_model in kept:
        assert all(old.get(i) == x for i, x in enumerate(old_model))
        with pytest.raises(IndexError):
            old.get(len(old_model))


def test_equality_is_by_elements():
    a, b = PVec(), PVec()
    for k in range(1500):
        a, b = a.append(k), b.append(k)
    assert a == b and a is not b
    assert a.set(700, -1) != b
    assert a.set(700, -1) == b.set(700, -1)
    assert a.append(0) != b


@pytest.mark.parametrize("n", (0, 1, 31, 32, 33, 1024, 1025, 32768, 32769))
def test_of_builds_the_shape_of_appends(n):
    v = PVec()
    for k in range(n):
        v = v.append(k)
    built = pvec.of(range(n))
    assert built == v and built.shift == v.shift and len(built) == n
    assert list(built) == list(range(n))
    assert built.append(n) == v.append(n)


@settings(max_examples=200)
@given(
    st.lists(st.integers(), max_size=40),
    st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers()),
            st.tuples(st.just("set"), st.integers(0, 200), st.integers()),
            st.tuples(st.just("get"), st.integers(0, 200)),
            st.tuples(st.just("iter")),
        ),
        max_size=120,
    ),
)
def test_transient_matches_a_list(start, ops):
    t, model = Transient(start), list(start)
    for op in ops:
        if op[0] == "append":
            assert t.append(op[1]) is t
            model.append(op[1])
        elif op[0] == "iter":
            assert list(t) == model
        elif model:
            i = op[1] % len(model)
            if op[0] == "set":
                assert t.set(i, op[2]) is t
                model[i] = op[2]
            else:
                assert t.get(i) == model[i]
        assert len(t) == len(model)
    assert list(t) == model and pvec.of(t) == pvec.of(model)


@pytest.mark.parametrize("n", (0, 1, 33))
def test_transient_get_and_set_raise_outside_the_vector(n):
    t, v = Transient(range(n)), pvec.of(range(n))
    for i in (-1, n, n + 1):
        for vec in (t, v):
            with pytest.raises(IndexError):
                vec.get(i)
            with pytest.raises(IndexError):
                vec.set(i, 0)
    assert list(t) == list(range(n))
