"""Persistent vectors: immutable sequences whose updates share structure.

A vector of n elements is a 32-way trie of tuples (Bagwell, *Ideal Hash
Trees*, 2001; the Clojure PersistentVector design).  Leaves hold the
elements; an inner node at ``shift`` holds children covering
``32 << (shift - 5)`` indices each.  ``set`` and ``append`` copy only the
path from the root to one leaf, at most ``32 * depth`` slots, and return a
new vector that shares every other node with the old one, which stays
valid and unchanged.  The trie gains a level when its root is full.

A run that keeps none of its intermediate versions pays for that
persistence on every update.  ``Transient`` is the mutable twin (Clojure's
transients): a list with the same ``get``/``set``/``append``/iteration
contract, whose ``set`` and ``append`` update it in place and return it.
``of`` takes one persistent snapshot of it, in O(n), shaped exactly as n
appends would have built it.  A transient is owned by the one run that
made it: it is updated only through the value its last update returned,
and never handed out; the run hands back ``of`` of it instead.
"""

from __future__ import annotations

from itertools import chain

BITS = 5
MASK = (1 << BITS) - 1
WIDTH = MASK + 1


class PVec:
    """An immutable vector with O(log32 n) ``get``, ``set`` and ``append``."""

    __slots__ = ("size", "shift", "root")

    def __init__(self, size: int = 0, shift: int = 0, root: tuple = ()) -> None:
        self.size = size
        self.shift = shift
        self.root = root

    def __len__(self) -> int:
        return self.size

    def get(self, i: int):
        if not 0 <= i < self.size:
            raise IndexError(i)
        node, shift = self.root, self.shift
        while shift:
            node = node[i >> shift & MASK]
            shift -= BITS
        return node[i & MASK]

    def set(self, i: int, x) -> PVec:
        if not 0 <= i < self.size:
            raise IndexError(i)
        return PVec(self.size, self.shift, _assoc(self.root, self.shift, i, x))

    def append(self, x) -> PVec:
        n, shift = self.size, self.shift
        if n == WIDTH << shift:  # root full: a new root over the old one
            return PVec(n + 1, shift + BITS, (self.root, _path(shift, x)))
        return PVec(n + 1, shift, _push(self.root, shift, n, x))

    def __iter__(self):
        return chain.from_iterable(_leaves(self.root, self.shift))

    def __repr__(self) -> str:
        return f"PVec({list(self)!r})"

    def __eq__(self, other) -> bool:
        # Equal sizes give equal shapes; tuple comparison skips shared
        # subtrees by identity.
        if not isinstance(other, PVec):
            return NotImplemented
        return self.size == other.size and self.root == other.root


def _assoc(node: tuple, shift: int, i: int, x) -> tuple:
    out = list(node)
    k = i >> shift & MASK
    out[k] = x if shift == 0 else _assoc(node[k], shift - BITS, i, x)
    return tuple(out)


def _push(node: tuple, shift: int, i: int, x) -> tuple:
    """``node`` with index ``i``, one past its last element, set to ``x``."""
    if shift == 0:
        return node + (x,)
    k = i >> shift & MASK
    if k == len(node):
        return node + (_path(shift - BITS, x),)
    return node[:k] + (_push(node[k], shift - BITS, i, x),)


def _path(shift: int, x) -> tuple:
    """A node at ``shift`` whose only element is ``x``."""
    node = (x,)
    for _ in range(shift // BITS):
        node = (node,)
    return node


def _leaves(node: tuple, shift: int):
    if shift == 0:
        yield node
    else:
        for child in node:
            yield from _leaves(child, shift - BITS)


def of(items) -> PVec:
    """The persistent vector of ``items``, in O(n): full leaves and inner
    nodes left to right and the root one level above the last full one,
    the shape that appending the items one by one builds."""
    items = tuple(items)
    nodes = [items[k : k + WIDTH] for k in range(0, len(items), WIDTH)]
    shift = 0
    while len(nodes) > 1:
        nodes = [tuple(nodes[k : k + WIDTH]) for k in range(0, len(nodes), WIDTH)]
        shift += BITS
    return PVec(len(items), shift, nodes[0] if nodes else ())


class Transient:
    """A mutable vector with ``PVec``'s contract, backed by a list:
    ``set`` and ``append`` update it in place and return it.  Owned by the
    run that made it (see the module docstring)."""

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def get(self, i: int):
        if i < 0:
            raise IndexError(i)
        return self.items[i]

    def set(self, i: int, x) -> Transient:
        if i < 0:
            raise IndexError(i)
        self.items[i] = x
        return self

    def append(self, x) -> Transient:
        self.items.append(x)
        return self

    def __iter__(self):
        return iter(self.items)

    def __repr__(self) -> str:
        return f"Transient({self.items!r})"
