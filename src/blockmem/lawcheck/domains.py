"""Case domains: one description of a law's cases, read two ways.

A domain is built from a few combinators.  Each choice point carries its
random draw, the exact ``SplitMix64`` call that picks one option, and its
exhaustive scope, the options the exhaustive phase takes there.  Reading a
domain with ``draw(rng)`` makes one random case; reading it with
``cases()`` iterates every combination of the scopes, lazily, in the
order of nested loops (the last choice varies fastest).  This is how
SmallCheck and QuickCheck read one generator description as a bounded
enumeration and as a random draw.

- ``pick(options)`` draws ``rng.choice(options)``; ``ints(lo, hi)`` draws
  ``rng.randint(lo, hi)``.  Both take an optional ``scope`` (for ``pick``,
  possibly a function that computes it when enumerated); by default the
  scope is every option (each once).  ``const(v)`` draws nothing.
- ``source(draw, scope)`` states a draw and its scope outright: its draw
  is a function of the stream (a scenario sampler, say), its scope a menu.
- ``branch((w1, d1), (w2, d2), ...)`` draws ``rng.below(w1 + w2 + ...)``
  and continues in the arm it lands in, so ``rng.chance(a, b)`` is
  ``branch((a, yes), (b - a, no))``; its scope is every arm's scope.
- ``tuples(d1, d2, ...)`` draws its parts in order, through a tuple of
  their ``draw`` methods built once.  A part may be a constant.
  ``extend(head, *tails)`` grows a tuple by tuples; ``lists(length,
  item)`` is a tuple of a drawn number of items.
- ``d.map(f)`` applies ``f`` to every value; ``d.scoped(values)`` keeps
  the draw and states the scope outright.
- A part of ``tuples`` or a tail of ``extend`` that depends on what comes
  before it is ``given(draw, scope)``: ``draw(rng, prefix)`` reads the
  stream the way a domain built from the prefix would, and
  ``scope(prefix)`` iterates that domain's cases, so neither reading
  builds a domain per prefix.
- An empty choice is a skip: ``pick(())`` raises ``Skip`` in a draw and
  has no cases, and ``choose(rng, ())`` raises it in a direct draw.
"""

from __future__ import annotations

from itertools import chain, product, starmap
from operator import add, itemgetter


class Skip(Exception):
    """Raised by a draw that meets an empty choice."""


SKIP = ("skip",)


def choose(rng, options):
    """``pick(options)``'s draw: one u64, and ``Skip`` when empty."""
    if not options:
        raise Skip
    return options[rng.next_u64() % len(options)]


class Domain:
    """The base of the combinators: ``draw(rng)`` and ``cases()``."""

    __slots__ = ()

    def map(self, f) -> "Domain":
        return Map(self, f)

    def scoped(self, scope) -> "Domain":
        """The same draw, with the exhaustive scope ``scope``."""
        return Source(self.draw, scope)


class Pick(Domain):
    __slots__ = ("options", "scope")

    def __init__(self, options, scope=None):
        self.options = options
        self.scope = scope

    def draw(self, rng):
        return choose(rng, self.options)

    def cases(self):
        if self.scope is None:
            return iter(dict.fromkeys(self.options))
        return iter(self.scope() if callable(self.scope) else self.scope)


class Ints(Domain):
    __slots__ = ("lo", "hi", "scope")

    def __init__(self, lo: int, hi: int, scope=None):
        self.lo, self.hi, self.scope = lo, hi, scope

    def draw(self, rng):
        return self.lo + rng.next_u64() % (self.hi - self.lo + 1)

    def cases(self):
        return iter(range(self.lo, self.hi + 1) if self.scope is None else self.scope)


class Source(Domain):
    """A draw with a menu; ``scope`` may be a function that builds the menu
    at each enumeration."""

    __slots__ = ("draw", "scope")

    def __init__(self, draw, scope):
        self.draw = draw
        self.scope = scope

    def cases(self):
        return iter(self.scope() if callable(self.scope) else self.scope)


class Const(Domain):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def draw(self, rng):
        return self.value

    def cases(self):
        return iter((self.value,))


class Branch(Domain):
    __slots__ = ("arms", "total")

    def __init__(self, *arms):
        self.arms = arms
        self.total = sum(map(itemgetter(0), arms))

    def draw(self, rng):
        r = rng.next_u64() % self.total
        for w, d in self.arms:
            if r < w:
                return d.draw(rng)
            r -= w
        raise AssertionError("unreachable")

    def cases(self):
        return chain.from_iterable(d.cases() for _, d in self.arms)


class Given:
    """A domain over an argument, read without building it: ``draw(rng,
    x)`` draws from the domain for ``x``, and ``scope(x)`` iterates its
    cases."""

    __slots__ = ("draw", "scope")

    def __init__(self, draw, scope):
        self.draw = draw
        self.scope = scope


class Tuples(Domain):
    __slots__ = ("parts", "draws", "dependent")

    def __init__(self, *parts):
        self.parts = tuple(p if isinstance(p, (Domain, Given)) else Const(p) for p in parts)
        self.draws = tuple(p.draw for p in self.parts)
        self.dependent = any(isinstance(p, Given) for p in self.parts)

    def draw(self, rng):
        if not self.dependent:
            return tuple([draw(rng) for draw in self.draws])
        out = ()
        for p in self.parts:
            out += (p.draw(rng, out) if isinstance(p, Given) else p.draw(rng),)
        return out

    def cases(self):
        if not self.dependent:
            return product(*[p.cases() for p in self.parts])
        it = iter(((),))
        for p in self.parts:
            it = chain.from_iterable(map(_grow(p), it))
        return it


def _grow(part):
    """For a prefix ``c``: the prefix followed by each value of ``part``."""
    if isinstance(part, Domain):
        return lambda c: ((*c, x) for x in part.cases())
    return lambda c: ((*c, x) for x in part.scope(c))


class Extend(Domain):
    """Tuples of ``head`` followed by one tuple from each tail in turn.  A
    tail is a domain of tuples, or one given the case so far."""

    __slots__ = ("head", "tails")

    def __init__(self, head: Domain, *tails):
        self.head, self.tails = head, tails

    def draw(self, rng):
        case = self.head.draw(rng)
        for tail in self.tails:
            case += tail.draw(rng, case) if isinstance(tail, Given) else tail.draw(rng)
        return case

    def cases(self):
        it = self.head.cases()
        for tail in self.tails:
            if isinstance(tail, Given):
                it = chain.from_iterable(map(lambda c, t=tail: map(c.__add__, t.scope(c)), it))
            else:
                it = starmap(add, product(it, tuple(tail.cases())))
        return it


class Lists(Domain):
    """Tuples of ``length`` values of ``item``."""

    __slots__ = ("length", "item")

    def __init__(self, length: Domain, item: Domain):
        self.length, self.item = length, item

    def draw(self, rng):
        n, draw = self.length.draw(rng), self.item.draw
        return tuple([draw(rng) for _ in range(n)])

    def cases(self):
        items = tuple(self.item.cases())
        return chain.from_iterable(product(items, repeat=n) for n in self.length.cases())


class Map(Domain):
    __slots__ = ("d", "f")

    def __init__(self, d: Domain, f):
        self.d, self.f = d, f

    def draw(self, rng):
        return self.f(self.d.draw(rng))

    def cases(self):
        return map(self.f, self.d.cases())


pick, ints, source, const, branch = Pick, Ints, Source, Const, Branch
tuples, extend, lists, given = Tuples, Extend, Lists, Given


def sampler(domain: Domain):
    """The random reading: a case, or ``("skip",)`` at an empty choice."""
    draw = domain.draw

    def sample(rng):
        try:
            return draw(rng)
        except Skip:
            return SKIP

    return sample
