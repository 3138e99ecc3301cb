"""Case domains: one description of a law's cases, read two ways.

A domain is one type, ``Domain``: a random draw ``draw(rng)`` and an
exhaustive scope ``cases()``.  The draw makes one random case through the
exact ``SplitMix64`` calls that pick its options; ``cases()`` iterates
every combination of the scopes, lazily, in the order of nested loops (the
last choice varies fastest).  This is how SmallCheck and QuickCheck read
one generator description as a bounded enumeration and as a random draw.

Every combinator is a function that builds a ``Domain`` from its parts'
draws and cases:

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
  their draws built once.  A part may be a constant.  ``extend(head,
  *tails)`` grows a tuple by tuples; ``lists(length, item)`` is a tuple
  of a drawn number of items.
- ``d.map(f)`` applies ``f`` to every value; ``d.scoped(values)`` keeps
  the draw and states the scope outright.
- A part of ``tuples`` or a tail of ``extend`` that depends on what comes
  before it is ``given(draw, scope)``, the one other type: ``draw(rng,
  prefix)`` reads the stream the way a domain built from the prefix would,
  and ``scope(prefix)`` iterates that domain's cases, so neither reading
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
    """A draw ``draw(rng)`` and its exhaustive scope ``cases()``."""

    __slots__ = ("draw", "cases")

    def __init__(self, draw, cases):
        self.draw = draw
        self.cases = cases

    def map(self, f) -> "Domain":
        draw, cases = self.draw, self.cases
        return Domain(lambda rng: f(draw(rng)), lambda: map(f, cases()))

    def scoped(self, scope) -> "Domain":
        """The same draw, with the exhaustive scope ``scope``."""
        return source(self.draw, scope)


class Given:
    """A domain over an argument, read without building it: ``draw(rng,
    x)`` draws from the domain for ``x``, and ``scope(x)`` iterates its
    cases."""

    __slots__ = ("draw", "scope")

    def __init__(self, draw, scope):
        self.draw = draw
        self.scope = scope


given = Given


def source(draw, scope) -> Domain:
    """A draw with a menu; ``scope`` may be a function that builds the menu
    at each enumeration."""
    return Domain(draw, lambda: iter(scope() if callable(scope) else scope))


def pick(options, scope=None) -> Domain:
    def draw(rng):
        return choose(rng, options)

    if scope is None:
        return Domain(draw, lambda: iter(dict.fromkeys(options)))
    return source(draw, scope)


def ints(lo: int, hi: int, scope=None) -> Domain:
    span = hi - lo + 1
    return Domain(
        lambda rng: lo + rng.next_u64() % span,
        lambda: iter(range(lo, hi + 1) if scope is None else scope),
    )


def const(value) -> Domain:
    return Domain(lambda rng: value, lambda: iter((value,)))


def branch(*arms) -> Domain:
    total = sum(map(itemgetter(0), arms))
    draws = tuple((w, d.draw) for w, d in arms)

    def draw(rng):
        r = rng.next_u64() % total
        for w, arm in draws:
            if r < w:
                return arm(rng)
            r -= w
        raise AssertionError("unreachable")

    return Domain(draw, lambda: chain.from_iterable(d.cases() for _, d in arms))


def tuples(*parts) -> Domain:
    parts = tuple(p if isinstance(p, (Domain, Given)) else const(p) for p in parts)
    draws = tuple(p.draw for p in parts)
    if not any(isinstance(p, Given) for p in parts):
        return Domain(
            lambda rng: tuple([draw(rng) for draw in draws]),
            lambda: product(*[p.cases() for p in parts]),
        )

    def draw(rng):
        out = ()
        for p in parts:
            out += (p.draw(rng, out) if isinstance(p, Given) else p.draw(rng),)
        return out

    def cases():
        it = iter(((),))
        for p in parts:
            it = chain.from_iterable(map(_grow(p), it))
        return it

    return Domain(draw, cases)


def _grow(part):
    """For a prefix ``c``: the prefix followed by each value of ``part``."""
    if isinstance(part, Domain):
        return lambda c: ((*c, x) for x in part.cases())
    return lambda c: ((*c, x) for x in part.scope(c))


def extend(head: Domain, *tails) -> Domain:
    """Tuples of ``head`` followed by one tuple from each tail in turn.  A
    tail is a domain of tuples, or one given the case so far."""

    def draw(rng):
        case = head.draw(rng)
        for tail in tails:
            case += tail.draw(rng, case) if isinstance(tail, Given) else tail.draw(rng)
        return case

    def cases():
        it = head.cases()
        for tail in tails:
            if isinstance(tail, Given):
                it = chain.from_iterable(map(lambda c, t=tail: map(c.__add__, t.scope(c)), it))
            else:
                it = starmap(add, product(it, tuple(tail.cases())))
        return it

    return Domain(draw, cases)


def lists(length: Domain, item: Domain) -> Domain:
    """Tuples of ``length`` values of ``item``."""
    draw_length, draw_item = length.draw, item.draw

    def cases():
        items = tuple(item.cases())
        return chain.from_iterable(product(items, repeat=n) for n in length.cases())

    return Domain(lambda rng: tuple([draw_item(rng) for _ in range(draw_length(rng))]), cases)


def sampler(domain: Domain):
    """The random reading: a case, or ``("skip",)`` at an empty choice."""
    draw = domain.draw

    def sample(rng):
        try:
            return draw(rng)
        except Skip:
            return SKIP

    return sample
