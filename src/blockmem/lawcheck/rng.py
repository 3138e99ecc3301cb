"""Deterministic pseudo-random numbers for reproducible law runs.

The generator is splitmix64: the state advances by the 64-bit golden-ratio
increment and each output is the mix of the new state.  It is tiny, fast,
and produces identical sequences on every platform, which the replayable
report format depends on.

A random case has two parts, each from its own stream, and both streams
are named by folding a string (FNV-1a) into the master seed:

- the *scenario*, the operations or plan that build the case's states,
  comes from a stream per scenario domain (``scenario_stream``), shared by
  every law that draws from that domain;
- the *assignment*, the law's own choices on those states, comes from the
  law's stream (``law_stream``).

A law asks its stream for each scenario (``LawStream.scenario``), and the
stream serves its k-th request with scenario k of the domain.  Neither part
depends on which other laws run or in what order.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n)."""
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.next_u64() % den < num


SCENARIOS: dict = {}  # (seed, domain) -> (stream, scenarios drawn so far)


class LawStream(SplitMix64):
    """A law's assignment stream, which also counts the law's scenario
    requests and serves request k with scenario k of the domain asked for."""

    __slots__ = ("seed", "scenarios")

    def __init__(self, master_seed: int, law_name: str) -> None:
        super().__init__(master_seed ^ fnv1a64(law_name))
        self.seed = master_seed
        self.scenarios = 0

    def scenario(self, domain: str, sample):
        """Scenario k of ``domain`` at the k-th request, shared by every law."""
        k = self.scenarios
        self.scenarios += 1
        entry = SCENARIOS.get((self.seed, domain))
        if entry is None:
            entry = SCENARIOS[self.seed, domain] = (scenario_stream(self.seed, domain), [])
        stream, drawn = entry
        while len(drawn) <= k:
            drawn.append(sample(stream))
        return drawn[k]


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return h


def law_stream(master_seed: int, law_name: str) -> LawStream:
    """The per-law assignment stream for a given master seed."""
    return LawStream(master_seed, law_name)


def scenario_stream(master_seed: int, domain: str) -> SplitMix64:
    """The stream a scenario domain draws its scenarios from, in order."""
    return SplitMix64(master_seed ^ fnv1a64("scenario domain " + domain))
