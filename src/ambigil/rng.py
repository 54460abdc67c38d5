"""Counter-based pseudo-random streams for reproducible Monte Carlo.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment, with a two-round xor-multiply finalizer applied to each counter
value.  Every draw is a pure function of (seed, counter), so each
replication's draws do not depend on how many replications run or in what
order they are advanced.

Stream derivation rule (documented contract, relied on by capacity
Monte Carlo): replication ``i`` of a run with seed ``s`` uses the stream
``SplitMix64(mix64(mix64(s) + i))``.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(v: int) -> int:
    """splitmix64 finalizer: xor-shift/multiply scramble of a 64-bit value."""
    v &= _MASK
    v = ((v ^ (v >> 30)) * _MIX1) & _MASK
    v = ((v ^ (v >> 27)) * _MIX2) & _MASK
    return v ^ (v >> 31)


class SplitMix64(object):
    """Sequential splitmix64 stream over a 64-bit counter."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_range(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top 64-bit range."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def substream(seed: int, index: int) -> SplitMix64:
    """Derived stream for replication ``index`` of a run seeded with ``seed``."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return SplitMix64(mix64((mix64(seed) + index) & _MASK))
