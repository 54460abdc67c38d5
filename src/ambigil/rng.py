"""Counter-based pseudo-random streams for reproducible Monte Carlo.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment, with a two-round xor-multiply finalizer applied to each counter
value.  Every draw is a pure function of (seed, counter), so each
replication's draws do not depend on how many replications run or in what
order they are advanced.

Stream derivation rule (documented contract, relied on by capacity
Monte Carlo): replication ``i`` of a run with seed ``s`` uses the stream
``SplitMix64(mix64(mix64(s) + i))``.

``mix64`` and ``SplitMix64`` run the same xor, shift and multiply steps
on a Python int, masked to 64 bits, or on a ``np.uint64`` array of any
shape, whose multiplication and addition wrap mod 2**64 (``mix64`` copies
an array once and then works in place); ``substream`` takes a Python int
or a 1-D index array.  ``substream(s, idx)`` with an index row ``idx``
is one stream per element: element ``r`` of each ``next_u64()`` or
``uniform()`` row equals the scalar stream ``substream(s, idx[r])``'s draw
bit for bit.  ``uniform_rows(k)`` on such a row stream returns its next k
``uniform()`` rows as one (k, R) array, drawn by one ``uniform()`` call on
the counter block of those k rows, since counter i of a stream does not
depend on the draws before it.  Scalar streams stay Python ints (a 0-d
NumPy scalar would warn on overflow); ``randint`` is scalar only.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(v: int | np.ndarray) -> int | np.ndarray:
    """splitmix64 finalizer: xor-shift/multiply scramble of a 64-bit value,
    or of each element of a ``uint64`` array (the input is never written)."""
    if isinstance(v, np.ndarray):
        # one copy, then in place: uint64 arithmetic already wraps mod 2**64
        v = v ^ (v >> 30)
        v *= _MIX1
        v ^= v >> 27
        v *= _MIX2
        v ^= v >> 31
        return v
    v = v & _MASK
    v = ((v ^ (v >> 30)) * _MIX1) & _MASK
    v = ((v ^ (v >> 27)) * _MIX2) & _MASK
    return v ^ (v >> 31)


class SplitMix64(object):
    """Sequential splitmix64 stream over a 64-bit counter, or a row of
    independent streams over a ``uint64`` counter array."""

    __slots__ = ("_state",)

    def __init__(self, seed: int | np.ndarray):
        self._state = seed & _MASK

    def next_u64(self) -> int | np.ndarray:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float | np.ndarray:
        """Uniform draw in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_rows(self, k: int) -> np.ndarray:
        """The next k ``uniform()`` rows of a row stream as a (k, R) array:
        element [i, r] is the (i+1)-th ``uniform()`` of stream r, and the
        stream advances by k.  All k rows come from one ``uniform()`` call
        (one ``next_u64()``) on the counter block ``state + arange(k) * GOLDEN``.
        A scalar stream or k < 1 is a ``ValueError``."""
        if not isinstance(self._state, np.ndarray):
            raise ValueError("uniform_rows needs a row stream (a uint64 state array)")
        if k < 1:
            raise ValueError(f"uniform_rows needs k >= 1, got {k}")
        # uint64 arrays throughout: array arithmetic wraps without a warning
        offsets = np.arange(k, dtype=np.uint64) * np.uint64(_GOLDEN)
        block = SplitMix64(self._state + offsets[:, None])
        rows = block.uniform()
        self._state = block._state[-1].copy()
        return rows

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top 64-bit range."""
        if n <= 0:
            raise ValueError("randint requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def substream(seed: int, index: int | np.ndarray) -> SplitMix64:
    """Derived stream for replication ``index`` of a run seeded with ``seed``;
    for a 1-D integer array ``index``, the row of those streams.  A negative
    index is a ``ValueError``."""
    if isinstance(index, np.ndarray):
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ValueError(f"substream index array must be 1-D integers, "
                             f"got {index.ndim}-D {index.dtype}")
        if np.any(index < 0):
            raise ValueError("substream index must be nonnegative")
        index = index.astype(np.uint64)
    else:
        index = operator.index(index)
        if index < 0:
            raise ValueError("substream index must be nonnegative")
    return SplitMix64(mix64((mix64(seed) + index) & _MASK))
