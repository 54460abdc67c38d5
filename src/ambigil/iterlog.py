"""Iterated-logarithm convention and the one table of LIL scales.

The convention is log x = ln max(e, x) at every level: log x >= 1 always,
and loglog x = 1 for every x <= e**e, so normalizers built from it are
positive from n = 1 on.  ``NormalizerSeries`` computes s_n, t_n and a_n
once from a running s^2 list; every reader of those scales reads it.
"""

from __future__ import annotations

import math
from typing import Sequence


def log_(x: float) -> float:
    """ln max(e, x)."""
    return math.log(max(math.e, x))


def loglog_(x: float) -> float:
    """log applied twice under the same convention."""
    return log_(log_(x))


def d_n(n: int) -> float:
    """sqrt(2 n loglog n), the i.i.d. normalizer."""
    if n < 1:
        raise ValueError(f"d_n needs n >= 1, got {n}")
    return math.sqrt(2.0 * n * loglog_(float(n)))


class NormalizerSeries(object):
    """s_n, t_n = sqrt(2 loglog s_n^2) and a_n = s_n t_n.

    Built once from the running list ``s2`` = [0.0, s_1^2, ..., s_N^2]:
    ``s_table``, ``t_table`` and ``a_table`` hold s_m, t_m and a_m for
    m = 0..N, indexed by m (s_0 = a_0 = 0).  The reads ``s2(n)`` .. ``a(n)``
    take n in 1..N; any other n is an ``IndexError``.
    """

    def __init__(self, s2: Sequence[float]):
        self._s2 = s2
        self.s_table = [math.sqrt(v) for v in s2]
        self.t_table = [math.sqrt(2.0 * loglog_(v)) for v in s2]
        self.a_table = [s * t for s, t in zip(self.s_table, self.t_table)]

    def _at(self, table: Sequence[float], n: int) -> float:
        if not 1 <= n < len(table):
            raise IndexError(f"n={n} outside 1..{len(table) - 1}")
        return table[n]

    def s2(self, n: int) -> float:
        return float(self._at(self._s2, n))

    def s(self, n: int) -> float:
        return self._at(self.s_table, n)

    def t(self, n: int) -> float:
        return self._at(self.t_table, n)

    def a(self, n: int) -> float:
        return self._at(self.a_table, n)
