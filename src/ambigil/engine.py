"""Exact upper/lower expectations of path functionals by backward induction.

The value computed by ``evaluate_upper`` is the nested supremum of the
recursive product structure: at each step the maximizing measure is chosen
*after* seeing the realized history, so the result is the value of a zero-sum
control problem against an adapted adversary.  "Independent" steps therefore
do not mean a single product measure; they mean the family available at step
k does not depend on the past, while the adversary's pick may.

Payoffs are finite-state automata over (step, lattice partial sum, auxiliary
state).  Every payoff has one protocol: ``initial``, ``advance(state, k,
point, value)``, ``terminal(state)``, ``bind(model)`` and ``negate()``, plus
``complement()`` for events.  ``Automaton`` is the generic implementation;
``FullVectorPayoff`` and ``capacity.OutcomeFlagEvent`` build one.  Terminal
payoff values must be finite at every reachable terminal state, on both
paths: a NaN or infinite value, a value that is not a real number, or an
``ArithmeticError`` raised by the payoff, is a ``ValueError``.  Unreachable
sums are never evaluated.  Two representations are evaluated on one
vectorized lattice path:

* ``TerminalSumPayoff`` — payoff is a function of the terminal partial sum;
* ``WindowEvent`` — indicator of a windowed threshold event on partial sums
  (a not-yet-fired value per state and one fired value per layer, latched
  before each step).

Each lattice layer spans only the partial sums its supports can reach, and
is held as a left scalar, an array band and a right scalar: the flanks of
a window DP (states that have fired, states that cannot reach the
threshold any more) and of a terminal-sum DP (the terminal row's constant
prefix and suffix, such as a ramp's flat ends) hold one value each, and
only the band between them is computed as an array.  The flank scalars
step in Python floats through a memo local to one ``_lattice_upper``
call, keyed by step and value.  One pass may carry K value rows on one
band (an event and its complement, a grid of window thresholds, the
two ramps of a CLT bracket): the layer buffers hold cell i of row r at
i * K + r, the band step runs on the step's table with every offset, strip
and block scaled by K (the same NumPy calls as for one row), the band edges
stay one geometry for all rows, and each flank is a K-tuple of scalars,
stepped row by row.  Window rows share the window, side and stat, and each
has its own threshold: the flanks are the fired ranges common to all rows
(the shortest fired prefix and suffix), and each row's other fired cells
are written into the band, in that row's cells.  Such a payoff is built
only inside ambigil (``_WindowRows``, ``_TerminalRows``), and
``evaluate_upper`` returns its K values.  Everything else
(full outcome vectors, product automata, float-accumulator states) runs
through a dictionary-layered generic path.  Both paths perform per-state
inner sums in a fixed left-to-right order over support points and take
the max over measures in index order, on one thread, so results are
bit-identical across the two paths and across reruns.

The generic path sums densely from 0.0.  The lattice path sums only over
each measure's nonzero weights, starts each sum at its first product, and
adds 0.0 once to the result.  That changes no bit while the values are
finite.  By induction over the layers, every lattice state's value equals
the generic one, or both are zeros, perhaps of opposite sign: adding a
term 0.0 * v = ±0.0, a sum of such pairs, a max over them and a product
by q > 0 all keep that, whichever of two tied zeros a max keeps.  The
generic result is never -0.0 (its last step
is a sum from +0.0, and under round-to-nearest a sum is -0.0 only when
both operands are), so the final ``+ 0.0`` makes the bits equal.  Terminal
values are checked finite, window values are finite, and each layer is a
convex combination of the one after it.  Only a DP that overflows to inf
(NumPy warns) could differ, where the dense sum reads 0.0 * inf = NaN.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
import weakref
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .model import SequenceModel, StepAmbiguity, _integer, _real

DEFAULT_STATE_CAP = 2 ** 28


class StateSpaceError(RuntimeError):
    """Estimated DP state count exceeds the configured cap."""

    def __init__(self, estimate: int, cap: int):
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"state space estimate {estimate} exceeds cap {cap}; "
            f"raise state_cap explicitly to proceed")


@dataclass(frozen=True)
class ExpectationPair:
    """Lower (conjugate) and upper expectation of one payoff."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"expectation pair has a NaN: ({self.lower!r}, {self.upper!r})")
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"lower {self.lower!r} exceeds upper {self.upper!r}")


# ---------------------------------------------------------------------------
# payoff / automaton types
#
# Engine protocol: initial state, advance(state, k, point, value) with the
# outcome given both as lattice index and real value, terminal(state) -> real.
# bind(model) lets a payoff capture the lattice spacing before evaluation,
# negate() gives the payoff -terminal, and an event's complement() flips
# its acceptance.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Automaton:
    """Generic automaton payoff, evaluated on the generic path.

    ``advance(state, k, point, value)`` and ``terminal(state)`` are plain
    callables.  ``negate`` flips the sign of every terminal value, and
    ``complement`` maps t to 1 - t, so it is the complement event only for
    an indicator payoff.
    """

    initial: object
    advance: Callable[[object, int, int, float], object]
    terminal: Callable[[object], float]

    def bind(self, model) -> "Automaton":
        return self

    def negate(self) -> "Automaton":
        t = self.terminal
        return replace(self, terminal=lambda s: -t(s))

    def complement(self) -> "Automaton":
        t = self.terminal
        return replace(self, terminal=lambda s: 1.0 - t(s))


def FullVectorPayoff(fn: Callable[[tuple], float]) -> Automaton:
    """Reference mode: payoff is a plain function of the full outcome vector.

    State is the realized history tuple, so the DP degenerates to the
    exhaustive tree; usable for short horizons only.
    """
    return Automaton((), lambda s, k, point, value: s + (value,), lambda s: float(fn(s)))


class TerminalSumPayoff(object):
    """Payoff fn(S_N) of the terminal partial sum (real-valued argument)."""

    def __init__(self, fn: Callable[[float], float], _delta: float | None = None):
        self.fn = fn
        self._delta = _delta
        self.initial = 0

    def bind(self, model):
        """A copy whose ``terminal`` reads the lattice sum as the real
        ``model.delta * state``.  It is a ``copy.copy``, so it keeps this
        payoff's class and attributes (a subclass keeps its
        ``terminal_array``) and calls no ``__init__``."""
        bound = copy.copy(self)
        bound._delta = model.delta
        return bound

    def advance(self, state, k, point, value):
        return state + point

    def terminal(self, state):
        return float(self.fn(self._delta * state))

    def terminal_array(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``fn`` at each real sum of ``positions``, written into ``out``
        when given (then returned), else into a new array."""
        values = [float(self.fn(float(p))) for p in positions]
        if out is None:
            return np.array(values)
        out[:] = values
        return out

    def negate(self):
        return TerminalSumPayoff(lambda s: -self.fn(s), self._delta)


_SIDES = {"ge": operator.ge, ">=": operator.ge, "gt": operator.gt, ">": operator.gt,
          "le": operator.le, "<=": operator.le, "lt": operator.lt, "<": operator.lt}
_STATS = ("S", "-S", "absS")


def _side(side):
    """The comparison operator a side spelling in ``_SIDES`` names; any other
    value is a ``ValueError``."""
    if not (isinstance(side, str) and side in _SIDES):
        raise ValueError(f"side must be one of {sorted(_SIDES)}, got {side!r}")
    return _SIDES[side]


def _check_values(vals) -> None:
    """A window event's (never fired, fired) values must be two finite floats."""
    if not (isinstance(vals, tuple) and len(vals) == 2
            and all(isinstance(v, float) and math.isfinite(v) for v in vals)):
        raise ValueError(f"values must be two finite floats, got {vals!r}")


@dataclass(frozen=True)
class WindowEvent:
    """Path event {exists m in [lo, hi]: stat(S_m) <side> threshold(m)}.

    Automaton state is (triggered flag, lattice partial sum); the flag
    latches once the windowed comparison fires.  ``values`` holds the
    terminal value of a path that never fired and of one that fired: the
    indicator is (0.0, 1.0), the complement event swaps the pair and
    negation negates it, so both stay on the fast lattice path.

    This is the one reader of a window event's arguments.  ``lo`` and ``hi``
    go through ``_integer`` and are stored as ints.  ``threshold`` is a
    callable of the step index m, or a constant that goes through ``_real``
    and is stored as a float (``±inf`` gives the sure or the never event).
    ``side`` is any spelling in ``_SIDES`` (``"ge"`` or ``">="``, ...),
    kept as given.
    """

    lo: int
    hi: int
    threshold: Callable[[int], float] | float
    side: str = "ge"
    stat: str = "S"
    values: tuple[float, float] = (0.0, 1.0)
    _delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lo", _integer(self.lo, "window n"))
        object.__setattr__(self, "hi", _integer(self.hi, "window N"))
        if not callable(self.threshold):
            object.__setattr__(self, "threshold", _real(self.threshold, "window threshold"))
        _side(self.side)
        if self.stat not in _STATS:
            raise ValueError(f"stat must be one of {_STATS}, got {self.stat!r}")
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"window [{self.lo}, {self.hi}] is invalid")
        _check_values(self.values)

    def complement(self) -> "WindowEvent":
        return replace(self, values=self.values[::-1])

    def negate(self) -> "WindowEvent":
        return replace(self, values=(-self.values[0], -self.values[1]))

    # engine protocol ------------------------------------------------------

    @property
    def initial(self):
        return (0, 0)

    def bind(self, model: SequenceModel) -> "WindowEvent":
        if model.horizon < self.hi:
            raise ValueError(f"window [{self.lo}, {self.hi}] exceeds horizon {model.horizon}")
        return replace(self, _delta=model.delta)

    def _threshold_at(self, m: int) -> float:
        if not callable(self.threshold):
            return self.threshold
        thr = float(self.threshold(m))
        if math.isnan(thr):
            raise ValueError(f"window threshold at step {m} is NaN")
        return thr

    def _fires(self, positions, threshold):
        """The windowed comparison stat(positions) <side> threshold."""
        if self.stat == "S":
            sv = positions
        elif self.stat == "-S":
            sv = -positions
        else:
            sv = abs(positions)
        return _SIDES[self.side](sv, threshold)

    def trigger_mask(self, m: int, positions):
        """Whether the event fires at step m at each real partial sum in
        ``positions`` (an array, or one float)."""
        if m < self.lo or m > self.hi:
            return np.zeros(np.shape(positions), dtype=bool)
        return self._fires(positions, self._threshold_at(m))

    def trigger_block(self, k0: int, positions: np.ndarray) -> np.ndarray:
        """``trigger_mask`` for steps k0+1..k0+s at once: row t of the
        returned bool array is ``trigger_mask(k0 + 1 + t, positions[t])``,
        for an array ``positions`` of any shape with s on its leading axis.
        Thresholds are read only at the steps inside [lo, hi]."""
        a, b = max(self.lo, k0 + 1) - k0 - 1, min(self.hi, k0 + len(positions)) - k0
        if a >= b:
            return np.zeros(positions.shape, dtype=bool)
        if callable(self.threshold):
            thr = np.array([self._threshold_at(k) for k in range(k0 + 1 + a, k0 + 1 + b)])
            thr = thr.reshape((b - a,) + (1,) * (positions.ndim - 1))
        else:
            thr = self.threshold
        if b - a == len(positions):
            return self._fires(positions, thr)
        out = np.zeros(positions.shape, dtype=bool)
        out[a:b] = self._fires(positions[a:b], thr)
        return out

    def advance(self, state, k, point, value):
        flag, s = state
        s2 = s + point
        if flag:
            return (1, s2)
        return (1 if self.trigger_mask(k, self._delta * s2) else 0, s2)

    def terminal(self, state):
        return self.values[state[0]]


@dataclass(frozen=True)
class _WindowRows(WindowEvent):
    """K window events that share ``lo``, ``hi``, ``side`` and ``stat``, as
    the K value rows of one DP: row r is ``rows[r]``, a pair of a window
    event and a (never fired, fired) pair that replaces its ``values``, so
    each row has its own threshold, and ``threshold`` and ``values`` are
    row 0's.  The lattice path evaluates all K in one pass and
    ``evaluate_upper`` returns K floats; the generic path evaluates the
    rows one by one (``_split``).  Built only inside ambigil
    (``_event_rows``), such as event and complement by
    ``capacity.capacity_pair`` or a sigma grid by ``lil.cluster_probe``
    (``capacity._window_pairs``)."""

    rows: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        for ev, vals in self.rows:
            if not (isinstance(ev, WindowEvent) and (ev.lo, ev.hi, ev.side, ev.stat)
                    == (self.lo, self.hi, self.side, self.stat)):
                raise ValueError(f"value rows must be window events on [{self.lo}, {self.hi}] "
                                 f"with side {self.side!r} and stat {self.stat!r}, got {ev!r}")
            _check_values(vals)

    def _split(self) -> tuple:
        return tuple(replace(ev, values=vals, _delta=self._delta) for ev, vals in self.rows)


def _event_rows(rows) -> _WindowRows:
    """The (window event, values) pairs ``rows``, on one ``lo``, ``hi``,
    ``side`` and ``stat``, as the rows of one DP."""
    first, values = rows[0]
    return _WindowRows(first.lo, first.hi, first.threshold, first.side, first.stat,
                       values, first._delta, tuple(rows))


class _TerminalRows(TerminalSumPayoff):
    """K terminal-sum payoffs as the K value rows of one DP, such as the two
    ramps of ``gnormal.clt_capacity``.  The lattice path evaluates all K in
    one pass and ``evaluate_upper`` returns K floats; the generic path
    evaluates the rows one by one (``_split``)."""

    def __init__(self, rows):
        super().__init__(None)
        self.rows = tuple(rows)

    def bind(self, model):
        return _TerminalRows(row.bind(model) for row in self.rows)

    def _split(self) -> tuple:
        return self.rows


_ROWS = (_WindowRows, _TerminalRows)


def _terminal_values(evaluate: Callable[[], object]):
    """``evaluate()``, the terminal payoff values of one DP, checked at the
    engine boundary: an ``ArithmeticError`` raised by the payoff, a
    ``TypeError`` from a value that is not a real number (a complex power,
    ``None``), or a NaN or infinite value, is a ``ValueError``."""
    try:
        values = evaluate()
    except (ArithmeticError, TypeError) as e:
        raise ValueError(f"payoff terminal value failed: {type(e).__name__}: {e}") from None
    ok = np.isfinite(values)
    if not ok.all():
        bad = np.asarray(values)[~ok].flat[0]
        raise ValueError(f"payoff has a non-finite terminal value {float(bad)!r}")
    return values


# ---------------------------------------------------------------------------
# lattice path
# ---------------------------------------------------------------------------


# floats in one block of products of ``_band_step``, and the fewest band
# states one block covers
_BLOCK_FLOATS = 2 ** 17
_MIN_STRIP = 2 ** 12


class _Group(NamedTuple):
    """A run of one step's terms, in measure order, whose products share a
    block: at most ``_BLOCK_FLOATS // (max(_MIN_STRIP, span + 1) + span)``
    distinct weights, or one, span being the step's max point minus its
    min point, so that a strip is at least that max wide and its block
    within ``_BLOCK_FLOATS`` floats."""

    qs: list  # the D distinct nonzero weights of these terms, first seen first
    weights: np.ndarray  # ``qs`` as a (D, 1) array
    # per measure with terms here: (is measure 0, its first term or None if
    # it began in an earlier group, the other terms, it ends here), each
    # term an (index into qs, offset - mn)
    pieces: list
    strip: int  # band states per block: max(_BLOCK_FLOATS // D - used, used + 1), used = mx - mn


class _Step(NamedTuple):
    """One step's row of the per-step table (``_sparse_terms``)."""

    low: int  # the lowest point
    offsets: list  # every point minus ``low``; the last one is the step's span
    mn: int  # the smallest and the largest offset of a nonzero weight
    mx: int
    groups: list  # ``_Group``s covering every nonzero term in measure order
    depth: int  # the most distinct weights of a group
    block: int  # the most floats of a group's block, D * (strip + mx - mn)


def _sparse_terms(step: StepAmbiguity) -> _Step:
    """The ``_Step`` of ``step``, its groups cut in one pass over each
    measure's nonzero weights in support order."""
    pts = step.support.points
    low = pts[0]
    # a list: tuple(generator) is resized outside the tuple free list, so
    # each call would leave one more tuple parked in it
    offsets = [pt - low for pt in pts]
    most = max(1, _BLOCK_FLOATS // (max(_MIN_STRIP, offsets[-1] + 1) + offsets[-1]))
    groups, rows, pieces = [], {}, []
    # offsets rise in support order: a measure's first and last term hold its extremes
    mn, mx = offsets[-1], 0
    for i, m in enumerate(step.measures):  # loops, not comprehensions: per-step models redo this per call
        plan, start = [], True
        for q, off in zip(m, offsets):
            if q != 0:
                r = rows.get(q)
                if r is None:
                    if len(rows) == most:  # the measure goes on in a new group
                        if plan:
                            if start and plan[0][1] < mn:
                                mn = plan[0][1]
                            pieces.append((i == 0, start, plan, False))
                            plan, start = [], False
                        groups.append((rows, pieces))
                        rows, pieces = {}, []
                    r = rows[q] = len(rows)
                plan.append((r, off))
        if start and plan[0][1] < mn:
            mn = plan[0][1]
        if plan[-1][1] > mx:
            mx = plan[-1][1]
        pieces.append((i == 0, start, plan, True))
    groups.append((rows, pieces))
    used = mx - mn
    out, depth, block = [], 0, 0
    for rows, pieces in groups:
        shifted = []
        for first, start, plan, end in pieces:
            if mn:
                plan = [(r, off - mn) for r, off in plan]
            shifted.append((first, plan[0], plan[1:], end) if start else (first, None, plan, end))
        qs = list(rows)
        strip = max(_BLOCK_FLOATS // len(qs) - used, used + 1)
        out.append(_Group(qs, np.array(qs)[:, None], shifted, strip))
        depth = max(depth, len(qs))
        block = max(block, len(qs) * (strip + used))
    return _Step(low, offsets, mn, mx, out, depth, block)


def _interleaved(step: _Step, k: int) -> _Step:
    """``step`` for ``k`` value rows interleaved in one buffer, cell i of row
    r at i * k + r: every offset, strip and block scaled by ``k``, so that
    ``_band_step`` on flat buffers computes each row's cells from that
    row's children with the same NumPy calls as for one row."""
    groups = [g._replace(pieces=[(first, None if head is None else (head[0], head[1] * k),
                                  [(r, j * k) for r, j in rest], end)
                                 for first, head, rest, end in g.pieces],
                         strip=g.strip * k)
              for g in step.groups]
    return step._replace(offsets=[off * k for off in step.offsets], mn=step.mn * k,
                         mx=step.mx * k, groups=groups, block=step.block * k)


class _Plan(object):
    """What a lattice DP needs of one model and of nothing else: the
    per-step table (``_sparse_terms`` once per distinct step object,
    through ``SequenceModel.per_step``), its copy for each number of value
    rows a DP has asked for (``rows``) and, built when a terminal-sum DP
    first asks, the terminal layer's reach mask.  It holds no reference
    to the model, so its entry in ``_PLANS`` dies with the model."""

    __slots__ = ("table", "_delta", "_reach", "_rows")

    def __init__(self, model: SequenceModel):
        self.table = model.per_step(_sparse_terms)
        self._delta = model.delta
        self._reach = None
        self._rows = {}

    def rows(self, k: int) -> list:
        """The table for ``k`` interleaved value rows (``_interleaved``),
        built once per distinct step and ``k``."""
        table = self._rows.get(k)
        if table is None:
            done: dict = {}
            for row in self.table:
                if id(row) not in done:
                    done[id(row)] = _interleaved(row, k)
            table = self._rows[k] = [done[id(row)] for row in self.table]
        return table

    def layers(self):
        """``(lows, widths)``: layer k's lowest sum and its number of sums,
        k = 0..N, as running sums over the table.  Not kept: for a model
        that lives long they would hold two Python ints a step."""
        lows = list(accumulate((row.low for row in self.table), initial=0))
        widths = list(accumulate((row.offsets[-1] for row in self.table), initial=1))
        return lows, widths

    def reach(self):
        """``(hit, at)``: whether each sum of the terminal layer is
        reachable, as a bool array, and the real values ``delta * sum`` of
        the reachable ones.

        The mask is a Python int, bit i for the terminal sum low + i, and
        each step ORs its copies shifted by the step's offsets, once per
        model: ``_lattice_upper`` writes the terminal row into the layer in
        place when every bit is set, and scatters it by ``hit`` otherwise."""
        if self._reach is None:
            lows, widths = self.layers()
            low, width = lows[-1], widths[-1]
            reach = 1  # bit i: terminal sum low + i is reachable
            for row in self.table:
                reach = functools.reduce(operator.or_, (reach << off for off in row.offsets))
            pos = self._delta * np.arange(low, low + width, dtype=float)
            hit = np.frombuffer(reach.to_bytes(width // 8 + 1, "little"), dtype=np.uint8)
            hit = np.unpackbits(hit, bitorder="little")[:width].astype(bool)
            self._reach = hit, pos[hit]
        return self._reach


# each model's plan, built by its first lattice DP and dropped with the model
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(model: SequenceModel) -> _Plan:
    plan = _PLANS.get(model)
    if plan is None:
        plan = _PLANS[model] = _Plan(model)
    return plan


def _scalar_step(step: _Step, x: float) -> float:
    """One step of a row that holds ``x`` at every child: per measure the
    left-to-right sum of q * x from its first product, and the max over
    measures in index order in Python floats, a tie kept on the earlier
    measure as on the generic path (``np.maximum`` may keep the later of
    two tied zeros; the module docstring says why neither moves a bit)."""
    best = acc = None
    for qs, _, pieces, _ in step.groups:
        for _, head, rest, end in pieces:
            if head is not None:
                acc = qs[head[0]] * x
            for r, _ in rest:
                acc = acc + qs[r] * x
            if end and (best is None or acc > best):
                best = acc
    return best


def _scalar_rows(step: _Step, xs: tuple) -> tuple:
    """``_scalar_step`` of each row's flank value in ``xs``."""
    return tuple([_scalar_step(step, x) for x in xs])


def _band_step(step: _Step, src, dst, acc, block, a: int, b: int) -> None:
    """``dst[a:b]``: per measure the left-to-right sum of q * src[i + offset]
    from its first product, and the max over measures in index order, all
    computed in place in the preallocated ``dst``, ``acc`` and flat ``block``.

    Group by group, the band runs in strips of ``strip`` states.  Per
    strip, one broadcast multiply writes the products of the group's D
    distinct weights into D rows of ``block``, each computed once however
    many terms share it; a measure adds row slices left to right into
    ``dst`` (measure 0) or ``acc``, where a measure cut between groups
    keeps its partial sums, and a one-term measure's slice is copied or
    max'ed directly.  The block holds D * (strip + mx - mn) floats: at
    most ``_BLOCK_FLOATS``, or 2 * (mx - mn) + 1 where that is more.
    A group of one weight q whose band fits in one strip (every point of
    a variance-uncertain step weighs 0.5) skips the strip loop: q times
    the band's children goes into one 1-D row of ``block``, the same
    products bit for bit as the broadcast (D, 1) multiply.
    Subnormal values cost several times normal ones on long DPs, but
    flushing them to zero would change bits."""
    mn, mx = step.mn, step.mx
    for qs, weights, pieces, width in step.groups:
        d = len(qs)
        if d == 1 and b - a <= width:
            n = b - a
            row = block[:n + mx - mn]
            np.multiply(qs[0], src[a + mn:b + mx], out=row)
            best, spare = dst[a:b], acc[:n]
            for first, head, rest, end in pieces:
                out = best if first else spare
                x = out if head is None else row[head[1]:head[1] + n]
                for _, j in rest:
                    np.add(x, row[j:j + n], out=out)
                    x = out
                if x is not out and (first or not end):
                    out[:] = x
                elif end and not first:
                    np.maximum(best, x, out=best)
            continue
        for s in range(a, b, width):
            e = s + width if s + width < b else b
            n = e - s
            cols = n + mx - mn
            rows = block[:d * cols].reshape(d, cols)
            np.multiply(weights, src[s + mn:e + mx], out=rows)
            best, spare = dst[s:e], acc[s - a:e - a]
            for first, head, rest, end in pieces:
                out = best if first else spare
                x = out if head is None else rows[head[0], head[1]:head[1] + n]
                for r, j in rest:
                    np.add(x, rows[r, j:j + n], out=out)
                    x = out
                if x is not out and (first or not end):
                    out[:] = x
                elif end and not first:
                    np.maximum(best, x, out=best)


def _fired_edges(event: WindowEvent, lows, widths, delta: float):
    """Where ``event`` fires at each window step, in one pass over all of them.

    Returns the int lists ``starts`` and ``ends`` over k = lo..hi and a flag
    ``outside``.  Layer k's index i holds the sum ``lows[k] + i``, and the
    event fires at step k on ``[s, e)`` with ``s, e = starts[k - lo],
    ends[k - lo]`` (nowhere when ``s >= e``), or for ``outside`` on ``[0, s)``
    and ``[e, w)`` (on the whole layer when ``s >= e``); these are the runs of
    ``event.trigger_mask(k, delta * arange(lows[k], lows[k] + w))``.

    The threshold is read once per step, from ``hi`` down to ``lo``.  The
    products ``delta * n`` that ``trigger_mask`` compares are nondecreasing
    in the sum n, so each edge is the first sum whose product is at or
    above t (for ``>=`` and ``<``) or above it (for ``>`` and ``<=``),
    shifted to the layer and clipped to ``[0, w]``.  For sums below 2**53 in
    magnitude it is one of seven: -inf, +inf and the five within 2 of
    ``ceil(t / delta)``, t first clipped to the finite products just
    outside the layer (a t beyond the layer lands at its end, an infinite
    one next to the sums whose products overflow).  The edge is the
    smallest of the seven whose product is not below t (or not at or below
    it): a search with no row of the layer's sums, so the memory is seven
    sums per window step wherever the support sits.  ``-S`` compares
    against ``-t`` on the mirrored side (negation is exact), and ``absS`` is
    the union of the two half-lines above a threshold or their intersection
    below one."""
    lo, hi = event.lo, event.hi
    thr = np.array([event._threshold_at(m) for m in range(hi, lo - 1, -1)][::-1])
    width = widths[lo:hi + 1]
    low, wide = np.array(lows[lo:hi + 1], dtype=float), np.array(width, dtype=float)
    big = np.finfo(float).max
    # np.minimum and np.maximum rather than np.clip, whose Python-level
    # argument handling costs more than the search on a short window
    span = delta * np.array([low - 3.0, low + wide + 2.0])
    lower, upper = np.maximum(np.minimum(span, big), -big)
    around = np.array([-np.inf, -2.0, -1.0, 0.0, 1.0, 2.0, np.inf])
    cmp = _SIDES[event.side]
    up = cmp in (operator.ge, operator.gt)
    # >= and < split before the sums equal to t, > and <= after them
    split, mirror = ((operator.lt, operator.le) if cmp in (operator.ge, operator.lt)
                     else (operator.le, operator.lt))

    def edge(t, below) -> list[int]:
        guess = np.ceil(np.minimum(np.maximum(t, lower), upper) / delta)[:, None]
        # one float block of seven sums per step: it holds the products,
        # then the sums again with +inf where the product is below t
        n = guess + around
        n *= delta
        short = below(n, t[:, None])
        np.add(guess, around, out=n)
        np.copyto(n, np.inf, where=short)
        n = n.min(axis=1)  # drops the block before the int conversion
        return np.minimum(np.maximum(n - low, 0.0), wide).astype(int).tolist()

    if event.stat == "S":
        e = edge(thr, split)
        return (e, width, False) if up else ([0] * len(width), e, False)
    neg = edge(-thr, mirror)  # -x <cmp> t is x <mirrored cmp> -t
    if event.stat == "-S":
        return ([0] * len(width), neg, False) if up else (neg, width, False)
    # |x| is above t where x or -x is, and below t where both are
    return neg, edge(thr, split), up


def _fired_ranges(event: WindowEvent, lows, widths, delta: float) -> list:
    """Layer k's nonempty fired ranges of ``event`` for k = lo..hi, each a
    tuple of ``(i, j, None)``, from ``_fired_edges``: a range from 0 is a
    prefix, one to the layer's width a suffix (the whole layer is one
    prefix), any other a middle range."""
    starts, ends, outside = _fired_edges(event, lows, widths, delta)
    out = []
    for w, s, e in zip(widths[event.lo:event.hi + 1], starts, ends):
        if not outside:
            out.append(((s, e, None),) if s < e else ())
        elif s < e:  # absS above a threshold: a prefix and a suffix
            out.append(tuple([(i, j, None) for i, j in ((0, s), (e, w)) if i < j]))
        else:  # or the whole layer
            out.append(((0, w, None),))
    return out


def _shared_ranges(layer, rows, w: int) -> tuple:
    """One layer's fired ranges for value rows of several thresholds:
    ``layer`` holds each threshold's ``_fired_ranges`` entry at this layer
    and ``rows`` the indices of the rows that read it.  The prefix and the
    suffix on which every row fires come back as ranges of all rows,
    ``(i, j, None)``, and become the flanks; each threshold's other fired
    cells come back as ``(i, j, r)`` for each of its rows r, to be written
    into the band."""
    first, last = w, 0  # the shortest fired prefix and the start of the shortest suffix
    for ranges in layer:
        p, e = 0, w
        for i, j, _ in ranges:
            if i == 0:
                p = j
            if j == w:
                e = i
        if p < first:
            first = p
        if e > last:
            last = e
    if first >= last:  # only when every row fires on the whole layer
        return ((0, w, None),)
    out = []
    if first > 0:
        out.append((0, first, None))
    if last < w:
        out.append((last, w, None))
    for ranges, rs in zip(layer, rows):
        for i, j, _ in ranges:
            if i < first:
                i = first
            if j > last:
                j = last
            if i < j:
                out += [(i, j, r) for r in rs]
    return tuple(out)


def _lattice_upper(model: SequenceModel, payoff, state_cap: int) -> float:
    """Backward induction over the reachable partial sums of each layer.

    Layer k holds the sums [sum of min points, sum of max points] over the
    first k steps, so each support point's slice of layer k lines up with
    layer k-1 directly.  One per-step table (``_sparse_terms``, once per
    distinct step object through ``SequenceModel.per_step``) gives each
    step's lowest point, point offsets, used offsets and measure groups
    (``_Step``); the layers' low sums and widths are running sums over
    it.  The table and a terminal DP's reach mask are built once per model
    object (``_Plan``) and held weakly in ``_PLANS``; the running sums are
    taken again by each DP, and nothing that depends on the payoff is
    kept.  The groups are cut under the ``_BLOCK_FLOATS`` and
    ``_MIN_STRIP`` in force at a model's first lattice DP, so code that
    changes them (the tests) evaluates models built after the change.  The
    state-cap estimate is the widest layer (two rows of it for a window
    event) plus the part of one strip's block of products past
    ``_BLOCK_FLOATS``, counted for one value row whatever K is.

    A ``_WindowRows`` or ``_TerminalRows`` payoff carries K value rows
    through one pass.  The buffers hold K floats per state, cell i of row r
    at i * K + r, and the band steps on ``_Plan.rows(K)``, the table with
    every offset, strip and block scaled by K (``_interleaved``), so that
    ``_band_step`` computes every row's cells with the NumPy calls of one
    row and each float from the same operands as in a one-row DP.  The band
    edges and the reach mask are one geometry for all rows; a terminal
    row's flank is the prefix or suffix constant in every row, and a
    window row's flank is a fired range common to every row (below).  The
    flanks are K-tuples, filled into the band as one row of a
    (states, K) view, and stepped by ``_scalar_rows``, one ``_scalar_step``
    a row, through the memo keyed by the tuple.  A tuple holding a ±0.0
    steps too, and a memo hit may swap a zero's sign, which moves no bit
    (module docstring).  A one-row payoff keeps scalar flanks and flat
    fills.
    A layer is a scalar ``left`` below index ``a``, an array band ``[a, b)``
    and a scalar ``right`` from ``b`` on.  The next band is the indices
    whose children are not all in one flank, ``[a - max offset, b - min
    offset)`` clipped to the layer; a state whose children are all in a
    flank becomes that flank scalar's step.

    For a bound ``TerminalSumPayoff`` the payoff sees only the terminal sums
    the supports can reach and the gaps between them hold 0.0, since a
    reachable state reads only reachable children.  The row's longest
    constant prefix and suffix, gap cells included, become the flanks (a
    constant row is an empty band); cells compare with ``!=``, so a -0.0
    and a +0.0 may share a flank, which moves no bit (module docstring).
    For a bound ``WindowEvent`` the band starts empty, with both flanks at
    the never-fired value; the fired value is one scalar per layer taken
    through the same step.  ``_fired_edges`` finds the edges of the fired
    ranges of all window steps in one vectorized pass before the layer
    loop, once per distinct threshold object of the rows (each read once
    per step, hi to lo); an empty or whole layer may come back with
    ``s > e``.  With one threshold every range is every row's.  With
    several, ``_shared_ranges`` makes the shortest fired prefix and the
    shortest fired suffix over all rows the ranges of every row, and each
    threshold's other fired cells ranges of each of its rows alone.
    Before each step, layer k's ranges take the fired value: a prefix or a
    suffix of every row becomes a flank, a middle range (absS below a
    threshold) or a range of some rows only is written into the band, and
    an empty band over a uniform row (``left is right``) first moves to the
    range's edge, so the band shrinks back to what is still undecided.
    Each window layer's nonempty ranges are listed once per DP, before the
    layer loop; a terminal-sum DP lists none.

    Per state, the inner sum runs left to right over the support points
    with nonzero weight from the first product, and the max over measures
    runs in index order (``_band_step``); the flank scalars of both payoff
    kinds do the same in Python floats (``_scalar_step``), read inline
    from a memo local to this call and keyed by (id of the ``_Step``,
    value).  A ±0.0 flank passes through unstepped: every kept weight is
    positive, and a dict key does not tell 0.0 from -0.0.  Equal flanks
    share one memoized object, which can only let an empty band move over
    a row that is uniform anyway.  The result gets ``+ 0.0`` once (see
    the module docstring for why neither the skipped terms nor the missing
    ``0.0 +`` per sum changes a bit).
    """
    event = payoff if isinstance(payoff, WindowEvent) else None
    multi = isinstance(payoff, _ROWS)
    # each row's terminal payoff, or its (window event, values) pair
    rows = payoff.rows if multi else (payoff,)
    K = len(rows)
    last = model.horizon if event is None else event.hi
    plan = _plan(model)
    lows, widths = plan.layers()
    # the largest block of one strip, in no more than ``depth`` rows of the
    # widest layer: a band step at layer k <= last reads at most widths[k] children
    steps = plan.table[:last]
    held = min(max(map(operator.attrgetter("block"), steps)),
               max(map(operator.attrgetter("depth"), steps)) * widths[last])
    # counted per value row
    estimate = (1 if event is None else 2) * widths[last] + max(0, held - _BLOCK_FLOATS)
    if estimate > state_cap:
        raise StateSpaceError(estimate, state_cap)
    table = plan.rows(K) if multi else plan.table

    cur, nxt, acc = (np.empty(K * widths[last]) for _ in range(3))
    block = np.empty(K * held)
    # the layers as cells: a cell is one float, or a row of K for K rows
    cells, spare = (cur.reshape(-1, K), nxt.reshape(-1, K)) if multi else (cur, nxt)
    flank_step = _scalar_rows if multi else _scalar_step
    memo: dict = {}  # the stepped flank per (id of a _Step, value)
    # fires[k]: layer k's nonempty fired ranges (i, j, r), none outside a
    # window; r is None for a range of every row, else the one row it is of
    fires = [()] * (model.horizon + 1)
    if event is None:
        hit, at = plan.reach()
        layer = cur[:K * len(hit)].reshape(-1, K)
        full = len(at) == len(layer)  # every sum reachable: the row is the layer
        if not full:
            layer[:] = 0.0
        for r, row in enumerate(rows):
            col = layer[:, r]
            if full:
                _terminal_values(lambda: row.terminal_array(at, out=col))
            else:
                col[hit] = _terminal_values(lambda: row.terminal_array(at))
        first, end = layer[0], layer[-1]
        inner = np.flatnonzero((layer != first).any(axis=1))
        if len(inner):
            a, b = int(inner[0]), int(np.flatnonzero((layer != end).any(axis=1))[-1]) + 1
        else:  # a constant row is all flank
            a = b = 0
        left, right = tuple(first.tolist()), tuple(end.tolist())
        if not multi:
            left, right = left[0], right[0]
        fired = 0.0  # never read: nothing fires, and a 0.0 passes through unstepped
    else:
        a = b = 0
        if multi:
            events, values = zip(*rows)
            never, fired = zip(*values)
        else:
            events, (never, fired) = rows, payoff.values
        left = right = never
        # the rows of each distinct threshold object, first seen first
        groups: dict = {}
        for r, ev in enumerate(events):
            groups.setdefault(id(ev.threshold), []).append(r)
        delta = float(model.delta)
        if len(groups) == 1:  # row 0's threshold is the payoff's
            fires[event.lo:event.hi + 1] = _fired_ranges(event, lows, widths, delta)
        else:
            members = list(groups.values())
            spans = [_fired_ranges(events[rs[0]], lows, widths, delta) for rs in members]
            fires[event.lo:event.hi + 1] = [
                _shared_ranges(layer, members, w)
                for layer, w in zip(zip(*spans), widths[event.lo:event.hi + 1])]
    for k in range(model.horizon, 0, -1):
        step = table[k - 1]
        for i, j, r in fires[k]:
            if a == b and left is right:  # a uniform row: the band moves to the edge
                a = b = j if i == 0 else i
            if r is not None or 0 < i and j < widths[k]:
                # a middle range (absS below a threshold) or one row's
                # range goes into the band
                if i < a:
                    cells[i:a] = left
                    a = i
                if j > b:
                    cells[b:j] = right
                    b = j
                if r is None:
                    cells[i:j] = fired
                else:
                    cells[i:j, r] = fired[r]
            elif i == 0:  # a prefix becomes the left flank
                if j < a:
                    cells[j:a] = left
                if b < j:
                    b = j
                a, left = j, fired
            else:  # a suffix becomes the right flank
                if i > b:
                    cells[b:i] = right
                if i < a:
                    a = i
                b, right = i, fired
        mn, mx, w_out = step.mn, step.mx, widths[k - 1]
        if multi:
            mn //= K
            mx //= K
        a2, b2 = a - mx, b - mn
        if a2 < 0:
            a2 = 0
        elif a2 > w_out:
            a2 = w_out
        if b2 > w_out:
            b2 = w_out
        if b2 < a2:
            b2 = a2
        if a2 < b2:
            if a2 + mn < a:
                cells[a2 + mn:a] = left
            if b2 + mx > b:
                cells[b:b2 + mx] = right
            _band_step(step, cur, nxt, acc, block, K * a2, K * b2)
            cur, nxt = nxt, cur
            cells, spare = spare, cells
        a, b = a2, b2
        # the flanks step through the memo; a ±0.0 steps to itself (every
        # kept weight is positive) and skips it, since a dict key does not
        # tell 0.0 from -0.0
        sid = id(step)
        if left != 0.0:
            x = memo.get((sid, left))
            if x is None:
                x = memo[sid, left] = flank_step(step, left)
            left = x
        if right != 0.0:
            x = memo.get((sid, right))
            if x is None:
                x = memo[sid, right] = flank_step(step, right)
            right = x
        if fired != 0.0:
            x = memo.get((sid, fired))
            if x is None:
                x = memo[sid, fired] = flank_step(step, fired)
            fired = x
    if not multi:
        return float(left if a > 0 else cur[0] if b > 0 else right) + 0.0
    return tuple([v + 0.0 for v in (left if a > 0 else cells[0].tolist() if b > 0 else right)])


# ---------------------------------------------------------------------------
# generic layered path
# ---------------------------------------------------------------------------


def _generic_upper(model: SequenceModel, payoff, state_cap: int) -> float:
    n = model.horizon
    states = [payoff.initial]
    layers = []  # (states, transitions) per step
    total = 1
    for k in range(1, n + 1):
        step = model.step(k)
        pts = step.support.points
        vals = step.support.values()
        nxt_index: dict = {}
        nxt_states: list = []
        trans = []
        for s in states:
            row = []
            for pt, val in zip(pts, vals):
                c = payoff.advance(s, k, pt, float(val))
                ci = nxt_index.get(c)
                if ci is None:
                    ci = len(nxt_states)
                    nxt_index[c] = ci
                    nxt_states.append(c)
                row.append(ci)
            trans.append(row)
        total += len(nxt_states)
        if total > state_cap:
            raise StateSpaceError(total, state_cap)
        layers.append((states, trans))
        states = nxt_states

    values = _terminal_values(lambda: [payoff.terminal(s) for s in states])
    for k in range(n, 0, -1):
        prev_states, trans = layers[k - 1]
        measures = model.step(k).measures
        new_values = []
        for si in range(len(prev_states)):
            row = trans[si]
            best = None
            for m in measures:
                acc = 0.0
                for j in range(len(row)):
                    acc = acc + m[j] * values[row[j]]
                if best is None or acc > best:
                    best = acc
            new_values.append(best)
        values = new_values
    return float(values[0])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def evaluate_upper(model: SequenceModel, payoff, *,
                   state_cap: int = DEFAULT_STATE_CAP, method: str = "auto") -> float:
    """Exact upper expectation of the payoff over the model.

    ``method`` forces the lattice or generic evaluation path (both produce
    bit-identical values for payoffs the lattice path supports).  On the
    lattice path each layer is held as a band of states in preallocated
    buffers plus two flank scalars and, for a window event, the fired
    scalar.  ``state_cap`` bounds the widest reachable layer up to the
    window's end (the horizon for a terminal payoff) on the lattice path,
    counted twice for a window event (not yet fired, fired), and all
    layers on the generic path.  ``state_cap`` goes through ``_integer``.
    A payoff of K value rows built inside ambigil (``_WindowRows``,
    ``_TerminalRows``) gives a tuple of K values: one pass on the lattice
    path, each row's state cap counted
    as for that row alone, and the rows one by one on the generic path.
    """
    state_cap = _integer(state_cap, "state_cap")
    bound = payoff.bind(model)
    if method not in ("auto", "lattice", "generic"):
        raise ValueError(f"unknown method {method!r}")
    if method != "generic":
        if isinstance(bound, (WindowEvent, TerminalSumPayoff)):
            return _lattice_upper(model, bound, state_cap)
        if method == "lattice":
            raise ValueError(f"payoff {type(payoff).__name__} has no lattice evaluation path")
    if isinstance(bound, _ROWS):
        return tuple([_generic_upper(model, row, state_cap) for row in bound._split()])
    return _generic_upper(model, bound, state_cap)


def evaluate_lower(model: SequenceModel, payoff, **kw) -> float:
    """Conjugate (lower) expectation: -E_upper[-payoff], as 0.0 minus it so
    that a zero lower value is +0.0, never -0.0."""
    return 0.0 - evaluate_upper(model, payoff.negate(), **kw)


def evaluate_pair(model: SequenceModel, payoff, **kw) -> ExpectationPair:
    return ExpectationPair(lower=evaluate_lower(model, payoff, **kw),
                           upper=evaluate_upper(model, payoff, **kw))
