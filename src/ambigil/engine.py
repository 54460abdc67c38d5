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
threshold any more) hold one value each, and only the band between them
is computed as an array.  Everything else (full outcome vectors, product
automata, float-accumulator states) runs through a dictionary-layered
generic path.  Both paths perform per-state inner sums in a fixed
left-to-right order over support points and take the max over measures in
index order, on one thread, so results are bit-identical across the two
paths and across reruns.

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

import functools
import math
import operator
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable

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
        return TerminalSumPayoff(self.fn, model.delta)

    def advance(self, state, k, point, value):
        return state + point

    def terminal(self, state):
        return float(self.fn(self._delta * state))

    def terminal_array(self, positions: np.ndarray) -> np.ndarray:
        return np.array([float(self.fn(float(p))) for p in positions])

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
        vals = self.values
        if not (isinstance(vals, tuple) and len(vals) == 2
                and all(isinstance(v, float) and math.isfinite(v) for v in vals)):
            raise ValueError(f"values must be two finite floats, got {vals!r}")

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

    def trigger_mask(self, m: int, positions):
        """Whether the event fires at step m at each real partial sum in
        ``positions`` (an array, or one float)."""
        if m < self.lo or m > self.hi:
            return np.zeros(np.shape(positions), dtype=bool)
        if self.stat == "S":
            sv = positions
        elif self.stat == "-S":
            sv = -positions
        else:
            sv = abs(positions)
        return _SIDES[self.side](sv, self._threshold_at(m))

    def advance(self, state, k, point, value):
        flag, s = state
        s2 = s + point
        if flag:
            return (1, s2)
        return (1 if self.trigger_mask(k, self._delta * s2) else 0, s2)

    def terminal(self, state):
        return self.values[state[0]]


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


def _sparse_terms(step: StepAmbiguity):
    """One step's row of the per-step table: per measure its ``(q, offset)``
    pairs of nonzero weights in support order, ``offset`` being the point
    minus the lowest point; the smallest and largest offset that some pair
    uses; the lowest point; and every point's offset, the last one being
    the step's span."""
    pts = step.support.points
    low = pts[0]
    # a list: tuple(generator) is resized outside the tuple free list, so
    # each call would leave one more tuple parked in it
    offsets = [pt - low for pt in pts]
    terms, used = [], set()
    for m in step.measures:  # loops, not comprehensions: per-step models redo this per call
        pairs = []
        for q, off in zip(m, offsets):
            if q != 0:
                pairs.append((q, off))
                used.add(off)
        terms.append(pairs)
    return terms, min(used), max(used), low, offsets


def _scalar_step(terms, x: float) -> float:
    """One step of a row that holds ``x`` at every child: per measure the
    left-to-right sum of q * x from its first product, and the max over
    measures in index order in Python floats, a tie kept on the earlier
    measure as on the generic path (``np.maximum`` may keep the later of
    two tied zeros; the module docstring says why neither moves a bit)."""
    best = None
    for pairs in terms:
        acc = pairs[0][0] * x
        for q, _ in pairs[1:]:
            acc = acc + q * x
        if best is None or acc > best:
            best = acc
    return best


def _flank_step(memo: dict, terms, x: float) -> float:
    """``_scalar_step(terms, x)``, memoized in ``memo`` per ``(terms, x)``.

    A ±0.0 steps to itself, since every kept weight q is positive: each
    q * ±0.0 is that zero, and so is each sum and max of them.  It returns
    before the lookup, because a dict key does not tell 0.0 from -0.0."""
    if x == 0.0:
        return x
    key = (id(terms), x)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _scalar_step(terms, x)
    return out


def _band_step(terms, src, dst, acc, prod, a: int, b: int) -> None:
    """``dst[a:b]``: per measure the left-to-right sum of q * src[i + offset]
    from its first product, and the max over measures in index order, all
    computed in place in the preallocated ``dst``, ``acc`` and ``prod``."""
    best, n = dst[a:b], b - a
    out, prod = best, prod[:n]
    for pairs in terms:
        q, off = pairs[0]
        np.multiply(src[a + off:b + off], q, out=out)
        for q, off in pairs[1:]:
            np.multiply(src[a + off:b + off], q, out=prod)
            np.add(out, prod, out=out)
        if out is not best:
            np.maximum(best, out, out=best)
        out = acc[:n]


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
        n = np.ceil(np.minimum(np.maximum(t, lower), upper) / delta)[:, None] + around
        first = np.where(below(delta * n, t[:, None]), np.inf, n).min(axis=1)
        return np.minimum(np.maximum(first - low, 0.0), wide).astype(int).tolist()

    if event.stat == "S":
        e = edge(thr, split)
        return (e, width, False) if up else ([0] * len(width), e, False)
    neg = edge(-thr, mirror)  # -x <cmp> t is x <mirrored cmp> -t
    if event.stat == "-S":
        return ([0] * len(width), neg, False) if up else (neg, width, False)
    # |x| is above t where x or -x is, and below t where both are
    return neg, edge(thr, split), up


def _lattice_upper(model: SequenceModel, payoff, state_cap: int) -> float:
    """Backward induction over the reachable partial sums of each layer.

    Layer k holds the sums [sum of min points, sum of max points] over the
    first k steps, so each support point's slice of layer k lines up with
    layer k-1 directly.  One per-step table (``_sparse_terms``, once per
    distinct step object through ``SequenceModel.per_step``) gives each
    step's ``(q, offset)`` pairs, used offsets, lowest point and point
    offsets; the layers' low sums and widths are running sums over it.  A
    layer is a scalar ``left`` below index ``a``, an array band ``[a, b)``
    and a scalar ``right`` from ``b`` on.  The next band is the indices
    whose children are not all in one flank, ``[a - max offset, b - min
    offset)`` clipped to the layer; a state whose children are all in a
    flank becomes that flank scalar's step.

    For a bound ``TerminalSumPayoff`` the band is the whole layer: the
    payoff sees only the terminal sums the supports can reach and the gaps
    between them hold 0.0, since a reachable state reads only reachable
    children.  For a bound ``WindowEvent`` the band starts empty, with both
    flanks at the never-fired value; the fired value is one scalar per layer
    taken through the same step.  ``_fired_edges`` finds the edges of the
    fired ranges of all window steps in one vectorized pass before the
    layer loop; an empty or whole layer may come back with ``s > e``.
    Before each step, layer k's ranges take the fired value: a prefix or a
    suffix becomes a flank, a middle range is written into the band, and
    an empty band over a uniform row (``left is right``) first moves to the
    range's edge, so the band shrinks back to what is still undecided.

    Per state, the inner sum runs left to right over the support points
    with nonzero weight from the first product, and the max over measures
    runs in index order; the flank scalars do the same in Python floats,
    memoized per step and value (``_flank_step``).  A ±0.0 flank passes
    through unstepped: every kept weight is positive, and a dict key does
    not tell 0.0 from -0.0.  Equal flanks share one memoized object, which
    can only let an empty band move over a row that is uniform anyway.  The
    result gets ``+ 0.0`` once (see the module docstring for why neither
    the skipped terms nor the missing ``0.0 +`` per sum changes a bit).
    """
    event = payoff if isinstance(payoff, WindowEvent) else None
    last = model.horizon if event is None else event.hi
    table = model.per_step(_sparse_terms)
    lows = list(accumulate((row[3] for row in table), initial=0))
    widths = list(accumulate((row[4][-1] for row in table), initial=1))
    estimate = (1 if event is None else 2) * widths[last]
    if estimate > state_cap:
        raise StateSpaceError(estimate, state_cap)

    cur, nxt, acc, prod = (np.empty(widths[last]) for _ in range(4))
    fired = left = right = None
    if event is None:
        reach = 1  # bit i: terminal sum lows[n] + i is reachable
        for row in table:
            reach = functools.reduce(operator.or_, (reach << off for off in row[4]))
        n = model.horizon
        pos = model.delta * np.arange(lows[n], lows[n] + widths[n], dtype=float)
        hit = np.frombuffer(reach.to_bytes(len(pos) // 8 + 1, "little"), dtype=np.uint8)
        hit = np.unpackbits(hit, bitorder="little")[:len(pos)].astype(bool)
        cur[:len(pos)] = 0.0
        cur[:len(pos)][hit] = _terminal_values(lambda: payoff.terminal_array(pos[hit]))
        a, b = 0, len(pos)
    else:
        a = b = 0
        left = right = event.values[0]
        fired = event.values[1]
        lo, hi = event.lo, event.hi
        starts, ends, outside = _fired_edges(event, lows, widths, float(model.delta))
        memo: dict = {}
    for k in range(model.horizon, 0, -1):
        terms, mn, mx, _, _ = table[k - 1]
        if event is not None and lo <= k <= hi:
            w, s, e = widths[k], starts[k - lo], ends[k - lo]
            if not outside:
                ranges = ((s, e),)
            else:  # absS above a threshold: a prefix and a suffix, or the whole layer
                ranges = ((0, s), (e, w)) if s < e else ((0, w),)
            for i, j in ranges:
                if i >= j:
                    continue
                if a == b and left is right:  # a uniform row: the band moves to the edge
                    a = b = j if i == 0 else i
                if i == 0:  # a prefix becomes the left flank
                    if j < a:
                        cur[j:a] = left
                    a, b, left = j, max(b, j), fired
                elif j == w:  # a suffix becomes the right flank
                    if i > b:
                        cur[b:i] = right
                    a, b, right = min(a, i), i, fired
                else:  # a middle range (absS below a threshold) goes into the band
                    if i < a:
                        cur[i:a] = left
                        a = i
                    if j > b:
                        cur[b:j] = right
                        b = j
                    cur[i:j] = fired
        w_out = widths[k - 1]
        a2 = min(max(0, a - mx), w_out)
        b2 = max(min(w_out, b - mn), a2)
        if a2 < b2:
            if a2 + mn < a:
                cur[a2 + mn:a] = left
            if b2 + mx > b:
                cur[b:b2 + mx] = right
            _band_step(terms, cur, nxt, acc, prod, a2, b2)
            cur, nxt = nxt, cur
        a, b = a2, b2
        if event is not None:
            left = _flank_step(memo, terms, left)
            right = _flank_step(memo, terms, right)
            fired = _flank_step(memo, terms, fired)
    return float(left if a > 0 else cur[0] if b > 0 else right) + 0.0


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
    return _generic_upper(model, bound, state_cap)


def evaluate_lower(model: SequenceModel, payoff, **kw) -> float:
    """Conjugate (lower) expectation: -E_upper[-payoff]."""
    return -evaluate_upper(model, payoff.negate(), **kw)


def evaluate_pair(model: SequenceModel, payoff, **kw) -> ExpectationPair:
    return ExpectationPair(lower=evaluate_lower(model, payoff, **kw),
                           upper=evaluate_upper(model, payoff, **kw))


def _step_count(model: SequenceModel, k) -> int:
    """``k`` as an int in 0..horizon; anything else is a ``ValueError``."""
    k = _integer(k, "step count k")
    if not 0 <= k <= model.horizon:
        raise ValueError(f"step count k={k} outside 0..{model.horizon}")
    return k


def sum_upper_mean(model: SequenceModel, k: int) -> float:
    """Upper expectation of S_k: sum of per-step upper means (independence).
    ``k = 0`` gives 0.0."""
    return model.moment_sums(lambda v: v, _step_count(model, k))[-1]


def sum_lower_mean(model: SequenceModel, k: int) -> float:
    return model.moment_sums(lambda v: v, _step_count(model, k), lower=True)[-1]
