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
paths: a NaN or infinite value, or an ``ArithmeticError`` raised by the
payoff, is a ``ValueError``.  Unreachable sums are never evaluated.  Two
representations are evaluated on one vectorized lattice path:

* ``TerminalSumPayoff`` — payoff is a function of the terminal partial sum
  (one row of values per layer);
* ``WindowEvent`` — indicator of a windowed threshold event on partial sums
  (a not-yet-fired row and one fired value per layer, latched before each).

Each lattice layer spans only the partial sums its supports can reach.
Everything else (full outcome vectors, product automata, float-accumulator
states) runs through a dictionary-layered generic path.  Both paths perform
per-state inner sums from 0.0 in a fixed left-to-right order over support
points and take the max over measures in index order, on one thread, so
results are bit-identical across the two paths and across reruns.

The lattice path sums only over each measure's nonzero weights; the
generic path stays dense.  That changes no bit while the values are
finite: a skipped term 0.0 * v is +0.0 or -0.0, and the running sum is
never -0.0 (it starts at +0.0, and under round-to-nearest a sum is -0.0
only when both operands are), so adding the term would leave it as it
is.  Terminal values are checked finite, window values are finite, and
each layer is a convex combination of the one after it.  Only a DP that
overflows to inf (NumPy warns) could differ, where the dense sum reads
0.0 * inf = NaN.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import SequenceModel, StepAmbiguity, TruncationSpec, clamp

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

    @property
    def width(self) -> float:
        return self.upper - self.lower


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


_SIDES = {
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
}
_STATS = ("S", "-S", "absS")


@dataclass(frozen=True)
class WindowEvent:
    """Path event {exists m in [lo, hi]: stat(S_m) <side> threshold(m)}.

    Automaton state is (triggered flag, lattice partial sum); the flag
    latches once the windowed comparison fires.  ``values`` holds the
    terminal value of a path that never fired and of one that fired: the
    indicator is (0.0, 1.0), the complement event swaps the pair and
    negation negates it, so both stay on the fast lattice path.
    """

    lo: int
    hi: int
    threshold: Callable[[int], float]
    side: str = "ge"
    stat: str = "S"
    values: tuple[float, float] = (0.0, 1.0)
    _delta: float | None = None

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {sorted(_SIDES)}, got {self.side!r}")
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
        thr = float(self.threshold(m))
        if math.isnan(thr):
            raise ValueError(f"window threshold at step {m} is NaN")
        return thr

    def trigger_mask(self, m: int, positions: np.ndarray) -> np.ndarray:
        if m < self.lo or m > self.hi:
            return np.zeros(len(positions), dtype=bool)
        if self.stat == "S":
            sv = positions
        elif self.stat == "-S":
            sv = -positions
        else:
            sv = np.abs(positions)
        return _SIDES[self.side](sv, self._threshold_at(m))

    def advance(self, state, k, point, value):
        flag, s = state
        s2 = s + point
        if flag:
            return (1, s2)
        return (1 if self.trigger_mask(k, np.array([self._delta * s2]))[0] else 0, s2)

    def terminal(self, state):
        return self.values[state[0]]


def _terminal_values(evaluate: Callable[[], object]):
    """``evaluate()``, the terminal payoff values of one DP, checked at the
    engine boundary: an ``ArithmeticError`` raised by the payoff, or a NaN
    or infinite value, is a ``ValueError``."""
    try:
        values = evaluate()
    except ArithmeticError as e:
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
    """One step's nonzero weights: per measure, its ``(q, offset)`` pairs in
    support order, ``offset`` being the point minus the lowest point, and the
    set of offsets that some measure uses."""
    pts = step.support.points
    terms, used = [], set()
    for m in step.measures:  # loops, not comprehensions: per-step models redo this per call
        pairs = []
        for q, pt in zip(m, pts):
            if q != 0:
                pairs.append((q, pt - pts[0]))
                used.add(pt - pts[0])
        terms.append(pairs)
    return terms, used


def _upper_step(terms, cols):
    """Max over measures (index order) of the left-to-right sum, from 0.0,
    of q * cols[offset] over the measure's nonzero weights: the dense sum's
    bits for finite columns (module docstring)."""
    best = None
    for pairs in terms:
        acc = 0.0
        for q, off in pairs:
            acc = acc + q * cols[off]
        best = acc if best is None else np.maximum(best, acc)
    return best


def _lattice_upper(model: SequenceModel, payoff, state_cap: int) -> float:
    """Backward induction over the reachable partial sums of each layer.

    Layer k holds the sums [sum of min points, sum of max points] over the
    first k steps, so each support point's slice of layer k lines up with
    layer k-1 directly.  Each layer is one row of values.  For a bound
    ``TerminalSumPayoff`` the payoff sees only the terminal sums the
    supports can reach and the gaps between them hold 0.0: a reachable
    state reads only reachable children.  For a bound ``WindowEvent`` the
    row is the not-yet-fired value, and the fired value, equal at every
    sum, is one scalar per layer taken through the same step; before each
    step the sums at which the event fires at step k take the fired value.
    Per state, the inner sum runs left to right over the support points
    with nonzero weight (see the module docstring for why the skipped
    terms change no bit) and the max over measures runs in index order.
    Each distinct step object becomes its ``(q, offset)`` pairs once per
    call, and a layer slices a column only for offsets that some measure
    uses.

    Beyond the last layer whose values depend on the partial sum (the
    window's end, or the horizon) the row is constant, so those layers are
    held one column wide and broadcast into that layer: each state still
    sees the same float operations.
    """
    event = payoff if isinstance(payoff, WindowEvent) else None
    last = model.horizon if event is None else event.hi
    steps = list(model.steps())
    sparse = {}  # id of each distinct step -> its nonzero weights
    lows, widths = [0], [1]
    reach = 1  # bit i: terminal sum lows[k] + i is reachable (terminal sums only)
    for k, step in enumerate(steps, start=1):
        if id(step) not in sparse:
            sparse[id(step)] = _sparse_terms(step)
        pts = step.support.points
        lows.append(lows[-1] + pts[0])
        widths.append(widths[-1] + pts[-1] - pts[0] if k <= last else 1)
        if event is None:
            reach = functools.reduce(operator.or_, (reach << (pt - pts[0]) for pt in pts))
    estimate = (1 if event is None else 2) * max(widths)
    if estimate > state_cap:
        raise StateSpaceError(estimate, state_cap)

    def positions(k: int) -> np.ndarray:
        return model.delta * np.arange(lows[k], lows[k] + widths[k], dtype=float)

    if event is None:
        pos = positions(model.horizon)
        hit = np.frombuffer(reach.to_bytes(len(pos) // 8 + 1, "little"), dtype=np.uint8)
        hit = np.unpackbits(hit, bitorder="little")[:len(pos)].astype(bool)
        v = np.zeros(len(pos))
        v[hit] = _terminal_values(lambda: payoff.terminal_array(pos[hit]))
    else:
        v, fired = np.full(widths[-1], event.values[0]), event.values[1]
    for k in range(model.horizon, 0, -1):
        terms, used = sparse[id(steps[k - 1])]
        if event is not None:
            v = np.where(event.trigger_mask(k, positions(k)), fired, v)
            fired = _upper_step(terms, dict.fromkeys(used, fired))
        w = widths[k - 1]
        cols = {off: v[off:off + w] for off in used} if k <= last else dict.fromkeys(used, v)
        v = _upper_step(terms, cols)
    return float(v[0])


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
    lattice path one row and, for a window event, one fired value per layer
    are held.  ``state_cap`` bounds the widest reachable layer on the
    lattice path, counted twice for a window event (not yet fired, fired),
    and all layers on the generic path.
    """
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


@dataclass(frozen=True)
class BreveResult:
    """Clamped-expectation sweep along a truncation schedule."""

    schedule: tuple[float, ...]
    values: tuple[float, ...]
    value: float
    stabilized: bool
    stabilized_at: int | None


def breve_expectation(step: StepAmbiguity, payoff: Callable[[float], float],
                      c_schedule: Sequence[float]) -> BreveResult:
    """Upper expectation of the clamped payoff along an increasing c schedule.

    On a finite support the sweep is exact as soon as c exceeds the payoff's
    sup-norm over the support, so the limit value is computed directly and
    the first schedule entry attaining it is reported.  A sweep that never
    reaches the exact value comes back with ``stabilized=False``.
    """
    cs = tuple(float(c) for c in c_schedule)
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ValueError(f"c schedule must be strictly increasing, got {cs}")
    exact = step.upper_expectation(payoff)
    values = []
    for c in cs:
        spec = TruncationSpec(c)
        values.append(step.upper_expectation(lambda v: clamp(payoff(v), spec)))
    stab_at = None
    for i, v in enumerate(values):
        if v == exact:
            stab_at = i
            break
    return BreveResult(schedule=cs, values=tuple(values),
                       value=values[-1] if values else exact,
                       stabilized=stab_at is not None, stabilized_at=stab_at)


def sum_upper_mean(model: SequenceModel, k: int) -> float:
    """Upper expectation of S_k: sum of per-step upper means (independence)."""
    return sum(model.step(i).upper_expectation(lambda v: v) for i in range(1, k + 1))


def sum_lower_mean(model: SequenceModel, k: int) -> float:
    return sum(model.step(i).lower_expectation(lambda v: v) for i in range(1, k + 1))
