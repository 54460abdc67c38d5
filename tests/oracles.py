"""Independent oracles and generators for the test suite.

Everything here deliberately avoids the library's evaluation paths: the
strategy-tree recursion walks raw histories with no state merging or
layering, the classical oracles run *forward* probability/convolution
recursions, and the literal strategy enumeration maximizes over explicitly
materialized adapted strategies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ambigil.capacity import MCResult
from ambigil.model import LatticeSupport, SequenceModel, StepAmbiguity
from ambigil.rng import substream


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_step(rng: np.random.Generator, delta: float, max_points: int = 3,
                max_measures: int = 4, point_span: int = 3) -> StepAmbiguity:
    npts = int(rng.integers(2, max_points + 1))
    points = tuple(sorted(rng.choice(np.arange(-point_span, point_span + 1),
                                     size=npts, replace=False).tolist()))
    nmeas = int(rng.integers(1, max_measures + 1))
    measures = []
    for _ in range(nmeas):
        raw = rng.uniform(0.05, 1.0, size=npts)
        m = raw / raw.sum()
        measures.append(tuple(float(v) for v in m))
    return StepAmbiguity(LatticeSupport(delta, points), tuple(measures))


def random_model(rng: np.random.Generator, max_n: int = 6, max_points: int = 3,
                 max_measures: int = 4, single_measure: bool = False) -> SequenceModel:
    n = int(rng.integers(1, max_n + 1))
    delta = float(rng.choice([0.5, 1.0]))
    kw = dict(max_points=max_points,
              max_measures=1 if single_measure else max_measures)
    if rng.integers(2) == 0:
        return SequenceModel.iid(random_step(rng, delta, **kw), n)
    return SequenceModel(n, steps=[random_step(rng, delta, **kw) for _ in range(n)])


def table_payoff(rng: np.random.Generator, model: SequenceModel,
                 lo: float = -2.0, hi: float = 2.0):
    """Random payoff as an explicit table over all outcome paths."""
    supports = [model.step(k).support.values() for k in range(1, model.horizon + 1)]
    table = {}
    for path in itertools.product(*[tuple(float(v) for v in s) for s in supports]):
        table[path] = float(rng.uniform(lo, hi))
    return table


# ---------------------------------------------------------------------------
# strategy-tree oracles
# ---------------------------------------------------------------------------


def nested_supremum(model: SequenceModel, payoff) -> float:
    """Adapted strategy-tree value by plain recursion over histories.

    Each child subtree is evaluated once per node and reused by every measure.
    """
    bound = payoff.bind(model) if hasattr(payoff, "bind") else payoff
    n = model.horizon

    def rec(state, k):
        if k == n:
            return bound.terminal(state)
        step = model.step(k + 1)
        pts = step.support.points
        vals = step.support.values()
        children = [rec(bound.advance(state, k + 1, pts[j], float(vals[j])), k + 1)
                    for j in range(len(pts))]
        best = None
        for m in step.measures:
            acc = 0.0
            for j in range(len(pts)):
                acc = acc + m[j] * children[j]
            if best is None or acc > best:
                best = acc
        return best

    return rec(bound.initial, 0)


def enumerate_adapted_value(model: SequenceModel, payoff) -> float:
    """Literal maximum over all adapted strategies (tiny horizons only).

    A strategy assigns one measure index to every history node; the value of
    each strategy is a plain linear expectation over outcome paths.
    """
    bound = payoff.bind(model) if hasattr(payoff, "bind") else payoff
    n = model.horizon

    # enumerate history nodes level by level
    nodes = [[()]]
    for k in range(1, n):
        prev = nodes[-1]
        pts = model.step(k).support.points
        nodes.append([h + (p,) for h in prev for p in pts])
    all_nodes = [h for level in nodes for h in level]
    choices = [range(model.step(len(h) + 1).n_measures) for h in all_nodes]

    best = None
    for assignment in itertools.product(*choices):
        pick = dict(zip(all_nodes, assignment))

        def value(state, hist, k):
            if k == n:
                return bound.terminal(state)
            step = model.step(k + 1)
            m = step.measures[pick[hist]]
            pts = step.support.points
            vals = step.support.values()
            acc = 0.0
            for j in range(len(pts)):
                acc += m[j] * value(bound.advance(state, k + 1, pts[j], float(vals[j])),
                                    hist + (pts[j],), k + 1)
            return acc

        v = value(bound.initial, (), 0)
        if best is None or v > best:
            best = v
    return best


# ---------------------------------------------------------------------------
# classical (single-measure) oracles
# ---------------------------------------------------------------------------


def _require_single_measure(model: SequenceModel):
    if any(s.n_measures != 1 for s in model.steps()):
        raise ValueError("classical oracle needs a single-measure model")


def classical_sum_pmf(model: SequenceModel) -> dict[int, float]:
    """Forward convolution of the per-step laws; keys are lattice sums."""
    _require_single_measure(model)
    pmf = {0: 1.0}
    for step in model.steps():
        m = step.measures[0]
        pts = step.support.points
        nxt: dict[int, float] = {}
        for s, mass in pmf.items():
            for j, p in enumerate(pts):
                nxt[s + p] = nxt.get(s + p, 0.0) + mass * m[j]
        pmf = nxt
    return pmf


def classical_expectation(model: SequenceModel, fn) -> float:
    return sum(mass * fn(model.delta * s) for s, mass in classical_sum_pmf(model).items())


def classical_window_probability(model: SequenceModel, event) -> float:
    """Forward (flag, sum) probability recursion under the single measure."""
    _require_single_measure(model)
    ev = event.bind(model) if hasattr(event, "bind") else event
    probs = {ev.initial: 1.0}
    for k in range(1, model.horizon + 1):
        step = model.step(k)
        m = step.measures[0]
        pts = step.support.points
        vals = step.support.values()
        nxt: dict = {}
        for state, mass in probs.items():
            for j, p in enumerate(m):
                c = ev.advance(state, k, pts[j], float(vals[j]))
                nxt[c] = nxt.get(c, 0.0) + mass * p
        probs = nxt
    return sum(mass for state, mass in probs.items() if ev.terminal(state) >= 0.5)


# ---------------------------------------------------------------------------
# Monte Carlo reference
# ---------------------------------------------------------------------------


def mc_reference(model: SequenceModel, event, strategy, replications: int,
                 seed: int) -> MCResult:
    """Scalar Monte Carlo over a window event: one replication at a time,
    one automaton step at a time, with the outcome picked by a running
    cumulative sum of the chosen law.  Strategies as in
    ``mc_capacity_lower_bound``; no validation."""
    ev = event.bind(model)
    flag_of = lambda state: state[0]

    def greedy_index(state, k, points, values, measures):
        if flag_of(state):
            return 0
        best_i = 0
        best = None
        for mi, m in enumerate(measures):
            acc = 0.0
            for j in range(len(points)):
                nxt = ev.advance(state, k, points[j], float(values[j]))
                acc += m[j] * (1.0 if flag_of(nxt) else 0.0)
            if best is None or acc > best:
                best = acc
                best_i = mi
        return best_i

    step_data = [(s.support.points, s.support.values(), s.measures) for s in model.steps()]
    accepted = 0
    for r in range(replications):
        stream = substream(seed, r)
        state = ev.initial
        for k in range(1, model.horizon + 1):
            points, values, measures = step_data[k - 1]
            if strategy == "greedy-one-step":
                mi = greedy_index(state, k, points, values, measures)
            elif strategy[0] == "constant":
                mi = strategy[1]
            else:
                mi = strategy[1][k - 1]
            u = stream.uniform()
            cum = 0.0
            j = len(points) - 1
            for jj, p in enumerate(measures[mi]):
                cum += p
                if u < cum:
                    j = jj
                    break
            state = ev.advance(state, k, points[j], float(values[j]))
        if ev.terminal(state) >= 0.5:
            accepted += 1

    p = accepted / replications
    se = math.sqrt(max(p * (1.0 - p), 0.0) / replications)
    return MCResult(estimate=p, std_error=se, replications=replications, accepted=accepted)


# ---------------------------------------------------------------------------
# event combinators (generic path)
# ---------------------------------------------------------------------------


class JoinedEvent(object):
    """Union/intersection of two flag events, for monotonicity/additivity tests."""

    def __init__(self, a, b, op: str = "or", accept: bool = True):
        self.a = a
        self.b = b
        self.op = op
        self.accept = accept
        self.initial = (a.initial, b.initial)

    def bind(self, model):
        return JoinedEvent(self.a.bind(model) if hasattr(self.a, "bind") else self.a,
                           self.b.bind(model) if hasattr(self.b, "bind") else self.b,
                           self.op, self.accept)

    def advance(self, state, k, point, value):
        sa, sb = state
        return (self.a.advance(sa, k, point, value),
                self.b.advance(sb, k, point, value))

    def terminal(self, state):
        sa, sb = state
        ha = self.a.terminal(sa) >= 0.5
        hb = self.b.terminal(sb) >= 0.5
        hit = (ha or hb) if self.op == "or" else (ha and hb)
        ok = hit if self.accept else not hit
        return 1.0 if ok else 0.0

    def complement(self):
        return JoinedEvent(self.a, self.b, self.op, not self.accept)
