"""Upper/lower capacities of path events, Choquet integrals, and MC checks.

On a finite lattice the indicator of any automaton event is itself an
admissible test function, so the upper capacity is exactly the upper
expectation of the indicator and one capacity pair serves for every
capacity construction that is sandwiched between E[f] and E[g] for
f <= 1_A <= g.  Lower capacities are computed from the complement
automaton (acceptance flipped, transitions shared), never from a
re-derived event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import iterlog
from .engine import (Automaton, WindowEvent, _event_rows, _plan, _side,
                     evaluate_upper)
from .model import SequenceModel, _finite, _integer, _real
from .rng import substream

# Monte Carlo draws and resolves steps in blocks of about this many values
_MC_BLOCK = 2 ** 14


@dataclass(frozen=True)
class CapacityPair:
    """Lower and upper capacity of one event.

    The slack absorbs float drift only: measure vectors may sum to 1 within
    1e-12 per step, which compounds multiplicatively over long horizons
    (about 1e-8 at ten thousand steps).
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (-1e-8 <= self.lower <= self.upper + 1e-12 <= 1.0 + 1e-8):
            raise ValueError(f"capacity pair out of order: ({self.lower!r}, {self.upper!r})")


def OutcomeFlagEvent(trigger: Callable[[int, float], bool]) -> Automaton:
    """Event {exists k: trigger(k, x_k)} on single outcomes; state = latched flag."""
    return Automaton(0, lambda s, k, point, value: 1 if s or trigger(k, value) else 0, float)


def window_max_event(n: int, N: int, threshold_fn, side: str = "ge",
                     on: str = "S") -> WindowEvent:
    """{exists m in [n, N]: stat(S_m) <side> threshold(m)}, the positional
    spelling of ``WindowEvent``, which reads and checks every argument.

    ``threshold_fn`` may be a constant or a callable of the step index m.
    """
    return WindowEvent(lo=n, hi=N, threshold=threshold_fn, side=side, stat=on)


def upper_capacity(model: SequenceModel, event, **kw) -> float:
    """Exact upper capacity: the upper expectation of the event indicator.
    ``kw`` (``state_cap``, ``method``) goes to ``evaluate_upper``."""
    return evaluate_upper(model, event, **kw)


def lower_capacity(model: SequenceModel, event, **kw) -> float:
    """Exact lower capacity: 1 - upper capacity of the complement automaton."""
    return 1.0 - upper_capacity(model, event.complement(), **kw)


def capacity_pair(model: SequenceModel, event, **kw) -> CapacityPair:
    """``lower_capacity`` and ``upper_capacity`` of ``event``.  A window
    event's complement (its values swapped) and the event itself are the
    two value rows of one DP, so the pair costs one backward pass, not
    two; any other event takes one DP per capacity."""
    if isinstance(event, WindowEvent):
        return _window_pairs(model, [event], **kw)[0]
    return CapacityPair(lower=lower_capacity(model, event, **kw),
                        upper=upper_capacity(model, event, **kw))


# floats in one layer buffer of a DP over several window events' pairs:
# 2 * pairs * the width of the window's last layer stays within it
_PAIRS_FLOATS = 2 ** 17


def _window_pairs(model: SequenceModel, events, **kw) -> list[CapacityPair]:
    """``capacity_pair`` of each window event in ``events``, which share
    ``lo``, ``hi``, ``side`` and ``stat``: each event's complement and the
    event itself are two value rows of one DP, each row with its own
    threshold.  The events run in chunks, one DP each, of as many pairs as
    keep 2 * pairs * the window's last layer width within
    ``_PAIRS_FLOATS`` (one pair at least), so that a DP's buffers stay
    bounded however long ``events`` is: the state cap counts one row."""
    per = max(1, len(events))
    if per > 1:
        width = _plan(model).layers()[1][events[0].bind(model).hi]
        per = max(1, _PAIRS_FLOATS // (2 * width))
    pairs = []
    for i in range(0, len(events), per):
        values = evaluate_upper(model, _event_rows([row for ev in events[i:i + per]
                                                    for row in (ev.complement(), ev)]), **kw)
        pairs += [CapacityPair(lower=1.0 - values[j], upper=values[j + 1])
                  for j in range(0, len(values), 2)]
    return pairs


# ---------------------------------------------------------------------------
# Choquet integral
# ---------------------------------------------------------------------------


def _check_nonincreasing(ts, vs):
    for (t0, v0), (t1, v1) in zip(zip(ts, vs), list(zip(ts, vs))[1:]):
        if v1 > v0 + 1e-9:
            raise ValueError(
                f"tail capacity is not nonincreasing: V({t0})={v0} < V({t1})={v1}")


def choquet_integral(tail_capacity: Callable[[float], float],
                     atoms: Sequence[float]) -> float:
    """Exact Choquet integral of a lattice-valued X from its tail V(X >= t).

    ``atoms`` are the values X can take; each, and each tail value, goes
    through ``_finite``, and the list must be nonempty.  The tail is constant
    on every interval (a_i, a_{i+1}] between consecutive atoms (0 counted
    as one), so the integral is the finite sum of V(X >= t) times the
    interval length over t > 0, plus (V(X >= t) - 1) times the length over
    t <= 0, with ``tail_capacity`` called once at each right end.  A tail that increases
    by more than 1e-9 between atoms raises ``ValueError``.
    """
    if len(atoms) == 0:
        raise ValueError("atom list must be nonempty")
    bounds = sorted({_finite(a, "atom") for a in atoms} | {0.0})
    ts = [b for b in bounds if b > 0]
    vs_pos = [_finite(tail_capacity(t), "tail capacity") for t in ts]
    neg = [b for b in bounds if b < 0]
    ts_neg = neg[1:] + [0.0] if neg else []
    vs_neg = [_finite(tail_capacity(t), "tail capacity") for t in ts_neg]
    _check_nonincreasing(ts_neg + ts, vs_neg + vs_pos)
    total = 0.0
    prev = 0.0
    for t, v in zip(ts, vs_pos):
        total += (t - prev) * v
        prev = t
    if neg:
        prev = neg[0]
        for t, v in zip(ts_neg, vs_neg):
            total += (t - prev) * (v - 1.0)
            prev = t
    return total


# ---------------------------------------------------------------------------
# Borel-Cantelli product identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BCProductReport:
    """Exact intersection/product/union numbers for per-coordinate events."""

    intersection_lower: float     # lower capacity of the intersection of complements
    product_bound: float          # prod over i of (1 - upper(A_i))
    union_upper: float            # upper capacity of the union
    per_event_upper: tuple[float, ...]


def bc_product_check(model: SequenceModel, thresholds: Sequence[float],
                     side: str = "ge", **kw) -> BCProductReport:
    """Factorization check for events A_i = {x_i <side> c_i}, one per coordinate.

    On finite models with indicator test functions the lower capacity of the
    intersection of complements equals the product of per-event complements
    exactly; both are returned together with the union's upper capacity.
    Each threshold goes through ``_real``.
    """
    ths = [_real(t, "bc threshold") for t in thresholds]
    n = len(ths)
    if n < 1 or n > model.horizon:
        raise ValueError(f"need 1 <= len(thresholds) <= horizon, got {n}")
    cmp_fn = _side(side)
    sub = model if model.horizon == n else _prefix_model(model, n)

    per = []
    for i, c in enumerate(ths, start=1):
        per.append(sub.step(i).upper_expectation(lambda v: 1.0 if cmp_fn(v, c) else 0.0))
    product = 1.0
    for v in per:
        product *= (1.0 - v)

    trig = lambda k, x: cmp_fn(x, ths[k - 1])
    union = upper_capacity(sub, OutcomeFlagEvent(trig), **kw)
    return BCProductReport(intersection_lower=1.0 - union, product_bound=product,
                           union_upper=union, per_event_upper=tuple(per))


def _prefix_model(model: SequenceModel, n: int) -> SequenceModel:
    if model.is_iid:
        return SequenceModel.iid(model.step(1), n)
    return SequenceModel(n, steps=[model.step(k) for k in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Monte Carlo lower bound via a fixed strategy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCResult:
    estimate: float
    std_error: float
    replications: int
    accepted: int


def mc_capacity_lower_bound(model: SequenceModel, event: WindowEvent, strategy,
                            replications: int, seed: int) -> MCResult:
    """Unbiased MC estimate of P_strategy(event) for one admissible strategy.

    Any strategy that picks a member of the step family (even adaptively)
    induces a probability measure dominated by the upper capacity, so the
    estimate is a statistical lower bound for it.  ``event`` must be a
    ``WindowEvent`` (complemented or negated ones included); any other
    event raises ``ValueError``.  ``replications`` and ``seed`` go through
    ``_integer``.  Strategies:

    * ``("constant", i)`` — measure index i at every step;
    * ``"greedy-one-step"`` — maximize the immediate trigger probability of
      the event flag (lowest index wins ties);
    * ``("schedule", [i_1, ..., i_N])`` — fixed per-step indices.

    All replications advance together, in blocks of ``max(1, _MC_BLOCK //
    R)`` steps for R replications: one ``uniform_rows`` call on the row
    stream ``substream(seed, arange(R))`` draws a block's (steps x R)
    uniforms, and element [i, r] is the next draw of replication r's own
    stream substream(seed, r).  So the draw that drives step k of
    replication r is still the k-th uniform of substream(seed, r), whatever
    the replication count or block size.  The outcome for a draw u is the
    first point whose cumulative weight under the chosen law exceeds u, or
    the last point when u is past the last sum.

    The tables hold, per distinct step of ``model.kinds()`` and padded to
    the widest support, the points (0 beyond them) and each measure's first
    (points - 1) cumulative sums (+inf beyond them): outcome j is the count
    of the chosen law's sums at or below u, and moves the path by point j.
    A fixed strategy gathers the tables once by step kind and index, and as
    its law does not depend on the path, each block is resolved at once:
    the outcomes by comparisons of the block's draws against each step's
    sums, the points by one flat ``take``, the positions by one integer
    cumulative sum, and the flag by one ``trigger_block`` check.

    Greedy maximizes the immediate trigger probability: each measure's
    score is its weight on the points that fire the event from the path's
    position, summed left to right from 0.0, and the lowest index wins ties
    (a strict running comparison over the measures).  Before a path fires,
    that choice depends only on the step and the position; after, the flag
    stays set, so a fired path's later measures do not move ``accepted``.
    So greedy builds a policy table per run of steps of a block, over every
    position the paths can reach in the run: one ``trigger_block`` check
    of all of its points, the scores and the chosen law's sums per step and
    position; the paths then advance a step at a time by flat ``take``s
    from it.  A run is the longest whose table is at most R positions
    wide; when even one step's table would be wider, the table is built
    per step over the paths' own positions.  A path counts as accepted
    when the event's terminal value for it (``values[1]`` if it fired,
    ``values[0]`` if not) is at least 0.5.
    """
    replications, seed = _integer(replications, "replications"), _integer(seed, "seed")
    if replications < 100:
        raise ValueError(f"replications must be >= 100, got {replications}")
    distinct, kinds = model.kinds()
    sched = _parse_strategy(strategy, distinct, kinds)
    if not isinstance(event, WindowEvent):
        raise ValueError(f"Monte Carlo needs a WindowEvent, got {type(event).__name__}")
    ev = event.bind(model)

    width = max(len(s.support.points) for s in distinct)
    points = np.zeros((len(distinct), width), dtype=np.int64)
    laws = np.full((len(distinct), max(s.n_measures for s in distinct), width - 1), np.inf)
    for d, s in enumerate(distinct):
        n = len(s.support.points)
        points[d, :n] = s.support.points
        laws[d, :s.n_measures, :n - 1] = [list(accumulate(m))[:n - 1] for m in s.measures]
    if sched is None:
        # each step kind's weights, (kinds, M, P) like the law sums
        weights = np.zeros(laws.shape[:2] + (width,))
        for d, s in enumerate(distinct):
            weights[d, :s.n_measures, :len(s.support.points)] = s.measures
        # how far one step can move a position down, and its range
        down = min(0, min(s.support.points[0] for s in distinct))
        reach = max(0, max(s.support.points[-1] for s in distinct)) - down
        greedy = (np.array(kinds), points, weights, laws, down, reach)
    else:
        points, laws = points[kinds], laws[kinds, sched]
    streams = substream(seed, np.arange(replications, dtype=np.uint64))
    pos = np.zeros(replications, dtype=np.int64)
    flag = np.zeros(replications, dtype=bool)
    rows = max(1, _MC_BLOCK // replications)
    for k0 in range(0, model.horizon, rows):
        u = streams.uniform_rows(min(rows, model.horizon - k0))
        if sched is None:
            pos, flag = _greedy_block(ev, model.delta, k0, u, pos, flag, greedy)
            continue
        # outcome j is the count of the law's sums at or below u among the
        # first (points - 1): a nondecreasing law's right-side search for u,
        # capped at the last point; as a flat index into the block's points
        block = slice(k0, k0 + len(u))
        j = np.repeat(width * np.arange(len(u))[:, None], len(pos), axis=1)
        for law in laws[block].T:
            j += law[:, None] <= u
        path = np.cumsum(points[block].take(j), axis=0)
        path += pos
        flag |= ev.trigger_block(k0, model.delta * path).any(axis=0)
        pos = path[-1]

    accepted = int(np.count_nonzero(np.where(flag, ev.values[1] >= 0.5, ev.values[0] >= 0.5)))
    p = accepted / replications
    se = math.sqrt(max(p * (1.0 - p), 0.0) / replications)
    return MCResult(estimate=p, std_error=se, replications=replications, accepted=accepted)


def _greedy_block(ev: WindowEvent, delta: float, k0: int, u: np.ndarray, pos: np.ndarray,
                  flag: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """Greedy through steps k0+1..k0+len(u), one row of ``u`` a step:
    (new positions, new flags).  ``tables`` holds the step kinds, the
    points, weight and law tables by kind, and how far one step can move a
    position down and its range.

    Each run of steps takes one ``_greedy_policy`` table over the positions
    the paths can reach in it, the run as long as that stays at most R
    positions wide.  When even one step's is wider, each step takes one
    over the paths' own positions."""
    kinds, points, weights, laws, down, reach = tables
    t = 0
    while t < len(u):
        lo, hi = int(pos.min()), int(pos.max())
        room = len(pos) - 1 - (hi - lo)
        if room < 0:
            # the spread falls by at most ``reach`` a step, so it stays at R
            # or more for this many steps, each with its table over ``pos``
            paths = np.arange(len(pos))
            for t in range(t, min(len(u), t + 1 + (-room - 1) // reach)):
                d = kinds[k0 + t]
                after, hit, sums = _greedy_policy(ev, delta, k0 + t, pos, points[d, None],
                                                  weights[d, None], laws[d, None])
                f = (sums[0] <= u[t]).sum(axis=0)
                f *= len(pos)
                f += paths
                flag |= hit.take(f)
                pos = after.take(f)
            t += 1
            continue
        s = len(u) - t if reach == 0 else min(len(u) - t, 1 + room // reach)
        x0 = lo + (s - 1) * down
        X = np.arange(x0, hi + (s - 1) * (reach + down) + 1)
        run = kinds[k0 + t:k0 + t + s]
        after, hit, sums = _greedy_policy(ev, delta, k0 + t, X, points[run], weights[run], laws[run])
        after -= x0
        x = pos - x0  # each path's column of the table
        for hit_t, sums_t, after_t, u_t in zip(hit, sums, after, u[t:t + s]):
            # outcome j counts the chosen law's sums at or below u; the flat
            # index j * W + x picks from the step's (P, W) rows
            f = (sums_t.take(x, axis=1) <= u_t).sum(axis=0)
            f *= len(X)
            f += x
            flag |= hit_t.take(f)
            x = after_t.take(f)
        pos = x + x0
        t += s
    return pos, flag


def _greedy_policy(ev: WindowEvent, delta: float, k0: int, X: np.ndarray, pts: np.ndarray,
                   weights: np.ndarray, laws: np.ndarray):
    """Greedy's choice at steps k0+1..k0+s from each start position in
    ``X`` (W of them): ``pts``, ``weights`` and ``laws`` are those steps'
    rows of the points, weight and law tables, (s, P), (s, M, P) and
    (s, M, P - 1).  Returns the position after each point (s, P, W),
    whether it fires (s, P, W), and the chosen law's sums (s, P - 1, W)."""
    after = X + pts[:, :, None]
    hit = ev.trigger_block(k0, delta * after)
    s, m, p = weights.shape
    mi = np.zeros((s, 1, len(X)), dtype=np.intp)
    if m > 1:
        # each measure's trigger probability, left to right over the points;
        # the fold from 0.0 starts at its first product, as 0.0 + x is x for
        # x >= 0 up to the sign of a zero, which no comparison below sees
        qs = weights.transpose(2, 0, 1)[..., None]
        hs = hit.astype(float).transpose(1, 0, 2)[:, :, None, :]
        score = qs[0] * hs[0]
        for q, h in zip(qs[1:], hs[1:]):
            score += q * h
        # strict running comparison: the first maximum, lowest index, wins ties
        best = score[:, 0]
        for i in range(1, m):
            better = score[:, i] > best
            mi[:, 0][better] = i
            if i < m - 1:
                best = np.maximum(best, score[:, i])
    # the chosen law's sums, by the flat index (t * M + mi) * (P - 1) + c
    if s > 1:
        mi += (m * np.arange(s))[:, None, None]
    mi *= p - 1
    return after, hit, laws.take(mi + np.arange(p - 1)[:, None])


def _parse_strategy(strategy, distinct: list, kinds: list[int]) -> list[int] | None:
    """The measure index of each step, or None for the greedy strategy;
    ``distinct, kinds`` is the model's ``kinds()``.

    This is the whole strategy grammar: an unknown name, a schedule that is
    not a list or tuple, an index that is not an integer (a bool, a float or
    a string included) or an index outside a step's family raises
    ``ValueError``.
    """
    if strategy == "greedy-one-step":
        return None
    if isinstance(strategy, (tuple, list)) and len(strategy) == 2 \
            and strategy[0] in ("constant", "schedule"):
        kind, arg = strategy
        if kind == "constant":
            sched = [arg] * len(kinds)
        elif isinstance(arg, (tuple, list)):
            sched = list(arg)
        else:
            raise ValueError(f"schedule strategy needs a list of measure indices, got {arg!r}")
        if len(sched) != len(kinds):
            raise ValueError(f"schedule length {len(sched)} != horizon {len(kinds)}")
        for k, (idx, c) in enumerate(zip(sched, kinds), start=1):
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                raise ValueError(f"{kind} strategy needs integer measure indices, "
                                 f"got {idx!r} at step {k}")
            if not 0 <= idx < distinct[c].n_measures:
                raise ValueError(f"{kind} strategy index {idx} invalid at step {k}")
        return sched
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# event description grammar (config surface)
# ---------------------------------------------------------------------------


def event_from_config(cfg: dict, model: SequenceModel | None = None) -> WindowEvent:
    """Build a window event from its config-file description.

    Schema: ``{"window": {"n": int, "N": int}, "stat": "S"|"-S"|"absS",
    "side": ">="|">"|"<="|"<", "threshold": T}`` where T is one of
    ``{"kind": "const", "c": real}``, ``{"kind": "d_n", "scale": real}``
    (scale * sqrt(2 m loglog m)) or ``{"kind": "a_n", "scale": real}``
    (scale * s_m * t_m, multiplied left to right, with s_m and t_m read from
    the model's ``NormalizerSeries``).
    """
    try:
        win = cfg["window"]
        n, N = win["n"], win["N"]
        thr = cfg["threshold"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"bad event description: missing {e}") from None
    stat = cfg.get("stat", "S")
    side = cfg.get("side", ">=")
    kind = thr.get("kind") if isinstance(thr, dict) else None
    if kind == "const":
        threshold = _real(thr.get("c"), "threshold c")
    elif kind == "d_n":
        scale = _real(thr.get("scale", 1.0), "threshold scale")
        threshold = lambda m: scale * iterlog.d_n(m)
    elif kind == "a_n":
        if model is None:
            raise ValueError("a_n threshold needs a model for its normalizers")
        scale = _real(thr.get("scale", 1.0), "threshold scale")
        norms = iterlog.NormalizerSeries(cumulative_upper_second_moments(model))
        s, t = norms.s_table, norms.t_table
        threshold = lambda m: scale * s[m] * t[m]
    else:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return window_max_event(n, N, threshold, side=side, on=stat)


def cumulative_upper_second_moments(model: SequenceModel, upto: int | None = None) -> list[float]:
    """[0, s_1^2, ..., s_upto^2] from per-step upper second moments, ``upto``
    as in ``moment_sums``."""
    return model.moment_sums(lambda v: v * v, upto)


def _running_centers(model: SequenceModel, upto: int, center: str) -> list[float]:
    """[0, c_1, ..., c_upto]: running sums of per-step upper or lower means,
    or zeros for ``center="none"``."""
    if center == "none":
        return [0.0] * (upto + 1)
    if center not in ("upper-mean", "lower-mean"):
        raise ValueError(f"unknown centering {center!r}")
    return model.moment_sums(lambda v: v, upto, lower=center == "lower-mean")


def centered_max_sum_event(model: SequenceModel, x: float, n: int | None = None,
                           center: str = "upper-mean") -> WindowEvent:
    """Event {max_{k<=n} (S_k - center_k) >= x} with running-mean centering."""
    n = model.horizon if n is None else n
    cents = _running_centers(model, n, center)
    return window_max_event(1, n, lambda m: x + cents[m], side="ge", on="S")
