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
from .engine import _SIDES, DEFAULT_STATE_CAP, Automaton, WindowEvent, evaluate_upper
from .model import SequenceModel
from .rng import substream

_SIDE_ALIASES = {
    "ge": "ge", ">=": "ge", "≥": "ge",
    "gt": "gt", ">": "gt",
    "le": "le", "<=": "le", "≤": "le",
    "lt": "lt", "<": "lt",
}
_STAT_ALIASES = {"S": "S", "S_m": "S", "-S": "-S", "-S_m": "-S",
                 "absS": "absS", "|S|": "absS", "|S_m|": "absS"}

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
    """Automaton for {exists m in [n, N]: stat(S_m) <side> threshold(m)}.

    ``threshold_fn`` may be a constant or a callable of the step index m;
    state is (triggered flag, lattice partial sum).  A NaN threshold raises
    ``ValueError``; ``±inf`` gives the sure or the never event.
    """
    if side not in _SIDE_ALIASES:
        raise ValueError(f"unknown side {side!r}")
    if on not in _STAT_ALIASES:
        raise ValueError(f"unknown stat {on!r}")
    if callable(threshold_fn):
        thr = threshold_fn
    else:
        const = float(threshold_fn)
        if math.isnan(const):
            raise ValueError("window threshold is NaN")
        thr = lambda m: const
    return WindowEvent(lo=n, hi=N, threshold=thr, side=_SIDE_ALIASES[side],
                       stat=_STAT_ALIASES[on])


def upper_capacity(model: SequenceModel, event, *,
                   state_cap: int = DEFAULT_STATE_CAP, method: str = "auto") -> float:
    """Exact upper capacity: the upper expectation of the event indicator."""
    return evaluate_upper(model, event, state_cap=state_cap, method=method)


def lower_capacity(model: SequenceModel, event, *,
                   state_cap: int = DEFAULT_STATE_CAP, method: str = "auto") -> float:
    """Exact lower capacity: 1 - upper capacity of the complement automaton."""
    return 1.0 - upper_capacity(model, event.complement(), state_cap=state_cap, method=method)


def capacity_pair(model: SequenceModel, event, **kw) -> CapacityPair:
    return CapacityPair(lower=lower_capacity(model, event, **kw),
                        upper=upper_capacity(model, event, **kw))


# ---------------------------------------------------------------------------
# Choquet integral
# ---------------------------------------------------------------------------


def _check_nonincreasing(ts, vs):
    for (t0, v0), (t1, v1) in zip(zip(ts, vs), list(zip(ts, vs))[1:]):
        if v1 > v0 + 1e-9:
            raise ValueError(
                f"tail capacity is not nonincreasing: V({t0})={v0} < V({t1})={v1}")


def choquet_integral(tail_capacity: Callable[[float], float],
                     lower_bound: float, upper_bound: float,
                     quadrature_step: float | None = None,
                     atoms: Sequence[float] | None = None) -> float:
    """Two-piece tail integral of V(X >= t).

    The positive piece integrates V(X >= t) over t > 0 and the negative piece
    integrates V(X >= t) - 1 over t <= 0.  With ``atoms`` supplied the
    variable is lattice-valued and the integral is the exact finite sum over
    inter-atom intervals, the tail being constant on each (a_i, a_{i+1}];
    otherwise a trapezoid rule with ``quadrature_step`` is used on
    [lower_bound, upper_bound].
    """
    if atoms is not None:
        if len(atoms) == 0:
            raise ValueError("atom list must be nonempty")
        bounds = sorted(set(float(a) for a in atoms) | {0.0})
        ts = [b for b in bounds if b > 0] or []
        vs_pos = [float(tail_capacity(t)) for t in ts]
        neg = [b for b in bounds if b < 0]
        ts_neg = neg[1:] + [0.0] if neg else []
        vs_neg = [float(tail_capacity(t)) for t in ts_neg]
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

    if quadrature_step is None or quadrature_step <= 0:
        raise ValueError("quadrature_step must be positive when no atoms are given")
    if upper_bound < lower_bound:
        raise ValueError("upper_bound below lower_bound")

    def trapz(a: float, b: float, shift: float) -> float:
        if b <= a:
            return 0.0
        n = max(1, int(math.ceil((b - a) / quadrature_step)))
        ts = np.linspace(a, b, n + 1)
        vs = np.array([float(tail_capacity(t)) for t in ts])
        _check_nonincreasing(ts, vs)
        vs = vs + shift
        return float(np.sum((vs[1:] + vs[:-1]) * 0.5 * np.diff(ts)))

    return trapz(max(lower_bound, 0.0), upper_bound, 0.0) + \
        trapz(lower_bound, min(upper_bound, 0.0), -1.0)


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
    """
    n = len(thresholds)
    if n < 1 or n > model.horizon:
        raise ValueError(f"need 1 <= len(thresholds) <= horizon, got {n}")
    if side not in _SIDE_ALIASES:
        raise ValueError(f"unknown side {side!r}")
    cmp_fn = _SIDES[_SIDE_ALIASES[side]]
    sub = model if model.horizon == n else _prefix_model(model, n)

    per = []
    for i in range(1, n + 1):
        c = float(thresholds[i - 1])
        per.append(sub.step(i).upper_expectation(lambda v: 1.0 if cmp_fn(v, c) else 0.0))
    product = 1.0
    for v in per:
        product *= (1.0 - v)

    trig = lambda k, x: cmp_fn(x, float(thresholds[k - 1]))
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
    event raises ``ValueError``.  Strategies:

    * ``("constant", i)`` — measure index i at every step;
    * ``"greedy-one-step"`` — maximize the immediate trigger probability of
      the event flag (lowest index wins ties; triggered paths take index 0);
    * ``("schedule", [i_1, ..., i_N])`` — fixed per-step indices.

    All replications advance together, one step at a time: at step k every
    replication r draws one uniform from its own stream substream(seed, r),
    so each stream's k-th draw drives step k of its replication whatever
    the replication count.  A path counts as accepted when the event's
    terminal value for it (``values[1]`` if it fired, ``values[0]`` if not)
    is at least 0.5.
    """
    if replications < 100:
        raise ValueError(f"replications must be >= 100, got {replications}")
    sched = _parse_strategy(strategy, model)
    if not isinstance(event, WindowEvent):
        raise ValueError(f"Monte Carlo needs a WindowEvent, got {type(event).__name__}")
    ev = event.bind(model)

    streams = [substream(seed, r) for r in range(replications)]
    pos = np.zeros(replications, dtype=np.int64)
    flag = np.zeros(replications, dtype=bool)
    for k in range(1, model.horizon + 1):
        step = model.step(k)
        pts = np.asarray(step.support.points, dtype=np.int64)
        cums = np.array([list(accumulate(m)) for m in step.measures])
        if sched is None:
            hits = [ev.trigger_mask(k, ev._delta * (pos + pt)) for pt in pts]
            accs = [sum((q * hit for q, hit in zip(m, hits)), 0.0) for m in step.measures]
            mi = np.argmax(accs, axis=0)  # first maximum: lowest index wins ties
            mi[flag] = 0
        else:
            mi = sched[k - 1]
        u = np.array([s.uniform() for s in streams])
        # sums are nondecreasing, so the count <= u is the first j with u < cum[j]
        j = np.minimum(np.count_nonzero(cums[mi] <= u[:, None], axis=1), len(pts) - 1)
        pos += pts[j]
        flag |= ev.trigger_mask(k, ev._delta * pos)

    accepted = int(np.count_nonzero(np.where(flag, ev.values[1] >= 0.5, ev.values[0] >= 0.5)))
    p = accepted / replications
    se = math.sqrt(max(p * (1.0 - p), 0.0) / replications)
    return MCResult(estimate=p, std_error=se, replications=replications, accepted=accepted)


def _parse_strategy(strategy, model: SequenceModel) -> list[int] | None:
    """The measure index of each step, or None for the greedy strategy.

    This is the whole strategy grammar: an unknown name, a non-integer index
    or an index outside a step's family raises ``ValueError``.
    """
    if strategy == "greedy-one-step":
        return None
    if isinstance(strategy, (tuple, list)) and len(strategy) == 2 \
            and strategy[0] in ("constant", "schedule"):
        kind, arg = strategy
        try:
            sched = [int(arg)] * model.horizon if kind == "constant" else [int(i) for i in arg]
        except (TypeError, ValueError):
            raise ValueError(f"{kind} strategy needs integer measure indices, "
                             f"got {arg!r}") from None
        if len(sched) != model.horizon:
            raise ValueError(f"schedule length {len(sched)} != horizon {model.horizon}")
        for k, idx in enumerate(sched, start=1):
            if not 0 <= idx < model.step(k).n_measures:
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
    (scale * s_m t_m, needing the model for the running second moments).
    """
    try:
        win = cfg["window"]
        n, N = int(win["n"]), int(win["N"])
        thr = cfg["threshold"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"bad event description: missing {e}") from None
    stat = cfg.get("stat", "S")
    side = cfg.get("side", ">=")
    kind = thr.get("kind") if isinstance(thr, dict) else None
    if kind == "const":
        c = _real(thr.get("c"), "c")
        fn = lambda m: c
    elif kind == "d_n":
        scale = _real(thr.get("scale", 1.0), "scale")
        fn = lambda m: scale * iterlog.d_n(m)
    elif kind == "a_n":
        if model is None:
            raise ValueError("a_n threshold needs a model for its normalizers")
        scale = _real(thr.get("scale", 1.0), "scale")
        s2 = cumulative_upper_second_moments(model)
        fn = lambda m: scale * math.sqrt(s2[m]) * math.sqrt(2.0 * iterlog.loglog_(s2[m]))
    else:
        raise ValueError(f"unknown threshold kind {kind!r}")
    return window_max_event(n, N, fn, side=side, on=stat)


def _real(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"threshold {name} must be a real number, got {value!r}") from None


def cumulative_upper_second_moments(model: SequenceModel) -> list[float]:
    """[0, s_1^2, ..., s_N^2] from per-step upper second moments."""
    out = [0.0]
    acc = 0.0
    for step in model.steps():
        acc += step.upper_expectation(lambda v: v * v)
        out.append(acc)
    return out


def _running_centers(model: SequenceModel, upto: int, center: str) -> list[float]:
    """[0, c_1, ..., c_upto]: running sums of per-step upper or lower means,
    or zeros for ``center="none"``."""
    if center == "none":
        return [0.0] * (upto + 1)
    if center in ("upper-mean", "upper"):
        one = lambda s: s.upper_expectation(lambda v: v)
    elif center in ("lower-mean", "lower"):
        one = lambda s: s.lower_expectation(lambda v: v)
    else:
        raise ValueError(f"unknown centering {center!r}")
    out = [0.0]
    acc = 0.0
    for k in range(1, upto + 1):
        acc += one(model.step(k))
        out.append(acc)
    return out


def centered_max_sum_event(model: SequenceModel, x: float, n: int | None = None,
                           center: str = "upper") -> WindowEvent:
    """Event {max_{k<=n} (S_k - center_k) >= x} with running-mean centering."""
    n = model.horizon if n is None else n
    cents = _running_centers(model, n, center)
    return window_max_event(1, n, lambda m: x + cents[m], side="ge", on="S")
