"""Closed-form exponential tail bounds and their automated domination checks.

The bounds cover the maximum of centered partial sums of independent steps.
With B2y (resp. b2y) the sum of upper (resp. lower) expectations of the
squared y-truncated steps and A the sum of upper moments of the positive
parts capped at y, the implemented forms are

    kolmogorov_bound:   exp{-x^2 / (2(xy + v2)) * (1 + (2/3) ln(1 + xy/v2))}
    fuk_nagaev_bound:   max_tail + 2 e^{p^p} (A / y^p)^{delta x / (10 y)}
                                 + exp{-x^2 / (2 (1+delta) v2)}
    simplified_bound:   C_p delta^{-p} x^{-p} sum_moments
                                 + exp{-x^2 / (2 (1+delta) v2)}

where the caller adds the max-outcome tail to the kolmogorov term and
supplies C_p (no canonical value is fixed here).  ``verify_domination``
draws random small models, computes the exact maximal-sum capacities by
dynamic programming, and requires every applicable bound to dominate them;
the inequalities are theorems, so any reported violation is an
implementation defect.

Bounds are returned raw (possibly above 1); clamping would hide formula
errors in verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import iterlog
from .capacity import (OutcomeFlagEvent, centered_max_sum_event, lower_capacity,
                       upper_capacity, window_max_event)
from .model import LatticeSupport, SequenceModel, StepAmbiguity
from .rng import SplitMix64

_VIOL_TOL = 1e-12


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the exponential bounds."""

    x: float
    y: float
    p: float = 2.0
    delta: float = 1.0
    v2: float = 0.0            # plays B2y or b2y
    a_moment: float = 0.0      # sum of upper moments of (X_i^+ ∧ y)^p
    max_tail: float = 0.0      # upper capacity of {max_i X_i > y}

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError(f"x must be positive, got {self.x}")
        if not self.y > 0:
            raise ValueError(f"y must be positive, got {self.y}")
        if not self.p >= 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.v2 < 0 or self.a_moment < 0:
            raise ValueError("variance proxy and moment sum must be nonnegative")
        if not 0 <= self.max_tail <= 1:
            raise ValueError(f"max_tail must be in [0, 1], got {self.max_tail}")


def _safe_exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _safe_pow(base: float, exponent: float) -> float:
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def kolmogorov_bound(x: float, y: float, v2: float) -> float:
    """Exponential term of the maximal-sum bound (caller adds the max tail).

    Decreasing in x, increasing in v2.  The v2 -> 0 limit is 0 for x > 0 and
    is returned exactly; x -> 0 gives 1.
    """
    if x < 0 or y <= 0 or v2 < 0:
        raise ValueError(f"need x >= 0, y > 0, v2 >= 0; got ({x}, {y}, {v2})")
    if x == 0.0:
        return 1.0
    if v2 == 0.0:
        return 0.0
    xy = x * y
    expo = -(x * x) / (2.0 * (xy + v2)) * (1.0 + (2.0 / 3.0) * math.log1p(xy / v2))
    return _safe_exp(expo)


def fuk_nagaev_bound(inputs: BoundInputs) -> float:
    """Three-term moment/exponential bound; may exceed 1."""
    i = inputs
    mid = 2.0 * _safe_exp(i.p ** i.p) * _safe_pow(i.a_moment / i.y ** i.p,
                                                  i.delta * i.x / (10.0 * i.y))
    if i.v2 == 0.0:
        tail = 0.0
    else:
        tail = _safe_exp(-(i.x * i.x) / (2.0 * (1.0 + i.delta) * i.v2))
    return i.max_tail + mid + tail


def simplified_bound(x: float, p: float, delta: float, c_p: float,
                     abs_moment_sum: float, v2: float) -> float:
    """Two-term bound with a caller-supplied leading constant C_p.

    Degenerates to +inf as x -> 0 when the moment sum is positive; the raw
    value is returned regardless.
    """
    if not c_p > 0:
        raise ValueError(f"c_p must be positive, got {c_p}")
    if x <= 0:
        first = math.inf if abs_moment_sum > 0 else 0.0
    else:
        first = c_p * _safe_pow(delta, -p) * abs_moment_sum / x ** p
    if v2 == 0.0 or x <= 0:
        tail = 0.0 if x > 0 else 1.0
    else:
        tail = _safe_exp(-(x * x) / (2.0 * (1.0 + delta) * v2))
    return first + tail


_DELTA_CAP = 0.2499


def pi_gamma(gamma: float) -> float:
    """Admissible boundedness constant for the converse exponential rate.

    delta = min{(sqrt(1+gamma)-1)/(sqrt(1+gamma)+1), 0.2499} makes
    (1+delta)^2/(1-delta)^2 <= 1+gamma while staying strictly below 1/4;
    the returned value is delta^2 / (16 (1+delta)^2), nondecreasing in gamma
    and capped at ~2.4984e-3.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    r = math.sqrt(1.0 + gamma)
    delta = min((r - 1.0) / (r + 1.0), _DELTA_CAP)
    return delta * delta / (16.0 * (1.0 + delta) ** 2)


# ---------------------------------------------------------------------------
# converse-rate table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateRow:
    n: int
    x_n: float
    scale: float            # s_n (upper) or lower-moment analogue
    threshold: float
    capacity: float
    lhs: float              # x_n^{-2} ln capacity
    rhs: float              # -z^2 (1+gamma) / 2
    alpha_n: float          # realized sup|X| x_n / s_n at this n
    bounded: bool           # alpha_n <= declared alpha


@dataclass(frozen=True)
class RateTable:
    z: float
    gamma: float
    alpha: float
    slack: float
    side: str
    rows: tuple[RateRow, ...]
    violation: bool


def _model_radius(model: SequenceModel) -> float:
    return max(s.support.radius for s in model.steps())


def _rate_table(model_family: Callable[[int], SequenceModel], z: float, gamma: float,
                n_list: Sequence[int], x_fn, alpha, slack: float, side: str,
                **engine_kw) -> RateTable:
    if not z > 0:
        raise ValueError(f"z must be positive, got {z}")
    pg = pi_gamma(gamma)
    if alpha is None:
        alpha = pg / z
    if z * alpha > pg * (1.0 + 1e-12):
        raise ValueError(
            f"precondition z*alpha <= pi(gamma) violated: z*alpha = {z * alpha!r}, "
            f"pi(gamma) = {pg!r}")
    rows = []
    rhs = -0.5 * z * z * (1.0 + gamma)
    for n in n_list:
        model = model_family(int(n))
        horizon = model.horizon
        x_n = float(x_fn(n)) if x_fn is not None else math.sqrt(2.0 * iterlog.loglog_(float(n)))
        if side == "upper":
            s2 = sum(s.upper_expectation(lambda v: v * v) for s in model.steps())
        else:
            s2 = sum(s.lower_expectation(lambda v: v * v) for s in model.steps())
        scale = math.sqrt(s2)
        thr = z * scale * x_n
        ev = window_max_event(horizon, horizon, thr, side="ge", on="S")
        cap = (upper_capacity if side == "upper" else lower_capacity)(model, ev, **engine_kw)
        lhs = (math.log(cap) / (x_n * x_n)) if cap > 0 else -math.inf
        alpha_n = _model_radius(model) * x_n / scale if scale > 0 else math.inf
        rows.append(RateRow(n=int(n), x_n=x_n, scale=scale, threshold=thr, capacity=cap,
                            lhs=lhs, rhs=rhs, alpha_n=alpha_n,
                            bounded=alpha_n <= alpha * (1.0 + 1e-12)))
    violation = bool(rows) and rows[-1].lhs < rhs - slack
    return RateTable(z=z, gamma=gamma, alpha=alpha, slack=slack, side=side,
                     rows=tuple(rows), violation=violation)


def converse_rate_check(model_family: Callable[[int], SequenceModel], z: float,
                        gamma: float, n_list: Sequence[int], *,
                        x_fn: Callable[[int], float] | None = None,
                        alpha: float | None = None, slack: float = 0.1,
                        **engine_kw) -> RateTable:
    """Finite-n table for the converse exponential rate under the upper capacity.

    Each row reports lhs = x_n^{-2} ln V(S_n >= z s_n x_n) against the target
    rate -z^2(1+gamma)/2, plus the realized boundedness ratio alpha_n.  The
    declared alpha (default pi(gamma)/z, the largest admissible) must satisfy
    z * alpha <= pi(gamma); rows where alpha_n exceeds it are flagged as not
    yet inside the bounded regime.  ``x_fn`` defaults to sqrt(2 loglog n); no
    asymptotic claim is made either way.
    """
    return _rate_table(model_family, z, gamma, n_list, x_fn, alpha, slack,
                       side="upper", **engine_kw)


# ---------------------------------------------------------------------------
# randomized domination verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationGrid:
    """Sampling ranges for randomized domination cases."""

    n_range: tuple[int, int] = (2, 10)
    deltas: tuple[float, ...] = (0.5, 1.0)
    point_pool: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
    max_points: int = 4
    max_measures: int = 3
    p_choices: tuple[float, ...] = (2.0, 2.5, 3.0, 4.0)
    delta_choices: tuple[float, ...] = (0.25, 0.5, 1.0)


@dataclass(frozen=True)
class DominationCase:
    case_id: int
    n: int
    x: float
    y: float
    p: float
    delta: float
    max_tail: float
    b2y_upper: float
    b2y_lower: float
    a_moment: float
    lhs_upper: float           # V(max_k (S_k - upper-mean_k) >= x)
    lhs_lower: float           # v of the same event
    lhs_lower_conjugate: float  # v(max_k (S_k - lower-mean_k) >= x)
    bound_31: float
    bound_32: float
    bound_33: float
    bound_34: float
    bound_35: float
    bound_36: float
    violations: tuple[str, ...]


@dataclass(frozen=True)
class DominationReport:
    cases: tuple[DominationCase, ...]
    violations: tuple[str, ...] = field(default=())

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def _random_step(stream: SplitMix64, grid: DominationGrid, delta: float) -> StepAmbiguity:
    npts = 2 + stream.randint(grid.max_points - 1)
    pool = list(grid.point_pool)
    pts = set()
    while len(pts) < npts:
        pts.add(pool[stream.randint(len(pool))])
    points = tuple(sorted(pts))
    nmeas = 1 + stream.randint(grid.max_measures)
    measures = []
    for _ in range(nmeas):
        raw = [stream.uniform() + 0.05 for _ in range(len(points))]
        tot = sum(raw)
        m = [r / tot for r in raw]
        m[-1] = 1.0 - sum(m[:-1])
        measures.append(tuple(m))
    return StepAmbiguity(LatticeSupport(delta, points), tuple(measures))


def random_small_model(stream: SplitMix64, grid: DominationGrid) -> SequenceModel:
    lo, hi = grid.n_range
    n = lo + stream.randint(hi - lo + 1)
    delta = grid.deltas[stream.randint(len(grid.deltas))]
    if stream.randint(2) == 0:
        return SequenceModel.iid(_random_step(stream, grid, delta), n)
    return SequenceModel(n, steps=[_random_step(stream, grid, delta) for _ in range(n)])


def domination_case(model: SequenceModel, x: float, y: float, p: float, delta: float,
                    case_id: int = 0, **engine_kw) -> DominationCase:
    """Exact capacities and all applicable bounds for one (model, x, y, p, delta)."""
    b2u = sum(s.upper_expectation(lambda v: min(v, y) ** 2) for s in model.steps())
    b2l = sum(s.lower_expectation(lambda v: min(v, y) ** 2) for s in model.steps())
    a_m = sum(s.upper_expectation(lambda v: min(max(v, 0.0), y) ** p) for s in model.steps())

    max_tail = upper_capacity(model, OutcomeFlagEvent(lambda k, v: v > y), **engine_kw)
    ev_upper_centered = centered_max_sum_event(model, x, center="upper")
    lhs_u = upper_capacity(model, ev_upper_centered, **engine_kw)
    lhs_l = lower_capacity(model, ev_upper_centered, **engine_kw)
    ev_lower_centered = centered_max_sum_event(model, x, center="lower")
    lhs_lc = lower_capacity(model, ev_lower_centered, **engine_kw)

    b31 = max_tail + kolmogorov_bound(x, y, b2u)
    b32 = fuk_nagaev_bound(BoundInputs(x=x, y=y, p=p, delta=delta, v2=b2u,
                                       a_moment=a_m, max_tail=max_tail))
    b35 = max_tail + kolmogorov_bound(x, y, b2l)
    b36 = fuk_nagaev_bound(BoundInputs(x=x, y=y, p=p, delta=delta, v2=b2l,
                                       a_moment=a_m, max_tail=max_tail))

    viols = []
    checks = (("3.1", lhs_u, b31), ("3.2", lhs_u, b32),
              ("3.3", lhs_lc, b31), ("3.4", lhs_lc, b32),
              ("3.5", lhs_l, b35), ("3.6", lhs_l, b36))
    for tag, lhs, bnd in checks:
        if lhs > bnd + _VIOL_TOL:
            viols.append(f"case {case_id}: lhs {lhs!r} > bound ({tag}) {bnd!r}")
    return DominationCase(case_id=case_id, n=model.horizon, x=x, y=y, p=p, delta=delta,
                          max_tail=max_tail, b2y_upper=b2u, b2y_lower=b2l, a_moment=a_m,
                          lhs_upper=lhs_u, lhs_lower=lhs_l, lhs_lower_conjugate=lhs_lc,
                          bound_31=b31, bound_32=b32, bound_33=b31, bound_34=b32,
                          bound_35=b35, bound_36=b36, violations=tuple(viols))


def verify_domination(case_count: int, seed: int, grid: DominationGrid | None = None,
                      **engine_kw) -> DominationReport:
    """Randomized domination run: exact DP capacities vs every applicable bound.

    Case i is generated and checked from the derived stream substream(seed, i),
    so the report is reproducible.  The cases run in order on one thread.
    """
    if case_count < 1:
        raise ValueError(f"case_count must be >= 1, got {case_count}")
    grid = grid or DominationGrid()

    from .rng import substream

    def one(i: int) -> DominationCase:
        stream = substream(seed, i)
        model = random_small_model(stream, grid)
        scale2 = sum(s.upper_expectation(lambda v: v * v) for s in model.steps())
        x = (0.2 + 2.8 * stream.uniform()) * max(math.sqrt(scale2), model.delta)
        y = (0.3 + 1.7 * stream.uniform()) * max(_model_radius(model), model.delta)
        p = grid.p_choices[stream.randint(len(grid.p_choices))]
        dlt = grid.delta_choices[stream.randint(len(grid.delta_choices))]
        return domination_case(model, x, y, p, dlt, case_id=i, **engine_kw)

    cases = [one(i) for i in range(case_count)]

    viols = tuple(v for c in cases for v in c.violations)
    return DominationReport(cases=tuple(cases), violations=viols)


DOMINATION_CSV_HEADER = ("case_id", "n", "x", "y", "p", "delta", "lhs",
                         "bound_31", "bound_32", "bound_35", "bound_36", "violated")


def domination_rows(report: DominationReport):
    """Flatten a report into the fixed CSV schema: one row per (case, side).

    The upper row carries the upper capacity (checked against 3.1/3.2), the
    lower row the lower capacity (checked against 3.5/3.6); all four bound
    columns are populated on both rows for reference.
    """
    for c in report.cases:
        u_viol = any(f"({t})" in v for v in c.violations for t in ("3.1", "3.2"))
        l_viol = any(f"({t})" in v for v in c.violations for t in ("3.5", "3.6"))
        yield (f"{c.case_id}:upper", c.n, c.x, c.y, c.p, c.delta, c.lhs_upper,
               c.bound_31, c.bound_32, c.bound_35, c.bound_36, u_viol)
        yield (f"{c.case_id}:lower", c.n, c.x, c.y, c.p, c.delta, c.lhs_lower,
               c.bound_31, c.bound_32, c.bound_35, c.bound_36, l_viol)
