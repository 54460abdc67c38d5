"""Normalizers, moment-series condition checkers, and finite-horizon
iterated-logarithm experiments.

All experiments here are desk-scale: they emit exact capacities over finite
(n, N) windows plus trend diagnostics, and never claim limits.  The window
form {max over n <= m <= N} is exactly what gets probed; monotonicity in N
(event inclusion) and anti-monotonicity in the threshold are exact
self-checks that every experiment run can assert.

Normalizers follow the convention log x = ln max(e, x) at every level, so
loglog x = 1 for any x <= e**e and all normalizers are positive from n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import iterlog
from .bounds import _rate_table, kolmogorov_bound, RateTable
from .capacity import (_running_centers, capacity_pair,
                       cumulative_upper_second_moments, lower_capacity,
                       upper_capacity, window_max_event)
from .engine import Automaton
from .model import (SequenceModel, StepAmbiguity, _finite, _integer, _real,
                    _require_centered, running_sums)


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------


class NormalizerSeries(object):
    """s_n, t_n = sqrt(2 loglog s_n^2), a_n = s_n t_n, d_n = sqrt(2 n loglog n)."""

    def __init__(self, s2: Callable[[int], float]):
        self._s2 = s2

    def s2(self, n: int) -> float:
        return float(self._s2(n))

    def s(self, n: int) -> float:
        return math.sqrt(self.s2(n))

    def t(self, n: int) -> float:
        return math.sqrt(2.0 * iterlog.loglog_(self.s2(n)))

    def a(self, n: int) -> float:
        return self.s(n) * self.t(n)

    @staticmethod
    def d(n: int) -> float:
        return iterlog.d_n(n)


def normalizers(source) -> NormalizerSeries:
    """Normalizer series from a model or an explicit nondecreasing s^2 series.

    A sequence source is read 1-based: source[n-1] = s_n^2, each entry
    through ``_finite``.
    """
    if isinstance(source, SequenceModel):
        seq = cumulative_upper_second_moments(source)[1:]
    else:
        seq = [_finite(v, "s2 series entry") for v in source]
        if not seq or seq[0] < 0:
            raise ValueError("s2 series must be nonempty with s2(1) >= 0")
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ValueError("s2 series must be nondecreasing")

    def s2(n: int) -> float:
        if not 1 <= n <= len(seq):
            raise IndexError(f"n={n} outside 1..{len(seq)}")
        return seq[n - 1]

    return NormalizerSeries(s2)


# ---------------------------------------------------------------------------
# moment series
# ---------------------------------------------------------------------------


class MomentSeries(object):
    """Per-step clipped-overshoot moments and their partial sums.

    gamma(n)      upper expectation of ((|X_n| - alpha s_n/t_n)^+)^p
    gamma_bar(n)  same with |X_n| capped at a_n before the overshoot
    lam(n)        sum over j <= n of the gamma-style term with the threshold
                  and cap taken at n (not j)
    lam_bar(n)    capped variant of lam
    """

    def __init__(self, model: SequenceModel, p: float, alpha: float):
        p, alpha = _real(p, "p"), _real(alpha, "alpha")
        if not p >= 2:
            raise ValueError(f"p must be >= 2, got {p}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.model = model
        self.p = p
        self.alpha = alpha
        self.norms = normalizers(model)

    def _threshold(self, n: int) -> float:
        return self.alpha * self.norms.s(n) / self.norms.t(n)

    def _overshoot(self, n: int, cap: float | None) -> Callable[[float], float]:
        """v -> ((|v| ∧ cap - alpha s_n/t_n)^+)^p, uncapped for ``cap=None``."""
        p, thr = self.p, self._threshold(n)

        def fn(v: float) -> float:
            a = abs(v)
            if cap is not None:
                a = min(a, cap)
            return max(a - thr, 0.0) ** p

        return fn

    def gamma(self, n: int) -> float:
        return self.model.step(n).upper_expectation(self._overshoot(n, None))

    def gamma_bar(self, n: int) -> float:
        return self.model.step(n).upper_expectation(self._overshoot(n, self.norms.a(n)))

    def _lam(self, n: int, cap: float | None) -> float:
        fn = self._overshoot(n, cap)
        if self.model.is_iid:
            return n * self.model.step(1).upper_expectation(fn)
        return self.model.moment_sums(fn, n)[-1]

    def lam(self, n: int) -> float:
        return self._lam(n, None)

    def lam_bar(self, n: int) -> float:
        return self._lam(n, self.norms.a(n))


def moment_series(model: SequenceModel, p: float, alpha: float) -> MomentSeries:
    return MomentSeries(model, p, alpha)


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionRecord:
    id: str
    kind: str                      # "series" or "ratio"
    checkpoints: tuple[int, ...]
    values: tuple[float, ...]      # partial sums (series) or ratios at checkpoints
    terms: tuple[float, ...]       # series terms at checkpoints (empty for ratios)
    verdict: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConditionReport:
    records: tuple[ConditionRecord, ...]
    termwise_checked: int
    termwise_violations: tuple[str, ...]
    growth_check: dict

    def record(self, rec_id: str) -> ConditionRecord:
        for r in self.records:
            if r.id == rec_id:
                return r
        raise KeyError(rec_id)


def _last_decade(checkpoints: Sequence[int]):
    last = checkpoints[-1]
    return [i for i, c in enumerate(checkpoints) if c > last / 10.0]


def series_verdict(checkpoints, partials, terms) -> str:
    """Trend rule (heuristic, documented): over the last decade of
    checkpoints, a series is convergent-trend when partial-sum increments
    stay below 1e-6 and term ratios stay below 0.9; divergent-trend when
    increments grow or terms stay at or above 1e-4; inconclusive otherwise.
    """
    idx = _last_decade(checkpoints)
    if len(idx) < 2:
        return "inconclusive"
    incs = [partials[j] - partials[i] for i, j in zip(idx, idx[1:])]
    decade_terms = [terms[i] for i in idx]
    ratios = [b / a for a, b in zip(decade_terms, decade_terms[1:]) if a > 0]
    if all(inc < 1e-6 for inc in incs) and all(r < 0.9 for r in ratios):
        return "convergent-trend"
    growing = all(b >= a for a, b in zip(incs, incs[1:])) and incs[-1] > 0
    if growing or all(t >= 1e-4 for t in decade_terms):
        return "divergent-trend"
    return "inconclusive"


def ratio_verdict(checkpoints, values) -> str:
    """Trend rule for to-zero ratio conditions: convergent-trend when the
    last value is zero-like (< 1e-9) or has dropped below 0.9x the first
    value and below 0.05; divergent-trend when the last decade is
    nondecreasing and ends at or above 1e-4; inconclusive otherwise."""
    if not values:
        return "inconclusive"
    first, last = values[0], values[-1]
    if last < 1e-9:
        return "convergent-trend"
    if last < 0.9 * first and last < 0.05:
        return "convergent-trend"
    idx = _last_decade(checkpoints)
    decade = [values[i] for i in idx]
    if len(decade) >= 2 and all(b >= a for a, b in zip(decade, decade[1:])) and last >= 1e-4:
        return "divergent-trend"
    return "inconclusive"


def check_conditions(model: SequenceModel, checkpoints: Sequence[int], *,
                     p: float = 2.0, alpha: float = 1.0, d: int = 1,
                     eps: float = 1.0, delta: float = 0.5,
                     power_p: float = 3.0) -> ConditionReport:
    """Evaluate the moment-series conditions behind the iterated-logarithm
    theorems at the given checkpoints and report trend verdicts.

    Emits one record per condition family (tail sums, barred and unbarred
    overshoot series, variance divergence, mean ratio, boundedness ratio,
    power-moment series), checks the termwise implication chain

        (eps/2)^p V(|X_n| >= eps a_n) <= gamma_bar_n / a_n^p
                                      <= gamma_n / a_n^p

    at every n where eps a_n / 2 > alpha s_n / t_n and eps <= 1, and probes
    the bounded-growth derivation (growing s_n^2 with bounded one-step
    ratios forces the variance series to diverge).  Every real parameter
    goes through ``_real`` (NaN, a string or a bool raises ``ValueError``).
    """
    eps, delta, power_p = _real(eps, "eps"), _real(delta, "delta"), _real(power_p, "power_p")
    d = _integer(d, "d")
    cps = [_integer(c, "checkpoint") for c in checkpoints]
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])) or cps[0] < 1:
        raise ValueError("checkpoints must be a strictly increasing list of n >= 1")
    n_max = cps[-1]
    if n_max > model.horizon:
        raise ValueError(f"checkpoint {n_max} exceeds horizon {model.horizon}")
    ms = MomentSeries(model, p, alpha)
    p, alpha, norms = ms.p, ms.alpha, ms.norms
    # step-only moments: E[X^2], E[|X|^power_p], upper and lower mean
    moments = model.per_step(lambda s: (
        s.upper_expectation(lambda v: v * v),
        s.upper_expectation(lambda v: abs(v) ** power_p),
        s.upper_expectation(lambda v: v),
        s.lower_expectation(lambda v: v)), n_max)

    # terms[key][n - 1] is the n-th term of a series; running_sums folds each
    terms = {key: [] for key in ("tail-sum", "capped-overshoot", "overshoot",
                                 "variance-divergence", "power-moment",
                                 "mean-upper", "mean-lower")}
    termwise_checked = 0
    termwise_viol = []
    max_step_ratio = 0.0
    prev_s2 = None

    for n, (e2, e_pow, mean_u, mean_l) in enumerate(moments, start=1):
        a_n = norms.a(n)
        s_n = norms.s(n)
        s2_n = norms.s2(n)
        t_n = norms.t(n)
        if prev_s2 not in (None, 0.0):
            max_step_ratio = max(max_step_ratio, s2_n / prev_s2)
        prev_s2 = s2_n

        tail_n = model.step(n).upper_expectation(lambda v: 1.0 if abs(v) >= eps * a_n else 0.0)
        g_bar = ms.gamma_bar(n)
        g_unb = ms.gamma(n)
        terms["tail-sum"].append(tail_n)
        terms["capped-overshoot"].append((g_bar / a_n ** p) * (ms.lam_bar(n) / a_n ** p) ** d)
        terms["overshoot"].append((g_unb / a_n ** p) * (ms.lam(n) / a_n ** p) ** d)
        terms["variance-divergence"].append(e2 / s2_n * iterlog.log_(s2_n) ** (delta - 1.0))
        terms["power-moment"].append(e_pow / a_n ** power_p)
        terms["mean-upper"].append(abs(mean_u))
        terms["mean-lower"].append(abs(mean_l))

        if eps <= 1.0 and eps * a_n / 2.0 > alpha * s_n / t_n:
            termwise_checked += 1
            lo = (eps / 2.0) ** p * tail_n
            mid = g_bar / a_n ** p
            hi = g_unb / a_n ** p
            if lo > mid + 1e-12 or mid > hi + 1e-12:
                termwise_viol.append(
                    f"n={n}: ({lo!r}, {mid!r}, {hi!r}) breaks the termwise chain")

    sums = {key: running_sums(ts) for key, ts in terms.items()}
    cps_t = tuple(cps)

    def series_rec(rec_id, details):
        partial = [sums[rec_id][c] for c in cps]
        at = [terms[rec_id][c - 1] for c in cps]
        return ConditionRecord(id=rec_id, kind="series", checkpoints=cps_t,
                               values=tuple(partial), terms=tuple(at),
                               verdict=series_verdict(cps, partial, at),
                               details=details)

    def ratio_rec(rec_id, values, details):
        return ConditionRecord(id=rec_id, kind="ratio", checkpoints=cps_t,
                               values=tuple(values), terms=(),
                               verdict=ratio_verdict(cps, values),
                               details=details)

    s2_at = [norms.s2(c) for c in cps]
    var_at = [sums["variance-divergence"][c] for c in cps]
    records = (
        series_rec("tail-sum", {"eps": eps}),
        series_rec("capped-overshoot", {"p": p, "alpha": alpha, "d": d}),
        series_rec("overshoot", {"p": p, "alpha": alpha, "d": d}),
        series_rec("variance-divergence", {"delta": delta}),
        series_rec("power-moment", {"p": power_p}),
        ratio_rec("mean-ratio",
                  [(sums["mean-upper"][c] + sums["mean-lower"][c]) / norms.a(c) for c in cps],
                  {}),
        ratio_rec("boundedness-ratio",
                  [model.step(c).support.radius * norms.t(c) / norms.s(c) for c in cps],
                  {"s2": tuple(s2_at)}),
    )
    growth = {
        "max_onestep_s2_ratio": max_step_ratio,
        "s2_first": s2_at[0],
        "s2_last": s2_at[-1],
        "variance_series_first": var_at[0],
        "variance_series_last": var_at[-1],
        "variance_series_growing": var_at[-1] > var_at[0],
    }
    return ConditionReport(records=records, termwise_checked=termwise_checked,
                           termwise_violations=tuple(termwise_viol),
                           growth_check=growth)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _a_table(s2: Sequence[float], upto: int) -> list[float]:
    """[0.0, a_1, ..., a_upto] with a_m = s_m t_m from the running sums
    ``s2`` = [0, s_1^2, ...], computed as ``NormalizerSeries.a`` does."""
    return [0.0] + [math.sqrt(v) * math.sqrt(2.0 * iterlog.loglog_(v)) for v in s2[1:upto + 1]]


@dataclass(frozen=True)
class BlockDiagnostic:
    lo: int
    hi: int
    x: float
    y: float
    b2y: float
    max_tail_bound: float
    bound: float


@dataclass(frozen=True)
class LILUpperResult:
    n: int
    N: int
    eps: float
    center: str
    capacity: float
    bound_crosscheck: float
    blocks: tuple[BlockDiagnostic, ...]


def lil_upper_experiment(model: SequenceModel, n: int, N: int, eps: float,
                         center: str = "upper-mean", **engine_kw) -> LILUpperResult:
    """Exact upper capacity of {sup_{n<=m<=N} (S_m - c_m)/a_m > 1+eps}.

    ``center`` picks c_m as the running upper mean, running lower mean, or 0.
    The crosscheck is a geometric-block assembly of the maximal-sum
    exponential bound: the window event is covered by per-block maximal
    events, each bounded by a per-step tail sum plus the exponential term.
    It is a true upper bound for any block/y choice, so capacity <= crosscheck
    must hold in every run (diagnostics, not a tight estimate).
    """
    win = window_max_event(n, N, 0.0, side="gt", on="S").bind(model)
    n, N = win.lo, win.hi
    eps = _finite(eps, "eps")
    s2 = cumulative_upper_second_moments(model)
    cents = _running_centers(model, N, center)
    a = _a_table(s2, N)
    ev = replace(win, threshold=lambda m: (1.0 + eps) * a[m] + cents[m])
    cap = upper_capacity(model, ev, **engine_kw)

    upper_means = cents if center == "upper-mean" else _running_centers(model, N, "upper-mean")
    blocks = []
    total = 0.0
    lo = n
    while lo <= N:
        hi = min(N, 2 * lo)
        x_j = min((1.0 + eps) * a[m] + cents[m] - upper_means[m] for m in range(lo, hi + 1))
        y_j = math.sqrt(s2[hi]) / math.sqrt(2.0 * iterlog.loglog_(s2[hi]))
        b2 = model.moment_sums(lambda v: min(v, y_j) ** 2, hi)[-1]
        mt = min(1.0, model.moment_sums(lambda v: 1.0 if v > y_j else 0.0, hi)[-1])
        if x_j <= 0:
            bound = 1.0
        else:
            bound = min(1.0, mt + kolmogorov_bound(x_j, y_j, b2))
        blocks.append(BlockDiagnostic(lo=lo, hi=hi, x=x_j, y=y_j, b2y=b2,
                                      max_tail_bound=mt, bound=bound))
        total += bound
        lo = hi + 1
    return LILUpperResult(n=n, N=N, eps=eps, center=center, capacity=cap,
                          bound_crosscheck=min(1.0, total), blocks=tuple(blocks))


def lil_lower_experiment(model: SequenceModel, n: int, N: int, eps: float,
                         **engine_kw) -> float:
    """Exact upper capacity of {max_{n<=m<=N} S_m / a_m >= 1 - eps}.

    Nondecreasing in N by event inclusion (exact, a self-check for grids).
    """
    win = window_max_event(n, N, 0.0, side="ge", on="S").bind(model)
    eps = _finite(eps, "eps")
    a = _a_table(cumulative_upper_second_moments(model), win.hi)
    ev = replace(win, threshold=lambda m: (1.0 - eps) * a[m])
    return upper_capacity(model, ev, **engine_kw)


@dataclass(frozen=True)
class ClusterRow:
    sigma: float
    upper: float
    lower: float


def cluster_probe(step: StepAmbiguity, N: int, sigma_grid: Sequence[float],
                  **engine_kw) -> list[ClusterRow]:
    """Capacity pair of {max_{m<=N} S_m / d_m >= sigma} over a sigma grid.

    Desk-scale shadow of the cluster-set statements: no asymptotic verdicts,
    just exact window capacities, anti-monotone in sigma.
    """
    _require_centered(step, "experiment")
    sigmas = [_real(sigma, "sigma") for sigma in sigma_grid]
    model = SequenceModel.iid(step, N)
    d = [0.0] + [iterlog.d_n(m) for m in range(1, N + 1)]
    rows = []
    for s in sigmas:
        ev = window_max_event(1, N, lambda m: s * d[m], side="ge", on="S")
        pair = capacity_pair(model, ev, **engine_kw)
        rows.append(ClusterRow(sigma=s, upper=pair.upper, lower=pair.lower))
    return rows


@dataclass(frozen=True)
class ContinuityProbeResult:
    phi_lower: float
    phi_upper: float
    high_event_upper: float     # V(mean >= upper mean - eps)
    low_event_upper: float      # V(mean <= lower mean + eps)
    high_event_lower: float     # v(mean >= upper mean - eps)
    low_event_lower: float      # v(mean <= lower mean + eps)


def continuity_probe(step: StepAmbiguity, payoff: Callable[[float], float],
                     m: int, eps: float, **engine_kw) -> ContinuityProbeResult:
    """Both mean events at full upper capacity while both lower capacities
    vanish: the finite-m mechanism that forbids capacity continuity whenever
    the payoff's upper and lower means differ.  A NaN ``eps``, or a payoff
    whose lower or upper mean is not finite, raises an ``ArithmeticError`` or
    takes a value that is not a real number (a ``TypeError``), raises
    ``ValueError``.
    """
    m, eps = _integer(m, "m"), _real(eps, "eps")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    try:
        lo, hi = step.expectation_interval(payoff)
    except ArithmeticError as e:
        raise ValueError(f"continuity probe payoff has a non-finite mean: "
                         f"{type(e).__name__}: {e}") from None
    except TypeError as e:
        raise ValueError(f"continuity probe payoff mean failed: {type(e).__name__}: {e}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"continuity probe payoff has a non-finite mean: ({lo!r}, {hi!r})")
    model = SequenceModel.iid(step, m)
    add = lambda s, k, point, value: s + payoff(value)
    hi_thr, lo_thr = hi - eps, lo + eps
    high = Automaton(0.0, add, lambda s: 1.0 if s / m >= hi_thr else 0.0)
    low = Automaton(0.0, add, lambda s: 1.0 if s / m <= lo_thr else 0.0)
    return ContinuityProbeResult(
        phi_lower=lo, phi_upper=hi,
        high_event_upper=upper_capacity(model, high, **engine_kw),
        low_event_upper=upper_capacity(model, low, **engine_kw),
        high_event_lower=lower_capacity(model, high, **engine_kw),
        low_event_lower=lower_capacity(model, low, **engine_kw),
    )


def conjecture_probe(model_family: Callable[[int], SequenceModel], z: float,
                     gamma: float, n_list: Sequence[int], *,
                     x_fn: Callable[[int], float] | None = None,
                     alpha: float | None = None, slack: float = 0.1,
                     **engine_kw) -> RateTable:
    """Lower-capacity analogue of the converse-rate table, report only.

    Rows show x_n^{-2} ln v(S_n >= z s_lo_n x_n) against -z^2(1+gamma)/2,
    with the scale built from lower second moments.  The numbers neither
    confirm nor refute the conjectured rate; no verdicts are attached.
    ``x_fn(n)`` must be a positive finite real, as in ``converse_rate_check``.
    """
    return _rate_table(model_family, z, gamma, n_list, x_fn, alpha, slack,
                       side="lower", **engine_kw)
