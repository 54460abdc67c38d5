"""Closed-form tails of the variance-uncertain normal law N(0, [s_lo^2, s_hi^2]).

For the symmetric law with volatility interval [s_lo, s_hi] the upper and
lower tail capacities have closed forms in the classical standard normal
distribution function Phi:

    upper(x) = 2 s_hi / (s_lo + s_hi) * (1 - Phi(x / s_hi))        x >= 0
             = 1 - 2 s_lo / (s_lo + s_hi) * Phi(x / s_lo)          x <= 0
    lower(x) = 2 s_lo / (s_lo + s_hi) * (1 - Phi(x / s_lo))        x >= 0
             = 1 - 2 s_hi / (s_lo + s_hi) * Phi(x / s_hi)          x <= 0

with the duality lower(x) = 1 - upper(-x) coming from the symmetry of the
law.  Phi is evaluated through an in-house complementary error function
(Taylor series below 2, Lentz-evaluated continued fraction above), certified
against the C library's erfc to well under 1e-10 absolute error.

The bridge operation checks the central-limit behaviour of lattice models:
the dynamic-programming capacity of {S_n / sqrt(n) >= x} is bracketed by the
upper expectations of two Lipschitz ramps and compared with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import DEFAULT_STATE_CAP, TerminalSumPayoff, evaluate_upper
from .model import SequenceModel, StepAmbiguity

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_SERIES_CUT = 2.0
_SERIES_MAX_TERMS = 200
_CF_MAX_ITERS = 400
_TINY = 1e-300


def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)), |x| <= 2
    x2 = x * x
    term = x
    total = x / 1.0
    n = 0
    while n < _SERIES_MAX_TERMS:
        n += 1
        term *= -x2 / n
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
    return (2.0 / _SQRT_PI) * total


def _erfc_cf(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) * K,  K = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated with modified Lentz; convergent for x > 0, fast for x >= 2.
    f = _TINY
    c = f
    d = 0.0
    b = x
    for i in range(1, _CF_MAX_ITERS + 1):
        a = 1.0 if i == 1 else (i - 1) / 2.0
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / _SQRT_PI * f


def erfc(x: float) -> float:
    """Complementary error function, absolute error well below 1e-12."""
    ax = abs(x)
    if ax <= _SERIES_CUT:
        val = 1.0 - _erf_series(ax)
    else:
        val = _erfc_cf(ax) if ax < 30.0 else 0.0
    return val if x >= 0 else 2.0 - val


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, absolute error <= 1e-10."""
    return 0.5 * erfc(-x / _SQRT_2)


def std_normal_density(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class GNormalParams:
    """Volatility interval (sigma_lo, sigma_hi) of the variance-uncertain law."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if not (0 < self.sigma_lo <= self.sigma_hi < math.inf):
            raise ValueError(
                f"need 0 < sigma_lo <= sigma_hi < inf, got ({self.sigma_lo}, {self.sigma_hi})")

    @property
    def weight_hi(self) -> float:
        return 2.0 * self.sigma_hi / (self.sigma_lo + self.sigma_hi)

    @property
    def weight_lo(self) -> float:
        return 2.0 * self.sigma_lo / (self.sigma_lo + self.sigma_hi)


def gnormal_upper_tail(params: GNormalParams, x: float) -> float:
    """Upper tail capacity of {xi > x} for xi ~ N(0, [sigma_lo^2, sigma_hi^2])."""
    if x >= 0:
        return params.weight_hi * (1.0 - std_normal_cdf(x / params.sigma_hi))
    return 1.0 - params.weight_lo * std_normal_cdf(x / params.sigma_lo)


def gnormal_lower_tail(params: GNormalParams, x: float) -> float:
    """Lower tail capacity of {xi >= x}; equals 1 - gnormal_upper_tail(-x)."""
    if x >= 0:
        return params.weight_lo * (1.0 - std_normal_cdf(x / params.sigma_lo))
    return 1.0 - params.weight_hi * std_normal_cdf(x / params.sigma_hi)


def gnormal_density(params: GNormalParams, z: float) -> float:
    """Density 2/(s_lo+s_hi) * (phi(z/s_hi) 1{z>=0} + phi(z/s_lo) 1{z<0}).

    The two pieces meet continuously at 0 (both equal phi(0)); the
    normalization constant makes the density integrate to 1 over the line.
    """
    scale = 2.0 / (params.sigma_lo + params.sigma_hi)
    sig = params.sigma_hi if z >= 0 else params.sigma_lo
    return scale * std_normal_density(z / sig)


def step_gnormal_params(step: StepAmbiguity) -> GNormalParams:
    """(sigma_lo, sigma_hi) from the step's lower/upper second moments."""
    lo, hi = step.expectation_interval(lambda v: v * v)
    if lo <= 0:
        raise ValueError("step's lower second moment must be positive")
    return GNormalParams(math.sqrt(lo), math.sqrt(hi))


@dataclass(frozen=True)
class CLTBridgeResult:
    """DP bracket for {S_n/sqrt(n) >= x} against the closed-form tail."""

    n: int
    x: float
    ramp_width: float
    bracket_low: float
    bracket_high: float
    dp_value: float            # bracket midpoint
    gnormal_value: float
    abs_error: float


def clt_capacity(step: StepAmbiguity, n: int, x: float, *, ramp_width: float | None = None,
                 state_cap: int = DEFAULT_STATE_CAP) -> CLTBridgeResult:
    """Bracketed DP capacity of {S_n/sqrt(n) >= x} and its limiting closed form.

    The indicator is sandwiched between two Lipschitz ramps of width
    ``ramp_width`` (default 4 delta / sqrt(n), in S_n/sqrt(n) units): the
    upper ramp rises on [x - w, x], the lower on [x, x + w], so their upper
    expectations bracket the capacity exactly.
    """
    mean_lo, mean_hi = step.expectation_interval(lambda v: v)
    if abs(mean_lo) > 1e-12 or abs(mean_hi) > 1e-12:
        raise ValueError("clt bridge needs a centered step: both mean bounds zero")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    params = step_gnormal_params(step)
    model = SequenceModel.iid(step, n)
    sq = math.sqrt(float(n))
    w = (4.0 * step.support.delta / sq) if ramp_width is None else float(ramp_width)
    if w <= 0:
        raise ValueError("ramp width must be positive")
    t = x * sq
    hw = w * sq

    def ramp(lo_edge: float):
        def fn(s: float) -> float:
            if s >= lo_edge + hw:
                return 1.0
            if s <= lo_edge:
                return 0.0
            return (s - lo_edge) / hw
        return fn

    hi = evaluate_upper(model, TerminalSumPayoff(ramp(t - hw)), state_cap=state_cap)
    lo = evaluate_upper(model, TerminalSumPayoff(ramp(t)), state_cap=state_cap)
    mid = 0.5 * (lo + hi)
    target = gnormal_upper_tail(params, x)
    return CLTBridgeResult(n=n, x=x, ramp_width=w, bracket_low=lo, bracket_high=hi,
                           dp_value=mid, gnormal_value=target,
                           abs_error=abs(mid - target))
