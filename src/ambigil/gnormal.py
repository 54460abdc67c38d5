"""Closed-form tails of the variance-uncertain normal law N(0, [s_lo^2, s_hi^2]).

For the symmetric law with volatility interval [s_lo, s_hi] the upper and
lower tail capacities have closed forms in the classical standard normal
distribution function Phi:

    upper(x) = 2 s_hi / (s_lo + s_hi) * Phi(-x / s_hi)             x >= 0
             = 1 - 2 s_lo / (s_lo + s_hi) * Phi(x / s_lo)          x <= 0
    lower(x) = 2 s_lo / (s_lo + s_hi) * Phi(-x / s_lo)             x >= 0
             = 1 - 2 s_hi / (s_lo + s_hi) * Phi(x / s_hi)          x <= 0

with the duality lower(x) = 1 - upper(-x) coming from the symmetry of the
law.  Phi(y) = erfc(-y / sqrt(2)) / 2 with the standard library's
``math.erfc``.  The x >= 0 branches read Phi(-x / s), not 1 - Phi(x / s),
so the far tails keep their relative precision instead of cancelling to 0.

The bridge operation checks the central-limit behaviour of lattice models:
the dynamic-programming capacity of {S_n / sqrt(n) >= x} is bracketed by the
upper expectations of two Lipschitz ramps and compared with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_STATE_CAP, TerminalSumPayoff, _TerminalRows, evaluate_upper
from .model import SequenceModel, StepAmbiguity, _integer, _real, _require_centered

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

erfc = math.erfc


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, through ``math.erfc``.

    ``x`` goes through ``_real``, here and in the density: NaN raises
    ``ValueError``, ±inf gives 1.0 / 0.0."""
    return 0.5 * erfc(-_real(x, "normal argument") / _SQRT_2)


def std_normal_density(x: float) -> float:
    x = _real(x, "normal argument")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class GNormalParams:
    """Volatility interval (sigma_lo, sigma_hi) of the variance-uncertain law."""

    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        _real(self.sigma_lo, "sigma_lo")
        _real(self.sigma_hi, "sigma_hi")
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
    """Upper tail capacity of {xi > x} for xi ~ N(0, [sigma_lo^2, sigma_hi^2]).

    ``x`` may be ±inf; it goes through ``_real``, so NaN raises
    ``ValueError``, here and in the lower tail and the density."""
    if _real(x, "gnormal argument") >= 0:
        return params.weight_hi * std_normal_cdf(-x / params.sigma_hi)
    return 1.0 - params.weight_lo * std_normal_cdf(x / params.sigma_lo)


def gnormal_lower_tail(params: GNormalParams, x: float) -> float:
    """Lower tail capacity of {xi >= x}; equals 1 - gnormal_upper_tail(-x)."""
    if _real(x, "gnormal argument") >= 0:
        return params.weight_lo * std_normal_cdf(-x / params.sigma_lo)
    return 1.0 - params.weight_hi * std_normal_cdf(x / params.sigma_hi)


def gnormal_density(params: GNormalParams, z: float) -> float:
    """Density 2/(s_lo+s_hi) * (phi(z/s_hi) 1{z>=0} + phi(z/s_lo) 1{z<0}).

    The two pieces meet continuously at 0 (both equal phi(0)); the
    normalization constant makes the density integrate to 1 over the line.
    """
    scale = 2.0 / (params.sigma_lo + params.sigma_hi)
    sig = params.sigma_hi if _real(z, "gnormal argument") >= 0 else params.sigma_lo
    return scale * std_normal_density(z / sig)


def step_gnormal_params(step: StepAmbiguity) -> GNormalParams:
    """(sigma_lo, sigma_hi) from the step's lower/upper second moments."""
    lo, hi = step.expectation_interval(lambda v: v * v)
    if lo <= 0:
        raise ValueError("step's lower second moment must be positive")
    return GNormalParams(math.sqrt(lo), math.sqrt(hi))


class _Ramp(TerminalSumPayoff):
    """The ramp of the terminal sum s that is 1.0 for s >= lo + hw, else
    0.0 for s <= lo, else (s - lo) / hw.  The rule lives in
    ``terminal_array``, which applies it to a whole array of sums, the
    middle formula only on the cells inside the ramp, so that no other cell
    can raise a floating-point warning; the scalar ``fn`` reads it on a
    one-cell array."""

    def __init__(self, lo: float, hw: float):
        super().__init__(lambda s: float(self.terminal_array(np.array([s]))[0]))
        self.lo, self.hw, self.top = lo, hw, lo + hw

    def terminal_array(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(len(positions))
        np.greater_equal(positions, self.top, out=out)
        inside = positions > self.lo
        inside &= positions < self.top
        np.subtract(positions, self.lo, out=out, where=inside)
        np.divide(out, self.hw, out=out, where=inside)
        return out


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
    expectations bracket the capacity exactly.  ``x`` and an explicit
    ``ramp_width`` go through ``_real``; the width must be positive and
    finite, and so must the width in S_n units, width * sqrt(n).  The ramps
    are ``_Ramp`` payoffs, whose terminal rows are built as arrays, and both
    are the value rows of one DP.
    """
    _require_centered(step, "clt bridge")
    n, x = _integer(n, "n"), _real(x, "x")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    params = step_gnormal_params(step)
    sq = math.sqrt(float(n))
    w = (4.0 * step.support.delta / sq) if ramp_width is None else _real(ramp_width, "ramp width")
    if not 0 < w < math.inf:
        raise ValueError(f"ramp width must be positive and finite, got {w!r}")
    t = x * sq
    hw = w * sq
    if hw == math.inf:
        raise ValueError(f"ramp width {w!r} is too wide for n={n}: width * sqrt(n) overflows")
    model = SequenceModel.iid(step, n)
    hi, lo = evaluate_upper(model, _TerminalRows((_Ramp(t - hw, hw), _Ramp(t, hw))),
                            state_cap=state_cap)
    mid = 0.5 * (lo + hi)
    target = gnormal_upper_tail(params, x)
    return CLTBridgeResult(n=n, x=x, ramp_width=w, bracket_low=lo, bracket_high=hi,
                           dp_value=mid, gnormal_value=target,
                           abs_error=abs(mid - target))
