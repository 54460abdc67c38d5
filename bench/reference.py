"""Independent reference computations for the benchmark's output checks.

Plain-Python backward induction and forward convolution over lattice
partial sums.  Nothing here imports ambigil: a step is a pair
``(points, measures)`` of integer lattice indices and probability vectors,
and a model is a list of such steps plus the lattice spacing ``delta``.
The recursions visit states in dictionary order and accumulate in their
own order, so agreement with the program is checked within a tolerance,
not bit for bit.
"""

from __future__ import annotations

import math


def steps_of(model) -> list[tuple[tuple[int, ...], tuple[tuple[float, ...], ...]]]:
    """(points, measures) per step, read from a model's public fields."""
    return [(tuple(s.support.points), tuple(s.measures)) for s in model.steps()]


def _reachable(steps) -> list[set[int]]:
    layers = [{0}]
    for points, _ in steps:
        layers.append({s + p for s in layers[-1] for p in points})
    return layers


def window_capacity(steps, delta: float, lo: int, hi: int, hit, choose=max) -> float:
    """Value of the event {exists m in [lo, hi]: hit(m, S_m)} by backward induction.

    ``choose=max`` gives the upper capacity (an adversary picks the measure
    after seeing the history), ``choose=min`` the lower capacity.  States are
    (partial sum, hit-so-far); a path that has hit keeps value 1.
    """
    layers = _reachable(steps)
    n = len(steps)
    # value of a not-yet-hit state at layer n is 0; hit states are worth 1
    values = {s: 0.0 for s in layers[n]}
    for k in range(n, 0, -1):
        points, measures = steps[k - 1]
        nxt = values
        values = {}
        for s in layers[k - 1]:
            cont = []
            for p in points:
                s2 = s + p
                fired = lo <= k <= hi and hit(k, delta * s2)
                cont.append(1.0 if fired else nxt[s2])
            values[s] = choose(sum(m[j] * cont[j] for j in range(len(points)))
                               for m in measures)
    return values[0]


def terminal_upper(steps, delta: float, payoff) -> float:
    """Upper expectation of payoff(S_N) by backward induction."""
    layers = _reachable(steps)
    n = len(steps)
    values = {s: float(payoff(delta * s)) for s in layers[n]}
    for k in range(n, 0, -1):
        points, measures = steps[k - 1]
        nxt = values
        values = {s: max(sum(m[j] * nxt[s + p] for j, p in enumerate(points))
                         for m in measures)
                  for s in layers[k - 1]}
    return values[0]


def forward_window_prob(laws, delta: float, lo: int, hi: int, hit) -> float:
    """P(exists m in [lo, hi]: hit(m, S_m)) for independent single-law steps.

    ``laws`` is a list of (points, probabilities); the law of S_k restricted
    to paths that have not hit yet is convolved forward, and the mass that
    hits at step k is removed and accumulated.
    """
    dist = {0: 1.0}
    absorbed = 0.0
    for k, (points, probs) in enumerate(laws, start=1):
        nxt: dict[int, float] = {}
        for s, mass in dist.items():
            for p, q in zip(points, probs):
                if q > 0.0:
                    nxt[s + p] = nxt.get(s + p, 0.0) + mass * q
        if lo <= k <= hi:
            for s in [s for s in nxt if hit(k, delta * s)]:
                absorbed += nxt.pop(s)
        dist = nxt
    return absorbed


def forward_terminal(laws, delta: float, payoff) -> float:
    """E[payoff(S_N)] for independent single-law steps by forward convolution."""
    dist = {0: 1.0}
    for points, probs in laws:
        nxt: dict[int, float] = {}
        for s, mass in dist.items():
            for p, q in zip(points, probs):
                if q > 0.0:
                    nxt[s + p] = nxt.get(s + p, 0.0) + mass * q
        dist = nxt
    return sum(mass * float(payoff(delta * s)) for s, mass in dist.items())


# ---------------------------------------------------------------------------
# closed forms, written out from their definitions
# ---------------------------------------------------------------------------


def _log(x: float) -> float:
    # the iterated-logarithm convention: log x = ln max(e, x)
    return math.log(max(math.e, x))


def upper_moment(steps_k, delta: float, fn) -> float:
    """max over the step's measures of E[fn(X)]."""
    points, measures = steps_k
    return max(sum(m[j] * fn(delta * p) for j, p in enumerate(points)) for m in measures)


def lil_scale(steps, delta: float) -> list[float]:
    """[0, a_1, ..., a_N] with a_m = s_m sqrt(2 loglog s_m^2), s_m^2 = sum of upper E[X^2]."""
    out = [0.0]
    s2 = 0.0
    for st in steps:
        s2 += upper_moment(st, delta, lambda v: v * v)
        out.append(math.sqrt(s2) * math.sqrt(2.0 * _log(_log(s2))))
    return out


def d_scale(m: int) -> float:
    """sqrt(2 m loglog m)."""
    return math.sqrt(2.0 * m * _log(_log(float(m))))


def std_normal_sf(z: float) -> float:
    """1 - Phi(z) through the C library's erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gnormal_upper_tail(sigma_lo: float, sigma_hi: float, x: float) -> float:
    """Upper tail capacity of the variance-uncertain normal law at x."""
    if x >= 0:
        return 2.0 * sigma_hi / (sigma_lo + sigma_hi) * std_normal_sf(x / sigma_hi)
    return 1.0 - 2.0 * sigma_lo / (sigma_lo + sigma_hi) * (1.0 - std_normal_sf(x / sigma_lo))
