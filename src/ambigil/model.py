"""Finite representation of one-dimensional distributional ambiguity.

A random step is a finite lattice ``{k * delta : k in points}`` together with
a finite family of probability vectors over that lattice; each vector is one
admissible law for the step.  A sequence model is a horizon-N schedule of such
steps sharing a single delta, so partial sums stay lattice-valued and path
events can be evaluated by exact dynamic programming.

Measure families are always explicit and finite.  Interval-style ambiguity is
represented by a grid of laws that includes both interval endpoints; grid
refinement is the caller's convergence knob.  Nothing here assumes that
extreme points of the family suffice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PROB_TOL = 1e-12
_SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSupport:
    """Sorted integer lattice indices with a common positive spacing."""

    delta: float
    points: tuple[int, ...]

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"lattice delta must be positive, got {self.delta}")
        if len(self.points) == 0:
            raise ValueError("lattice support must be nonempty")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError(f"lattice points must be strictly increasing, got {self.points}")
        if any(int(p) != p for p in self.points):
            raise ValueError("lattice points must be integers (multiples of delta)")

    def values(self) -> np.ndarray:
        """Real support values delta * points."""
        return self.delta * np.asarray(self.points, dtype=float)

    @property
    def radius(self) -> float:
        """Largest absolute support value."""
        return self.delta * max(abs(self.points[0]), abs(self.points[-1]))


@dataclass(frozen=True)
class StepAmbiguity:
    """One time step's uncertainty: a lattice plus a finite family of laws."""

    support: LatticeSupport
    measures: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.measures) == 0:
            raise ValueError("a step needs at least one probability vector")
        npts = len(self.support.points)
        for i, m in enumerate(self.measures):
            if len(m) != npts:
                raise ValueError(f"measure {i} has length {len(m)}, support has {npts} points")
            if not all(math.isfinite(x) for x in m):
                raise ValueError(f"measure {i} has non-finite entries: {m}")
            if min(m) < 0.0 or max(m) > 1.0:
                raise ValueError(f"measure {i} has entries outside [0, 1]: {m}")
            if abs(sum(m) - 1.0) > PROB_TOL:
                raise ValueError(f"measure {i} sums to {sum(m)!r}, not 1 within {PROB_TOL}")

    @property
    def n_measures(self) -> int:
        return len(self.measures)

    def matrix(self) -> np.ndarray:
        """Measure family as an (n_measures, n_points) array."""
        return np.asarray(self.measures, dtype=float)

    def upper_expectation(self, fn) -> float:
        """max over the family of E[fn(X)], fn applied to real support values."""
        vals = [float(fn(float(v))) for v in self.support.values()]
        best = None
        for m in self.measures:
            acc = 0.0
            for p, v in zip(m, vals):
                acc += p * v
            if best is None or acc > best:
                best = acc
        return best

    def lower_expectation(self, fn) -> float:
        """min over the family of E[fn(X)]; the conjugate of upper_expectation."""
        return -self.upper_expectation(lambda v: -fn(v))

    def expectation_interval(self, fn) -> tuple[float, float]:
        return self.lower_expectation(fn), self.upper_expectation(fn)


@dataclass(frozen=True)
class TruncationSpec:
    """Two-sided clamp level: x is replaced by (-c) ∨ x ∧ c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"truncation level must be positive, got {self.c}")


def clamp(x: float, spec: TruncationSpec) -> float:
    """(-c) ∨ x ∧ c."""
    return max(-spec.c, min(x, spec.c))


class SequenceModel(object):
    """A horizon-N schedule of steps, i.i.d. or per-step, on one lattice.

    Pure value type: construct once, then share freely.
    """

    def __init__(self, horizon: int, steps: Sequence[StepAmbiguity] | None = None,
                 iid_step: StepAmbiguity | None = None):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if (steps is None) == (iid_step is None):
            raise ValueError("provide exactly one of steps / iid_step")
        self.horizon = int(horizon)
        self._iid = iid_step
        if iid_step is not None:
            self._steps = None
            self.delta = iid_step.support.delta
        else:
            steps = tuple(steps)
            if len(steps) != horizon:
                raise ValueError(f"explicit schedule has {len(steps)} steps, horizon is {horizon}")
            deltas = {s.support.delta for s in steps}
            if len(deltas) != 1:
                raise ValueError(f"all steps must share one lattice delta, got {sorted(deltas)}")
            self._steps = steps
            self.delta = steps[0].support.delta

    @classmethod
    def iid(cls, step: StepAmbiguity, horizon: int) -> "SequenceModel":
        return cls(horizon, iid_step=step)

    @property
    def is_iid(self) -> bool:
        return self._iid is not None

    def step(self, k: int) -> StepAmbiguity:
        """Step for time k, 1-based."""
        if not 1 <= k <= self.horizon:
            raise IndexError(f"step index {k} outside 1..{self.horizon}")
        return self._iid if self._iid is not None else self._steps[k - 1]

    def steps(self) -> Iterable[StepAmbiguity]:
        for k in range(1, self.horizon + 1):
            yield self.step(k)

    def to_dict(self) -> dict:
        def enc(step: StepAmbiguity) -> dict:
            return {"points": list(step.support.points),
                    "measures": [list(m) for m in step.measures]}

        out = {"horizon": self.horizon, "delta": self.delta}
        if self._iid is not None:
            out["iid"] = enc(self._iid)
        else:
            out["steps"] = [enc(s) for s in self._steps]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SequenceModel":
        """Inverse of ``to_dict``; any malformed description raises ``ValueError``."""
        if not isinstance(d, dict):
            raise ValueError(f"model description must be an object, got {type(d).__name__}")

        def dec(sd: dict) -> StepAmbiguity:
            points = tuple(int(p) for p in sd["points"])
            measures = tuple(tuple(float(x) for x in m) for m in sd["measures"])
            return StepAmbiguity(LatticeSupport(d["delta"], points), measures)

        try:
            if "iid" in d:
                return cls(d["horizon"], iid_step=dec(d["iid"]))
            if "steps" in d:
                return cls(d["horizon"], steps=[dec(s) for s in d["steps"]])
        except KeyError as e:
            raise ValueError(f"model description missing field {e}") from None
        except TypeError as e:
            raise ValueError(f"model description has a wrong type: {e}") from None
        raise ValueError("model description needs 'iid' or 'steps'")

    def to_json(self) -> str:
        # float -> repr round-trips probabilities bit-exactly
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SequenceModel":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path) -> "SequenceModel":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())


def _snap_index(value: float, delta: float, what: str) -> int:
    """Nearest lattice index for value; errors when the snap is visible."""
    idx = round(value / delta)
    err = abs(value - idx * delta)
    if err > _SNAP_REL_TOL * max(1.0, abs(value)):
        raise ValueError(
            f"{what}={value!r} is not representable on the lattice delta={delta!r}: "
            f"nearest point {idx * delta!r}, snap distance {err:.3e}")
    return idx


def make_rademacher_interval(sigma_lo: float, sigma_hi: float, grid: int) -> StepAmbiguity:
    """Symmetric two-point laws ±θ (prob 1/2 each) for θ on a grid in [sigma_lo, sigma_hi].

    The grid is the arithmetic progression with ``grid`` points including both
    endpoints; the lattice spacing is the grid step (or sigma_lo when grid=1).
    This is the canonical variance-uncertainty step: every law has mean 0 and
    variance θ².
    """
    if not 0 < sigma_lo <= sigma_hi:
        raise ValueError(f"need 0 < sigma_lo <= sigma_hi, got ({sigma_lo}, {sigma_hi})")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if grid == 1:
        if sigma_lo != sigma_hi:
            raise ValueError("grid=1 requires sigma_lo == sigma_hi")
        thetas = [sigma_lo]
        delta = sigma_lo
    else:
        step = (sigma_hi - sigma_lo) / (grid - 1)
        thetas = [sigma_lo + j * step for j in range(grid)]
        thetas[-1] = sigma_hi
        delta = step if step > 0 else sigma_lo

    indices = []
    for th in thetas:
        idx = _snap_index(th, delta, "theta")
        if idx == 0:
            raise ValueError(
                f"theta={th!r} collapses to 0 on lattice delta={delta!r}; "
                "grid too coarse to carry a two-point law")
        indices.append(idx)
    if len(set(indices)) != len(indices):
        raise ValueError(
            f"grid thetas {thetas} collide on lattice delta={delta!r} (indices {indices})")

    points = tuple(sorted({s * i for i in indices for s in (-1, 1)}))
    pos = {p: j for j, p in enumerate(points)}
    measures = []
    for idx in indices:
        m = [0.0] * len(points)
        m[pos[-idx]] = 0.5
        m[pos[idx]] = 0.5
        measures.append(tuple(m))
    return StepAmbiguity(LatticeSupport(delta, points), tuple(measures))


def truncate_step(step: StepAmbiguity, spec: TruncationSpec) -> StepAmbiguity:
    """Push the clamp through the support, merging masses that collide at ±c.

    A clamp level above the support radius is the identity.  When c does not
    sit on the step's lattice, the lattice is refined by the smallest integer
    factor that carries both the old points and ±c (error with a snap
    diagnostic if no small factor works).  Total mass per measure is
    preserved exactly up to float regrouping.
    """
    if spec.c >= step.support.radius:
        return step
    delta = step.support.delta
    ratio = spec.c / delta
    from fractions import Fraction
    # refinements beyond 64x would silently blow up downstream DP lattices
    frac = Fraction(ratio).limit_denominator(64)
    err = abs(ratio - float(frac)) * delta
    if err > _SNAP_REL_TOL * max(1.0, spec.c):
        raise ValueError(
            f"truncation level c={spec.c!r} is not representable on the lattice "
            f"delta={delta!r} or a refinement of it by a factor <= 64; "
            f"best snap distance {err:.3e}")
    q = frac.denominator
    c_idx = frac.numerator
    if q == 1:
        new_delta = delta
        pts = step.support.points
    else:
        new_delta = delta / q
        pts = tuple(p * q for p in step.support.points)
    new_points = sorted({min(max(p, -c_idx), c_idx) for p in pts})
    pos = {p: j for j, p in enumerate(new_points)}
    measures = []
    for m in step.measures:
        out = [0.0] * len(new_points)
        for p, mass in zip(pts, m):
            out[pos[min(max(p, -c_idx), c_idx)]] += mass
        measures.append(tuple(out))
    return StepAmbiguity(LatticeSupport(new_delta, tuple(new_points)), tuple(measures))


def truncate_model(model: SequenceModel, spec: TruncationSpec) -> SequenceModel:
    """Apply truncate_step to every step of a model."""
    if model.is_iid:
        return SequenceModel.iid(truncate_step(model.step(1), spec), model.horizon)
    return SequenceModel(model.horizon, steps=[truncate_step(s, spec) for s in model.steps()])
