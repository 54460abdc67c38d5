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
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

PROB_TOL = 1e-12
_SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSupport:
    """Sorted integer lattice indices with a common positive spacing."""

    delta: float
    points: tuple[int, ...]

    def __post_init__(self):
        # delta is checked, not converted: an int delta stays an int
        if not _finite(self.delta, "lattice delta") > 0:
            raise ValueError(f"lattice delta must be positive, got {self.delta}")
        points = tuple(_integer(p, "lattice point") for p in self.points)
        object.__setattr__(self, "points", points)
        if len(points) == 0:
            raise ValueError("lattice support must be nonempty")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"lattice points must be strictly increasing, got {points}")

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
        measures = tuple(tuple(_finite(x, "measure entry") for x in m) for m in self.measures)
        object.__setattr__(self, "measures", measures)
        if len(measures) == 0:
            raise ValueError("a step needs at least one probability vector")
        npts = len(self.support.points)
        for i, m in enumerate(measures):
            if len(m) != npts:
                raise ValueError(f"measure {i} has length {len(m)}, support has {npts} points")
            if min(m) < 0.0 or max(m) > 1.0:
                raise ValueError(f"measure {i} has entries outside [0, 1]: {m}")
            total = running_sums(m)[-1]
            if abs(total - 1.0) > PROB_TOL:
                raise ValueError(f"measure {i} sums to {total!r}, not 1 within {PROB_TOL}")

    @property
    def n_measures(self) -> int:
        return len(self.measures)

    def upper_expectation(self, fn) -> float:
        """max over the family of E[fn(X)], fn applied to real support values."""
        delta = self.support.delta
        # the products of ``support.values()``, without building its array
        vals = [float(fn(delta * float(p))) for p in self.support.points]
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


class SequenceModel(object):
    """A horizon-N schedule of steps, i.i.d. or per-step, on one lattice.

    Pure value type: construct once, then share freely.  A schedule indexes
    its steps once, at construction, into the distinct step objects (by
    identity) in first-occurrence order; ``kinds()`` is the one reader of
    that index, so ``per_step``, ``MomentSeries`` and Monte Carlo's law
    table pay for each distinct step once.
    """

    def __init__(self, horizon: int, steps: Sequence[StepAmbiguity] | None = None,
                 iid_step: StepAmbiguity | None = None):
        horizon = _integer(horizon, "horizon")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if (steps is None) == (iid_step is None):
            raise ValueError("provide exactly one of steps / iid_step")
        self.horizon = horizon
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
            index: dict[int, int] = {}
            # setdefault reads len(index) first: a new step takes the next index
            self._kinds = [index.setdefault(id(s), len(index)) for s in steps]
            self._distinct = list({id(s): s for s in steps}.values())

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

    def kinds(self, upto: int | None = None) -> tuple[list[StepAmbiguity], list[int]]:
        """(distinct, kinds) over steps 1..upto, ``upto`` defaulting to the
        horizon: the distinct step objects among them in first-occurrence
        order, and for each step its index into ``distinct``, so step k is
        ``distinct[kinds[k - 1]]``.  An i.i.d. model gives its one step and
        all-zero indices.  ``upto < 1`` gives ``([], [])``; one past the
        horizon is an ``IndexError``."""
        upto = self.horizon if upto is None else upto
        if upto > self.horizon:
            raise IndexError(f"step index {self.horizon + 1} outside 1..{self.horizon}")
        if upto < 1:
            return [], []
        if self._iid is not None:
            return [self._iid], [0] * upto
        kinds = self._kinds[:upto]
        # kinds number the steps in first-occurrence order, so the first
        # ``upto`` steps hold exactly the distinct steps 0..max(kinds)
        return self._distinct[:max(kinds) + 1], kinds

    def per_step(self, fn: Callable[[StepAmbiguity], object], upto: int | None = None) -> list:
        """[fn(step_1), ..., fn(step_upto)] through ``kinds(upto)``: ``fn`` is
        called once per distinct step, in the order they first occur, and
        the values expanded by the step index.  Nothing is cached."""
        distinct, kinds = self.kinds(upto)
        vals = list(map(fn, distinct))
        return list(map(vals.__getitem__, kinds))

    def moment_sums(self, fn: Callable[[float], float], upto: int | None = None,
                    lower: bool = False) -> list[float]:
        """``running_sums`` of the per-step upper (``lower=True``: lower)
        expectations of ``fn`` over steps 1..upto: the one fold behind
        every sum over steps, such as s_n^2 and the mean centerings."""
        if lower:
            return running_sums(self.per_step(lambda s: s.lower_expectation(fn), upto))
        return running_sums(self.per_step(lambda s: s.upper_expectation(fn), upto))

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
        """Inverse of ``to_dict``; any malformed description raises ``ValueError``.
        ``LatticeSupport`` reads ``delta`` and the points and ``StepAmbiguity``
        each measure entry, so a bool, a string or an int too large for a
        float is malformed."""
        if not isinstance(d, dict):
            raise ValueError(f"model description must be an object, got {type(d).__name__}")

        def dec(sd: dict) -> StepAmbiguity:
            return StepAmbiguity(LatticeSupport(d["delta"], sd["points"]), sd["measures"])

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


def running_sums(terms: Iterable[float]) -> list[float]:
    """[0.0, t_1, t_1 + t_2, ...]: the left fold from 0.0 behind every sum
    over steps.  Not the builtin ``sum()``: from Python 3.12 on it
    compensates float sums, so its last bits depend on the version."""
    return list(accumulate(terms, initial=0.0))


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, a string or a non-integral number is a
    ``ValueError``, never truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """``value`` as a float; NaN, a bool, a string, an int too large for a
    float or any non-number is a ``ValueError``, never parsed or read as 0
    and 1.  ``±inf`` passes: callers that need a finite value check it."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            pass
        else:
            if math.isnan(out):
                raise ValueError(f"{what} is NaN")
            return out
    raise ValueError(f"{what} must be a real number, got {value!r}")


def _finite(value, what: str) -> float:
    """``value`` through ``_real``; ``±inf`` is a ``ValueError`` too."""
    out = _real(value, what)
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return out


def _require_centered(step: StepAmbiguity, what: str) -> None:
    """``ValueError``, naming the caller ``what``, unless both mean bounds
    of ``step`` are within 1e-12 of zero."""
    lo, hi = step.expectation_interval(lambda v: v)
    if abs(lo) > 1e-12 or abs(hi) > 1e-12:
        raise ValueError(f"{what} needs a centered step: both mean bounds zero")


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
    variance θ².  The sigmas are checked by ``_real`` but used as given, so
    an int sigma stays an int lattice delta; ``grid`` goes through ``_integer``.
    """
    _real(sigma_lo, "sigma_lo")
    _real(sigma_hi, "sigma_hi")
    grid = _integer(grid, "grid")
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
