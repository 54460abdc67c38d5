"""Per-layer tracing of ambigil from outside the package.

``Tracer.install`` replaces each traced public function at every place it
is bound: a module that did ``from .engine import evaluate_upper`` holds
its own reference, so the wrapper is written into every ambigil namespace
that holds the original object, and methods are replaced on their class.
Each wrapped call records a span (name, start, end, parent) in memory.
At the end of a pass the spans are reduced to per-layer counts and self
times (a span's duration minus the time its child spans cover) and, apart
from the first pass's spans, dropped.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from ambigil.engine import TerminalSumPayoff, WindowEvent
from ambigil.model import StepAmbiguity
from ambigil.rng import SplitMix64

# every per-layer metric, in report order, as BENCHMARK.json lists it
PER_LAYER = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]

# span name -> public functions it covers, looked up by (module, attribute)
SPANS = {
    "capacity.mc": [("capacity", "mc_capacity_lower_bound")],
    "bounds.domination_case": [("bounds", "domination_case")],
    "bounds.closed_form": [("bounds", "kolmogorov_bound"), ("bounds", "fuk_nagaev_bound"),
                           ("bounds", "simplified_bound")],
    "gnormal.clt_capacity": [("gnormal", "clt_capacity")],
    "gnormal.tail": [("gnormal", "gnormal_upper_tail"), ("gnormal", "gnormal_lower_tail")],
    "lil.experiment": [("lil", "lil_upper_experiment"), ("lil", "lil_lower_experiment"),
                       ("lil", "cluster_probe")],
    "lil.check_conditions": [("lil", "check_conditions")],
}

# spans whose self time is the benchmark's own bookkeeping, not a layer's
_STATES_SPAN = "bench.states"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ambigil" or name.startswith("ambigil."))]


def engine_path(args, kwargs) -> str:
    """The lattice or generic path ``evaluate_upper`` dispatches the payoff to."""
    payoff = args[1] if len(args) > 1 else kwargs["payoff"]
    if kwargs.get("method", "auto") != "generic":
        if isinstance(payoff, WindowEvent):
            return "engine.window"
        if isinstance(payoff, TerminalSumPayoff):
            return "engine.terminal"
    return "engine.generic"


def reachable_sums(model) -> int:
    """Sum over k = 0..N of the number of partial sums S_k the supports can reach."""
    reach = 1          # bit i set: partial sum (lowest reachable sum + i) is reachable
    total = 1
    for step in model.steps():
        pts = step.support.points
        nxt = 0
        for p in pts:
            nxt |= reach << (p - pts[0])
        reach = nxt
        total += reach.bit_count()
    return total


class Tracer(object):
    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._states: dict[tuple, tuple[int, object]] = {}
        self.passes: list[dict[str, float]] = []
        self.first_pass_spans: list[list] | None = None

    # -- recording ---------------------------------------------------------

    def _count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name, fn, before=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the call's arguments."""

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(span, args, kwargs)
            self._count(span + ".calls")
            rec = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def _engine_states(self, span: str, args, kwargs) -> None:
        if span == "engine.generic":
            return
        rec = self._open(_STATES_SPAN)
        model = args[0]
        steps = (model.step(1),) if model.is_iid else tuple(model.steps())
        key = (model.horizon, tuple(map(id, steps)))
        if key not in self._states:
            self._states[key] = (reachable_sums(model), steps)  # steps pin the ids
        n = self._states[key][0]
        self._close(rec)
        self._count(span + ".states", 2 * n if span == "engine.window" else n)

    def _mc_paths(self, span: str, args, kwargs) -> None:
        self._count("capacity.mc.paths",
                    args[3] if len(args) > 3 else kwargs["replications"])

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        self._rebind(mods["engine"].evaluate_upper,
                     self._spanned(engine_path, mods["engine"].evaluate_upper,
                                   self._engine_states))
        for span, targets in SPANS.items():
            before = self._mc_paths if span == "capacity.mc" else None
            for mod, attr in targets:
                original = getattr(mods[mod], attr)
                self._rebind(original, self._spanned(span, original, before))
        for cls, attr, wrap in (
                (StepAmbiguity, "upper_expectation",
                 lambda f: self._spanned("model.upper_expectation", f)),
                (SplitMix64, "next_u64", self._counted_draw)):
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrap(original))

    def _counted_draw(self, fn):
        def next_u64(stream):
            self._count("rng.draws")
            return fn(stream)

        return next_u64

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def end_pass(self) -> None:
        """Reduce this pass's spans and counts to per-layer numbers."""
        child = [0] * len(self.spans)
        self_ns: dict[str, int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child[i]
        row: dict[str, float] = dict(self.counts)
        row.update({name + ".s": ns * 1e-9 for name, ns in self_ns.items()})
        self.passes.append(row)
        if self.first_pass_spans is None:
            self.first_pass_spans = self.spans
        self.spans = []
        self.counts = {}

    def count_mismatches(self) -> list[str]:
        """Counts that differ between passes of the same fixed work."""
        first = self.passes[0]
        keys = [k for k in first if not k.endswith(".s")]
        out = []
        for i, row in enumerate(self.passes[1:], start=2):
            bad = [k for k in set(keys) | {k for k in row if not k.endswith(".s")}
                   if first.get(k) != row.get(k)]
            if bad:
                out.append(f"pass {i}: counts differ from pass 1 on {sorted(bad)}")
        return out

    def metrics(self) -> dict[str, float]:
        """Per-pass counts, median self times and the derived rates."""
        rows = self.passes
        med = lambda k: statistics.median(r.get(k, 0.0) for r in rows)
        first = rows[0]
        m: dict[str, float] = {}
        for spec in PER_LAYER:
            name = spec["name"]
            if spec["unit"] == "count":
                m[name] = first.get(name, 0)
            elif spec["unit"] == "s":
                m[name] = med(name)
        for path in ("engine.window", "engine.terminal"):
            s = m[path + ".s"]
            m[path + ".states_per_s"] = m[path + ".states"] / s if s > 0 else 0.0
        s = m["capacity.mc.s"]
        m["capacity.mc.paths_per_s"] = first.get("capacity.mc.paths", 0) / s if s > 0 else 0.0
        return m

    def entered(self, layer: str) -> bool:
        name = layer if layer == "rng.draws" else layer + ".calls"
        return self.passes[0].get(name, 0) > 0
