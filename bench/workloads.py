"""The benchmark's workloads: seeded inputs, the fixed pass, and output checks.

A workload is a list of calls into ambigil's public API (the pass, repeated
for the whole run), a smaller list run once as warm-up, the per-layer
spans the traced run must enter, and a check over the pass's outputs.
Calls name their function, so a traced run that rebinds the function in
ambigil's namespaces is seen by every call.

Inputs come from ``random.Random(seed)``.  The seed moves thresholds,
window starts, the phase of the alternating schedule and Monte Carlo
seeds; it never moves horizons, lattice widths or replication counts, so
the work in a pass is the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import ambigil as ag
from ambigil.bounds import DominationGrid, random_small_model
from ambigil.rng import substream

import reference as ref

TOL = 1e-12
MC_SIGMAS = 6.0          # Monte Carlo checks allow this many standard errors
# verify_domination's case cost varies with its seed, so the cases are fixed
DOMINATION_SEED = 20210927
DOMINATION_CASES = 60

S11 = ag.make_rademacher_interval(1, 1, 1)
S12 = ag.make_rademacher_interval(1, 2, 2)
S13 = ag.make_rademacher_interval(1, 3, 3)
G5 = ag.make_rademacher_interval(1, 2, 5)


@dataclass(frozen=True)
class Call:
    """One public-API call of the pass; ``items`` is what it counts for."""

    key: str
    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    items: int = 1

    def run(self):
        return getattr(ag, self.fn)(*self.args, **self.kwargs)


@dataclass
class Workload:
    name: str
    calls: list[Call]
    warmup: list[Call]
    layers: tuple[str, ...]
    check: Callable[[dict], list[str]]

    @property
    def items_per_pass(self) -> int:
        return sum(c.items for c in self.calls)


class Checker(object):
    """Collects failed properties; outputs of failed calls are skipped."""

    def __init__(self, outputs: dict):
        self.out = outputs
        self.failures: list[str] = []

    def has(self, *keys) -> bool:
        return all(k in self.out for k in keys)

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(what)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        self.expect(abs(got - want) <= tol, f"{what}: {got!r} vs {want!r} (tol {tol:g})")

    def unit(self, v: float, what: str) -> None:
        self.expect(-TOL <= v <= 1.0 + TOL, f"{what} = {v!r} outside [0, 1]")


def alt_model(N: int, phase: int) -> ag.SequenceModel:
    """Non-identically distributed schedule alternating S12 and S13."""
    return ag.SequenceModel(N, steps=[S12 if (k + phase) % 2 == 0 else S13
                                      for k in range(N)])


# ---------------------------------------------------------------------------
# lil-windows
# ---------------------------------------------------------------------------

LOWER_S12_N = (48, 256, 1024, 2048)
ALT_N = (48, 256, 512, 1024)
CLUSTER_S12_N = (32, 256, 512)


def lil_windows(seed: int) -> Workload:
    r = random.Random(seed)
    n0 = r.randint(8, 24)
    eps_lo = r.uniform(0.3, 0.6)
    eps_up = r.uniform(0.0, 0.5)
    phase = r.randrange(2)
    sigmas = tuple(sorted(r.uniform(0.6, 3.2) for _ in range(3)))

    models = {("S12", N): ag.SequenceModel.iid(S12, N) for N in LOWER_S12_N}
    models.update({("ALT", N): alt_model(N, phase) for N in ALT_N})
    models[("S11", 256)] = ag.SequenceModel.iid(S11, 256)

    calls = [Call(f"lower-S12-{N}", "lil_lower_experiment",
                  (models[("S12", N)], n0, N, eps_lo)) for N in LOWER_S12_N]
    for N in ALT_N:
        calls.append(Call(f"upper-ALT-{N}", "lil_upper_experiment",
                          (models[("ALT", N)], n0, N, eps_up)))
        calls.append(Call(f"lower-ALT-{N}", "lil_lower_experiment",
                          (models[("ALT", N)], n0, N, eps_lo)))
    calls += [Call(f"cluster-S12-{N}", "cluster_probe", (S12, N, sigmas), items=len(sigmas))
              for N in CLUSTER_S12_N]
    calls += [Call("lower-S11-256", "lil_lower_experiment", (models[("S11", 256)], n0, 256, eps_lo)),
              Call("cluster-S11-128", "cluster_probe", (S11, 128, sigmas), items=len(sigmas))]
    warm = [Call("warm-lower", "lil_lower_experiment", (models[("ALT", 48)], n0, 48, eps_lo)),
            Call("warm-upper", "lil_upper_experiment", (models[("ALT", 48)], n0, 48, eps_up)),
            Call("warm-cluster", "cluster_probe", (S12, 32, sigmas), items=len(sigmas))]

    def lower_event(model):
        steps = ref.steps_of(model)
        a = ref.lil_scale(steps, model.delta)
        return steps, (lambda m, v: v >= (1.0 - eps_lo) * a[m])

    def cluster_event(s):
        return lambda m, v: v >= s * ref.d_scale(m)

    def check(out: dict) -> list[str]:
        c = Checker(out)
        for key, v in out.items():
            if key.startswith("lower-"):
                c.unit(v, key)
            elif key.startswith("upper-"):
                c.unit(v.capacity, key)
                c.expect(v.capacity <= v.bound_crosscheck + TOL,
                         f"{key}: capacity {v.capacity!r} above crosscheck {v.bound_crosscheck!r}")
            elif key.startswith("cluster-"):
                for row in v:
                    c.unit(row.upper, f"{key} upper")
                    c.unit(row.lower, f"{key} lower")
                    c.expect(row.lower <= row.upper + TOL, f"{key}: lower above upper at {row.sigma}")
                for a, b in zip(v, v[1:]):
                    c.expect(b.upper <= a.upper + TOL and b.lower <= a.lower + TOL,
                             f"{key}: capacities increase from sigma {a.sigma} to {b.sigma}")
        for chain in ([f"lower-S12-{N}" for N in LOWER_S12_N], [f"lower-ALT-{N}" for N in ALT_N]):
            vals = [out[k] for k in chain if k in out]
            c.expect(all(b >= a - TOL for a, b in zip(vals, vals[1:])),
                     f"lil_lower_experiment decreases in N: {vals}")

        # independent backward induction on the small windows
        for key, model in (("lower-S12-48", models[("S12", 48)]), ("lower-ALT-48", models[("ALT", 48)])):
            if c.has(key):
                steps, hit = lower_event(model)
                c.close(out[key], ref.window_capacity(steps, 1.0, n0, 48, hit), TOL, key)
        if c.has("upper-ALT-48"):
            model = models[("ALT", 48)]
            steps = ref.steps_of(model)
            a = ref.lil_scale(steps, 1.0)
            cents = [0.0]
            for st in steps:
                cents.append(cents[-1] + ref.upper_moment(st, 1.0, lambda v: v))
            want = ref.window_capacity(steps, 1.0, n0, 48,
                                       lambda m, v: v > (1.0 + eps_up) * a[m] + cents[m])
            c.close(out["upper-ALT-48"].capacity, want, TOL, "upper-ALT-48")
        if c.has("cluster-S12-32"):
            steps = ref.steps_of(ag.SequenceModel.iid(S12, 32))
            for row in out["cluster-S12-32"]:
                hit = cluster_event(row.sigma)
                c.close(row.upper, ref.window_capacity(steps, 1.0, 1, 32, hit), TOL,
                        f"cluster-S12-32 upper at {row.sigma}")
                c.close(row.lower, ref.window_capacity(steps, 1.0, 1, 32, hit, choose=min), TOL,
                        f"cluster-S12-32 lower at {row.sigma}")

        # single-law model: both capacities are one probability, by forward convolution
        law = [((-1, 1), (0.5, 0.5))]
        if c.has("lower-S11-256"):
            _, hit = lower_event(models[("S11", 256)])
            c.close(out["lower-S11-256"], ref.forward_window_prob(law * 256, 1.0, n0, 256, hit),
                    TOL, "lower-S11-256")
        if c.has("cluster-S11-128"):
            for row in out["cluster-S11-128"]:
                p = ref.forward_window_prob(law * 128, 1.0, 1, 128, cluster_event(row.sigma))
                c.close(row.upper, p, TOL, f"cluster-S11-128 upper at {row.sigma}")
                c.close(row.lower, p, TOL, f"cluster-S11-128 lower at {row.sigma}")
        return c.failures

    return Workload("lil-windows", calls, warm,
                    ("engine.window", "model.upper_expectation", "lil.experiment"), check)


# ---------------------------------------------------------------------------
# clt-grid5
# ---------------------------------------------------------------------------

# (n, number of x values): fewer brackets where a bracket costs more
CLT_PLAN = ((125, 3), (250, 2), (500, 1))
CLT_REF_N = {"G5": 8, "S11": 64}


def _ramp(lo_edge: float, hw: float):
    def fn(s: float) -> float:
        if s >= lo_edge + hw:
            return 1.0
        if s <= lo_edge:
            return 0.0
        return (s - lo_edge) / hw
    return fn


def clt_grid5(seed: int) -> Workload:
    r = random.Random(seed)
    xs = tuple(sorted(r.uniform(-0.8, 1.6) for _ in range(3)))
    calls = [Call(f"G5-{n}-{i}", "clt_capacity", (G5, n, xs[i]))
             for n, k in CLT_PLAN for i in range(k)]
    calls += [Call(f"{name}-{n}-{i}", "clt_capacity", (step, n, xs[i]))
              for (name, n), step in zip(CLT_REF_N.items(), (G5, S11)) for i in range(2)]
    warm = [Call("warm", "clt_capacity", (G5, 32, xs[0]))]

    def brackets_ref(step, n, x, single_law: bool):
        sq = math.sqrt(float(n))
        hw = (4.0 * step.support.delta / sq) * sq
        t = x * sq
        pts, meas = tuple(step.support.points), tuple(step.measures)
        if single_law:
            law = [(pts, meas[0])] * n
            ev = lambda f: ref.forward_terminal(law, step.support.delta, f)
        else:
            ev = lambda f: ref.terminal_upper([(pts, meas)] * n, step.support.delta, f)
        return ev(_ramp(t, hw)), ev(_ramp(t - hw, hw))

    def check(out: dict) -> list[str]:
        c = Checker(out)
        for key, b in out.items():
            c.unit(b.bracket_low, f"{key} low")
            c.unit(b.bracket_high, f"{key} high")
            c.expect(b.bracket_low <= b.bracket_high, f"{key}: bracket_low above bracket_high")
            # the closed form is the n -> infinity limit; allow an O(1/sqrt(n)) gap
            slack = 0.2 / math.sqrt(b.n)
            c.expect(b.abs_error <= slack, f"{key}: |dp - gnormal| = {b.abs_error!r} above {slack:g}")
            c.expect(b.bracket_low - slack / 2 <= b.gnormal_value <= b.bracket_high + slack / 2,
                     f"{key}: gnormal {b.gnormal_value!r} outside the widened bracket")
            lo, hi = (1.0, 1.0) if key.startswith("S11") else (1.0, 2.0)
            c.close(b.gnormal_value, ref.gnormal_upper_tail(lo, hi, b.x), TOL, f"{key} gnormal tail")
        for z in [i / 8.0 for i in range(-48, 49)] + [x / (s * math.sqrt(2.0)) for x in xs for s in (1.0, 2.0)]:
            c.close(ag.erfc(z), math.erfc(z), TOL, f"erfc({z!r})")
        for (name, n), step in zip(CLT_REF_N.items(), (G5, S11)):
            for i in range(2):
                key = f"{name}-{n}-{i}"
                if c.has(key):
                    lo, hi = brackets_ref(step, n, xs[i], name == "S11")
                    c.close(out[key].bracket_low, lo, TOL, f"{key} low")
                    c.close(out[key].bracket_high, hi, TOL, f"{key} high")
        return c.failures

    return Workload("clt-grid5", calls, warm,
                    ("engine.terminal", "gnormal.clt_capacity", "gnormal.tail"), check)


# ---------------------------------------------------------------------------
# small-models
# ---------------------------------------------------------------------------

CONDITION_RUNS = (("ALT", 96, (12, 24, 48, 96)), ("S12", 256, (32, 64, 128, 256)))


def small_models(seed: int) -> Workload:
    r = random.Random(seed)
    phase = r.randrange(2)
    # eps > alpha makes eps * loglog(s_n^2) > alpha, so every n enters the termwise chain
    alpha = r.uniform(0.3, 0.6)
    kw = dict(p=r.choice((2.0, 3.0)), alpha=alpha, eps=r.uniform(0.65, 1.0),
              delta=r.uniform(0.2, 0.8), power_p=r.choice((3.0, 4.0)))
    cond_models = {"ALT": alt_model(96, phase), "S12": ag.SequenceModel.iid(S12, 256)}
    calls = [Call("domination", "verify_domination", (DOMINATION_CASES, DOMINATION_SEED),
                  items=DOMINATION_CASES)]
    calls += [Call(f"conditions-{name}", "check_conditions", (cond_models[name], cps), kw)
              for name, _, cps in CONDITION_RUNS]
    warm = [Call("warm-domination", "verify_domination", (5, DOMINATION_SEED), items=5),
            Call("warm-conditions", "check_conditions", (alt_model(16, phase), (4, 8, 16)), kw)]

    def check(out: dict) -> list[str]:
        c = Checker(out)
        if c.has("domination"):
            rep = out["domination"]
            c.expect(len(rep.cases) == DOMINATION_CASES, "verify_domination lost cases")
            c.expect(rep.violation_count == 0, f"domination violations: {rep.violations[:3]}")
            grid = DominationGrid()
            for case in rep.cases:
                tag = f"case {case.case_id}"
                for name in ("lhs_upper", "lhs_lower", "lhs_lower_conjugate", "max_tail"):
                    c.unit(getattr(case, name), f"{tag} {name}")
                c.expect(case.lhs_lower <= case.lhs_upper + TOL, f"{tag}: lower above upper")
                model = random_small_model(substream(DOMINATION_SEED, case.case_id), grid)
                c.expect(model.horizon == case.n, f"{tag}: regenerated model has another horizon")
                steps = ref.steps_of(model)
                d = model.delta
                # V(max_k X_k > y) = 1 - prod_k (1 - max_P P(X_k > y)) by independence
                prod = 1.0
                for st in steps:
                    prod *= 1.0 - ref.upper_moment(st, d, lambda v: 1.0 if v > case.y else 0.0)
                c.close(case.max_tail, 1.0 - prod, TOL, f"{tag} max tail")
                up, lo = [0.0], [0.0]
                for st in steps:
                    up.append(up[-1] + ref.upper_moment(st, d, lambda v: v))
                    lo.append(lo[-1] - ref.upper_moment(st, d, lambda v: -v))
                n, x = case.n, case.x
                hit_u = lambda m, v: v >= x + up[m]
                hit_l = lambda m, v: v >= x + lo[m]
                c.close(case.lhs_upper, ref.window_capacity(steps, d, 1, n, hit_u), TOL, f"{tag} upper")
                c.close(case.lhs_lower, ref.window_capacity(steps, d, 1, n, hit_u, choose=min),
                        TOL, f"{tag} lower")
                c.close(case.lhs_lower_conjugate,
                        ref.window_capacity(steps, d, 1, n, hit_l, choose=min), TOL,
                        f"{tag} lower (lower-mean centering)")
        for name, N, cps in CONDITION_RUNS:
            key = f"conditions-{name}"
            if c.has(key):
                rep = out[key]
                c.expect(rep.termwise_violations == (), f"{key}: {rep.termwise_violations[:3]}")
                c.expect(rep.termwise_checked > 0, f"{key}: termwise chain never checked")
                s2 = sum(ref.upper_moment(st, 1.0, lambda v: v * v)
                         for st in ref.steps_of(cond_models[name]))
                c.close(rep.growth_check["s2_last"], s2, TOL * s2, f"{key} s_N^2")
        return c.failures

    return Workload("small-models", calls, warm,
                    ("engine.generic", "engine.window", "model.upper_expectation",
                     "bounds.domination_case", "bounds.closed_form", "lil.check_conditions"),
                    check)


# ---------------------------------------------------------------------------
# mc-strategies
# ---------------------------------------------------------------------------

MC_N = 64
MC_REPLICATIONS = 1000


def mc_strategies(seed: int) -> Workload:
    r = random.Random(seed)
    lo = r.randint(1, 16)
    thr = r.uniform(7.5, 12.5)
    mc_seed = r.getrandbits(32)
    schedule = [r.randrange(2) for _ in range(MC_N)]
    model = ag.SequenceModel.iid(S12, MC_N)
    event = ag.window_max_event(lo, MC_N, thr, ">=", "S")
    strategies = {"constant-0": ("constant", 0), "constant-1": ("constant", 1),
                  "schedule": ("schedule", schedule), "greedy": "greedy-one-step"}
    calls = [Call(key, "mc_capacity_lower_bound",
                  (model, event, strat, MC_REPLICATIONS, mc_seed), items=MC_REPLICATIONS)
             for key, strat in strategies.items()]
    small, small_event = ag.SequenceModel.iid(S12, 16), ag.window_max_event(1, 16, 4.0)
    warm = [Call(f"warm-{key}", "mc_capacity_lower_bound",
                 (small, small_event, strat, 100, mc_seed), items=100)
            for key, strat in (("constant", ("constant", 0)), ("schedule", ("schedule", schedule[:16])),
                               ("greedy", "greedy-one-step"))]

    def check(out: dict) -> list[str]:
        c = Checker(out)
        hit = lambda m, v: v >= thr
        steps = ref.steps_of(model)
        upper = ref.window_capacity(steps, 1.0, lo, MC_N, hit)
        lower = ref.window_capacity(steps, 1.0, lo, MC_N, hit, choose=min)
        pair = ag.capacity_pair(model, event)
        c.close(pair.upper, upper, TOL, "exact upper capacity")
        c.close(pair.lower, lower, TOL, "exact lower capacity")
        se = lambda p: math.sqrt(p * (1.0 - p) / MC_REPLICATIONS)
        pts = tuple(S12.support.points)
        for key, res in out.items():
            c.expect(res.replications == MC_REPLICATIONS and res.estimate == res.accepted / MC_REPLICATIONS,
                     f"{key}: inconsistent MCResult {res}")
            c.expect(pair.lower - MC_SIGMAS * se(pair.lower) <= res.estimate
                     <= pair.upper + MC_SIGMAS * se(pair.upper),
                     f"{key}: estimate {res.estimate} outside the capacity pair {pair}")
            strat = strategies[key]
            if strat == "greedy-one-step":
                continue
            idx = [strat[1]] * MC_N if strat[0] == "constant" else strat[1]
            p = ref.forward_window_prob([(pts, S12.measures[i]) for i in idx], 1.0, lo, MC_N, hit)
            c.expect(abs(res.estimate - p) <= MC_SIGMAS * se(p),
                     f"{key}: estimate {res.estimate} vs exact probability {p!r}")
        return c.failures

    return Workload("mc-strategies", calls, warm, ("capacity.mc", "rng.draws"), check)


WORKLOADS = {"lil-windows": lil_windows, "clt-grid5": clt_grid5,
             "small-models": small_models, "mc-strategies": mc_strategies}
