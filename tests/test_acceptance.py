"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Budgets are asserted alongside the numerical
tolerances.
"""

import json
import math
import sys
import time

import numpy as np

from ambigil.bounds import converse_rate_check, verify_domination
from ambigil.capacity import bc_product_check, upper_capacity, window_max_event
from ambigil.cli import main as cli_main
from ambigil.engine import (FullVectorPayoff, TerminalSumPayoff, evaluate_lower,
                            evaluate_pair, evaluate_upper)
from ambigil.gnormal import (GNormalParams, clt_capacity, gnormal_lower_tail,
                             gnormal_upper_tail, std_normal_cdf)
from ambigil.lil import (check_conditions, cluster_probe, continuity_probe,
                         lil_lower_experiment, lil_upper_experiment)
from ambigil.model import (LatticeSupport, SequenceModel, StepAmbiguity,
                           make_rademacher_interval)

from oracles import (classical_expectation, classical_window_probability,
                     nested_supremum, random_model, table_payoff)

STEP11 = make_rademacher_interval(1, 1, 1)
STEP12 = make_rademacher_interval(1, 2, 2)
STEP13 = make_rademacher_interval(1, 3, 3)


def _report(num: int, desc: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    line = f"[criterion {num:2d}] PASS  ({elapsed:6.1f}s / budget {budget:.0f}s)  {desc}"
    print(line, file=sys.__stdout__, flush=True)
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_axiom_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    tol = 1e-12
    for _ in range(500):
        m = random_model(rng, max_n=6, max_points=3, max_measures=4)
        phi = table_payoff(rng, m)
        fphi = FullVectorPayoff(lambda xs: phi[xs])
        e_phi = evaluate_upper(m, fphi)

        # monotonicity
        psi_hi = {k: v + abs(float(rng.uniform(0, 1))) for k, v in phi.items()}
        assert e_phi <= evaluate_upper(m, FullVectorPayoff(lambda xs: psi_hi[xs])) + tol
        # constant preserving
        c0 = float(rng.uniform(-2, 2))
        assert abs(evaluate_upper(m, FullVectorPayoff(lambda xs: c0)) - c0) <= tol
        # sub-additivity
        psi = table_payoff(rng, m)
        both = {k: phi[k] + psi[k] for k in phi}
        e_psi = evaluate_upper(m, FullVectorPayoff(lambda xs: psi[xs]))
        assert evaluate_upper(m, FullVectorPayoff(lambda xs: both[xs])) <= \
            e_phi + e_psi + tol
        # positive homogeneity
        lam = float(rng.uniform(0, 3))
        scaled = {k: lam * v for k, v in phi.items()}
        assert abs(evaluate_upper(m, FullVectorPayoff(lambda xs: scaled[xs]))
                   - lam * e_phi) <= tol
        # translation
        shift = float(rng.uniform(-2, 2))
        moved = {k: v + shift for k, v in phi.items()}
        assert abs(evaluate_upper(m, FullVectorPayoff(lambda xs: moved[xs]))
                   - (e_phi + shift)) <= tol
        # conjugate ordering
        assert evaluate_lower(m, fphi) <= e_phi + tol
    _report(1, "sub-linearity axioms on 500 randomized models at 1e-12", t0, 60)


def test_criterion_02_brute_force_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for i in range(200):
        m = random_model(rng, max_n=8, max_points=3, max_measures=3)
        if i % 2 == 0:
            thr = float(rng.uniform(0.0, 2.5))
            stat = str(rng.choice(["S", "-S", "absS"]))
            payoff = window_max_event(1, m.horizon, thr, ">=", stat)
        else:
            a, b = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            payoff = TerminalSumPayoff(lambda s: a * s * s + b * s)
        dp = evaluate_upper(m, payoff)
        bf = nested_supremum(m, payoff)
        assert dp == bf, f"model {i}: DP {dp!r} != strategy tree {bf!r}"
    # larger trees: horizons 9-11 on 2-3 points, 4-point steps up to horizon
    # 7, half the models with a zero weight in every measure, each model
    # under a window event of each side and a terminal-sum payoff
    rng = np.random.default_rng(2021)
    for i, (n, npts) in enumerate([(n, k) for n in (9, 10, 11) for k in (3, 2, 3, 2)]
                                  + [(n, 4) for n in (3, 4, 5, 6, 7, 5, 6, 7, 7)]):
        delta = float(rng.choice([0.5, 1.0]))
        zero = i % 2 == 0
        if i % 3 == 0:
            m = SequenceModel.iid(_brute_force_step(rng, delta, npts, zero), n)
        else:
            counts = rng.integers(2, npts + 1, size=n)
            m = SequenceModel(n, steps=[_brute_force_step(rng, delta, int(c), zero) for c in counts])
        a, b = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        thr = delta * int(rng.integers(0, 2.0 * math.sqrt(n)))  # on the lattice
        lo, stat = int(rng.integers(1, n // 2 + 2)), str(rng.choice(["S", "-S", "absS"]))
        windows = [window_max_event(lo, n, thr, side, stat) for side in (">=", ">", "<=", "<")]
        for payoff in windows + [TerminalSumPayoff(lambda s: a * s * s + b * s)]:
            dp = evaluate_upper(m, payoff)
            bf = nested_supremum(m, payoff)
            assert dp == bf, f"large model {i}: DP {dp!r} != strategy tree {bf!r}"
    _report(2, "DP equals adapted-strategy-tree value bitwise on 221 models", t0, 120)


def _brute_force_step(rng, delta: float, npts: int, zero_weight: bool) -> StepAmbiguity:
    """A step on ``npts`` distinct points of -3..3 with 1-3 measures; with
    ``zero_weight`` each measure puts weight 0 on one point."""
    points = tuple(sorted(rng.choice(np.arange(-3, 4), size=npts, replace=False).tolist()))
    measures = []
    for _ in range(int(rng.integers(1, 4))):
        w = rng.uniform(0.05, 1.0, size=npts)
        if zero_weight:
            w[int(rng.integers(npts))] = 0.0
        measures.append(tuple(float(v) for v in w / w.sum()))
    return StepAmbiguity(LatticeSupport(delta, points), tuple(measures))


def test_criterion_03_linear_reduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(50):
        m = random_model(rng, max_n=7, single_measure=True)
        fn = lambda s: s * s - 0.25 * s + 1.0
        pair = evaluate_pair(m, TerminalSumPayoff(fn))
        ref = classical_expectation(m, fn)
        assert abs(pair.upper - ref) <= 1e-10
        assert abs(pair.lower - ref) <= 1e-10
        thr = float(rng.uniform(0.0, 2.0))
        for stat in ("S", "absS"):
            ev = window_max_event(1, m.horizon, thr, ">=", stat)
            p = classical_window_probability(m, ev)
            assert abs(upper_capacity(m, ev) - p) <= 1e-10
            assert abs(1.0 - upper_capacity(m, ev.complement()) - p) <= 1e-10
    _report(3, "single-measure models match the convolution oracle at 1e-10", t0, 120)


def test_criterion_04_gnormal_closed_forms():
    t0 = time.monotonic()
    p12 = GNormalParams(1.0, 2.0)
    assert abs(gnormal_upper_tail(p12, 0.0) - 2.0 / 3.0) <= 1e-12
    assert abs(gnormal_lower_tail(p12, 0.0) - 1.0 / 3.0) <= 1e-12
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.0) - 0.8413447461) <= 1e-10
    assert abs(std_normal_cdf(-1.96) - 0.0249978951) <= 1e-10
    for x in np.linspace(-5.0, 5.0, 100):
        lhs = gnormal_lower_tail(p12, float(x))
        rhs = 1.0 - gnormal_upper_tail(p12, -float(x))
        assert abs(lhs - rhs) <= 1e-14
    _report(4, "tail closed forms, normal-cdf pins, duality on a 100-point grid",
            t0, 30)


def test_criterion_05_clt_bridge():
    t0 = time.monotonic()
    errs = {}
    for n in (500, 2000):
        for x in (0.0, 0.5, 1.0):
            r = clt_capacity(STEP12, n, x)
            errs[(n, x)] = r.abs_error
    for x in (0.0, 0.5, 1.0):
        assert errs[(2000, x)] <= 0.02, f"x={x}: error {errs[(2000, x)]}"
        assert errs[(2000, x)] <= errs[(500, x)], f"x={x}: error not improving"
    _report(5, "CLT bridge within 0.02 at n=2000 and improving from n=500", t0, 300)


def test_criterion_06_inequality_domination():
    t0 = time.monotonic()
    report = verify_domination(1000, seed=7)
    assert report.violation_count == 0, report.violations[:5]
    assert len(report.cases) == 1000
    _report(6, "0 violations of the four maximal-sum bounds over 1000 cases", t0, 600)


def test_criterion_07_converse_rate():
    t0 = time.monotonic()
    fam = lambda n: SequenceModel.iid(STEP11, n)
    z, gamma = 0.1, 1.0
    xlog = lambda n: math.sqrt(2.0 * math.log(n))
    tab = converse_rate_check(fam, z, gamma, [256, 1024, 4096], x_fn=xlog, slack=0.1)
    rhs = -0.5 * z * z * (1.0 + gamma)
    lhss = [row.lhs for row in tab.rows]
    for lhs in lhss:
        assert lhs >= rhs - 0.1
    assert lhss[0] < lhss[1] < lhss[2]
    gaussian_rate = -0.5 * z * z
    gaps = [abs(lhs - gaussian_rate) for lhs in lhss]
    assert gaps[0] > gaps[1] > gaps[2]
    assert not tab.violation
    _report(7, "converse-rate rows above target minus slack, rising toward -z^2/2",
            t0, 120)


def test_criterion_08_bc_factorization():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    for _ in range(100):
        m = random_model(rng, max_n=10, max_points=4, max_measures=4)
        ths = [float(rng.uniform(-2.0, 2.0)) for _ in range(m.horizon)]
        rep = bc_product_check(m, ths)
        assert abs(rep.intersection_lower - rep.product_bound) <= 1e-12
    probe = continuity_probe(STEP12, lambda v: v * v, 3, 0.5)
    assert (probe.high_event_upper, probe.low_event_upper,
            probe.high_event_lower, probe.low_event_lower) == (1.0, 1.0, 0.0, 0.0)
    _report(8, "product factorization at 1e-12 over 100 families; probe fixture exact",
            t0, 120)


def test_criterion_09_lil_trend_suite():
    t0 = time.monotonic()
    m11 = SequenceModel.iid(STEP11, 4096)

    lower_vals = [lil_lower_experiment(m11, 64, N, 0.5)
                  for N in (64, 128, 256, 512, 1024, 2048, 4096)]
    assert all(b >= a for a, b in zip(lower_vals, lower_vals[1:])), lower_vals

    for (n, N) in ((64, 512), (128, 1024), (256, 2048), (256, 4096)):
        r = lil_upper_experiment(m11, n, N, 1.0)
        assert r.capacity <= r.bound_crosscheck + 1e-12, (n, N, r)

    sigma_hi = 2.0
    for N in (256, 1024, 4096):
        rows = cluster_probe(STEP12, N, [0.5 * sigma_hi, 1.5 * sigma_hi])
        assert rows[1].upper <= rows[0].upper + 1e-12, (N, rows)
    _report(9, "window monotonicity, blocked-bound domination, threshold ordering",
            t0, 900)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    model_path = tmp_path / "m.json"
    SequenceModel.iid(STEP12, 64).save(model_path)

    cap_cfg = tmp_path / "cap.json"
    cap_cfg.write_text(json.dumps({
        "model": str(model_path),
        "event": {"window": {"n": 1, "N": 64}, "stat": "absS",
                  "threshold": {"kind": "d_n", "scale": 1.0}}}))
    bv_cfg = tmp_path / "bv.json"
    bv_cfg.write_text(json.dumps({"cases": 30, "seed": 5}))
    mc_cfg = tmp_path / "mc.json"
    mc_cfg.write_text(json.dumps({
        "model": str(model_path), "kind": "mc", "seed": 11,
        "event": {"window": {"n": 1, "N": 64}, "threshold": {"kind": "const", "c": 6.0}},
        "replications": 2000}))

    runs = (("capacity", cap_cfg), ("bounds-verify", bv_cfg), ("probe", mc_cfg))
    for command, cfg in runs:
        blobs = []
        for i in range(2):
            out = tmp_path / f"{command}-{i}"
            rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            blobs.append((out / "result.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{command}: CSVs differ across reruns"
    _report(10, "byte-identical CSVs under repeated seeds", t0, 300)


def test_criterion_11_non_identical_steps():
    """Criterion 9's exact self-checks, and the condition verdicts, on
    schedules of steps that are not identically distributed: S12/S13
    alternating, a widening 512 x S11, 1024 x S12, 2560 x S13, and S12
    alternating with a step whose mean ranges over [-1/4, 1/4]."""
    t0 = time.monotonic()
    drift = StepAmbiguity(LatticeSupport(1.0, (-2, -1, 1, 2)),
                          ((0.0, 0.5, 0.5, 0.0), (0.125, 0.25, 0.5, 0.125),
                           (0.125, 0.5, 0.25, 0.125)))
    assert drift.expectation_interval(lambda v: v) == (-0.25, 0.25)
    schedules = {
        "alternating": SequenceModel(4096, steps=[STEP12, STEP13] * 2048),
        "widening": SequenceModel(4096, steps=[STEP11] * 512 + [STEP12] * 1024 + [STEP13] * 2560),
        "drifting": SequenceModel(4096, steps=[STEP12, drift] * 2048),
    }
    for name, m in schedules.items():
        lower_vals = [lil_lower_experiment(m, 64, N, 0.5) for N in (1024, 2048, 4096)]
        assert all(b >= a for a, b in zip(lower_vals, lower_vals[1:])), (name, lower_vals)
        for (n, N) in ((256, 2048), (256, 4096)):
            r = lil_upper_experiment(m, n, N, 1.0)
            assert r.capacity <= r.bound_crosscheck + 1e-12, (name, n, N, r)

        rep = check_conditions(m, [256, 512, 1024, 2048, 4096])
        verdicts = {r.id: r.verdict for r in rep.records}
        for rec_id in ("tail-sum", "capped-overshoot", "overshoot", "boundedness-ratio"):
            assert verdicts[rec_id] == "convergent-trend", (name, verdicts)
        # the summed mean bounds grow like n on the drifting schedule, faster than a_n
        want = "divergent-trend" if name == "drifting" else "convergent-trend"
        assert verdicts["mean-ratio"] == want, (name, verdicts)
        assert rep.termwise_checked > 0 and rep.termwise_violations == (), (name, rep)
        assert rep.growth_check["variance_series_growing"], name

    # the three centerings differ where the mean bounds do: a higher
    # center is a higher threshold, and each capacity stays below its bound
    drifting = schedules["drifting"]
    caps = []
    for center in ("upper-mean", "none", "lower-mean"):
        r = lil_upper_experiment(drifting, 64, 1024, 0.5, center=center)
        assert r.capacity <= r.bound_crosscheck + 1e-12, (center, r)
        caps.append(r.capacity)
    assert caps[0] < caps[1] < caps[2], caps
    _report(11, "window monotonicity, blocked-bound domination and verdicts on schedules",
            t0, 120)
