import math

import numpy as np
import pytest

from ambigil.capacity import (BCProductReport, CapacityPair, OutcomeFlagEvent,
                              bc_product_check, capacity_pair, choquet_integral,
                              event_from_config, lower_capacity,
                              mc_capacity_lower_bound, upper_capacity,
                              window_max_event)
from ambigil.engine import Automaton, TerminalSumPayoff, evaluate_upper
from ambigil.lil import continuity_probe
from ambigil.model import (LatticeSupport, SequenceModel, StepAmbiguity,
                           make_rademacher_interval)
from ambigil.rng import SplitMix64

from oracles import (JoinedEvent, classical_window_probability, mc_reference,
                     nested_supremum, random_model)

STEP12 = make_rademacher_interval(1, 2, 2)


def test_single_coordinate_event():
    m = SequenceModel.iid(STEP12, 1)
    ev = window_max_event(1, 1, 1.0, ">=", "S")
    assert upper_capacity(m, ev) == 0.5


def test_s2_event_pair():
    m = SequenceModel.iid(STEP12, 2)
    ev = window_max_event(2, 2, 3.0, ">=", "S")
    assert upper_capacity(m, ev) == 0.25
    assert lower_capacity(m, ev) == 0.0
    pair = capacity_pair(m, ev)
    assert pair == CapacityPair(0.0, 0.25)


def test_whole_space_and_impossible():
    m = SequenceModel.iid(STEP12, 3)
    sure = window_max_event(1, 3, -math.inf, ">=", "S")
    assert upper_capacity(m, sure) == 1.0
    assert lower_capacity(m, sure) == 1.0
    never = window_max_event(1, 3, lambda k: math.inf, ">=", "S")
    assert upper_capacity(m, never) == 0.0


def test_nan_threshold_rejected():
    m = SequenceModel.iid(STEP12, 8)
    with pytest.raises(ValueError):
        window_max_event(1, 8, math.nan)
    ev = window_max_event(1, 8, lambda k: math.nan if k == 5 else 1.0)
    for method in ("lattice", "generic"):
        with pytest.raises(ValueError):
            capacity_pair(m, ev, method=method)


def test_window_equals_terminal_when_unreachable_early():
    # S_1 <= 2 < 3, so {max(S_1, S_2) >= 3} is exactly {S_2 >= 3}
    m = SequenceModel.iid(STEP12, 2)
    assert upper_capacity(m, window_max_event(1, 2, 3.0, ">=", "S")) == 0.25


def test_single_measure_equals_classical():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = random_model(rng, max_n=6, single_measure=True)
        thr = float(rng.uniform(0, 2))
        ev = window_max_event(1, m.horizon, thr, ">=", "absS")
        p = classical_window_probability(m, ev)
        assert abs(upper_capacity(m, ev) - p) <= 1e-10
        assert abs(lower_capacity(m, ev) - p) <= 1e-10


def test_monotonicity_in_window_and_threshold():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_model(rng, max_n=6)
        t = float(rng.uniform(0.2, 2.0))
        small = window_max_event(1, max(1, m.horizon - 1), t, ">=", "S")
        big = window_max_event(1, m.horizon, t, ">=", "S")
        assert upper_capacity(m, small) <= upper_capacity(m, big) + 1e-12
        assert lower_capacity(m, small) <= lower_capacity(m, big) + 1e-12
        higher = window_max_event(1, m.horizon, t + 0.5, ">=", "S")
        assert upper_capacity(m, higher) <= upper_capacity(m, big) + 1e-12


def _check_mean_events(step, n, eps):
    """continuity_probe's two mean events, rebuilt as automata, against the oracle."""
    phi = lambda v: v * v
    model = SequenceModel.iid(step, n)
    lo, hi = step.expectation_interval(phi)
    add = lambda s, k, point, value: s + phi(value)
    high = Automaton(0.0, add, lambda s: 1.0 if s / n >= hi - eps else 0.0)
    low = Automaton(0.0, add, lambda s: 1.0 if s / n <= lo + eps else 0.0)
    for p in (high, low, high.complement(), low.complement()):
        assert evaluate_upper(model, p) == nested_supremum(model, p)
    r = continuity_probe(step, phi, n, eps)
    assert r.high_event_upper == nested_supremum(model, high)
    assert r.low_event_upper == nested_supremum(model, low)
    assert r.high_event_lower == 1.0 - nested_supremum(model, high.complement())
    assert r.low_event_lower == 1.0 - nested_supremum(model, low.complement())


def test_automaton_events_match_nested_supremum():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = random_model(rng, max_n=5, max_points=3, max_measures=3)
        thr = [float(rng.uniform(-1.5, 1.5)) for _ in range(m.horizon)]
        ev = OutcomeFlagEvent(lambda k, v, thr=thr: v >= thr[k - 1])
        for p in (ev, ev.complement(), ev.negate(), ev.complement().negate()):
            assert evaluate_upper(m, p) == nested_supremum(m, p)
        _check_mean_events(m.step(1), m.horizon, float(rng.uniform(0.0, 1.0)))
    # dyadic laws: some means sit exactly on both thresholds
    step = StepAmbiguity(LatticeSupport(1.0, (-1, 0, 1)), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5)))
    for n in (1, 2, 3):
        _check_mean_events(step, n, 0.5)


def test_subadditivity_of_capacities():
    rng = np.random.default_rng(17)
    for _ in range(12):
        m = random_model(rng, max_n=5)
        a = window_max_event(1, m.horizon, float(rng.uniform(0, 2)), ">=", "S")
        b = window_max_event(1, m.horizon, float(rng.uniform(0, 2)), ">=", "-S")
        union = JoinedEvent(a, b, "or")
        va, vb = upper_capacity(m, a), upper_capacity(m, b)
        vu = upper_capacity(m, union, method="generic")
        assert vu <= va + vb + 1e-12
        # lower(A u B) <= lower(A) + upper(B)
        lu = lower_capacity(m, union, method="generic")
        assert lu <= lower_capacity(m, a) + vb + 1e-12


def test_sandwich_with_ramps():
    rng = np.random.default_rng(30)
    for _ in range(12):
        m = random_model(rng, max_n=5)
        thr = float(rng.uniform(-1, 2))
        h = float(rng.uniform(0.1, 1.0))
        ev = window_max_event(m.horizon, m.horizon, thr, ">=", "S")
        cap = upper_capacity(m, ev)

        def upper_ramp(s):
            return 1.0 if s >= thr else max(0.0, 1.0 - (thr - s) / h)

        def lower_ramp(s):
            return 1.0 if s >= thr + h else max(0.0, (s - thr) / h)

        lo = evaluate_upper(m, TerminalSumPayoff(lower_ramp))
        hi = evaluate_upper(m, TerminalSumPayoff(upper_ramp))
        assert lo - 1e-12 <= cap <= hi + 1e-12


def test_bc_product_examples():
    m = SequenceModel.iid(STEP12, 3)
    rep = bc_product_check(m, [2.0, 2.0, 2.0])
    assert isinstance(rep, BCProductReport)
    assert rep.intersection_lower == 0.125
    assert rep.product_bound == 0.125
    assert rep.union_upper == 0.875
    # empty events
    rep0 = bc_product_check(m, [math.inf] * 3)
    assert (rep0.intersection_lower, rep0.product_bound, rep0.union_upper) == (1.0, 1.0, 0.0)


def test_bc_factorization_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = random_model(rng, max_n=6)
        ths = [float(rng.uniform(-2, 2)) for _ in range(m.horizon)]
        rep = bc_product_check(m, ths)
        assert abs(rep.intersection_lower - rep.product_bound) <= 1e-12
        assert abs(rep.union_upper - (1.0 - rep.product_bound)) <= 1e-12


def test_bc_classical_matches_oracle():
    rng = np.random.default_rng(14)
    m = random_model(rng, max_n=5, single_measure=True)
    ths = [0.5] * m.horizon
    rep = bc_product_check(m, ths)
    ev = OutcomeFlagEvent(lambda k, v: v >= 0.5)
    p = classical_window_probability(m, ev)
    assert abs(rep.union_upper - p) <= 1e-10


def test_bc_validation():
    m = SequenceModel.iid(STEP12, 2)
    with pytest.raises(ValueError):
        bc_product_check(m, [])
    with pytest.raises(ValueError):
        bc_product_check(m, [1.0] * 3)
    with pytest.raises(ValueError):
        bc_product_check(m, [1.0], side="!!")


def test_choquet_examples():
    assert choquet_integral(lambda t: 0.7, 0, 1, atoms=[0, 1]) == 0.7

    def tail(t):
        return 1.0 if t <= 0 else 0.6

    assert choquet_integral(tail, -1, 1, atoms=[-1, 1]) == 0.6
    assert choquet_integral(lambda t: 1.0, 0, 0.75, atoms=[0.75]) == 0.75


def test_choquet_monotonicity_error():
    with pytest.raises(ValueError):
        choquet_integral(lambda t: t, 0, 1, atoms=[0.25, 0.75])
    with pytest.raises(ValueError):
        choquet_integral(lambda t: t, 0.0, 1.0, quadrature_step=0.1)


def test_choquet_trapezoid_close_to_exact():
    def tail(t):
        return 1.0 if t <= 0.0 else (0.6 if t <= 1.0 else 0.0)

    exact = choquet_integral(tail, -2, 2, atoms=[0, 1])
    approx = choquet_integral(tail, -2.0, 2.0, quadrature_step=1e-4)
    assert abs(exact - approx) <= 1e-3


def test_choquet_dominates_upper_expectation():
    rng = np.random.default_rng(23)
    for _ in range(8):
        m = random_model(rng, max_n=4)
        lo, hi, _ = _sum_stats(m)
        atoms = sorted({m.delta * s for s in range(lo, hi + 1)})
        caps = {a: upper_capacity(m, window_max_event(m.horizon, m.horizon, a, ">=", "S"))
                for a in atoms}

        def tail(t):
            return caps[t]

        cv = choquet_integral(tail, min(atoms), max(atoms), atoms=atoms)
        e_up = evaluate_upper(m, TerminalSumPayoff(lambda s: s))
        assert e_up <= cv + 1e-10


def _sum_stats(m):
    lo = hi = 0
    cl = ch = 0
    for s in m.steps():
        cl += s.support.points[0]
        ch += s.support.points[-1]
        lo, hi = min(lo, cl), max(hi, ch)
    return lo, hi, None


def test_mc_examples():
    m2 = SequenceModel.iid(STEP12, 2)
    ev = window_max_event(2, 2, 3.0, ">=", "S")
    r = mc_capacity_lower_bound(m2, ev, ("constant", 1), 100000, seed=42)
    assert abs(r.estimate - 0.25) <= 0.005
    assert r.estimate <= 0.25 + 3 * r.std_error

    sure = window_max_event(1, 2, -math.inf, ">=", "S")
    rs = mc_capacity_lower_bound(m2, sure, ("constant", 0), 1000, seed=1)
    assert rs.estimate == 1.0

    m1 = SequenceModel.iid(make_rademacher_interval(1, 1, 1), 1)
    ev1 = window_max_event(1, 1, 1.0, ">=", "S")
    rc = mc_capacity_lower_bound(m1, ev1, ("constant", 0), 100000, seed=5)
    assert abs(rc.estimate - 0.5) <= 0.005


def test_mc_determinism_and_validation():
    m2 = SequenceModel.iid(STEP12, 2)
    ev = window_max_event(2, 2, 3.0, ">=", "S")
    a = mc_capacity_lower_bound(m2, ev, ("constant", 1), 5000, seed=9)
    b = mc_capacity_lower_bound(m2, ev, ("constant", 1), 5000, seed=9)
    assert a.estimate == b.estimate
    g = mc_capacity_lower_bound(m2, ev, "greedy-one-step", 5000, seed=9)
    assert g.estimate <= 0.25 + 3 * g.std_error
    s = mc_capacity_lower_bound(m2, ev, ("schedule", [1, 0]), 5000, seed=9)
    assert 0.0 <= s.estimate <= 1.0
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, "annealed", 5000, seed=9)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, ("constant", 5), 5000, seed=9)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, ("constant", 0), 99, seed=9)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, ("schedule", [0]), 5000, seed=9)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, ("constant", -1), 5000, seed=9)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, ev, ("schedule", [0, -1]), 5000, seed=9)


def _mc_cases(n, seed):
    """Random (model, window event, strategy, replications, seed) tuples."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = random_model(rng, max_n=8, max_points=4, max_measures=4)
        hi = int(rng.integers(1, m.horizon + 1))
        lo = int(rng.integers(1, hi + 1))
        c = float(rng.uniform(-1.5, 1.5)) * math.sqrt(hi) * m.delta
        thr = c if i % 2 else (lambda c, d: lambda k: c + 0.25 * d * k)(c, m.delta)
        ev = window_max_event(lo, hi, thr, str(rng.choice(["ge", "gt", "le", "lt"])),
                              str(rng.choice(["S", "-S", "absS"])))
        if i % 3 == 1:
            ev = ev.complement()
        elif i % 11 == 5:
            ev = ev.complement().negate()
        kind = i % 3
        if kind == 0:
            strat = ("constant", int(rng.integers(min(s.n_measures for s in m.steps()))))
        elif kind == 1:
            strat = ("schedule", [int(rng.integers(s.n_measures)) for s in m.steps()])
        else:
            strat = "greedy-one-step"
        reps = int(rng.choice([100, 257, 1000], p=[0.45, 0.45, 0.1]))
        yield m, ev, strat, reps, int(rng.integers(2 ** 63))


def test_mc_matches_scalar_reference():
    nontrivial = 0
    for m, ev, strat, reps, seed in _mc_cases(240, 17):
        got = mc_capacity_lower_bound(m, ev, strat, reps, seed)
        assert got == mc_reference(m, ev, strat, reps, seed), (m.horizon, strat, reps)
        nontrivial += 0 < got.accepted < reps
    assert nontrivial >= 120


def test_mc_draws_one_uniform_per_step(monkeypatch):
    calls = []
    draw = SplitMix64.next_u64

    def counted(stream):
        calls.append(1)
        return draw(stream)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    m = SequenceModel.iid(STEP12, 7)
    ev = window_max_event(2, 5, 3.0)
    for strat in (("constant", 1), ("schedule", [0, 1] * 3 + [0]), "greedy-one-step"):
        calls.clear()
        mc_capacity_lower_bound(m, ev, strat, 123, seed=4)
        assert len(calls) == 123 * 7


def test_mc_rejects_non_window_event():
    m2 = SequenceModel.iid(STEP12, 2)
    with pytest.raises(ValueError):
        mc_capacity_lower_bound(m2, OutcomeFlagEvent(lambda k, v: v >= 2.0),
                                ("constant", 0), 100, seed=1)


def test_capacity_pair_tolerates_long_horizon_drift():
    from ambigil.model import LatticeSupport, StepAmbiguity

    eps = 4.9e-13  # per-step measure sum at the validation edge
    step = StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.5 + eps, 0.5 + eps),))
    m = SequenceModel.iid(step, 2000)
    pair = capacity_pair(m, window_max_event(1, 2000, 10.0, ">=", "absS"))
    assert abs(pair.upper - 1.0) <= 1e-8
    with pytest.raises(ValueError):
        CapacityPair(0.5, 0.4)


def test_event_grammar():
    m = SequenceModel.iid(STEP12, 8)
    ev = event_from_config({"window": {"n": 1, "N": 8}, "stat": "S",
                            "threshold": {"kind": "const", "c": 3.0}}, m)
    assert upper_capacity(m, ev) == upper_capacity(m, window_max_event(1, 8, 3.0))
    ev_d = event_from_config({"window": {"n": 1, "N": 8}, "stat": "absS",
                              "side": ">",
                              "threshold": {"kind": "d_n", "scale": 0.5}}, m)
    assert 0.0 <= upper_capacity(m, ev_d) <= 1.0
    ev_a = event_from_config({"window": {"n": 2, "N": 8}, "stat": "S",
                              "threshold": {"kind": "a_n", "scale": 1.0}}, m)
    assert 0.0 <= upper_capacity(m, ev_a) <= 1.0
    with pytest.raises(ValueError):
        event_from_config({"stat": "S"}, m)
    with pytest.raises(ValueError):
        event_from_config({"window": {"n": 1, "N": 2},
                           "threshold": {"kind": "b_n"}}, m)
    with pytest.raises(ValueError):
        event_from_config({"window": {"n": 1, "N": 2},
                           "threshold": {"kind": "a_n"}}, None)
