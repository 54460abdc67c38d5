import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigil.engine import (BreveResult, ExpectationPair, FullVectorPayoff,
                            StateSpaceError, TerminalSumPayoff, WindowEvent,
                            breve_expectation, evaluate_lower, evaluate_pair,
                            evaluate_upper, sum_lower_mean, sum_upper_mean)
from ambigil.model import (LatticeSupport, SequenceModel, StepAmbiguity,
                           make_rademacher_interval)

from oracles import (classical_expectation, enumerate_adapted_value,
                     nested_supremum, random_model, table_payoff)

STEP12 = make_rademacher_interval(1, 2, 2)


def table_fn(table):
    return FullVectorPayoff(lambda xs: table[xs])


def test_single_step_examples():
    m = SequenceModel.iid(STEP12, 1)
    sq = TerminalSumPayoff(lambda s: s * s)
    assert evaluate_upper(m, sq) == 4.0
    assert evaluate_lower(m, sq) == 1.0
    assert evaluate_lower(m, TerminalSumPayoff(lambda s: s)) == 0.0


def test_two_step_example():
    m = SequenceModel.iid(STEP12, 2)
    pair = evaluate_pair(m, TerminalSumPayoff(lambda s: s * s))
    assert pair.lower == 2.0
    assert pair.upper == 8.0


def test_two_step_matches_literal_strategy_enumeration():
    m = SequenceModel.iid(STEP12, 2)
    sq = TerminalSumPayoff(lambda s: s * s)
    assert evaluate_upper(m, sq) == enumerate_adapted_value(m, sq)
    neg = TerminalSumPayoff(lambda s: -(s * s))
    assert evaluate_lower(m, sq) == -enumerate_adapted_value(m, neg)


def test_constant_preserving():
    rng = np.random.default_rng(0)
    m = random_model(rng, max_n=4)
    const = TerminalSumPayoff(lambda s: 5.0)
    assert evaluate_pair(m, const) == ExpectationPair(5.0, 5.0)


def test_pair_validation():
    with pytest.raises(ValueError):
        ExpectationPair(lower=1.0, upper=0.0)
    with pytest.raises(ValueError):
        ExpectationPair(lower=math.nan, upper=0.0)
    with pytest.raises(ValueError):
        ExpectationPair(lower=0.0, upper=math.nan)


def test_nan_payoff_rejected():
    m = SequenceModel.iid(STEP12, 4)
    tp = TerminalSumPayoff(lambda s: math.nan if s > 3 else 0.0)
    for method in ("lattice", "generic"):
        with pytest.raises(ValueError):
            evaluate_upper(m, tp, method=method)
    with pytest.raises(ValueError):
        evaluate_pair(m, tp)


def test_infinite_payoff_rejected():
    step = StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((1.0, 0.0), (0.5, 0.5)))
    m = SequenceModel.iid(step, 2)
    tp = TerminalSumPayoff(lambda s: math.inf if s > 1 else 0.0)
    for method in ("lattice", "generic"):
        with pytest.raises(ValueError):
            evaluate_upper(m, tp, method=method)
    with pytest.raises(ValueError):
        evaluate_upper(m, FullVectorPayoff(lambda xs: -math.inf if xs == (1.0, -1.0) else 1.0))


def test_unreachable_terminal_sum_is_not_evaluated():
    # i.i.d. ±1 steps: the terminal sums of horizon 2 are -2, 0 and 2, never 1
    m = SequenceModel.iid(StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.5, 0.5),)), 2)
    tp = TerminalSumPayoff(lambda s: math.inf if s == 1.0 else 0.0)
    for method in ("lattice", "generic"):
        assert evaluate_upper(m, tp, method=method) == 0.0
        assert evaluate_lower(m, tp, method=method) == 0.0
    # horizon 1 never reaches the sum 0, where 1/s would divide by zero
    m1 = SequenceModel.iid(m.step(1), 1)
    recip = TerminalSumPayoff(lambda s: 1.0 / s)
    assert [evaluate_upper(m1, recip, method=x) for x in ("lattice", "generic")] == [0.0, 0.0]


def test_arithmetic_error_in_payoff_is_value_error():
    m = SequenceModel.iid(StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.5, 0.5),)), 2)
    for fn in (lambda s: s ** -1, lambda s: 1.0 / s, lambda s: math.exp(1000.0 + s)):
        for method in ("lattice", "generic"):
            with pytest.raises(ValueError):
                evaluate_upper(m, TerminalSumPayoff(fn), method=method)
            with pytest.raises(ValueError):
                evaluate_lower(m, TerminalSumPayoff(fn), method=method)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_non_finite_reachable_payoff_raises_on_both_paths(data):
    n = data.draw(st.integers(1, 5))
    delta = data.draw(st.sampled_from([0.5, 1.0]))
    steps = []
    for _ in range(n):
        pts = tuple(sorted(data.draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))))
        measures = []
        for _ in range(data.draw(st.integers(1, 3))):
            w = data.draw(st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts))
                          .filter(lambda w: sum(w) > 0))
            measures.append(tuple(x / sum(w) for x in w))
        steps.append(StepAmbiguity(LatticeSupport(delta, pts), tuple(measures)))
    m = SequenceModel(n, steps=steps)
    # a reachable terminal sum: one support point per step, probability 0 allowed
    target = delta * sum(data.draw(st.sampled_from(s.support.points)) for s in steps)
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    tp = TerminalSumPayoff(lambda s: bad if s == target else 1.0)
    for method in ("lattice", "generic"):
        with pytest.raises(ValueError):
            evaluate_upper(m, tp, method=method)
        with pytest.raises(ValueError):
            evaluate_lower(m, tp, method=method)


def test_sublinearity_axioms_sample():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m = random_model(rng, max_n=5, max_points=3, max_measures=3)
        phi = table_payoff(rng, m)
        psi_hi = {k: v + abs(float(rng.uniform(0, 1))) for k, v in phi.items()}
        e_phi = evaluate_upper(m, table_fn(phi))
        # monotonicity
        assert e_phi <= evaluate_upper(m, table_fn(psi_hi)) + 1e-12
        # sub-additivity
        psi = table_payoff(rng, m)
        both = {k: phi[k] + psi[k] for k in phi}
        assert evaluate_upper(m, table_fn(both)) <= \
            e_phi + evaluate_upper(m, table_fn(psi)) + 1e-12
        # positive homogeneity
        lam = float(rng.uniform(0, 3))
        scaled = {k: lam * v for k, v in phi.items()}
        assert abs(evaluate_upper(m, table_fn(scaled)) - lam * e_phi) <= 1e-12
        # translation
        c = float(rng.uniform(-2, 2))
        shifted = {k: v + c for k, v in phi.items()}
        assert abs(evaluate_upper(m, table_fn(shifted)) - (e_phi + c)) <= 1e-12
        # conjugate ordering
        assert evaluate_lower(m, table_fn(phi)) <= e_phi + 1e-12


def test_independence_additivity():
    rng = np.random.default_rng(3)
    ident = TerminalSumPayoff(lambda s: s)
    for _ in range(25):
        m = random_model(rng, max_n=6)
        up = evaluate_upper(m, ident)
        lo = evaluate_lower(m, ident)
        assert abs(up - sum_upper_mean(m, m.horizon)) <= 1e-10
        assert abs(lo - sum_lower_mean(m, m.horizon)) <= 1e-10


def test_linear_reduction_matches_convolution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_model(rng, max_n=6, single_measure=True)
        fn = lambda s: s * s - 0.5 * s
        pair = evaluate_pair(m, TerminalSumPayoff(fn))
        classical = classical_expectation(m, fn)
        assert abs(pair.upper - classical) <= 1e-10
        assert abs(pair.lower - classical) <= 1e-10


def test_reference_mode_agreement_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = random_model(rng, max_n=6, max_points=3, max_measures=3)
        phi = table_fn(table_payoff(rng, m))
        assert evaluate_upper(m, phi) == nested_supremum(m, phi)


def test_lattice_generic_paths_agree_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = random_model(rng, max_n=6)
        thr = float(rng.uniform(0, 3))
        ev = WindowEvent(lo=1, hi=m.horizon, threshold=lambda k: thr, side="ge", stat="absS")
        assert evaluate_upper(m, ev, method="lattice") == \
            evaluate_upper(m, ev, method="generic")
        tp = TerminalSumPayoff(lambda s: abs(s) ** 1.5)
        assert evaluate_upper(m, tp, method="lattice") == \
            evaluate_upper(m, tp, method="generic")
    # longer horizons, windows that may end before the horizon
    for _ in range(30):
        m = random_model(rng, max_n=40)
        hi = int(rng.integers(1, m.horizon + 1))
        lo = int(rng.integers(1, hi + 1))
        thr = float(rng.uniform(-4, 4))
        stat = str(rng.choice(["S", "-S", "absS"]))
        ev = WindowEvent(lo=lo, hi=hi, threshold=lambda k: thr, side="gt", stat=stat)
        for payoff in (ev, ev.complement().negate(),
                       TerminalSumPayoff(lambda s: s * s - thr * s)):
            assert evaluate_upper(m, payoff, method="lattice") == \
                evaluate_upper(m, payoff, method="generic")


def test_all_stat_side_combinations_agree():
    rng = np.random.default_rng(13)
    for stat in ("S", "-S", "absS"):
        for side in ("ge", "gt", "le", "lt"):
            m = random_model(rng, max_n=5)
            lo = 1 + int(rng.integers(0, m.horizon))
            thr = float(rng.uniform(-1.5, 1.5))
            ev = WindowEvent(lo=lo, hi=m.horizon, threshold=lambda k: thr,
                             side=side, stat=stat)
            lat = evaluate_upper(m, ev, method="lattice")
            gen = evaluate_upper(m, ev, method="generic")
            bf = nested_supremum(m, ev)
            assert lat == gen == bf, (stat, side, lat, gen, bf)
            assert 0.0 <= lat <= 1.0


def test_state_cap():
    m = SequenceModel.iid(STEP12, 64)
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, TerminalSumPayoff(lambda s: s), state_cap=100)
    assert "100" in str(ei.value)
    with pytest.raises(StateSpaceError):
        evaluate_upper(m, FullVectorPayoff(lambda xs: 0.0), state_cap=1000)


def test_state_cap_counts_held_states():
    # two rows of the widest reachable layer, 2 * (4 * 512 + 1), not all layers
    m = SequenceModel.iid(STEP12, 512)
    ev = WindowEvent(lo=1, hi=512, threshold=lambda k: 40.0)
    assert 0.0 < evaluate_upper(m, ev, state_cap=10_000) < 1.0
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, ev, state_cap=4097)
    assert ei.value.estimate == 4098
    # layers after the window's end are held one column wide
    early = WindowEvent(lo=1, hi=128, threshold=lambda k: 20.0)
    assert 0.0 < evaluate_upper(m, early, state_cap=1026) < 1.0
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, early, state_cap=1025)
    assert ei.value.estimate == 1026


def test_method_dispatch():
    m = SequenceModel.iid(STEP12, 3)
    with pytest.raises(ValueError):
        evaluate_upper(m, FullVectorPayoff(lambda xs: 0.0), method="lattice")
    with pytest.raises(ValueError):
        evaluate_upper(m, TerminalSumPayoff(lambda s: s), method="sideways")


def test_lower_of_event_matches_complement_route():
    m = SequenceModel.iid(STEP12, 4)
    ev = WindowEvent(lo=1, hi=4, threshold=lambda k: 2.0, side="ge", stat="S")
    via_negation = evaluate_lower(m, ev)
    via_complement = 1.0 - evaluate_upper(m, ev.complement())
    assert abs(via_negation - via_complement) <= 1e-14


def test_window_event_validation():
    with pytest.raises(ValueError):
        WindowEvent(lo=0, hi=2, threshold=lambda m: 0.0)
    with pytest.raises(ValueError):
        WindowEvent(lo=3, hi=2, threshold=lambda m: 0.0)
    with pytest.raises(ValueError):
        WindowEvent(lo=1, hi=2, threshold=lambda m: 0.0, side="==")
    ev = WindowEvent(lo=1, hi=8, threshold=lambda m: 0.0)
    with pytest.raises(ValueError):
        ev.bind(SequenceModel.iid(STEP12, 4))


def test_window_event_values():
    ev = WindowEvent(lo=1, hi=2, threshold=lambda m: 0.0)
    assert ev.values == (0.0, 1.0)
    assert ev.complement().values == (1.0, 0.0)
    neg = ev.negate().values
    assert neg == (-0.0, -1.0) and math.copysign(1.0, neg[0]) == -1.0
    assert ev.negate().complement().values == ev.complement().negate().values == (-1.0, -0.0)
    assert ev.terminal((0, 5)) == 0.0 and ev.terminal((1, 5)) == 1.0
    for bad in ((0.0,), (0.0, 1.0, 2.0), (0, 1), [0.0, 1.0], (0.0, math.nan),
                (math.inf, 1.0), ("0", 1.0), None):
        with pytest.raises(ValueError):
            WindowEvent(lo=1, hi=2, threshold=lambda m: 0.0, values=bad)


def test_breve_symmetric_payoff():
    r = breve_expectation(STEP12, lambda x: x, (1.0, 2.0, 4.0))
    assert r.values == (0.0, 0.0, 0.0)
    assert r.value == 0.0
    assert r.stabilized and r.stabilized_at == 0


def test_breve_square_payoff():
    r = breve_expectation(STEP12, lambda x: x * x, (1.0, 2.0, 4.0, 8.0))
    assert r.values == (1.0, 2.0, 4.0, 4.0)
    assert r.value == 4.0
    assert r.stabilized_at == 2


def test_breve_unstabilized():
    r = breve_expectation(STEP12, lambda x: x * x, (1.0,))
    assert r.values == (1.0,)
    assert not r.stabilized and r.stabilized_at is None
    with pytest.raises(ValueError):
        breve_expectation(STEP12, lambda x: x, (2.0, 1.0))


def test_breve_result_type():
    r = breve_expectation(STEP12, lambda x: x, (1.0,))
    assert isinstance(r, BreveResult)
