import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambigil.engine import (ExpectationPair, FullVectorPayoff, StateSpaceError,
                            TerminalSumPayoff, WindowEvent, _fired_edges,
                            evaluate_lower, evaluate_pair, evaluate_upper,
                            sum_lower_mean, sum_upper_mean)
from ambigil.gnormal import clt_capacity
from ambigil.lil import cluster_probe, lil_lower_experiment
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


def test_non_real_payoff_value_is_value_error():
    """A payoff value that is not a real number (``None``, a complex power
    of a negative sum) is a ``ValueError`` on both paths, never a
    ``TypeError``."""
    m = SequenceModel.iid(STEP12, 2)
    for fn in (lambda s: None, lambda s: s ** 0.5):
        for method in ("lattice", "generic"):
            with pytest.raises(ValueError, match="TypeError"):
                evaluate_upper(m, TerminalSumPayoff(fn), method=method)


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


def test_sum_means_check_the_step_count():
    step = StepAmbiguity(LatticeSupport(1.0, (0, 1)), ((0.5, 0.5), (0.25, 0.75)))
    m = SequenceModel.iid(step, 4)
    for f, per_step in ((sum_upper_mean, 0.75), (sum_lower_mean, 0.5)):
        assert f(m, 0) == 0.0
        assert f(m, 2) == f(m, 2.0) == 2 * per_step
        assert f(m, 4) == 4 * per_step
        for bad in (-3, 5, 2.5, True, "2", None):
            with pytest.raises(ValueError, match="step count"):
                f(m, bad)


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


def _sparse_step(rng, delta):
    """A step whose measures put weight 0.0 on about 40% of the support
    points (never on all of them), and a weight below 1e-3 on a few."""
    npts = int(rng.integers(2, 6))
    points = tuple(sorted(rng.choice(np.arange(-4, 5), size=npts, replace=False).tolist()))
    measures = []
    for _ in range(int(rng.integers(1, 5))):
        raw = rng.uniform(0.05, 1.0, size=npts)
        raw[rng.random(npts) < 0.15] *= 1e-3
        raw[rng.random(npts) < 0.4] = 0.0
        if not raw.any():
            raw[rng.integers(npts)] = 1.0
        measures.append(tuple(float(v) for v in raw / raw.sum()))
    return StepAmbiguity(LatticeSupport(delta, points), tuple(measures))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_zero_weight_lattice_matches_generic_bits():
    """Zero weights, signed-zero rows and the variance-uncertain steps: the
    lattice path gives the generic path's IEEE bits, sign included."""
    rng = np.random.default_rng(8)
    s13, g5 = make_rademacher_interval(1, 3, 3), make_rademacher_interval(1, 2, 5)
    models = []
    for i in range(24):
        delta = float(rng.choice([0.5, 1.0]))
        n = int(rng.integers(1, 31))
        if i % 3 == 0:
            models.append(SequenceModel.iid(_sparse_step(rng, delta), n))
        elif i % 3 == 1:
            models.append(SequenceModel(n, steps=[_sparse_step(rng, delta) for _ in range(n)]))
        else:  # a few distinct step objects, each used at several steps
            pool = [_sparse_step(rng, delta) for _ in range(3)]
            models.append(SequenceModel(n, steps=[pool[int(j)] for j in rng.integers(0, 3, n)]))
    models += [SequenceModel.iid(STEP12, 30), SequenceModel.iid(s13, 20),
               SequenceModel.iid(g5, 10), SequenceModel(12, steps=[STEP12, s13] * 6)]
    # models 12-23 draw the symbolic spelling of the side models 0-11 draw
    combos = [(side, stat) for side in ("ge", "gt", "le", "lt", ">=", ">", "<=", "<")
              for stat in ("S", "-S", "absS")]
    for i, m in enumerate(models):
        side, stat = combos[i % len(combos)]
        hi = int(rng.integers(1, m.horizon + 1))
        lo = int(rng.integers(1, hi + 1))
        scale = float(rng.uniform(-1.5, 1.5))
        ev = WindowEvent(lo=lo, hi=hi, threshold=lambda k: scale * math.sqrt(k) * m.delta,
                         side=side, stat=stat)
        thr = float(rng.uniform(-3, 3))
        payoffs = (ev, ev.complement(), ev.negate(), ev.complement().negate(),
                   TerminalSumPayoff(lambda s: -0.0),
                   TerminalSumPayoff(lambda s: -0.0 if s <= thr else (s - thr) ** 1.5))
        for payoff in payoffs:
            for evaluate in (evaluate_upper, evaluate_lower):
                lat = evaluate(m, payoff, method="lattice")
                gen = evaluate(m, payoff, method="generic")
                assert lat == gen and _bits(lat) == _bits(gen), (i, payoff, lat, gen)
    # pinned to the dense kernel's values
    r = clt_capacity(make_rademacher_interval(1, 2, 5), 125, 0.3)
    assert _bits(r.bracket_low) == _bits(0.5699674654008193)
    assert _bits(r.bracket_high) == _bits(0.5938002507979722)


@st.composite
def _rows_and_thresholds(draw):
    """Window steps lo..hi whose layers have their own low sums and widths
    (lows[k], widths[k]), a delta, and per step a threshold: on a lattice
    point in or near the layer, one ulp off it, anywhere, a signed zero or
    an infinity; or one constant threshold."""
    delta = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    lo = draw(st.integers(1, 4))
    hi = draw(st.integers(lo, lo + 5))
    lows = draw(st.lists(st.integers(-60, 60), min_size=hi + 1, max_size=hi + 1))
    widths = draw(st.lists(st.integers(1, 70), min_size=hi + 1, max_size=hi + 1))

    def threshold(k):
        point = delta * float(lows[k] + draw(st.integers(-3, widths[k] + 3)))
        return draw(st.one_of(
            st.just(point),
            st.just(math.nextafter(point, math.inf)),
            st.just(math.nextafter(point, -math.inf)),
            st.floats(-30.0, 30.0),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf])))

    table = [threshold(k) for k in range(hi + 1)]
    thr = table[lo] if draw(st.booleans()) else (lambda m: table[m])
    return lo, hi, lows, widths, delta, thr


def _runs(mask):
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    return [(int(i), int(j)) for i, j in zip(edges[::2], edges[1::2])]


@settings(max_examples=400, deadline=None)
@given(_rows_and_thresholds(), st.sampled_from(["ge", "gt", "le", "lt", ">=", ">", "<=", "<"]),
       st.sampled_from(["S", "-S", "absS"]))
@example((1, 1, [0, 1], [1, 35], 0.1, -2.4000000000000004), "gt", "-S")  # -t is 0.1 * 24 rounded
@example((1, 1, [0, -4], [1, 16], 1.0, -0.0), "ge", "-S")  # -0.0 on the lattice point 0
@example((1, 1, [0, -3], [1, 7], 1.0, -1.0), "ge", "absS")  # the halves cross: whole layer
@example((1, 1, [0, -3], [1, 7], 1.0, -1.0), "le", "absS")  # the halves cross: empty middle
@example((1, 1, [0, -3], [1, 7], 1.0, 0.0), "ge", "-S")  # +0.0 on the lattice point 0
@example((1, 1, [0, -3], [1, 7], 1.0, -0.0), "gt", "-S")  # -0.0, strict
# near 2**53 the edge is 2 sums from the guess ceil(t / delta)
@example((1, 1, [0, 8449485796740958], [1, 30], 1e5, 8.449485796740978e+20), "gt", "S")
def test_fired_ranges_are_the_trigger_mask_runs(rows, side, stat):
    """Every window layer's fired ranges, as ``_fired_edges`` documents
    them, are the runs of ``trigger_mask`` on that layer."""
    lo, hi, lows, widths, delta, thr = rows
    ev = WindowEvent(lo=lo, hi=hi, threshold=thr, side=side, stat=stat)
    starts, ends, outside = _fired_edges(ev, lows, widths, delta)
    assert len(starts) == len(ends) == hi - lo + 1
    for k in range(lo, hi + 1):
        w, s, e = widths[k], starts[k - lo], ends[k - lo]
        ranges = (((0, s), (e, w)) if s < e else ((0, w),)) if outside else ((s, e),)
        mask = ev.trigger_mask(k, delta * np.arange(lows[k], lows[k] + w, dtype=float))
        assert [(i, j) for i, j in ranges if i < j] == _runs(mask), (k, mask)


def test_window_thresholds_read_once_per_step_downward():
    """The lattice path reads a callable threshold once per window step,
    from hi down to lo and never outside [lo, hi], and only after the state
    cap check; a NaN at step m raises naming m with no step below m read;
    ±inf gives the sure or the never event."""
    model = SequenceModel.iid(STEP12, 12)
    calls = []

    def thr(m):
        calls.append(m)
        return 0.5 * m

    value = evaluate_upper(model, WindowEvent(3, 9, thr), method="lattice")
    assert calls == list(range(9, 2, -1))
    assert _bits(value) == _bits(evaluate_upper(model, WindowEvent(3, 9, thr), method="generic"))
    calls.clear()
    with pytest.raises(StateSpaceError):
        evaluate_upper(model, WindowEvent(3, 9, thr), state_cap=8)
    assert calls == []

    def nan_at_5(m):
        calls.append(m)
        return math.nan if m == 5 else 1.0

    with pytest.raises(ValueError, match="window threshold at step 5 is NaN"):
        evaluate_upper(model, WindowEvent(3, 9, nan_at_5), method="lattice")
    assert calls == [9, 8, 7, 6, 5]

    for side, stat in (("ge", "S"), ("lt", "-S"), (">", "absS"), ("<=", "absS")):
        sure = -math.inf if side in ("ge", ">") else math.inf
        for thr_fn, want in ((lambda m: sure, 1.0), (lambda m: -sure, 0.0),
                             (lambda m: sure if m == 7 else -sure, 1.0)):
            ev = WindowEvent(3, 9, thr_fn, side, stat)
            for method in ("lattice", "generic"):
                assert evaluate_upper(model, ev, method=method) == want
                assert evaluate_upper(model, ev.complement(), method=method) == 1.0 - want


def test_window_event_far_from_zero_support():
    """A support far from 0 puts the window's layers far apart on the
    lattice (sums 10**12 * m here); the fired edges need memory for the
    window steps only, and the lattice path equals the generic one bit for
    bit on every stat, side, complement and negation."""
    step = StepAmbiguity(LatticeSupport(0.5, (10**12, 10**12 + 1)), ((0.3, 0.7), (0.6, 0.4)))
    model = SequenceModel.iid(step, 48)
    centre = lambda m: 0.5 * (10**12 * m + 0.5 * m + 0.8 * math.sqrt(m))
    spread = set()
    for stat, thr in (("S", centre), ("-S", lambda m: -centre(m)), ("absS", centre)):
        for side in ("ge", "gt", "le", "lt"):
            ev = WindowEvent(4, 48, thr, side, stat)
            for payoff in (ev, ev.complement(), ev.negate()):
                for evaluate in (evaluate_upper, evaluate_lower):
                    lat = evaluate(model, payoff, method="lattice")
                    assert _bits(lat) == _bits(evaluate(model, payoff, method="generic"))
                    spread.add(lat)
    assert any(0.0 < v < 1.0 for v in spread)
    # points (10**6, 10**6 + 1) over a window of 10**5 steps: the layers'
    # sums span about 10**11 values, the edges need a few arrays of 10**5
    N = 10**5
    lows, widths = [10**6 * k for k in range(N + 1)], [k + 1 for k in range(N + 1)]
    for side in (">=", "<"):
        for stat in ("S", "absS"):
            ev = WindowEvent(1, N, lambda m: 10**6 * m + 0.5 * m + math.sqrt(m), side, stat)
            starts, ends, outside = _fired_edges(ev, lows, widths, 1.0)
            for k in (1, 2, 977, 31_415, N - 1, N):
                w, s, e = widths[k], starts[k - 1], ends[k - 1]
                ranges = (((0, s), (e, w)) if s < e else ((0, w),)) if outside else ((s, e),)
                mask = ev.trigger_mask(k, np.arange(lows[k], lows[k] + w, dtype=float))
                assert [(i, j) for i, j in ranges if i < j] == _runs(mask), (k, side, stat)


def test_window_event_overflowing_sums():
    """Sums whose products overflow to ±inf: an infinite threshold fires
    exactly where the product is infinite, on both paths."""
    step = StepAmbiguity(LatticeSupport(1e308, (-1, 0, 1)), ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)))
    model = SequenceModel.iid(step, 4)
    spread = set()
    with np.errstate(over="ignore"):
        for thr in (math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0):
            for side in ("ge", "gt", "le", "lt"):
                for stat in ("S", "-S", "absS"):
                    ev = WindowEvent(2, 4, thr, side, stat)
                    for payoff in (ev, ev.complement()):
                        lat = evaluate_upper(model, payoff, method="lattice")
                        assert _bits(lat) == _bits(evaluate_upper(model, payoff, method="generic"))
                        spread.add(lat)
    assert any(0.0 < v < 1.0 for v in spread)


def test_band_kernel_matches_generic_bits_long_horizons():
    """Horizons 40-80 with thresholds that jump across the row (and to
    ±inf), every stat, ``absS <=``, complements and negations."""
    rng = np.random.default_rng(40)
    s11 = StepAmbiguity(LatticeSupport(0.5, (-1, 1)), ((0.5, 0.5), (0.25, 0.75)))
    skew = StepAmbiguity(LatticeSupport(0.5, (-1, 0, 2)),
                         ((0.5, 0.25, 0.25), (0.0, 0.75, 0.25), (0.5, 0.5, 0.0)))
    cases = [(SequenceModel.iid(s11, 80), "le", "absS"),
             (SequenceModel.iid(s11, 64), "ge", "S"),
             (SequenceModel.iid(skew, 48), "lt", "absS"),
             (SequenceModel.iid(skew, 40), "gt", "-S"),
             (SequenceModel(60, steps=[s11, skew] * 30), "ge", "absS"),
             (SequenceModel(50, steps=[skew, s11] * 25), "le", "S"),
             (SequenceModel.iid(STEP12, 40), "lt", "-S"),
             (SequenceModel.iid(STEP12, 40), "le", "absS")]
    for m, side, stat in cases:
        reach = 2.0 * m.delta * m.horizon
        table = rng.uniform(-reach, reach, m.horizon + 1) * rng.uniform(0, 1, m.horizon + 1)
        table[rng.random(m.horizon + 1) < 0.1] = math.inf
        table[rng.random(m.horizon + 1) < 0.05] = -math.inf
        lo = int(rng.integers(1, 9))
        hi = int(rng.integers(m.horizon - 12, m.horizon + 1))
        ev = WindowEvent(lo=lo, hi=hi, threshold=lambda k: float(table[k]), side=side, stat=stat)
        for payoff in (ev, ev.complement(), ev.negate(), ev.complement().negate()):
            lat = evaluate_upper(m, payoff, method="lattice")
            gen = evaluate_upper(m, payoff, method="generic")
            assert _bits(lat) == _bits(gen), (m.horizon, side, stat, payoff.values, lat, gen)


def test_window_experiments_pinned():
    """Values of the full-row kernel, bit for bit."""
    assert _bits(lil_lower_experiment(SequenceModel.iid(STEP12, 1024), 16, 1024, 0.45)) == \
        _bits(0.674718441785309)
    rows = cluster_probe(STEP12, 256, (0.7, 1.3, 2.9))
    want = [(0.9141223431886067, 0.6736909528181242),
            (0.7701029133872186, 0.17128061898170865),
            (0.11640282307984227, 9.386586069748404e-06)]
    assert [(_bits(r.upper), _bits(r.lower)) for r in rows] == \
        [(_bits(u), _bits(lo)) for u, lo in want]


def test_state_cap():
    m = SequenceModel.iid(STEP12, 64)
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, TerminalSumPayoff(lambda s: s), state_cap=100)
    assert "100" in str(ei.value)
    with pytest.raises(StateSpaceError):
        evaluate_upper(m, FullVectorPayoff(lambda xs: 0.0), state_cap=1000)


def test_state_cap_read_as_integer():
    m = SequenceModel.iid(STEP12, 4)
    for cap in ("9", 100.5, True, None):
        with pytest.raises(ValueError, match="state_cap"):
            evaluate_upper(m, TerminalSumPayoff(lambda s: s), state_cap=cap)
    sq = TerminalSumPayoff(lambda s: s * s)
    assert evaluate_upper(m, sq, state_cap=100.0) == evaluate_upper(m, sq, state_cap=100)


def test_state_cap_counts_held_states():
    # two rows of the widest reachable layer, 2 * (4 * 512 + 1), not all layers
    m = SequenceModel.iid(STEP12, 512)
    ev = WindowEvent(lo=1, hi=512, threshold=lambda k: 40.0)
    assert 0.0 < evaluate_upper(m, ev, state_cap=10_000) < 1.0
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, ev, state_cap=4097)
    assert ei.value.estimate == 4098
    # the estimate stops at the window's end, 2 * (4 * 128 + 1): later layers hold no band
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

