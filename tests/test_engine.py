import gc
import math
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ambigil import bounds, capacity, engine, gnormal, iterlog
from ambigil.capacity import capacity_pair, centered_max_sum_event
from ambigil.engine import (ExpectationPair, FullVectorPayoff, StateSpaceError,
                            TerminalSumPayoff, WindowEvent, _fired_edges,
                            evaluate_lower, evaluate_pair, evaluate_upper)
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


def test_zero_lower_value_is_positive_zero():
    """A zero lower value is +0.0 on every path, never the -0.0 that
    negating the upper value of the negated payoff would give."""
    step11 = make_rademacher_interval(1, 1, 1)
    for m in (SequenceModel.iid(STEP12, 4), SequenceModel(3, steps=[STEP12, step11, STEP12])):
        for payoff in (TerminalSumPayoff(lambda s: 0.0), TerminalSumPayoff(lambda s: s),
                       FullVectorPayoff(lambda xs: 0.0)):
            for method in ("auto", "generic"):
                lower = evaluate_pair(m, payoff, method=method).lower
                assert lower == 0.0 and math.copysign(1.0, lower) == 1.0


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
        assert abs(up - m.moment_sums(lambda v: v)[-1]) <= 1e-10
        assert abs(lo - m.moment_sums(lambda v: v, lower=True)[-1]) <= 1e-10


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


def _assert_lattice_is_generic(m, payoff):
    for evaluate in (evaluate_upper, evaluate_lower):
        lat = evaluate(m, payoff, method="lattice")
        gen = evaluate(m, payoff, method="generic")
        assert _bits(lat) == _bits(gen), (m.horizon, evaluate.__name__, lat, gen)


def _ramp(t, w):
    return lambda s: 1.0 if s >= t + w else 0.0 if s <= t else (s - t) / w


def test_terminal_flanks_match_generic_bits():
    """Terminal rows with a constant prefix, a constant suffix, both, flanks
    that meet and a constant row, on supports with gaps (S11), shared and
    one-point steps: the lattice path gives the generic bits, sign of zero
    included.  The lower value runs the negated row, where on S11 a -0.0
    prefix interleaves with the +0.0 gap cells."""
    s11 = make_rademacher_interval(1, 1, 1)
    one = StepAmbiguity(LatticeSupport(1, (1,)), ((1.0,),))
    skew = StepAmbiguity(LatticeSupport(1, (-1, 0, 2)),
                         ((0.5, 0.25, 0.25), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0)))
    # weights that round, so a flank value moves in its last bits from step to step
    thirds = StepAmbiguity(LatticeSupport(1, (-2, 0, 1)), ((1 / 3, 1 / 3, 1 / 3), (0.1, 0.6, 0.3)))
    models = [SequenceModel.iid(s11, 24), SequenceModel.iid(STEP12, 12),
              SequenceModel.iid(thirds, 16),
              SequenceModel.iid(make_rademacher_interval(1, 2, 5), 6),
              SequenceModel.iid(one, 9), SequenceModel.iid(skew, 14),
              SequenceModel(12, steps=[s11, skew, one, thirds] * 3)]
    for m in models:
        for t in (-1e9, -3.0, -0.5, 0.0, 1.25, 2.0, 1e9):
            payoffs = (_ramp(t, 1.5), lambda s: -_ramp(t, 2.0)(s),
                       lambda s: 0.7 if s <= t else s * s,  # a prefix
                       lambda s: s ** 3 - s if s < t else -1.3,  # a suffix
                       lambda s: -0.1 if s < t else 0.9,  # prefix and suffix meet
                       lambda s: -2.0 if s < t - 1.0 else 3.0 if s > t + 1.0 else math.sin(s))
            for fn in payoffs:
                _assert_lattice_is_generic(m, TerminalSumPayoff(fn))
        for c in (0.0, -0.0, 0.3, -7.7):  # a constant row
            _assert_lattice_is_generic(m, TerminalSumPayoff(lambda s: c))


def test_terminal_flanks_shrink_the_band(monkeypatch):
    """A constant terminal row takes no band step, and a ramp's flat ends
    start outside the band."""
    bands = []
    band_step = engine._band_step
    monkeypatch.setattr(engine, "_band_step",
                        lambda *args: bands.append(args[-1] - args[-2]) or band_step(*args))
    m = SequenceModel.iid(make_rademacher_interval(1, 2, 5), 40)
    assert evaluate_upper(m, TerminalSumPayoff(lambda s: 0.5)) == 0.5
    assert bands == []
    ramp = _ramp(2.0, 1.0)
    evaluate_upper(m, TerminalSumPayoff(ramp))
    # delta 0.25: the 3 sums strictly inside the ramp's (2, 3), widened by the step's span 16
    assert bands[0] == 3 + 16 < 16 * 39 + 1


def test_band_plan_shared_weights_and_point_masses():
    """Steps whose measures share weights, start with or later hold a
    one-term (point-mass) measure, or are all point masses, alone and in a
    schedule whose steps have different numbers of distinct weights."""
    pts = LatticeSupport(1.0, (-2, -1, 0, 1, 2))
    shared = StepAmbiguity(pts, ((0.25, 0.25, 0.0, 0.25, 0.25), (0.0, 0.5, 0.0, 0.5, 0.0),
                                 (0.25, 0.0, 0.5, 0.0, 0.25)))
    mass_first = StepAmbiguity(pts, ((0.0, 0.0, 1.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0, 0.5),
                                     (0.0, 0.25, 0.0, 0.75, 0.0)))
    mass_later = StepAmbiguity(pts, ((0.5, 0.0, 0.0, 0.0, 0.5), (0.0, 1.0, 0.0, 0.0, 0.0),
                                     (0.1, 0.2, 0.3, 0.4, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0)))
    masses = StepAmbiguity(LatticeSupport(1.0, (-1, 0, 3)), ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    models = [SequenceModel.iid(s, 10) for s in (shared, mass_first, mass_later, masses)]
    models.append(SequenceModel(16, steps=[STEP12, mass_later, shared, masses] * 4))
    models.append(SequenceModel(15, steps=[masses, mass_first, STEP12] * 5))
    for m in models:
        for stat in ("S", "-S", "absS"):
            for side in ("ge", "lt"):
                ev = WindowEvent(2, m.horizon, lambda k: 0.3 * math.sqrt(k), side, stat)
                for payoff in (ev, ev.complement(), ev.negate()):
                    _assert_lattice_is_generic(m, payoff)
        for fn in (_ramp(-0.5, 1.0), lambda s: s * s - s, lambda s: -0.0 if s < 0.5 else s):
            _assert_lattice_is_generic(m, TerminalSumPayoff(fn))


def _distinct_weight_step(npts, nmeasures, seed, delta=1.0):
    """A step on -npts//2.. whose measures' weights are all distinct, some zero."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(1, 10 ** 9, size=(nmeasures, npts)).astype(float)
    raw[rng.random(raw.shape) < 0.2] = 0.0
    raw[:, 0] += 1.0  # no measure is all zero
    h = npts // 2
    return StepAmbiguity(LatticeSupport(delta, tuple(range(-h, npts - h))),
                         tuple(tuple(row / row.sum()) for row in raw))


@pytest.mark.parametrize("block, strip", [(engine._BLOCK_FLOATS, engine._MIN_STRIP),
                                          (64, 4), (16, 4), (8, 1)])
def test_band_groups_and_strips_match_generic_bits(monkeypatch, block, strip):
    """Steps with many distinct weights, cut into several block groups with
    measures split between them, at the default budget and at small ones
    where bands also run in several strips or a span is wider than the
    block: the lattice path gives the generic bits.  S12 and G5 give every
    point one weight: at the default budget their bands fit in one strip
    and take ``_band_step``'s one-weight row, and at the small budgets of
    (8, 1) and (16, 4) they run in several strips of the general loop."""
    monkeypatch.setattr(engine, "_BLOCK_FLOATS", block)
    monkeypatch.setattr(engine, "_MIN_STRIP", strip)
    one_weight_strips = []  # whether a one-weight group's band took several strips
    band_step = engine._band_step

    def recording_band_step(step, src, dst, acc, blk, a, b):
        one_weight_strips.extend(b - a > g.strip for g in step.groups if len(g.qs) == 1)
        band_step(step, src, dst, acc, blk, a, b)

    monkeypatch.setattr(engine, "_band_step", recording_band_step)
    many = _distinct_weight_step(11, 4, 1)
    wide = _distinct_weight_step(40, 3, 2)
    shared = StepAmbiguity(LatticeSupport(1.0, (-2, -1, 0, 1, 2)),
                           ((0.0, 0.5, 0.0, 0.5, 0.0), (0.25, 0.25, 0.0, 0.25, 0.25),
                            (0.0, 0.0, 1.0, 0.0, 0.0)))
    if block == 64:  # groups of 64 // (11 + 10) weights, and measures run across them
        groups = engine._sparse_terms(many).groups
        assert max(len(g.qs) for g in groups) == 3 and len(groups) > 10 and any(
            head is None for g in groups for _, head, _, _ in g.pieces)
    # new model objects: a plan cached under another budget is never read
    models = [SequenceModel.iid(many, 9), SequenceModel.iid(wide, 3),
              SequenceModel(10, steps=[many, shared, STEP12, wide, shared] * 2),
              SequenceModel.iid(STEP12, 12), SequenceModel.iid(make_rademacher_interval(1, 2, 5), 6)]
    for m in models:
        for stat in ("S", "absS"):
            ev = WindowEvent(1, m.horizon, lambda k: 0.4 * math.sqrt(k) + 0.2, "ge", stat)
            for payoff in (ev, ev.complement()):
                _assert_lattice_is_generic(m, payoff)
        for fn in (_ramp(-0.5, 1.5), lambda s: s * s - s):
            _assert_lattice_is_generic(m, TerminalSumPayoff(fn))
        # the cached groups are the ones cut under this budget
        strips = [[g.strip for g in row.groups] for row in engine._PLANS[m].table]
        assert strips == [[g.strip for g in row.groups] for row in m.per_step(engine._sparse_terms)]
    if block in (8, 16):
        assert any(one_weight_strips)
    elif block > 64:  # the default budget
        assert one_weight_strips and not any(one_weight_strips)


def test_block_of_products_stays_bounded():
    """A 101-point step whose 10 measures have 803 distinct weights: the DP
    holds its 3 rows and one block of at most ``_BLOCK_FLOATS`` floats,
    where a block row per distinct weight across the widest layer would
    take 39 MB."""
    m = SequenceModel.iid(_distinct_weight_step(101, 10, 3, delta=0.1), 60)
    ramp = TerminalSumPayoff(_ramp(0.3, 0.5))
    evaluate_upper(SequenceModel.iid(m.step(1), 2), ramp)
    tracemalloc.start()
    try:
        value = evaluate_upper(m, ramp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1.0
    # rows 100 * 60 + 1 wide, with 512 KB for the per-step table and the rest
    assert peak < 8 * (3 * 6001 + engine._BLOCK_FLOATS) + 512 * 1024, peak


@pytest.mark.parametrize("block, strip", [(engine._BLOCK_FLOATS, engine._MIN_STRIP),
                                          (4096, 128), (64, 4)])
def test_block_groups_bound_the_block(monkeypatch, block, strip):
    """Every group's block of one strip, D * (strip + used span), stays within
    the budget or one strip of span + 1 states, and a strip covers at least
    ``_MIN_STRIP`` states wherever the budget allows it."""
    monkeypatch.setattr(engine, "_BLOCK_FLOATS", block)
    monkeypatch.setattr(engine, "_MIN_STRIP", strip)
    steps = [_distinct_weight_step(101, 10, 3), _distinct_weight_step(11, 4, 1),
             _distinct_weight_step(3, 2, 4), STEP12, make_rademacher_interval(1, 2, 5)]
    for step in steps:
        t = engine._sparse_terms(step)
        used = t.mx - t.mn
        for g in t.groups:
            assert len(g.qs) * (g.strip + used) <= max(block, 2 * used + 1)
            assert g.strip >= min(strip, block - used)
        assert t.depth == max(len(g.qs) for g in t.groups)
        assert t.block == max(len(g.qs) * (g.strip + used) for g in t.groups)


def test_state_cap_counts_a_block_past_its_budget(monkeypatch):
    """A span wider than the block budget takes one strip of span + 1
    states; the floats past the budget count in the estimate."""
    monkeypatch.setattr(engine, "_BLOCK_FLOATS", 16)
    step = StepAmbiguity(LatticeSupport(1.0, (-5, 0, 5)), ((0.5, 0.0, 0.5), (0.0, 1.0, 0.0)))
    m = SequenceModel.iid(step, 6)
    sq = TerminalSumPayoff(lambda s: s * s)
    # widest layer 10 * 6 + 1; one weight a group, 1 * (11 + 10) floats a block
    assert evaluate_upper(m, sq, state_cap=61 + 5) == 150.0
    with pytest.raises(StateSpaceError) as ei:
        evaluate_upper(m, sq, state_cap=61 + 4)
    assert ei.value.estimate == 61 + 5


def _same_steps(m):
    """A new model object with ``m``'s step objects, so no plan is cached for it."""
    if m.is_iid:
        return SequenceModel.iid(m.step(1), m.horizon)
    return SequenceModel(m.horizon, steps=list(m.steps()))


def test_plan_cache_cold_and_warm_bits():
    """I.i.d. models and schedules that reuse a few step objects: a DP on a
    model whose plan is cached gives the bits of one on a new model object
    with the same steps, whose plan is built for it, and of the generic
    path, for window events, complements, negations, terminal payoffs and
    capacity pairs."""
    rng = np.random.default_rng(20)
    for i in range(36):
        delta = float(rng.choice([0.5, 1.0]))
        n = int(rng.integers(1, 25))
        if i % 2 == 0:
            m = SequenceModel.iid(_sparse_step(rng, delta), n)
        else:
            pool = [_sparse_step(rng, delta) for _ in range(3)]
            m = SequenceModel(n, steps=[pool[int(j)] for j in rng.integers(0, 3, n)])
        hi = int(rng.integers(1, n + 1))
        lo = int(rng.integers(1, hi + 1))
        scale, t = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-3, 3))
        ev = WindowEvent(lo, hi, lambda k: scale * math.sqrt(k) * delta,
                         ("ge", "gt", "le", "lt")[i % 4], ("S", "-S", "absS")[i % 3])
        payoffs = (ev, ev.complement(), ev.negate(),
                   TerminalSumPayoff(lambda s: (s - t) ** 2), TerminalSumPayoff(_ramp(t, 1.0)))
        runs = [(evaluate, payoff) for evaluate in (evaluate_upper, evaluate_lower)
                for payoff in payoffs]
        generic = [_bits(evaluate(m, payoff, method="generic")) for evaluate, payoff in runs]
        assert m not in engine._PLANS  # the generic path builds no plan
        for _ in range(2):  # the first DP builds the plan, every later one reads it
            warm = [_bits(evaluate(m, payoff, method="lattice")) for evaluate, payoff in runs]
            cold = [_bits(evaluate(_same_steps(m), payoff, method="lattice"))
                    for evaluate, payoff in runs]
            assert warm == cold == generic, i
            pair, cold = capacity_pair(m, ev), capacity_pair(_same_steps(m), ev)
            assert (_bits(pair.lower), _bits(pair.upper)) == (_bits(cold.lower), _bits(cold.upper))
        assert m in engine._PLANS


def test_plan_built_once_per_model(monkeypatch):
    """Window and terminal DPs on one schedule build its per-step table once,
    one row per distinct step object, and its reach mask once; one-row DPs
    step on that table itself, with no row-scaled copy."""
    built = []
    sparse = engine._sparse_terms
    monkeypatch.setattr(engine, "_sparse_terms", lambda step: built.append(step) or sparse(step))
    s13 = make_rademacher_interval(1, 3, 3)
    m = SequenceModel(12, steps=[s13, STEP12, STEP12] * 4)
    payoffs = (WindowEvent(1, 12, 3.0), WindowEvent(2, 8, 1.0, "le", "absS").complement(),
               TerminalSumPayoff(lambda s: s * s), TerminalSumPayoff(_ramp(-1.0, 2.0)))
    for payoff in payoffs:
        evaluate_pair(m, payoff)
    assert [id(s) for s in built] == [id(s13), id(STEP12)]
    plan = engine._PLANS[m]
    assert plan.reach() is plan.reach()
    assert plan.rows(1) is plan.table and list(plan._rows) == [1]
    # S13's points span -3..3 and S12's -2..2
    lows, widths = plan.layers()
    assert (lows[-1], widths[-1]) == (4 * (-3 - 2 - 2), 4 * (6 + 4 + 4) + 1)


def _points_step(points):
    """A step on ``points`` (delta 1) whose measures put zero weight on
    every point but the outer ones, or all weight on one point."""
    if len(points) == 1:
        return StepAmbiguity(LatticeSupport(1, tuple(points)), ((1.0,),))
    inner = [0.0] * (len(points) - 2)
    return StepAmbiguity(LatticeSupport(1, tuple(points)),
                         (tuple([0.5] + inner + [0.5]), tuple([0.0] * (len(points) - 1) + [1.0])))


def _set_reach(m):
    """The terminal reach mask and reachable real sums by a set of sums,
    every support point counted whatever its weights."""
    sums = {0}
    for step in m.steps():
        sums = {s + p for s in sums for p in step.support.points}
    every = range(min(sums), max(sums) + 1)
    return [s in sums for s in every], [m.delta * float(s) for s in every if s in sums]


def test_reach_mask_matches_set_reach():
    """``_Plan.reach`` against a set of sums: seeded random i.i.d. models and
    schedules with zero weights, a parity support that never fills, a first
    gap wider than one layer that closes after 14 steps, and schedules that
    fill and then meet a gap at or beyond the running width."""
    rng = np.random.default_rng(20261020)
    models = [SequenceModel.iid(_points_step((-1, 1)), 41),
              SequenceModel.iid(_points_step((-8, -7, 7, 8)), 20),
              SequenceModel.iid(_points_step((3,)), 5)]
    ramp = [_points_step((-1, 0, 1))] * 2  # full over width 5 after two steps
    for tail in ([(-2, 3)], [(-2, 4)], [(-10, 10)], [(-10, 10), (-3, 0, 1)],
                 [(-1, 0, 1), (-20, 0, 20)]):  # a gap of 5, 6, 20, ...
        models.append(SequenceModel(len(ramp) + len(tail) + 4,
                                    steps=ramp + [_points_step(t) for t in tail] + ramp * 2))
    for _ in range(40):
        steps = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, 5))
            pts = np.sort(rng.choice(np.arange(-9, 10), size=size, replace=False))
            steps.append(_points_step(pts.tolist()))
        n = int(rng.integers(1, 25))
        if len(steps) == 1:
            models.append(SequenceModel.iid(steps[0], n))
        else:
            models.append(SequenceModel(n, steps=[steps[int(i)] for i in
                                                  rng.integers(0, len(steps), n)]))
    fills = 0
    for m in models:
        hit, at = engine._Plan(m).reach()
        want_hit, want_at = _set_reach(m)
        assert hit.dtype == bool and hit.tolist() == want_hit, m
        assert at.tolist() == want_at, m
        fills += all(want_hit)
    assert 0 < fills < len(models)


def test_plan_dies_with_its_model():
    """The plan holds no reference to its model: once the model is gone, so
    is its entry."""
    gc.collect()
    before = len(engine._PLANS)
    m = SequenceModel(6, steps=[STEP12, make_rademacher_interval(1, 3, 3)] * 3)
    evaluate_upper(m, TerminalSumPayoff(lambda s: s * s))
    evaluate_upper(m, WindowEvent(1, 6, 2.0))
    assert m in engine._PLANS and len(engine._PLANS) == before + 1
    gone = weakref.ref(m)
    del m
    gc.collect()
    assert gone() is None and len(engine._PLANS) == before


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
    pre, suf, writes = _fired_edges(ev, lows, widths, delta)
    assert len(pre) == len(suf) == len(writes) == hi - lo + 1
    for k in range(lo, hi + 1):
        w, p, s, mid = widths[k], pre[k - lo], suf[k - lo], writes[k - lo]
        ranges = ((0, w),) if s <= p else ((0, p), *[(i, j) for i, j, _ in mid], (s, w))
        mask = ev.trigger_mask(k, delta * np.arange(lows[k], lows[k] + w, dtype=float))
        assert [(i, j) for i, j in ranges if i < j] == _runs(mask), (k, mask)


@pytest.mark.parametrize("stat", ["S", "-S", "absS"])
def test_fired_table_is_each_rows_trigger_mask(stat):
    """The fired table of a window payoff, layer by layer and row by row:
    every row fires on the common prefix and suffix, the writes lie
    between them, and the prefix, the suffix and a row's writes (those of
    that row and those of every row) cover exactly the cells where its
    ``trigger_mask`` fires, without overlap.  With one threshold, for one
    row or several, every write is of every row and no write reaches a
    layer edge.  Random models with asymmetric and gapped supports, every
    side spelling, windows that end before the horizon, and row sets of
    1-4 thresholds: constant, callable, ±inf and far finite ones."""
    rng = np.random.default_rng(31)
    models = [SequenceModel.iid(_points_step((-1, 0, 3)), 9),
              SequenceModel.iid(TWO_WEIGHTS, 7),
              SequenceModel(8, steps=[_points_step((2,)), STEP12, _points_step((-5, 1))] * 2
                            + [STEP12] * 2)]
    for i in range(6):
        delta = float(rng.choice([0.5, 1.0]))
        n = int(rng.integers(1, 11))
        models.append(SequenceModel(n, steps=[_sparse_step(rng, delta) for _ in range(n)]))
    for i, m in enumerate(models):
        d = m.delta
        lows, widths = engine._plan(m).layers()
        hi = max(1, m.horizon - i % 3)
        lo = 1 + i % hi
        pool = [lambda k: d * (0.6 * math.sqrt(k) - 0.4 * (k % 3)), 1.5 * d, math.inf, -math.inf,
                lambda k: d * (1.5 * math.sqrt(k) - 1.0), 1e3 * d, -1e3 * d, -0.5 * d]
        for j, side in enumerate(engine._SIDES):
            base = WindowEvent(lo, hi, pool[(i + j) % len(pool)], side, stat)
            sets = [[base], [base.complement(), base]]
            for g in (2, 3, 4):
                picks = rng.choice(len(pool), size=g, replace=False)
                evs = [replace(base, threshold=pool[int(p)]) for p in picks]
                sets.append(evs + [evs[0].complement()])  # two rows of one threshold
            for evs in sets:
                payoff = evs[0] if len(evs) == 1 else engine._event_rows(evs)
                one = len({id(e.threshold) for e in evs}) == 1
                pre, suf, writes = _fired_edges(payoff, lows, widths, d)
                assert len(pre) == len(suf) == len(writes) == hi - lo + 1
                for k in range(lo, hi + 1):
                    w, p, s, mid = widths[k], pre[k - lo], suf[k - lo], writes[k - lo]
                    if s <= p:  # every row fires on the whole layer
                        p = s = w
                    assert 0 <= p <= s <= w, (k, p, s)
                    for a, b, c in mid:
                        assert p <= a < b <= s and 0 <= c.start < c.stop <= len(evs)
                        if one:
                            assert c == slice(0, len(evs)) and 0 < a and b < w, (k, a, b, w)
                        # c is a whole run of adjacent rows of one threshold
                        thr = {id(ev.threshold) for ev in evs[c]}
                        assert len(thr) == 1, (k, c)
                        assert c.start == 0 or id(evs[c.start - 1].threshold) not in thr
                        assert c.stop == len(evs) or id(evs[c.stop].threshold) not in thr
                    at = d * np.arange(lows[k], lows[k] + w, dtype=float)
                    for r, ev in enumerate(evs):
                        mask = ev.trigger_mask(k, at)
                        assert mask[:p].all() and mask[s:].all(), (k, r)
                        cover = np.zeros(w, dtype=np.int64)
                        cover[:p] += 1
                        cover[s:] += 1
                        for a, b, c in mid:
                            if c.start <= r < c.stop:
                                cover[a:b] += 1
                        assert cover.max(initial=0) <= 1 and np.array_equal(cover == 1, mask), \
                            (i, side, k, r, cover, mask)


@pytest.mark.parametrize("stat", ["S", "-S", "absS"])
@pytest.mark.parametrize("side", ["ge", "gt", "le", "lt", ">=", ">", "<=", "<"])
def test_trigger_block_is_stacked_trigger_masks(side, stat):
    """Row t of ``trigger_block(k0, positions)`` is ``trigger_mask(k0 + 1 +
    t, positions[t])``, for windows that start or end inside the block or
    cover it or miss it, on 2-D and 3-D blocks with on-threshold sums, and
    a callable threshold is never called outside [lo, hi]."""
    rng = np.random.default_rng(5)
    for shape in ((7, 9), (7, 3, 5)):
        positions = rng.integers(-6, 7, size=shape) * 0.5
        for lo, hi in ((1, 20), (4, 9), (12, 14), (15, 16), (9, 11), (2, 3), (13, 30)):
            calls = []

            def thr(m, lo=lo, hi=hi):
                calls.append(m)
                if not lo <= m <= hi:
                    raise AssertionError(f"threshold read at step {m} outside [{lo}, {hi}]")
                return 0.5 * (m % 5) - 1.0

            for threshold in (thr, 1.0, -0.0, math.inf):
                ev = WindowEvent(lo=lo, hi=hi, threshold=threshold, side=side, stat=stat)
                got = ev.trigger_block(8, positions)
                assert got.dtype == bool and got.shape == shape
                want = [ev.trigger_mask(8 + 1 + t, p) for t, p in enumerate(positions)]
                assert np.array_equal(got, np.stack(want)), (lo, hi, threshold)
            assert set(calls) == set(range(max(lo, 9), min(hi, 15) + 1))


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
            pre, suf, writes = _fired_edges(ev, lows, widths, 1.0)
            for k in (1, 2, 977, 31_415, N - 1, N):
                w, p, s, mid = widths[k], pre[k - 1], suf[k - 1], writes[k - 1]
                ranges = ((0, w),) if s <= p else ((0, p), *[(i, j) for i, j, _ in mid], (s, w))
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
    # a pair holds two value rows, but its estimate is one row's, as for either single DP
    assert 0.0 < capacity_pair(m, ev, state_cap=4098).upper < 1.0
    with pytest.raises(StateSpaceError) as ei:
        capacity_pair(m, ev, state_cap=4097)
    assert ei.value.estimate == 4098
    with pytest.raises(StateSpaceError) as ei:
        capacity_pair(m, early, state_cap=1025)
    assert ei.value.estimate == 1026
    # so does a cluster probe's DP of six rows, three thresholds
    assert len(cluster_probe(STEP12, 512, (0.7, 1.3, 2.9), state_cap=4098)) == 3
    with pytest.raises(StateSpaceError) as ei:
        cluster_probe(STEP12, 512, (0.7, 1.3, 2.9), state_cap=4097)
    assert ei.value.estimate == 4098


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



# capacity-d2's step: two distinct weights, so its band takes the general strip loop
TWO_WEIGHTS = StepAmbiguity(LatticeSupport(1.0, (-8, -7, 7, 8)),
                            ((0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0), (0.25, 0.25, 0.25, 0.25)))


def _assert_rows_are_one_row_dps(m, rows, singles):
    """The K values of a row payoff are the one-row DPs' ``float.hex``, row
    by row, sign of zero included: on the lattice path against the one-row
    lattice DPs, and with ``method="generic"`` against the rows evaluated
    one by one on the generic path (the two one-row paths agree too)."""
    want = [evaluate_upper(m, p, method="lattice").hex() for p in singles]
    assert [v.hex() for v in evaluate_upper(m, rows)] == want, m.horizon
    alone = [evaluate_upper(m, p, method="generic").hex() for p in singles]
    assert [v.hex() for v in evaluate_upper(m, rows, method="generic")] == alone == want


def _window_row_sets(base, d):
    """Row sets of window events that share ``base``'s window, side and
    stat: an event and its complement (one threshold); and mixes of
    thresholds, each row with its own: two rows that share one callable,
    adjacent or not, and two equal but distinct callables, constant,
    ±inf and far finite thresholds (each fires on the whole window layer
    or on none of it, by side and stat), event, complement and negation
    rows."""
    twin = lambda k: d * (0.6 * math.sqrt(k) - 0.4 * (k % 3))  # equal to base's, not the same
    wide = lambda k: d * (1.5 * math.sqrt(k) - 1.0)
    ev = lambda thr: replace(base, threshold=thr)
    return ([base.complement(), base],
            [base, ev(twin), ev(1.5 * d).complement(), ev(math.inf), ev(-math.inf).negate(),
             ev(1e3 * d), ev(-1e3 * d).complement(), base.complement()],
            [base.complement(), base, ev(wide).complement(), ev(wide), ev(twin).complement(),
             ev(twin)],
            [ev(wide), base.negate(), ev(-1e3 * d), ev(wide).complement()])


@pytest.mark.parametrize("block, strip", [
    (engine._BLOCK_FLOATS, engine._MIN_STRIP), (64, 4), (16, 4), (8, 1)])
def test_value_rows_match_one_row_dps(monkeypatch, block, strip):
    """K value rows interleaved on one band give each row's one-row bits:
    random i.i.d. models and schedules (1-5 points, 1-4 measures, zero
    weights), a two-weight step on the general strip loop, one-point steps,
    every side spelling and stat, windows that end before the horizon;
    window rows with one threshold (event + complement, event + negation)
    and rows with their own thresholds (``_window_row_sets``: constant,
    callable and ±inf thresholds, rows that fire on a whole layer or
    never, a shared threshold object, equal but distinct callables, event
    + complement pairs beside rows of other thresholds); ramps
    (``gnormal._Ramp`` among them), two-term terminal payoffs and a
    constant row beside a ramp, on a parity support whose reach mask never
    fills and on a gapped one; at the default budget and at the small ones
    where bands run in several strips."""
    monkeypatch.setattr(engine, "_BLOCK_FLOATS", block)
    monkeypatch.setattr(engine, "_MIN_STRIP", strip)
    rng = np.random.default_rng(2029)
    one = StepAmbiguity(LatticeSupport(1.0, (2,)), ((1.0,),))
    parity = StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.5, 0.5), (0.25, 0.75)))
    models = [SequenceModel.iid(TWO_WEIGHTS, 9), SequenceModel.iid(parity, 11),
              SequenceModel(8, steps=[TWO_WEIGHTS, STEP12, one, TWO_WEIGHTS] * 2),
              SequenceModel(6, steps=[one, parity] * 3)]
    for i in range(10):
        delta = float(rng.choice([0.5, 1.0]))
        n = int(rng.integers(1, 13))
        if i % 2 == 0:
            models.append(SequenceModel.iid(_sparse_step(rng, delta), n))
        else:
            pool = [_sparse_step(rng, delta) for _ in range(3)]
            models.append(SequenceModel(n, steps=[pool[int(j)] for j in rng.integers(0, 3, n)]))
    for i, m in enumerate(models):
        d = m.delta
        hi = max(1, m.horizon - i % 3)  # two in three windows end before the horizon
        lo = 1 + i % hi
        thr = lambda k: d * (0.6 * math.sqrt(k) - 0.4 * (k % 3))
        thresholds = (thr, 1.5 * d, math.inf, -math.inf)
        for j, side in enumerate(engine._SIDES):
            stat = engine._STATS[(i + j) % 3]
            ev = WindowEvent(lo, hi, thresholds[(i + j) % 4], side, stat)
            for pair in ((ev.complement(), ev), (ev, ev.negate())):
                _assert_rows_are_one_row_dps(m, engine._event_rows(pair), pair)
            # one row set per side, in turn, so each model and side sees one
            rows = _window_row_sets(WindowEvent(lo, hi, thr, side, stat), d)[(i + j) % 4]
            _assert_rows_are_one_row_dps(m, engine._event_rows(rows), rows)
        t = float(rng.uniform(-3.0, 3.0))
        for rows in ((gnormal._Ramp(t - 1.0, 1.0), gnormal._Ramp(t, 1.0)),
                     (TerminalSumPayoff(_ramp(t, 0.5)), TerminalSumPayoff(lambda s: s * s - s)),
                     (TerminalSumPayoff(lambda s: -0.25), TerminalSumPayoff(_ramp(t, 2.0)),
                      TerminalSumPayoff(lambda s: -0.0 if s < t else s))):
            _assert_rows_are_one_row_dps(m, engine._TerminalRows(rows), rows)


def test_window_rows_share_window_side_and_stat():
    """Value rows of one DP share the window, side and stat: a row that
    differs in any of them, or is not a window event, is a ``ValueError``,
    and so is a row event's value pair that is not two finite floats."""
    ev = WindowEvent(2, 6, 1.0, ">=", "S")
    for other in (replace(ev, lo=1), replace(ev, hi=5), replace(ev, side="ge"),
                  replace(ev, stat="absS"), TerminalSumPayoff(lambda s: s)):
        with pytest.raises(ValueError, match="value rows must be window events"):
            engine._event_rows([ev, other])
    with pytest.raises(ValueError, match="values must be two finite floats"):
        engine._event_rows([ev, replace(ev, values=(0.0, math.nan))])


def test_pairs_and_brackets_take_one_dp(monkeypatch):
    """``capacity_pair``, ``cluster_probe`` and ``clt_capacity`` call
    ``evaluate_upper`` once, and ``domination_case`` runs both centerings'
    events and their complements as one DP of 4 rows beside its max-tail
    DP; a pair reads a callable threshold once per window step, hi to lo,
    and a probe reads each sigma's threshold (a repeated sigma has its
    own) the same way; their values are the ones of single DPs."""
    calls, reads, sizes = [], [], []

    def counted(model, payoff, **kw):
        calls.append(type(payoff).__name__)
        sizes.append(len(getattr(payoff, "rows", ())))
        return evaluate_upper(model, payoff, **kw)

    def thr(m):
        reads.append(m)
        return 0.45 * m

    at = engine.WindowEvent._threshold_at
    monkeypatch.setattr(engine.WindowEvent, "_threshold_at",
                        lambda self, m: reads.append((self.threshold, m)) or at(self, m))
    m = SequenceModel.iid(STEP12, 24)
    ev = WindowEvent(3, 20, thr, ">=", "absS")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "evaluate_upper", counted)
        mp.setattr(gnormal, "evaluate_upper", counted)
        pair = capacity_pair(m, ev)
        assert calls == ["_WindowRows"]
        assert reads == [r for k in range(20, 2, -1) for r in ((thr, k), k)]
        calls.clear()
        reads.clear()
        grid = (-0.5, 0.7, 0.7, 2.9)
        rows = cluster_probe(STEP12, 24, grid)
        assert calls == ["_WindowRows"]
        sigmas = list(dict.fromkeys(f for f, _ in reads))  # the threshold objects, first read first
        assert len(sigmas) == len(grid)
        assert reads == [(f, k) for f in sigmas for k in range(24, 0, -1)]
        calls.clear()
        bracket = clt_capacity(STEP12, 40, 0.3)
        assert calls == ["_TerminalRows"]
        calls.clear()
        sizes.clear()
        # a schedule whose upper and lower means differ, so the centerings do too
        small = SequenceModel(12, steps=[TWO_WEIGHTS, _points_step((-1, 0, 3)), STEP12] * 4)
        case = bounds.domination_case(small, 3.0, 6.0, 2.0, 0.5)
        assert calls == ["Automaton", "_WindowRows"] and sizes[1] == 4
    assert pair.upper.hex() == evaluate_upper(m, ev).hex()
    assert pair.lower.hex() == (1.0 - evaluate_upper(m, ev.complement())).hex()
    d = [0.0] + [math.sqrt(2.0 * k * iterlog.loglog_(float(k))) for k in range(1, 25)]
    model = SequenceModel.iid(STEP12, 24)
    for row, f, sigma in zip(rows, sigmas, grid):
        assert [f(k) for k in range(1, 25)] == [sigma * d[k] for k in range(1, 25)]
        one = WindowEvent(1, 24, f)
        assert row.upper.hex() == evaluate_upper(model, one).hex()
        assert row.lower.hex() == (1.0 - evaluate_upper(model, one.complement())).hex()
    up, down = (centered_max_sum_event(small, 3.0, center=c) for c in ("upper-mean", "lower-mean"))
    assert case.lhs_upper.hex() == evaluate_upper(small, up).hex()
    assert case.lhs_lower.hex() == (1.0 - evaluate_upper(small, up.complement())).hex()
    assert case.lhs_lower_conjugate.hex() == (1.0 - evaluate_upper(small, down.complement())).hex()
    assert case.lhs_lower != case.lhs_lower_conjugate
    model, hw = SequenceModel.iid(STEP12, 40), 4.0
    t = 0.3 * math.sqrt(40.0)
    assert bracket.bracket_high.hex() == evaluate_upper(model, gnormal._Ramp(t - hw, hw)).hex()
    assert bracket.bracket_low.hex() == evaluate_upper(model, gnormal._Ramp(t, hw)).hex()


def test_long_cluster_grid_runs_in_bounded_dps(monkeypatch):
    """A ``cluster_probe`` grid runs in chunks of pairs, one DP each, as
    many pairs per DP as keep 2 * pairs * the last layer's width within
    ``capacity._PAIRS_FLOATS`` (one pair at least), so a DP's buffers
    stay bounded however long the grid is; the values are the same bits
    whatever the chunks, down to one pair per DP.  Each DP's rows are
    window events, each sigma's complement and then its event."""
    sizes = []
    evaluate = capacity.evaluate_upper

    def counted(model, payoff, **kw):
        sizes.append(len(payoff.rows))
        assert [ev.values for ev in payoff.rows] == [(1.0, 0.0), (0.0, 1.0)] * (sizes[-1] // 2)
        assert all(type(ev) is WindowEvent for ev in payoff.rows)
        return evaluate(model, payoff, **kw)

    monkeypatch.setattr(capacity, "evaluate_upper", counted)
    grid = [0.05 * k - 0.5 for k in range(100)]  # fires everywhere up to never
    width = 4 * 256 + 1  # S12's last layer at N = 256
    want = [(r.upper.hex(), r.lower.hex()) for r in cluster_probe(STEP12, 256, grid)]
    assert sizes == [126, 74] and 126 * width <= capacity._PAIRS_FLOATS < 128 * width
    for budget, chunks in ((10 * width + 1, [10] * 20), (2 * width - 1, [2] * 100)):
        sizes.clear()
        monkeypatch.setattr(capacity, "_PAIRS_FLOATS", budget)
        rows = cluster_probe(STEP12, 256, grid)
        assert [(r.upper.hex(), r.lower.hex()) for r in rows] == want
        assert sizes == chunks
