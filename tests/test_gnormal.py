import hashlib
import math

import numpy as np
import pytest

from ambigil import engine
from ambigil.capacity import upper_capacity, window_max_event
from ambigil.engine import StateSpaceError, TerminalSumPayoff, evaluate_upper
from ambigil.gnormal import (CLTBridgeResult, GNormalParams, _Ramp, clt_capacity, erfc,
                             gnormal_density, gnormal_lower_tail,
                             gnormal_upper_tail, std_normal_cdf,
                             std_normal_density, step_gnormal_params)
from ambigil.model import SequenceModel, make_rademacher_interval

P12 = GNormalParams(1.0, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GNormalParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GNormalParams(2.0, 1.0)
    with pytest.raises(ValueError):
        GNormalParams(1.0, math.inf)


def test_phi_reference_values():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.0) - 0.8413447461) <= 1e-10
    assert abs(std_normal_cdf(-1.96) - 0.0249978951) <= 1e-10


def test_erfc_against_libm():
    assert erfc is math.erfc
    xs = np.concatenate([np.linspace(-12, 12, 2001), np.linspace(1.9, 2.1, 401)])
    worst = max(abs(erfc(float(x)) - math.erfc(float(x))) for x in xs)
    assert worst <= 1e-12


def test_phi_certified_against_libm_oracle():
    xs = np.linspace(-9, 9, 1801)
    worst = max(abs(std_normal_cdf(float(x)) - 0.5 * math.erfc(-float(x) / math.sqrt(2)))
                for x in xs)
    assert worst <= 1e-10


def test_phi_symmetry():
    for x in np.linspace(-8, 8, 801):
        assert abs(std_normal_cdf(float(x)) + std_normal_cdf(-float(x)) - 1.0) <= 1e-14


def test_gnormal_at_zero():
    assert abs(gnormal_upper_tail(P12, 0.0) - 2.0 / 3.0) <= 1e-12
    assert abs(gnormal_lower_tail(P12, 0.0) - 1.0 / 3.0) <= 1e-12


def test_gnormal_negative_branch():
    expected = 1.0 - (2.0 / 3.0) * std_normal_cdf(-1.0)
    assert gnormal_upper_tail(P12, -1.0) == expected
    assert abs(expected - 0.894230) <= 1e-6


def test_gnormal_far_tail():
    assert gnormal_lower_tail(P12, 50.0) <= 1e-300
    assert gnormal_upper_tail(P12, 50.0) <= 1e-100


def test_nan_argument_rejected_inf_kept():
    assert math.isnan(erfc(math.nan))
    assert (erfc(math.inf), erfc(-math.inf)) == (0.0, 2.0)
    for fn in (gnormal_upper_tail, gnormal_lower_tail, gnormal_density):
        with pytest.raises(ValueError):
            fn(P12, math.nan)
    for fn in (std_normal_cdf, std_normal_density):
        for bad in (math.nan, "0.5"):
            with pytest.raises(ValueError, match="normal argument"):
                fn(bad)
    assert (std_normal_cdf(math.inf), std_normal_cdf(-math.inf)) == (1.0, 0.0)
    assert (std_normal_density(math.inf), std_normal_density(-math.inf)) == (0.0, 0.0)
    assert (gnormal_upper_tail(P12, math.inf), gnormal_upper_tail(P12, -math.inf)) == (0.0, 1.0)
    assert (gnormal_lower_tail(P12, math.inf), gnormal_lower_tail(P12, -math.inf)) == (0.0, 1.0)


def test_far_tails_within_mills_bracket():
    """At x = z sigma each tail is w (1 - Phi(z)) with its own weight and
    sigma, and the Mills-ratio bracket phi(z) z / (1 + z^2) <= 1 - Phi(z)
    <= phi(z) / z holds for z > 0: the tails keep their relative precision
    far past the point where 1 - Phi(z) rounds to 0."""
    sides = ((gnormal_upper_tail, P12.sigma_hi, P12.weight_hi),
             (gnormal_lower_tail, P12.sigma_lo, P12.weight_lo))
    for z in np.linspace(1.0, 37.0, 721):
        z = float(z)
        phi = std_normal_density(z)
        for tail, sigma, w in sides:
            v = tail(P12, z * sigma)
            case = (tail.__name__, z)
            assert v > 0.0, case
            assert w * phi * z / (1.0 + z * z) * (1.0 - 1e-12) <= v, case
            assert v <= w * phi / z * (1.0 + 1e-12), case


def test_classical_reduction():
    p = GNormalParams(1.3, 1.3)
    for x in np.linspace(-4, 4, 41):
        ref = 1.0 - std_normal_cdf(float(x) / 1.3)
        assert abs(gnormal_upper_tail(p, float(x)) - ref) <= 1e-12
        assert abs(gnormal_lower_tail(p, float(x)) - ref) <= 1e-12


def test_duality_grid():
    for x in np.linspace(-5, 5, 100):
        lhs = gnormal_lower_tail(P12, float(x))
        rhs = 1.0 - gnormal_upper_tail(P12, -float(x))
        assert abs(lhs - rhs) <= 1e-14


def test_tails_monotone():
    xs = np.linspace(-6, 6, 301)
    ups = [gnormal_upper_tail(P12, float(x)) for x in xs]
    los = [gnormal_lower_tail(P12, float(x)) for x in xs]
    assert all(b <= a + 1e-15 for a, b in zip(ups, ups[1:]))
    assert all(b <= a + 1e-15 for a, b in zip(los, los[1:]))
    assert all(0.0 <= v <= 1.0 for v in ups + los)


def test_density_values():
    phi0 = std_normal_density(0.0)
    assert abs(gnormal_density(GNormalParams(1, 1), 0.0) - phi0) <= 1e-15
    assert abs(gnormal_density(P12, 0.0) - (2.0 / 3.0) * phi0) <= 1e-12
    assert abs(gnormal_density(P12, -1e-12) - (2.0 / 3.0) * phi0) <= 1e-9
    assert abs(phi0 - 0.3989423) <= 1e-7


def test_density_normalizes():
    zs = np.linspace(-30.0, 30.0, 120001)
    vals = np.array([gnormal_density(P12, float(z)) for z in zs])
    integral = float(np.sum((vals[1:] + vals[:-1]) * 0.5 * np.diff(zs)))
    assert abs(integral - 1.0) <= 1e-8


def test_density_matches_tail_derivative():
    for z in (-1.5, -0.3, 0.4, 2.0):
        h = 1e-6
        num = -(gnormal_upper_tail(P12, z + h) - gnormal_upper_tail(P12, z - h)) / (2 * h)
        assert abs(num - gnormal_density(P12, z)) <= 1e-6


def test_step_params():
    step = make_rademacher_interval(1, 2, 2)
    p = step_gnormal_params(step)
    assert abs(p.sigma_lo - 1.0) <= 1e-12
    assert abs(p.sigma_hi - 2.0) <= 1e-12


def test_clt_bracket_orders_and_bounded_support():
    step = make_rademacher_interval(1, 2, 2)
    r = clt_capacity(step, 50, 0.5)
    assert isinstance(r, CLTBridgeResult)
    assert 0.0 <= r.bracket_low <= r.bracket_high <= 1.0
    assert r.bracket_low <= r.dp_value <= r.bracket_high
    far = clt_capacity(step, 1, 10.0)
    assert far.bracket_low == 0.0 and far.bracket_high == 0.0


def test_clt_bracket_holds_the_exact_capacity():
    """The two ramps sandwich the indicator of {S_n >= x sqrt(n)}, so their
    upper expectations bracket the exact window capacity."""
    steps = [make_rademacher_interval(1, 2, 2), make_rademacher_interval(1, 3, 3),
             make_rademacher_interval(1, 2, 5)]
    for step in steps:
        for n in (1, 4, 16, 64, 256):
            model = SequenceModel.iid(step, n)
            for x in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0):
                r = clt_capacity(step, n, x)
                exact = upper_capacity(model, window_max_event(n, n, x * math.sqrt(n)))
                assert r.bracket_low <= exact <= r.bracket_high, (step.support.points, n, x)


def test_clt_classical_coin():
    step = make_rademacher_interval(1, 1, 1)
    r = clt_capacity(step, 400, 1.0)
    assert abs(r.dp_value - (1.0 - std_normal_cdf(1.0))) <= 0.02


def test_clt_error_trend():
    step = make_rademacher_interval(1, 2, 2)
    errs = [clt_capacity(step, n, 0.5).abs_error for n in (500, 1000, 2000)]
    assert errs[0] >= errs[1] >= errs[2]


def test_clt_forwards_state_cap():
    step = make_rademacher_interval(1, 2, 2)
    assert clt_capacity(step, 8, 0.5, state_cap=1000) == clt_capacity(step, 8, 0.5)
    with pytest.raises(StateSpaceError):
        clt_capacity(step, 8, 0.5, state_cap=10)


def test_clt_validation():
    asym = make_rademacher_interval(1, 1, 1)
    from ambigil.model import LatticeSupport, StepAmbiguity

    biased = StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.25, 0.75),))
    with pytest.raises(ValueError):
        clt_capacity(biased, 10, 0.0)
    with pytest.raises(ValueError):
        clt_capacity(asym, 0, 0.0)
    with pytest.raises(ValueError):
        clt_capacity(asym, 10, 0.0, ramp_width=0.0)
    with pytest.raises(ValueError, match="x is NaN"):
        clt_capacity(asym, 10, math.nan)
    for width in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ramp width"):
            clt_capacity(asym, 10, 0.0, ramp_width=width)
    # a finite width whose width * sqrt(n) overflows
    with pytest.raises(ValueError, match="ramp width 1e\\+308 is too wide"):
        clt_capacity(make_rademacher_interval(1, 2, 2), 4, 0.0, ramp_width=1e308)


def _scalar_ramp(lo, hw):
    return lambda s: 1.0 if s >= lo + hw else 0.0 if s <= lo else (s - lo) / hw


def test_clt_array_ramps_match_scalar_ramps():
    """Each bracket has the ``float.hex`` of ``evaluate_upper`` on a plain
    ``TerminalSumPayoff`` with the scalar ramp.  At n = 16, x = 0.5 and
    width 0.5 the ramp edges t - hw, t and t + hw are the reachable sums
    0, 2 and 4 on every step, so both the >= and the <= edge are met;
    x = ±1e308 overflows t at n > 1 and not at n = 1."""
    rng = np.random.default_rng(25)
    steps = [make_rademacher_interval(1, 2, 5), make_rademacher_interval(1, 1, 1),
             make_rademacher_interval(1, 2, 2), make_rademacher_interval(1, 3, 3)]
    xs = [0.5, 0.0, -0.0, math.inf, -math.inf, 1e308, -1e308] + rng.uniform(-2, 2, 3).tolist()
    for step in steps:
        for n in (1, 4, 16, 25):
            model = SequenceModel.iid(step, n)
            sq = math.sqrt(n)
            for x in xs:
                for width in (None, 0.5, float(rng.uniform(0.01, 3.0))):
                    r = clt_capacity(step, n, x, ramp_width=width)
                    t, hw = x * sq, r.ramp_width * sq
                    high = evaluate_upper(model, TerminalSumPayoff(_scalar_ramp(t - hw, hw)))
                    low = evaluate_upper(model, TerminalSumPayoff(_scalar_ramp(t, hw)))
                    case = (step.support.points, n, x, width)
                    assert r.bracket_high.hex() == high.hex(), case
                    assert r.bracket_low.hex() == low.hex(), case
            if n == 16:
                assert {0.0, 2.0, 4.0} <= set(engine._plan(model).reach()[1].tolist())
    # binding keeps the class, so the lattice path reads the array ramp
    bound = _Ramp(0.0, 1.0).bind(model)
    assert type(bound) is _Ramp and bound._delta == model.delta


def test_clt_brackets_pinned_bits():
    """Both brackets at the benchmark's sizes, pinned by sha256 over
    ``float.hex``; the digests were taken when each ramp ran its own DP,
    so they hold the two value rows of one DP to the bits of two DPs."""
    g5, s11 = make_rademacher_interval(1, 2, 5), make_rademacher_interval(1, 1, 1)
    want = {("G5", 125): "e84df0b6ec99ac75459fb5db7b33df74585e2809fa9251a8b6e281030081beaa",
            ("G5", 250): "d25f849a5e03f099a76d0646966d7872c89440cf71ffd44fe52bd64e0173df29",
            ("G5", 500): "4a318ce8f0499481168cfdda56205934c4f141d093bf01a59d5aac1470fabf7c",
            ("S11", 64): "c4118394e4c177e2c90fda81cdd9c349ab724516b0b9ea6314e545e722d82652"}
    for (name, n), digest in want.items():
        step = g5 if name == "G5" else s11
        vals = []
        for x in (-0.55, 0.3, 1.15):
            r = clt_capacity(step, n, x)
            vals += [r.bracket_low, r.bracket_high]
        got = hashlib.sha256(" ".join(v.hex() for v in vals).encode()).hexdigest()
        assert got == digest, (name, n)
