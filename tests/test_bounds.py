import math

import numpy as np
import pytest

from ambigil.bounds import (BoundInputs, DominationGrid, converse_rate_check,
                            domination_case, domination_rows, fuk_nagaev_bound,
                            kolmogorov_bound, pi_gamma, simplified_bound,
                            verify_domination)
from ambigil.capacity import choquet_integral, mc_capacity_lower_bound, window_max_event
from ambigil.gnormal import GNormalParams
from ambigil.lil import conjecture_probe
from ambigil.model import SequenceModel, make_rademacher_interval


def test_kolmogorov_examples():
    v = kolmogorov_bound(1.0, 1.0, 1.0)
    assert abs(v - math.exp(-0.25 * (1 + (2 / 3) * math.log(2)))) <= 1e-15
    assert abs(v - 0.6938) <= 1e-4
    assert abs(kolmogorov_bound(2.0, 1e-9, 1.0) - math.exp(-2.0)) <= 1e-8
    assert kolmogorov_bound(0.0, 1.0, 1.0) == 1.0
    assert kolmogorov_bound(1.0, 1.0, 0.0) == 0.0


def test_kolmogorov_monotonicity():
    xs = np.linspace(0.1, 5.0, 40)
    vals = [kolmogorov_bound(float(x), 0.7, 1.3) for x in xs]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    v2s = np.linspace(0.1, 5.0, 40)
    vals2 = [kolmogorov_bound(1.7, 0.7, float(v)) for v in v2s]
    assert all(b >= a - 1e-15 for a, b in zip(vals2, vals2[1:]))


def test_kolmogorov_bound_dominates_bennett():
    """With u = xy/v2 the exponent is (v2/y^2) u^2 (1 + (2/3) ln(1+u)) / (2(1+u)),
    which stays at most Bennett's (v2/y^2) ((1+u) ln(1+u) - u): their ratio
    lies in [0.43, 1) over u in [1e-4, 1e4], tending to 1 as u -> 0."""
    for y in (0.3, 1.0, 7.0):
        for v2 in (0.01, 1.0, 50.0):
            for u in np.logspace(-4, 4, 801):
                u = float(u)
                bennett = math.exp(-(v2 / y ** 2) * ((1 + u) * math.log1p(u) - u))
                assert kolmogorov_bound(u * v2 / y, y, v2) >= bennett, (u, y, v2)


def test_fuk_nagaev_examples():
    v = fuk_nagaev_bound(BoundInputs(x=10, y=1, p=2, delta=1, v2=1,
                                     a_moment=0.01, max_tail=0))
    assert abs(v - (2 * math.exp(4) * 0.01 + math.exp(-25))) <= 1e-12
    assert abs(v - 1.09196) <= 1e-5
    v2 = fuk_nagaev_bound(BoundInputs(x=10, y=0.5, p=2, delta=1, v2=1,
                                      a_moment=1e-6, max_tail=0))
    assert abs(v2 - 1.76e-9) <= 1e-11
    v3 = fuk_nagaev_bound(BoundInputs(x=10, y=1, p=2, delta=1, v2=1,
                                      a_moment=0.0, max_tail=0.125))
    assert v3 == 0.125 + math.exp(-25)


def test_fuk_nagaev_dominates_exponential_term():
    rng = np.random.default_rng(2)
    for _ in range(50):
        i = BoundInputs(x=float(rng.uniform(0.1, 5)), y=float(rng.uniform(0.1, 3)),
                        p=float(rng.choice([2, 3, 4])), delta=float(rng.uniform(0.1, 1)),
                        v2=float(rng.uniform(0.01, 4)), a_moment=float(rng.uniform(0, 2)),
                        max_tail=float(rng.uniform(0, 1)))
        expterm = math.exp(-i.x ** 2 / (2 * (1 + i.delta) * i.v2))
        assert fuk_nagaev_bound(i) >= expterm


def test_simplified_examples():
    v = simplified_bound(10.0, 2.0, 1.0, c_p=1.0, abs_moment_sum=1.0, v2=1.0)
    assert abs(v - (0.01 + math.exp(-25))) <= 1e-15
    assert simplified_bound(10.0, 2.0, 1.0, c_p=1.0, abs_moment_sum=0.0, v2=1.0) == \
        math.exp(-25)
    assert simplified_bound(0.0, 2.0, 1.0, c_p=1.0, abs_moment_sum=1.0, v2=1.0) == math.inf
    with pytest.raises(ValueError):
        simplified_bound(1.0, 2.0, 1.0, c_p=0.0, abs_moment_sum=1.0, v2=1.0)


def test_bounds_survive_extreme_inputs():
    b = fuk_nagaev_bound(BoundInputs(x=1e6, y=1e-3, p=2, delta=1, v2=1,
                                     a_moment=5.0, max_tail=0))
    assert b == math.inf
    assert simplified_bound(1.0, 4.0, 1e-200, 1.0, 1.0, 1.0) == math.inf


def test_pi_gamma_values():
    assert abs(pi_gamma(1.0) - 0.0013404) <= 1e-7
    assert abs(pi_gamma(0.1) - 3.384e-5) <= 1e-8
    assert abs(pi_gamma(1e12) - 0.0024984) <= 1e-7


def test_pi_gamma_monotone_and_capped():
    gs = np.logspace(-3, 6, 60)
    vals = [pi_gamma(float(g)) for g in gs]
    assert all(b >= a - 1e-18 for a, b in zip(vals, vals[1:]))
    assert max(vals) <= 0.0024984 + 1e-7
    with pytest.raises(ValueError):
        pi_gamma(0.0)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(x=0.0, y=1.0)
    with pytest.raises(ValueError):
        BoundInputs(x=1.0, y=-1.0)
    with pytest.raises(ValueError):
        BoundInputs(x=1.0, y=1.0, p=1.5)
    with pytest.raises(ValueError):
        BoundInputs(x=1.0, y=1.0, delta=1.5)
    with pytest.raises(ValueError):
        BoundInputs(x=1.0, y=1.0, max_tail=1.5)


FAM = lambda n: SequenceModel.iid(make_rademacher_interval(1, 1, 1), n)


def test_converse_rate_precondition():
    with pytest.raises(ValueError) as ei:
        converse_rate_check(FAM, 0.1, 1.0, [64], alpha=1.0)
    msg = str(ei.value)
    assert "pi(gamma)" in msg and "z*alpha" in msg
    # boundary alpha = pi(gamma)/z accepted (the default)
    tab = converse_rate_check(FAM, 0.1, 1.0, [64])
    assert tab.alpha == pi_gamma(1.0) / 0.1


def test_converse_rate_non_finite_slack_or_alpha_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slack"):
            converse_rate_check(FAM, 0.1, 1.0, [64], slack=bad)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="alpha"):
            converse_rate_check(FAM, 0.1, 1.0, [64], alpha=bad)


def test_converse_rate_empty():
    tab = converse_rate_check(FAM, 0.1, 1.0, [])
    assert tab.rows == () and not tab.violation


def test_converse_rate_rows():
    xlog = lambda n: math.sqrt(2.0 * math.log(n))
    tab = converse_rate_check(FAM, 0.1, 1.0, [256, 1024], x_fn=xlog)
    assert len(tab.rows) == 2
    for row in tab.rows:
        assert row.rhs == -0.5 * 0.1 * 0.1 * (1.0 + 1.0)
        assert row.lhs < 0.0 and math.isfinite(row.lhs)
        assert row.capacity > 0
    assert tab.rows[0].lhs < tab.rows[1].lhs  # improving with n
    assert not tab.violation


def test_domination_degenerate_model():
    from ambigil.model import LatticeSupport, StepAmbiguity

    zero = StepAmbiguity(LatticeSupport(1.0, (0,)), ((1.0,),))
    m = SequenceModel.iid(zero, 4)
    case = domination_case(m, x=1.0, y=1.0, p=2.0, delta=1.0)
    assert case.lhs_upper == 0.0
    assert case.violations == ()


def test_domination_fixture_case():
    m = SequenceModel.iid(make_rademacher_interval(1, 2, 2), 4)
    case = domination_case(m, x=1.0, y=1.0, p=2.0, delta=1.0, case_id=7)
    assert case.violations == ()
    assert case.lhs_upper <= case.bound_31 + 1e-12
    assert case.lhs_upper <= case.bound_32 + 1e-12
    assert case.lhs_lower <= case.lhs_upper + 1e-12
    assert case.max_tail >= 0.0


def test_verify_domination_small_run():
    rep = verify_domination(120, seed=7)
    assert rep.violation_count == 0
    assert len(rep.cases) == 120
    rep2 = verify_domination(120, seed=7)
    assert rep2 == rep  # deterministic by case index
    rows = list(domination_rows(rep))
    assert len(rows) == 240
    assert rows[0][0].endswith(":upper") and rows[1][0].endswith(":lower")


def test_verify_domination_validation():
    with pytest.raises(ValueError):
        verify_domination(0, seed=1)


def test_domination_grid_override():
    rep = verify_domination(20, seed=3, grid=DominationGrid(n_range=(2, 4)))
    assert all(c.n <= 4 for c in rep.cases)
    assert rep.violation_count == 0


def test_api_numeric_arguments_are_read_at_entry():
    # a NaN, a bool, a string or a fraction fails at entry with the argument's
    # name, never as a silent NaN, a bool read as 1 or a TypeError
    nan = math.nan
    model = SequenceModel.iid(make_rademacher_interval(1, 2, 2), 4)
    event = window_max_event(1, 4, 2.0)
    mc = lambda reps, seed: mc_capacity_lower_bound(model, event, ("constant", 1), reps, seed)
    bad = [
        ("x is NaN", lambda: kolmogorov_bound(nan, 1, 1)),
        ("x is NaN", lambda: simplified_bound(nan, 2.0, 0.5, 1.0, 1.0, 1.0)),
        ("v2 is NaN", lambda: fuk_nagaev_bound(BoundInputs(x=1, y=1, v2=nan))),
        ("a_moment is NaN", lambda: fuk_nagaev_bound(BoundInputs(x=1, y=1, a_moment=nan))),
        ("atom is NaN", lambda: choquet_integral(lambda t: 0.5, [nan, 1.0])),
        ("tail capacity is NaN", lambda: choquet_integral(lambda t: nan, [0, 1, 2])),
        ("x must be a real", lambda: kolmogorov_bound(True, 1, 1)),
        ("z must be a real", lambda: converse_rate_check(FAM, True, 1.0, [16])),
        ("case_count must be an integer", lambda: verify_domination(True, 1)),
        ("sigma_lo must be a real", lambda: GNormalParams(True, 2)),
        ("x must be a real", lambda: BoundInputs(x="1", y=1)),
        ("gamma must be a real", lambda: pi_gamma("1")),
        ("z must be a real", lambda: converse_rate_check(FAM, "0.1", 1.0, [16])),
        ("case_count must be an integer", lambda: verify_domination(2.5, 1)),
        ("seed must be an integer", lambda: verify_domination(1, 1.5)),
        ("replications must be an integer", lambda: mc(100.5, 1)),
        ("seed must be an integer", lambda: mc(100, 1.5)),
        ("seed must be an integer", lambda: mc(100, "1")),
        ("sigma_lo must be a real", lambda: GNormalParams("1", 2)),
        ("sigma_lo must be a real", lambda: make_rademacher_interval("1", 2, 2)),
        ("grid must be an integer", lambda: make_rademacher_interval(1, 2, 2.5)),
        ("grid must be an integer", lambda: make_rademacher_interval(1, 2, True)),
    ]
    for match, call in bad:
        with pytest.raises(ValueError, match=match):
            call()
    # integral floats read as ints; stored parameters keep the type they were given
    assert mc(200.0, 1) == mc(200, 1) and type(mc(200.0, 1).replications) is int
    assert verify_domination(2.0, 1) == verify_domination(2, 1)
    assert kolmogorov_bound(1, 1, 1) == kolmogorov_bound(1.0, 1.0, 1.0)
    assert type(BoundInputs(x=1, y=1).x) is int
    assert "delta=1," in repr(make_rademacher_interval(1, 1, 1))


def test_kolmogorov_bound_rejects_non_finite_arguments():
    inf = math.inf
    for args in ((inf, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, inf), (-inf, 1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            kolmogorov_bound(*args)


def test_rate_tables_reject_bad_x_n():
    """``x_fn(n)`` goes through ``_finite`` and must be positive, on both rate
    tables: 0, a negative value, NaN and ±inf raise ``ValueError`` naming
    x_n, never a ``ZeroDivisionError`` or a row with ``lhs=-inf``."""
    for table in (converse_rate_check, conjecture_probe):
        for bad, msg in ((0.0, "x_n at n=16 must be positive"),
                         (-1.5, "x_n at n=16 must be positive"),
                         (math.nan, "x_n at n=16 is NaN"),
                         (math.inf, "x_n at n=16 must be finite"),
                         (-math.inf, "x_n at n=16 must be finite"),
                         ("2.0", "x_n at n=16 must be a real number")):
            with pytest.raises(ValueError, match=msg):
                table(FAM, 0.1, 1.0, [16], x_fn=lambda n: bad)
        good = table(FAM, 0.1, 1.0, [16], x_fn=lambda n: 2)
        assert good.rows[0].x_n == 2.0 and isinstance(good.rows[0].x_n, float)
