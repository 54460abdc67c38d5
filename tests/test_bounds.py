import math

import numpy as np
import pytest

from ambigil.bounds import (BoundInputs, DominationGrid, converse_rate_check,
                            domination_case, domination_rows, fuk_nagaev_bound,
                            kolmogorov_bound, pi_gamma, simplified_bound,
                            verify_domination)
from ambigil.model import SequenceModel, make_rademacher_interval

from oracles import random_model


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
