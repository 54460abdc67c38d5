import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigil import iterlog
from ambigil.lil import (ConditionReport, MomentSeries, check_conditions,
                         cluster_probe, conjecture_probe, continuity_probe,
                         lil_lower_experiment, lil_upper_experiment,
                         normalizers)
from ambigil.bounds import converse_rate_check
from ambigil.capacity import event_from_config
from ambigil.gnormal import clt_capacity
from ambigil.model import (LatticeSupport, SequenceModel, StepAmbiguity,
                           make_rademacher_interval)

STEP11 = make_rademacher_interval(1, 1, 1)
STEP12 = make_rademacher_interval(1, 2, 2)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-300, math.e ** math.e, allow_nan=False))
def test_loglog_convention_below_ee(x):
    assert iterlog.loglog_(x) == 1.0


def test_log_convention():
    assert iterlog.log_(1.0) == 1.0
    assert iterlog.log_(-5.0) == 1.0
    assert iterlog.log_(math.e ** 2) == 2.0


def test_normalizer_examples():
    ns = normalizers([1.0] * 50)
    assert ns.t(1) == math.sqrt(2.0)
    assert ns.a(1) == math.sqrt(2.0)
    assert abs(iterlog.d_n(10) - math.sqrt(20.0)) <= 1e-12
    assert abs(iterlog.d_n(100) - 17.477) <= 1e-3


def test_normalizers_from_model():
    m = SequenceModel.iid(STEP12, 10)
    ns = normalizers(m)
    # upper second moment of the (1,2) step is 4
    assert ns.s2(10) == 40.0
    assert ns.a(10) == math.sqrt(40.0) * math.sqrt(2.0 * iterlog.loglog_(40.0))
    with pytest.raises(IndexError):
        ns.s2(11)


def test_normalizers_validation():
    with pytest.raises(ValueError):
        normalizers([2.0, 1.0])
    with pytest.raises(ValueError):
        normalizers([])
    for bad in ([math.nan, 1.0], ["1", "2"], [True, 2.0], [1.0, 10 ** 400],
                [1.0, math.inf]):
        with pytest.raises(ValueError, match="s2 series entry"):
            normalizers(bad)


def test_moment_series_examples():
    m = SequenceModel.iid(STEP11, 10)
    ms = MomentSeries(m, p=2.0, alpha=2.0)
    # threshold alpha s_n/t_n exceeds |X| = 1 at every n here
    assert ms.overshoot_terms(4)[0] == 0.0
    one = StepAmbiguity(LatticeSupport(0.5, (-2, 2)), ((0.5, 0.5),))
    mse = MomentSeries(SequenceModel.iid(one, 5), p=2.0, alpha=0.0001)
    # nearly no threshold: expectation of (|X| - thr)^2 close to 1
    assert abs(mse.overshoot_terms(1)[0] - 1.0) <= 0.01


def test_moment_series_halfway_threshold():
    # |X| = 1 surely; force threshold exactly 0.5 via an explicit s2 series
    m = SequenceModel.iid(STEP11, 10)
    ms = MomentSeries(m, p=2.0, alpha=1.0)
    n = 3
    thr = ms._threshold(n)
    step = m.step(n)
    direct = step.upper_expectation(lambda v: max(abs(v) - 0.5, 0.0) ** 2)
    assert direct == 0.25
    # generic identity: gamma uses the same formula at thr
    assert ms.overshoot_terms(n)[0] == step.upper_expectation(
        lambda v: max(abs(v) - thr, 0.0) ** 2)


def test_barred_below_unbarred():
    rng = np.random.default_rng(6)
    from oracles import random_model

    for _ in range(10):
        m = random_model(rng, max_n=6)
        ms = MomentSeries(m, p=2.5, alpha=0.3)
        for n in range(1, m.horizon + 1):
            gamma, gamma_bar, lam, lam_bar = ms.overshoot_terms(n)
            assert gamma_bar <= gamma + 1e-12
            assert lam_bar <= lam + 1e-12
            assert lam >= 0.0 and gamma >= 0.0


def test_moment_series_validation():
    m = SequenceModel.iid(STEP11, 4)
    with pytest.raises(ValueError):
        MomentSeries(m, p=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        MomentSeries(m, p=2.0, alpha=0.0)
    for p, alpha in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            MomentSeries(m, p=p, alpha=alpha)


def test_check_conditions_classical():
    m = SequenceModel.iid(STEP11, 200)
    rep = check_conditions(m, [10, 50, 100, 200], power_p=3.0)
    assert isinstance(rep, ConditionReport)

    wit = rep.record("power-moment")
    # term at n=10: 1 / (2 * 10 * loglog 10)^{3/2}
    assert abs(wit.terms[0] - 0.0111803) <= 1e-6

    mr = rep.record("mean-ratio")
    assert all(v == 0.0 for v in mr.values)
    assert mr.verdict == "convergent-trend"

    tail = rep.record("tail-sum")
    assert all(v == 0.0 for v in tail.values)
    assert tail.verdict == "convergent-trend"

    var = rep.record("variance-divergence")
    assert var.verdict == "divergent-trend"
    assert var.values[-1] > var.values[0]

    bnd = rep.record("boundedness-ratio")
    assert bnd.values[-1] < bnd.values[0]
    expected = 1.0 * math.sqrt(2.0 * iterlog.loglog_(100.0)) / math.sqrt(100.0)
    assert abs(bnd.values[2] - expected) <= 1e-12

    assert rep.termwise_checked > 0
    assert rep.termwise_violations == ()
    assert rep.growth_check["variance_series_growing"]
    assert rep.growth_check["max_onestep_s2_ratio"] <= 2.0 + 1e-12


def test_check_conditions_overshoot_terms_are_moment_series():
    """At every checkpoint the overshoot series' terms are built from
    ``MomentSeries.overshoot_terms``' gamma and lam (capped: gamma_bar and
    lam_bar), bit for bit: on an i.i.d. model, where lam is n times one
    step's term, and on a schedule, where it is the fold over the steps."""
    s13 = make_rademacher_interval(1, 3, 3)
    cps = [1, 2, 5, 17, 40, 64]
    for m in (SequenceModel.iid(STEP12, 64), SequenceModel(64, steps=[STEP12, s13] * 32)):
        for p, alpha, d in ((2.0, 1.0, 1), (3.0, 0.4, 2)):
            rep = check_conditions(m, cps, p=p, alpha=alpha, d=d)
            ms = MomentSeries(m, p, alpha)
            for rec_id, gamma, lam in (("overshoot", 0, 2), ("capped-overshoot", 1, 3)):
                want = []
                for n in cps:
                    a = ms.norms.a(n) ** p
                    ot = ms.overshoot_terms(n)
                    want.append((ot[gamma] / a) * (ot[lam] / a) ** d)
                    if m.is_iid:
                        assert ot[lam] == n * ot[gamma]
                assert [x.hex() for x in rep.record(rec_id).terms] == [x.hex() for x in want]


def test_check_conditions_validation():
    m = SequenceModel.iid(STEP11, 10)
    with pytest.raises(ValueError):
        check_conditions(m, [])
    with pytest.raises(ValueError):
        check_conditions(m, [5, 5])
    with pytest.raises(ValueError):
        check_conditions(m, [5, 20])
    for key in ("p", "alpha", "eps", "delta", "power_p"):
        with pytest.raises(ValueError):
            check_conditions(m, [5, 10], **{key: math.nan})
    # on S12 i.i.d. at horizon 2, lam_bar is 0 (so a negative d divided by
    # it), power_p = inf made inf/inf, and the large finite values overflow
    m = SequenceModel.iid(STEP12, 2)
    with pytest.raises(ValueError, match="d must be >= 0"):
        check_conditions(m, [1, 2], d=-1)
    rep = check_conditions(m, [1, 2], d=0)
    for r in rep.records:
        assert not any(math.isnan(v) for v in r.values + r.terms)
    for key in ("p", "delta", "power_p"):
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                check_conditions(m, [1, 2], **{key: bad})
    for key, big in (("p", 1000), ("power_p", 1000), ("delta", 1e308)):
        with pytest.raises(ValueError, match="not finite") as err:
            check_conditions(m, [1, 2], **{key: big})
        # the named parameters come before the first colon, each after a space
        assert f" {key}={float(big)!r}," in str(err.value).split(":")[0] + ","
        assert "OverflowError" in str(err.value)
    # a step that is 0 surely has E[X^2] = 0, and 0 * loglog(s2)^inf would be
    # NaN: an infinite delta is rejected before any term is taken
    zero = StepAmbiguity(LatticeSupport(1.0, (-1, 0, 1)), ((0.0, 1.0, 0.0),))
    with pytest.raises(ValueError, match="delta must be finite"):
        check_conditions(SequenceModel(3, steps=[STEP12, zero, zero]), [1, 3], delta=math.inf)


def test_check_conditions_zero_first_second_moment_names_the_model():
    """A model whose first step has zero upper second moment has
    s_1 = a_1 = 0, and every condition term divides by a_n: a
    ``ValueError`` that names n = 1, not the parameters, whatever the
    checkpoints."""
    zero = StepAmbiguity(LatticeSupport(1.0, (-1, 0, 1)), ((0.0, 1.0, 0.0),))
    for steps, cps in (([zero, STEP12, zero, zero], [2, 4]),
                       ([zero, zero, STEP12, zero], [3, 4]),
                       ([zero, zero, zero, zero], [1])):
        with pytest.raises(ValueError, match=r"s_n\^2 = 0 at n = 1, so a_1 = 0") as err:
            check_conditions(SequenceModel(4, steps=steps), cps)
        assert "p=" not in str(err.value)
    # the same steps behind a nonzero first step run
    rep = check_conditions(SequenceModel(4, steps=[STEP12, zero, zero, zero]), [2, 4])
    assert all(math.isfinite(v) for r in rep.records for v in r.values + r.terms)


def test_api_integer_arguments_are_not_truncated():
    m = SequenceModel.iid(STEP11, 10)
    for bad in ([2.5, 4.9], [2, "4"], [True, 4]):
        with pytest.raises(ValueError, match="checkpoint"):
            check_conditions(m, bad)
    assert check_conditions(m, [2.0, 4]) == check_conditions(m, [2, 4])
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="d must be an integer"):
            check_conditions(m, [2, 4], d=bad)
    by_float = check_conditions(m, [2, 4], d=2.0)
    assert by_float == check_conditions(m, [2, 4], d=2)
    assert by_float.record("overshoot").details["d"] == 2
    assert type(by_float.record("overshoot").details["d"]) is int
    fam = lambda n: SequenceModel.iid(STEP12, n)
    for runner in (converse_rate_check, conjecture_probe):
        for bad in ([8.7], ["8"], [True]):
            with pytest.raises(ValueError, match="n_list"):
                runner(fam, 0.1, 1.0, bad)
        assert runner(fam, 0.1, 1.0, [8.0]) == runner(fam, 0.1, 1.0, [8])


def test_api_real_arguments_are_checked():
    m = SequenceModel.iid(STEP11, 8)
    for bad in ("0.5", True):
        for key in ("eps", "p", "alpha", "delta", "power_p"):
            with pytest.raises(ValueError, match=key):
                check_conditions(m, [2, 4], **{key: bad})
        for key in ("p", "alpha"):
            with pytest.raises(ValueError, match=key):
                MomentSeries(m, **{"p": 2.0, "alpha": 1.0, key: bad})
        for run in (lil_upper_experiment, lil_lower_experiment):
            with pytest.raises(ValueError, match="eps"):
                run(m, 2, 8, bad)
        with pytest.raises(ValueError, match="sigma"):
            cluster_probe(STEP11, 8, [1.0, bad])
        with pytest.raises(ValueError, match="eps"):
            continuity_probe(STEP12, lambda v: v * v, 3, bad)
        with pytest.raises(ValueError, match="m must be an integer"):
            continuity_probe(STEP12, lambda v: v * v, bad, 0.5)
        for args, kw in (((bad, 0.5), {}), ((8, bad), {}), ((8, 0.5), {"ramp_width": bad})):
            with pytest.raises(ValueError, match="must be (an integer|a real number)"):
                clt_capacity(STEP12, *args, **kw)
    for n, N in ((2.5, 8), (True, 8), (2, "8"), (2, 7.5)):
        for run in (lil_upper_experiment, lil_lower_experiment):
            with pytest.raises(ValueError, match="window"):
                run(m, n, N, 0.5)
    # ints and integral floats read as the same numbers; ints show as floats
    rep = check_conditions(m, [2, 4], p=3, alpha=1, eps=1, delta=1, power_p=3)
    assert rep == check_conditions(m, [2, 4], p=3.0, alpha=1.0, eps=1.0, delta=1.0, power_p=3.0)
    assert type(rep.record("overshoot").details["p"]) is float
    assert type(rep.record("tail-sum").details["eps"]) is float
    up = lil_upper_experiment(m, 2.0, 8, 1)
    assert up == lil_upper_experiment(m, 2, 8, 1.0) and type(up.eps) is float
    assert lil_lower_experiment(m, 2, 8.0, 1) == lil_lower_experiment(m, 2, 8, 1.0)
    assert cluster_probe(STEP11, 8, [1, np.float64(1.5)]) == cluster_probe(STEP11, 8, [1.0, 1.5])
    assert continuity_probe(STEP12, lambda v: v * v, 3.0, 1) == \
        continuity_probe(STEP12, lambda v: v * v, 3, 1.0)
    clt = clt_capacity(STEP12, 8.0, 1, ramp_width=1)
    assert clt == clt_capacity(STEP12, 8, 1.0, ramp_width=1.0) and type(clt.n) is int


def test_lil_upper_monotone_in_eps():
    m = SequenceModel.iid(STEP11, 128)
    hi = lil_upper_experiment(m, 16, 128, 1.0)
    lo = lil_upper_experiment(m, 16, 128, 0.1)
    assert hi.capacity <= lo.capacity
    assert hi.capacity <= hi.bound_crosscheck + 1e-12
    assert lo.capacity <= lo.bound_crosscheck + 1e-12


def test_lil_upper_single_index_window():
    m = SequenceModel.iid(STEP11, 64)
    r = lil_upper_experiment(m, 64, 64, 0.5)
    # one block; exact value dominated by the assembled bound
    assert len(r.blocks) == 1
    assert r.capacity <= r.bound_crosscheck + 1e-12
    # centering options agree for the symmetric model
    r2 = lil_upper_experiment(m, 64, 64, 0.5, center="none")
    assert r2.capacity == r.capacity
    r3 = lil_upper_experiment(m, 64, 64, 0.5, center="lower-mean")
    assert r3.capacity == r.capacity


def test_lil_upper_huge_eps_vanishes():
    m = SequenceModel.iid(STEP11, 32)
    assert lil_upper_experiment(m, 4, 32, 1000.0).capacity == 0.0


def test_conjecture_probe_ambiguous_model_runs():
    fam = lambda n: SequenceModel.iid(STEP12, n)
    tab = conjecture_probe(fam, 0.1, 1.0, [64])
    row = tab.rows[0]
    assert row.scale == 8.0  # lower second moment is 1 per step
    assert 0.0 <= row.capacity <= 1.0
    assert row.rhs == -0.5 * 0.1 * 0.1 * 2.0


def test_lil_upper_validation():
    m = SequenceModel.iid(STEP11, 16)
    with pytest.raises(ValueError):
        lil_upper_experiment(m, 8, 32, 1.0)
    with pytest.raises(ValueError):
        lil_upper_experiment(m, 0, 8, 1.0)
    with pytest.raises(ValueError):
        lil_upper_experiment(m, 2, 8, 1.0, center="median")
    for center in ("upper", "lower"):
        with pytest.raises(ValueError):
            lil_upper_experiment(m, 2, 8, 1.0, center=center)


def test_lil_experiments_reject_non_finite_eps():
    m = SequenceModel.iid(STEP11, 16)
    for eps in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps must be finite"):
            lil_upper_experiment(m, 2, 8, eps)
        with pytest.raises(ValueError, match="eps must be finite"):
            lil_lower_experiment(m, 2, 8, eps)


def test_lil_lower_monotone_in_N():
    m = SequenceModel.iid(STEP11, 256)
    vals = [lil_lower_experiment(m, 16, N, 0.5) for N in (16, 64, 256)]
    assert vals[0] <= vals[1] <= vals[2]


def test_lil_lower_eps_one_at_least_half():
    m = SequenceModel.iid(STEP11, 32)
    assert lil_lower_experiment(m, 1, 32, 1.0) >= 0.5
    assert lil_lower_experiment(m, 5, 5, 1.0) >= 0.5


def test_lil_lower_impossible_threshold():
    m = SequenceModel.iid(STEP11, 16)
    assert lil_lower_experiment(m, 1, 16, -1000.0) == 0.0


def test_cluster_probe_rows():
    rows = cluster_probe(STEP11, 64, [-1.0, 0.5, 3.0])
    by_sigma = {r.sigma: r for r in rows}
    assert by_sigma[-1.0].upper == 1.0 and by_sigma[-1.0].lower == 1.0
    assert by_sigma[3.0].upper < by_sigma[0.5].upper
    assert by_sigma[3.0].upper < 0.05
    assert cluster_probe(STEP11, 16, []) == []


def test_cluster_probe_needs_centered_step():
    biased = StepAmbiguity(LatticeSupport(1.0, (-1, 1)), ((0.25, 0.75),))
    with pytest.raises(ValueError):
        cluster_probe(biased, 8, [1.0])


def test_continuity_probe_fixture():
    r = continuity_probe(STEP12, lambda v: v * v, 3, 0.5)
    assert (r.high_event_upper, r.low_event_upper) == (1.0, 1.0)
    assert (r.high_event_lower, r.low_event_lower) == (0.0, 0.0)
    assert (r.phi_lower, r.phi_upper) == (1.0, 4.0)


def test_continuity_probe_linear_case():
    r = continuity_probe(STEP11, lambda v: v * v, 4, 0.5)
    assert r.high_event_upper == r.high_event_lower
    assert r.low_event_upper == r.low_event_lower


def test_continuity_probe_nan_eps_rejected():
    with pytest.raises(ValueError):
        continuity_probe(STEP12, lambda v: v * v, 3, math.nan)


def test_continuity_probe_non_finite_mean_rejected():
    for payoff in (lambda v: v ** math.nan, lambda v: math.inf if v > 1.5 else v,
                   lambda v: v ** 1e308):
        with pytest.raises(ValueError, match="non-finite mean"):
            continuity_probe(STEP12, payoff, 3, 0.5)


def test_conjecture_probe_nan_slack_or_alpha_rejected():
    fam = lambda n: SequenceModel.iid(STEP12, n)
    for kw in ({"slack": math.nan}, {"alpha": math.nan}):
        with pytest.raises(ValueError):
            conjecture_probe(fam, 0.1, 1.0, [64], **kw)


def test_continuity_probe_wide_eps():
    r = continuity_probe(STEP12, lambda v: v * v, 3, 10.0)
    assert (r.high_event_upper, r.low_event_upper,
            r.high_event_lower, r.low_event_lower) == (1.0, 1.0, 1.0, 1.0)


def test_linear_case_windows_match_forward_oracle():
    from oracles import classical_window_probability
    from ambigil.capacity import window_max_event
    from ambigil.lil import cumulative_upper_second_moments

    m = SequenceModel.iid(STEP11, 128)
    ns = normalizers(m)
    for (n, N, eps) in ((8, 64, 0.5), (16, 128, 0.25)):
        a = [0.0] + [ns.a(k) for k in range(1, N + 1)]
        ev = window_max_event(n, N, lambda k: (1.0 - eps) * a[k], ">=", "S")
        dp = lil_lower_experiment(m, n, N, eps)
        oracle = classical_window_probability(m, ev)
        assert abs(dp - oracle) <= 1e-10
    assert cumulative_upper_second_moments(m)[128] == 128.0


def test_conjecture_probe_linear_case_matches_converse():
    fam = lambda n: SequenceModel.iid(STEP11, n)
    xlog = lambda n: math.sqrt(2.0 * math.log(n))
    conj = conjecture_probe(fam, 0.1, 1.0, [128, 256], x_fn=xlog)
    conv = converse_rate_check(fam, 0.1, 1.0, [128, 256], x_fn=xlog)
    for a, b in zip(conj.rows, conv.rows):
        assert abs(a.lhs - b.lhs) <= 1e-9
        assert a.rhs == b.rhs
    assert conj.side == "lower"
    assert conjecture_probe(fam, 0.1, 1.0, []).rows == ()


def test_window_experiments_pinned_bits():
    """The window experiments at N=256, bit for bit (``float.hex``), on S12
    i.i.d. and on the alternating S12/S13 schedule.  The steps are
    centered, so the three centerings agree."""
    step13 = make_rademacher_interval(1, 3, 3)
    iid = SequenceModel.iid(STEP12, 256)
    alt = SequenceModel(256, steps=[STEP12 if k % 2 == 0 else step13 for k in range(256)])
    for model, lower, upper in ((iid, "0x1.2e5f9c5778feap-1", "0x1.d4a2bfb5782ebp-4"),
                                (alt, "0x1.2beebb068e19ap-1", "0x1.a827a1fda7821p-4")):
        assert lil_lower_experiment(model, 16, 256, 0.45).hex() == lower
        for center in ("upper-mean", "lower-mean", "none"):
            r = lil_upper_experiment(model, 16, 256, 0.2, center=center)
            assert (r.capacity.hex(), r.bound_crosscheck.hex()) == (upper, "0x1.0000000000000p+0")
    rows = cluster_probe(STEP12, 256, (0.7, 1.3, 2.9))
    assert [(r.upper.hex(), r.lower.hex()) for r in rows] == [
        ("0x1.d407d801136ecp-1", "0x1.58ee0543ee0a5p-1"),
        ("0x1.8a4aedd71ad76p-1", "0x1.5ec85f87b8798p-3"),
        ("0x1.dcc934e4a3d37p-4", "0x1.3af6290ec0000p-17")]


def _hex_digest(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def test_window_experiments_pinned_bits_at_benchmark_sizes():
    """The window experiments at the largest sizes of the lil-windows
    benchmark, bit for bit: ``lil_lower_experiment`` on S12 i.i.d. at
    N = 2048, both experiments on the alternating S12/S13 schedule at
    N = 1024, and ``cluster_probe`` on S12 at N = 512 and on S11 at
    N = 128.  Pinned by the sha256 of the values' ``float.hex``, taken
    before the one-weight band step and the precomputed fired ranges."""
    step13 = make_rademacher_interval(1, 3, 3)
    alt = SequenceModel(1024, steps=[STEP12 if k % 2 == 0 else step13 for k in range(1024)])
    values = [lil_lower_experiment(SequenceModel.iid(STEP12, 2048), 16, 2048, 0.45),
              lil_lower_experiment(alt, 16, 1024, 0.45)]
    r = lil_upper_experiment(alt, 16, 1024, 0.2)
    values += [r.capacity, r.bound_crosscheck]
    for step, N in ((STEP12, 512), (STEP11, 128)):
        values += [v for row in cluster_probe(step, N, (0.7, 1.3, 2.9))
                   for v in (row.upper, row.lower)]
    assert len(values) == 16 and all(0.0 < v <= 1.0 for v in values)
    assert _hex_digest(values) == (
        "eef9df61d5f9bc06158c8dce17f1d9c708eb21e9cc562b8b52d5afddf14952f1")


def test_cluster_probe_grid_edges_pinned_bits():
    """``cluster_probe`` over the grid (-0.5, 0.7, 0.7, 1.3, 2.9, 40.0) on S12
    at N = 256 and on S11 at N = 128, bit for bit: a negative sigma, a
    repeated one and one whose event never fires, all rows of one DP.
    Pinned by the sha256 of the values' ``float.hex``, taken while each
    sigma still had its own DP."""
    grid = (-0.5, 0.7, 0.7, 1.3, 2.9, 40.0)
    values = []
    for step, N in ((STEP12, 256), (STEP11, 128)):
        rows = cluster_probe(step, N, grid)
        assert [r.sigma for r in rows] == list(grid)
        assert (rows[-1].upper, rows[-1].lower) == (0.0, 0.0)
        values += [v for row in rows for v in (row.upper, row.lower)]
    assert _hex_digest(values) == (
        "17628bf1a7cd13f5a04f5678d4231d1beb65ead533ee84d4a7f872dd2f31d3d1")
    assert cluster_probe(STEP12, 8, ()) == []


def test_lil_scales_pinned_bits():
    """Every reader of s_n, t_n and a_n, bit for bit, on the 96-step
    alternating S12/S13 schedule: ``check_conditions`` record values and
    terms (and the growth check) under two parameter sets, the normalizer
    entries and ``MomentSeries``' four reads, these also on S12 i.i.d.;
    ``lil_upper_experiment``'s block x, y and b2y under the three
    centerings; the ``a_n`` thresholds of ``event_from_config`` at scale
    0.7.  Each family is pinned by the sha256 of its values' ``float.hex``,
    taken before the scales moved into one table."""
    step13 = make_rademacher_interval(1, 3, 3)
    alt = SequenceModel(96, steps=[STEP12, step13] * 48)
    iid = SequenceModel.iid(STEP12, 96)
    cps = [1, 2, 5, 17, 40, 64, 96]
    conditions = []
    for model in (alt, iid):
        for kw in ({}, {"p": 3.0, "alpha": 0.4, "d": 2, "eps": 0.5, "delta": 0.25}):
            rep = check_conditions(model, cps, **kw)
            for r in rep.records:
                conditions += r.values + r.terms
            g = rep.growth_check
            conditions += [g[k] for k in ("max_onestep_s2_ratio", "s2_first", "s2_last",
                                          "variance_series_first", "variance_series_last")]
            conditions.append(rep.termwise_checked)
    series = []
    for model in (alt, iid):
        ns = normalizers(model)
        series += [f(m) for m in range(1, 97) for f in (ns.s2, ns.s, ns.t, ns.a)]
        ms = MomentSeries(model, 3.0, 0.4)
        series += [v for n in cps for v in ms.overshoot_terms(n)]
    blocks = [v for center in ("upper-mean", "lower-mean", "none")
              for b in lil_upper_experiment(alt, 8, 96, 0.2, center=center).blocks
              for v in (b.x, b.y, b.b2y)]
    ev = event_from_config({"window": {"n": 1, "N": 96},
                            "threshold": {"kind": "a_n", "scale": 0.7}}, alt)
    thresholds = [ev.threshold(m) for m in range(1, 97)]
    assert (len(conditions), len(series), len(blocks), len(thresholds)) == (360, 824, 36, 96)
    assert _hex_digest(conditions) == (
        "78038e35c34d39e532dd9839840dd2239452caf34cba49185ea8ae0eb6ec0cce")
    assert _hex_digest(series) == (
        "a9cd41fba654eefc7eae7ea741244943ef47f5179a927c236b616e4fea240d26")
    assert _hex_digest(blocks) == (
        "b70df4bf08e8e0eb61bfb1b5f80aa1cf6b01b57d0da26e6a5c3abb8a161bde57")
    assert _hex_digest(thresholds) == (
        "4d7fd75058109add18a330b26f2882187106cd3d83f751eaa5b97094919edcbe")


def test_moment_series_fold_pinned_bits():
    """``MomentSeries``' lam and lam_bar on a 1200-step schedule of three
    step kinds in an irregular order, bit for bit: the sha256 of their
    ``float.hex`` at 24 n under two parameter sets, taken while each n's
    fold still ran over a Python list of the per-step terms."""
    kinds = (STEP11, STEP12, make_rademacher_interval(1, 3, 3))
    model = SequenceModel(1200, steps=[kinds[(k * k + k // 7) % 3] for k in range(1200)])
    ns = [1, 2, 3, 4, 7, 10, 31, 64, 99, 128, 200, 255, 256, 401, 512, 640, 777, 900,
          1000, 1023, 1024, 1111, 1199, 1200]
    values = []
    # thresholds alpha s_n / t_n stay below the largest point, so every term
    # of every fold is positive
    for p, alpha in ((2.0, 0.05), (3.0, 0.02)):
        ms = MomentSeries(model, p, alpha)
        values += [v for n in ns for v in ms.overshoot_terms(n)[2:]]
    assert len(values) == 96 and min(values) > 0
    assert _hex_digest(values) == (
        "759dcba4f1cc76a52ff6e641f5214d194ec83385d3cfc2d9c7012323348d6e7c")
