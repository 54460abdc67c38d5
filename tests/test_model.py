import json
import math

import numpy as np
import pytest

from ambigil.model import (LatticeSupport, SequenceModel, StepAmbiguity,
                           make_rademacher_interval, running_sums)

from oracles import random_model


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSupport(0.0, (1,))
    with pytest.raises(ValueError):
        LatticeSupport(1.0, ())
    with pytest.raises(ValueError):
        LatticeSupport(1.0, (2, 1))
    with pytest.raises(ValueError):
        LatticeSupport(1.0, (1, 1))
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            LatticeSupport(delta, (-1, 1))
    for points in ((-1, 1.5), ("-1", "1")):
        with pytest.raises(ValueError):
            LatticeSupport(1.0, points)
    sup = LatticeSupport(0.5, (-2, 3))
    assert sup.values().tolist() == [-1.0, 1.5]
    assert sup.radius == 1.5


def test_lattice_points_read_as_ints():
    sup = LatticeSupport(1.0, (0, 1.0))
    assert sup.points == (0, 1) and all(type(p) is int for p in sup.points)
    assert LatticeSupport(1.0, [-1, np.int64(1)]).points == (-1, 1)
    assert hash(LatticeSupport(1.0, [-1, 1])) == hash(LatticeSupport(1.0, (-1, 1)))
    for points in ((False, True), (0, "1")):
        with pytest.raises(ValueError, match="lattice point"):
            LatticeSupport(1.0, points)


def test_lattice_delta_checked_not_converted():
    for delta in ("1", True, [1.0], -math.inf):
        with pytest.raises(ValueError, match="lattice delta"):
            LatticeSupport(delta, (-1, 1))
    assert type(LatticeSupport(1, (-1, 1)).delta) is int


def test_measure_entries_checked():
    sup = LatticeSupport(1.0, (-1, 1))
    for bad in (("0.5", 0.5), (True, 0.0), (0.5, [0.5]), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="measure entry"):
            StepAmbiguity(sup, (bad,))
    stored = StepAmbiguity(sup, [[1, np.float64(0.0)]]).measures
    assert stored == ((1.0, 0.0),) and all(type(x) is float for x in stored[0])


def test_step_validation():
    sup = LatticeSupport(1.0, (-1, 1))
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ())
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ((0.5, 0.5, 0.0),))
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ((0.6, 0.6),))
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ((-0.1, 1.1),))
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ((math.nan, 1.0),))
    with pytest.raises(ValueError):
        StepAmbiguity(sup, ((0.5, 0.5), (math.nan, math.nan)))
    step = StepAmbiguity(sup, ((0.5, 0.5), (0.25, 0.75)))
    assert step.n_measures == 2
    assert step.upper_expectation(lambda v: v) == 0.5
    assert step.lower_expectation(lambda v: v) == 0.0


def test_sequence_model_validation():
    step = make_rademacher_interval(1, 1, 1)
    with pytest.raises(ValueError):
        SequenceModel(0, iid_step=step)
    with pytest.raises(ValueError):
        SequenceModel(2, steps=[step])
    for horizon in (2.5, "2", True):
        with pytest.raises(ValueError):
            SequenceModel(horizon, iid_step=step)
    other = make_rademacher_interval(0.5, 0.5, 1)
    with pytest.raises(ValueError):
        SequenceModel(2, steps=[step, other])
    m = SequenceModel.iid(step, 3)
    assert m.step(1) is m.step(3)
    with pytest.raises(IndexError):
        m.step(4)


def test_rademacher_single():
    step = make_rademacher_interval(1, 1, 1)
    assert step.support.delta == 1.0
    assert step.support.points == (-1, 1)
    assert step.measures == ((0.5, 0.5),)


def test_rademacher_endpoints():
    step = make_rademacher_interval(1, 2, 2)
    assert step.support.delta == 1.0
    assert step.support.points == (-2, -1, 1, 2)
    assert step.measures == ((0.0, 0.5, 0.5, 0.0), (0.5, 0.0, 0.0, 0.5))


def test_rademacher_grid3():
    step = make_rademacher_interval(1, 2, 3)
    assert step.support.delta == 0.5
    # thetas 1, 1.5, 2 at lattice indices 2, 3, 4
    assert step.support.points == (-4, -3, -2, 2, 3, 4)
    assert len(step.measures) == 3
    for m in step.measures:
        assert math.isclose(sum(m), 1.0, abs_tol=1e-12)
        assert sorted(m)[-2:] == [0.5, 0.5]


def test_rademacher_errors():
    with pytest.raises(ValueError):
        make_rademacher_interval(1, 2, 1)
    with pytest.raises(ValueError):
        make_rademacher_interval(2, 1, 2)
    with pytest.raises(ValueError):
        make_rademacher_interval(0.1, 10.0, 2)  # lo collapses onto 0


def test_json_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_model(rng)
        m2 = SequenceModel.from_json(m.to_json())
        assert m2.horizon == m.horizon
        assert m2.delta == m.delta
        for k in range(1, m.horizon + 1):
            assert m2.step(k).support.points == m.step(k).support.points
            assert m2.step(k).measures == m.step(k).measures
    p = tmp_path / "model.json"
    m.save(p)
    m3 = SequenceModel.load(p)
    assert m3.to_dict() == m.to_dict()


def test_from_dict_errors():
    with pytest.raises(ValueError):
        SequenceModel.from_dict({"horizon": 2})
    with pytest.raises(ValueError):
        SequenceModel.from_dict({"delta": 1.0, "iid": {}})
    doc = json.loads(SequenceModel.iid(make_rademacher_interval(1, 1, 1), 2).to_json())
    doc["iid"]["measures"][0][0] = 0.7  # no longer sums to 1
    with pytest.raises(ValueError):
        SequenceModel.from_dict(doc)
    with pytest.raises(ValueError):
        SequenceModel.from_dict({"horizon": 2, "delta": 1.0, "iid": {"points": [-1, 1]}})
    with pytest.raises(ValueError):
        SequenceModel.from_dict([1, 2])
    good = {"horizon": 2, "delta": 1.0, "iid": {"points": [-1, 1], "measures": [[0.5, 0.5]]}}
    assert SequenceModel.from_dict(good).horizon == 2
    # delta and the measure entries take JSON numbers only, never read as 1 or parsed
    assert type(SequenceModel.from_dict({**good, "delta": 1}).delta) is int  # kept as given
    for key, value in (("horizon", 2.5), ("horizon", "2"), ("delta", math.inf),
                       ("points", [-1, 1.5]), ("points", ["-1", "1"]), ("points", [-1, True]),
                       ("delta", True), ("delta", "1"), ("delta", 10 ** 400),
                       ("measures", [["0.5", 0.5]]), ("measures", [[True, 0.0]]),
                       ("measures", [[10 ** 400, 0.0]])):
        bad = json.loads(json.dumps(good))
        (bad["iid"] if key in ("points", "measures") else bad)[key] = value
        with pytest.raises(ValueError):
            SequenceModel.from_dict(bad)


def test_running_sums_is_a_plain_left_fold():
    # a compensated sum (builtin sum() from Python 3.12 on, math.fsum) gives 1.0 in both
    assert running_sums([0.1] * 10)[-1] == 0.9999999999999999
    assert running_sums([1e16, 1.0, -1e16])[-1] == 0.0
    assert running_sums([]) == [0.0]
    assert running_sums([1.5, -0.5, 2.0]) == [0.0, 1.5, 1.0, 3.0]


def test_measure_total_is_the_left_fold_on_every_python():
    # 10**5 weights of 1e-5: the left fold misses 1 by 1.92e-12 > PROB_TOL, while
    # the builtin sum() compensates to exactly 1.0 from Python 3.12 on
    weights = (1e-5,) * 10 ** 5
    assert running_sums(weights)[-1] == 0.9999999999980838
    with pytest.raises(ValueError, match="sums to 0.9999999999980838"):
        StepAmbiguity(LatticeSupport(1.0, tuple(range(10 ** 5))), (weights,))


def test_per_step_calls_fn_once_per_distinct_step():
    s12, s13 = make_rademacher_interval(1, 2, 2), make_rademacher_interval(1, 3, 3)
    sched = SequenceModel(96, steps=[s12 if k % 2 else s13 for k in range(96)])
    iid = SequenceModel.iid(s12, 96)
    for model, distinct in ((sched, 2), (iid, 1)):
        calls = []

        def radius(step):
            calls.append(step)
            return step.support.radius

        assert model.per_step(radius) == [s.support.radius for s in model.steps()]
        assert len(calls) == distinct
        calls.clear()
        assert model.per_step(radius, 5) == [s.support.radius for s in model.steps()][:5]
        assert len(calls) == distinct
        calls.clear()
        assert model.per_step(radius, 0) == [] and calls == []
        assert model.per_step(radius, -3) == [] and calls == []
    with pytest.raises(IndexError):
        iid.per_step(lambda s: 0.0, 97)

    # three kinds, the third first at step 7: calls come in first-occurrence order
    s11 = make_rademacher_interval(1, 1, 1)
    steps = [s13, s12] * 3 + [s11, s12, s11, s13, s11, s12]
    three = SequenceModel(12, steps=steps)
    calls = []

    def first_seen(step):
        calls.append(step)
        return len(calls)

    assert three.per_step(first_seen) == [1, 2] * 3 + [3, 2, 3, 1, 3, 2]
    assert [id(s) for s in calls] == [id(s13), id(s12), id(s11)]
    for upto in (6, 1):
        calls.clear()
        assert three.per_step(first_seen, upto) == [1, 2, 1, 2, 1, 2][:upto]
        assert [id(s) for s in calls] == [id(s13), id(s12)][:upto]
    calls.clear()
    assert three.per_step(first_seen, 7)[-1] == 3 and len(calls) == 3
    calls.clear()
    assert three.per_step(first_seen, -1) == [] and calls == []
    with pytest.raises(IndexError):
        three.per_step(first_seen, 13)
    assert calls == []


def test_kinds_is_the_one_index_of_distinct_steps():
    s11, s12, s13 = (make_rademacher_interval(1, 1, 1), make_rademacher_interval(1, 2, 2),
                     make_rademacher_interval(1, 3, 3))
    iid = SequenceModel.iid(s12, 9)
    distinct, kinds = iid.kinds()
    assert [id(s) for s in distinct] == [id(s12)] and kinds == [0] * 9
    assert iid.kinds(4)[1] == [0] * 4

    # three kinds, the third first at step 7
    steps = [s13, s12] * 3 + [s11, s12, s11, s13, s11, s12]
    three = SequenceModel(12, steps=steps)
    distinct, kinds = three.kinds()
    assert [id(s) for s in distinct] == [id(s13), id(s12), id(s11)]
    assert kinds == [0, 1] * 3 + [2, 1, 2, 0, 2, 1]
    assert all(distinct[c] is s for c, s in zip(kinds, steps))
    distinct6, kinds6 = three.kinds(6)
    assert [id(s) for s in distinct6] == [id(s13), id(s12)] and kinds6 == [0, 1] * 3
    assert len(three.kinds(7)[0]) == 3
    assert three.kinds(1) == ([s13], [0])

    radius = lambda s: s.support.radius
    for model in (iid, three):
        for upto in (0, -3):
            assert model.kinds(upto) == ([], [])
        with pytest.raises(IndexError):
            model.kinds(model.horizon + 1)
        for upto in (None, 1, 5):
            distinct, kinds = model.kinds(upto)
            assert model.per_step(radius, upto) == [radius(distinct[c]) for c in kinds]
