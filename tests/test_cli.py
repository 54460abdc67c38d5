import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigil.cli import main
from ambigil.model import SequenceModel, make_rademacher_interval


@pytest.fixture()
def model12_path(tmp_path):
    p = tmp_path / "model.json"
    SequenceModel.iid(make_rademacher_interval(1, 2, 2), 2).save(p)
    return p


def _csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_eval_fixture(tmp_path, model12_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path),
                               "payoff": {"kind": "sum-power", "power": 2}}))
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _csv(out / "result.csv")
    assert header == ["payoff", "lower", "upper"]
    assert float(rows[0]["lower"]) == 2.0
    assert float(rows[0]["upper"]) == 8.0
    report = (out / "report.md").read_text()
    assert "evaluate_pair" in report and "config hash" in report


def test_gnormal_flags_only(tmp_path):
    out = tmp_path / "g"
    assert main(["gnormal", "--sigma-lo", "1", "--sigma-hi", "2", "--x", "0",
                 "--out", str(out)]) == 0
    _, rows = _csv(out / "result.csv")
    assert abs(float(rows[0]["upper_tail"]) - 2.0 / 3.0) <= 1e-12
    assert abs(float(rows[0]["lower_tail"]) - 1.0 / 3.0) <= 1e-12


def test_capacity_command(tmp_path, model12_path):
    out = tmp_path / "cap"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": str(model12_path),
        "event": {"window": {"n": 2, "N": 2}, "stat": "S",
                  "threshold": {"kind": "const", "c": 3.0}}}))
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _csv(out / "result.csv")
    assert float(rows[0]["upper"]) == 0.25
    assert float(rows[0]["lower"]) == 0.0


def test_bc_command(tmp_path):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 2, 2), 3).save(model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model), "thresholds": [2.0, 2.0, 2.0]}))
    out = tmp_path / "bc"
    assert main(["bc", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _csv(out / "result.csv")
    assert float(rows[0]["intersection_lower"]) == 0.125
    assert float(rows[0]["product_bound"]) == 0.125
    assert float(rows[0]["union_upper"]) == 0.875


def test_malformed_config_exits_2_without_outputs(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = tmp_path / "nope"
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_model_exits_2(tmp_path):
    out = tmp_path / "x"
    assert main(["eval", "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
    assert main([]) == 2


def test_unknown_probe_kind_exits_2(tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path), "kind": "warp"}))
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_mc_probe_requires_seed(tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": str(model12_path), "kind": "mc",
        "event": {"window": {"n": 2, "N": 2}, "threshold": {"kind": "const", "c": 3.0}},
        "replications": 500}))
    out = tmp_path / "mc"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["probe", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    _, rows = _csv(out / "result.csv")
    assert 0.0 <= float(rows[0]["estimate"]) <= 1.0


def test_resource_cap_exits_3(tmp_path):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 2, 2), 64).save(model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model), "state_cap": 50,
                               "payoff": {"kind": "sum"}}))
    out = tmp_path / "r"
    assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


def test_bounds_verify_requires_seed(tmp_path):
    out = tmp_path / "b"
    assert main(["bounds-verify", "--cases", "5", "--out", str(out)]) == 2


def _exits_2_one_line(capsys, tmp_path, argv):
    out = tmp_path / "bad-out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ambigil: error: ") and err.count("\n") == 1


def test_capacity_window_beyond_horizon_exits_2(capsys, tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": str(model12_path),
        "event": {"window": {"n": 1, "N": 5}, "threshold": {"kind": "const", "c": 1.0}}}))
    _exits_2_one_line(capsys, tmp_path, ["capacity", "--config", str(cfg)])


def test_lil_window_beyond_horizon_exits_2(capsys, tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path), "experiment": "lower",
                               "windows": [[1, 5]]}))
    _exits_2_one_line(capsys, tmp_path, ["lil", "--config", str(cfg)])


def test_eval_non_object_payoff_exits_2(capsys, tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path), "payoff": [1, 2]}))
    _exits_2_one_line(capsys, tmp_path, ["eval", "--config", str(cfg)])


def test_eval_payoff_dividing_by_zero_exits_2(capsys, tmp_path, model12_path):
    # the sum 0 is reachable at horizon 2 (+1 then -1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path),
                               "payoff": {"kind": "sum-power", "power": -1}}))
    _exits_2_one_line(capsys, tmp_path, ["eval", "--config", str(cfg)])


def test_workers_flag_is_gone(capsys, tmp_path, model12_path):
    with pytest.raises(SystemExit) as ei:
        main(["capacity", "--model", str(model12_path), "--workers", "2",
              "--out", str(tmp_path / "o")])
    assert ei.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_bounds_verify_zero_cases_exits_2(capsys, tmp_path):
    _exits_2_one_line(capsys, tmp_path, ["bounds-verify", "--cases", "0", "--seed", "1"])


def test_lil_command_lower(tmp_path):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 1, 1), 64).save(model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model), "experiment": "lower",
                               "eps": 0.5, "windows": [[8, 32], [8, 64]]}))
    out = tmp_path / "lil"
    assert main(["lil", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _csv(out / "result.csv")
    assert len(rows) == 2
    assert float(rows[0]["capacity"]) <= float(rows[1]["capacity"])


def test_lil_conditions_command(tmp_path):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 1, 1), 64).save(model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model), "experiment": "conditions",
                               "checkpoints": [4, 16, 64]}))
    out = tmp_path / "cond"
    assert main(["lil", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = _csv(out / "result.csv")
    assert header == ["condition", "checkpoint", "value", "term", "verdict"]
    assert any(r["condition"] == "mean-ratio" for r in rows)


@pytest.mark.parametrize("experiment, defaults", [
    ("conditions", {"p": 2.0, "alpha": 1.0, "d": 1, "eps": 1.0, "delta": 0.5, "power_p": 3.0}),
    ("upper", {"center": "upper-mean"}),
])
def test_lil_absent_keys_take_library_defaults(tmp_path, experiment, defaults):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 2, 2), 32).save(model)
    base = {"model": str(model), "experiment": experiment, "eps": 1.0,
            "checkpoints": [4, 16, 32], "windows": [[4, 32]]}
    outs = []
    for i, cfg in enumerate((base, {**base, **defaults})):
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(cfg))
        assert main(["lil", "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "result.csv").read_bytes())
    assert outs[0] == outs[1]


def test_probe_converse_rate_command(tmp_path):
    model = tmp_path / "m.json"
    SequenceModel.iid(make_rademacher_interval(1, 1, 1), 4).save(model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model), "kind": "converse-rate",
                               "z": 0.1, "gamma": 1.0, "n_list": [64, 128],
                               "x_fn": "log"}))
    out = tmp_path / "cr"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _csv(out / "result.csv")
    assert len(rows) == 2
    assert float(rows[0]["lhs"]) < 0.0


def test_rerun_byte_identical(tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": str(model12_path),
        "event": {"window": {"n": 1, "N": 2}, "stat": "S",
                  "threshold": {"kind": "const", "c": 3.0}}}))
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "result.csv").read_bytes())
    assert outs[0] == outs[1]


_WINDOW = {"window": {"n": 1, "N": 2}, "threshold": {"kind": "const", "c": 3.0}}


@pytest.mark.parametrize("command, cfg", [
    ("eval", {"payoff": {"kind": "sum-power", "power": [2]}}),
    ("capacity", {"event": {"window": {"n": 1, "N": 2},
                            "threshold": {"kind": "const", "c": [2]}}}),
    ("bounds-verify", {"seed": 1, "cases": [5]}),
    ("gnormal", {"sigma_lo": [1], "sigma_hi": 2}),
    ("lil", {"experiment": "lower", "eps": {"e": 1}}),
    ("bc", {"thresholds": [2.0, [2.0]]}),
    ("probe", {"kind": "mc", "seed": 1, "event": _WINDOW, "replications": [5]}),
    ("lil", {"experiment": "lower", "windows": [5]}),
    ("bc", {"thresholds": 5}),
    ("probe", {"kind": "mc", "seed": 1, "event": _WINDOW, "strategy": {"kind": "schedule"}}),
    ("lil", {"experiment": "cluster", "sigma_grid": 1.0}),
    ("lil", {"experiment": "conditions", "checkpoints": 4}),
    ("probe", {"kind": "converse-rate", "n_list": 64}),
    ("probe", {"kind": "mc", "seed": 1, "event": _WINDOW,
               "strategy": {"kind": "constant", "index": 1.7}}),
    ("probe", {"kind": "mc", "seed": 1, "event": _WINDOW, "replications": 100.7}),
    ("probe", {"kind": "mc", "seed": 1, "event": _WINDOW, "replications": "500"}),
    ("probe", {"kind": "mc", "seed": 1.5, "event": _WINDOW, "replications": 100}),
    ("lil", {"experiment": "lower", "windows": [[1.5, 2]]}),
    ("lil", {"experiment": "upper", "windows": [[1, "2"]]}),
    ("lil", {"experiment": "cluster", "N": 2.5}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2.5]}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "d": True}),
    ("bounds-verify", {"seed": 1, "cases": 2.5}),
    ("bounds-verify", {"seed": 1, "cases": "5"}),
    ("bounds-verify", {"seed": 1, "cases": True}),
    ("probe", {"kind": "continuity", "m": 2.5}),
    ("probe", {"kind": "converse-rate", "n_list": [8.5]}),
    ("eval", {"state_cap": 1000.5}),
    ("capacity", {"event": {"window": {"n": 1.5, "N": 2},
                            "threshold": {"kind": "const", "c": 3.0}}}),
    ("lil", {"experiment": "lower", "eps": "0.5"}),
    ("lil", {"experiment": "lower", "eps": True}),
    ("lil", {"experiment": "lower", "eps": 10 ** 400}),
    ("capacity", {"event": {"window": {"n": 1, "N": 2},
                            "threshold": {"kind": "const", "c": "3"}}}),
    ("capacity", {"event": {"window": {"n": 1, "N": 2},
                            "threshold": {"kind": "d_n", "scale": False}}}),
    ("bc", {"thresholds": [2.0, "2.0"]}),
    ("eval", {"model": {"horizon": 2, "delta": True,
                        "iid": {"points": [-1, 1], "measures": [[0.5, 0.5]]}}}),
    ("eval", {"model": {"horizon": 2, "delta": 1.0,
                        "iid": {"points": [-1, 1], "measures": [["0.5", 0.5]]}}}),
    ("eval", {"model": {"horizon": 2, "delta": 1.0,
                        "iid": {"points": [-1, 0, 1], "measures": [[0.0, True, 0.0]]}}}),
    ("eval", {"model": {"horizon": 2, "delta": 10 ** 400,
                        "iid": {"points": [-1, 1], "measures": [[0.5, 0.5]]}}}),
])
def test_wrong_json_type_in_numeric_key_exits_2(capsys, tmp_path, model12_path,
                                                 command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": str(model12_path), **cfg}))
    _exits_2_one_line(capsys, tmp_path, [command, "--config", str(path)])


@pytest.mark.parametrize("command, cfg", [
    ("gnormal", {"sigma_lo": 1.0, "sigma_hi": 2.0, "x": math.nan}),
    ("bc", {"thresholds": [math.nan, 2.0]}),
    ("probe", {"kind": "continuity", "eps": math.nan}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "eps": math.nan}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "p": math.nan}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "delta": math.nan}),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "power_p": math.nan}),
    ("eval", {"model": {"horizon": 2.5, "delta": 1.0,
                        "iid": {"points": [-1, 1.5], "measures": [[0.5, 0.5]]}}}),
    ("probe", {"kind": "converse-rate", "n_list": [8], "slack": math.nan}),
    ("probe", {"kind": "converse-rate", "n_list": [8], "alpha": math.nan}),
    ("probe", {"kind": "conjecture", "n_list": [8], "slack": math.nan}),
    ("probe", {"kind": "conjecture", "n_list": [8], "alpha": math.nan}),
    ("probe", {"kind": "continuity", "power": math.nan}),
    ("probe", {"kind": "continuity", "power": 1e308}),
    ("capacity", {"event": {"window": {"n": 1, "N": 2}, "side": [">="],
                            "threshold": {"kind": "const", "c": 1.0}}}),
    ("bc", {"thresholds": [1.0, 1.0], "side": {}}),
    ("lil", {"experiment": "upper", "windows": [[1, 2]], "eps": math.inf}),
    ("lil", {"experiment": "lower", "windows": [[1, 2]], "eps": -math.inf}),
    ("eval", {"payoff": {"kind": "sum-power", "power": 0.5}}),
    ("probe", {"kind": "continuity", "power": 0.5}),
])
def test_value_rejected_at_boundary_exits_2(capsys, tmp_path, model12_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": str(model12_path), **cfg}))  # json writes NaN
    _exits_2_one_line(capsys, tmp_path, [command, "--config", str(path)])


def test_integral_float_in_integer_key_accepted(tmp_path, model12_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": str(model12_path), "kind": "mc", "seed": 1.0,
                               "event": _WINDOW, "replications": 100.0}))
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    assert _csv(out / "result.csv")[1][0]["replications"] == "100"


def test_gnormal_nan_flag_exits_2(capsys, tmp_path):
    _exits_2_one_line(capsys, tmp_path, ["gnormal", "--sigma-lo", "1", "--sigma-hi", "2",
                                         "--x", "nan"])


# A centered i.i.d. step on {-2, -1, 1, 2} over two steps: every command accepts it.
_MODEL = {"horizon": 2, "delta": 1.0,
          "iid": {"points": [-2, -1, 1, 2],
                  "measures": [[0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]]}}
_CONST = {"window": {"n": 1, "N": 2}, "threshold": {"kind": "const", "c": 1.0}}
_RATE = {"z": 0.1, "gamma": 1.0, "slack": 0.1, "n_list": [8]}
# (command, a config that runs, the numeric keys in it: path and "int" or "real")
_NUMERIC_KEYS = [
    ("eval", {"payoff": {"kind": "sum-power", "power": 2}, "state_cap": 1000},
     [(("payoff", "power"), "real"), (("state_cap",), "int"), (("model", "delta"), "real"),
      (("model", "iid", "measures", 1, 0), "real")]),
    ("capacity", {"event": _CONST, "state_cap": 1000},
     [(("event", "window", "n"), "int"), (("event", "window", "N"), "int"),
      (("event", "threshold", "c"), "real"), (("state_cap",), "int")]),
    ("capacity", {"event": {"window": {"n": 1, "N": 2},
                            "threshold": {"kind": "a_n", "scale": 1.0}}},
     [(("event", "threshold", "scale"), "real")]),
    ("bounds-verify", {"seed": 1, "cases": 1}, [(("seed",), "int"), (("cases",), "int")]),
    ("gnormal", {"sigma_lo": 1.0, "sigma_hi": 2.0, "x": 0.5},
     [(("sigma_lo",), "real"), (("sigma_hi",), "real"), (("x",), "real")]),
    ("lil", {"experiment": "upper", "eps": 1.0, "windows": [[1, 2]]},
     [(("eps",), "real"), (("windows", 0, 0), "int"), (("windows", 0, 1), "int")]),
    ("lil", {"experiment": "lower", "eps": 0.5, "windows": [[1, 2]]},
     [(("eps",), "real"), (("windows", 0, 1), "int")]),
    ("lil", {"experiment": "cluster", "N": 2, "sigma_grid": [1.0]},
     [(("N",), "int"), (("sigma_grid", 0), "real")]),
    ("lil", {"experiment": "conditions", "checkpoints": [1, 2], "p": 2.0, "alpha": 1.0,
             "d": 1, "eps": 1.0, "delta": 0.5, "power_p": 3.0},
     [(("checkpoints", 1), "int"), (("d",), "int")]
     + [((key,), "real") for key in ("p", "alpha", "eps", "delta", "power_p")]),
    ("bc", {"thresholds": [1.0, 1.0]}, [(("thresholds", 1), "real")]),
    ("probe", {"kind": "continuity", "power": 2, "m": 2, "eps": 0.5},
     [(("power",), "real"), (("m",), "int"), (("eps",), "real")]),
    ("probe", {"kind": "mc", "seed": 1, "replications": 100, "event": _CONST},
     [(("seed",), "int"), (("replications",), "int"), (("event", "threshold", "c"), "real")]),
] + [
    # "alpha" is absent from the config that runs: absent (or null) means the default
    ("probe", {"kind": kind, **_RATE},
     [(("n_list", 0), "int")] + [((key,), "real") for key in ("z", "gamma", "slack", "alpha")])
    for kind in ("converse-rate", "conjecture")
]
# 10**400 is a valid int, so an integer key such as "cases" would run with it
_BAD = {"int": [math.nan, "1", True, [1.0], 2.5],
        "real": [math.nan, "1", True, [1.0], 10 ** 400]}


def _with(cfg, path, value):
    cfg = json.loads(json.dumps({"model": _MODEL, **cfg}))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def test_numeric_key_configs_run(tmp_path):
    # the bad-value test below is only as strong as these configs are valid
    for i, (command, cfg, _) in enumerate(_NUMERIC_KEYS):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({"model": _MODEL, **cfg}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / f"out{i}")]) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_bad_value_in_numeric_key_exits_2_one_line(data):
    command, cfg, keys = data.draw(st.sampled_from(_NUMERIC_KEYS))
    path, kind = data.draw(st.sampled_from(keys))
    # gnormal's "x" takes a scalar or a list of them
    bad = [v for v in _BAD[kind] if not (command == "gnormal" and path == ("x",)
                                         and isinstance(v, list))]
    value = data.draw(st.sampled_from(bad))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg_path.write_text(json.dumps(_with(cfg, path, value)))  # json writes NaN
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert err.getvalue().startswith("ambigil: error: ") and err.getvalue().count("\n") == 1
        assert str(path[0] if isinstance(path[-1], int) else path[-1]) in err.getvalue()
