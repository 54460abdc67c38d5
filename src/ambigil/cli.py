"""Command-line surface: run engines and experiments from JSON configs.

Every run writes ``result.csv`` (fixed schema per command, LF endings,
shortest-roundtrip float formatting) and ``report.md`` (inputs echo, version
stamp, config hash, seed, runtimes, and the library operations applied) into
the output directory.  Reruns with an identical config and seed produce
byte-identical CSVs.

Exit codes: 0 success, 2 validation error (bad config/arguments),
3 resource-cap error from the evaluation engine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__, bounds, capacity, gnormal, iterlog, lil
from .engine import StateSpaceError, TerminalSumPayoff, evaluate_pair
from .model import SequenceModel, _integer, _real

COMMANDS = ("eval", "capacity", "bounds-verify", "gnormal", "lil", "bc", "probe")


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_report(path: Path, command: str, cfg: dict, header, nrows: int,
                  ops: list[str], runtime: float, extras: dict) -> None:
    lines = [
        "# ambigil run report",
        "",
        f"- command: `{command}`",
        f"- version: {__version__}",
        f"- config hash (sha256): `{_config_hash(cfg)}`",
        f"- seed: {cfg.get('seed', 'n/a')}",
        f"- runtime: {runtime:.3f} s",
        f"- result rows: {nrows}",
        "",
        "## operations applied",
        "",
    ]
    lines += [f"- `{op}`" for op in ops]
    lines += ["", "## result.csv schema", "", "- columns: " + ", ".join(header)]
    if extras:
        lines += ["", "## run notes", ""]
        lines += [f"- {k}: {v}" for k, v in extras.items()]
    lines += ["", "## inputs (canonical)", "", "```json",
              json.dumps(cfg, sort_keys=True, indent=2), "```", ""]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines))


def _load_model(cfg: dict) -> SequenceModel:
    src = cfg.get("model")
    if src is None:
        raise ConfigError("config needs a 'model' (path or inline description)")
    try:
        if isinstance(src, str):
            return SequenceModel.load(src)
        if isinstance(src, dict):
            return SequenceModel.from_dict(src)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot load model: {e}") from None
    raise ConfigError(f"'model' must be a path or a description, got {type(src).__name__}")


def _payoff_from_config(cfg: dict) -> tuple[str, TerminalSumPayoff]:
    p = cfg.get("payoff", {"kind": "sum-power", "power": 2})
    if not isinstance(p, dict):
        raise ConfigError(f"'payoff' must be an object, got {type(p).__name__}")
    kind = p.get("kind")
    if kind == "sum-power":
        k = _real(p.get("power", 2), "'power'")
        return f"S^{k:g}", TerminalSumPayoff(lambda s: s ** k)
    if kind == "sum-abs":
        return "|S|", TerminalSumPayoff(abs)
    if kind == "sum":
        return "S", TerminalSumPayoff(lambda s: s)
    raise ConfigError(f"unknown payoff kind {kind!r} (use sum-power, sum-abs, sum)")


def _list(cfg: dict, name: str, default) -> list:
    """The JSON list under the config key ``name``; any other type is a
    ``ConfigError``."""
    value = cfg.get(name, default)
    if not isinstance(value, list):
        raise ConfigError(f"'{name}' must be a list, got {value!r}")
    return value


def _windows(cfg: dict, horizon: int) -> list[tuple[int, int]]:
    wins = _list(cfg, "windows", [[1, horizon]])
    if not all(isinstance(w, list) and len(w) == 2 for w in wins):
        raise ConfigError(f"'windows' must be a list of [n, N] pairs, got {wins!r}")
    return [(_integer(n, "'windows'"), _integer(N, "'windows'")) for n, N in wins]


def _engine_kw(cfg: dict) -> dict:
    if "state_cap" in cfg:
        return {"state_cap": _integer(cfg["state_cap"], "'state_cap'")}
    return {}


def _x_fn_from_config(cfg: dict):
    name = cfg.get("x_fn", "loglog")
    if name == "loglog":
        return None  # library default sqrt(2 loglog n)
    if name == "log":
        return lambda n: math.sqrt(2.0 * iterlog.log_(float(n)))
    raise ConfigError(f"unknown x_fn {name!r} (use 'loglog' or 'log')")


# ---------------------------------------------------------------------------
# command runners: each returns (header, rows, ops, extras)
# ---------------------------------------------------------------------------


def _run_eval(cfg: dict):
    model = _load_model(cfg)
    label, payoff = _payoff_from_config(cfg)
    pair = evaluate_pair(model, payoff, **_engine_kw(cfg))
    return (("payoff", "lower", "upper"), [(label, pair.lower, pair.upper)],
            ["engine.evaluate_pair (adapted-adversary backward induction)"], {})


def _run_capacity(cfg: dict):
    model = _load_model(cfg)
    ev_cfg = cfg.get("event")
    if ev_cfg is None:
        raise ConfigError("capacity command needs an 'event' description")
    ev = capacity.event_from_config(ev_cfg, model)
    pair = capacity.capacity_pair(model, ev, **_engine_kw(cfg))
    label = json.dumps(ev_cfg, sort_keys=True).replace(",", ";")
    return (("event", "lower", "upper"), [(label, pair.lower, pair.upper)],
            ["capacity.capacity_pair (exact window-event capacities)"], {})


def _run_bounds_verify(cfg: dict):
    if "seed" not in cfg:
        raise ConfigError("bounds-verify needs a seed")
    cases = _integer(cfg.get("cases", 1000), "'cases'")
    report = bounds.verify_domination(cases, _integer(cfg["seed"], "'seed'"))
    rows = list(bounds.domination_rows(report))
    extras = {"cases": cases, "violations": report.violation_count}
    return (bounds.DOMINATION_CSV_HEADER, rows,
            ["bounds.verify_domination (exact DP capacities vs closed-form bounds)",
             "bounds.kolmogorov_bound", "bounds.fuk_nagaev_bound"], extras)


def _run_gnormal(cfg: dict):
    try:
        params = gnormal.GNormalParams(_real(cfg["sigma_lo"], "'sigma_lo'"),
                                       _real(cfg["sigma_hi"], "'sigma_hi'"))
    except (KeyError, ValueError) as e:
        raise ConfigError(f"gnormal needs valid sigma_lo/sigma_hi: {e}") from None
    xs = cfg.get("x", 0.0)
    if not isinstance(xs, (list, tuple)):
        xs = [xs]
    rows = []
    for x in xs:
        x = _real(x, "'x'")
        rows.append((x, gnormal.gnormal_upper_tail(params, x),
                     gnormal.gnormal_lower_tail(params, x),
                     gnormal.gnormal_density(params, x)))
    return (("x", "upper_tail", "lower_tail", "density"), rows,
            ["gnormal.gnormal_upper_tail / gnormal_lower_tail (closed forms)",
             "gnormal.std_normal_cdf (math.erfc)"], {})


def _run_lil(cfg: dict):
    model = _load_model(cfg)
    kind = cfg.get("experiment")
    kw = _engine_kw(cfg)
    if kind == "upper":
        eps = _real(cfg.get("eps", 1.0), "'eps'")
        if "center" in cfg:
            kw["center"] = cfg["center"]
        rows = []
        for n, N in _windows(cfg, model.horizon):
            r = lil.lil_upper_experiment(model, n, N, eps, **kw)
            rows.append((r.n, r.N, r.eps, r.center, r.capacity, r.bound_crosscheck))
        return (("n", "N", "eps", "center", "capacity", "bound_crosscheck"), rows,
                ["lil.lil_upper_experiment (exact window capacity + blocked bound)"], {})
    if kind == "lower":
        eps = _real(cfg.get("eps", 0.5), "'eps'")
        rows = [(n, N, eps, lil.lil_lower_experiment(model, n, N, eps, **kw))
                for n, N in _windows(cfg, model.horizon)]
        return (("n", "N", "eps", "capacity"), rows,
                ["lil.lil_lower_experiment (exact window capacity)"], {})
    if kind == "cluster":
        if not model.is_iid:
            raise ConfigError("cluster experiment needs an iid model")
        N = _integer(cfg.get("N", model.horizon), "'N'")
        grid = [_real(s, "'sigma_grid'") for s in _list(cfg, "sigma_grid", [0.5, 1.0, 1.5])]
        rows = [(r.sigma, r.upper, r.lower)
                for r in lil.cluster_probe(model.step(1), N, grid, **kw)]
        return (("sigma", "upper", "lower"), rows,
                ["lil.cluster_probe (window max against sqrt(2 m loglog m))"], {})
    if kind == "conditions":
        cps = [_integer(c, "'checkpoints'")
               for c in _list(cfg, "checkpoints", [10, 100, min(1000, model.horizon)])]
        # a key the config leaves out takes the library default
        params = {key: read(cfg[key], f"'{key}'") for key, read in (
            ("p", _real), ("alpha", _real), ("d", _integer), ("eps", _real),
            ("delta", _real), ("power_p", _real)) if key in cfg}
        rep = lil.check_conditions(model, cps, **params)
        rows = []
        for rec in rep.records:
            for i, cp in enumerate(rec.checkpoints):
                term = rec.terms[i] if rec.terms else ""
                rows.append((rec.id, cp, rec.values[i], term, rec.verdict))
        extras = {"termwise_checked": rep.termwise_checked,
                  "termwise_violations": len(rep.termwise_violations),
                  "growth_check": json.dumps(rep.growth_check, sort_keys=True)}
        return (("condition", "checkpoint", "value", "term", "verdict"), rows,
                ["lil.check_conditions (moment-series trend checks)"], extras)
    raise ConfigError(f"unknown lil experiment {kind!r} "
                      "(use upper, lower, cluster, conditions)")


def _run_bc(cfg: dict):
    model = _load_model(cfg)
    thresholds = _list(cfg, "thresholds", [])
    if not thresholds:
        raise ConfigError("bc command needs per-step 'thresholds'")
    rep = capacity.bc_product_check(model, [_real(t, "'thresholds'") for t in thresholds],
                                    side=cfg.get("side", ">="), **_engine_kw(cfg))
    rows = [(rep.intersection_lower, rep.product_bound, rep.union_upper)]
    extras = {"per_event_upper": json.dumps([v for v in rep.per_event_upper])}
    return (("intersection_lower", "product_bound", "union_upper"), rows,
            ["capacity.bc_product_check (independence factorization)"], extras)


def _run_probe(cfg: dict):
    kind = cfg.get("kind")
    kw = _engine_kw(cfg)
    if kind == "continuity":
        model = _load_model(cfg)
        if not model.is_iid:
            raise ConfigError("continuity probe needs an iid model")
        power = _real(cfg.get("power", 2), "'power'")
        m = _integer(cfg.get("m", 3), "'m'")
        eps = _real(cfg.get("eps", 0.5), "'eps'")
        r = lil.continuity_probe(model.step(1), lambda v: v ** power, m, eps, **kw)
        rows = [(r.phi_lower, r.phi_upper, r.high_event_upper, r.low_event_upper,
                 r.high_event_lower, r.low_event_lower)]
        return (("phi_lower", "phi_upper", "high_event_upper", "low_event_upper",
                 "high_event_lower", "low_event_lower"), rows,
                ["lil.continuity_probe (mean-event capacities)"], {})
    if kind in ("converse-rate", "conjecture"):
        model = _load_model(cfg)
        if not model.is_iid:
            raise ConfigError(f"{kind} probe needs an iid model family")
        step = model.step(1)
        fam = lambda n: SequenceModel.iid(step, n)
        z = _real(cfg.get("z", 0.1), "'z'")
        gamma = _real(cfg.get("gamma", 1.0), "'gamma'")
        n_list = [_integer(n, "'n_list'") for n in _list(cfg, "n_list", [256, 1024])]
        fn = _x_fn_from_config(cfg)
        alpha = cfg.get("alpha")
        if alpha is not None:
            alpha = _real(alpha, "'alpha'")
        runner = (bounds.converse_rate_check if kind == "converse-rate"
                  else lil.conjecture_probe)
        table = runner(fam, z, gamma, n_list, x_fn=fn,
                       alpha=alpha, slack=_real(cfg.get("slack", 0.1), "'slack'"),
                       **kw)
        rows = [(r.n, r.x_n, r.scale, r.threshold, r.capacity, r.lhs, r.rhs,
                 r.alpha_n, r.bounded) for r in table.rows]
        extras = {"violation": table.violation, "side": table.side,
                  "alpha": table.alpha}
        return (("n", "x_n", "scale", "threshold", "capacity", "lhs", "rhs",
                 "alpha_n", "bounded"), rows,
                ["bounds.converse_rate_check" if kind == "converse-rate"
                 else "lil.conjecture_probe (report only)"], extras)
    if kind == "mc":
        if "seed" not in cfg:
            raise ConfigError("mc probe needs a seed")
        model = _load_model(cfg)
        ev = capacity.event_from_config(cfg.get("event", {}), model)
        # capacity.mc_capacity_lower_bound checks the strategy's name, types and range
        strat = cfg.get("strategy", {"kind": "constant", "index": 0})
        if isinstance(strat, dict):
            kind = strat.get("kind")
            strat = (kind, strat.get("indices") if kind == "schedule" else strat.get("index", 0))
        elif strat != "greedy-one-step":
            raise ConfigError(f"unknown strategy {strat!r}")
        r = capacity.mc_capacity_lower_bound(
            model, ev, strat, _integer(cfg.get("replications", 10000), "'replications'"),
            _integer(cfg["seed"], "'seed'"))
        rows = [(r.estimate, r.std_error, r.replications, r.accepted)]
        return (("estimate", "std_error", "replications", "accepted"), rows,
                ["capacity.mc_capacity_lower_bound (splitmix64 streams)"], {})
    raise ConfigError(f"unknown probe kind {kind!r} "
                      "(use continuity, converse-rate, conjecture, mc)")


_RUNNERS = {
    "eval": _run_eval,
    "capacity": _run_capacity,
    "bounds-verify": _run_bounds_verify,
    "gnormal": _run_gnormal,
    "lil": _run_lil,
    "bc": _run_bc,
    "probe": _run_probe,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ambigil",
        description="exact ambiguity numerics: expectations, capacities, bounds, "
                    "iterated-logarithm experiments")
    sub = ap.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="ambigil-out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--model", default=None, help="model JSON path (overrides config)")
        if name == "gnormal":
            p.add_argument("--sigma-lo", type=float, default=None)
            p.add_argument("--sigma-hi", type=float, default=None)
            p.add_argument("--x", type=float, action="append", default=None)
        if name == "bounds-verify":
            p.add_argument("--cases", type=int, default=None)
        if name == "lil":
            p.add_argument("--experiment", default=None)
            p.add_argument("--eps", type=float, default=None)
        if name == "probe":
            p.add_argument("--kind", default=None)
    return ap


def _merge_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    # every other flag's dest is its config key; a flag given overrides the file
    for k, v in vars(args).items():
        if k not in ("command", "config", "out") and v is not None:
            cfg[k] = v
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        print(f"ambigil: error: choose a command from: {', '.join(COMMANDS)}",
              file=sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
        runner = _RUNNERS[args.command]
        t0 = time.perf_counter()
        header, rows, ops, extras = runner(cfg)
        runtime = time.perf_counter() - t0
    except ValueError as e:  # ConfigError, or bad input the library rejected
        print(f"ambigil: error: {e}", file=sys.stderr)
        return 2
    except StateSpaceError as e:
        print(f"ambigil: resource error: {e}", file=sys.stderr)
        return 3

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "result.csv", header, rows)
        _write_report(out / "report.md", args.command, cfg, header, len(rows),
                      ops, runtime, extras)
    except OSError as e:
        print(f"ambigil: error: cannot write outputs: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
