"""Steadiness batches and traced-run repeatability for bench/run.py.

    python3 bench/steady.py batch --label A
    python3 bench/steady.py compare A B
    python3 bench/steady.py trace

Every run lasts BENCHMARK.json's ``run_seconds``.  ``batch`` runs every
workload once per seed 1-10 (each run its own process) and
reports, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  ``compare`` reports how far the second batch's medians moved from
the first's, against the bounds in BENCHMARK.json.  ``trace`` makes two
traced runs per workload with seed 1, requires every count to repeat
exactly, and reports traced against untraced ``items_per_s``.  Results go
to ``bench-out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / "bench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def cmd_batch(args) -> None:
    out = {"label": args.label, "seconds": SECONDS, "seeds": SEEDS, "workloads": {}}
    for w in WORKLOADS:
        runs = [run(w, s, 0) for s in SEEDS]
        fail_share = {r["failed"] / r["attempted"] for r in runs}
        row = {"failed_share": sorted(fail_share),
               "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in SPEC["end_to_end"]}}
        out["workloads"][w] = row
        for m in SPEC["end_to_end"]:
            s = row["metrics"][m["name"]]
            flag = "" if m["name"] == "setup_s" or s["spread"] < m["bound"] / 3 else "  <- above bound/3"
            print(f"{args.label} {w:14s} {m['name']:12s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{args.label}.json").write_text(json.dumps(out, indent=1))


def cmd_compare(args) -> None:
    a, b = (json.loads((OUT_DIR / f"steady-{x}.json").read_text()) for x in (args.first, args.second))
    ok = True
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        for m in SPEC["end_to_end"]:
            ma = a["workloads"][w]["metrics"][m["name"]]["median"]
            mb = b["workloads"][w]["metrics"][m["name"]]["median"]
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{w:14s} {m['name']:12s} {ma:.6g} -> {mb:.6g}  worse by {worse:+.3f} "
                  f"(bound {m['bound']}){'' if good else '  <- outside bound'}")
        same = a["workloads"][w]["failed_share"] == b["workloads"][w]["failed_share"]
        ok &= same
        print(f"{w:14s} failed share {a['workloads'][w]['failed_share']} vs "
              f"{b['workloads'][w]['failed_share']}{'' if same else '  <- differs'}")
    sys.exit(0 if ok else 1)


def cmd_trace(args) -> None:
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    ok = True
    report = {}
    for w in WORKLOADS:
        traced = [run(w, TRACE_SEED, 1) for _ in range(2)]
        plain = run(w, TRACE_SEED, 0)
        c1, c2 = ({k: r["metrics"][k]["value"] for k in counts} for r in traced)
        same = c1 == c2
        ok &= same
        info = json.loads((OUT_DIR / f"trace-{w}-seed{TRACE_SEED}.json").read_text())
        overhead = plain["metrics"]["items_per_s"]["value"] / info["traced_items_per_s"] - 1.0
        report[w] = {"counts_repeat": same, "counts": c1,
                     "untraced_items_per_s": plain["metrics"]["items_per_s"]["value"],
                     "traced_items_per_s": info["traced_items_per_s"],
                     "tracing_overhead": overhead,
                     "layers": {k: v["value"] for k, v in traced[1]["metrics"].items()}}
        print(f"{w:14s} counts repeat: {same}  untraced {report[w]['untraced_items_per_s']:.6g}/s  "
              f"traced {info['traced_items_per_s']:.6g}/s  overhead {overhead:+.1%}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-repeat-seed{TRACE_SEED}.json").write_text(json.dumps(report, indent=1))
    sys.exit(0 if ok else 1)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("batch")
    b.add_argument("--label", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    sub.add_parser("trace")
    args = ap.parse_args(argv)
    {"batch": cmd_batch, "compare": cmd_compare, "trace": cmd_trace}[args.cmd](args)


if __name__ == "__main__":
    main()
