"""Seeded benchmark of ambigil's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ambigil is imported from ``src/``
next to this directory, never from an installed copy, and the run exits 2
without a result when it is not there.  One run builds the workload's
inputs from the seed, then repeats the workload's fixed pass of public-API
calls (``workers=1`` throughout) until ``--seconds`` would be exceeded,
timing every call, and checks every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Times are reported in reference-host seconds.  The 2-vCPU host behind the
figures in README.md runs all code 20-100% slower for seconds to minutes,
so a raw timing, even the fastest of a run, reads up to 2x off.  A fixed
piece of benchmark-owned work, the host-speed probe, runs before and after
every call; a call's time divided by the mean of its two probes is steady,
and multiplying it by ``PROBE_REF_S`` gives seconds on a host where the
probe takes exactly that long.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``items_per_s``: items finished in one pass divided by the sum, over the
  calls of the pass, of each call's median probe-relative time times
  ``PROBE_REF_S``.  A call that raises is timed like any other, finishes
  no items and makes the run not correct, since its output goes
  unchecked.
* ``setup_s``: import of ambigil, construction of the workload's models
  and events, and one warm-up round, in reference-host seconds; the median
  of this process and ``SETUP_SAMPLES - 1`` fresh child processes.
* ``peak_rss_mb``: peak resident memory of this process after the passes.

With ``--trace 1`` the public functions are wrapped from outside (see
``tracing.py``) and the metrics are the per-layer ones, in wall seconds;
the spans of the first pass and the per-layer numbers go to ``bench-out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / "bench-out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120
PROBE_REF_S = 0.002
PROBE_ROW = 16384


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time import, construction and warm-up, print the seconds, exit")
    return ap.parse_args(argv)


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ambigil from this checkout's src/ or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ambigil
    except ImportError as e:
        fail(f"cannot import ambigil from {src}: {e}")
    if not Path(ambigil.__file__).resolve().is_relative_to(src):
        fail(f"ambigil came from {ambigil.__file__}, not from {src}")
    return ambigil


def host_probe() -> float:
    """Wall seconds for the host-speed probe, a fixed piece of benchmark-owned work.

    Python dict and float work like the program's generic paths, then numpy
    slice arithmetic on one lattice-sized row like its lattice kernel.
    numpy is imported here, after setup is timed, because ambigil imports it.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, PROBE_ROW + 16)
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(6000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k] * 1e-9
    row = np.zeros(PROBE_ROW)
    for _ in range(8):
        for o in (0, 3, 5, 9):
            row = row + 0.25 * x[o:o + PROBE_ROW]
        row = np.maximum(row, x[4:4 + PROBE_ROW])
    return time.perf_counter() - t0


def setup(name: str, seed: int):
    """Import, build the workload and warm it up.

    Returns the workload and the set-up time in reference-host seconds.
    """
    t0 = time.perf_counter()
    import_program()
    import workloads
    if name not in workloads.WORKLOADS:
        fail(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed)
    for call in wl.warmup:
        call.run()
    wall = time.perf_counter() - t0
    probe = statistics.median(host_probe() for _ in range(5))
    return wl, wall * PROBE_REF_S / probe


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(wl, seconds: float, tracer=None):
    """Repeat the pass while another whole pass fits in ``seconds``.

    Returns per-call probe-relative times, per-call failure counts, the
    first pass's outputs, check failures and the pass count.  A call that
    raises is timed, counts as failed and has no output; a later pass whose
    outputs differ from the first pass's is a check failure.
    """
    rel = {c.key: [] for c in wl.calls}
    failed = {c.key: 0 for c in wl.calls}
    first: dict | None = None
    problems: list[str] = []
    passes = 0
    fastest = float("inf")
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outs = {}
        before = host_probe()
        for call in wl.calls:
            t0 = time.perf_counter()
            try:
                outs[call.key] = call.run()
            except Exception as e:  # a failed operation is counted, not fatal
                failed[call.key] += 1
                print(f"bench: {call.key} failed: {e!r}", file=sys.stderr)
            dt = time.perf_counter() - t0
            after = host_probe()
            rel[call.key].append(dt / (0.5 * (before + after)))
            before = after
        if tracer is not None:
            tracer.end_pass()
        passes += 1
        if first is None:
            first = outs
        elif outs != first:
            problems.append(f"pass {passes} outputs differ from pass 1 on "
                            f"{sorted(k for k in first if outs.get(k) != first[k])}")
        now = time.perf_counter()
        fastest = min(fastest, now - t_pass)
        if now - start + fastest > seconds:
            return rel, failed, first, problems, passes


def rate(wl, rel: dict, failed: dict, passes: int) -> float:
    """Items finished per reference-host second over one pass."""
    items = sum(c.items * (passes - failed[c.key]) / passes for c in wl.calls)
    return items / sum(statistics.median(rel[c.key]) * PROBE_REF_S for c in wl.calls)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        rel, failed, outputs, problems, passes = run_passes(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += wl.check(outputs)
    # every call of a pass succeeds on working code; a failed call's output goes unchecked
    problems += [f"{key} failed in {n} of {passes} passes" for key, n in failed.items() if n]
    items_per_s = rate(wl, rel, failed, passes)

    if tracer is None:
        samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {"items_per_s": (items_per_s, "1/s"),
                   "setup_s": (statistics.median(samples), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        problems += tracer.count_mismatches()
        problems += [f"traced run never entered {layer}" for layer in wl.layers
                     if not tracer.entered(layer)]
        layer = tracer.metrics()
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in tracing.PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": passes,
                       "traced_items_per_s": items_per_s,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       "spans_first_pass": tracer.first_pass_spans}, f)

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {passes} passes, {len(wl.calls)} calls "
          f"and {wl.items_per_pass} items per pass", file=sys.stderr)
    result = {"correct": not problems, "attempted": passes * len(wl.calls),
              "failed": sum(failed.values()),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
