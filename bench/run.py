"""fdnoma benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and BENCHMARK.json) in fresh worker
processes, one pass each, until the next pass would end after S seconds;
at least one pass always runs.  Every pass is checked cell by cell.  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": cells, "failed": cells, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: medians over the
passes, and set-up time as the median of at least SETUP_SAMPLES fresh
processes.  With --trace 1 each round is an untraced pass followed by a
traced one; the metrics are the per-layer ones from the traced passes,
and trace.overhead_s is the traced minus the untraced median wall time.
Spans are written to bench/out/.  The lines before the JSON name every
metric with its unit, failed_frac, validate's verdict and any failing cell.

Exits 2 without a result when the checkout has no src/fdnoma to measure,
and 1 when a pass crashes or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 20
# A run must print its result within 180 s; leave room for the set-up probes.
DEADLINE_S = 165.0


class PassError(RuntimeError):
    pass


def _run_worker(args: list[str], timeout: float) -> dict:
    """Run one worker process (in its own process group, so that its pool
    children die with it on a timeout) and parse its last output line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise PassError(f"worker {' '.join(args)} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": median(setup),
        "wall_s": median(p["wall_s"] for p in passes),
        "cells_per_s": median((p["attempted"] - p["failed"]) / p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "correct_frac": (attempted - failed) / attempted,
    }


def per_layer(passes: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {k: median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
    metrics["cli.validate.fail_lines"] = median(t["validate_fail_lines"] for t in traced)
    metrics["trace.overhead_s"] = (median(t["wall_s"] for t in traced)
                                   - median(p["wall_s"] for p in passes))
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "fdnoma" / "__init__.py").is_file():
        print(f"bench: no fdnoma sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = _declared_metrics()
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    t_start = perf_counter()
    passes: list[dict] = []
    traced: list[dict] = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
    try:
        while True:
            passes.append(_run_worker(base, DEADLINE_S - (perf_counter() - t_start)))
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
                traced.append(_run_worker(base + ["--trace-out", str(spans)],
                                          DEADLINE_S - (perf_counter() - t_start)))
            elapsed = perf_counter() - t_start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setup = [r["setup_s"] for r in passes]
        while not args.trace and len(setup) < SETUP_SAMPLES:
            probe = _run_worker(base + ["--setup-only"], DEADLINE_S - (perf_counter() - t_start))
            setup.append(probe["setup_s"])
    except PassError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units = per_layer(passes, traced), layer_units
    else:
        metrics, units = end_to_end(passes, setup), e2e_units
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    runs = passes + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# passes: {len(passes)} untraced, {len(traced)} traced")
    for r in runs:
        for what in r["failures"]:
            print(f"# FAULT {what}")
        for what in r["notes"]:
            print(f"# note: {what}")
    verdicts = sorted({r["verdict"] for r in runs if r["verdict"]})
    if verdicts:
        print(f"# validate verdict: {'/'.join(verdicts)}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} cells)")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
