"""One benchmark pass in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--trace-out PATH] [--setup-only]

Imports fdnoma from the checkout's src/, expands the workload's presets
(set-up), runs it once through the CLI entry points, checks every cell and
prints one JSON object as the last line of standard output.  With
--trace-out the layer functions are wrapped (see tracing.py), the pass's
per-layer metrics are added and its spans are written to PATH as JSON
lines.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and of its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    jobs = workloads.prepare(args.workload, args.seed)
    import fdnoma

    if Path(fdnoma.__file__).resolve().parent != SRC / "fdnoma":
        print(f"worker: imported fdnoma from {fdnoma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_s = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    cpu0 = _usage()
    t0 = perf_counter()
    results = workloads.execute(args.workload, jobs, args.seed)
    wall_s = perf_counter() - t0
    cpu1 = _usage()

    outcome = workloads.check(args.workload, jobs, results)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]),
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "notes": outcome.notes,
        "verdict": outcome.verdict,
        "validate_fail_lines": outcome.validate_fail_lines,
    }
    if recorder is not None:
        report["layers"] = tracing.layer_metrics(recorder)
        recorder.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
