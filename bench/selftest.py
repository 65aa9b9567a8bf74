"""Check that the benchmark's counts repeat exactly.

    python3 bench/selftest.py

Makes two traced runs, seed 1, of each workload listed in BENCHMARK.json
and compares every per-layer metric whose unit is "count" (calls, trials,
Gamma draws, pools created).  Both runs must also pass their correctness
checks.  Exits 1 on any difference.  One round per run: about 2 min for
fig11_mc and 30 s for validate_par on a 2-core Xeon.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 1


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if not run["correct"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} cells failed")
                problems += 1
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                print(f"{workload}: {name} differs between runs: {a} vs {b}")
                problems += 1
        print(f"{workload}: " + ", ".join(
            f"{name}={first['metrics'][name]['value']}" for name in counts))
    print("FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
