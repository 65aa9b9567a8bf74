"""The benchmark's tracer patches fdnoma names by hand (bench/tracing.py),
and its checker judges every cell a workload computes (bench/workloads.py).

A renamed or removed hook, or one whose signature no longer fits the
tracer's wrapper, fails here rather than in a traced benchmark run; so does
a change that makes one checked pass of a workload fail a cell.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# install, then one traced pass through the wrapped names
TRACED_RUN = """
import tracing
from fdnoma import cli, SystemConfig
rec = tracing.Recorder()
tracing.install(rec)
cli.validate(SystemConfig(), (10.0,), trials=10_000, seed=1)
# the first-hop law is built once and read by every later user
assert tracing.layer_metrics(rec)["analytic.first_hop_mixture.hit_ratio"] > 0
"""


def test_tracer_installs_against_src():
    path = [str(ROOT / "bench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# attempted cells: 4 variants x 17 points x 3 users x 3 methods; and the
# verdict plus 21 mc_agreement, 21 bound_ordering and 3 slope lines
@pytest.mark.parametrize("workload, attempted", [("fig11_mc", 612), ("validate_par", 46)])
def test_one_checked_pass_of_each_workload(workload, attempted):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"),
                           "--workload", workload, "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["attempted"], report["failed"]) == (attempted, 0), report["failures"]
