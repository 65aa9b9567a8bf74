"""The benchmark's tracer patches fdnoma names by hand (bench/tracing.py).

A renamed or removed hook, or one whose signature no longer fits the
tracer's wrapper, fails here rather than in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

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
