"""Regenerate bench/reference.json, the exact values the benchmark checks
its cells against.

The file pins the values computed by the commit named in its "commit"
field.  Regenerate it only to correct the reference itself, never to make a
changed program pass:

    python3 bench/make_reference.py <commit-id> > bench/reference.json

For each workload it stores, per (variant, axis value, user):
  "exact"  - analytic.exact_outage of the cell (also the value a
             monte_carlo cell estimates);
  "fd_oma" - analytic.exact_outage_for_lambda at the FD-OMA threshold,
             the value an fd_oma cell estimates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdnoma import analytic, cli  # noqa: E402
from fdnoma.sysmodel import map_baseline_thresholds  # noqa: E402

import workloads  # noqa: E402


def _sweep_values(name: str) -> dict[str, float]:
    values = {}
    for job in workloads.prepare(name, seed=1):
        spec = job.spec
        for x in spec.grid:
            cfg, snr = cli._apply_axis(job.config, spec.axis, x)
            snr = spec.snr_db if snr is None else snr
            for user in spec.users:
                key = workloads.ref_key(job.label, x, user, "exact")
                values[key] = analytic.exact_outage(cfg, snr, user).value
                if "fd_oma" in spec.methods:
                    lam = map_baseline_thresholds(cfg, "fd_oma")[user - 1]
                    key = workloads.ref_key(job.label, x, user, "fd_oma")
                    values[key] = analytic.exact_outage_for_lambda(cfg, snr, user, lam).value
    return values


def _validate_values() -> dict[str, float]:
    values = {}
    for job in workloads.prepare("validate_par", seed=1):
        for snr in workloads.VALIDATE_GRID:
            for user in range(1, job.config.n_users + 1):
                key = workloads.ref_key(job.label, snr, user, "exact")
                values[key] = analytic.exact_outage(job.config, snr, user).value
    return values


def main() -> None:
    out = {
        "commit": sys.argv[1] if len(sys.argv) > 1 else "",
        "values": {
            "fig7_exact": _sweep_values("fig7_exact"),
            "fig11_mc": _sweep_values("fig11_mc"),
            "validate_par": _validate_values(),
        },
    }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
