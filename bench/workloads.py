"""Workload definitions and output checks of the fdnoma benchmark.

Each workload is prepared (presets expanded, specs built from the seed),
executed through the public entry points (`cli.run_sweep`, `cli.validate`)
and then checked cell by cell:

* an exact cell must match the reference value pinned in reference.json
  to within EXACT_ATOL + EXACT_RTOL * |ref|;
* a Monte Carlo cell gets z = (p_hat - p_ref) / sqrt(p_ref (1 - p_ref) / n)
  against the pinned exact value of the same event, and fails when
  |z| > Z_MAX.  Only cells where both the expected outages n p_ref and the
  expected successes n (1 - p_ref) reach MIN_EXPECTED are judged, so the
  rule is symmetric in the two tails;
* a cell with an error column fails;
* a validate line fails when its status is "fail", except mc_agreement
  lines, which are judged by the z rule above and by whether validate's
  own 99% interval test is consistent with it (see _check_validate).

The module imports fdnoma lazily so that the orchestrator can import the
constants without the package on its path.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The README states the exact form is good to ~1e-10 absolute; the check
# sits an order of magnitude above that floor.
EXACT_ATOL = 1e-9
EXACT_RTOL = 1e-6
MIN_EXPECTED = 25.0
# Two-sided normal tail 5.7e-7 per judged cell: a false alarm in a run of
# ~400 judged cells has probability ~2e-4.
Z_MAX = 5.0
# validate fails an mc_agreement line when the exact value lies outside
# the 99% Wilson interval of the estimate, i.e. when |z| against that
# value exceeds 2.576.  A line it fails below this |z| means its interval
# or its test is broken.
VALIDATE_Z_MIN_FAIL = 2.5

FIG7_TRIALS = 100_000
FIG11_TRIALS = 1_000_000
VALIDATE_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
VALIDATE_TRIALS = 4_000_000
VALIDATE_WORKERS = 2

WORKLOADS = ("fig7_exact", "fig11_mc", "validate_par")
_PRESET = {"fig7_exact": ("fig7", FIG7_TRIALS), "fig11_mc": ("fig11", FIG11_TRIALS)}
_SIM_METHODS = ("monte_carlo", "hd_noma", "fd_oma")


@dataclass(frozen=True)
class Job:
    """One entry-point call of a workload: a preset variant or a validate run."""

    label: str
    config: object  # fdnoma.SystemConfig
    spec: object = None  # fdnoma.SweepSpec; None for validate


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # one line per failed cell
    notes: list = field(default_factory=list)  # what was seen but did not fail
    verdict: str = ""
    validate_fail_lines: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


def prepare(name: str, seed: int) -> list[Job]:
    """Expand the workload's presets with the benchmark seed applied."""
    from fdnoma import SystemConfig, figure_preset

    if name == "validate_par":
        return [Job("default", SystemConfig())]
    preset, trials = _PRESET[name]
    return [
        Job(v.label, v.config, replace(v.sweep, trials=trials, seed=seed))
        for v in figure_preset(preset)
    ]


def execute(name: str, jobs: list[Job], seed: int) -> list:
    """Run the jobs through the CLI entry points; returns their raw results.

    A sweep job yields its CsvRow list.  A validate job yields
    (lines, ok, estimates): validate returns only its verdict lines, so the
    Monte Carlo and exact values it computed are recorded at the
    `mcsim.simulate_outage_all` and `analytic.exact_outage` names that
    `cli` looks up (7 and 21 calls), keyed by (snr_db, user).
    """
    from fdnoma import analytic, cli, mcsim

    if name != "validate_par":
        return [cli.run_sweep(job.spec, job.config, io.StringIO()) for job in jobs]

    (job,) = jobs
    simulate, exact = mcsim.simulate_outage_all, analytic.exact_outage
    estimates: dict[tuple[str, float, int], float] = {}

    def recording_simulate(cfg, snr_db, trials, **kwargs):
        res = simulate(cfg, snr_db, trials, **kwargs)
        for pt in res["monte_carlo"]:
            estimates["monte_carlo", snr_db, pt.user] = pt.value
        return res

    def recording_exact(cfg, snr_db, l, *args, **kwargs):
        pt = exact(cfg, snr_db, l, *args, **kwargs)
        estimates["exact", snr_db, l] = pt.value
        return pt

    mcsim.simulate_outage_all, analytic.exact_outage = recording_simulate, recording_exact
    try:
        lines, ok = cli.validate(job.config, VALIDATE_GRID, trials=VALIDATE_TRIALS, seed=seed,
                                 workers=VALIDATE_WORKERS)
    finally:
        mcsim.simulate_outage_all, analytic.exact_outage = simulate, exact
    return [(lines, ok, estimates)]


def load_reference(name: str) -> dict[str, float]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["values"][name]


def ref_key(label: str, axis_value: float, user: int, event: str) -> str:
    """Key of one pinned value; event is "exact" or a baseline name."""
    return f"{label} {axis_value!r} {user} {event}"


def mc_z(p_hat: float, p_ref: float, trials: int) -> float | None:
    """z score of a Monte Carlo estimate, or None when the cell is too thin
    to judge in either tail."""
    if min(trials * p_ref, trials * (1.0 - p_ref)) < MIN_EXPECTED:
        return None
    return (p_hat - p_ref) / math.sqrt(p_ref * (1.0 - p_ref) / trials)


def _exact_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= EXACT_ATOL + EXACT_RTOL * abs(ref)


def check(name: str, jobs: list[Job], results: list) -> Outcome:
    ref = load_reference(name)
    if name == "validate_par":
        return _check_validate(jobs, results, ref)
    return _check_sweeps(jobs, results, ref)


def _check_sweeps(jobs: list[Job], results: list, ref: dict) -> Outcome:
    out = Outcome()
    for job, rows in zip(jobs, results):
        spec = job.spec
        expected = len(spec.grid) * len(spec.users) * len(spec.methods)
        out.attempted += expected
        for _ in range(expected - len(rows)):
            out.fail(f"{job.label}: {len(rows)} rows, expected {expected}")
        for row in rows:
            where = f"{job.label} x={row.axis_value!r} user={row.user} {row.method}"
            if row.error or row.op is None:
                out.fail(f"{where}: error {row.error!r}")
                continue
            event = "exact" if row.method in ("exact", "monte_carlo") else row.method
            p_ref = ref[ref_key(job.label, row.axis_value, row.user, event)]
            if row.method in _SIM_METHODS:
                z = mc_z(row.op, p_ref, row.trials)
                if z is not None and abs(z) > Z_MAX:
                    out.fail(f"{where}: op={row.op!r} vs exact {p_ref!r}, |z|={abs(z):.2f}")
            elif not _exact_ok(row.op, p_ref):
                out.fail(f"{where}: op={row.op!r} vs reference {p_ref!r}")
    return out


def _check_validate(jobs: list[Job], results: list, ref: dict) -> Outcome:
    """Every validate line is a cell, and so is the verdict.

    validate's own mc_agreement rule tests the exact value against a 99%
    Wilson interval per line.  On a correct program that fails one of its
    21 lines in about one seed out of five, so those lines are judged here
    by the symmetric z rule on the estimate validate computed, plus the
    exact value it used against the pinned one.  A line validate fails is
    a fault too when its |z| is below VALIDATE_Z_MIN_FAIL, and the verdict
    is a fault when it disagrees with the lines; a line validate fails at
    a |z| its interval allows is reported as a note.
    """
    out = Outcome()
    for job, (lines, ok, estimates) in zip(jobs, results):
        out.verdict = "PASS" if ok else "FAIL"
        out.validate_fail_lines += sum(line.status == "fail" for line in lines)
        out.attempted += 1
        if ok != all(line.status != "fail" for line in lines):
            out.fail(f"{job.label}: verdict {out.verdict} disagrees with its lines")
        for line in lines:
            out.attempted += 1
            where = f"{job.label} {line.check} snr={line.snr_db!r} user={line.user}"
            if line.check != "mc_agreement":
                if line.status == "fail":
                    out.fail(f"{where}: {line.detail}")
                continue
            p_ref = ref[ref_key(job.label, line.snr_db, line.user, "exact")]
            exact = estimates.get(("exact", line.snr_db, line.user))
            mc = estimates.get(("monte_carlo", line.snr_db, line.user))
            if exact is None or mc is None:
                out.fail(f"{where}: no exact or Monte Carlo value recorded")
                continue
            if not _exact_ok(exact, p_ref):
                out.fail(f"{where}: exact={exact!r} vs reference {p_ref!r}")
                continue
            z = mc_z(mc, p_ref, VALIDATE_TRIALS)
            if z is not None and abs(z) > Z_MAX:
                out.fail(f"{where}: mc={mc!r} vs exact {p_ref!r}, |z|={abs(z):.2f}")
            elif line.status != "fail":
                continue
            elif z is not None and abs(z) < VALIDATE_Z_MIN_FAIL:
                out.fail(f"{where}: validate fails it ({line.detail}) at |z|={abs(z):.2f}")
            else:
                shown = "n/a" if z is None else f"{z:.2f}"
                out.notes.append(f"{where}: validate fails it ({line.detail}), z={shown}")
    return out
