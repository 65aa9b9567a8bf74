"""Write the CLI outputs that a refactor must keep byte for byte.

    python tests/snapshot_outputs.py OUTDIR

Runs the CLI of the src/fdnoma next to this file, in process:

- `fdnoma preset figN --trials 20000 --seed 1` for fig3..fig12, its CSV
  and .cfg files under OUTDIR/presets;
- `fdnoma validate --grid 0:30:5 --trials 100000`;
- `fdnoma sweep --axis mu --snr 15` of all seven methods twice: on the
  default config over mu = 0..1.5, whose points past 1 the axis rejects,
  and at alpha_si = 1e-20 over mu = 0..1, where the exact form fails at
  some points and asymptotic_practical at every one;
- two Monte Carlo runs of several 1e6-trial chunks on a pool of 2:
  `fdnoma sweep --grid 0:20:10 --trials 2100000 --workers 2` of the three
  simulation methods (3 chunks, the last one partial) and
  `fdnoma validate --grid 0:30:10 --trials 2500000 --workers 2`, so that
  the streams of the chunks past the first, and the pool, are covered;
- `fdnoma validate --grid 0:10:10 --trials 10000 --out validate_file.txt`,
  the check lines written to a file;
- rejected inputs, each the exit code and the message of one input rule:
  `fdnoma sweep --grid 0:inf:5` (grid bounds),
  `fdnoma sweep --axis mu --snr nan --grid 0:1:0.5` (a fixed SNR),
  `fdnoma sweep --grid 0:10:5 --users 4` (a user index) and
  `fdnoma analyze --config F` of a file F that sets `mu = nan`, `n_b = 1` or
  `n_b = 100` (config fields), each exit 2, and
  `fdnoma simulate --grid 0:0:5 --trials 5` (a count flag), exit 1.

The commands run in OUTDIR, on paths relative to it, so no output holds
the path of OUTDIR.  Each command's stdout, stderr and exit code go to
OUTDIR/NAME.out, .err and .code.  Snapshot two trees into two directories
(copy this file into a checkout that lacks it); `diff -r` of the two is the
check.  No --timings run is made, as wall_ms is the one column allowed to
change.  pytest does not collect this file; a run takes several seconds.
"""

import contextlib
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fdnoma import cli  # noqa: E402
from fdnoma.presets import PRESET_NAMES  # noqa: E402
from fdnoma.sysmodel import SystemConfig, dump_config  # noqa: E402

ALL_METHODS = "exact,lower_bound,asymptotic_ideal,asymptotic_practical,monte_carlo,hd_noma,fd_oma"


def run(name: str, argv: list[str]) -> None:
    """Run one CLI command and write its stdout, stderr and exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    for suffix, text in (("out", stdout.getvalue()), ("err", stderr.getvalue()),
                         ("code", f"{code}\n")):
        Path(f"{name}.{suffix}").write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    Path(argv[0]).mkdir(parents=True, exist_ok=True)
    os.chdir(argv[0])
    for name in PRESET_NAMES:
        run(name, ["preset", name, "--out", "presets", "--trials", "20000", "--seed", "1"])
    run("validate", ["validate", "--grid", "0:30:5", "--trials", "100000"])
    cfg = "alpha_si_1e-20.cfg"
    Path(cfg).write_text(dump_config(replace(SystemConfig(), alpha_si=1e-20)), encoding="utf-8")
    sweep = ["sweep", "--axis", "mu", "--snr", "15", "--trials", "20000",
             "--methods", ALL_METHODS]
    run("sweep_mu", [*sweep, "--grid", "0:1.5:0.25"])
    run("sweep_mu_alpha_si", [*sweep, "--grid", "0:1:0.25", "--config", cfg])
    run("sweep_chunks", ["sweep", "--grid", "0:20:10", "--trials", "2100000",
                         "--workers", "2", "--methods", "monte_carlo,hd_noma,fd_oma"])
    run("validate_chunks", ["validate", "--grid", "0:30:10", "--trials", "2500000",
                            "--workers", "2"])
    run("validate_file", ["validate", "--grid", "0:10:10", "--trials", "10000",
                          "--out", "validate_file.txt"])
    run("reject_grid", ["sweep", "--grid", "0:inf:5"])
    run("reject_snr", ["sweep", "--axis", "mu", "--snr", "nan", "--grid", "0:1:0.5"])
    run("reject_user", ["sweep", "--grid", "0:10:5", "--users", "4"])
    for name, text in (("reject_config", "mu = nan"), ("reject_n_b_low", "n_b = 1"),
                       ("reject_n_b_high", "n_b = 100")):
        Path(f"{name}.cfg").write_text(text + "\n", encoding="utf-8")
        run(name, ["analyze", "--config", f"{name}.cfg"])
    run("reject_trials", ["simulate", "--grid", "0:0:5", "--trials", "5"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
