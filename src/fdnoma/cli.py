"""Command-line front end: analytic/simulation sweeps to CSV, figure
presets, and the cross-engine validation harness.

Exit codes: 0 ok, 1 usage, 2 config, 3 numeric failure, 4 validation
failure.  CSV output is byte-identical across runs for a fixed seed and
preset on one machine, at any worker count; wall-clock timings are only
written under --timings because they would break that guarantee.  Another
CPU or BLAS kernel can change the last digits of exact cells: numpy's
exp/log loops without AVX-512 and OpenBLAS's SSE kernel each moved
hundreds of fig3-fig12 exact cells by up to 4.4e-14 absolute, while every
Monte Carlo, bound and asymptote cell stayed bitwise the same (ROADMAP
item 12).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, fields, replace

from . import analytic, mcsim
from .errors import ConfigError, FdnomaError, NumericsError
from .presets import AXES, METHODS, PRESET_NAMES, SweepSpec, figure_preset, linear_grid
from .sysmodel import SystemConfig, check_user, dump_config, load_config

__all__ = ["CsvRow", "run_sweep", "validate", "main"]


@dataclass(frozen=True)
class CsvRow:
    axis_value: float
    user: int
    method: str
    op: float | None
    ci_low: float | None = None
    ci_high: float | None = None
    trials: int | None = None
    wall_ms: int | None = None
    error: str = ""

    def formatted(self) -> list[str]:
        def f(x):
            if x is None:
                return ""
            if isinstance(x, (str, int)):
                return str(x)
            return format(x, ".17g")

        return [f(getattr(self, name)) for name in _CSV_COLUMNS]


_CSV_COLUMNS = tuple(field.name for field in fields(CsvRow))  # the CSV header


def _apply_axis(cfg: SystemConfig, axis: str, value: float) -> tuple[SystemConfig, float | None]:
    """Config and axis-supplied SNR (None off the snr_db axis) at one grid
    point.  Only bench/make_reference.py calls it; sweeps use SweepSpec.point."""
    return AXES[axis](cfg, value), value if axis == "snr_db" else None


def run_sweep(
    spec: SweepSpec,
    cfg: SystemConfig,
    out,
    workers: int = 1,
    timings: bool = False,
) -> list[CsvRow]:
    """Evaluate every (axis point, user, method) cell and stream CSV rows.

    Per-point failures become rows with the error column set; the sweep
    continues.  A point the axis rejects carries its error in every cell;
    otherwise a cell shows only its own method's error.  The requested
    methods are grouped by their batch in presets.METHODS, and each batch
    runs once over the points the axis accepts: every exact cell as one
    analytic.exact_outage_sweep, the simulation methods as one Monte Carlo
    sweep on the common random numbers of spec.seed, and each other closed
    form cell by cell.  Row order is fixed: grid order, then user, then
    method in METHODS order.  With timings, each cell records an equal
    share of its batch's wall time.  A user index outside 1..cfg.n_users
    raises ConfigError, and workers other than an integer >= 1 TypeError
    or ValueError, before anything is written.
    """
    for user in spec.users:
        check_user(user, cfg.n_users)
    workers = mcsim._integer_at_least(workers, 1, "workers")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    methods = tuple(m for m in METHODS if m in spec.methods)

    results: dict[tuple[int, int, str], analytic.OutagePoint | FdnomaError] = {}
    points = {}
    for idx, value in enumerate(spec.grid):
        try:
            points[idx] = spec.point(cfg, value)
        except FdnomaError as exc:
            results.update(dict.fromkeys(
                ((idx, user, m) for user in spec.users for m in methods), exc))

    batches: dict = {}  # each batch of the requested methods -> their names
    for m in methods if points else ():
        batches.setdefault(METHODS[m], []).append(m)
    wall_ms: dict[tuple[int, int, str], float] = {}
    for batch, names in batches.items():
        t0 = time.perf_counter()
        cells = batch(points, spec.users, tuple(names), spec, workers)
        share = (time.perf_counter() - t0) * 1000.0 / len(cells)
        results.update(cells)
        wall_ms.update(dict.fromkeys(cells, share))

    rows: list[CsvRow] = []
    for idx, value in enumerate(spec.grid):
        for user in spec.users:
            for method in methods:
                row = _cell(value, user, method, results[idx, user, method], spec.trials)
                if timings:
                    row = replace(row, wall_ms=int(round(wall_ms.get((idx, user, method), 0.0))))
                rows.append(row)
                writer.writerow(row.formatted())
    return rows


def _cell(value, user, method, result, trials) -> CsvRow:
    """The CSV row of one cell from its OutagePoint, or from the error
    (or its text) that took its place."""
    if not isinstance(result, analytic.OutagePoint):
        return CsvRow(axis_value=value, user=user, method=method, op=None, error=str(result))
    if result.ci is None:
        return CsvRow(axis_value=value, user=user, method=method, op=result.value)
    return CsvRow(axis_value=value, user=user, method=method, op=result.value,
                  ci_low=result.ci[0], ci_high=result.ci[1], trials=trials)


# --------------------------------------------------------------------------
# Cross-engine validation harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationLine:
    snr_db: float
    user: int
    check: str
    status: str  # "ok" | "fail" | "insufficient trials"
    detail: str


# Family-wise level of validate's mc_agreement lines
_CONF = 0.99


def validate(
    cfg: SystemConfig,
    snr_grid: tuple[float, ...],
    trials: int,
    tolerance: float = 0.10,
    seed: int = 1,
    workers: int = 1,
) -> tuple[list[ValidationLine], bool]:
    """Exact-vs-MC agreement, bound ordering, and (ideal, mu<1) slope checks.

    validate judges the rows of one sweep, SweepSpec(grid=snr_grid,
    methods=("exact", "lower_bound", "monte_carlo"), users=all, trials,
    seed): every exact, lower-bound and Monte Carlo value it reads is,
    bitwise, the op of the row run_sweep prints for that spec, since each
    point draws from the common random numbers of the sweep's seed.  A
    grid, trials or seed that the spec rejects raises its ConfigError
    before any point runs; so do workers other than an integer >= 1
    (TypeError or ValueError) and a tolerance that is not finite and > 0
    (ValueError).

    A point whose expected count of outages, or of successes, is below
    ~25 in both the exact value and the estimate cannot falsify the closed
    form, so it is reported as "insufficient trials" rather than a
    failure.  Each mc_agreement line's Wilson interval is that of the
    row's count, round(mc * trials), at 1 - (1 - 0.99) / n_lines
    (Bonferroni), so a correct program fails any of them with probability
    at most 1%.

    The grid points run on the calling thread and min(workers,
    len(snr_grid)) - 1 helper threads, so workers=1 starts no thread.  Each
    thread takes the next point in grid order, and each point's Monte Carlo
    trials run on the one thread that takes the point (numpy releases the
    GIL in the draws and the outage test).  The lines are built afterwards
    in grid order, so every value and every line is the same at any
    workers.  Once a point raises, no thread starts another, and validate
    raises the error of the first failing point in grid order on the
    calling thread.
    """
    users = tuple(range(1, cfg.n_users + 1))
    spec = SweepSpec(grid=tuple(snr_grid), methods=("exact", "lower_bound", "monte_carlo"),
                     users=users, trials=trials, seed=seed)
    workers = mcsim._integer_at_least(workers, 1, "workers")
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    grid, trials = spec.grid, spec.trials
    line_conf = 1.0 - (1.0 - _CONF) / (len(grid) * len(users))

    def evaluate(snr: float):
        sim = mcsim.simulate_outage_all(cfg, snr, trials, seed=spec.seed)["monte_carlo"]
        return sim, [(analytic.exact_outage(cfg, snr, l).value,
                      analytic.lower_bound_outage(cfg, snr, l).value) for l in users]

    # Each thread takes the next point in grid order until the grid runs out
    # or a point has failed.  A point's error is kept, and raised on the
    # calling thread once every helper has stopped.
    points: list = [None] * len(grid)
    errors: dict[int, BaseException] = {}
    cursor, lock = iter(enumerate(grid)), threading.Lock()

    def run_points():
        while True:
            with lock:
                job = None if errors else next(cursor, None)
            if job is None:
                return
            idx, snr = job
            try:
                points[idx] = evaluate(snr)
            except BaseException as exc:
                with lock:
                    errors[idx] = exc
                return

    helpers = []
    try:
        for _ in range(min(workers, len(grid)) - 1):
            helper = threading.Thread(target=run_points)
            helper.start()
            helpers.append(helper)
        run_points()
    finally:
        for helper in helpers:
            helper.join()
    if errors:  # every point before the first failure in grid order has run
        raise errors[min(errors)]

    lines: list[ValidationLine] = []
    exact_vals: dict[tuple[float, int], float] = {}
    for snr, (sim, values) in zip(grid, points):
        for l, (exact, lb) in zip(users, values):
            exact_vals[(snr, l)] = exact
            mc = sim[l - 1].value
            lo, hi = mcsim.wilson_interval(round(mc * trials), trials, line_conf)
            shown = f"exact={exact:.10g} mc={mc:.10g}"
            outages, successes = trials * max(exact, mc), trials * (1.0 - min(exact, mc))
            if min(outages, successes) < 25:
                rare, p = ("outages", exact) if outages <= successes else ("successes", 1.0 - exact)
                status, detail = "insufficient trials", (
                    f"expected {rare} {trials * p:.1f} too few to resolve ({shown})"
                )
            elif lo <= exact <= hi:
                status, detail = "ok", f"{shown} in [{lo:.10g}, {hi:.10g}]"
            else:
                status, detail = "fail", f"{shown} outside [{lo:.10g}, {hi:.10g}]"
            lines.append(ValidationLine(snr, l, "mc_agreement", status, detail))
            ordered = lb <= exact + 1e-8
            lines.append(ValidationLine(
                snr, l, "bound_ordering", "ok" if ordered else "fail",
                f"lb={lb:.10g} {'<=' if ordered else '>'} exact={exact:.10g}",
            ))
    # the slope is fitted to the points within 10 dB of the top; it needs two
    top = [s for s in grid if s >= grid[-1] - 10.0]
    if cfg.ideal and cfg.mu < 1.0 and len(grid) >= 3 and grid[-1] >= 30.0 and len(top) >= 2:
        for l in users:
            gdo = analytic.diversity_order(cfg, l)
            ys = [math.log10(max(exact_vals[(s, l)], 1e-300)) for s in top]
            slope = -statistics.linear_regression([s / 10.0 for s in top], ys).slope
            ok = abs(slope - gdo) <= tolerance * gdo
            lines.append(
                ValidationLine(
                    max(top),
                    l,
                    "high_snr_slope",
                    "ok" if ok else "fail",
                    f"fitted {slope:.3f} vs diversity order {gdo:.3f}",
                )
            )
    return lines, all(line.status != "fail" for line in lines)


# --------------------------------------------------------------------------
# argparse front end
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _grid_arg(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ConfigError(f"--grid expects start:stop:step, got {text!r}") from None
    return linear_grid(start, stop, step)


def _int_at_least(low: int):
    """argparse type of an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


# argparse types of every --trials, --seed and --workers flag
_trials = _int_at_least(mcsim.MIN_TRIALS)
_seed = _int_at_least(0)
_workers = _int_at_least(1)
_WORKERS_HELP = (
    f"processes for the Monte Carlo trials (default: 1); the trials run in chunks of "
    f"{mcsim.CHUNK_TRIALS:,}, one chunk per process at a time, so a run of fewer than "
    f"{2 * mcsim.CHUNK_TRIALS:,} trials uses one core"
)


def _tolerance(text: str) -> float:
    """argparse type of validate's --tolerance: a finite value > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _load_cfg(args) -> SystemConfig:
    if args.config:
        return load_config(args.config)
    if args.preset:
        variants = figure_preset(args.preset)
        if len(variants) > 1:
            labels = ", ".join(v.label for v in variants)
            raise ConfigError(
                f"preset {args.preset!r} has variants ({labels}); pick one as NAME:VARIANT"
            )
        return variants[0].config
    return SystemConfig()


def _add_common(p, sim: bool, sweep: bool = True, out: str = "output CSV path (default: stdout)",
                workers: str = _WORKERS_HELP):
    """Flags shared by the grid commands; sweep adds --users and --timings,
    which only a CSV sweep reads."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="system config file (flat key = value format)")
    source.add_argument("--preset", help="figure preset name, optionally NAME:VARIANT")
    p.add_argument("--out", help=out)
    if sweep:
        p.add_argument("--users", default="", help="comma-separated user indices (default: all)")
        p.add_argument("--timings", action="store_true", help="record wall_ms (breaks byte-identity)")
    if sim:
        p.add_argument("--trials", type=_trials, default=1_000_000)
        p.add_argument("--seed", type=_seed, default=1)
        p.add_argument("--workers", type=_workers, default=1, help=workers)


def _users(args, cfg) -> tuple[int, ...]:
    if not args.users:
        return tuple(range(1, cfg.n_users + 1))
    try:
        users = tuple(int(u) for u in args.users.split(","))
    except ValueError:
        raise ConfigError(f"--users expects comma-separated integers, got {args.users!r}") from None
    for u in users:
        check_user(u, cfg.n_users)
    return users


def _open_out(path):
    """path opened for writing, or stdout for no path."""
    try:
        return open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _run_spec(args, spec: SweepSpec, cfg: SystemConfig) -> None:
    out = _open_out(args.out)
    try:
        run_sweep(spec, cfg, out, workers=getattr(args, "workers", 1),
                  timings=args.timings)
    finally:
        if out is not sys.stdout:
            out.close()


def main(argv=None) -> int:
    parser = _Parser(prog="fdnoma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_methods(p, default, allowed):
        p.add_argument("--methods", default=default, help=f"subset of {','.join(allowed)}")
        p.set_defaults(allowed_methods=allowed)

    p = sub.add_parser("analyze", help="closed-form outage over an SNR grid")
    _add_common(p, sim=False)
    p.add_argument("--grid", default="0:40:5", help="SNR grid start:stop:step in dB")
    add_methods(p, "exact,lower_bound", tuple(m for m in METHODS if m not in mcsim.SIM_METHODS))

    p = sub.add_parser("simulate", help="Monte Carlo outage over an SNR grid")
    _add_common(p, sim=True)
    p.add_argument("--grid", default="0:40:5")
    add_methods(p, "monte_carlo", mcsim.SIM_METHODS)

    p = sub.add_parser("sweep", help="general sweep over any supported axis")
    _add_common(p, sim=True)
    p.add_argument("--axis", default="snr_db", choices=tuple(AXES))
    p.add_argument("--grid", required=True)
    add_methods(p, "exact,monte_carlo", tuple(METHODS))
    p.add_argument("--snr", type=float, help="fixed SNR in dB for non-SNR axes")

    p = sub.add_parser("preset", help="run a figure preset (all variants)")
    p.add_argument("name", help=f"one of: {', '.join(PRESET_NAMES)}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trials", type=_trials, help="override preset trial count")
    p.add_argument("--seed", type=_seed, help="override preset seed")
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.add_argument("--timings", action="store_true")

    p = sub.add_parser("validate", help="cross-engine agreement harness")
    _add_common(p, sim=True, sweep=False,
                out="output path of the check lines and the PASS/FAIL verdict (default: stdout)",
                workers="grid points run on that many threads (default: 1); each point's "
                        "Monte Carlo trials run on one thread")
    p.add_argument("--grid", default="0:30:5")
    p.add_argument("--tolerance", type=_tolerance, default=0.10,
                   help="relative slope tolerance (finite, > 0)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ConfigError as exc:
        print(f"fdnoma: config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"fdnoma: numeric failure: {exc}", file=sys.stderr)
        return 3
    except FdnomaError as exc:
        print(f"fdnoma: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser, args) -> int:
    if args.command in ("analyze", "simulate", "sweep"):
        cfg = _load_cfg(args)
        methods = tuple(args.methods.split(","))
        bad = [m for m in methods if m not in args.allowed_methods]
        if bad:
            raise ConfigError(
                f"{args.command} accepts the methods {', '.join(args.allowed_methods)}; "
                f"got {', '.join(bad)}"
            )
        spec = SweepSpec(
            axis=getattr(args, "axis", "snr_db"),
            grid=_grid_arg(args.grid),
            methods=methods,
            users=_users(args, cfg),
            trials=getattr(args, "trials", 100_000),
            seed=getattr(args, "seed", 1),
            snr_db=getattr(args, "snr", None),
        )
        _run_spec(args, spec, cfg)
        return 0

    if args.command == "preset":
        variants = figure_preset(args.name)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create directory {args.out}: {exc.strerror}") from None
        for var in variants:
            spec = var.sweep
            if args.trials is not None:
                spec = replace(spec, trials=args.trials)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            path = os.path.join(args.out, f"{args.name.split(':')[0]}_{var.label}.csv")
            with _open_out(path) as fh:
                run_sweep(spec, var.config, fh, workers=args.workers, timings=args.timings)
            cfg_path = os.path.join(args.out, f"{args.name.split(':')[0]}_{var.label}.cfg")
            with _open_out(cfg_path) as fh:
                fh.write(dump_config(var.config))
        return 0

    if args.command == "validate":
        cfg = _load_cfg(args)
        grid = _grid_arg(args.grid)
        out = _open_out(args.out)
        try:
            lines, ok = validate(cfg, grid, trials=args.trials, tolerance=args.tolerance,
                                 seed=args.seed, workers=args.workers)
            for line in lines:
                print(
                    f"{line.check:16s} snr={line.snr_db:6.1f} user={line.user} "
                    f"{line.status:20s} {line.detail}",
                    file=out,
                )
            print("PASS" if ok else "FAIL", file=out)
        finally:
            if out is not sys.stdout:
                out.close()
        return 0 if ok else 4

    parser.error(f"unknown command {args.command!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
