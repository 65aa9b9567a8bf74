"""Command-line front end: analytic/simulation sweeps to CSV, figure
presets, and the cross-engine validation harness.

Exit codes: 0 ok, 1 usage, 2 config, 3 numeric failure, 4 validation
failure.  CSV output is byte-identical across runs for a fixed seed and
preset; wall-clock timings are only written under --timings because they
would break that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import analytic, mcsim
from .errors import ConfigError, FdnomaError, NumericsError
from .presets import AXES, METHODS, PRESET_NAMES, SweepSpec, figure_preset, linear_grid, methods_of
from .sysmodel import SystemConfig, dump_config, load_config

__all__ = ["CsvRow", "run_sweep", "validate", "main"]

_CSV_COLUMNS = ("axis_value", "user", "method", "op", "ci_low", "ci_high", "trials", "wall_ms", "error")


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
            if isinstance(x, int):
                return str(x)
            return format(x, ".17g")

        return [
            f(self.axis_value),
            str(self.user),
            self.method,
            f(self.op),
            f(self.ci_low),
            f(self.ci_high),
            f(self.trials),
            f(self.wall_ms),
            self.error,
        ]


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
    continues.  A cell shows only its own method's error: a simulation
    method whose threshold mapping fails at a point fills only its own
    cells there, and the exact cells come from every point the axis
    accepts.  Row order is fixed: grid order, then user, then method in
    canonical order.  The simulation methods run as one Monte Carlo sweep
    over the grid, on common random numbers from RngStream(spec.seed).
    The exact cells of the grid run as one analytic.exact_outage_sweep,
    looked up when the sweep runs.  With timings, an exact cell records an
    equal share of that batch's wall time, another analytic cell its own
    call's, and a simulation cell its grid point's equal share of the
    sweep's Monte Carlo time.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    methods = tuple(m for m in METHODS if m in spec.methods)
    sim_methods = tuple(m for m in methods if METHODS[m].kind == "simulation")

    n = len(spec.grid)
    cfgs, snrs, errors = [cfg] * n, [math.nan] * n, [""] * n
    for idx, value in enumerate(spec.grid):
        try:
            cfgs[idx], snrs[idx] = spec.point(cfg, value)
        except FdnomaError as exc:
            errors[idx] = str(exc)

    # (point, simulation method) -> the users' OutagePoints, or the error of
    # the point or of that method's threshold mapping
    sim: dict[tuple[int, str], list[analytic.OutagePoint] | FdnomaError] = {}
    sim_ms = 0.0
    todo = [idx for idx in range(n) if not errors[idx]]
    if sim_methods and todo:
        t0 = time.perf_counter()
        results = mcsim.simulate_sweep(
            [(cfgs[idx], snrs[idx]) for idx in todo],
            spec.trials,
            rng=mcsim.RngStream(spec.seed),
            workers=workers,
            methods=sim_methods,
            hd_rule=spec.hd_rule,
        )
        live = [res for res in results if not isinstance(res, FdnomaError)]
        for idx, res in zip(todo, results):
            for method in sim_methods:
                sim[idx, method] = res if isinstance(res, FdnomaError) else res[method]
        if live:
            sim_ms = (time.perf_counter() - t0) * 1000.0 / len(live)

    exact: dict[tuple[int, int], analytic.OutagePoint | FdnomaError] = {}
    exact_ms = 0.0
    cells = [(idx, user) for idx in range(n) if not errors[idx] for user in spec.users]
    if "exact" in methods and cells:
        t0 = time.perf_counter()
        results = analytic.exact_outage_sweep(
            [(cfgs[idx], snrs[idx], user, None) for idx, user in cells]
        )
        exact = dict(zip(cells, results))
        exact_ms = (time.perf_counter() - t0) * 1000.0 / len(cells)

    rows: list[CsvRow] = []
    for idx, value in enumerate(spec.grid):
        for user in spec.users:
            for method in methods:
                t0 = time.perf_counter()
                if errors[idx]:
                    result = errors[idx]
                elif method == "exact":
                    result = exact[idx, user]
                elif method in sim_methods:
                    result = sim[idx, method]
                    if isinstance(result, list):
                        result = result[user - 1]
                else:
                    try:
                        result = METHODS[method].call(cfgs[idx], snrs[idx], user)
                    except FdnomaError as exc:
                        result = exc
                row = _cell(value, user, method, result, spec.trials)
                if timings:
                    ms = (time.perf_counter() - t0) * 1000.0
                    if isinstance(sim.get((idx, method)), list):
                        ms += sim_ms
                    if method == "exact" and (idx, user) in exact:
                        ms += exact_ms
                    row = replace(row, wall_ms=int(round(ms)))
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


def validate(
    cfg: SystemConfig,
    snr_grid: tuple[float, ...],
    trials: int,
    tolerance: float = 0.10,
    seed: int = 1,
    workers: int = 1,
    conf: float = 0.99,
) -> tuple[list[ValidationLine], bool]:
    """Exact-vs-MC agreement, bound ordering, and (ideal, mu<1) slope checks.

    A point whose expected count of outages, or of successes, is below
    ~25 in both the exact value and the estimate cannot falsify the closed
    form, so it is reported as "insufficient trials" rather than a
    failure.  conf is the level of the whole set of mc_agreement lines:
    each line's Wilson interval is taken at 1 - (1 - conf) / n_lines
    (Bonferroni), so a correct program fails any of them with probability
    at most 1 - conf.

    The grid points run on min(workers, len(snr_grid)) threads, and each
    point's Monte Carlo trials on the one thread that runs the point (numpy
    releases the GIL in the draws and the outage test).  Point idx draws
    from RngStream(seed, idx * 1000) and the lines are built afterwards in
    grid order, so every value and every line is the same at any workers.
    When points raise, validate raises the error of the first of them in
    grid order.
    """
    users = range(1, cfg.n_users + 1)
    line_conf = 1.0 - (1.0 - conf) / (len(snr_grid) * cfg.n_users)

    def evaluate(idx: int, snr: float):
        sim = mcsim.simulate_outage_all(
            cfg, snr, trials, rng=mcsim.RngStream(seed, idx * 1000), conf=line_conf,
        )["monte_carlo"]
        return sim, [(analytic.exact_outage(cfg, snr, l).value,
                      analytic.lower_bound_outage(cfg, snr, l).value) for l in users]

    pool = ThreadPoolExecutor(max_workers=min(workers, len(snr_grid)))
    try:
        points = list(pool.map(evaluate, range(len(snr_grid)), snr_grid))
    finally:  # after a failure, the points not yet started are not run
        pool.shutdown(cancel_futures=True)

    lines: list[ValidationLine] = []
    exact_vals: dict[tuple[float, int], float] = {}
    for snr, (sim, values) in zip(snr_grid, points):
        for l, (exact, lb) in zip(users, values):
            exact_vals[(snr, l)] = exact
            mc = sim[l - 1].value
            lo, hi = sim[l - 1].ci
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
    top = [s for s in snr_grid if s >= max(snr_grid) - 10.0]
    if cfg.ideal and cfg.mu < 1.0 and len(snr_grid) >= 3 and max(snr_grid) >= 30.0 and len(top) >= 2:
        for l in range(1, cfg.n_users + 1):
            gdo = analytic.diversity_order(cfg, l)
            ys = [math.log10(max(exact_vals[(s, l)], 1e-300)) for s in top]
            xs = [s / 10.0 for s in top]
            n = len(xs)
            sx, sy = sum(xs), sum(ys)
            sxx = sum(x * x for x in xs)
            sxy = sum(x * y for x, y in zip(xs, ys))
            slope = -(n * sxy - sx * sy) / (n * sxx - sx * sx)
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
        if not 1 <= u <= cfg.n_users:
            raise ConfigError(f"user index {u} out of range 1..{cfg.n_users}")
    return users


def _open_out(path):
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return sys.stdout


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
    add_methods(p, "exact,lower_bound", methods_of("analytic"))

    p = sub.add_parser("simulate", help="Monte Carlo outage over an SNR grid")
    _add_common(p, sim=True)
    p.add_argument("--grid", default="0:40:5")
    add_methods(p, "monte_carlo", methods_of("simulation"))
    p.add_argument("--hd-rule", default="equal", choices=("equal", "squared"))

    p = sub.add_parser("sweep", help="general sweep over any supported axis")
    _add_common(p, sim=True)
    p.add_argument("--axis", default="snr_db", choices=tuple(AXES))
    p.add_argument("--grid", required=True)
    add_methods(p, "exact,monte_carlo", tuple(METHODS))
    p.add_argument("--snr", type=float, help="fixed SNR in dB for non-SNR axes")
    p.add_argument("--hd-rule", default="equal", choices=("equal", "squared"))

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
            hd_rule=getattr(args, "hd_rule", "equal"),
        )
        _run_spec(args, spec, cfg)
        return 0

    if args.command == "preset":
        variants = figure_preset(args.name)
        os.makedirs(args.out, exist_ok=True)
        for var in variants:
            spec = var.sweep
            if args.trials is not None:
                spec = replace(spec, trials=args.trials)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            path = os.path.join(args.out, f"{args.name.split(':')[0]}_{var.label}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                run_sweep(spec, var.config, fh, workers=args.workers, timings=args.timings)
            cfg_path = os.path.join(args.out, f"{args.name.split(':')[0]}_{var.label}.cfg")
            with open(cfg_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(dump_config(var.config))
        return 0

    if args.command == "validate":
        cfg = _load_cfg(args)
        lines, ok = validate(
            cfg,
            _grid_arg(args.grid),
            trials=args.trials,
            tolerance=args.tolerance,
            seed=args.seed,
            workers=args.workers,
        )
        out = _open_out(args.out)
        try:
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
