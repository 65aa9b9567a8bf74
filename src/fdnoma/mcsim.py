"""Monte Carlo outage engine.

Independent of the closed-form path: channels are sampled as Gamma powers,
ordered exactly as the selection/feedback protocol orders them, and each
user's joint SIC stage event is tested from the SINR expression directly,
as one linear inequality in five per-trial statistics (see _PointPlan).

Reproducibility: trials are partitioned into fixed chunks of CHUNK_TRIALS;
chunk i spawns n_users + 2 child streams of SeedSequence((seed, i)), one
per variable: the first hop, users 1..L, then the SI gain.  Each child is
read block after block, so a variable's draws do not depend on the block
size.
Chunk counts are integers and merge by addition, so the totals are
identical for any worker count and any execution order.

A sweep draws each chunk once: the grid axes change only Gamma scales,
theta coefficients and thresholds, so every grid point reweights the same
standard Gamma draws (common random numbers).  In each block of
BLOCK_TRIALS trials one user's statistics stay in cache while every point
tests them, by one (methods, 5) by (5, block) matrix product.
"""

from __future__ import annotations

import math
import operator
import statistics
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import get_args

import numpy as np

from .errors import ConfigError, FdnomaError, NumericsError
from .sysmodel import (
    Baseline,
    LinkStats,
    OutagePoint,
    SystemConfig,
    check_user,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    map_baseline_thresholds,
    snr_linear,
)

__all__ = [
    "CHUNK_TRIALS",
    "BLOCK_TRIALS",
    "MIN_TRIALS",
    "SIM_METHODS",
    "wilson_interval",
    "sample_first_hop",
    "sample_second_hop",
    "sample_si_gain",
    "simulate_outage",
    "simulate_outage_all",
    "simulate_sweep",
    "simulate_baseline",
]

CHUNK_TRIALS = 1_000_000
# Trials per block of the draws, the outage test and the users'
# compare-exchange sort.  The block's float64 rows are 128 KiB each; the
# statistics and the product of the test (5 + methods rows) stay in L2 while
# every point reads them.  On a 2-core Xeon (4 MiB L2 per core) the fig11
# sweep took 15% less time than with 2**15 and 33% less than with 2**16.
# A chunk holds 5 + max(n_b, n_users) + methods such rows, n_users more when
# user scales differ: ~1.2 MB at the default config, whatever its size.
# Counts do not depend on it, but for the rounding noted in simulate_sweep.
BLOCK_TRIALS = 1 << 14
MIN_TRIALS = 10_000

SIM_METHODS = ("monte_carlo", *get_args(Baseline))


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first access and kept as a module
    global (PEP 562): multiprocessing loads only when a sweep starts a pool,
    and tests can still replace the class here."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _integer_at_least(value, low: int, name: str) -> int:
    try:
        if isinstance(value, bool):  # it would pass as 0 or 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def wilson_interval(successes: int, trials: int, conf: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; preferred over Wald for small-probability tails.

    Its ends are exactly 0 at no successes and exactly 1 at all trials, as
    the score interval's are: rounding does not move them.  Both counts
    must be integers (a bool or a float raises TypeError).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in 0..trials, got {successes} of {trials} trials")
    _integer_at_least(successes, 0, "successes")
    _integer_at_least(trials, 1, "trials")
    if not 0.0 < conf < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {conf!r}")
    z = statistics.NormalDist().inv_cdf(0.5 + conf / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def _standard_gamma(rng: np.random.Generator, shape: float, out: np.ndarray) -> np.ndarray:
    """Fill out with standard Gamma(shape, 1) draws and return it.

    At shape 1 numpy's standard_gamma calls the exponential sampler once
    per element, so standard_exponential gives the same values and leaves
    the generator in the same state, in less time.
    """
    if shape == 1:
        return rng.standard_exponential(out=out)
    return rng.standard_gamma(shape, out=out)


def _top2(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The two largest of each row of g (n, n_b) into out (2, n), as
    [second largest, largest].

    A running (second, largest) pair over the columns; with x the next
    column, second <- min(largest, max(second, x)) and largest <-
    max(largest, x).  min and max select, so the values are bitwise those a
    partition would give.
    """
    second, largest = out
    np.minimum(g[:, 0], g[:, 1], out=second)
    np.maximum(g[:, 0], g[:, 1], out=largest)
    for j in range(2, g.shape[1]):
        x = g[:, j]
        np.maximum(second, x, out=second)
        np.minimum(second, largest, out=second)
        np.maximum(largest, x, out=largest)
    return out


def _sort_rows(x: np.ndarray, tmp: np.ndarray) -> None:
    """Sort the columns of x (n, k) in place, so that x[i] <= x[i + 1].

    Insertion by compare-exchange (a fixed sorting network; Knuth, TAOCP
    vol. 3, 5.3.4): row i's value is carried in tmp (length k) past the
    sorted rows above it, each step moving the larger value one row down.
    min and max select, so over NaN-free input the result is bitwise
    np.sort(x, axis=0), without numpy's one small strided sort per column.
    """
    for i in range(1, x.shape[0]):
        np.minimum(x[i - 1], x[i], out=tmp)
        np.maximum(x[i - 1], x[i], out=x[i])
        for j in range(i - 2, -1, -1):
            np.maximum(x[j], tmp, out=x[j + 1])
            np.minimum(x[j], tmp, out=tmp)
        x[0] = tmp


def _ru_scales(cfg: SystemConfig, stats: LinkStats) -> tuple[float, ...]:
    return tuple(om / m for om, m in zip(stats.omega_hat_ru, cfg.m_ru))


def sample_first_hop(cfg: SystemConfig, stats: LinkStats, rng: np.random.Generator, size: int = 1):
    """Sum of the two largest of n_b i.i.d. Gamma(m_sr) estimated gains.

    A common positive scale does not change which two are largest, so the
    standard (size, n_b) draw, made row-major, is reduced before any
    rescaling.
    """
    top = _top2(_standard_gamma(rng, cfg.m_sr, np.empty((size, cfg.n_b))), np.empty((2, size)))
    scale = stats.omega_hat_sr / cfg.m_sr
    return scale * top[0] + scale * top[1]


def sample_second_hop(cfg: SystemConfig, stats: LinkStats, rng: np.random.Generator, size: int = 1):
    """Per-user combined gains (n_r branches each), sorted ascending."""
    b = np.empty((cfg.n_users, size))
    for l in range(cfg.n_users):
        _standard_gamma(rng, cfg.m_ru[l] * cfg.n_r, b[l])
    b *= np.reshape(_ru_scales(cfg, stats), (-1, 1))
    _sort_rows(b, np.empty(size))
    return b.T


def sample_si_gain(cfg: SystemConfig, stats: LinkStats, rng: np.random.Generator, size: int = 1):
    return stats.omega_rr / cfg.m_rr * _standard_gamma(rng, cfg.m_rr, np.empty(size))


@dataclass(frozen=True)
class _PointPlan:
    """Outage-test weights of one grid point, derived before any draw.

    A block is tested on five standard statistics per user, X = [A0 B, A0,
    B, C0, B C0]: A0 = T0 + T1 sums the two largest standard first-hop
    draws, C0 is the standard SI gain and B the user's sorted gain.  With
    a = s_sr A0, b = s_b B and c = s_rr C0, user l is in outage iff
    (gbar^2/2) a b <= Lambda+ (gbar theta1 a + gbar theta2 b + gbar theta3 c
    + gbar^2 theta4 b c + theta5), without the SI terms for hd_noma: that is
    w[l-1, j] . X <= rhs[l-1, j] for the j-th method, w (n_users, methods,
    5) holding the scales, theta coefficients and Lambda+, rhs = Lambda+
    theta5.

    scale_ru: the users' Gamma scales.  When they are equal the standard
    draws sort like the gains, so B is the standard order statistic and s_b
    that scale; otherwise (sorts) B is the gain, scaled and sorted per
    point, and s_b = 1.
    """

    scale_ru: tuple[float, ...]
    w: np.ndarray
    rhs: np.ndarray

    @property
    def sorts(self) -> bool:
        return len(set(self.scale_ru)) > 1


def _plan_point(cfg: SystemConfig, snr_db: float, methods: tuple[str, ...]) -> _PointPlan:
    snr_bar = snr_linear(snr_db)
    stats = derive_link_stats(cfg, snr_bar)
    lam_dag = compute_deltas(cfg, snr_bar).lambda_dag  # hd_noma keeps the FD thresholds
    lam = {"monte_carlo": lam_dag, "hd_noma": lam_dag}
    if "fd_oma" in methods:
        lam["fd_oma"] = map_baseline_thresholds(cfg, "fd_oma")  # full power, empty interference sum
    g = snr_bar
    s_sr = stats.omega_hat_sr / cfg.m_sr
    s_rr = stats.omega_rr / cfg.m_rr
    scale_ru = _ru_scales(cfg, stats)
    s_b = 1.0 if len(set(scale_ru)) > 1 else scale_ru[0]
    w = np.zeros((cfg.n_users, len(methods), 5))
    rhs = np.zeros((cfg.n_users, len(methods), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(cfg.n_users):
            th = compute_theta(stats, snr_bar, l + 1)
            d = np.array([th.theta1 * g * s_sr, th.theta2 * g * s_b,
                          th.theta3 * g * s_rr, th.theta4 * g**2 * s_rr * s_b])
            for j, m in enumerate(methods):
                w[l, j] = (g**2 / 2 * s_sr * s_b, *(-lam[m][l] * d))
                if m == "hd_noma":
                    w[l, j, 3:] = 0.0
                rhs[l, j] = lam[m][l] * th.theta5
        # each term of w x is at most |w| times its statistic's bound
        a0, c0 = 2.0 * _gamma_bound(cfg.m_sr), _gamma_bound(cfg.m_rr)
        b = _gamma_bound(max(cfg.m_ru) * cfg.n_r) * max(scale_ru) / s_b
        reach = np.abs(w) @ np.array([a0 * b, a0, b, c0, b * c0])
    if not (np.isfinite(rhs).all() and (reach < np.inf).all()):
        raise NumericsError(f"Monte Carlo outage at {snr_db} dB: the outage test's weights "
                            "times the draws leave the float range")
    return _PointPlan(scale_ru=scale_ru, w=w, rhs=rhs)


def _gamma_bound(shape: float) -> float:
    """A bound of every standard Gamma(shape) draw of numpy's Generator.

    Its exponential and normal variates come from 53-bit uniforms, so they
    stay below 45 and 14 in magnitude; a draw at shape < 1 stays below 82,
    and Marsaglia and Tsang's d (1 + n / (3 sqrt d))^3, d = shape - 1/3,
    below d + 14 sqrt d + 63 + 95 / sqrt d, which 2 shape + 200 exceeds.
    """
    return 2.0 * shape + 200.0


def _shapes(cfg: SystemConfig) -> tuple:
    return (cfg.n_b, cfg.n_r, cfg.n_users, cfg.m_sr, cfg.m_rr, cfg.m_ru)


def _sweep_chunk(
    cfg: SystemConfig,
    plans: list[_PointPlan],
    size: int,
    seed: int,
    chunk: int,
) -> np.ndarray:
    """Outage counts (point, method, user) of the size trials of chunk
    number chunk.

    The chunk's variables come from the n_users + 2 children of
    SeedSequence((seed, chunk)): child 0 draws the first hop row-major
    (size, n_b), children 1..L users 1..L and child L+1 the SI gain.  Each
    block of BLOCK_TRIALS trials draws the first hop into a scratch of
    max(n_b, n_users) rows, its top two into x[0] and x[2] (free until the
    user loop) and their sum into x[1], then the users into the same
    scratch.  The users' order statistics are taken by compare-exchange
    (_sort_rows, carry x[4]): once per block for the points that scale all
    users alike, and per point, rescaled into n_users more rows, for the
    others.
    Each user's statistics x (see _PointPlan) are loaded once per block for
    the first kind of point and once per point for the second.  Each
    (point, user) pair is then one matrix product w x, (methods, 5) by
    (5, block), compared with rhs and counted per method.  Each child is
    read in order, so the draws do not depend on the block size.
    """
    n_users = cfg.n_users
    first, *user_rngs, si_rng = map(np.random.default_rng,
                                    np.random.SeedSequence((seed, chunk)).spawn(n_users + 2))
    user_shapes = [m * cfg.n_r for m in cfg.m_ru]
    # the points that share B rows: each point whose users' scales differ
    # alone, then the others together, last, as they sort the draws in place
    groups = [[p] for p, plan in enumerate(plans) if plan.sorts]
    common = [p for p, plan in enumerate(plans) if not plan.sorts]
    groups += [common] if common else []
    n_methods = plans[0].w.shape[1]
    counts = np.zeros((len(plans), n_methods, n_users), dtype=np.int64)
    block = min(BLOCK_TRIALS, size)
    scratch = np.empty(max(cfg.n_b, n_users) * block)
    g = scratch[:block * cfg.n_b].reshape(block, cfg.n_b)
    users = scratch[:n_users * block].reshape(n_users, block)
    x = np.empty((5, block))
    scaled = np.empty((n_users if any(plan.sorts for plan in plans) else 0, block))
    wx, mask = np.empty((n_methods, block)), np.empty((n_methods, block), dtype=bool)
    for lo in range(0, size, block):
        n = min(block, size - lo)
        if n < block:
            g, x, wx, mask = g[:n], x[:, :n], wx[:, :n], mask[:, :n]
            users, scaled = users[:, :n], scaled[:, :n]
        _top2(_standard_gamma(first, cfg.m_sr, g), x[0:3:2])
        np.add(x[0], x[2], out=x[1])
        for rng, shape, row in zip(user_rngs, user_shapes, users):
            _standard_gamma(rng, shape, row)
        _standard_gamma(si_rng, cfg.m_rr, x[3])
        for group in groups:
            b = users
            if plans[group[0]].sorts:
                b = np.multiply(users, np.reshape(plans[group[0]].scale_ru, (-1, 1)), out=scaled)
            _sort_rows(b, x[4])
            for l in range(n_users):
                np.multiply(x[1], b[l], out=x[0])
                x[2] = b[l]
                np.multiply(b[l], x[3], out=x[4])
                for p in group:
                    np.matmul(plans[p].w[l], x, out=wx)
                    np.less_equal(wx, plans[p].rhs[l], out=mask)
                    for j, row in enumerate(mask):
                        counts[p, j, l] += np.count_nonzero(row)
    return counts


def simulate_sweep(
    points: Sequence[tuple[SystemConfig, float]],
    trials: int,
    seed: int = 0,
    workers: int = 1,
    methods: tuple[str, ...] = ("monte_carlo",),
) -> list[dict[str, list[OutagePoint]] | FdnomaError]:
    """Estimated OP of every user at every (config, snr_db) point of a sweep.

    Common random numbers: chunk i of the trials draws its standard Gamma
    variates once, from the children of SeedSequence((seed, i)), and every
    point reweights the same draws, so each point's estimate equals,
    bitwise, a one-point call on the same seed, and counts are bitwise the
    same at any worker count.  The points may differ only in what rescales
    the draws (SNR, distances, estimation and delay impairments, SI
    parameters, power split, thresholds); antenna counts, user count and
    Nakagami shapes must agree, or ValueError is raised.  All methods share
    the draws too, so method differences at one point are paired.  The
    outage test is a BLAS product, so another method set (gemv for one
    method, gemm for more), block size or BLAS kernel may change a count,
    but only by a trial within a few ulps of the outage boundary.

    Returns one entry per point: a dict from each method to its users'
    OutagePoints, or the FdnomaError raised while planning the point.
    trials must be an integer >= MIN_TRIALS, workers one >= 1 and seed one
    >= 0; all are checked before any point is planned.  Each OutagePoint's
    ci is the 95% Wilson interval of its count.
    """
    trials = _integer_at_least(trials, MIN_TRIALS, "trials")
    workers = _integer_at_least(workers, 1, "workers")
    seed = _integer_at_least(seed, 0, "seed")
    for m in methods:
        if m not in SIM_METHODS:
            raise ValueError(f"unknown simulation method {m!r}")
    methods = tuple(methods)
    if not points:
        return []
    cfg = points[0][0]
    for other, _ in points[1:]:
        if _shapes(other) != _shapes(cfg):
            raise ValueError(
                "sweep points must share n_b, n_r, n_users and the Nakagami shapes; "
                f"got {_shapes(cfg)} and {_shapes(other)}"
            )
    plans: list[_PointPlan | FdnomaError] = []
    for cfg_pt, snr_db in points:
        try:
            plans.append(_plan_point(cfg_pt, snr_db, methods))
        except FdnomaError as exc:
            plans.append(exc)
    live = [p for p in plans if isinstance(p, _PointPlan)]
    total = np.zeros((len(live), len(methods), cfg.n_users), dtype=np.int64)
    if live:
        n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        sizes = [CHUNK_TRIALS] * (n_chunks - 1) + [trials - CHUNK_TRIALS * (n_chunks - 1)]
        jobs = [(cfg, live, sizes[i], seed, i) for i in range(n_chunks)]
        if workers > 1 and n_chunks > 1:
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            with pool_class(max_workers=min(workers, n_chunks)) as pool:
                for counts in pool.map(_sweep_chunk, *zip(*jobs)):
                    total += counts
        else:
            for job in jobs:
                total += _sweep_chunk(*job)

    out: list[dict[str, list[OutagePoint]] | FdnomaError] = []
    live_counts = iter(total)
    for plan, (cfg_pt, snr_db) in zip(plans, points):
        if not isinstance(plan, _PointPlan):
            out.append(plan)
            continue
        counts = next(live_counts)
        out.append({
            m: [
                OutagePoint(
                    user=l,
                    snr_db=snr_db,
                    value=int(counts[j, l - 1]) / trials,
                    method=m,
                    ci=wilson_interval(int(counts[j, l - 1]), trials),
                )
                for l in range(1, cfg_pt.n_users + 1)
            ]
            for j, m in enumerate(methods)
        })
    return out


def simulate_outage_all(
    cfg: SystemConfig,
    snr_db: float,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    methods: tuple[str, ...] = ("monte_carlo",),
) -> dict[str, list[OutagePoint]]:
    """Estimated OP for every user, for each requested simulation method:
    a one-point simulate_sweep.  Raises the error of the point."""
    (res,) = simulate_sweep([(cfg, snr_db)], trials, seed, workers, methods)
    if isinstance(res, FdnomaError):
        raise res
    return res


def simulate_outage(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> OutagePoint:
    """OP of user l by direct simulation, Wilson CI attached."""
    check_user(l, cfg.n_users)
    res = simulate_outage_all(cfg, snr_db, trials, seed, workers, ("monte_carlo",))
    return res["monte_carlo"][l - 1]


def simulate_baseline(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    baseline: Baseline,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> OutagePoint:
    """HD-NOMA (no SI, the FD thresholds) or FD-OMA (single-user, product
    threshold) over the same TAS/Alamouti-MRC chain."""
    if baseline not in get_args(Baseline):
        raise ConfigError(f"unknown baseline {baseline!r}")
    check_user(l, cfg.n_users)
    res = simulate_outage_all(cfg, snr_db, trials, seed, workers, (baseline,))
    return res[baseline][l - 1]
