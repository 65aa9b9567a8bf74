"""Monte Carlo outage engine.

Independent of the closed-form path: channels are sampled as Gamma powers,
ordered exactly as the selection/feedback protocol orders them, and each
user's joint SIC stage event is tested from the SINR expression directly,
as one linear inequality in five per-trial statistics (see _PointPlan).

Reproducibility: trials are partitioned into fixed chunks of CHUNK_TRIALS;
chunk i spawns n_users + 2 child streams of (seed, base_stream + i), one per
variable: the first hop, users 1..L, then the SI gain.  Each child is read
block after block, so a variable's draws do not depend on the block size.
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
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .analytic import OutagePoint
from .errors import ConfigError, FdnomaError
from .sysmodel import (
    HdRule,
    LinkStats,
    SystemConfig,
    ThetaSet,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    map_baseline_thresholds,
)

__all__ = [
    "CHUNK_TRIALS",
    "BLOCK_TRIALS",
    "MIN_TRIALS",
    "SIM_METHODS",
    "RngStream",
    "ChannelDraw",
    "SinrBreakdown",
    "wilson_interval",
    "sample_first_hop",
    "sample_second_hop",
    "sample_si_gain",
    "evaluate_sinr",
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
# A chunk holds (n_b + 8 + 2 n_users + methods) such rows, ~2.6 MB at n_b = 4,
# three users and three methods, whatever its size.  Counts do not depend on
# it, but for the rounding noted in simulate_sweep.
BLOCK_TRIALS = 1 << 14
MIN_TRIALS = 10_000

SIM_METHODS = ("monte_carlo", "hd_noma", "fd_oma")


@dataclass(frozen=True)
class RngStream:
    """Counter-style stream identity: (seed, stream_id) fixes all draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + offset)

    def spawn(self, n: int) -> list[np.random.Generator]:
        """n independent generators, the children of this stream's seed."""
        seq = np.random.SeedSequence((self.seed, self.stream_id))
        return [np.random.default_rng(child) for child in seq.spawn(n)]


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of the fading state entering the SINR.

    a: sum of the two largest first-hop estimated-delayed gains.
    b: the users' second-hop effective gains sorted ascending (entry l-1
       belongs to user l).  c: residual SI gain.
    """

    a: float
    b: tuple[float, ...]
    c: float

    def __post_init__(self):
        if self.a < 0 or self.c < 0 or any(x < 0 for x in self.b):
            raise ValueError("channel gains must be nonnegative")
        if any(self.b[i] > self.b[i + 1] for i in range(len(self.b) - 1)):
            raise ValueError("b must be sorted ascending (order statistics)")


@dataclass(frozen=True)
class SinrBreakdown:
    """Per-stage SINRs gamma_{k->l} for k = 1..l."""

    user: int
    gammas: tuple[float, ...]


def _check_conf(conf: float) -> None:
    if not 0.0 < conf < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {conf!r}")


def _integer_at_least(value, low: int, name: str) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")
    return value


def wilson_interval(successes: int, trials: int, conf: float = 0.95) -> tuple[float, float]:
    """Wilson score interval; preferred over Wald for small-probability tails."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    _check_conf(conf)
    z = float(ndtri(0.5 + conf / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


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


def _top2_standard(cfg: SystemConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """The two largest of n_b i.i.d. standard Gamma(m_sr, 1) draws, (2, size).

    A common positive scale does not change which two are largest, so the
    reduction happens before any rescaling.  The (size, n_b) draw is made
    row-major, one block of BLOCK_TRIALS rows at a time, and each block is
    reduced while it is in cache.
    """
    top = np.empty((2, size))
    g = np.empty((min(BLOCK_TRIALS, size), cfg.n_b))
    for lo in range(0, size, BLOCK_TRIALS):
        n = min(BLOCK_TRIALS, size - lo)
        _top2(_standard_gamma(rng, cfg.m_sr, g[:n]), top[:, lo:lo + n])
    return top


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
    """Sum of the two largest of n_b i.i.d. Gamma(m_sr) estimated gains."""
    top = _top2_standard(cfg, rng, size)
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


def evaluate_sinr(
    draw: ChannelDraw,
    theta: ThetaSet,
    cfg: SystemConfig,
    snr_bar: float,
    l: int,
) -> SinrBreakdown:
    """Instantaneous SINR of every SIC stage k <= l for one channel state."""
    a, b, c = draw.a, draw.b[l - 1], draw.c
    g = snr_bar
    d0 = (
        theta.theta1 * g * a
        + theta.theta2 * g * b
        + theta.theta3 * g * c
        + theta.theta4 * g**2 * b * c
        + theta.theta5
    )
    gammas = []
    for k in range(1, l + 1):
        num = g**2 / 2 * a * b * cfg.a[k - 1]
        den = g**2 / 2 * a * b * sum(cfg.a[k:]) + d0
        gammas.append(num / den)
    return SinrBreakdown(user=l, gammas=tuple(gammas))


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

    failed: the methods whose threshold mapping raised, with the error.
    Their rows of w and rhs stay zero: they keep the product's shape, so
    the other methods' counts do not change, and their counts are discarded.
    """

    scale_ru: tuple[float, ...]
    w: np.ndarray
    rhs: np.ndarray
    failed: dict[str, FdnomaError]

    @property
    def sorts(self) -> bool:
        return len(set(self.scale_ru)) > 1


def _plan_point(
    cfg: SystemConfig, snr_db: float, methods: tuple[str, ...], hd_rule: HdRule
) -> _PointPlan:
    snr_bar = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, snr_bar)
    lam = {"monte_carlo": compute_deltas(cfg, snr_bar).lambda_dag}
    failed: dict[str, FdnomaError] = {}
    if "hd_noma" in methods:
        thr = map_baseline_thresholds(cfg, "hd_noma", hd_rule)
        try:
            lam["hd_noma"] = compute_deltas(replace(cfg, gamma_th=thr), snr_bar).lambda_dag
        except FdnomaError as exc:  # e.g. the squared rule's infeasible stage
            failed["hd_noma"] = exc
    if "fd_oma" in methods:
        lam["fd_oma"] = map_baseline_thresholds(cfg, "fd_oma")  # full power, empty interference sum
    g = snr_bar
    s_sr = stats.omega_hat_sr / cfg.m_sr
    s_rr = stats.omega_rr / cfg.m_rr
    scale_ru = _ru_scales(cfg, stats)
    s_b = 1.0 if len(set(scale_ru)) > 1 else scale_ru[0]
    w = np.zeros((cfg.n_users, len(methods), 5))
    rhs = np.zeros((cfg.n_users, len(methods), 1))
    for l in range(cfg.n_users):
        th = compute_theta(stats, snr_bar, l + 1)
        d = np.array([th.theta1 * g * s_sr, th.theta2 * g * s_b,
                      th.theta3 * g * s_rr, th.theta4 * g**2 * s_rr * s_b])
        for j, m in enumerate(methods):
            if m in failed:
                continue
            w[l, j] = (g**2 / 2 * s_sr * s_b, *(-lam[m][l] * d))
            if m == "hd_noma":
                w[l, j, 3:] = 0.0
            rhs[l, j] = lam[m][l] * th.theta5
    return _PointPlan(scale_ru=scale_ru, w=w, rhs=rhs, failed=failed)


def _shapes(cfg: SystemConfig) -> tuple:
    return (cfg.n_b, cfg.n_r, cfg.n_users, cfg.m_sr, cfg.m_rr, cfg.m_ru)


def _sweep_chunk(
    cfg: SystemConfig,
    plans: list[_PointPlan],
    size: int,
    stream: RngStream,
) -> np.ndarray:
    """Outage counts (point, method, user) of one chunk of trials.

    The chunk's variables come from stream.spawn(n_users + 2): child 0
    draws the first hop row-major (size, n_b), children 1..L users 1..L
    and child L+1 the SI gain.  Each block of BLOCK_TRIALS trials draws its
    standard variates into buffers that stay in cache and reduces the first
    hop to its top two.  The users' order statistics are taken by
    compare-exchange (_sort_rows): once per block for the points that scale
    all users alike, and per point, after the rescale, for the others.
    Each user's statistics x (see _PointPlan) are loaded once per block for
    the first kind of point and once per point for the second.  Each
    (point, user) pair is then one matrix product w x, (methods, 5) by
    (5, block), compared with rhs and counted per method.  Each child is
    read in order, so the draws do not depend on the block size.
    """
    n_users = cfg.n_users
    first, *user_rngs, si_rng = stream.spawn(n_users + 2)
    user_shapes = [m * cfg.n_r for m in cfg.m_ru]
    # the points that share B rows: each point whose users' scales differ
    # alone, then the others together, last, as they sort the draws in place
    groups = [[p] for p, plan in enumerate(plans) if plan.sorts]
    common = [p for p, plan in enumerate(plans) if not plan.sorts]
    groups += [common] if common else []
    n_methods = plans[0].w.shape[1]
    counts = np.zeros((len(plans), n_methods, n_users), dtype=np.int64)
    block = min(BLOCK_TRIALS, size)
    g = np.empty((block, cfg.n_b))
    x, top, t = np.empty((5, block)), np.empty((2, block)), np.empty(block)
    users, scaled = np.empty((2, n_users, block))
    wx, mask = np.empty((n_methods, block)), np.empty((n_methods, block), dtype=bool)
    for lo in range(0, size, block):
        n = min(block, size - lo)
        if n < block:
            g, x, wx, top, t, mask = g[:n], x[:, :n], wx[:, :n], top[:, :n], t[:n], mask[:, :n]
            users, scaled = users[:, :n], scaled[:, :n]
        _top2(_standard_gamma(first, cfg.m_sr, g), top)
        np.add(top[0], top[1], out=x[1])
        for rng, shape, row in zip(user_rngs, user_shapes, users):
            _standard_gamma(rng, shape, row)
        _standard_gamma(si_rng, cfg.m_rr, x[3])
        for group in groups:
            b = users
            if plans[group[0]].sorts:
                b = np.multiply(users, np.reshape(plans[group[0]].scale_ru, (-1, 1)), out=scaled)
            _sort_rows(b, t)
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


def _sweep_chunk_star(args):
    return _sweep_chunk(*args)


def simulate_sweep(
    points: Sequence[tuple[SystemConfig, float]],
    trials: int,
    rng: RngStream | int = 0,
    workers: int = 1,
    methods: tuple[str, ...] = ("monte_carlo",),
    hd_rule: HdRule = "equal",
    conf: float = 0.95,
) -> list[dict[str, list[OutagePoint] | FdnomaError] | FdnomaError]:
    """Estimated OP of every user at every (config, snr_db) point of a sweep.

    Common random numbers: chunk i of the trials draws its standard Gamma
    variates once, from the children of rng.child(i), and every point
    reweights the same draws, so each point's estimate equals, bitwise, a
    one-point call on the same stream, and counts are bitwise the same at
    any worker count.  The points may differ only in what rescales the
    draws (SNR, distances, estimation and delay impairments, SI parameters,
    power split, thresholds); antenna counts, user count and Nakagami shapes
    must agree, or ValueError is raised.  All methods share the draws too,
    so method differences at one point are paired.  The outage test is a
    BLAS product, so another method set (gemv for one method, gemm for
    more), block size or BLAS kernel may change a count, but only by a
    trial within a few ulps of the outage boundary.

    Returns one entry per point: a dict from each method to its users'
    OutagePoints, or to the FdnomaError its threshold mapping raised there
    (the point's other methods keep their counts on the same draws); or the
    FdnomaError raised while deriving the point's common scalars.  trials
    must be an integer >= MIN_TRIALS, workers >= 1, rng an RngStream or
    seed of nonnegative integers and conf lie in (0, 1); all are checked
    before any chunk is drawn.
    """
    trials = _integer_at_least(trials, MIN_TRIALS, "trials")
    workers = _integer_at_least(workers, 1, "workers")
    if isinstance(rng, RngStream):
        _integer_at_least(rng.seed, 0, "the rng seed")
        _integer_at_least(rng.stream_id, 0, "the rng stream_id")
    else:
        rng = RngStream(_integer_at_least(rng, 0, "rng"))
    _check_conf(conf)
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
            plans.append(_plan_point(cfg_pt, snr_db, methods, hd_rule))
        except FdnomaError as exc:
            plans.append(exc)
    live = [p for p in plans if isinstance(p, _PointPlan)]
    total = np.zeros((len(live), len(methods), cfg.n_users), dtype=np.int64)
    if live:
        n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        sizes = [CHUNK_TRIALS] * (n_chunks - 1) + [trials - CHUNK_TRIALS * (n_chunks - 1)]
        jobs = [(cfg, live, sizes[i], rng.child(i)) for i in range(n_chunks)]
        if workers > 1 and n_chunks > 1:
            with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
                for counts in pool.map(_sweep_chunk_star, jobs):
                    total += counts
        else:
            for job in jobs:
                total += _sweep_chunk(*job)

    out: list[dict[str, list[OutagePoint] | FdnomaError] | FdnomaError] = []
    live_counts = iter(total)
    for plan, (cfg_pt, snr_db) in zip(plans, points):
        if not isinstance(plan, _PointPlan):
            out.append(plan)
            continue
        counts = next(live_counts)
        out.append({
            m: plan.failed[m] if m in plan.failed else [
                OutagePoint(
                    user=l,
                    snr_db=snr_db,
                    value=int(counts[j, l - 1]) / trials,
                    method=m,
                    ci=wilson_interval(int(counts[j, l - 1]), trials, conf),
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
    rng: RngStream | int = 0,
    workers: int = 1,
    methods: tuple[str, ...] = ("monte_carlo",),
    hd_rule: HdRule = "equal",
    conf: float = 0.95,
) -> dict[str, list[OutagePoint]]:
    """Estimated OP for every user, for each requested simulation method:
    a one-point simulate_sweep.  Raises the error of the point, or of the
    first requested method whose threshold mapping failed."""
    (res,) = simulate_sweep([(cfg, snr_db)], trials, rng, workers, methods, hd_rule, conf)
    if isinstance(res, FdnomaError):
        raise res
    for value in res.values():
        if isinstance(value, FdnomaError):
            raise value
    return res


def simulate_outage(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    trials: int,
    rng: RngStream | int = 0,
    workers: int = 1,
    conf: float = 0.95,
) -> OutagePoint:
    """OP of user l by direct simulation, Wilson CI attached."""
    res = simulate_outage_all(cfg, snr_db, trials, rng, workers, ("monte_carlo",), conf=conf)
    return res["monte_carlo"][l - 1]


def simulate_baseline(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    baseline: str,
    trials: int,
    rng: RngStream | int = 0,
    workers: int = 1,
    hd_rule: HdRule = "equal",
    conf: float = 0.95,
) -> OutagePoint:
    """HD-NOMA (no SI, mapped thresholds) or FD-OMA (single-user, product
    threshold) over the same TAS/Alamouti-MRC chain."""
    if baseline not in ("hd_noma", "fd_oma"):
        raise ConfigError(f"unknown baseline {baseline!r}")
    res = simulate_outage_all(
        cfg, snr_db, trials, rng, workers, (baseline,), hd_rule=hd_rule, conf=conf
    )
    return res[baseline][l - 1]
