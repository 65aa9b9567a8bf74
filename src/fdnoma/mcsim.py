"""Monte Carlo outage engine.

Independent of the closed-form path: channels are sampled as Gamma powers,
ordered exactly as the selection/feedback protocol orders them, and the
per-stage SINR events are evaluated from the SINR expression directly.

Reproducibility: trials are partitioned into fixed chunks of CHUNK_TRIALS;
chunk i spawns n_users + 2 child streams of (seed, base_stream + i), one per
variable: the first hop, users 1..L, then the SI gain.  Each child is read
block after block, so a variable's draws do not depend on the block size.
Chunk counts are integers and merge by addition, so the totals are
identical for any worker count and any execution order.

A sweep draws each chunk once: the grid axes change only Gamma scales,
theta coefficients and thresholds, so every grid point rescales the same
standard Gamma draws (common random numbers).  The draws of one block of
BLOCK_TRIALS trials stay in cache while every point tests them.
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
# compare-exchange sort.  The block's float64 rows are 256 KiB each; the
# seven temporaries of the test fit a 2 MiB L2 cache, and on a 2-core Xeon
# the fig11 sweep kernel ran 10-30% faster than with 2**16 trials.  A
# chunk holds (n_b + 2 + 2 n_users + 8) such rows, ~5 MB at n_b = 4 and
# three users, whatever its size.  Counts do not depend on it.
BLOCK_TRIALS = 1 << 15
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
    """Scalars of one grid point, derived in the parent before any draw.

    scale_*: the Gamma scales that turn standard draws into gains.
    coef[l-1]: user l's SINR coefficients (gbar theta1, gbar theta2,
    theta5, gbar theta3, gbar^2 theta4).  lam[j][l-1]: Lambda+ of the j-th
    requested method for user l.
    """

    scale_sr: float
    scale_ru: tuple[float, ...]
    scale_rr: float
    half_g2: float
    coef: tuple[tuple[float, float, float, float, float], ...]
    lam: tuple[tuple[float, ...], ...]


def _plan_point(
    cfg: SystemConfig, snr_db: float, methods: tuple[str, ...], hd_rule: HdRule
) -> _PointPlan:
    snr_bar = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, snr_bar)
    lam = {"monte_carlo": compute_deltas(cfg, snr_bar).lambda_dag}
    if "hd_noma" in methods:
        thr = map_baseline_thresholds(cfg, "hd_noma", hd_rule)
        lam["hd_noma"] = compute_deltas(replace(cfg, gamma_th=thr), snr_bar).lambda_dag
    if "fd_oma" in methods:
        lam["fd_oma"] = map_baseline_thresholds(cfg, "fd_oma")  # full power, empty interference sum
    g = snr_bar
    coef = []
    for l in range(1, cfg.n_users + 1):
        th = compute_theta(stats, snr_bar, l)
        coef.append((th.theta1 * g, th.theta2 * g, th.theta5, th.theta3 * g, th.theta4 * g**2))
    return _PointPlan(
        scale_sr=stats.omega_hat_sr / cfg.m_sr,
        scale_ru=_ru_scales(cfg, stats),
        scale_rr=stats.omega_rr / cfg.m_rr,
        half_g2=g**2 / 2,
        coef=tuple(coef),
        lam=tuple(tuple(lam[m]) for m in methods),
    )


def _shapes(cfg: SystemConfig) -> tuple:
    return (cfg.n_b, cfg.n_r, cfg.n_users, cfg.m_sr, cfg.m_rr, cfg.m_ru)


def _sweep_chunk(
    cfg: SystemConfig,
    plans: list[_PointPlan],
    methods: tuple[str, ...],
    sort_once: bool,
    size: int,
    stream: RngStream,
) -> np.ndarray:
    """Outage counts (point, method, user) of one chunk of trials.

    The chunk's variables come from stream.spawn(n_users + 2): child 0
    draws the first hop row-major (size, n_b), children 1..L users 1..L
    and child L+1 the SI gain.  Each block of BLOCK_TRIALS trials draws its
    standard variates into buffers that stay in cache, reduces the first
    hop to its top two, and every point rescales the same draws.  The
    joint stage event collapses to a single comparison: user l is in
    outage iff (gbar^2/2) A B_l <= Lambda_l^+ * D0, with D0 the
    theta-weighted denominator terms shared by all stages (hd_noma drops
    the SI terms).  The users' order statistics are taken by
    compare-exchange (_sort_rows): once per block when every point scales
    all users alike (sort_once), else per point after the rescale.  Each
    child is read in order and each comparison is elementwise, so the
    counts do not depend on the block size.
    """
    n_users = cfg.n_users
    first, *user_rngs, si_rng = stream.spawn(n_users + 2)
    user_shapes = [m * cfg.n_r for m in cfg.m_ru]
    hd = [j for j, m in enumerate(methods) if m == "hd_noma"]
    with_si = [j for j, m in enumerate(methods) if m != "hd_noma"]
    counts = np.zeros((len(plans), len(methods), n_users), dtype=np.int64)
    block = min(BLOCK_TRIALS, size)
    g = np.empty((block, cfg.n_b))
    top = np.empty((2, block))
    users, scaled = np.empty((2, n_users, block))
    si, a, c, bl, lhs, d, s, t = np.empty((8, block))
    mask = np.empty(block, dtype=bool)
    for lo in range(0, size, block):
        n = min(block, size - lo)
        if n < block:
            g, top, users, scaled = g[:n], top[:, :n], users[:, :n], scaled[:, :n]
            si, a, c, bl, lhs, d, s, t, mask = (x[:n] for x in (si, a, c, bl, lhs, d, s, t, mask))
        _top2(_standard_gamma(first, cfg.m_sr, g), top)
        for rng, shape, row in zip(user_rngs, user_shapes, users):
            _standard_gamma(rng, shape, row)
        _standard_gamma(si_rng, cfg.m_rr, si)
        if sort_once:
            # every point scales all users alike, so the order is fixed here
            _sort_rows(users, t)
        for p, plan in enumerate(plans):
            np.multiply(top[0], plan.scale_sr, out=a)
            np.multiply(top[1], plan.scale_sr, out=t)
            a += t
            np.multiply(si, plan.scale_rr, out=c)
            if not sort_once:
                np.multiply(users, np.reshape(plan.scale_ru, (-1, 1)), out=scaled)
                _sort_rows(scaled, t)
            for l in range(n_users):
                k1, k2, k5, k3, k4 = plan.coef[l]
                if sort_once:
                    b = np.multiply(users[l], plan.scale_ru[l], out=bl)
                else:
                    b = scaled[l]
                np.multiply(a, plan.half_g2, out=lhs)
                lhs *= b
                np.multiply(a, k1, out=d)
                np.multiply(b, k2, out=t)
                d += t
                d += k5
                for j in hd:
                    np.multiply(d, plan.lam[j][l], out=t)
                    np.less_equal(lhs, t, out=mask)
                    counts[p, j, l] += np.count_nonzero(mask)
                if with_si:
                    np.multiply(c, k3, out=s)
                    np.multiply(b, k4, out=t)
                    t *= c
                    s += t
                    d += s
                    for j in with_si:
                        np.multiply(d, plan.lam[j][l], out=t)
                        np.less_equal(lhs, t, out=mask)
                        counts[p, j, l] += np.count_nonzero(mask)
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
) -> list[dict[str, list[OutagePoint]] | FdnomaError]:
    """Estimated OP of every user at every (config, snr_db) point of a sweep.

    Common random numbers: chunk i of the trials draws its standard Gamma
    variates once, from the children of rng.child(i), and every point
    rescales the same draws, so each point's estimate equals, bitwise, a
    one-point call on the same stream.  The points may differ only in what rescales the draws
    (SNR, distances, estimation and delay impairments, SI parameters, power
    split, thresholds); antenna counts, user count and Nakagami shapes must
    agree, or ValueError is raised.  All methods share the draws too, so
    method differences at one point are paired.

    Returns one entry per point: what simulate_outage_all returns for it,
    or the FdnomaError raised while deriving that point's scalars.  trials
    must be an integer >= MIN_TRIALS and conf lie in (0, 1); both are
    checked before any chunk is drawn.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise TypeError(f"trials must be an integer >= {MIN_TRIALS}, got {trials!r}") from None
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be an integer >= {MIN_TRIALS}, got {trials}")
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
        sort_once = all(len(set(p.scale_ru)) == 1 for p in live)
        base = rng if isinstance(rng, RngStream) else RngStream(int(rng))
        n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        sizes = [CHUNK_TRIALS] * (n_chunks - 1) + [trials - CHUNK_TRIALS * (n_chunks - 1)]
        jobs = [(cfg, live, methods, sort_once, sizes[i], base.child(i)) for i in range(n_chunks)]
        if workers > 1 and n_chunks > 1:
            with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
                for counts in pool.map(_sweep_chunk_star, jobs):
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
    a one-point simulate_sweep."""
    (res,) = simulate_sweep([(cfg, snr_db)], trials, rng, workers, methods, hd_rule, conf)
    if isinstance(res, FdnomaError):
        raise res
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
