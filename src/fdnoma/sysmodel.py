"""System parameterization and derived impairment algebra.

A SystemConfig holds every physical knob of the downlink: antenna counts,
Nakagami shapes, normalized distances, NOMA power split, SINR targets, the
self-interference cancellation quality (mu, alpha) and the CEE/FBD
impairment parameters.  From it and an average SNR the functions below
derive the mean channel powers, the combined error variances, the theta
constants of the SINR expression and the per-user normalized thresholds.

Conventions: the average SNR gamma_bar = P/sigma^2 is the single sweep
variable; the residual SI power scales as omega_RR = alpha * gamma_bar^(mu-1).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, get_origin, get_type_hints

from .errors import ConfigError, ImpairmentError, InfeasibleAllocationError, NumericsError

__all__ = [
    "SystemConfig",
    "OutagePoint",
    "LinkStats",
    "ThetaSet",
    "DeltaSet",
    "check_user",
    "snr_linear",
    "derive_link_stats",
    "compute_theta",
    "compute_deltas",
    "map_baseline_thresholds",
    "load_config",
    "loads_config",
    "dump_config",
]

_SUM_TOL = 1e-12

# Largest antenna and user counts.  A Monte Carlo block holds BLOCK_TRIALS
# first-hop draws per antenna (128 KiB each) and two rows per user, and the
# users' compare-exchange sort takes n_users (n_users - 1) / 2 steps per
# block.  One point of 1e5 trials took 14 ms at n_b = 2 and three users,
# 148 ms at n_b = 64 (10 MB peak) and 164 ms at 32 users (10 MB) on a
# 2-core VM; at n_b = 10**6 a block would take 131 GB.
_MAX_N_B = 64
_MAX_N_USERS = 32


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of the relay-assisted downlink.

    Scalars apply network-wide; tuples hold one entry per user, ordered by
    power level (user 1 gets the largest coefficient).  Defaults replicate
    the baseline numerical setup: three users at equal normalized distance,
    a = (1/2, 1/3, 1/6), thresholds (0.9, 1.5, 2.0), eta = 4, alpha = 1.
    """

    n_b: int = 2                        # transmit antennas at the base station
    n_r: int = 1                        # receive antennas per user
    n_users: int = 3
    m_sr: float = 1                     # Nakagami shape, BS-relay hop
    m_rr: float = 1                     # Nakagami shape, residual SI link
    m_ru: tuple[float, ...] = (1, 1, 1)  # Nakagami shape, relay-user hops
    d_sr: float = 0.5
    d_ru: tuple[float, ...] = (0.5, 0.5, 0.5)
    eta: float = 4.0                    # path loss exponent
    a: tuple[float, ...] = (1 / 2, 1 / 3, 1 / 6)
    gamma_th: tuple[float, ...] = (0.9, 1.5, 2.0)
    mu: float = 0.25                    # SI cancellation quality, 0 (best) .. 1 (worst)
    alpha_si: float = 1.0               # SI scale constant
    sigma2_est_sr: float = 0.0
    sigma2_est_ru: tuple[float, ...] = (0.0, 0.0, 0.0)
    fd_tau_sr: float = 0.0              # normalized Doppler-delay product
    fd_tau_ru: tuple[float, ...] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # a float count or a bool would pass the checks below and give a
        # meaningless Gamma shape or a wrong tuple length
        for name in _SCALAR_INT:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # two antennas are selected; Monte Carlo draws any n_r at one cost,
        # it only has to convert to a float
        for name, low, high in (("n_b", 2, _MAX_N_B), ("n_r", 1, sys.float_info.max),
                                ("n_users", 1, _MAX_N_USERS)):
            value = getattr(self, name)
            if not low <= value <= high:
                bound = f">= {low}" if value < low else f"<= {high}"
                raise ConfigError(f"{name} must be {bound}, got {_shown(value)}")
        # NaN passes every comparison below, and inf most of them; an int
        # beyond the float range overflows isfinite
        for name in _SCALAR_FLOAT + _ARRAY_FLOAT:
            value = getattr(self, name)
            try:
                finite = all(map(math.isfinite,
                                 (value,) if isinstance(value, numbers.Real) else value))
            except OverflowError:
                raise ConfigError(f"{name} must lie within the float range, "
                                  f"got {_shown(value)}") from None
            if not finite:
                raise ConfigError(f"{name} must be finite, got {_shown(value)}")
        L = self.n_users
        for name in _ARRAY_FLOAT:
            val = getattr(self, name)
            if len(val) != L:
                raise ConfigError(f"{name} must have {L} entries, got {len(val)}")
        for name in ("m_sr", "m_rr"):
            if getattr(self, name) < 0.5:
                raise ConfigError(f"{name} must be >= 0.5, got {getattr(self, name)}")
        if any(m < 0.5 for m in self.m_ru):
            raise ConfigError(f"m_ru entries must be >= 0.5, got {self.m_ru}")
        if not (self.d_sr > 0 and all(d > 0 for d in self.d_ru)):
            raise ConfigError("distances must be positive")
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        for d in (self.d_sr, *self.d_ru):
            _mean_power(d, self.eta)
        if abs(sum(self.a) - 1.0) > _SUM_TOL:
            raise ConfigError(f"power coefficients must sum to 1, got {sum(self.a)!r}")
        if any(self.a[i] <= self.a[i + 1] for i in range(L - 1)):
            raise ConfigError(f"power coefficients must be strictly decreasing, got {self.a}")
        if any(g <= 0 for g in self.gamma_th):
            raise ConfigError(f"gamma_th entries must be positive, got {self.gamma_th}")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu must lie in [0, 1], got {self.mu}")
        if self.alpha_si <= 0:
            raise ConfigError(f"alpha_si must be positive, got {self.alpha_si}")
        if self.sigma2_est_sr < 0 or any(s < 0 for s in self.sigma2_est_ru):
            raise ConfigError("estimation error variances must be nonnegative")
        if self.fd_tau_sr < 0 or any(f < 0 for f in self.fd_tau_ru):
            raise ConfigError("Doppler-delay products must be nonnegative")
        # SIC feasibility; checked eagerly because every downstream formula
        # silently diverges otherwise.
        for k in range(1, L + 1):
            self.feasibility_margin(k)

    @property
    def ideal(self) -> bool:
        """True when no link has channel estimation error or feedback delay."""
        return not (
            self.sigma2_est_sr or self.fd_tau_sr or any(self.sigma2_est_ru) or any(self.fd_tau_ru)
        )

    def feasibility_margin(self, k: int) -> float:
        """a_k - gamma_th_k * sum_{t>k} a_t; must be positive for stage k."""
        check_user(k, self.n_users)
        margin = self.a[k - 1] - self.gamma_th[k - 1] * sum(self.a[k:])
        if margin <= 0:
            raise InfeasibleAllocationError(k, margin)
        return margin


# The config keys: the SystemConfig fields by kind (counts, network-wide
# floats, per-user tuples), each kind in field order.
_HINTS = get_type_hints(SystemConfig)
_SCALAR_INT = tuple(name for name, hint in _HINTS.items() if hint is int)
_SCALAR_FLOAT = tuple(name for name, hint in _HINTS.items() if hint is float)
_ARRAY_FLOAT = tuple(name for name, hint in _HINTS.items() if get_origin(hint) is tuple)
_ALL_KEYS = _SCALAR_INT + _SCALAR_FLOAT + _ARRAY_FLOAT


@dataclass(frozen=True)
class OutagePoint:
    """One outage-probability evaluation, by either engine.

    ci is populated only by the Monte Carlo methods.  residual records the
    pre-clamp overshoot of the closed-form sums (diagnostics only); floor
    marks values that are SNR-independent by construction.
    """

    user: int
    snr_db: float
    value: float
    method: str
    ci: tuple[float, float] | None = None
    residual: float = 0.0
    floor: bool = False


@dataclass(frozen=True)
class LinkStats:
    """Mean powers, correlation coefficients and combined CEE+FBD variances."""

    omega_sr: float
    omega_ru: tuple[float, ...]
    omega_rr: float
    omega_hat_sr: float
    omega_hat_ru: tuple[float, ...]
    rho_sr: float
    rho_ru: tuple[float, ...]
    sigma2_sr: float                  # sigma2_est + (1 - rho^2) * omega_hat
    sigma2_ru: tuple[float, ...]


@dataclass(frozen=True)
class ThetaSet:
    """The theta constants of the SINR and of the lower-bound reduction.

    All equal 1 under ideal conditions (no CEE, no FBD).  The bound's
    theta1' and theta2' are theta1 and theta4, and only thetap4 is its
    own: it follows the provable-bound grouping gamma_bar*sigma2_sr/2 + 1;
    the printed gamma_bar^2*sigma2_sr/2 + 1 lets the bound exceed the
    exact outage.
    """

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float
    thetap4: float


@dataclass(frozen=True)
class DeltaSet:
    """Normalized per-stage thresholds and their running maxima.

    delta[k-1] = gamma_th_k / (gamma_bar * (a_k - gamma_th_k sum_{t>k} a_t));
    delta_dag[l-1] = max over stages k <= l; lambda_dag = gamma_bar * delta_dag
    is the SNR-independent counterpart.
    """

    delta: tuple[float, ...]
    delta_dag: tuple[float, ...]
    lambda_dag: tuple[float, ...]


# The SINR holds gamma_bar^2, so a linear SNR is taken only where its square
# is a normal float: snr_db strictly inside (-1538.3, 1541.3).
_SNR_DB_RANGE = (5.0 * math.log10(sys.float_info.min), 5.0 * math.log10(sys.float_info.max))


def snr_linear(snr_db: float) -> float:
    """gamma_bar = 10^(snr_db/10); NumericsError outside _SNR_DB_RANGE."""
    lo, hi = _SNR_DB_RANGE
    if not lo < snr_db < hi:
        raise NumericsError(f"snr_db={snr_db} is outside {lo:.1f}..{hi:.1f} dB, where the "
                            "squared linear SNR is a normal float")
    return 10.0 ** (snr_db / 10.0)


def _shown(value) -> str:
    """A field's value as a message shows it; an int too long for Python's
    int-to-str limit, alone or in a tuple, shows as its bit length."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(_shown, value))})"
        return f"an integer of {value.bit_length()} bits"


def _mean_power(d: float, eta: float) -> float:
    """d^-eta, the mean power at normalized distance d; ConfigError where it
    is not a finite positive float."""
    try:
        power = d ** -eta
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ConfigError(f"distance {d} with eta={eta} gives the mean power {power}, "
                          "outside the float range")
    return power


def derive_link_stats(cfg: SystemConfig, snr_bar: float) -> LinkStats:
    """Populate all mean powers and impairment variances at a given SNR.
    An SI power omega_rr outside the float range is a NumericsError."""
    if not snr_bar > 0:
        raise ValueError(f"snr_bar must be positive (linear), got {snr_bar}")
    omega_sr = _mean_power(cfg.d_sr, cfg.eta)
    omega_ru = tuple(_mean_power(d, cfg.eta) for d in cfg.d_ru)
    omega_hat_sr = omega_sr - cfg.sigma2_est_sr
    if omega_hat_sr <= 0:
        raise ImpairmentError(
            f"sigma2_est_sr={cfg.sigma2_est_sr} >= omega_sr={omega_sr}: estimated power nonpositive"
        )
    omega_hat_ru = []
    for ell, (om, s2) in enumerate(zip(omega_ru, cfg.sigma2_est_ru), start=1):
        if s2 >= om:
            raise ImpairmentError(
                f"sigma2_est_ru[{ell}]={s2} >= omega_ru[{ell}]={om}: estimated power nonpositive"
            )
        omega_hat_ru.append(om - s2)
    rho_sr = _correlation(cfg.fd_tau_sr, "fd_tau_sr")
    rho_ru = tuple(_correlation(f, f"fd_tau_ru[{i+1}]") for i, f in enumerate(cfg.fd_tau_ru))
    sigma2_sr = cfg.sigma2_est_sr + (1.0 - rho_sr**2) * omega_hat_sr
    sigma2_ru = tuple(
        s2 + (1.0 - r**2) * oh for s2, r, oh in zip(cfg.sigma2_est_ru, rho_ru, omega_hat_ru)
    )
    omega_rr = cfg.alpha_si * snr_bar ** (cfg.mu - 1.0)
    if not 0.0 < omega_rr < math.inf:
        raise NumericsError(f"alpha_si={cfg.alpha_si} at the linear SNR {snr_bar:g} gives the SI "
                            f"power {omega_rr}, outside the float range")
    return LinkStats(
        omega_sr=omega_sr,
        omega_ru=omega_ru,
        omega_rr=omega_rr,
        omega_hat_sr=omega_hat_sr,
        omega_hat_ru=tuple(omega_hat_ru),
        rho_sr=rho_sr,
        rho_ru=rho_ru,
        sigma2_sr=sigma2_sr,
        sigma2_ru=sigma2_ru,
    )


# Beyond this argument J_0 takes its Hankel expansion (DLMF 10.17.3) to
# a_5, whose first omitted term is below 1e-18 relative there.
_J0_HANKEL_FROM = 1000.0
# |a_k(0)| of that expansion, prod_{j <= k} (2j - 1)^2 / (k! 8^k), k = 0..5
_J0_HANKEL_A = (1.0, 1 / 8, 9 / 128, 75 / 1024, 3675 / 32768, 59535 / 262144)


@lru_cache(maxsize=256)
def _bessel_j0(x: float) -> float:
    """J_0(x) = (1/pi) int_0^pi cos(x sin t) dt (DLMF 10.9.1) by the
    trapezoid rule on int(|x|) + 30 nodes.  The integrand extends to a
    periodic analytic function, so the rule's error is that of the Bessel
    functions of order ~2|x| + 58 at x: below rounding."""
    x = abs(x)
    if x > _J0_HANKEL_FROM:
        a, y = _J0_HANKEL_A, 1.0 / (x * x)
        p = 1.0 - y * (a[2] - y * a[4])
        q = (y * (a[3] - y * a[5]) - a[1]) / x
        return ((p + q) * math.cos(x) + (p - q) * math.sin(x)) / math.sqrt(math.pi * x)
    n = int(x) + 30
    step = math.pi / (n - 1)
    f = [math.cos(x * math.sin(k * step)) for k in range(n)]
    return (math.fsum(f) - 0.5 * (f[0] + f[-1])) / (n - 1)


def _correlation(fd_tau: float, name: str) -> float:
    rho = _bessel_j0(2.0 * math.pi * fd_tau)
    if rho <= 0:
        raise ImpairmentError(f"{name}={fd_tau} gives correlation {rho} <= 0; must stay in (0, 1]")
    return rho


def check_user(l, n_users: int) -> None:
    """Raise ConfigError unless l is a user index, an integer in 1..n_users
    (0 or -1 would read another user's entry of every per-user tuple, and
    True would pass as user 1)."""
    if isinstance(l, bool) or not (isinstance(l, numbers.Integral) and 1 <= l <= n_users):
        raise ConfigError(f"user index {l!r} out of range 1..{n_users}")


def compute_theta(stats: LinkStats, snr_bar: float, l: int) -> ThetaSet:
    """Theta constants for user l (1-based)."""
    check_user(l, len(stats.rho_ru))
    s2s = stats.sigma2_sr
    s2r = stats.sigma2_ru[l - 1]
    rs2 = stats.rho_sr**2
    rr2 = stats.rho_ru[l - 1] ** 2
    g = snr_bar
    return ThetaSet(
        theta1=g / 2 * s2r / rr2 + 1 / rr2,
        theta2=g / 2 * s2s / rs2 + 1 / rs2,
        theta3=g * s2r / (rs2 * rr2) + 1 / (rs2 * rr2),
        theta4=1 / rs2,
        theta5=(g**2 / 2 * s2s * s2r + g * s2r + g * s2s + 1) / (rs2 * rr2),
        thetap4=g / 2 * s2s + 1,
    )


def compute_deltas(cfg: SystemConfig, snr_bar: float) -> DeltaSet:
    """Per-stage normalized thresholds; raises if any stage is infeasible."""
    if not snr_bar > 0:
        raise ValueError(f"snr_bar must be positive (linear), got {snr_bar}")
    deltas = []
    for k in range(1, cfg.n_users + 1):
        margin = cfg.feasibility_margin(k)
        deltas.append(cfg.gamma_th[k - 1] / (snr_bar * margin))
    dag = []
    running = 0.0
    for d in deltas:
        running = max(running, d)
        dag.append(running)
    return DeltaSet(
        delta=tuple(deltas),
        delta_dag=tuple(dag),
        lambda_dag=tuple(snr_bar * d for d in dag),
    )


Baseline = Literal["hd_noma", "fd_oma"]


def map_baseline_thresholds(cfg: SystemConfig, baseline: Baseline) -> tuple[float, ...]:
    """SINR thresholds for the comparison baselines.

    fd_oma: one user per resource at the aggregate rate, so the single
    threshold is prod_l(1 + gamma_th_l) - 1 (returned for every user).
    hd_noma keeps the FD thresholds, so the two schemes are compared at the
    same SINR target, where HD delivers half of FD's rate.  A rate-matched
    comparison is a config of its own: gamma_th_l replaced by (1 +
    gamma_th_l)^2 - 1, which the default power split cannot support
    (stage-1 margin -0.805).
    """
    if baseline == "fd_oma":
        prod = 1.0
        for g in cfg.gamma_th:
            prod *= 1.0 + g
        return tuple(prod - 1.0 for _ in cfg.gamma_th)
    if baseline == "hd_noma":
        return tuple(cfg.gamma_th)
    raise ValueError(f"unknown baseline {baseline!r}")


# --------------------------------------------------------------------------
# Config file format: flat "key = value" lines, '#' comments, per-user
# arrays comma-separated.  The keys are _ALL_KEYS, the SystemConfig fields.
# --------------------------------------------------------------------------


def loads_config(text: str, source: str = "<string>") -> SystemConfig:
    """Parse the flat key/value config format; errors cite line and key."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if key in _SCALAR_INT:
                values[key] = int(rhs)
            elif key in _SCALAR_FLOAT:
                values[key] = float(rhs)
            else:
                values[key] = tuple(float(tok) for tok in rhs.split(","))
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: key {key!r}: cannot parse {rhs!r}: {exc}") from None
    try:
        return SystemConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_config(fh.read(), source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 "
                          f"({exc.reason} at byte {exc.start})") from None


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def dump_config(cfg: SystemConfig) -> str:
    """Serialize in fixed key order so identical configs give identical text."""
    lines = []
    for key in _ALL_KEYS:
        val = getattr(cfg, key)
        if key in _ARRAY_FLOAT:
            lines.append(f"{key} = {', '.join(_fmt(v) for v in val)}")
        else:
            lines.append(f"{key} = {_fmt(val)}")
    return "\n".join(lines) + "\n"

