"""Closed-form outage engine: exact single-integral form, lower bounds,
and high-SNR asymptotics.

Every form is built from two laws: A, the sum of the two strongest
first-hop gains, and B_(l), the l-th ordered second-hop gain.  Each is
tabulated once per structure at unit rate as an exponential polynomial,
pdf = sum_r e^(-r y) sum_j c[r][j] y^j, in exact rationals; its sf is
derived exactly, and each coefficient is rounded to float once
(first_hop_mixture, _ordered_gain_law).  Their pdf and sf take one exp
per rate and a Horner pass in y, and each table holds its CDF's first
nonzero Taylor term at 0 (lead), exact.  Every form reads the laws from
these tables only: the relay ratio W = A/(C + offset) of the lower bound,
the CEE/FBD error floor, the exact sum (A's sf, B_(l)'s pdf) and the
high-SNR law (both leads).

The exact outage probability is a 12-fold nested finite sum over one
semi-infinite quadrature (the Phi integral, integrated in log form by
phi_integral_log_rows).  It and the CEE/FBD error floor share one
exp-sinh rule, converged to the fixed relative tolerance _DE_REL_TOL.
Its terms are tabulated once per structure at unit rates (_sum_table);
an evaluation adds a few scalars' logs to each term's log-magnitude in
one array operation.  Terms alternate in sign, so the final reduction uses
exact summation (math.fsum) after rescaling by the largest term.

Two printed-formula ambiguities are resolved here; the tests arbitrate
them against the Monte Carlo engine with transcriptions of the printed
forms:

* The exact form carries the paper's partial-fraction rate s_t1 (a rate
  of A's table) as an overall factor of the Bessel argument, and ties the
  theta2/theta4 split exponent to the inner binomial index.  This agrees
  with simulation; the typeset form is not even a probability.
* The lower bound's theta4' constant uses the grouping
  gamma_bar*sigma2/2 + 1, which provably keeps the bound below the exact
  outage; the typeset gamma_bar^2*sigma2/2 + 1 does not.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, fsum, lgamma, log
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FdnomaError, NumericsError
from .specfn import _poly_power_exact, ln_bessel_k_int
from .sysmodel import (
    OutagePoint,
    SystemConfig,
    check_user,
    compute_deltas,
    compute_theta,
    derive_link_stats,
)

log_ = logging.getLogger(__name__)

__all__ = [
    "OutagePoint",
    "PhiTerm",
    "phi_integral_log",
    "phi_integral_log_rows",
    "exact_outage",
    "exact_outage_sweep",
    "lower_bound_outage",
    "asymptotic_outage_ideal",
    "asymptotic_outage_practical",
    "diversity_order",
    "array_gain",
    "first_hop_mixture",
    "pdf_two_strongest_sum",
    "sf_two_strongest_sum",
    "pdf_ordered_gain",
    "sf_ordered_gain",
    "sf_relay_ratio",
]

# Alternating-sum roundoff below this magnitude is clamped to the unit
# interval; anything worse indicates a real defect and raises.
_CLAMP_TOL = 1e-6

# Phi integrals and the CEE/FBD error floor: exp-sinh trapezoid rule
# (Takahasi & Mori, Publ. RIMS 9, 1974) on t in [-_DE_SPAN, _DE_SPAN], step
# _DE_STEP / 2**level, until two levels agree to _DE_REL_TOL.  Phi nodes
# with v = log(1 + z/pi_shift) beyond _DE_V_MAX lie where exp(-decay*z) is
# long dead (and expm1 would overflow); they count as zero.
_DE_SPAN = 4.5
_DE_STEP = 0.5
_DE_MAX_LEVEL = 8
_DE_REL_TOL = 1e-10
_DE_V_MAX = 700.0
_DE_NEGLIGIBLE = 750.0
# Nodes per evaluation of an integrand: each level after the first is taken
# in slices of this many nodes (level 0, 19 nodes that set each row's peak,
# is taken whole).  It is fixed, not derived from the row count, so that a
# row adds the same slices in the same order in a batch of any size.
_DE_SLICE = 64


@dataclass(frozen=True)
class PhiTerm:
    """Parameters of one Phi integrand:

        integral_0^inf z^z_power * (z + pi_shift)^pi_power * exp(-decay*z)
                       * K_|order|(2*sqrt(bessel_coeff*(z + pi_shift))) dz
    """

    z_power: float
    pi_power: float
    pi_shift: float
    decay: float
    bessel_coeff: float
    order: int
    label: str = ""

    def __post_init__(self):
        if not (self.pi_shift > 0 and self.decay > 0 and self.bessel_coeff > 0):
            raise ValueError(f"PhiTerm rate parameters must be positive: {self}")


@lru_cache(maxsize=_DE_MAX_LEVEL + 1)
def _de_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(pi/2 sinh t, log(pi/2 cosh t)) at the nodes one level of the
    exp-sinh rule adds: all of [-_DE_SPAN, _DE_SPAN] at the level-0 step,
    then the odd multiples of each halved step."""
    step = _DE_STEP / 2**level
    n = round(_DE_SPAN / step)
    t = step * (np.arange(-n, n + 1) if level == 0 else np.arange(1 - n, n, 2))
    return 0.5 * math.pi * np.sinh(t), np.log(0.5 * math.pi * np.cosh(t))


def _phi_log_integrand(rows: np.ndarray):
    """log_integrand of _de_log_integrals for a (n, 6) table of Phi rows:
    for rows idx, the function that gives the log of each row's integrand
    (times dz/dt) at some nodes of one level, -inf where it lies below the
    row's floor.

    rows holds (z_power, pi_power, pi_shift, decay, bessel_coeff, order).
    With v = log(1 + z/pi_shift) = v_c exp(pi/2 sinh t), centred at
    z = max(1/decay, pi_shift): z + pi_shift = pi_shift e^v exactly, and
    z = pi_shift expm1(v) keeps its relative accuracy near 0.

    The rows of one group (the same pi_shift, decay and bessel_coeff)
    share the nodes v and the Bessel argument, so these are computed once
    per group; the rows of one series (group and order) share the Bessel
    values, taken once at the nodes live for any of its rows.  What
    depends only on the rows (the groups and series of rows idx, their
    logs, the Bessel bound at z = 0) is computed once per call or per
    level, not per slice of nodes.  Each row's value comes from the same
    elementwise operations, in the same order, as for the row alone.
    """
    params, group = np.unique(rows[:, 2:5], axis=0, return_inverse=True)
    keys, series = np.unique(np.column_stack([group.ravel(), rows[:, 5]]), axis=0,
                             return_inverse=True)
    group, series = group.ravel(), series.ravel()
    series_group, series_order = keys[:, 0].astype(np.intp), keys[:, 1:2]
    # K_nu falls with its argument, so its value at z = 0 bounds every node
    x_min = 2.0 * np.sqrt(params[:, 2:3] * params[:, 0:1])
    k_bound = ln_bessel_k_int(series_order, x_min[series_group])

    def on_rows(idx):
        gids, g = np.unique(group[idx], return_inverse=True)
        sids, sr = np.unique(series[idx], return_inverse=True)
        s, c = params[gids, 0:1], params[gids, 1:2]
        log_s = np.log(s)
        v_c = np.log1p(np.maximum(1.0 / c, s) / s)
        cs = c * s
        x_g = x_min[gids]
        z_power, pi_power = rows[idx, 0:1], rows[idx, 1:2]
        log_s_g, log_v_c_g = log_s[g], np.log(v_c)[g]
        bound = k_bound[series[idx]]
        sg = np.searchsorted(gids, series_group[sids])
        nu = series_order[sids]
        by_series = np.argsort(sr, kind="stable")
        starts = np.flatnonzero(np.diff(sr[by_series], prepend=-1))

        def log_integrand(sinh_t, log_cosh_t, floor):
            v = v_c * np.exp(sinh_t)
            em = np.expm1(np.minimum(v, _DE_V_MAX))
            # lg is built in place, with t for the gathered group terms; a*x
            # and x*a are the same product
            lg = np.take(log_s + np.log(em), g, axis=0)
            lg *= z_power
            t = np.take(log_s + v, g, axis=0)
            t *= pi_power
            lg += t
            lg -= np.take(cs * em, g, axis=0, out=t)
            lg += log_s_g
            lg += np.take(v, g, axis=0, out=t)  # dz/dv
            lg += log_v_c_g  # dv/dt
            lg += sinh_t
            lg += log_cosh_t
            live = np.add(lg, bound, out=t) > floor
            live &= (v < _DE_V_MAX)[g]
            live_s = np.logical_or.reduceat(live[by_series], starts, axis=0)
            k = np.zeros(live_s.shape)
            k[live_s] = ln_bessel_k_int(np.broadcast_to(nu, live_s.shape)[live_s],
                                        (x_g * np.exp(0.5 * v))[sg][live_s])
            lg += np.take(k, sr, axis=0, out=t)
            lg[~live] = -np.inf
            return lg

        return log_integrand

    return on_rows


def _log_positive(x) -> np.ndarray:
    """log x, and -inf where x rounds to <= 0 (or is NaN)."""
    return np.log(np.where(x > 0, x, 0.0))


class _FailedRows(NumericsError):
    """Rows of a _de_log_integrals pass that failed, raised once every row
    is done.  logs holds every row's value (NaN where the row failed);
    failures holds (level, row, message) per failed row.  The error's
    message is that of the first failure, the one a pass over fewer rows
    would have stopped at."""

    def __init__(self, logs: np.ndarray, failures: list[tuple[int, int, str]]):
        super().__init__(min(failures)[2])
        self.logs, self.failures = logs, failures


def _de_log_integrals(n: int, log_integrand, failed) -> np.ndarray:
    """log of n integrals on the exp-sinh nodes, all rows in one pass.

    log_integrand(idx) readies rows idx (again only when rows leave the
    pass) and returns f: f(sinh_t, log_cosh_t, floor) gives the log of
    those rows' integrands times their Jacobian in t at the given nodes,
    floor being each row's (len(idx), 1) floor; it may give -inf at a node
    below the floor, since such a node adds exactly 0.0.

    Each row keeps a running sum of exp(lg - top), top being its level-0
    peak, and halves its step on its own, reusing the sum it has, until two
    levels agree to _DE_REL_TOL.  Level 0 is evaluated whole, each later
    level in slices of _DE_SLICE nodes, so a pass holds rows x _DE_SLICE
    values at a time, and a row adds the same slices in the same order in
    any batch: the arithmetic of a row never depends on the other rows.
    A row that fails leaves the pass, and the others go on; if any failed,
    _FailedRows is raised at the end.  failed(i) opens row i's message.
    """
    out = np.empty(n)
    failures: list[tuple[int, int, str]] = []
    active = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = log_integrand(active)
        lg = f(*_de_nodes(0), -np.inf)
        top = lg.max(axis=1)
        # the span must hold the integral: each end node carries less than
        # _DE_REL_TOL of it
        ends = np.maximum(lg[:, 0], lg[:, -1])
        # a node this far below the row's level-0 peak adds exactly 0.0 to
        # the rescaled sum, so it is not evaluated
        floor = top[:, None] - _DE_NEGLIGIBLE
        top = np.where(top > -np.inf, top, 0.0)
        lg -= top[:, None]
        total = np.sum(np.exp(lg, out=lg), axis=1)
        prev = top + np.log(total) + log(_DE_STEP)
        for level in range(1, _DE_MAX_LEVEL + 1):
            if not len(active):
                break
            sinh_t, log_cosh_t = _de_nodes(level)
            for lo in range(0, len(sinh_t), _DE_SLICE):
                lg = f(sinh_t[lo:lo + _DE_SLICE], log_cosh_t[lo:lo + _DE_SLICE], floor)
                lg -= top[:, None]
                total += np.sum(np.exp(lg, out=lg), axis=1)
            cur = top + np.log(total) + log(_DE_STEP / 2**level)
            done = (cur == prev) | (np.abs(np.expm1(prev - cur)) <= _DE_REL_TOL)
            cut = done & (ends - cur > log(_DE_REL_TOL))
            failures += [(level, i, f"{failed(i)}: the integrand does not decay within the node span")
                         for i in active[cut]]
            out[active[cut]] = np.nan
            ok = done & ~cut
            out[active[ok]] = cur[ok]
            prev = cur
            if done.any():
                left = ~done
                active, prev, top, total, floor, ends = (
                    a[left] for a in (active, cur, top, total, floor, ends))
                if len(active):
                    f = log_integrand(active)
    failures += [(_DE_MAX_LEVEL + 1, i, f"{failed(i)}: no two levels agreed to {_DE_REL_TOL:g} "
                  f"by step {_DE_STEP / 2**_DE_MAX_LEVEL:g}") for i in active]
    if failures:
        out[active] = np.nan
        raise _FailedRows(out, failures)
    return out


def phi_integral_log_rows(rows: np.ndarray, label=str) -> np.ndarray:
    """log Phi of every row of a (n, 6) table, all rows in one pass
    (_de_log_integrals, _phi_log_integrand).  label(i) names row i in
    errors; when rows fail, _FailedRows carries every row's value."""
    return _de_log_integrals(len(rows), _phi_log_integrand(rows),
                             lambda i: f"phi quadrature failed for term {label(i)}")


def phi_integral_log(term: PhiTerm) -> float:
    """log of the Phi integral (-inf when the integrand underflows)."""
    row = np.array([[term.z_power, term.pi_power, term.pi_shift, term.decay,
                     term.bessel_coeff, term.order]], dtype=float)
    return float(phi_integral_log_rows(row, lambda i: term.label or term)[0])


# --------------------------------------------------------------------------
# First-hop statistics: A = sum of the two largest of n_b i.i.d. Gamma gains
# --------------------------------------------------------------------------

def _require_integer_shape(value: float, name: str) -> int:
    if abs(value - round(value)) > 1e-12 or value < 1:
        raise ConfigError(f"the closed-form engine requires integer {name} >= 1, got {value}")
    return int(round(value))


# Past this unit-rate argument e^(-y) is 0.0 in double precision, and so
# is every term of a law, whose rates are all >= 1; clamping there keeps
# the polynomial factors finite.
_Y_DEAD = 746.0

_Rows = tuple[tuple[Fraction, tuple[Fraction, ...]], ...]


class _ExpPoly(NamedTuple):
    """A law at unit rate as an exponential polynomial: its pdf is
    sum_r e^(-r y) sum_j c[r][j] y^j, and its sf likewise.

    pdf and sf hold the exact (rate, coefficients) pairs, lowest power
    first; pdf_rows and sf_rows the same pairs with each number rounded to
    float once.  lead is (k, c), the first nonzero Taylor coefficient of
    the CDF at 0: F(y) ~ c y^k as y -> 0, c exact.  Both laws here scale
    with their rate: pdf(x; lam) = lam pdf(lam x; 1) and
    sf(x; lam) = sf(lam x; 1).
    """

    pdf: _Rows
    sf: _Rows
    pdf_rows: tuple[tuple[float, tuple[float, ...]], ...]
    sf_rows: tuple[tuple[float, tuple[float, ...]], ...]
    lead: tuple[int, Fraction]

    @classmethod
    def of(cls, pdf: dict[Fraction, dict[int, Fraction]]) -> _ExpPoly:
        """The law whose pdf has coefficient pdf[r][j] at e^(-r y) y^j.  Its
        sf is the tail integral: int_y^inf u^j e^(-r u) du
        = e^(-r y) sum_{k<=j} j!/(k! r^(j-k+1)) y^k."""
        rows = tuple((r, tuple(cs.get(j, Fraction(0)) for j in range(max(cs) + 1)))
                     for r, cs in sorted(pdf.items()))
        sf = tuple((r, tuple(sum(c * math.factorial(j) / (math.factorial(k) * r ** (j - k + 1))
                                 for j, c in enumerate(row[k:], start=k))
                             for k in range(len(row))))
                   for r, row in rows)
        # 1 - sf's coefficient of y^n: sf(0) = 1, then minus the y^n
        # coefficient of each e^(-r y) y^j term, j <= n
        n, c = 0, Fraction(0)
        while not c:
            n += 1
            c = -sum(d * (-r) ** (n - j) / math.factorial(n - j)
                     for r, row in sf for j, d in enumerate(row[:n + 1]))
        return cls(rows, sf, _rounded(rows), _rounded(sf), (n, c))

    def pdf_at(self, x, lam: float):
        return lam * _exp_poly(self.pdf_rows, lam * np.asarray(x, dtype=float))

    def sf_at(self, x, lam: float):
        return _exp_poly(self.sf_rows, lam * np.asarray(x, dtype=float))


def _rounded(rows: _Rows) -> tuple[tuple[float, tuple[float, ...]], ...]:
    return tuple((float(r), tuple(float(c) for c in row)) for r, row in rows)


def _exp_poly(rows, y):
    """sum_r e^(-r y) P_r(y): one exp per rate, each P_r by Horner in y,
    in place; a scalar y gives a scalar."""
    y = np.minimum(y, _Y_DEAD)
    out, acc, e = np.zeros_like(y), np.empty_like(y), np.empty_like(y)
    for r, row in rows:
        acc.fill(row[-1])
        for c in row[-2::-1]:
            acc *= y
            acc += c
        acc *= np.exp(np.multiply(y, -r, out=e), out=e)
        out += acc
    return out[()]


@lru_cache(maxsize=64)
def first_hop_mixture(n_b: int, m: int) -> _ExpPoly:
    """A's law at unit rate: the sum of the two strongest of n_b i.i.d.
    Gamma(m, 1) gains.

    Its MGF sums, over the selection index r < n_b - 1, n and t < m, the
    products coef (s + 1)^-(m - t) (s + q)^-(t + n + m), q = (2 + r)/2, or
    coef (s + 1)^-(n + 2m) when r = 0.  Each product is split into partial
    fractions by the repeated-pole residue formula, in exact rationals, and
    a kernel (s + rho)^-k adds y^(k-1) e^(-rho y)/(k-1)! to the pdf.
    """
    one = Fraction(1)
    pdf: dict[Fraction, dict[int, Fraction]] = {}

    def add(rho: Fraction, k: int, w: Fraction):
        row = pdf.setdefault(rho, {})
        row[k - 1] = row.get(k - 1, 0) + w / math.factorial(k - 1)

    for r in range(n_b - 1):
        q = Fraction(2 + r, 2)
        for n, beta in enumerate(_poly_power_exact(m, one, r)):
            for t in range(m):
                coef = (beta * n_b * (n_b - 1) * comb(n_b - 2, r) * (-1) ** r
                        * math.factorial(m + n + t - 1)
                        / (math.factorial(m - 1) * math.factorial(t) * 2 ** (t + n + m)))
                if r == 0:
                    add(one, n + 2 * m, coef)
                    continue
                # in (s + a)^-i (s + b)^-o, (s + a)^-k has the coefficient
                # (-1)^j C(o + j - 1, j) (b - a)^-(o + j), j = i - k
                for a, i, b, o in ((one, m - t, q, t + n + m), (q, t + n + m, one, m - t)):
                    for k in range(1, i + 1):
                        j = i - k
                        add(a, k, coef * (-1) ** j * comb(o + j - 1, j) / (b - a) ** (o + j))
    return _ExpPoly.of(pdf)


def pdf_two_strongest_sum(x, n_b: int, m: int, lam: float):
    """PDF of A (vectorized in x)."""
    return first_hop_mixture(n_b, m).pdf_at(x, lam)


def sf_two_strongest_sum(x, n_b: int, m: int, lam: float):
    """Complementary CDF of A; accurate where the survival mass is small."""
    return first_hop_mixture(n_b, m).sf_at(x, lam)


# --------------------------------------------------------------------------
# Second-hop order statistics: B_l = l-th smallest of L i.i.d. Gamma(M) gains
# --------------------------------------------------------------------------

def _order_weights(l: int, n_users: int) -> list[tuple[int, int]]:
    """(p, w_p) for each nonzero w_p: the l-th of L i.i.d. gains has pdf
    f sum_p w_p S^p, f and S one gain's pdf and sf (David & Nagaraja, Order
    Statistics, 2003, sec. 2.1); w_p is summed exactly over k."""
    check_user(l, n_users)
    q_l = math.factorial(n_users) // (math.factorial(n_users - l) * math.factorial(l - 1))
    weights = ((p, q_l * sum((-1) ** (k + p) * comb(n_users - l, k) * comb(l + k - 1, p)
                             for k in range(n_users - l + 1))) for p in range(n_users))
    return [(p, w) for p, w in weights if w]


@lru_cache(maxsize=64)
def _ordered_gain_law(l: int, n_users: int, m_total: int) -> _ExpPoly:
    """B_(l)'s law at unit rate: with f = y^(M-1) e^-y / (M-1)! and
    S = e^-y sum_{k<M} y^k/k!, f S^p = e^(-(1+p) y) sum_k1 beta_p[k1]
    y^(M-1+k1) / (M-1)!, beta_p the exact coefficients of the p-th power."""
    return _ExpPoly.of({
        Fraction(1 + p): {m_total - 1 + k1: w * b / math.factorial(m_total - 1)
                          for k1, b in enumerate(_poly_power_exact(m_total, Fraction(1), p))}
        for p, w in _order_weights(l, n_users)})


def pdf_ordered_gain(x, l: int, n_users: int, m_total: int, lam: float):
    """PDF of the l-th order statistic of the per-user combined gain."""
    return _ordered_gain_law(l, n_users, m_total).pdf_at(x, lam)


def sf_ordered_gain(x, l: int, n_users: int, m_total: int, lam: float):
    """Complementary CDF of the l-th order statistic."""
    return _ordered_gain_law(l, n_users, m_total).sf_at(x, lam)


# --------------------------------------------------------------------------
# First-hop-over-SI ratio W
# --------------------------------------------------------------------------

def sf_relay_ratio(x: float, *, n_b: int, m_sr: int, lam_sr: float, m_rr: int,
                   omega_rr: float, offset: float) -> float:
    """Complementary CDF of W = A / (C + offset).

    Practical conditions: W = snr_bar*A / (snr_bar*C + theta4p), so offset
    = theta4p/snr_bar.  Ideal: W = A/C, offset 0.  A's sf table closed
    against the Gamma(m_rr) SI law: each term d y^k e^(-rho y) of it, with
    (C + o)^k expanded, in the rate-free y = lam_sr*x/rate_c and
    o = offset*rate_c; terms collected with exact summation.
    """
    rate_c = m_rr / omega_rr
    y, o = lam_sr * x / rate_c, offset * rate_c
    return fsum(d * comb(k, t5) * math.prod(range(m_rr, m_rr + t5)) * y**k * o ** (k - t5)
                * exp(-rho * lam_sr * x * offset) * (rho * y + 1.0) ** (-t5 - m_rr)
                for rho, row in first_hop_mixture(n_b, m_sr).sf_rows
                for k, d in enumerate(row) for t5 in range(k + 1))


# --------------------------------------------------------------------------
# Exact outage (single-integral closed form)
# --------------------------------------------------------------------------

def _require_analytic_config(cfg: SystemConfig) -> tuple[int, int, int]:
    """Integer shapes and homogeneous second-hop users (the order-statistic
    closed forms assume i.i.d. gains across users)."""
    m_sr = _require_integer_shape(cfg.m_sr, "m_sr")
    m_rr = _require_integer_shape(cfg.m_rr, "m_rr")
    m_ru0 = _require_integer_shape(cfg.m_ru[0], "m_ru")
    for name in ("m_ru", "d_ru", "sigma2_est_ru", "fd_tau_ru"):
        vals = getattr(cfg, name)
        if any(v != vals[0] for v in vals):
            raise ConfigError(
                f"the closed-form engine requires identical {name} across users, got {vals}"
            )
    return m_sr, m_rr, m_ru0


@dataclass(frozen=True)
class _SumTable:
    """The exact form's nested sum for one structure, at unit rates.

    Term i is sign[i] * exp(const[i] + powers[i] @ x) * Phi(rows[row[i]]),
    x being the eight per-evaluation scalars of exact_outage_for_lambda,
    times the common factor rate_c^m_rr / Gamma(m_rr).  Each Phi row is
    (k2, e_pi, nu, rho, p), rho the pole over lam_s.
    """

    sign: np.ndarray
    const: np.ndarray
    powers: np.ndarray
    row: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        # one cached table serves every caller
        for column in (self.sign, self.const, self.powers, self.row, self.rows):
            column.flags.writeable = False


@lru_cache(maxsize=64)
def _sum_table(n_b: int, m_sr: int, big_m: int, n_users: int, l: int) -> _SumTable:
    """Terms of the success sum, built once per structure.

    Each rate enters only as a power of itself (A's sf coefficient of y^n1
    scales as lam_s^n1, B_(l)'s pdf coefficient of y^(M-1+k1) as
    lam_b^k1), so the terms are built at unit rates.  Terms that share
    every power and Phi row are merged first: the first-hop factor is one
    exact coefficient of A's sf per (rho, n1), the second-hop factor one
    exact coefficient of B_(l)'s pdf per (1 + p, k1), times C(M-1+k1, t4).
    """
    # first-hop x (t3, k2) factor: (rho, n1, t3, k2, value); the
    # Bessel-closing integral adds a factor 2 to A's sf coefficient
    ft = np.array([
        (float(rho), n1, t3, k2, float(2 * d * comb(n1, t3) * comb(t3, k2)))
        for rho, row in first_hop_mixture(n_b, m_sr).sf
        for n1, d in enumerate(row)
        for t3 in range(n1 + 1)
        for k2 in range(t3 + 1)
    ])
    # second-hop factor: (p, k1, t4, value), from B_(l)'s pdf term
    # c y^j e^(-(1 + p) y), j = M - 1 + k1
    sh = [(float(rate) - 1, j - big_m + 1, t4, float(c * comb(j, t4)))
          for rate, row in _ordered_gain_law(l, n_users, big_m).pdf
          for j, c in enumerate(row) if c for t4 in range(j + 1)]
    # every term is one (first-hop, t3, k2) entry times one second-hop entry
    rho, n1, t3, k2, f = (c[:, None] for c in ft.T)
    p, k1, t4, s = np.array(sh).T
    value = f * s
    live = value != 0.0
    nu = t3 + t4 - n1 + 1
    e_pi = (n1 - t3 + t4 + 1) / 2.0
    # exponents of 2 dd lam_s/g, lam_b, 2 th1 dd, c1, th4 g^2, th2 g,
    # exp(-2 dd th2 lam_s) and exp(-2 th1 dd lam_b)
    powers = np.stack(np.broadcast_arrays(
        n1 + nu / 2, big_m + k1 - nu / 2, big_m + k1 - t4 - 1, e_pi, k2, t3 - k2, rho, 1 + p,
    ), axis=-1)[live]
    keys = np.stack(np.broadcast_arrays(k2, e_pi, nu, rho, p), axis=-1)[live]
    rows, row = np.unique(keys, axis=0, return_inverse=True)
    const = np.log(np.abs(value[live])) + (nu / 2 * (np.log(rho) - np.log(1 + p)))[live]
    return _SumTable(np.sign(value[live]), const, powers, row.ravel(), rows)


# Phi rows per phi_integral_log_rows call of exact_outage_sweep.  A call
# holds its rows' values at one slice of _DE_SLICE nodes at a time, not
# every node of its rows, so its memory grows with its rows by ~8 KB each;
# taken in group order, the rows of a call share Bessel values about as
# well as in one uncapped call.  On a 2-core VM, the exact sweep alone in a
# fresh process: fig7's values 0.45-0.55 s at 36 MB peak RSS (1024 rows:
# 0.33-0.40 s, 38 MB), and the m=4, n_b=3, n_r=2 sweep over 10:40:10 dB
# 2.4-3.0 s at 80 MB (1024 rows: 2.0-2.3 s, 80 MB).  Values do not depend
# on it.
_PHI_ROW_CAP = 256


@dataclass(frozen=True)
class _ExactPlan:
    """One exact evaluation up to its Phi values: the table, the Phi rows
    at this point's rates, the eight scalars and the log of the common
    factor rate_c^m_rr / Gamma(m_rr)."""

    l: int
    snr_db: float
    table: _SumTable
    pole: np.ndarray
    rows: np.ndarray
    scalars: np.ndarray
    log_cc: float

    def label(self, i: int) -> str:
        k2, e_pi, nu, _, p = self.table.rows[i]
        return (f"l={self.l} snr={self.snr_db} pole={self.pole[i]:g} k2={k2:g} e_pi={e_pi:g} "
                f"nu={nu:g} p={p:g}")


def _exact_plan(cfg: SystemConfig, snr_db: float, l: int, lam_dag: float | None) -> _ExactPlan:
    check_user(l, cfg.n_users)
    g = 10.0 ** (snr_db / 10.0)
    if lam_dag is None:
        lam_dag = compute_deltas(cfg, g).lambda_dag[l - 1]
    m_sr, m_rr, m_ru = _require_analytic_config(cfg)
    stats = derive_link_stats(cfg, g)
    theta = compute_theta(stats, g, l)
    th1, th2, th3, th4, th5 = theta.theta1, theta.theta2, theta.theta3, theta.theta4, theta.theta5
    dd = lam_dag / g
    lam_s = m_sr / stats.omega_hat_sr
    lam_b = m_ru / stats.omega_hat_ru[l - 1]
    c1 = th3 * g + 2 * th1 * th4 * g**2 * dd
    c0 = 2 * th1 * th2 * g * dd + th5
    rate_c = m_rr / stats.omega_rr
    table = _sum_table(cfg.n_b, m_sr, m_ru * cfg.n_r, cfg.n_users, l)

    k2, e_pi, nu, rho, p = table.rows.T
    pole = lam_s * rho
    rows = np.column_stack([
        k2 + m_rr - 1, e_pi, np.full(len(k2), c0 / c1),
        2 * dd * th4 * g * pole + rate_c, 2 * dd * (1 + p) * lam_b * pole * c1 / g, nu,
    ])
    # in the order of the table's powers
    scalars = np.array([
        log(2 * dd * lam_s / g), log(lam_b), log(2 * th1 * dd), log(c1),
        log(th4 * g**2), log(th2 * g), -2 * dd * th2 * lam_s, -2 * th1 * dd * lam_b,
    ])
    return _ExactPlan(l, snr_db, table, pole, rows, scalars, m_rr * log(rate_c) - lgamma(m_rr))


def _exact_finish(plan: _ExactPlan, log_phi: np.ndarray) -> OutagePoint:
    table = plan.table
    logs = table.const + table.powers @ plan.scalars + log_phi[table.row]
    live = logs > -np.inf
    if not live.any():
        # every success term underflowed: the form cannot resolve this
        # point, which is not evidence of certain outage
        raise NumericsError(
            f"exact outage for user {plan.l} at {plan.snr_db} dB: every Phi term underflowed"
        )
    logs = logs[live]
    shift = logs.max()
    success = exp(shift + plan.log_cc) * fsum(table.sign[live] * np.exp(logs - shift))
    return _clamped_point(1.0 - success, plan.l, plan.snr_db, "exact")


def exact_outage_sweep(
    entries: Sequence[tuple[SystemConfig, float, int, float | None]],
) -> list[OutagePoint | FdnomaError]:
    """Exact outage of every (cfg, snr_db, l, lam_dag) entry.

    lam_dag is the SNR-normalized threshold Lambda+; None takes user l's
    SIC threshold at snr_db.  The Phi rows of all entries run together,
    in phi_integral_log_rows calls of at most _PHI_ROW_CAP rows.  A row's
    value does not depend on the rows beside it, so each entry's value
    equals, bitwise, a one-entry call.

    Returns one result per entry: its OutagePoint, or the FdnomaError its
    evaluation raised.  A Phi row that fails fails only its own entry; an
    error of a whole call (a Bessel evaluation) fails every entry with
    rows in it.
    """
    plans: list[_ExactPlan | FdnomaError] = []
    for cfg, snr_db, l, lam_dag in entries:
        try:
            plans.append(_exact_plan(cfg, snr_db, l, lam_dag))
        except FdnomaError as exc:
            plans.append(exc)
    live = [plan for plan in plans if isinstance(plan, _ExactPlan)]
    sizes = [len(plan.rows) for plan in live]
    ends = np.cumsum(sizes, dtype=np.intp)
    starts = ends - sizes
    rows = np.concatenate([plan.rows for plan in live]) if live else np.empty((0, 6))

    def label(i: int) -> str:
        j = int(np.searchsorted(ends, i, side="right"))
        return live[j].label(i - starts[j])

    # in group and order sequence, a call holds whole groups and series
    # where it can, and shares their nodes and Bessel values
    # (_phi_log_integrand)
    order = np.lexsort(rows[:, 5:1:-1].T)
    log_phi = np.empty(len(rows))
    failures: list[tuple[int, int, str]] = []  # (level, row, message) of failed rows
    errors: dict[int, FdnomaError] = {}  # live entry -> its error
    for lo in range(0, len(rows), _PHI_ROW_CAP):
        batch = order[lo:lo + _PHI_ROW_CAP]
        try:
            log_phi[batch] = phi_integral_log_rows(rows[batch],
                                                   lambda i, batch=batch: label(batch[i]))
        except _FailedRows as exc:
            log_phi[batch] = exc.logs
            failures += [(level, batch[i], message) for level, i, message in exc.failures]
        except FdnomaError as exc:
            for j in np.searchsorted(ends, batch, side="right").tolist():
                errors.setdefault(j, exc)
    # an entry's first failed row is the one a call of its own stops at
    for _, i, message in sorted(failures):
        errors.setdefault(int(np.searchsorted(ends, i, side="right")), NumericsError(message))

    done: list[OutagePoint | FdnomaError] = []
    for j, plan in enumerate(live):
        try:
            done.append(errors.get(j) or _exact_finish(plan, log_phi[starts[j]:ends[j]]))
        except FdnomaError as exc:
            done.append(exc)
    results = iter(done)
    return [plan if isinstance(plan, FdnomaError) else next(results) for plan in plans]


def _one_result(results: list[OutagePoint | FdnomaError]) -> OutagePoint:
    (res,) = results
    if isinstance(res, FdnomaError):
        raise res
    return res


def exact_outage(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
) -> OutagePoint:
    """Exact outage probability of user l from the nested-sum closed form:
    a one-entry exact_outage_sweep."""
    return _one_result(exact_outage_sweep([(cfg, snr_db, l, None)]))


def exact_outage_for_lambda(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    lam_dag: float,
) -> OutagePoint:
    """Exact outage with an explicit SNR-normalized threshold Lambda+.

    The joint SIC event reduces to one threshold per user; supplying it
    directly also covers the single-user-per-resource baseline, whose
    product-mapped threshold replaces the SIC maximum.
    """
    return _one_result(exact_outage_sweep([(cfg, snr_db, l, lam_dag)]))


def _clamped_point(raw: float, l: int, snr_db: float, method: str, floor: bool = False) -> OutagePoint:
    """raw clamped to the unit interval; an overshoot beyond _CLAMP_TOL raises."""
    residual = raw - 1.0 if raw > 1.0 else min(0.0, raw)
    if abs(residual) > _CLAMP_TOL:
        raise NumericsError(f"{method} outage for user {l} at {snr_db} dB is {raw}, "
                            f"{'below' if residual < 0 else 'above'} the roundoff budget")
    if residual:
        log_.debug("%s outage clamped to [0, 1] (residual %.3e)", method, residual)
    return OutagePoint(user=l, snr_db=snr_db, value=min(max(raw, 0.0), 1.0), method=method,
                       residual=residual, floor=floor)


# --------------------------------------------------------------------------
# Lower bound
# --------------------------------------------------------------------------

def lower_bound_outage(cfg: SystemConfig, snr_db: float, l: int) -> OutagePoint:
    """Closed-form lower bound 1 - sf_W(2 delta+ gbar theta4) sf_B(2 delta+ theta1),
    theta4 and theta1 being the paper's theta2' and theta1'.

    No quadrature.  W = A/C (offset 0) is taken when all impairments
    vanish.
    """
    check_user(l, cfg.n_users)
    m_sr, m_rr, m_ru = _require_analytic_config(cfg)
    snr_bar = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, snr_bar)
    theta = compute_theta(stats, snr_bar, l)
    dd = compute_deltas(cfg, snr_bar).delta_dag[l - 1]
    lam_s = m_sr / stats.omega_hat_sr
    lam_b = m_ru / stats.omega_hat_ru[l - 1]
    sf_w = sf_relay_ratio(
        2 * dd * snr_bar * theta.theta4, n_b=cfg.n_b, m_sr=m_sr, lam_sr=lam_s, m_rr=m_rr,
        omega_rr=stats.omega_rr, offset=0.0 if cfg.ideal else theta.thetap4 / snr_bar,
    )
    sf_b = float(sf_ordered_gain(2 * dd * theta.theta1, l, cfg.n_users, m_ru * cfg.n_r, lam_b))
    # 1 - sf_w*sf_b evaluated as F_w + F_b - F_w*F_b to dodge cancellation
    f_w = 1.0 - sf_w
    f_b = 1.0 - sf_b
    raw = f_w + f_b - f_w * f_b
    return _clamped_point(raw, l, snr_db, "lower_bound")


# --------------------------------------------------------------------------
# Asymptotics
# --------------------------------------------------------------------------

def _require_ideal(cfg: SystemConfig):
    if not cfg.ideal:
        raise ConfigError("ideal-conditions operation called with nonzero impairments")


def diversity_order(cfg: SystemConfig, l: int) -> float:
    """min{(1-mu) m_sr n_b, m_ru n_r l}; 0 at mu=1 (error floor)."""
    check_user(l, cfg.n_users)
    _require_ideal(cfg)
    if cfg.mu == 1.0:
        return 0.0
    return min((1.0 - cfg.mu) * cfg.m_sr * cfg.n_b, cfg.m_ru[l - 1] * cfg.n_r * l)


def _ideal_high_snr_terms(cfg: SystemConfig, l: int) -> list[tuple[float, float]]:
    """User l's ideal high-SNR outage (mu < 1) as terms (c, e) of
    sum c gbar^(-e), evaluated at unit SNR.

    The limiting first-hop event is A <= 2 Lambda+ (1 + gbar C), with
    F_A(x) ~ c_A (lam_s x)^k from A's table (k = m_sr n_b), and gbar C ~
    Gamma(m_rr) of mean omega_rr gbar^mu; E[(1 + gbar C)^k] gives one term
    per moment j, of order k - mu j.  Keeping every moment keeps the law
    exact at mu = 0, where gbar C does not diverge.  The second hop adds
    F_B(2 Lambda+ / gbar) ~ c_B (lam_b 2 Lambda+ / gbar)^(M l) from B_(l)'s
    table.
    """
    m_sr, m_rr, m_ru = _require_analytic_config(cfg)
    stats = derive_link_stats(cfg, 1.0)
    lam_dag = compute_deltas(cfg, 1.0).lambda_dag[l - 1]
    k, c_a = first_hop_mixture(cfg.n_b, m_sr).lead
    order_b, c_b = _ordered_gain_law(l, cfg.n_users, m_ru * cfg.n_r).lead
    f_a = float(c_a) * (2.0 * lam_dag * m_sr / stats.omega_sr) ** k
    terms = [(f_a * comb(k, j) * math.prod(range(m_rr, m_rr + j)) * (stats.omega_rr / m_rr) ** j,
              k - cfg.mu * j) for j in range(k + 1)]
    return terms + [(float(c_b) * (2.0 * lam_dag * m_ru / stats.omega_ru[l - 1]) ** order_b,
                     order_b)]


def array_gain(cfg: SystemConfig, l: int) -> float:
    """Array gain G_ag of the high-SNR law OP ~ (G_ag gbar)^(-G_do): the
    constant of the lowest-order terms of the ideal asymptote, to the power
    -1/G_do.  Where both hops share that order, their constants add; at
    mu = 0 every first-hop moment has it."""
    check_user(l, cfg.n_users)
    _require_ideal(cfg)
    if cfg.mu == 1.0:
        raise ConfigError("array gain is undefined at mu=1 (zero diversity floor)")
    terms = _ideal_high_snr_terms(cfg, l)
    order = min(e for _, e in terms)
    return sum(c for c, e in terms if math.isclose(e, order)) ** (-1.0 / order)


def asymptotic_outage_ideal(cfg: SystemConfig, snr_db: float, l: int) -> OutagePoint:
    """High-SNR outage law under ideal conditions.

    mu < 1: the two-branch power law, sum c gbar^(-e) over
    _ideal_high_snr_terms.  mu = 1: the SNR-independent floor
    F_W(2 Lambda+) evaluated with the exact ideal W CDF.
    """
    check_user(l, cfg.n_users)
    _require_ideal(cfg)
    snr_bar = 10.0 ** (snr_db / 10.0)
    if cfg.mu == 1.0:
        m_sr, m_rr, _ = _require_analytic_config(cfg)
        lam_dag = compute_deltas(cfg, snr_bar).lambda_dag[l - 1]
        stats = derive_link_stats(cfg, snr_bar)
        sf_w = sf_relay_ratio(2.0 * lam_dag, n_b=cfg.n_b, m_sr=m_sr, m_rr=m_rr, offset=0.0,
                              lam_sr=m_sr / stats.omega_hat_sr, omega_rr=stats.omega_rr)
        return _clamped_point(1.0 - sf_w, l, snr_db, "asymptotic_ideal", floor=True)
    val = sum(c * snr_bar**-e for c, e in _ideal_high_snr_terms(cfg, l))
    return OutagePoint(user=l, snr_db=snr_db, value=min(val, 1.0), method="asymptotic_ideal")


def asymptotic_outage_practical(cfg: SystemConfig, l: int) -> OutagePoint:
    """Error floor under CEE/FBD: the gbar -> infinity limit of the exact form.

    With the high-SNR theta replacements the outage event collapses to an
    SNR-free comparison; for mu < 1 the SI gain concentrates at zero and a
    single quadrature over the ordered gain remains, for mu = 1 the SI
    average is kept as an outer quadrature.  Both are exp-sinh rules, as
    for Phi, converged to _DE_REL_TOL.
    """
    check_user(l, cfg.n_users)
    m_sr, m_rr, m_ru = _require_analytic_config(cfg)
    stats = derive_link_stats(cfg, 1.0)  # SNR enters only omega_rr; mu=1 keeps it constant
    if cfg.ideal:
        raise ConfigError("no CEE/FBD error floor exists for an ideal configuration")
    lam_dag = compute_deltas(cfg, 1.0).lambda_dag[l - 1]
    rs2 = stats.rho_sr**2
    rr2 = stats.rho_ru[l - 1] ** 2
    s2s = stats.sigma2_sr
    s2r = stats.sigma2_ru[l - 1]
    th1_t = s2r / (2 * rr2)
    th2_t = s2s / (2 * rs2)
    th3_t = s2r / (rs2 * rr2)
    th4 = 1 / rs2
    th5_t = s2s * s2r / (2 * rs2 * rr2)
    tau_b = 2.0 * lam_dag * th1_t
    lam_s = m_sr / stats.omega_hat_sr
    lam_b = m_ru / stats.omega_hat_ru[l - 1]
    big_m = m_ru * cfg.n_r
    n_b, L = cfg.n_b, cfg.n_users

    u_c = max(big_m / lam_b, tau_b)

    def log_survive(z: np.ndarray) -> np.ndarray:
        """log of int_0^inf sf_A(arg(u, z)) f_B(u + tau_b) du per SI gain z,
        in u = u_c exp(pi/2 sinh t)."""

        def log_integrand(idx):
            zz = z[idx, None]

            def at(sinh_t, log_cosh_t, floor):
                u = u_c * np.exp(sinh_t)
                y = u + tau_b
                arg = 2.0 * lam_dag * (th2_t * y + th3_t * zz + th4 * y * zz + th5_t) / u
                # both factors are nonnegative: one that rounds to <= 0 is zero
                return (_log_positive(sf_two_strongest_sum(arg, n_b, m_sr, lam_s))
                        + _log_positive(pdf_ordered_gain(y, l, L, big_m, lam_b))
                        + log(u_c) + sinh_t + log_cosh_t)

            return at

        return _de_log_integrals(len(z), log_integrand,
                                 lambda i: f"floor quadrature failed for SI gain {z[i]:g}")

    if cfg.mu < 1.0:
        survive = exp(log_survive(np.zeros(1))[0])
    else:
        # the SI average in z = omega_rr exp(pi/2 sinh t), centred at its mean
        rate_c = m_rr / stats.omega_rr

        def log_outer(sinh_t, log_cosh_t, floor):
            z = stats.omega_rr * np.exp(sinh_t)
            lg = (m_rr * (log(m_rr) + sinh_t) - rate_c * z - lgamma(m_rr) + log_cosh_t)[None]
            # arg >= 2 lam_dag (th2 + th4 z) at every u, so the Gamma density
            # times sf_A there bounds each node; a node whose bound rounds
            # to zero counts as zero
            bound = lg + _log_positive(
                sf_two_strongest_sum(2.0 * lam_dag * (th2_t + th4 * z), n_b, m_sr, lam_s))
            live = (bound > floor) & (np.exp(bound) > 0.0)
            out = np.full(lg.shape, -np.inf)
            out[live] = lg[live] + log_survive(z[live[0]])
            return out

        survive = exp(_de_log_integrals(1, lambda idx: log_outer,
                                        lambda i: "floor quadrature failed for the SI average")[0])
    return _clamped_point(1.0 - survive, l, math.inf, "asymptotic_practical", floor=True)
