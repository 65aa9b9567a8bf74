"""Closed-form outage engine: exact single-integral form, lower bounds,
and high-SNR asymptotics.

Every form is built from two laws: A, the sum of the two strongest
first-hop gains, and B_(l), the l-th ordered second-hop gain.  Each is
tabulated once per structure at unit rate as an exponential polynomial,
pdf = sum_r e^(-r y) sum_j c[r][j] y^j, from its order-statistic density
in exact rationals; its sf is derived exactly, and each coefficient is
rounded to float once (first_hop_mixture, a name bench/tracing.py reads,
and ordered_gain_law: the one accessor of each law).  A table's pdf_at
and sf_at take one exp per rate and a Horner pass in y; pdf and sf hold
its exact rows, and lead its CDF's first nonzero Taylor term at 0,
exact.  Every form reads the laws from these tables only: the relay
ratio W = A/(C + offset) of the lower bound, the CEE/FBD error floor,
the exact sum (A's sf, B_(l)'s pdf) and the high-SNR law (both leads).

The exact outage probability is a 12-fold nested finite sum over one
semi-infinite quadrature (the Phi integral, integrated in log form by
phi_integral_log_rows).  It and the CEE/FBD error floor share one
exp-sinh rule, converged to the fixed relative tolerance _DE_REL_TOL.
The sum is a bilinear form over a grid of Phi rows, its two factor
tables built once per structure at unit rates (_sum_table).  Terms
alternate in sign: an evaluation sums each key's entries, then the grid
by exact summation (math.fsum) after rescaling by its largest cell.

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
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, exp, fsum, lgamma, log
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FdnomaError, NumericsError
from .specfn import _poly_power_exact, ln_bessel_k_int
from .sysmodel import (
    OutagePoint,
    SystemConfig,
    _check_finite,
    _shown,
    check_user,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    snr_linear,
)

log_ = logging.getLogger(__name__)

__all__ = [
    "OutagePoint",
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
    "ordered_gain_law",
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
    """log_integrand of _de_log_integrals for a (n, 6) table of Phi rows in
    phi_integral_log_rows's order: for rows idx, the function that gives
    the log of each row's integrand (times dz/dt) at some nodes of one
    level, -inf where it lies below the row's floor.

    rows holds (z_power, pi_power, pi_shift, decay, bessel_coeff, order).
    With v = log(1 + z/pi_shift) = v_c exp(pi/2 sinh t), centred at
    z = max(1/decay, pi_shift): z + pi_shift = pi_shift e^v exactly, and
    z = pi_shift expm1(v) keeps its relative accuracy near 0.

    The rows of one group (the same pi_shift, decay and bessel_coeff) are
    one run of adjacent rows, and share the nodes v and the Bessel
    argument; the rows of one series (group and order), a run within it,
    share the Bessel values, taken once at the nodes live for any of its
    rows.  rows[idx] stays sorted, so its runs start where a row differs
    from the one before.  What depends only on the rows (the runs, their
    logs, each row's Bessel bound at z = 0) is computed once per call or
    per level, not per slice of nodes.  Each row's value comes from the
    same elementwise operations, in the same order, as for the row alone.
    """
    # K_nu falls with its argument, so its value at z = 0 bounds every node
    x_min = 2.0 * np.sqrt(rows[:, 4:5] * rows[:, 2:3])
    k_bound = ln_bessel_k_int(rows[:, 5:6], x_min)

    def on_rows(idx):
        r = rows[idx]
        # column 0: a group starts here; column 1: a series starts here
        head = np.ones((len(r), 2), dtype=bool)
        head[1:, 0] = (r[1:, 2:5] != r[:-1, 2:5]).any(axis=1)
        head[1:, 1] = head[1:, 0] | (r[1:, 5] != r[:-1, 5])
        g, sr = np.cumsum(head, axis=0).T - 1
        first, starts = np.flatnonzero(head[:, 0]), np.flatnonzero(head[:, 1])
        s, c = r[first, 2:3], r[first, 3:4]
        log_s = np.log(s)
        v_c = np.log1p(np.maximum(1.0 / c, s) / s)
        cs = c * s
        x_g = x_min[idx[first]]
        z_power, pi_power = r[:, 0:1], r[:, 1:2]
        log_s_g, log_v_c_g = log_s[g], np.log(v_c)[g]
        bound = k_bound[idx]
        sg = g[starts]
        nu = r[starts, 5:6]

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
            live_s = np.logical_or.reduceat(live, starts, axis=0)
            k = np.zeros(live_s.shape)
            if live_s.any():
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


def _de_log_integrals(n: int, log_integrand) -> tuple[np.ndarray, dict[int, tuple[int, str]]]:
    """log of n integrals on the exp-sinh nodes, all rows in one pass, and
    the rows that failed.

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
    A row that fails leaves the pass, and the others go on.

    Returns (logs, failed): logs is NaN at each failed row, and failed maps
    each failed row to (level, reason), level being the one it failed at
    (_DE_MAX_LEVEL + 1 when no two levels agreed).
    """
    out = np.full(n, np.nan)
    failed: dict[int, tuple[int, str]] = {}
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
            failed.update(dict.fromkeys(
                active[cut].tolist(), (level, "the integrand does not decay within the node span")))
            ok = done & ~cut
            out[active[ok]] = cur[ok]
            prev = cur
            if done.any():
                left = ~done
                active, prev, top, total, floor, ends = (
                    a[left] for a in (active, cur, top, total, floor, ends))
                if len(active):
                    f = log_integrand(active)
    failed.update(dict.fromkeys(active.tolist(), (
        _DE_MAX_LEVEL + 1,
        f"no two levels agreed to {_DE_REL_TOL:g} by step {_DE_STEP / 2**_DE_MAX_LEVEL:g}")))
    return out, failed


# Phi rows per pass of phi_integral_log_rows.  A pass holds its rows' values
# at one slice of _DE_SLICE nodes at a time, not every node of its rows, so
# its memory grows with its rows by ~8 KB each; taken in group order, the
# rows of a pass share Bessel values about as well as in one uncapped pass.
# On a 2-core VM, the exact sweep alone in a fresh process (~32 MB of each
# peak the interpreter and numpy): fig7's values 0.34-0.52 s at 33 MB peak
# RSS (1024 rows: 0.23-0.33 s, 35 MB), and the m=4, n_b=3, n_r=2 sweep over
# 10:40:10 dB 1.2-1.8 s at 37 MB (1024 rows: 1.1-1.2 s, 38 MB).  Values do
# not depend on it.
_PHI_ROW_CAP = 256


def phi_integral_log_rows(rows: np.ndarray) -> tuple[np.ndarray, dict[int, tuple[int, str]]]:
    """log Phi of every row of a (n, 6) table, given in any order, and the
    rows that failed.

    The rows are sorted by (pi_shift, decay, bessel_coeff, order) and run in
    passes of at most _PHI_ROW_CAP (_de_log_integrals, _phi_log_integrand),
    so that a pass holds whole groups and series where it can, and shares
    their nodes and Bessel values.  A row's value does not depend on the
    rows beside it: it equals, bitwise, the row's value alone.  When rows
    fail, the others still run.  As _de_log_integrals, it returns (logs,
    failed), failed keyed by input row over every pass.
    """
    order = np.lexsort(rows[:, 5:1:-1].T)
    out = np.empty(len(rows))
    failed: dict[int, tuple[int, str]] = {}
    for lo in range(0, len(rows), _PHI_ROW_CAP):
        batch = order[lo:lo + _PHI_ROW_CAP]
        out[batch], batch_failed = _de_log_integrals(len(batch), _phi_log_integrand(rows[batch]))
        failed.update((int(batch[i]), why) for i, why in batch_failed.items())
    return out, failed


def phi_integral_log(*, z_power: float, pi_power: float, pi_shift: float, decay: float,
                     bessel_coeff: float, order: int) -> float:
    """log of one Phi integral, a one-row phi_integral_log_rows call (-inf
    when the integrand underflows):

        integral_0^inf z^z_power * (z + pi_shift)^pi_power * exp(-decay*z)
                       * K_|order|(2*sqrt(bessel_coeff*(z + pi_shift))) dz

    The rates pi_shift, decay and bessel_coeff must be positive.
    """
    row = dict(z_power=z_power, pi_power=pi_power, pi_shift=pi_shift, decay=decay,
               bessel_coeff=bessel_coeff, order=order)
    named = " ".join(f"{k}={v!r}" for k, v in row.items())
    if not (pi_shift > 0 and decay > 0 and bessel_coeff > 0):
        raise ValueError(f"Phi rate parameters must be positive: {named}")
    (log_phi,), failed = phi_integral_log_rows(np.array([list(row.values())], dtype=float))
    if failed:
        raise NumericsError(f"phi quadrature failed for row {named}: {failed[0][1]}")
    return float(log_phi)


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
        """The law with pdf coefficient pdf[r][j] at e^(-r y) y^j; its sf sums their _tail."""
        rows = tuple((r, tuple(cs.get(j, Fraction(0)) for j in range(max(cs) + 1)))
                     for r, cs in sorted(pdf.items()))
        sf = []
        for r, row in rows:
            acc = [Fraction(0)] * len(row)
            for j, c in enumerate(row):
                acc[:j + 1] = [a + c * d for a, d in zip(acc, _tail(j, r))]
            sf.append((r, tuple(acc)))
        # 1 - sf's coefficient of y^n: sf(0) = 1, then minus the y^n
        # coefficient of each e^(-r y) y^j term, j <= n
        n, c = 0, Fraction(0)
        while not c:
            n += 1
            c = -sum(d * (-r) ** (n - j) / math.factorial(n - j)
                     for r, row in sf for j, d in enumerate(row[:n + 1]))
        return cls(rows, tuple(sf), _rounded(rows), _rounded(sf), (n, c))

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


def _tail(j: int, r: Fraction) -> list[Fraction]:
    """The coefficient of y^k, k <= j, of e^(r y) int_y^inf u^j e^(-r u) du:
    j!/(k! r^(j-k+1))."""
    return [Fraction(math.factorial(j), math.factorial(k)) / r ** (j - k + 1) for k in range(j + 1)]


def _order_powers(n: int, s: int, m: int) -> list[tuple[int, int, list[Fraction]]]:
    """F^n S^s of one Gamma(m, 1) gain, F = 1 - S expanded binomially, as
    terms (p, w, beta): w S^p = w e^(-p x) sum_i beta[i] x^i, beta exact."""
    return [(s + i, (-1) ** i * comb(n, i), _poly_power_exact(m, Fraction(1), s + i))
            for i in range(n + 1)]


@lru_cache(maxsize=64)
def first_hop_mixture(n_b: int, m: int) -> _ExpPoly:
    """A's law at unit rate: the sum of the two strongest of n_b i.i.d.
    Gamma(m, 1) gains.  It keeps the name of the MGF partial-fraction
    mixture it replaced, because bench/tracing.py reads its cache_info().

    With x the weaker of the two, f_A(a) = n_b (n_b - 1) int_0^(a/2)
    f(a - x) f(x) F(x)^(n_b-2) dx (David & Nagaraja, Order Statistics,
    2003, sec. 2.2).  The terms w beta[n] x^n e^(-r x) of F^(n_b-2) and
    C(m-1, t) a^(m-1-t) (-x)^t of (a - x)^(m-1) leave e^-a a^(m-1-t) times
    int_0^(a/2) x^j e^(-r x) dx, j = m-1+n+t: (a/2)^(j+1)/(j+1) at r = 0,
    else the _tail at 0 less the _tail at a/2, of rate 1 + r/2."""
    pdf: dict[Fraction, dict[int, Fraction]] = defaultdict(lambda: defaultdict(Fraction))
    scale = Fraction(n_b * (n_b - 1), math.factorial(m - 1) ** 2)
    for r, w, beta in _order_powers(n_b - 2, 0, m):
        for n, b in enumerate(beta):
            for t in range(m):
                c = scale * w * b * comb(m - 1, t) * (-1) ** t
                j = m - 1 + n + t
                if r == 0:
                    pdf[Fraction(1)][2 * m - 1] += c / ((j + 1) * 2 ** (j + 1))
                    continue
                tail = _tail(j, Fraction(r))
                pdf[Fraction(1)][m - 1 - t] += c * tail[0]
                for k, d in enumerate(tail):
                    pdf[Fraction(2 + r, 2)][m - 1 - t + k] -= c * d / 2**k
    return _ExpPoly.of(pdf)


# --------------------------------------------------------------------------
# Second-hop order statistics: B_l = l-th smallest of L i.i.d. Gamma(M) gains
# --------------------------------------------------------------------------

@lru_cache(maxsize=64, typed=True)  # typed, so l = True misses l = 1's entry
def ordered_gain_law(l: int, n_users: int, m_total: int) -> _ExpPoly:
    """B_(l)'s law at unit rate: f_(l) = q_l f F^(l-1) S^(L-l), q_l =
    L!/((l-1)! (L-l)!) (David & Nagaraja, sec. 2.1).  With f = y^(M-1)
    e^-y / (M-1)!, a term w S^p adds q_l w beta[k] y^(M-1+k) e^(-(1+p) y)
    / (M-1)!."""
    check_user(l, n_users)
    q_l = Fraction(math.factorial(n_users), math.factorial(n_users - l) * math.factorial(l - 1)
                   * math.factorial(m_total - 1))
    return _ExpPoly.of({Fraction(1 + p): {m_total - 1 + k: q_l * w * b for k, b in enumerate(beta)}
                        for p, w, beta in _order_powers(l - 1, n_users - l, m_total)})


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
    o = offset*rate_c; terms collected with exact summation.  Read by the
    lower bound, the mu = 1 ideal asymptote and the mu = 1 CEE/FBD floor.
    """
    rate_c = m_rr / omega_rr
    y, o = lam_sr * x / rate_c, offset * rate_c
    try:
        sf = fsum(d * comb(k, t5) * math.prod(range(m_rr, m_rr + t5)) * y**k * o ** (k - t5)
                  * exp(-rho * lam_sr * x * offset) * (rho * y + 1.0) ** (-t5 - m_rr)
                  for rho, row in first_hop_mixture(n_b, m_sr).sf_rows
                  for k, d in enumerate(row) for t5 in range(k + 1))
    except OverflowError:  # a power past the float range
        sf = math.nan
    if not math.isfinite(sf):  # or y = inf, whose terms are inf * 0.0
        raise NumericsError(f"the relay-ratio sf at x = {x:g} has a term outside the float "
                            "range")
    return sf


# --------------------------------------------------------------------------
# Exact outage (single-integral closed form)
# --------------------------------------------------------------------------

# Largest degrees of the laws' tables: m_sr n_b for A and m_ru n_r n_users
# for B_(l).  At the limits, e.g. (n_b, m_sr) = (4, 4) with
# (m_ru n_r, n_users) = (8, 3) or (3, 8), the exact sum's factor tables hold
# 1.1k-1.3k entries (~50 ms, 1.5 MB to build) and its grid 8k-15k Phi rows;
# an exact point at (8, 3) takes ~0.4 s (33 MB peak RSS, 2-core VM).  The
# sum's roundoff floor, ~1e-9 there, bounds them now; at m_sr = 1e10 A's
# table alone ran for ten minutes to 1.9 GB.
_MAX_ORDER_A = 16
_MAX_ORDER_B = 24


def _require_analytic_config(cfg: SystemConfig) -> tuple[int, int, int]:
    """Integer shapes within the table limits and homogeneous second-hop
    users (the order-statistic closed forms assume i.i.d. gains across
    users)."""
    m_sr = _require_integer_shape(cfg.m_sr, "m_sr")
    m_rr = _require_integer_shape(cfg.m_rr, "m_rr")
    m_ru0 = _require_integer_shape(cfg.m_ru[0], "m_ru")
    for name in ("m_ru", "d_ru", "sigma2_est_ru", "fd_tau_ru"):
        vals = getattr(cfg, name)
        if any(v != vals[0] for v in vals):
            raise ConfigError(
                f"the closed-form engine requires identical {name} across users, got {vals}"
            )
    for name, order, limit in (("m_sr*n_b", m_sr * cfg.n_b, _MAX_ORDER_A),
                               ("m_ru*n_r*n_users", m_ru0 * cfg.n_r * cfg.n_users, _MAX_ORDER_B)):
        if order > limit:
            raise ConfigError(f"the closed-form engine requires {name} <= {limit}, got {order}")
    return m_sr, m_rr, m_ru0


@dataclass(frozen=True)
class _SumTable:
    """The exact form's nested sum for one structure at unit rates: times
    rate_c^m_rr / Gamma(m_rr), it is sum_ab F_a G_ab Phi(rows[a, b]) S_b,
    F_a summing the first-hop entries of key a = (k2, rho, n1 - t3), S_b the
    second-hop entries of key b = (t4, p).  Entry i (key[i] = a, or
    len(log_g) + b) is sign[i] * exp(const[i] + powers[i] @ x), x the eight
    scalars of an _ExactPlan.  The Phi rows (k2, e_pi, nu, rho, p),
    rho the pole over lam_s, are the a x b grid, a-major, as is log G_ab."""

    sign: np.ndarray
    const: np.ndarray
    powers: np.ndarray
    key: np.ndarray
    log_g: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        # one cached table serves every caller
        for column in (self.sign, self.const, self.powers, self.key, self.log_g, self.rows):
            column.flags.writeable = False


@lru_cache(maxsize=64)
def _sum_table(n_b: int, m_sr: int, big_m: int, n_users: int, l: int) -> _SumTable:
    """The two factor tables of the success sum, built once per structure
    at unit rates: each rate enters only as a power of itself (A's sf
    coefficient of y^n1 scales as lam_s^n1, B_(l)'s pdf coefficient of
    y^(M-1+k1) as lam_b^k1).  A term is a first-hop entry, an exact
    coefficient of A's sf per (rho, n1) times C(n1, t3) C(t3, k2), times a
    second-hop entry, an exact coefficient of B_(l)'s pdf per (1 + p, k1)
    times C(M-1+k1, t4).  Each exponent is a first-hop part plus a
    second-hop part; only G_ab = (rho/(1 + p))^(nu/2),
    nu = t4 - (n1 - t3) + 1, and the Phi row couple the two."""
    # an entry: its key, value and parts of the exponents of 2 dd lam_s/g,
    # lam_b, 2 th1 dd, c1, th4 g^2, th2 g, exp(-2 dd th2 lam_s) and
    # exp(-2 th1 dd lam_b), nu/2 split as (1 - n1 + t3)/2 + t4/2; the
    # Bessel-closing integral adds a factor 2 to A's sf coefficient, and
    # B_(l)'s pdf term c y^j e^(-(1 + p) y) has j = M - 1 + k1
    ft = np.array([(k2, rho, n1 - t3, 2 * d * comb(n1, t3) * comb(t3, k2), n1 + (1 - n1 + t3) / 2,
                    (n1 - t3) / 2, 0, (n1 - t3) / 2, k2, t3 - k2, rho, 0)
                   for rho, row in first_hop_mixture(n_b, m_sr).sf
                   for n1, d in enumerate(row) if d
                   for t3 in range(n1 + 1) for k2 in range(t3 + 1)], dtype=float)
    sh = np.array([(t4, rate - 1, c * comb(j, t4),
                    t4 / 2, j - (t4 - 1) / 2, j - t4, (t4 + 1) / 2, 0, 0, 0, rate)
                   for rate, row in ordered_gain_law(l, n_users, big_m).pdf
                   for j, c in enumerate(row) if c for t4 in range(j + 1)], dtype=float)
    keys_a, a = np.unique(ft[:, :3], axis=0, return_inverse=True)
    keys_b, b = np.unique(sh[:, :2], axis=0, return_inverse=True)
    value = np.concatenate([ft[:, 3], sh[:, 2]])
    (k2, rho, q), (t4, p) = (c[:, None] for c in keys_a.T), keys_b.T
    nu = t4 - q + 1
    rows = np.stack(np.broadcast_arrays(k2, (q + t4 + 1) / 2, nu, rho, p), axis=-1)
    return _SumTable(np.sign(value), np.log(np.abs(value)), np.vstack([ft[:, 4:], sh[:, 3:]]),
                     np.concatenate([a.ravel(), len(keys_a) + b.ravel()]),
                     nu / 2 * (np.log(rho) - np.log(1 + p)), rows.reshape(-1, 5))


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
    g = snr_linear(snr_db)
    if lam_dag is None:
        lam_dag = compute_deltas(cfg, g).lambda_dag[l - 1]
    elif isinstance(lam_dag, bool) or not isinstance(lam_dag, Real) or not 0.0 < lam_dag < math.inf:
        raise ConfigError(f"lam_dag must be a finite real > 0, got {_shown(lam_dag)}")
    else:  # an int beyond the float range
        _check_finite("lam_dag", lam_dag)
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
    with np.errstate(over="ignore", invalid="ignore"):
        pole = lam_s * rho
        rows = np.column_stack([
            k2 + m_rr - 1, e_pi, np.full(len(k2), c0 / c1),
            2 * dd * th4 * g * pole + rate_c, 2 * dd * (1 + p) * lam_b * pole * c1 / g, nu,
        ])
        # pi_shift, decay, bessel_coeff, and the Bessel argument's square at z = 0
        rates = np.column_stack([rows[:, 2:5], rows[:, 2] * rows[:, 4]])
    if not ((rates > 0) & (rates < np.inf)).all():
        raise NumericsError(f"exact outage for user {l} at {snr_db} dB: a Phi row's pi_shift, "
                            "decay or Bessel argument is outside the float range")
    # in the order of the table's powers
    scalars = np.array([
        log(2 * dd * lam_s / g), log(lam_b), log(2 * th1 * dd), log(c1),
        log(th4 * g**2), log(th2 * g), -2 * dd * th2 * lam_s, -2 * th1 * dd * lam_b,
    ])
    return _ExactPlan(l, snr_db, table, pole, rows, scalars, m_rr * log(rate_c) - lgamma(m_rr))


def _exact_finish(plan: _ExactPlan, log_phi: np.ndarray) -> OutagePoint:
    table = plan.table
    na, nb = table.log_g.shape
    # each key's signed sum as sums[k] * exp(top[k]), top its largest entry
    logs = table.const + table.powers @ plan.scalars
    live = logs > -np.inf
    key, logs = table.key[live], logs[live]
    top = np.full(na + nb, -np.inf)
    np.maximum.at(top, key, logs)
    sums = np.bincount(key, table.sign[live] * np.exp(logs - top[key]), minlength=na + nb)
    grid = top[:na, None] + table.log_g + log_phi.reshape(na, nb) + top[na:]
    if not (grid > -np.inf).any():
        # every success term underflowed: the form cannot resolve this
        # point, which is not evidence of certain outage
        raise NumericsError(f"exact outage for user {plan.l} at {plan.snr_db} dB: "
                            "every Phi term underflowed")
    shift = grid.max()
    terms = np.outer(sums[:na], sums[na:]) * np.exp(grid - shift)
    success = exp(shift + plan.log_cc) * fsum(terms.ravel())
    return _clamped_point(1.0 - success, plan.l, plan.snr_db, "exact")


def exact_outage_sweep(
    entries: Sequence[tuple[SystemConfig, float, int, float | None]],
) -> list[OutagePoint | FdnomaError]:
    """Exact outage of every (cfg, snr_db, l, lam_dag) entry.

    lam_dag is the SNR-normalized threshold Lambda+; None takes user l's
    SIC threshold at snr_db.  The Phi rows of all entries run in one
    phi_integral_log_rows call.  A row's value does not depend on the rows
    beside it, so each entry's value equals, bitwise, a one-entry call.

    Returns one result per entry: its OutagePoint, or the FdnomaError its
    evaluation raised.  A Phi row that fails fails only its own entry.
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
    log_phi, failed = phi_integral_log_rows(rows)
    errors: dict[int, FdnomaError] = {}  # live entry -> its error
    # an entry's first failed row by (level, row) is the one a call of its own stops at
    for _, i, reason in sorted((level, i, reason) for i, (level, reason) in failed.items()):
        j = int(np.searchsorted(ends, i, side="right"))
        errors.setdefault(j, NumericsError(
            f"phi quadrature failed for term {live[j].label(i - starts[j])}: {reason}"))

    done: list[OutagePoint | FdnomaError] = []
    for j, plan in enumerate(live):
        try:
            done.append(errors.get(j) or _exact_finish(plan, log_phi[starts[j]:ends[j]]))
        except FdnomaError as exc:
            done.append(exc)
    results = iter(done)
    return [plan if isinstance(plan, FdnomaError) else next(results) for plan in plans]


def exact_outage(
    cfg: SystemConfig,
    snr_db: float,
    l: int,
    lam_dag: float | None = None,
) -> OutagePoint:
    """Exact outage probability of user l from the nested-sum closed form:
    a one-entry exact_outage_sweep, raising the entry's error.

    lam_dag is the SNR-normalized threshold Lambda+; None takes user l's
    SIC threshold.  The joint SIC event reduces to one threshold per user;
    supplying it directly also covers the single-user-per-resource
    baseline, whose product-mapped threshold replaces the SIC maximum.
    """
    (res,) = exact_outage_sweep([(cfg, snr_db, l, lam_dag)])
    if isinstance(res, FdnomaError):
        raise res
    return res


# bench/make_reference.py reads this name for an explicit threshold
exact_outage_for_lambda = exact_outage


def _clamped_point(raw: float, l: int, snr_db: float, method: str) -> OutagePoint:
    """raw clamped to the unit interval; an overshoot beyond _CLAMP_TOL or a
    NaN (a form whose terms left the float range) raises."""
    if math.isnan(raw):
        raise NumericsError(f"{method} outage for user {l} at {snr_db} dB is NaN")
    residual = raw - 1.0 if raw > 1.0 else min(0.0, raw)
    if abs(residual) > _CLAMP_TOL:
        raise NumericsError(f"{method} outage for user {l} at {snr_db} dB is {raw}, "
                            f"{'below' if residual < 0 else 'above'} the roundoff budget")
    if residual:
        log_.debug("%s outage clamped to [0, 1] (residual %.3e)", method, residual)
    return OutagePoint(user=l, snr_db=snr_db, value=min(max(raw, 0.0), 1.0), method=method,
                       residual=residual)


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
    snr_bar = snr_linear(snr_db)
    stats = derive_link_stats(cfg, snr_bar)
    theta = compute_theta(stats, snr_bar, l)
    dd = compute_deltas(cfg, snr_bar).delta_dag[l - 1]
    lam_s = m_sr / stats.omega_hat_sr
    lam_b = m_ru / stats.omega_hat_ru[l - 1]
    sf_w = sf_relay_ratio(
        2 * dd * snr_bar * theta.theta4, n_b=cfg.n_b, m_sr=m_sr, lam_sr=lam_s, m_rr=m_rr,
        omega_rr=stats.omega_rr, offset=0.0 if cfg.ideal else theta.thetap4 / snr_bar,
    )
    sf_b = float(ordered_gain_law(l, cfg.n_users, m_ru * cfg.n_r).sf_at(2 * dd * theta.theta1, lam_b))
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
    order_b, c_b = ordered_gain_law(l, cfg.n_users, m_ru * cfg.n_r).lead
    try:
        f_a = float(c_a) * (2.0 * lam_dag * m_sr / stats.omega_sr) ** k
        terms = [(f_a * comb(k, j) * math.prod(range(m_rr, m_rr + j)) * (stats.omega_rr / m_rr) ** j,
                  k - cfg.mu * j) for j in range(k + 1)]
        terms.append((float(c_b) * (2.0 * lam_dag * m_ru / stats.omega_ru[l - 1]) ** order_b,
                      order_b))
    except OverflowError:  # a power past the float range
        terms = [(math.inf, 0.0)]
    if not all(0.0 < c < math.inf for c, _ in terms):
        raise NumericsError(f"user {l}'s high-SNR law has a constant outside the float range")
    return terms


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
    snr_bar = snr_linear(snr_db)
    if cfg.mu == 1.0:
        m_sr, m_rr, _ = _require_analytic_config(cfg)
        lam_dag = compute_deltas(cfg, snr_bar).lambda_dag[l - 1]
        stats = derive_link_stats(cfg, snr_bar)
        sf_w = sf_relay_ratio(2.0 * lam_dag, n_b=cfg.n_b, m_sr=m_sr, m_rr=m_rr, offset=0.0,
                              lam_sr=m_sr / stats.omega_hat_sr, omega_rr=stats.omega_rr)
        return _clamped_point(1.0 - sf_w, l, snr_db, "asymptotic_ideal")
    try:
        val = sum(c * snr_bar**-e for c, e in _ideal_high_snr_terms(cfg, l))
    except OverflowError:
        raise NumericsError(f"user {l}'s high-SNR law at {snr_db} dB overflows") from None
    return OutagePoint(user=l, snr_db=snr_db, value=min(val, 1.0), method="asymptotic_ideal")


def asymptotic_outage_practical(cfg: SystemConfig, l: int) -> OutagePoint:
    """Error floor under CEE/FBD: the gbar -> infinity limit of the exact form.

    With the high-SNR theta replacements the outage event collapses to an
    SNR-free comparison: at SI gain C the first hop survives when A exceeds
    a + b*C, a and b functions of the ordered gain.  One exp-sinh rule over
    that gain remains, as for Phi converged to _DE_REL_TOL.  For mu < 1 the
    SI gain concentrates at zero and the first-hop factor is sf_A(a); for
    mu = 1 it is the SI average E_C[sf_A(a + b*C)] = P(A/(C + a/b) > b),
    sf_relay_ratio in closed form.
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
    law_a = first_hop_mixture(cfg.n_b, m_sr)
    law_b = ordered_gain_law(l, cfg.n_users, big_m)

    u_c = max(big_m / lam_b, tau_b)

    def log_integrand(sinh_t, log_cosh_t, floor):
        """log of the first-hop factor times f_B(u + tau_b), in
        u = u_c exp(pi/2 sinh t)."""
        u = u_c * np.exp(sinh_t)
        y = u + tau_b
        a = 2.0 * lam_dag * (th2_t * y + th5_t) / u
        sf = law_a.sf_at(a, lam_s)
        if cfg.mu == 1.0:
            # sf_A falls with its argument and C >= 0, so sf_A(a) bounds the
            # SI average: a node where it is zero stays zero
            b = 2.0 * lam_dag * (th3_t + th4 * y) / u
            for j in np.flatnonzero(sf > 0):
                sf[j] = sf_relay_ratio(float(b[j]), n_b=cfg.n_b, m_sr=m_sr, lam_sr=lam_s,
                                       m_rr=m_rr, omega_rr=stats.omega_rr,
                                       offset=float(a[j] / b[j]))
        # both factors are nonnegative: one that rounds to <= 0 is zero
        return (_log_positive(sf) + _log_positive(law_b.pdf_at(y, lam_b))
                + log(u_c) + sinh_t + log_cosh_t)[None]

    (log_survive,), failed = _de_log_integrals(1, lambda idx: log_integrand)
    if failed:
        raise NumericsError(f"floor quadrature failed: {failed[0][1]}")
    return _clamped_point(1.0 - exp(log_survive), l, math.inf, "asymptotic_practical")
