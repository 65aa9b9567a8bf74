"""Special functions and combinatorial kernels used by the closed-form engine.

Everything here is pure and stateless, and needs only numpy.

ln_bessel_k_int takes log K_v(x) for integer orders.  It computes K_0(x)
and K_1(x)/K_0(x) by one of two rules, chosen by x:

* x <= 1: the power series of K_0 and K_1 (DLMF 10.31.2, and 10.31.1
  with n = 1) in q = x^2/4, 12 terms, in one stacked pass of Estrin's
  scheme.  Below x = 1.12, -(ln(x/2) + gamma) > 0, so K_0's two parts
  add.
* x > 1: e^x K_v(x) = int_0^inf e^(-x (cosh t - 1)) cosh(vt) dt
  (DLMF 10.32.9) with u = 2 sqrt(x) sinh(t/2), whose integrand
  e^(-u^2/2) (1 + u^2/2x)^(0 or 1) / sqrt(1 + u^2/4x) has its branch
  points at +-2i sqrt(x), by the trapezoid rule, step 0.3, 30 nodes.

The trapezoid rule converges exponentially on this analytic integrand
(Trefethen & Weideman, SIAM Review 56, 2014).  Higher orders follow from
the upward recurrence of the ratio K_(n+1)/K_n = K_(n-1)/K_n + 2n/x, which
is stable for K.  The ratios are scaled by min(x, 1), so that their
running product overflows only where e^x K_v(x) itself does.  Against
40-digit mpmath, log K is within 1.8e-15 relative for v 0-30 and x 1e-3
to 1e12.

Every sum runs in a fixed order of its own terms: Estrin's scheme, a
running product, and halving sums of node rows.  There is no BLAS
product and no axis reduction that numpy may reorder, so each value is
bitwise the same in any batch.

The coefficients of a power of the truncated exponential polynomial are
built in exact rational arithmetic (_poly_power_exact), and the engine's
law tables read them exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "ln_bessel_k_int",
    "poly_power_coeffs",
]

_EULER_GAMMA = 0.57721566490153286061


def _k_series_table(terms: int) -> np.ndarray:
    """(terms, 4, 1) coefficients of q^k, q = x^2/4, of the four series
    I_0(x), sum H_k q^k / k!^2, x I_1(x) and 1 - sum (H_k + H_(k+1))
    q^(k+1) / (k! (k+1)!), where H_k is the k-th harmonic number.  With
    L = ln(x/2) + gamma they give K_0 = (2nd) - L (1st) and
    x K_1 = L (3rd) + (4th)."""
    harmonic = [Fraction(0)]
    for k in range(1, terms + 1):
        harmonic.append(harmonic[-1] + Fraction(1, k))
    rows = np.zeros((terms, 4))
    rows[0, 3] = 1.0
    for k in range(terms):
        a = Fraction(1, math.factorial(k) ** 2)
        rows[k, :2] = a, harmonic[k] * a
        if k + 1 < terms:
            b = Fraction(1, math.factorial(k) * math.factorial(k + 1))
            rows[k + 1, 2:] = 2 * b, -(harmonic[k] + harmonic[k + 1]) * b
    return rows[:, :, None]


def _half_line_trapezoid(step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes 0, step, ..., (count - 1) step and the weights of the
    trapezoid rule on [0, inf), as (count, 1) columns."""
    nodes = step * np.arange(count)[:, None]
    weights = np.full_like(nodes, step)
    weights[0] *= 0.5
    return nodes, weights


# the series coefficients of the even and of the odd powers of q, 0 to 11
_K_SERIES_EVEN, _K_SERIES_ODD = (_k_series_table(12)[k::2].copy() for k in (0, 1))
_u, _w = _half_line_trapezoid(0.3, 30)
# u^2/4 and the weights times e^(-u^2/2) of the x > 1 rule
_GAUSS_RULE = 0.25 * _u * _u, _w * np.exp(-0.5 * _u * _u)
del _u, _w
# x <= 0 | series | Gauss rule | inf or NaN
_RULE_EDGES = np.array([0.0, 1.0, np.finfo(float).max])


def _halving_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis of rows (overwritten) by adding its second
    half onto its first, elementwise, until one row is left."""
    while len(rows) > 1:
        half = (len(rows) + 1) // 2
        head = rows[:len(rows) - half]
        np.add(head, rows[half:], out=head)
        rows = rows[:half]
    return rows[0]


def _k01_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K_0(x), x K_1(x) / K_0(x)) for 0 < x <= 1."""
    q = 0.25 * x * x
    # Estrin's scheme: pairs in q, pairs of pairs in q^2, then Horner in
    # q^4 over the three left, each step in place
    p = _K_SERIES_ODD * q
    p += _K_SERIES_EVEN
    q *= q
    pp = p[1::2]
    pp *= q
    pp += p[0::2]
    q *= q
    acc = pp[2]
    acc *= q
    acc += pp[1]
    acc *= q
    acc += pp[0]
    i0, s0, xi1, s1 = acc
    log_term = np.log(0.5 * x)
    log_term += _EULER_GAMMA
    k0 = s0 - log_term * i0
    return k0, (log_term * xi1 + s1) / k0


def _k01_gauss_rule(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x K_0(x), K_1(x) / K_0(x)) for x > 1."""
    quarter_u2, w = _GAUSS_RULE
    t = quarter_u2 / x
    terms = np.empty((len(t), 2, len(x)))
    f = terms[:, 0]
    np.add(t, 1.0, out=f)
    np.sqrt(f, out=f)
    np.divide(w, f, out=f)
    np.multiply(f, t, out=terms[:, 1])
    k0, d = _halving_sum(terms)
    return k0 / np.sqrt(x), 2.0 * d / k0 + 1.0


def ln_bessel_k_int(v, x):
    """log K_v(x) for integer-valued orders v and finite x > 0.

    v and x may be arrays, broadcast together; a scalar pair gives a float.
    The order is |trunc(v)|.  See the module docstring for the method.
    """
    x = np.asarray(x, dtype=float)
    v = np.abs(np.trunc(v))
    scalar = x.ndim == 0 and v.ndim == 0
    if v.shape != x.shape:
        v, x = np.broadcast_arrays(v, x)
    shape = x.shape
    if not x.size:
        return np.empty(shape)
    v, x = v.ravel(), x.ravel()
    rule = np.searchsorted(_RULE_EDGES, x)
    counts = np.bincount(rule, minlength=len(_RULE_EDGES) + 1).tolist()
    if counts[0] or counts[-1]:
        bad = x[~((x > 0) & (x < np.inf))][0]
        raise ValueError(f"ln_bessel_k_int requires finite x > 0, got {bad}")
    n_series = counts[1]
    order = None
    if 0 < n_series < len(x):
        # group the arguments by rule: x <= 1 first
        order = np.argsort(rule, kind="stable")
        x, v = x[order], v[order]
        a, s = (np.concatenate(p) for p in zip(_k01_series(x[:n_series]),
                                                 _k01_gauss_rule(x[n_series:])))
    else:
        a, s = (_k01_series if n_series else _k01_gauss_rule)(x)
    top = int(v.max())
    if top:
        # t[n] = c K_n / K_(n-1) with c = min(x, 1), so that
        # t[n + 1] = c^2 / t[n] + 2nc / x; the running product from
        # t[0] = a then holds c^n K_n, times e^x beyond x = 1
        t = np.empty((top + 1, len(x)))
        t[0], t[1] = a, s
        if top > 1:
            c = np.minimum(x, 1.0)
            step = 2.0 * c / x
            c *= c
            for n in range(2, top + 1):
                np.divide(c, t[n - 1], out=t[n])
                t[n] += (n - 1) * step
        for n in range(1, top + 1):
            t[n] *= t[n - 1]
        a = t[v.astype(np.intp), np.arange(len(x))]
    out = np.log(a)
    if n_series and top:
        out[:n_series] -= v[:n_series] * np.log(x[:n_series])
    if n_series < len(x):
        out[n_series:] -= x[n_series:]
    if order is not None:
        out[order] = out.copy()
    return float(out[0]) if scalar else out.reshape(shape)


def _poly_power_exact(m: int, lam: Fraction, r: int) -> list[Fraction]:
    base = [lam**k / math.factorial(k) for k in range(m)]
    out = [Fraction(1)]
    for _ in range(r):
        new = [Fraction(0)] * (len(out) + m - 1)
        for i, a in enumerate(out):
            if a == 0:
                continue
            for j, b in enumerate(base):
                new[i + j] += a * b
        out = new
    return out


@lru_cache(maxsize=4096)
def poly_power_coeffs(m: int, lam: float, r: int) -> tuple[float, ...]:
    """Coefficients c of the truncated-exponential polynomial power

        (sum_{k=0}^{m-1} (lam*y)^k / k!) ** r  =  sum_n c[n] * y^n,

    so c[0] == 1 and len(c) == r*(m-1) + 1.

    Computed by iterated exact convolution (Fraction arithmetic), so the
    semigroup identity conv(r1+r2) == conv(r1) * conv(r2) holds exactly
    before the final float rounding.

    No engine calls it: the law tables read _poly_power_exact.  It stays
    because the tests use it and bench/tracing.py reads its cache_info().
    """
    if m < 1 or r < 0:
        raise ValueError(f"poly_power_coeffs requires m >= 1 and r >= 0, got m={m}, r={r}")
    if not lam > 0:
        raise ValueError(f"poly_power_coeffs requires lam > 0, got {lam}")
    exact = _poly_power_exact(int(m), Fraction(lam), int(r))
    return tuple(float(c) for c in exact)
