"""Special functions and combinatorial kernels used by the closed-form engine.

Everything here is pure and stateless, and needs only numpy.

ln_bessel_k_int takes log K_v(x) for integer orders.  It computes K_0(x)
and K_1(x)/K_0(x) by one of two rules, chosen by x:

* x <= 1: the power series of K_0 and K_1 (DLMF 10.31.2, and 10.31.1
  with n = 1) in q = x^2/4, 12 terms, by Estrin's scheme taken depth
  first.  Below x = 1.12, -(ln(x/2) + gamma) > 0, so K_0's two parts
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
    q2 = q * q
    q4 = q2 * q2
    # Estrin's scheme, depth first: for j = 2, 1, 0 the pair
    # p_(2j), p_(2j+1) (p_k = odd_k q + even_k) becomes the pair of pairs
    # pp_j = p_(2j+1) q^2 + p_(2j), which is folded into the Horner sum in
    # q^4 as it is made, so three (4, n) blocks are live, not all six p_k;
    # pp_2 is made in the sum's own block
    rows = np.empty((3, 4, len(x)))
    acc = rows[2]
    for j in (2, 1, 0):
        pair = rows[1:] if j == 2 else rows[:2]
        np.multiply(_K_SERIES_ODD[2 * j:2 * j + 2], q, out=pair)
        pair += _K_SERIES_EVEN[2 * j:2 * j + 2]
        pp = pair[1]
        pp *= q2
        pp += pair[0]
        if j < 2:
            acc *= q4
            acc += pp
    i0, s0, xi1, s1 = acc
    log_term = np.log(0.5 * x)
    log_term += _EULER_GAMMA
    k0 = s0 - log_term * i0
    return k0, (log_term * xi1 + s1) / k0


def _gauss_terms(lo: int, hi: int, x: np.ndarray, out: np.ndarray) -> None:
    """Fill out[0] with w / sqrt(1 + t) and out[1] with that times t,
    t = u^2/4x, one row per node lo to hi - 1 of the x > 1 rule."""
    quarter_u2, w = _GAUSS_RULE
    f, t = out
    np.divide(quarter_u2[lo:hi], x, out=t)
    np.add(t, 1.0, out=f)
    np.sqrt(f, out=f)
    np.divide(w[lo:hi], f, out=f)
    t *= f  # t f and f t are the same product


def _k01_gauss_rule(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x K_0(x), K_1(x) / K_0(x)) for x > 1."""
    # the halving sum of the 30 node rows, whose first level adds row
    # i + 15 onto row i: the upper rows are made 5 at a time (the first 5
    # with the lower 15) and added onto their partners as they are made.
    # Each of the two terms is a contiguous block of rows, on which numpy
    # runs faster than on interleaved ones
    rows = np.empty((2, 20, len(x)))
    lower, block = rows[:, :15], rows[:, 15:]
    _gauss_terms(0, 20, x, rows)
    for lo in range(0, 15, 5):
        if lo:
            _gauss_terms(15 + lo, 20 + lo, x, block)
        head = lower[:, lo:lo + 5]
        head += block
    k0, d = _halving_sum(lower.swapaxes(0, 1))
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
    top = v.max()  # NaN when any order is
    if not top < np.inf:
        raise ValueError(f"ln_bessel_k_int requires finite orders, got {v[~np.isfinite(v)][0]}")
    valid = (x > 0) & (x < np.inf)
    if not valid.all():
        raise ValueError(f"ln_bessel_k_int requires finite x > 0, got {x[~valid][0]}")
    # each rule fills its own entries (an index array scatters faster than a mask)
    split = x > 1.0
    series, gauss = np.flatnonzero(~split), np.flatnonzero(split)
    a, s = np.empty_like(x), np.empty_like(x)
    for sel, rule in ((series, _k01_series), (gauss, _k01_gauss_rule)):
        if len(sel):
            a[sel], s[sel] = rule(x[sel])
    top = int(top)
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
    if top:
        out[series] -= v[series] * np.log(x[series])
    out[gauss] -= x[gauss]
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
