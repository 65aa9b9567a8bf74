"""Special functions and combinatorial kernels used by the closed-form engine.

Everything here is pure and stateless.  The log-Bessel evaluation
delegates to scipy.special's scaled kve, which meets the accuracy targets
with large margin.  The coefficients of a power of the truncated
exponential polynomial are built in exact rational arithmetic: the engine's
law tables read them exact (_poly_power_exact), its exact sum's second hop
rounded (poly_power_coeffs).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import NumericsError

__all__ = [
    "ln_bessel_k_int",
    "poly_power_coeffs",
]


def ln_bessel_k_int(v, x):
    """log K_v(x) computed without underflow via the scaled Bessel kve.

    v (integer valued) and x may be arrays, broadcast together; a scalar
    pair gives a float.  Beyond kve's argument range the two-term large-x
    expansion sqrt(pi/(2x)) e^{-x} (1 + (4v^2-1)/(8x)) is exact to double
    precision.
    """
    scalar = np.ndim(v) == 0 and np.ndim(x) == 0
    v, x = np.broadcast_arrays(np.abs(np.trunc(np.atleast_1d(v))),
                               np.atleast_1d(np.asarray(x, dtype=float)))
    if not np.all(x > 0):
        raise ValueError(f"ln_bessel_k_int requires x > 0, got {x[~(x > 0)][0]}")
    big = x > 1e8
    scaled = _sp.kve(v, np.where(big, 1.0, x))
    if not np.all(scaled > 0):
        i = np.argmin(scaled > 0)
        raise NumericsError(f"kve({v.flat[i]:g}, {x.flat[i]}) returned {scaled.flat[i]}")
    out = np.log(scaled) - x
    if big.any():
        xb, vb = x[big], v[big]
        out[big] = 0.5 * (math.log(math.pi / 2.0) - np.log(xb)) - xb + np.log1p(
            (4.0 * vb * vb - 1.0) / (8.0 * xb)
        )
    return float(out[0]) if scalar else out


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
    """
    if m < 1 or r < 0:
        raise ValueError(f"poly_power_coeffs requires m >= 1 and r >= 0, got m={m}, r={r}")
    if not lam > 0:
        raise ValueError(f"poly_power_coeffs requires lam > 0, got {lam}")
    exact = _poly_power_exact(int(m), Fraction(lam), int(r))
    return tuple(float(c) for c in exact)
