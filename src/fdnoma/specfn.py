"""Special functions and combinatorial kernels used by the closed-form engine.

Everything here is pure and stateless.  The log-Bessel evaluation
delegates to scipy.special's scaled kve, which meets the accuracy targets
with large margin; the engine calls math.lgamma and the scipy.special
incomplete gamma functions directly.  The polynomial-power coefficients
and the partial fraction decomposition are implemented locally because
they are the load-bearing combinatorial pieces of the outage formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import NumericsError

__all__ = [
    "ln_bessel_k_int",
    "poly_power_coeffs",
    "PfdForm",
    "pfd_two_pole",
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


@dataclass(frozen=True)
class PfdForm:
    """Partial fraction decomposition of prod_t (s + s_t)^(-alpha_t).

    kappa[t1][t2-1] is the coefficient of (s + poles[t1])^(-t2), matching
        prod_t (s + s_t)^(-alpha_t)
            = sum_{t1} sum_{t2=1}^{mult[t1]} kappa[t1][t2-1] (s + s_t1)^(-t2).
    """

    poles: tuple[float, ...]
    multiplicities: tuple[int, ...]
    kappa: tuple[tuple[float, ...], ...]

    def reconstruct(self, s: float) -> float:
        """Evaluate the decomposition at a point (used for self-checks)."""
        total = 0.0
        for pole, row in zip(self.poles, self.kappa):
            for t2, coeff in enumerate(row, start=1):
                total += coeff * (s + pole) ** (-t2)
        return total

    def source(self, s: float) -> float:
        """Evaluate the original product of inverse-power factors."""
        total = 1.0
        for pole, alpha in zip(self.poles, self.multiplicities):
            total *= (s + pole) ** (-alpha)
        return total


def _residue_row(pole: float, mult: int, other_pole: float, other_mult: int) -> tuple[float, ...]:
    # kappa_{., t2} = d^{j}/ds^{j} (s+other)^{-other_mult} / j! at s = -pole,
    # j = mult - t2.  Exact rational arithmetic with one final rounding, so
    # each coefficient is correct to 0.5 ulp; the decomposition as a whole
    # is still limited by float64 once multiplicities grow (see PfdForm).
    row = []
    diff = Fraction(other_pole) - Fraction(pole)
    for t2 in range(1, mult + 1):
        j = mult - t2
        val = (-1) ** j * math.comb(other_mult + j - 1, j) / diff ** (other_mult + j)
        row.append(float(val))
    return tuple(row)


def pfd_two_pole(s1: float, a1: int, s2: float = 0.0, a2: int = 0) -> PfdForm:
    """PFD of (s+s1)^(-a1) (s+s2)^(-a2) via the repeated-pole residue formula.

    a2 == 0 degenerates to the single pure power (s+s1)^(-a1), whose only
    nonzero coefficient is kappa_{1,a1} = 1.
    """
    a1, a2 = int(a1), int(a2)
    if a1 < 1:
        raise ValueError(f"pfd_two_pole requires a1 >= 1, got {a1}")
    if not s1 > 0:
        raise ValueError(f"pfd_two_pole requires s1 > 0, got {s1}")
    if a2 == 0:
        row = [0.0] * a1
        row[a1 - 1] = 1.0
        return PfdForm(poles=(s1,), multiplicities=(a1,), kappa=(tuple(row),))
    if not s2 > 0:
        raise ValueError(f"pfd_two_pole requires s2 > 0 when a2 > 0, got {s2}")
    if s1 == s2:
        raise ValueError("pfd_two_pole: coincident poles with two factors are degenerate")
    return PfdForm(
        poles=(s1, s2),
        multiplicities=(a1, a2),
        kappa=(_residue_row(s1, a1, s2, a2), _residue_row(s2, a2, s1, a1)),
    )
