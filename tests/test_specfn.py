"""Special-function checks against independent oracles and identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fdnoma.specfn import ln_bessel_k_int, poly_power_coeffs


def _bessel_k_integral_oracle(v: int, x: float) -> float:
    """K_v(x) = int_0^inf exp(-x cosh t) cosh(v t) dt."""
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(v * t), 0.0, 30.0, limit=400)
    return val


def _log_bessel_k_integral_oracle(v: int, x: float) -> float:
    """Same oracle with exp(-x) factored out, conditioned for large x."""
    val, _ = quad(
        lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(v * t), 0.0, 30.0, limit=400
    )
    return math.log(val) - x


def _k_recurrence_ratio(v: int, x: float) -> float:
    """(K_{v-1}(x) + 2v/x K_v(x)) / K_{v+1}(x), which the three-term
    recurrence makes 1, from log K: no K value can underflow."""
    top = ln_bessel_k_int(v + 1, x)
    return math.exp(ln_bessel_k_int(v - 1, x) - top) + 2.0 * v / x * math.exp(
        ln_bessel_k_int(v, x) - top
    )


class TestBesselK:
    def test_integral_oracle(self):
        for v in (0, 1):
            assert math.exp(ln_bessel_k_int(v, 1.0)) == pytest.approx(
                _bessel_k_integral_oracle(v, 1.0), rel=1e-10
            )

    def test_recurrence_order2(self):
        for x in (0.05, 0.7, 3.0, 25.0, 120.0):
            assert _k_recurrence_ratio(1, x) == pytest.approx(1.0, rel=1e-10)

    def test_three_term_recurrence_wide(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = int(rng.integers(1, 30))
            x = float(rng.uniform(0.01, 100.0))
            assert _k_recurrence_ratio(v, x) == pytest.approx(1.0, rel=1e-8)

    def test_negative_order_symmetry(self):
        assert ln_bessel_k_int(-3, 2.5) == ln_bessel_k_int(3, 2.5)

    def test_log_variant_matches(self):
        for v in (0, 1, 4):
            for x in (1e-6, 0.3, 5.0, 100.0):
                assert ln_bessel_k_int(v, x) == pytest.approx(
                    _log_bessel_k_integral_oracle(v, x), rel=1e-8
                )

    def test_log_variant_deep_tail(self):
        # beyond where K_v underflows, check against high-precision besselk
        mp = pytest.importorskip("mpmath")
        for v in (0, 3):
            for x in (800.0, 5e4, 1e9):
                ref = float(mp.log(mp.besselk(v, mp.mpf(x))))
                assert ln_bessel_k_int(v, x) == pytest.approx(ref, rel=1e-10)

    def test_log_variant_on_arrays(self):
        # orders down a column, arguments along a row, both branches
        v = np.array([[0.0], [3.0], [-7.0]])
        x = np.array([[1e-6, 0.3, 5.0, 800.0, 1e9]])
        got = ln_bessel_k_int(v, x)
        assert got.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert got[i, j] == ln_bessel_k_int(int(v[i, 0]), float(x[0, j]))
        with pytest.raises(ValueError):
            ln_bessel_k_int(v, np.array([[1.0, 0.0]]))

    def test_log_variant_asymptotic_branch(self):
        # continuity across the kve -> expansion switch at 1e8
        lo = ln_bessel_k_int(2, 0.999e8)
        hi = ln_bessel_k_int(2, 1.001e8)
        expected = lo - (1.001e8 - 0.999e8) - 0.5 * math.log(1.001 / 0.999)
        assert hi == pytest.approx(expected, rel=1e-9)


class TestPolyPowerCoeffs:
    def test_trivial_cases(self):
        assert poly_power_coeffs(1, 3.7, 5) == (1.0,)
        assert poly_power_coeffs(2, 2.0, 2) == (1.0, 4.0, 4.0)

    def test_symbolic_product_oracle(self):
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        base = 1 + y + y**2 / 2
        expanded = sympy.Poly(sympy.expand(base**3), y)
        expect = [float(expanded.coeff_monomial(y**n)) for n in range(7)]
        got = poly_power_coeffs(3, 1.0, 3)
        assert list(got) == pytest.approx(expect, rel=1e-15)

    def test_unit_constant_and_length(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            r = int(rng.integers(0, 8))
            lam = float(rng.uniform(0.05, 4.0))
            c = poly_power_coeffs(m, lam, r)
            assert c[0] == 1.0
            assert len(c) == r * (m - 1) + 1

    def test_semigroup_exact_for_dyadic_lambda(self):
        # dyadic lambda keeps every coefficient an exact float
        for lam in (1.0, 2.0, 0.5):
            for m, r1, r2 in ((2, 2, 3), (3, 1, 2), (4, 2, 2)):
                full = poly_power_coeffs(m, lam, r1 + r2)
                a = poly_power_coeffs(m, lam, r1)
                b = poly_power_coeffs(m, lam, r2)
                conv = np.convolve(a, b)
                assert list(conv) == pytest.approx(list(full), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            poly_power_coeffs(0, 1.0, 1)
        with pytest.raises(ValueError):
            poly_power_coeffs(2, -1.0, 1)
