"""Special-function checks against independent oracles and identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fdnoma.specfn import ln_bessel_k_int, pfd_two_pole, poly_power_coeffs


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


class TestPfdTwoPole:
    def test_single_simple_pole(self):
        form = pfd_two_pole(2.5, 1)
        assert form.poles == (2.5,) and form.multiplicities == (1,)
        assert form.kappa == ((1.0,),)

    def test_classic_split(self):
        form = pfd_two_pole(1.0, 1, 2.0, 1)
        assert form.kappa[0][0] == pytest.approx(1.0, rel=1e-14)
        assert form.kappa[1][0] == pytest.approx(-1.0, rel=1e-14)

    def test_repeated_poles_reconstruction(self):
        form = pfd_two_pole(1.0, 2, 3.0, 2)
        for s in (0.0, 0.7, 5.0):
            assert form.reconstruct(s) == pytest.approx(form.source(s), rel=1e-12)

    @staticmethod
    def _reconstruction_errors(form, points):
        """Relative reconstruction error at each point, evaluated in extended
        precision so float64 cancellation of the large PFD tails does not
        mask the accuracy of the kappa coefficients themselves."""
        mp = pytest.importorskip("mpmath")
        errs = []
        with mp.workdps(50):
            for s in points:
                s = mp.mpf(float(s))
                recon = mp.mpf(0)
                for pole, row in zip(form.poles, form.kappa):
                    for t2, kap in enumerate(row, start=1):
                        recon += mp.mpf(kap) * (s + mp.mpf(pole)) ** (-t2)
                src = mp.mpf(1)
                for pole, alpha in zip(form.poles, form.multiplicities):
                    src *= (s + mp.mpf(pole)) ** (-alpha)
                errs.append(float(abs(recon - src) / abs(src)))
        return errs

    def test_random_reconstruction_property(self):
        # each kappa is exactly rounded, but the decomposition as a whole
        # loses tail accuracy once multiplicities stack up (the coefficients
        # grow like separation^-(a1+a2) with alternating signs), so the
        # 1e-10 reconstruction contract is enforced on the multiplicity
        # range the outage mixtures instantiate; deeper stacks are covered
        # by the time-domain checks (unit PDF mass, simulator agreement)
        rng = np.random.default_rng(17)
        for _ in range(40):
            s1 = float(rng.uniform(0.05, 5.0))
            s2 = s1 * float(rng.uniform(1.2, 4.0))
            a1 = int(rng.integers(1, 3))
            a2 = int(rng.integers(0, 4))
            form = pfd_two_pole(s1, a1, s2, a2)
            pts = rng.uniform(1e-6, 10.0 * max(form.poles), size=100)
            assert max(self._reconstruction_errors(form, pts)) < 1e-10

    def test_engine_pole_layout_reconstruction(self):
        # the pole layouts the preset configurations produce: s2/s1 = (2+r)/2
        rng = np.random.default_rng(23)
        for lam in (1.0 / 16.0, 0.2, 1.0):
            for r in (1, 2, 3):
                for a1, a2 in ((1, 1), (1, 2), (2, 3), (2, 4)):
                    form = pfd_two_pole(lam, a1, (2 + r) * lam / 2.0, a2)
                    pts = rng.uniform(1e-9, 10.0 * max(form.poles), size=100)
                    errs = self._reconstruction_errors(form, pts)
                    tol = 1e-10 if a1 + a2 < 6 else 1e-8
                    assert max(errs) < tol, (lam, r, a1, a2, max(errs))

    def test_float_reconstruction_near_poles(self):
        # direct float evaluation is already exact near the pole scale
        form = pfd_two_pole(1.0, 2, 3.0, 2)
        rng = np.random.default_rng(29)
        for s in rng.uniform(0.0, 3.0, size=50):
            assert form.reconstruct(float(s)) == pytest.approx(form.source(float(s)), rel=1e-12)

    def test_degenerate_poles_rejected(self):
        with pytest.raises(ValueError):
            pfd_two_pole(1.0, 2, 1.0, 3)
        with pytest.raises(ValueError):
            pfd_two_pole(1.0, 0)
