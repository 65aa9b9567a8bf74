"""Special-function checks against independent oracles and identities."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from fdnoma import specfn
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
        # the large-x law K_v(x) ~ sqrt(pi/2x) e^-x across 1e8
        lo = ln_bessel_k_int(2, 0.999e8)
        hi = ln_bessel_k_int(2, 1.001e8)
        expected = lo - (1.001e8 - 0.999e8) - 0.5 * math.log(1.001 / 0.999)
        assert hi == pytest.approx(expected, rel=1e-9)


# arguments of the 40-digit check: a log grid over 1e-3..1e12, and one ulp
# either side of 1 (where the rules switch), of 8 (a switch of an earlier
# rule set, kept so that the oracle's data stays the same) and of 1e8
_ORACLE_X = sorted({*np.geomspace(1e-3, 1e12, 25).tolist(),
                    *(f(edge) for edge in (1.0, 8.0, 1e8)
                      for f in (lambda e: e, lambda e: math.nextafter(e, 0.0),
                                lambda e: math.nextafter(e, math.inf)))})


class TestBesselKMethod:
    """The numpy-only evaluation of log K_v: its accuracy against mpmath,
    its independence of the batch, and its domain."""

    def test_forty_digit_oracle(self):
        mp = pytest.importorskip("mpmath")
        x = np.array(_ORACLE_X)
        worst = 0.0
        with mp.workdps(40):
            for v in range(31):
                got = ln_bessel_k_int(np.full(x.shape, float(v)), x)
                for xi, gi in zip(_ORACLE_X, got):
                    ref = mp.log(mp.besselk(v, mp.mpf(xi)))
                    # relative where |log K| > 1, absolute elsewhere
                    err = abs(float(mp.mpf(gi) - ref)) / max(1.0, abs(float(ref)))
                    assert err <= 4e-15, (v, xi, float(ref), gi)
                    worst = max(worst, err)
        assert worst > 0.0  # the comparison is live

    def test_each_value_independent_of_its_batch(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([np.exp(rng.uniform(math.log(1e-4), math.log(1e10), 400)),
                            [1.0, 8.0, math.nextafter(1.0, 2.0), math.nextafter(8.0, 9.0)]])
        v = rng.integers(-9, 31, len(x)).astype(float)
        batch = ln_bessel_k_int(v, x)
        alone = np.array([ln_bessel_k_int(v[i:i + 1], x[i:i + 1])[0] for i in range(len(x))])
        assert np.array_equal(batch, alone)
        # a reordered, smaller batch with a single rule and a single order
        part = np.flatnonzero(x > 8.0)[::-1]
        assert np.array_equal(ln_bessel_k_int(v[part], x[part]), batch[part])
        assert np.array_equal(ln_bessel_k_int(7, x), ln_bessel_k_int(np.full(x.shape, 7.0), x))

    def test_scalars_and_empty_batches(self):
        assert isinstance(ln_bessel_k_int(2, 3.0), float)
        assert ln_bessel_k_int(np.array(2.0), np.array(3.0)) == ln_bessel_k_int(2, 3.0)
        assert ln_bessel_k_int(np.zeros((0, 3)), np.ones((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_non_positive_or_non_finite_argument_rejected(self, bad):
        with pytest.raises(ValueError, match="finite x > 0"):
            ln_bessel_k_int(np.array([1.0, 2.0]), np.array([0.5, bad]))

    @pytest.mark.parametrize("bad, named", [(math.inf, "inf"), (-math.inf, "inf"),
                                            (math.nan, "nan")])
    def test_non_finite_order_rejected_before_any_work(self, bad, named, monkeypatch):
        def no_rule(x):
            raise AssertionError("a rule ran")

        monkeypatch.setattr(specfn, "_k01_series", no_rule)
        monkeypatch.setattr(specfn, "_k01_gauss_rule", no_rule)
        # the order is |trunc(v)|, so -inf is named as the order inf
        message = f"^ln_bessel_k_int requires finite orders, got {named}$"
        with pytest.raises(ValueError, match=message):
            ln_bessel_k_int(bad, 2.0)
        # checked before x, whose 0 would be the error otherwise
        with pytest.raises(ValueError, match=message):
            ln_bessel_k_int(np.array([1.0, bad, 2.0]), np.array([0.5, 2.0, 0.0]))


def _stacked_series(x):
    """The x <= 1 rule as one stacked (6, 4, n) pass of Estrin's scheme,
    the form the depth-first rule replaced."""
    q = 0.25 * x * x
    p = specfn._K_SERIES_ODD * q
    p += specfn._K_SERIES_EVEN
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
    log_term += specfn._EULER_GAMMA
    k0 = s0 - log_term * i0
    return k0, (log_term * xi1 + s1) / k0


def _thirty_row_gauss(x):
    """The x > 1 rule with all 30 node rows in one (30, 2, n) array, halved
    level by level, the form the folded rule replaced."""
    quarter_u2, w = specfn._GAUSS_RULE
    t = quarter_u2 / x
    rows = np.empty((len(t), 2, len(x)))
    f = rows[:, 0]
    np.add(t, 1.0, out=f)
    np.sqrt(f, out=f)
    np.divide(w, f, out=f)
    np.multiply(f, t, out=rows[:, 1])
    while len(rows) > 1:
        half = (len(rows) + 1) // 2
        head = rows[:len(rows) - half]
        np.add(head, rows[half:], out=head)
        rows = rows[:half]
    k0, d = rows[0]
    return k0 / np.sqrt(x), 2.0 * d / k0 + 1.0


class TestBesselKRules:
    """The two K_0/K_1 rules give each value exactly the operations of
    their stacked forms, in the same order, from less scratch."""

    # the largest batches of the preset sweeps: 6,592 series values
    # (fig11) and 5,214 trapezoid values
    @pytest.mark.parametrize("rule, reference, batch", [
        (specfn._k01_series, _stacked_series, 6592),
        (specfn._k01_gauss_rule, _thirty_row_gauss, 5214),
    ], ids=["series", "trapezoid"])
    def test_bitwise_equal_to_the_stacked_form(self, rule, reference, batch):
        rng = np.random.default_rng(31)
        if rule is specfn._k01_series:
            # uniform on (0, 1], log-uniform down to 1e-300, and the switch
            edges = [1.0, math.nextafter(1.0, 0.0), 1e-300, 0.5]
            x = np.concatenate([1.0 - rng.random(50_000),
                                np.exp(rng.uniform(math.log(1e-300), 0.0, 50_000))])
        else:
            edges = [math.nextafter(1.0, 2.0), 8.0, 1e8, 1e300]
            x = np.concatenate([1.0 + 7.0 * rng.random(50_000),
                                np.exp(rng.uniform(0.0, math.log(1e300), 50_000))])
        x = np.concatenate([edges, rng.permutation(x)])
        # the first 64 values in batches of 1 and 7, then all in full batches
        parts = [x[lo:lo + size] for size in (1, 7) for lo in range(0, 64, size)]
        parts += [x[lo:lo + batch] for lo in range(0, len(x), batch)]
        for part in parts:
            for got, want in zip(rule(part), reference(part)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # x = offset + a log grid, and the traced peak allowed per value: the
    # rules measured 194 and 386 bytes, their stacked forms 274 and 786
    @pytest.mark.parametrize("offset, lo, hi, per_value", [(0.0, 1e-3, 1.0, 210),
                                                           (1.0, 1e-6, 2e4, 420)],
                             ids=["series", "trapezoid"])
    def test_scratch_per_value_is_bounded(self, offset, lo, hi, per_value):
        x = offset + np.geomspace(lo, hi, 8192)
        v = np.random.default_rng(2).integers(0, 4, len(x)).astype(float)
        tracemalloc.start()
        try:
            ln_bessel_k_int(v, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= per_value * len(x)


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
