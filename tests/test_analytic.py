"""Closed-form engine checks: quadrature kernel oracles, distribution
building blocks, exact/lower-bound/asymptotic outage behavior, and the
printed-variant arbitration against the simulator."""

import functools
import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb, exp, fsum, lgamma, log
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import kv

from fdnoma import analytic
from fdnoma.analytic import (
    asymptotic_outage_ideal,
    asymptotic_outage_practical,
    array_gain,
    diversity_order,
    exact_outage,
    exact_outage_for_lambda,
    exact_outage_sweep,
    first_hop_mixture,
    lower_bound_outage,
    ordered_gain_law,
    phi_integral_log,
    sf_relay_ratio,
)
from fdnoma.errors import ConfigError, NumericsError
from fdnoma.mcsim import simulate_outage
from fdnoma.presets import figure_preset
from fdnoma.specfn import ln_bessel_k_int, poly_power_coeffs
from fdnoma.sysmodel import (
    SystemConfig,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    map_baseline_thresholds,
)

BASE = SystemConfig()
PRACTICAL = replace(
    BASE, sigma2_est_sr=0.01, sigma2_est_ru=(0.01,) * 3, fd_tau_sr=0.03, fd_tau_ru=(0.03,) * 3
)


def _nested_sum_raw(cfg, snr_db, l, printed):
    """1 - success sum of the exact form, transcribed term by term (integer
    shapes, identical users).  printed=True follows the typeset formula: the
    PFD rate s_t1 multiplies only the theta4 part of the Bessel argument,
    and the theta2/theta4 split exponent uses t3 and t2 in place of k2."""
    g = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, g)
    th = compute_theta(stats, g, l)
    dd = compute_deltas(cfg, g).delta_dag[l - 1]
    m_sr, m_rr, m_ru = int(cfg.m_sr), int(cfg.m_rr), int(cfg.m_ru[0])
    L, big_m = cfg.n_users, m_ru * cfg.n_r
    lam_b = m_ru / stats.omega_hat_ru[l - 1]
    rate_c = m_rr / stats.omega_rr
    c1 = th.theta3 * g + 2 * th.theta1 * th.theta4 * g**2 * dd
    c0 = 2 * th.theta1 * th.theta2 * g * dd + th.theta5
    q_l = math.factorial(L) / (math.factorial(L - l) * math.factorial(l - 1))
    # (sign, log-magnitude, p, t4) of the second-hop factor
    second_hop = []
    for k in range(L - l + 1):
        for p in range(l + k):
            beta = poly_power_coeffs(big_m, lam_b, p)
            for k1 in range(p * (big_m - 1) + 1):
                for t4 in range(big_m + k1):
                    second_hop.append((
                        (-1.0) ** (k + p),
                        log(q_l * comb(L - l, k) * comb(l + k - 1, p) * beta[k1]
                            * comb(big_m + k1 - 1, t4))
                        - lgamma(big_m) + big_m * log(lam_b) - 2 * th.theta1 * dd * (1 + p) * lam_b
                        + m_rr * log(rate_c) - lgamma(m_rr)
                        + (big_m + k1 - t4 - 1) * log(2 * th.theta1 * dd),
                        p,
                        t4,
                    ))
    terms = []
    lam_s = m_sr / stats.omega_hat_sr
    for rho, row in first_hop_mixture(cfg.n_b, m_sr).pdf:
        # A's pdf term c y^(t2-1) e^(-rho y) is the kernel c (t2-1)! (s + rho)^-t2
        # of its MGF; at rate lam_s, (c (t2-1)! lam_s^t2) (s + lam_s rho)^-t2
        pole = lam_s * float(rho)
        for t2, c in enumerate(row, start=1):
            kap = float(c * math.factorial(t2 - 1)) * lam_s**t2
            for n1 in range(t2 if kap else 0):
                log_n1 = (log(abs(2 * kap)) + n1 * log(2 * dd / g) - lgamma(n1 + 1)
                          + (n1 - t2) * log(pole) - 2 * dd * pole * th.theta2)
                for sign_kp, log_sh, p, t4 in second_hop:
                    for t3 in range(n1 + 1):
                        nu = t3 + t4 - n1 + 1
                        e_pi = (n1 - t3 + t4 + 1) / 2.0
                        log_t3 = (log(comb(n1, t3)) + e_pi * log(c1)
                                  + nu / 2.0 * log(2 * dd * pole / (g * (1 + p) * lam_b)))
                        if printed:
                            c1_b = th.theta3 * g + 2 * th.theta1 * th.theta4 * g**2 * dd * pole
                        else:
                            c1_b = pole * c1
                        for k2 in range(t3 + 1):
                            if printed:
                                log_k2 = (t3 * log(th.theta4 * g**2)
                                          + (t3 - t2) * log(th.theta2 / (th.theta4 * g)))
                            else:
                                log_k2 = (k2 * log(th.theta4 * g**2)
                                          + (t3 - k2) * log(th.theta2 * g))
                            log_phi = phi_integral_log(
                                z_power=k2 + m_rr - 1, pi_power=e_pi, pi_shift=c0 / c1,
                                decay=2 * dd * th.theta4 * g * pole + rate_c,
                                bessel_coeff=2 * dd * (1 + p) * lam_b * c1_b / g, order=nu,
                            )
                            sign = math.copysign(1.0, kap) * sign_kp
                            terms.append(sign * exp(
                                log_n1 + log_sh + log_t3 + log(comb(t3, k2)) + log_k2 + log_phi
                            ))
    return 1.0 - fsum(terms)


def _lower_bound_raw(cfg, snr_db, l, printed):
    """1 - sf_W(2 delta+ gbar theta4) sf_B(2 delta+ theta1) for an impaired
    config.  printed=True takes the typeset theta4' = gbar^2 sigma2_sr/2 + 1
    in place of gbar sigma2_sr/2 + 1."""
    g = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, g)
    th = compute_theta(stats, g, l)
    dd = compute_deltas(cfg, g).delta_dag[l - 1]
    m_sr, m_ru = int(cfg.m_sr), int(cfg.m_ru[0])
    theta4p = g**2 / 2 * stats.sigma2_sr + 1.0 if printed else th.thetap4
    sf_w = sf_relay_ratio(
        2 * dd * g * th.theta4, n_b=cfg.n_b, m_sr=m_sr, lam_sr=m_sr / stats.omega_hat_sr,
        m_rr=int(cfg.m_rr), omega_rr=stats.omega_rr, offset=theta4p / g,
    )
    sf_b = float(ordered_gain_law(l, cfg.n_users, m_ru * cfg.n_r).sf_at(
        2 * dd * th.theta1, m_ru / stats.omega_hat_ru[l - 1]))
    f_w, f_b = 1.0 - sf_w, 1.0 - sf_b
    return f_w + f_b - f_w * f_b


def asymptotic_cdf_two_strongest_sum(x, n_b, m, omega):
    """Small-argument CDF law F_A(x) ~ c * x^(m*n_b) of A (true power
    omega), c summed from log-gammas: the oracle of A's table lead."""
    x = np.asarray(x, dtype=float)
    c = 0.0
    for t in range(m):
        c += (
            n_b
            * (n_b - 1)
            * exp(
                lgamma(m * (n_b - 1) + t)
                - lgamma(m)
                - (n_b - 2) * lgamma(m + 1)
                - lgamma(t + 1)
                - lgamma(m * n_b + 1)
            )
            * 2.0 ** (-(m * (n_b - 1) + t))
        )
    return c * (m / omega) ** (m * n_b) * x ** (m * n_b)


def _phi(term):
    """The Phi integral itself, from the log form the exact outage uses."""
    return math.exp(phi_integral_log(**term))


class TestPhiIntegral:
    TERM = dict(z_power=1.0, pi_power=1.5, pi_shift=0.8, decay=3.0, bessel_coeff=2.0, order=2)

    @staticmethod
    def _direct(term, z):
        return (
            z**term["z_power"]
            * (z + term["pi_shift"]) ** term["pi_power"]
            * np.exp(-term["decay"] * z)
            * kv(abs(term["order"]), 2.0 * np.sqrt(term["bessel_coeff"] * (z + term["pi_shift"])))
        )

    def test_trapezoid_oracle(self):
        # brute-force trapezoid on [0, 40/decay] with 1e6 panels
        term = self.TERM
        z = np.linspace(0.0, 40.0 / term["decay"], 1_000_001)
        oracle = np.trapezoid(self._direct(term, z), z)
        assert _phi(term) == pytest.approx(oracle, rel=1e-8)

    def test_bessel_decay_monotone(self):
        vals = [
            _phi(replace_term(self.TERM, bessel_coeff=b))
            for b in (1.0, 5.0, 25.0, 125.0, 625.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6 * vals[0]

    def test_change_of_variables_identity(self):
        # z -> 2w: phi(zp, pp, z0, c, b) == 2^(zp+pp+1) phi(zp, pp, z0/2, 2c, 2b)
        term = self.TERM
        half = replace_term(term, pi_shift=term["pi_shift"] / 2.0, decay=term["decay"] * 2.0,
                            bessel_coeff=term["bessel_coeff"] * 2.0)
        factor = 2.0 ** (term["z_power"] + term["pi_power"] + 1.0)
        assert _phi(term) == pytest.approx(factor * _phi(half), rel=1e-9)

    def test_near_singular_shift(self):
        # tiny pi_shift with order 0 produces the log-edge behavior
        term = dict(z_power=0.0, pi_power=0.5, pi_shift=1e-8, decay=1.0, bessel_coeff=1.0,
                    order=0)
        z = np.geomspace(1e-12, 40.0, 4_000_001)
        oracle = np.trapezoid(self._direct(term, z), z)
        assert _phi(term) == pytest.approx(oracle, rel=1e-6)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            phi_integral_log(z_power=0, pi_power=1, pi_shift=0.0, decay=1.0, bessel_coeff=1.0,
                             order=1)

    # one term per regime: an m=1 fig11 term, a fig7 m=3 term, a
    # near-singular shift, order 7, a large Bessel coefficient, and TERM
    ORACLE_TERMS = [
        dict(z_power=1.0, pi_power=0.5, pi_shift=0.031623, decay=15.585214,
             bessel_coeff=0.329075, order=1),
        dict(z_power=7.0, pi_power=2.5, pi_shift=1e-4, decay=3006.75,
             bessel_coeff=0.0093656, order=5),
        dict(z_power=0.0, pi_power=0.5, pi_shift=1e-8, decay=1.0, bessel_coeff=1.0, order=0),
        dict(z_power=3.0, pi_power=4.0, pi_shift=0.2, decay=5.0, bessel_coeff=3.0, order=7),
        dict(z_power=1.0, pi_power=1.5, pi_shift=0.8, decay=3.0, bessel_coeff=625.0, order=2),
        TERM,
    ]

    @staticmethod
    def _rows(terms):
        return np.array([[t[k] for k in ("z_power", "pi_power", "pi_shift", "decay",
                                         "bessel_coeff", "order")] for t in terms])

    @staticmethod
    def _logs(rows) -> list:
        """phi_integral_log_rows's values, where no row fails."""
        logs, failed = analytic.phi_integral_log_rows(rows)
        assert failed == {}
        return list(logs)

    @pytest.mark.parametrize("term", ORACLE_TERMS, ids=range(len(ORACLE_TERMS)))
    def test_mpmath_oracle(self, term):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            a, b, s, c, beta = (mp.mpf(term[k]) for k in ("z_power", "pi_power", "pi_shift",
                                                          "decay", "bessel_coeff"))

            def f(z):
                return z**a * (z + s) ** b * mp.exp(-c * z) * mp.besselk(term["order"],
                                                                          2 * mp.sqrt(beta * (z + s)))

            # tanh-sinh split at the shift and the decay scale; degree 4 agrees
            # with degree 5 and with a 45-digit run on more cuts to ~1e-13
            scale = max(1 / c, s)
            cuts = sorted({mp.mpf(0), s, scale, 30 * scale}) + [mp.inf]
            oracle = mp.log(mp.quad(f, cuts, maxdegree=4))
            rel_err = abs(mp.expm1(mp.mpf(phi_integral_log(**term)) - oracle))
        assert rel_err <= 1e-12

    def test_row_is_bitwise_the_same_in_any_batch(self):
        # the rows converge at different levels, so each batch below drops
        # rows at different points; no row may see that
        rows = self._rows(self.ORACLE_TERMS)
        alone = [phi_integral_log(**term) for term in self.ORACLE_TERMS]
        assert self._logs(rows) == alone
        bigger = self._logs(np.concatenate([rows[::-1], rows, rows[2:4]]))
        assert bigger[len(rows):2 * len(rows)] == alone
        assert bigger[:len(rows)] == alone[::-1]

    def test_rows_of_one_group_are_bitwise_their_own(self):
        # rows that share (pi_shift, decay, bessel_coeff) share their nodes
        # and, per order, their Bessel values; none may see that
        base, other = self.ORACLE_TERMS[0], self.ORACLE_TERMS[3]
        terms = [base, replace_term(base, z_power=3.0), replace_term(base, pi_power=2.5),
                 replace_term(base, order=4), other, replace_term(base, z_power=0.0, order=0),
                 replace_term(other, order=1), replace_term(other, z_power=0.0),
                 # a heavy tail: nodes live for this row lie below the others' floors
                 replace_term(base, z_power=60.0)]
        alone = [phi_integral_log(**term) for term in terms]
        assert self._logs(self._rows(terms)) == alone
        assert self._logs(self._rows(terms[::-1])) == alone[::-1]

    @staticmethod
    def _fig11_rows():
        """fig11 nb4_nr1's Phi rows in the order exact_outage_sweep takes them."""
        (v,) = figure_preset("fig11:nb4_nr1")
        rows = np.concatenate([analytic._exact_plan(*v.sweep.point(v.config, x), l, None).rows
                               for x in v.sweep.grid for l in v.sweep.users])
        return rows[np.lexsort(rows[:, 5:1:-1].T)]

    def test_value_does_not_depend_on_the_slices(self, monkeypatch):
        # rows that converge at level 4 or later, so that the levels they
        # run span several slices of nodes; a row adds the same slices in
        # the same order in a batch of any size and order
        rows = np.concatenate([self._fig11_rows()[::17],
                               self._rows([self.ORACLE_TERMS[i] for i in (0, 1, 2, 3, 5)])])
        assert len(analytic._de_nodes(4)[0]) > 2 * analytic._DE_SLICE
        alone = [self._logs(rows[i:i + 1])[0] for i in range(len(rows))]
        perm = np.random.default_rng(5).permutation(len(rows))
        for size in (2, 3, 16, len(rows)):
            for order in (np.arange(len(rows)), perm, perm[::-1]):
                got = np.empty(len(rows))
                for lo in range(0, len(rows), size):
                    part = order[lo:lo + size]
                    got[part] = self._logs(rows[part])
                assert list(got) == alone, (size, order[:3])
        # passes of 7 rows over the rows shuffled, with the bad term of
        # test_failed_row_leaves_the_others, which sorts into a later pass:
        # each row keeps its value, and the failure is keyed by the bad input row
        monkeypatch.setattr(analytic, "_PHI_ROW_CAP", 7)
        bad = self._rows([dict(z_power=0.0, pi_power=0.5, pi_shift=1.0, decay=1e40,
                               bessel_coeff=1.0, order=1)])
        shuffle = np.random.default_rng(6).permutation(len(rows) + 1)
        mixed = np.concatenate([rows, bad])[shuffle]
        where = int(np.flatnonzero(shuffle == len(rows))[0])
        assert np.lexsort(mixed[:, 5:1:-1].T).tolist().index(where) >= 7
        logs, failed = analytic.phi_integral_log_rows(mixed)
        assert list(failed) == [where]
        assert np.isnan(logs[where])
        assert [v for k, v in enumerate(logs) if k != where] == [alone[j] for j in shuffle
                                                                 if j < len(rows)]
        # no row converges by level 3: every input row of every pass fails
        # there, keyed by its input row
        monkeypatch.setattr(analytic, "_DE_MAX_LEVEL", 3)
        logs, failed = analytic.phi_integral_log_rows(rows)
        assert np.isnan(logs).all()
        assert sorted(failed) == list(range(len(rows)))
        assert {level for level, _ in failed.values()} == {4}

    def test_phi_pass_memory_is_bounded(self):
        # a pass holds rows x _DE_SLICE values at a time, not every node of
        # its rows, and a call of four passes holds one pass at a time
        rows = np.resize(self._fig11_rows(), (4 * analytic._PHI_ROW_CAP, 6))
        tracemalloc.start()
        try:
            analytic.phi_integral_log_rows(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_no_bessel_call_without_a_live_node(self, monkeypatch):
        # validate's 21 default-config exact calls: a slice with no node live
        # for any series of the pass made 72 of their 264 Bessel calls on
        # zero values
        sizes = []

        def counting(nu, x):
            sizes.append(np.broadcast(nu, x).size)
            return ln_bessel_k_int(nu, x)

        monkeypatch.setattr(analytic, "ln_bessel_k_int", counting)
        for snr_db in range(0, 31, 5):
            for l in (1, 2, 3):
                exact_outage(BASE, float(snr_db), l)
        assert sizes and min(sizes) > 0

    def test_failed_row_leaves_the_others(self):
        bad = dict(z_power=0.0, pi_power=0.5, pi_shift=1.0, decay=1e40, bessel_coeff=1.0,
                   order=1)
        terms = [self.ORACLE_TERMS[0], bad, self.ORACLE_TERMS[1]]
        logs, failed = analytic.phi_integral_log_rows(self._rows(terms))
        assert failed == {1: (analytic._DE_MAX_LEVEL + 1,
                              "no two levels agreed to 1e-10 by step 0.00195312")}
        assert np.isnan(logs[1])
        assert [logs[0], logs[2]] == [phi_integral_log(**terms[0]), phi_integral_log(**terms[2])]

    def test_unresolvable_term_is_named(self):
        # a peak far below the node span's centre
        term = dict(z_power=0.0, pi_power=0.5, pi_shift=1.0, decay=1e40, bessel_coeff=1.0,
                    order=1)
        with pytest.raises(NumericsError, match=re.escape(
                "row z_power=0.0 pi_power=0.5 pi_shift=1.0 decay=1e+40 bessel_coeff=1.0 order=1:")):
            phi_integral_log(**term)


def replace_term(term: dict, **kw) -> dict:
    return {**term, **kw}


class TestFirstHopDistribution:
    @pytest.mark.parametrize("n_b,m", [(2, 1), (3, 1), (3, 2), (4, 2), (2, 3)])
    def test_unit_mass(self, n_b, m):
        lam = m / 16.0
        val, _ = quad(lambda x: float(first_hop_mixture(n_b, m).pdf_at(x, lam)), 0.0, np.inf,
                      limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_pdf_integral(self):
        for (n_b, m), x in itertools.product([(3, 2), (4, 3)], (2.0, 10.0, 30.0)):
            lam = m / 16.0
            val, _ = quad(lambda u: float(first_hop_mixture(n_b, m).pdf_at(u, lam)), 0.0, x,
                          limit=300)
            assert 1.0 - first_hop_mixture(n_b, m).sf_at(x, lam) == pytest.approx(val, abs=1e-10)

    def test_histogram_match(self):
        rng = np.random.default_rng(7)
        n_b, m, omega = 3, 2, 16.0
        g = rng.gamma(m, omega / m, size=(1_000_000, n_b))
        g.sort(axis=1)
        samples = g[:, -1] + g[:, -2]
        hist, edges = np.histogram(samples, bins=100, range=(0.0, 120.0), density=True)
        mid = 0.5 * (edges[1:] + edges[:-1])
        l1 = np.trapezoid(np.abs(hist - first_hop_mixture(n_b, m).pdf_at(mid, m / omega)), mid)
        assert l1 < 0.02

    @pytest.mark.parametrize("n_b,m", [(2, 1), (3, 2), (4, 3)])
    def test_asymptotic_cdf_small_argument(self, n_b, m):
        # oracle for the exact CDF at tiny arguments: direct double integral
        # over the ordered-pair region (the alternating closed form loses all
        # digits there)
        omega = 16.0
        lam = m / omega
        t = 1e-3 * omega

        def joint(y, x):  # y <= x
            fy = lam**m * y ** (m - 1) * math.exp(-lam * y) / math.gamma(m)
            fx = lam**m * x ** (m - 1) * math.exp(-lam * x) / math.gamma(m)
            from scipy.special import gammainc

            cdf_y = gammainc(m, lam * y)
            return n_b * (n_b - 1) * fx * fy * cdf_y ** (n_b - 2)

        exact, _ = dblquad(joint, 0.0, t, lambda x: 0.0, lambda x: lambda_min(x, t))
        approx = float(asymptotic_cdf_two_strongest_sum(t, n_b, m, omega))
        assert approx / exact == pytest.approx(1.0, rel=0.02)


def lambda_min(x, t):
    return min(x, t - x)


class TestOrderedGainDistribution:
    @staticmethod
    def _structures(l):
        """The (L, M) structures that have a user l."""
        return [(L, M) for L, M in ((3, 2), (4, 4)) if l <= L]

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_unit_mass(self, l):
        for L, M in self._structures(l):
            val, _ = quad(lambda x: float(ordered_gain_law(l, L, M).pdf_at(x, 0.125)), 0.0,
                          np.inf, limit=300)
            assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_cdf_matches_pdf_integral(self, l):
        for (L, M), x in itertools.product(self._structures(l), (1.0, 8.0, 30.0)):
            val, _ = quad(lambda u: float(ordered_gain_law(l, L, M).pdf_at(u, 0.125)), 0.0, x,
                          limit=300)
            assert 1.0 - ordered_gain_law(l, L, M).sf_at(x, 0.125) == pytest.approx(val, abs=1e-10)

    def test_empirical_match(self):
        rng = np.random.default_rng(11)
        m_total, lam, L = 2, 0.125, 3
        g = rng.gamma(m_total, 1.0 / lam, size=(500_000, L))
        g.sort(axis=1)
        for l in (1, 2, 3):
            for x in (4.0, 12.0, 30.0):
                emp = float(np.mean(g[:, l - 1] <= x))
                ana = 1.0 - float(ordered_gain_law(l, L, m_total).sf_at(x, lam))
                assert ana == pytest.approx(emp, abs=4e-3)

    def test_min_of_three_exponentials(self):
        # L=3, m_total=1: the smallest gain is Exp with tripled rate
        lam = 1.0 / 16.0
        for x in (2.0, 10.0):
            assert 1.0 - float(ordered_gain_law(1, 3, 1).sf_at(x, lam)) == pytest.approx(
                1.0 - math.exp(-3 * lam * x), rel=1e-12
            )


# the law tables checked exactly, at every structure the closed-form engine
# accepts: A at m n_b <= 16, B_(l) at every l of L users with M L <= 24 (the
# config's own limits, n_b <= 64 and L <= 32, do not bind)
A_STRUCTURES = [(n_b, m) for n_b in range(2, analytic._MAX_ORDER_A + 1)
                for m in range(1, analytic._MAX_ORDER_A // n_b + 1)]
B_STRUCTURES = [(l, L, M) for L in range(1, analytic._MAX_ORDER_B + 1)
                for M in range(1, analytic._MAX_ORDER_B // L + 1) for l in range(1, L + 1)]


def _exp_poly_power(m, r):
    """Coefficients of (sum_{k<m} y^k/k!)^r, in exact rationals."""
    beta = [Fraction(1)]
    for _ in range(r):
        beta = [sum(beta[i] / math.factorial(k - i) for i in range(len(beta)) if 0 <= k - i < m)
                for k in range(len(beta) + m - 1)]
    return beta


def _recipe_mgf(n_b, m, s):
    """E[e^(-s A)] at unit rate from the first-hop recipe's unmerged
    products, in exact rationals: the sum over the selection index r, n
    and t < m of coef (s + 1)^-(m - t) (s + (2 + r)/2)^-(t + n + m), or of
    coef (s + 1)^-(n + 2m) when r = 0."""
    total = Fraction(0)
    for r in range(n_b - 1):
        for n, b in enumerate(_exp_poly_power(m, r)):
            for t in range(m):
                coef = b * Fraction(
                    n_b * (n_b - 1) * comb(n_b - 2, r) * (-1) ** r * math.factorial(m + n + t - 1),
                    math.factorial(m - 1) * math.factorial(t) * 2 ** (t + n + m))
                if r == 0:
                    total += coef / (s + 1) ** (n + 2 * m)
                else:
                    total += coef / ((s + 1) ** (m - t) * (s + Fraction(2 + r, 2)) ** (t + n + m))
    return total


def _s_power_pdf(l, L, M):
    """B_(l)'s pdf rows from its S^p weights, in exact rationals: with
    S^(L-l) = (1 - F)^(L-l) and then F^(l-1+k) = (1 - S)^(l-1+k) expanded,
    f_(l) = f sum_p w_p S^p, w_p = q_l sum_k (-1)^(k+p) C(L-l, k)
    C(l+k-1, p), and f S^p = e^(-(1+p) y) sum_k1 beta_p[k1] y^(M-1+k1)
    / (M-1)!."""
    q_l = Fraction(math.factorial(L),
                   math.factorial(L - l) * math.factorial(l - 1) * math.factorial(M - 1))
    rows = []
    for p in range(L):
        w = sum((-1) ** (k + p) * comb(L - l, k) * comb(l + k - 1, p) for k in range(L - l + 1))
        if w:
            rows.append((Fraction(1 + p), (Fraction(0),) * (M - 1)
                         + tuple(q_l * w * b for b in _exp_poly_power(M, p))))
    return tuple(rows)


def _lead_a(n_b, m):
    """A's CDF lead constant at unit rate, exact: the log-gamma constant of
    asymptotic_cdf_two_strongest_sum as a ratio of factorials."""
    k = m * (n_b - 1)
    return sum(Fraction(n_b * (n_b - 1) * math.factorial(k + t - 1),
                        math.factorial(m - 1) * math.factorial(m) ** (n_b - 2) * math.factorial(t)
                        * math.factorial(m * n_b) * 2 ** (k + t))
               for t in range(m))


@functools.cache
def _all_laws():
    """Every accepted structure's tables, built once per session."""
    return ({s: first_hop_mixture(*s) for s in A_STRUCTURES},
            {s: ordered_gain_law(*s) for s in B_STRUCTURES})


class TestLawTables:
    def test_structures_are_every_accepted_one(self):
        # the limits themselves are checked with the exact form's config
        # errors (test_structure_beyond_the_table_limits_rejected)
        assert (len(A_STRUCTURES), len(B_STRUCTURES)) == (34, 491)
        assert {n_b * m for n_b, m in A_STRUCTURES} == set(range(2, 17))
        assert {L * M for _, L, M in B_STRUCTURES} == set(range(1, 25))

    def test_exact_unit_mass_and_tail(self):
        # the pdf integrates to exactly 1, and -d/dy sf = pdf term by term
        laws_a, laws_b = _all_laws()
        for law in [*laws_a.values(), *laws_b.values()]:
            assert sum(c * math.factorial(j) / r ** (j + 1)
                       for r, row in law.pdf for j, c in enumerate(row)) == 1
            assert [r for r, _ in law.sf] == [r for r, _ in law.pdf]
            for (r, pdf), (_, sf) in zip(law.pdf, law.sf):
                deriv = [r * d - (k + 1) * (sf[k + 1] if k + 1 < len(sf) else 0)
                         for k, d in enumerate(sf)]
                assert deriv == list(pdf)

    def test_laplace_transform_is_the_recipe_product(self):
        for (n_b, m), law in _all_laws()[0].items():
            for s in (Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7, 2)):
                table = sum(c * math.factorial(j) / (s + r) ** (j + 1)
                            for r, row in law.pdf for j, c in enumerate(row))
                assert table == _recipe_mgf(n_b, m, s), (n_b, m, s)

    def test_ordered_gain_pdf_is_the_s_power_expansion(self):
        for (l, L, M), law in _all_laws()[1].items():
            assert law.pdf == _s_power_pdf(l, L, M), (l, L, M)

    def test_cdf_starts_at_the_diversity_order(self):
        # Taylor coefficients of F_A = 1 - sf_A: exactly 0 below y^(m n_b),
        # the small-argument constant at y^(m n_b) (unit rate: omega = m)
        for (n_b, m), law in _all_laws()[0].items():
            k = m * n_b
            taylor = [int(n == 0) - sum(d * (-r) ** (n - j) / math.factorial(n - j)
                                        for r, row in law.sf for j, d in enumerate(row) if j <= n)
                      for n in range(k + 1)]
            assert taylor[:k] == [0] * k, (n_b, m)
            assert taylor[k] == _lead_a(n_b, m), (n_b, m)
            assert law.lead == (k, taylor[k])
        assert float(_lead_a(4, 3)) == pytest.approx(
            float(asymptotic_cdf_two_strongest_sum(1.0, 4, 3, 3)), rel=1e-13)

    def test_ordered_gain_lead_is_the_small_argument_law(self):
        # F_(l) ~ C(L, l) F^l and F ~ y^M / M!
        for (l, L, M), law in _all_laws()[1].items():
            assert law.lead == (M * l, Fraction(comb(L, l), math.factorial(M) ** l)), (l, L, M)

    @pytest.mark.parametrize("n_b", [2, 3, 4])
    def test_leads_are_the_small_argument_laws(self, n_b):
        # the high-SNR law's constants and orders: A's lead is the
        # log-gamma constant at order m n_b, B_(l)'s is C(L, l) / M!^l at
        # order M l, M = m n_r, and the smaller order is the diversity order
        for m, n_r, l in itertools.product((1, 2, 3, 4), (1, 2), (1, 2, 3)):
            big_m = m * n_r
            k_a, c_a = first_hop_mixture(n_b, m).lead
            k_b, c_b = ordered_gain_law(l, 3, big_m).lead
            assert (k_a, k_b) == (m * n_b, big_m * l)
            assert float(c_a) == pytest.approx(
                float(asymptotic_cdf_two_strongest_sum(1.0, n_b, m, m)), rel=1e-13)
            assert float(c_b) == pytest.approx(comb(3, l) / math.factorial(big_m) ** l, rel=1e-13)
            cfg = replace(BASE, n_b=n_b, n_r=n_r, m_sr=m, m_rr=m, m_ru=(m,) * 3, mu=0.0)
            assert diversity_order(cfg, l) == min(k_a, k_b)

    def test_ordered_gain_matches_mpmath_order_statistic(self):
        # f_(l) = L!/((l-1)! (L-l)!) F^(l-1) S^(L-l) f and
        # sf_(l) = sum_{i<l} C(L, i) F^i S^(L-i), at 50 digits, across the
        # bulk of each law: a quarter of its mean to ten times it
        mp = pytest.importorskip("mpmath")
        L = 3
        with mp.workdps(50):
            for l, M in itertools.product((1, 2, 3), (1, 2, 3, 4)):
                law = ordered_gain_law(l, L, M)
                mean = float(sum(d * math.factorial(k) / r ** (k + 1)
                                 for r, row in law.sf for k, d in enumerate(row)))
                for y in mean * np.linspace(0.25, 10.0, 40):
                    yy = mp.mpf(float(y))
                    F = mp.gammainc(M, 0, yy, regularized=True)
                    S = mp.gammainc(M, yy, mp.inf, regularized=True)
                    f = yy ** (M - 1) * mp.exp(-yy) / mp.factorial(M - 1)
                    pdf = (math.factorial(L) // (math.factorial(l - 1) * math.factorial(L - l))
                           * F ** (l - 1) * S ** (L - l) * f)
                    sf = sum(comb(L, i) * F**i * S ** (L - i) for i in range(l))
                    assert float(ordered_gain_law(l, L, M).pdf_at(y, 1.0)) == pytest.approx(
                        float(pdf), rel=1e-12), (l, M, y)
                    assert float(ordered_gain_law(l, L, M).sf_at(y, 1.0)) == pytest.approx(
                        float(sf), rel=1e-12), (l, M, y)


class TestRelayRatioCdf:
    def test_practical_against_simulation(self):
        snr_bar = 10.0 ** 1.5
        stats = derive_link_stats(PRACTICAL, snr_bar)
        theta4p = snr_bar / 2 * stats.sigma2_sr + 1.0
        rng = np.random.default_rng(13)
        n = 500_000
        g = rng.gamma(1.0, stats.omega_hat_sr, size=(n, PRACTICAL.n_b))
        g.sort(axis=1)
        a = g[:, -1] + g[:, -2]
        c = rng.gamma(1.0, stats.omega_rr, size=n)
        w = snr_bar * a / (snr_bar * c + theta4p)
        for x in (5.0, 50.0, 200.0):
            emp = float(np.mean(w > x))
            ana = sf_relay_ratio(
                x, n_b=PRACTICAL.n_b, m_sr=1, lam_sr=1.0 / stats.omega_hat_sr,
                m_rr=1, omega_rr=stats.omega_rr, offset=theta4p / snr_bar,
            )
            assert ana == pytest.approx(emp, abs=4e-3)

    def test_ideal_against_simulation(self):
        snr_bar = 10.0**2
        stats = derive_link_stats(BASE, snr_bar)
        rng = np.random.default_rng(15)
        n = 500_000
        g = rng.gamma(1.0, stats.omega_hat_sr, size=(n, 2))
        a = g.sum(axis=1)
        c = rng.gamma(1.0, stats.omega_rr, size=n)
        for x in (20.0, 200.0, 2000.0):
            emp = float(np.mean(a / c > x))
            ana = sf_relay_ratio(
                x, n_b=2, m_sr=1, lam_sr=1.0 / stats.omega_hat_sr, m_rr=1,
                omega_rr=stats.omega_rr, offset=0.0,
            )
            assert ana == pytest.approx(emp, abs=4e-3)

    @pytest.mark.parametrize("n_b,m_sr,m_rr", [(2, 1, 1), (3, 3, 2), (4, 4, 2)])
    def test_closed_form_against_quad(self, n_b, m_sr, m_rr):
        # E_C[sf_A(x (C + o))] by scipy's quad over the Gamma(m_rr) SI law,
        # split at its mean; rel 1e-11 holds the roundoff of A's alternating
        # table terms, ~1.4e-12 at (4, 4) near sf = 1 (40-digit mpmath)
        lam_sr, omega_rr = 1.3, 0.7
        rate = m_rr / omega_rr
        law = first_hop_mixture(n_b, m_sr)
        for x in (0.3, 3.0, 30.0):
            for offset in (0.0, 0.4):
                def integrand(c):
                    return (float(law.sf_at(x * (c + offset), lam_sr))
                            * rate**m_rr * c ** (m_rr - 1) * exp(-rate * c - lgamma(m_rr)))

                ref = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                          for lo, hi in ((0.0, omega_rr), (omega_rr, np.inf)))
                got = sf_relay_ratio(x, n_b=n_b, m_sr=m_sr, lam_sr=lam_sr, m_rr=m_rr,
                                     omega_rr=omega_rr, offset=offset)
                assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (x, offset)

    def test_power_past_the_float_range_is_a_numerics_error(self):
        # (lam_sr x / rate_c)^k overflowed with a bare OverflowError
        with pytest.raises(NumericsError, match=r"relay-ratio sf at x = 36 has a term outside"):
            sf_relay_ratio(36.0, n_b=4, m_sr=4, lam_sr=1.0, m_rr=1, omega_rr=1e30, offset=0.0)
        big = replace(BASE, n_b=4, m_sr=4, alpha_si=1e30)
        with pytest.raises(NumericsError, match="relay-ratio sf at x = "):
            lower_bound_outage(big, 0.0, 1)
        with pytest.raises(NumericsError, match="relay-ratio sf at x = "):
            asymptotic_outage_ideal(replace(big, mu=1.0), 0.0, 1)
        with pytest.raises(NumericsError, match="relay-ratio sf at x = "):
            asymptotic_outage_practical(replace(_FIG6["nb2_nr1"], n_b=4, m_sr=4, alpha_si=1e30,
                                                mu=1.0), 1)
        # y = lam_sr x / rate_c rounds to inf: the sum was NaN, and the floor
        # counted its NaN nodes as zero and printed 1.0
        with pytest.raises(NumericsError, match=r"relay-ratio sf at x = 1e\+10 has a term outside"):
            sf_relay_ratio(1e10, n_b=2, m_sr=1, lam_sr=1.0, m_rr=1, omega_rr=1e300, offset=0.0)
        with pytest.raises(NumericsError, match="relay-ratio sf at x = "):
            asymptotic_outage_practical(replace(_FIG6["nb2_nr1"], alpha_si=1e308, mu=1.0), 1)


class TestExactOutage:
    def test_vanishing_thresholds(self):
        cfg = replace(BASE, gamma_th=(1e-9, 1e-9, 1e-9))
        for l in (1, 2, 3):
            assert exact_outage(cfg, 10.0, l).value < 1e-6

    def test_monotone_in_snr(self):
        vals = [exact_outage(BASE, snr, 2).value for snr in (0.0, 10.0, 20.0, 30.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_threshold_and_impairments(self):
        base = exact_outage(BASE, 15.0, 2).value
        tighter = replace(BASE, gamma_th=(0.95, 1.8, 2.4))
        assert exact_outage(tighter, 15.0, 2).value > base
        assert exact_outage(PRACTICAL, 15.0, 2).value > base
        worse_si = replace(BASE, mu=0.75)
        assert exact_outage(worse_si, 15.0, 2).value > base

    @pytest.mark.parametrize(
        "cfg,snr",
        [
            (BASE, 15.0),
            (replace(BASE, n_b=3), 10.0),
            (PRACTICAL, 20.0),
            (replace(BASE, n_b=3, m_sr=2, m_rr=2, m_ru=(2, 2, 2)), 10.0),
            (replace(BASE, mu=1.0), 15.0),
            (replace(BASE, n_r=2), 10.0),
        ],
    )
    def test_agrees_with_simulator(self, cfg, snr):
        for l in (1, 2, 3):
            mc = simulate_outage(cfg, snr, l, 400_000, seed=3)
            exact = exact_outage(cfg, snr, l).value
            sd = math.sqrt(max(mc.value * (1 - mc.value), 1e-12) / 400_000)
            assert abs(exact - mc.value) < 4.5 * sd + 1e-6

    def test_printed_variant_is_refuted_by_simulation(self):
        # arbitration of the inconsistent typeset form: the as-printed
        # variant disagrees with the simulator by orders of magnitude (it is
        # not even a probability), the consistent variant sits inside the
        # Monte Carlo uncertainty
        cfg, snr, l = replace(BASE, n_b=3), 10.0, 2
        mc = simulate_outage(cfg, snr, l, 200_000, seed=5)
        consistent = exact_outage(cfg, snr, l).value
        sd = math.sqrt(mc.value * (1 - mc.value) / 200_000)
        assert abs(consistent - mc.value) < 5 * sd
        # the transcription reproduces the engine when it follows it
        assert _nested_sum_raw(cfg, snr, l, printed=False) == pytest.approx(consistent, abs=1e-10)
        # also with two receive antennas (M = 2) for every user
        wide = replace(BASE, n_b=3, n_r=2)
        for user in (1, 2, 3):
            assert _nested_sum_raw(wide, 20.0, user, printed=False) == pytest.approx(
                exact_outage(wide, 20.0, user).value, abs=1e-10)
        with pytest.raises(NumericsError):
            # blows past the roundoff clamp budget: not a probability at all
            analytic._clamped_point(_nested_sum_raw(cfg, snr, l, printed=True), l, snr, "exact")

    def test_every_phi_term_underflowing_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "phi_integral_log_rows",
                            lambda rows: (np.full(len(rows), -np.inf), {}))
        with pytest.raises(NumericsError, match="every Phi term underflowed"):
            exact_outage(BASE, 15.0, 2)

    @pytest.mark.parametrize("m,l,pinned", [
        (3, 1, 0.016875176941),
        (3, 2, 0.009597861291),
        (3, 3, 0.007705378111),
        (4, 3, 0.003067941965),
    ])
    def test_many_term_structures(self, m, l, pinned):
        # n_b=3, n_r=2 at m=3 and 4 (up to ~1.5e6 terms before merging);
        # the sum's own roundoff here is ~5e-11, a wrong power or index
        # an O(1) error
        cfg = replace(BASE, n_b=3, n_r=2, m_sr=m, m_rr=m, m_ru=(m,) * 3)
        assert exact_outage(cfg, 10.0, l).value == pytest.approx(pinned, abs=1e-9)

    @pytest.mark.parametrize("name", ["fig7", "fig11"])
    def test_sweep_is_bitwise_the_per_point_call(self, name, monkeypatch):
        # every variant's grid points and users in one sweep
        entries = [
            (*v.sweep.point(v.config, x), l, None)
            for v in figure_preset(name) for x in v.sweep.grid for l in v.sweep.users
        ]
        alone = [exact_outage(cfg, snr, l).value for cfg, snr, l, _ in entries]
        assert [pt.value for pt in analytic.exact_outage_sweep(entries)] == alone
        # a cap that splits entries, groups and series across calls
        monkeypatch.setattr(analytic, "_PHI_ROW_CAP", 37)
        assert [pt.value for pt in analytic.exact_outage_sweep(entries)] == alone

    # a fig11 variant's exact cells in one sweep, law tables built: traced
    # peaks of 1.39-2.00 MB, against 1.66-2.51 MB with the stacked Bessel
    # rules, which set them
    @pytest.mark.parametrize("label, bound", [("nb2_nr1", 1.9e6), ("nb3_nr1", 2.05e6),
                                              ("nb4_nr1", 2.15e6), ("nb2_nr2", 1.5e6)])
    def test_fig11_sweep_memory_is_bounded(self, label, bound):
        (v,) = figure_preset(f"fig11:{label}")
        entries = [(*v.sweep.point(v.config, x), l, None) for x in v.sweep.grid
                   for l in v.sweep.users]
        analytic.exact_outage_sweep(entries)
        tracemalloc.start()
        try:
            analytic.exact_outage_sweep(entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_sweep_returns_each_entry_its_own_error(self):
        good = (BASE, 15.0, 2, None)
        bad = (replace(BASE, mu=0.0, alpha_si=1e-20), 15.0, 1, None)
        results = analytic.exact_outage_sweep([
            good, (replace(BASE, m_sr=0.98, m_rr=0.98, m_ru=(0.98,) * 3), 10.0, 1, None),
            bad, good,
        ])
        assert results[0] == results[3] == exact_outage(BASE, 15.0, 2)
        assert isinstance(results[1], ConfigError)
        # the message is the one the entry's rows alone give: that of its
        # first failed row by (level, row)
        (alone,) = analytic.exact_outage_sweep([bad])
        assert type(results[2]) is NumericsError and str(results[2]) == str(alone)
        plan = analytic._exact_plan(*bad)
        _, failed = analytic.phi_integral_log_rows(plan.rows)
        _, i, reason = min((level, i, reason) for i, (level, reason) in failed.items())
        assert str(alone) == f"phi quadrature failed for term {plan.label(i)}: {reason}"

    @pytest.mark.parametrize("lam_dag", [-1.0, 0.0, math.nan, math.inf, True, "2.0"],
                             ids=["negative", "zero", "nan", "inf", "bool", "text"])
    def test_bad_threshold_is_its_entrys_config_error(self, lam_dag):
        # a negative threshold raised a bare ValueError from the plan's logs,
        # taking every entry down; 0, NaN and inf gave a float-range
        # NumericsError, and True passed as 1
        entries = [(BASE, 10.0, 1, None), (BASE, 10.0, 2, lam_dag), (BASE, 15.0, 3, 18.0)]
        first, bad, last = analytic.exact_outage_sweep(entries)
        assert type(bad) is ConfigError
        assert str(bad) == f"lam_dag must be a finite real > 0, got {lam_dag!r}"
        assert first == exact_outage(BASE, 10.0, 1)
        assert last == exact_outage(BASE, 15.0, 3, 18.0)
        with pytest.raises(ConfigError, match="lam_dag must be a finite real > 0"):
            exact_outage(BASE, 10.0, 2, lam_dag)

    def test_threshold_beyond_the_float_range_is_its_entrys_config_error(self):
        # an int past the float range passed the > 0 check, and its
        # division by the SNR raised a bare OverflowError out of the sweep
        entries = [(BASE, 10.0, 1, None), (BASE, 10.0, 2, 10**400), (BASE, 15.0, 3, 18.0)]
        first, bad, last = analytic.exact_outage_sweep(entries)
        assert type(bad) is ConfigError
        assert str(bad) == f"lam_dag must lie within the float range, got {10**400}"
        assert first == exact_outage(BASE, 10.0, 1)
        assert last == exact_outage(BASE, 15.0, 3, 18.0)

    def test_entry_error_is_its_first_failure_by_level_then_row(self, monkeypatch):
        # BASE at 15 dB, user 2, has more than five Phi rows; rows 2 and 4
        # fail at the earliest level, row 0 later
        phi_integral_log_rows = analytic.phi_integral_log_rows

        def failing(rows):
            logs, _ = phi_integral_log_rows(rows)
            failed = {0: (5, "late"), 4: (2, "second"), 2: (2, "first")}
            logs[list(failed)] = np.nan
            return logs, failed

        monkeypatch.setattr(analytic, "phi_integral_log_rows", failing)
        (err,) = analytic.exact_outage_sweep([(BASE, 15.0, 2, None)])
        plan = analytic._exact_plan(BASE, 15.0, 2, None)
        assert len(plan.rows) > 5
        assert type(err) is NumericsError
        assert str(err) == f"phi quadrature failed for term {plan.label(2)}: first"

    def test_one_table_per_structure(self):
        # SNR, distance, impairments and the SI shape change only the
        # scalars and Phi rows of a call
        analytic._sum_table.cache_clear()
        for cfg, snr in ((BASE, 10.0), (BASE, 25.0), (replace(BASE, d_sr=0.3), 10.0),
                         (PRACTICAL, 15.0), (replace(BASE, mu=0.75, m_rr=2), 20.0)):
            exact_outage(cfg, snr, 2)
        assert analytic._sum_table.cache_info().misses == 1

    @pytest.mark.parametrize("n_b,m,sizes", [
        (3, 3, (140, 178, (49, 33), 1617)),
        (4, 4, (795, 325, (182, 45), 8190)),
    ])
    def test_sum_table_is_two_factor_tables_and_a_key_grid(self, n_b, m, sizes):
        # user 3 at n_r = 2: (first-hop entries, second-hop entries, key
        # grid, Phi rows), a work count that does not depend on the machine
        table = analytic._sum_table(n_b, m, 2 * m, 3, 3)
        na, nb = table.log_g.shape
        assert ((table.key < na).sum(), (table.key >= na).sum(), (na, nb), len(table.rows)) == sizes
        assert np.array_equal(np.unique(table.key), np.arange(na + nb))
        # the Phi rows (k2, e_pi, nu, rho, p) are the full grid of keys
        # a = (k2, rho, q) by b = (t4, p), each once, q = e_pi - nu/2 and
        # t4 = e_pi + nu/2 - 1
        k2, e_pi, nu, rho, p = table.rows.reshape(na, nb, 5).transpose(2, 0, 1)
        a = np.stack([k2, rho, e_pi - nu / 2], axis=-1)
        b = np.stack([e_pi + nu / 2 - 1, p], axis=-1)
        assert (a == a[:, :1]).all() and (b == b[:1]).all()
        assert len(np.unique(a[:, 0], axis=0)) == na and len(np.unique(b[0], axis=0)) == nb
        assert np.array_equal(table.log_g, nu / 2 * (np.log(rho) - np.log(1 + p)))

    def test_quadrature_spec_respected(self, monkeypatch):
        monkeypatch.setattr(analytic, "_DE_REL_TOL", 1e-6)
        a = exact_outage(BASE, 15.0, 2).value
        monkeypatch.setattr(analytic, "_DE_REL_TOL", 1e-12)
        b = exact_outage(BASE, 15.0, 2).value
        assert a == pytest.approx(b, rel=1e-5)

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            exact_outage(replace(BASE, m_sr=0.98, m_rr=0.98, m_ru=(0.98,) * 3), 10.0, 1)

    def test_heterogeneous_users_rejected(self):
        with pytest.raises(ConfigError, match="identical"):
            exact_outage(replace(BASE, d_ru=(0.4, 0.5, 0.6)), 10.0, 1)

    def test_structures_within_the_table_limits_accepted(self):
        # the largest structure the tests reach, and each limit on its own
        for n_b, m_sr, m_ru, n_r in ((4, 4, 4, 2), (16, 1, 1, 8), (2, 8, 2, 4)):
            cfg = replace(BASE, n_b=n_b, m_sr=m_sr, m_ru=(m_ru,) * 3, n_r=n_r)
            assert analytic._require_analytic_config(cfg) == (m_sr, 1, m_ru)

    @pytest.mark.parametrize("kw,message", [
        (dict(n_b=17), "m_sr*n_b <= 16, got 17"),
        (dict(n_b=3, m_sr=6), "m_sr*n_b <= 16, got 18"),
        (dict(n_r=9), "m_ru*n_r*n_users <= 24, got 27"),
        (dict(m_ru=(5,) * 3, n_r=2), "m_ru*n_r*n_users <= 24, got 30"),
    ])
    def test_structure_beyond_the_table_limits_rejected(self, kw, message):
        # no table is built: exact_outage raises before reaching one
        with pytest.raises(ConfigError, match=re.escape(f"requires {message}")):
            exact_outage(replace(BASE, **kw), 10.0, 1)


USER_INDEX_CALLS = {
    "exact_outage": lambda l: exact_outage(BASE, 20.0, l),
    "exact_outage_for_lambda": lambda l: exact_outage_for_lambda(BASE, 20.0, l, 18.0),
    "lower_bound_outage": lambda l: lower_bound_outage(BASE, 20.0, l),
    "diversity_order": lambda l: diversity_order(BASE, l),
    "array_gain": lambda l: array_gain(BASE, l),
    "asymptotic_outage_ideal": lambda l: asymptotic_outage_ideal(BASE, 20.0, l),
    "asymptotic_outage_ideal_mu1": lambda l: asymptotic_outage_ideal(replace(BASE, mu=1.0), 20.0, l),
    "asymptotic_outage_practical": lambda l: asymptotic_outage_practical(PRACTICAL, l),
    "ordered_gain_law": lambda l: ordered_gain_law(l, 3, 1),
}


class TestUserIndex:
    """A user index outside 1..n_users is a config error naming the index
    and the range.  Before the check, l = 0 and -1 read users 3 and 2 (or
    gave 0, 1.0, ZeroDivisionError or a factorial error), l = 4 raised
    IndexError and l = True passed as user 1."""

    @pytest.mark.parametrize("l", [0, -1, 4, True])
    @pytest.mark.parametrize("call", USER_INDEX_CALLS)
    def test_entry_point_rejects_it(self, call, l):
        with pytest.raises(ConfigError, match=re.escape(f"user index {l} out of range 1..3")):
            USER_INDEX_CALLS[call](l)

    def test_sweep_entry_gets_the_error_as_its_result(self):
        bad, good, worse = exact_outage_sweep([(BASE, 20.0, 0, None), (BASE, 20.0, 2, None),
                                               (BASE, 20.0, 4, 18.0)])
        assert isinstance(bad, ConfigError) and str(bad) == "user index 0 out of range 1..3"
        assert isinstance(worse, ConfigError) and str(worse) == "user index 4 out of range 1..3"
        assert good == exact_outage(BASE, 20.0, 2)


class TestLowerBound:
    @pytest.mark.parametrize(
        "cfg",
        [
            BASE,
            replace(BASE, n_b=3),
            replace(BASE, mu=1.0),
            PRACTICAL,
            replace(PRACTICAL, n_b=3),
            replace(BASE, n_b=3, m_sr=2, m_rr=2, m_ru=(2, 2, 2)),
            # a Doppler product too small to move rho off 1: impaired, so
            # the bound takes its practical W branch
            replace(BASE, fd_tau_sr=1e-9),
        ],
    )
    def test_never_exceeds_exact(self, cfg):
        for snr in (0.0, 10.0, 25.0, 40.0):
            for l in (1, 2, 3):
                lb = lower_bound_outage(cfg, snr, l).value
                ex = exact_outage(cfg, snr, l).value
                assert lb <= ex + 1e-8

    def test_tight_at_high_snr_for_si_floor(self):
        cfg = replace(BASE, mu=1.0)
        for snr in (35.0, 40.0, 45.0, 50.0):
            for l in (1, 2, 3):
                lb = lower_bound_outage(cfg, snr, l).value
                ex = exact_outage(cfg, snr, l).value
                assert (ex - lb) / ex < 0.05

    def test_zero_threshold_limit(self):
        cfg = replace(BASE, gamma_th=(1e-12, 1e-12, 1e-12))
        assert lower_bound_outage(cfg, 20.0, 3).value < 1e-9

    def test_printed_theta4p_breaks_the_bound(self):
        # with the typeset gbar^2 constant the "bound" crosses above the
        # exact outage under impairments; the grouping-consistent constant
        # keeps the ordering at every point tested
        cfg = PRACTICAL
        violated = False
        for snr in (10.0, 25.0, 40.0):
            for l in (1, 2, 3):
                rebuilt = _lower_bound_raw(cfg, snr, l, printed=False)
                assert rebuilt == pytest.approx(lower_bound_outage(cfg, snr, l).value, abs=1e-15)
                raw = _lower_bound_raw(cfg, snr, l, printed=True)
                printed = analytic._clamped_point(raw, l, snr, "lower_bound").value
                ex = exact_outage(cfg, snr, l).value
                violated = violated or printed > ex + 1e-8
        assert violated


class TestAsymptotics:
    def test_diversity_order_examples(self):
        assert diversity_order(replace(BASE, n_b=3, mu=0.25), 2) == pytest.approx(2.0)
        assert diversity_order(replace(BASE, mu=0.0), 1) == pytest.approx(1.0)
        assert diversity_order(replace(BASE, mu=1.0), 3) == 0.0

    def test_array_gain_equal_branch(self):
        cfg = replace(BASE, n_b=2, n_r=2, m_sr=2, m_rr=1, m_ru=(1, 1, 1), mu=0.5)
        # (1-mu) m_sr n_b = 2 equals m_ru n_r l = 2 at l=1, so G_ag^-2 is
        # the sum of both branches' constants: F_A's times E[C^4] = 4! (unit
        # SI mean), and C(3, 1) (2 Lambda+ / omega_ru)^2 / 2!
        lam = compute_deltas(cfg, 1.0).lambda_dag[0]
        first = float(asymptotic_cdf_two_strongest_sum(2 * lam, 2, 2, 16.0)) * math.factorial(4)
        second = 3 * (2 * lam / 16.0) ** 2 / 2
        assert array_gain(cfg, 1) ** -2 == pytest.approx(first + second, rel=1e-12)

    @pytest.mark.parametrize("cfg", [
        replace(BASE, n_b=2, n_r=2, m_sr=2, m_ru=(1, 1, 1), mu=0.5),
        replace(BASE, n_b=2, n_r=2, mu=0.5),
        replace(BASE, n_b=3, mu=0.25),
        replace(BASE, mu=0.0),
        replace(BASE, n_b=3, n_r=2, m_sr=3, m_rr=2, m_ru=(3, 3, 3), mu=0.25),
    ], ids=["tie", "first_hop", "second_hop", "mu0", "m3"])
    def test_asymptote_is_the_array_gain_law(self, cfg):
        # OP ~ (G_ag gbar)^(-G_do): at 160 dB the higher-order terms are
        # gone, also where the branch orders tie and at mu = 0
        for l in (1, 2, 3):
            op = asymptotic_outage_ideal(cfg, 160.0, l).value
            law = (array_gain(cfg, l) * 1e16) ** -diversity_order(cfg, l)
            assert op / law == pytest.approx(1.0, abs=1e-3), l

    def test_near_integer_shapes_take_the_integer_law(self):
        # the closed forms read a shape within 1e-12 of an integer as it
        near = 3 - 1e-13
        cfg = replace(BASE, m_sr=near, m_rr=near, m_ru=(near,) * 3)
        ref = replace(BASE, m_sr=3, m_rr=3, m_ru=(3, 3, 3))
        for l in (1, 2, 3):
            assert asymptotic_outage_ideal(cfg, 30.0, l).value == pytest.approx(
                asymptotic_outage_ideal(ref, 30.0, l).value, rel=1e-12)
            assert array_gain(cfg, l) == pytest.approx(array_gain(ref, l), rel=1e-12)

    def test_array_gain_rejects_floor_regime(self):
        with pytest.raises(ConfigError):
            array_gain(replace(BASE, mu=1.0), 1)

    def test_mu_one_floor_is_snr_independent(self):
        cfg = replace(BASE, mu=1.0)
        vals = [asymptotic_outage_ideal(cfg, snr, 2).value for snr in (20.0, 35.0, 50.0)]
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)

    def test_mu_one_exact_matches_floor(self):
        cfg = replace(BASE, mu=1.0)
        for l in (1, 2, 3):
            floor = asymptotic_outage_ideal(cfg, 45.0, l).value
            hi = exact_outage(cfg, 45.0, l).value
            assert hi == pytest.approx(floor, rel=0.02)

    def test_converges_to_exact(self):
        # within 0.15 decades at 45 dB for every power-law curve family
        for mu in (0.0, 0.25, 0.5):
            cfg = replace(BASE, mu=mu)
            for l in (1, 2, 3):
                ex = exact_outage(cfg, 45.0, l).value
                asym = asymptotic_outage_ideal(cfg, 45.0, l).value
                assert abs(math.log10(ex) - math.log10(asym)) < 0.15

    def test_requires_ideal(self):
        with pytest.raises(ConfigError):
            asymptotic_outage_ideal(PRACTICAL, 30.0, 1)

    def test_practical_floor_matches_high_snr_exact(self):
        for l in (1, 2, 3):
            floor = asymptotic_outage_practical(PRACTICAL, l).value
            ex = exact_outage(PRACTICAL, 50.0, l).value
            assert floor == pytest.approx(ex, rel=0.05)

    def test_practical_floor_monotone_in_cee(self):
        worse = replace(
            PRACTICAL, sigma2_est_sr=0.02, sigma2_est_ru=(0.02,) * 3
        )
        for l in (1, 2, 3):
            assert (
                asymptotic_outage_practical(worse, l).value
                > asymptotic_outage_practical(PRACTICAL, l).value
            )

    def test_practical_floor_rejects_ideal(self):
        with pytest.raises(ConfigError):
            asymptotic_outage_practical(BASE, 1)

    def test_tiny_doppler_is_one_kind_of_config(self):
        # j0(2 pi 1e-9) rounds to 1, so the link statistics show no
        # impairment; the config has one, and exactly one of the two
        # asymptotic forms must accept it
        cfg = replace(BASE, fd_tau_sr=1e-9)
        accepted = 0
        for evaluate in (lambda: asymptotic_outage_ideal(cfg, 30.0, 2),
                         lambda: asymptotic_outage_practical(cfg, 2)):
            try:
                evaluate()
                accepted += 1
            except ConfigError:
                pass
        assert accepted == 1

    def test_practical_floor_mu_one(self):
        cfg = replace(PRACTICAL, mu=1.0)
        floor = asymptotic_outage_practical(cfg, 2).value
        ex = exact_outage(cfg, 55.0, 2).value
        assert floor == pytest.approx(ex, rel=0.05)

    def test_practical_floor_single_sided_impairment(self):
        cfg = replace(BASE, sigma2_est_sr=0.02)  # first hop only
        floor = asymptotic_outage_practical(cfg, 1).value
        ex = exact_outage(cfg, 60.0, 1).value
        assert floor == pytest.approx(ex, rel=0.05)


def _floor_oracle(cfg, l):
    """The CEE/FBD error floor by scipy's quad at epsrel 1e-13, split at the
    mean of the ordered gain.  At SI gain C the outage argument is a + b*C;
    at mu = 1 the SI average is taken in closed form, since
    E_C[sf_A(a + b*C)] = P(A/(C + a/b) > b) = sf_relay_ratio(b, offset=a/b),
    as the floor takes it too: the oracle checks the floor's quadrature,
    and TestRelayRatioCdf.test_closed_form_against_quad checks the closed
    form against a quad over C."""
    stats = derive_link_stats(cfg, 1.0)
    lam_dag = compute_deltas(cfg, 1.0).lambda_dag[l - 1]
    rs2, rr2 = stats.rho_sr**2, stats.rho_ru[l - 1] ** 2
    s2s, s2r = stats.sigma2_sr, stats.sigma2_ru[l - 1]
    m_sr, m_ru, m_rr = int(cfg.m_sr), int(cfg.m_ru[0]), int(cfg.m_rr)
    lam_s, lam_b = m_sr / stats.omega_hat_sr, m_ru / stats.omega_hat_ru[l - 1]
    big_m = m_ru * cfg.n_r
    tau_b = lam_dag * s2r / rr2

    def integrand(u):
        y = u + tau_b
        a = lam_dag * (s2s * y + s2s * s2r / rr2) / (rs2 * u)
        b = 2.0 * lam_dag * (s2r / rr2 + y) / (rs2 * u)
        if cfg.mu < 1.0:
            sf = float(first_hop_mixture(cfg.n_b, m_sr).sf_at(a, lam_s))
        else:
            sf = sf_relay_ratio(b, n_b=cfg.n_b, m_sr=m_sr, lam_sr=lam_s, m_rr=m_rr,
                                omega_rr=stats.omega_rr, offset=a / b)
        return sf * float(ordered_gain_law(l, cfg.n_users, big_m).pdf_at(y, lam_b))

    mean = big_m / lam_b
    return 1.0 - sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                     for lo, hi in ((0.0, mean), (mean, np.inf)))


_FIG6 = {v.label: v.config for v in figure_preset("fig6")}
_FLOOR_CASES = {
    **{f"fig6_{label}_u{l}": (cfg, l) for label, cfg in _FIG6.items() for l in (1, 2, 3)},
    **{f"fig6_{label}_mu1_u{l}": (replace(cfg, mu=1.0), l)
       for label, cfg in _FIG6.items() for l in (1, 2, 3)},
    # large SI: the nested rule this replaced found no two levels that agreed
    "fig6_nb2_nr1_mu1_si1e6_u1": (replace(_FIG6["nb2_nr1"], mu=1.0, alpha_si=1e6), 1),
    **{f"fig6_nb2_nr1_mu1_nb4_m4_si{name}_u1": (
        replace(_FIG6["nb2_nr1"], mu=1.0, n_b=4, m_sr=4, alpha_si=si), 1)
       for name, si in (("1e3", 1e3), ("1e12", 1e12))},
    **{f"first_hop_cee_u{l}": (replace(BASE, sigma2_est_sr=0.02), l) for l in (1, 2, 3)},
}


class TestPracticalFloorQuadrature:
    @pytest.mark.parametrize("case", list(_FLOOR_CASES))
    def test_quad_oracle(self, case):
        cfg, l = _FLOOR_CASES[case]
        assert asymptotic_outage_practical(cfg, l).value == pytest.approx(
            _floor_oracle(cfg, l), abs=1e-12)

    @pytest.mark.parametrize("mu,sf_calls", [(0.25, 0), (1.0, 222)])
    def test_one_pass_of_one_row(self, mu, sf_calls, monkeypatch):
        # the SI average is sf_relay_ratio at the nodes of the one rule, not
        # an outer rule with a row per SI gain
        rows, sf = [], []
        de_log_integrals, sf_relay_ratio_ = analytic._de_log_integrals, analytic.sf_relay_ratio

        def counted_de(n, *args):
            rows.append(n)
            return de_log_integrals(n, *args)

        def counted_sf(*args, **kwargs):
            sf.append(1)
            return sf_relay_ratio_(*args, **kwargs)

        monkeypatch.setattr(analytic, "_de_log_integrals", counted_de)
        monkeypatch.setattr(analytic, "sf_relay_ratio", counted_sf)
        for l in (1, 2, 3):
            rows.clear()
            sf.clear()
            asymptotic_outage_practical(replace(_FIG6["nb2_nr1"], mu=mu), l)
            assert rows == [1] and len(sf) == sf_calls, l

    @pytest.mark.parametrize("case", ["fig6_nb3_nr2_u3", "fig6_nb2_nr1_mu1_u2"])
    def test_rel_tol_reaches_the_floor(self, case, monkeypatch):
        cfg, l = _FLOOR_CASES[case]
        monkeypatch.setattr(analytic, "_DE_REL_TOL", 1e-6)
        loose = asymptotic_outage_practical(cfg, l).value
        monkeypatch.setattr(analytic, "_DE_REL_TOL", 1e-12)
        tight = asymptotic_outage_practical(cfg, l).value
        assert loose == pytest.approx(tight, abs=1e-6)


class TestQuadratureFailureTexts:
    """Each caller of the exp-sinh driver words its own error, a plain
    NumericsError."""

    def test_exact_entry_whose_integrand_does_not_decay(self):
        cfg = replace(BASE, mu=0.5, alpha_si=1e-20)
        (err,) = exact_outage_sweep([(cfg, 15.0, 1, None)])
        assert type(err) is NumericsError
        assert str(err) == ("phi quadrature failed for term l=1 snr=15.0 pole=0.0625 k2=0 "
                            "e_pi=0.5 nu=1 p=2: the integrand does not decay within the node span")

    def test_phi_term_whose_levels_never_agree(self, monkeypatch):
        monkeypatch.setattr(analytic, "_DE_MAX_LEVEL", 1)
        with pytest.raises(NumericsError) as exc:
            phi_integral_log(z_power=1.0, pi_power=0.5, pi_shift=1.0, decay=1.0,
                             bessel_coeff=1.0, order=1)
        assert type(exc.value) is NumericsError
        assert str(exc.value) == ("phi quadrature failed for row z_power=1.0 pi_power=0.5 "
                                  "pi_shift=1.0 decay=1.0 bessel_coeff=1.0 order=1: "
                                  "no two levels agreed to 1e-10 by step 0.25")

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_floor_whose_levels_never_agree(self, l, monkeypatch):
        monkeypatch.setattr(analytic, "_DE_MAX_LEVEL", 1)
        with pytest.raises(NumericsError) as exc:
            asymptotic_outage_practical(_FIG6["nb2_nr1"], l)
        assert type(exc.value) is NumericsError
        assert str(exc.value) == ("floor quadrature failed: no two levels agreed to 1e-10 "
                                  "by step 0.25")


_BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def test_benchmark_reference_values():
    """Every exact and fd_oma value pinned in bench/reference.json (read
    only), recomputed: the benchmark judges its cells against these."""
    pinned = json.loads(_BENCH_REFERENCE.read_text())["values"]
    # (workload, variant label) -> the config and SNR at one axis value
    points = {("validate_par", "default"): lambda x: (SystemConfig(), x)}
    for workload, preset in (("fig7_exact", "fig7"), ("fig11_mc", "fig11")):
        for v in figure_preset(preset):
            points[(workload, v.label)] = lambda x, v=v: v.sweep.point(v.config, x)
    for workload, values in pinned.items():
        for key, ref in values.items():
            label, x, user, event = key.split()
            cfg, snr = points[(workload, label)](float(x))
            l = int(user)
            if event == "exact":
                got = exact_outage(cfg, snr, l).value
            else:
                lam = map_baseline_thresholds(cfg, event)[l - 1]
                got = analytic.exact_outage_for_lambda(cfg, snr, l, lam).value
            assert abs(got - ref) <= 1e-12, (workload, key, got, ref)


def test_benchmark_reference_keys_are_the_preset_grids():
    """bench/ looks each cell's reference value up by the repr of its preset
    grid point (fig7's "0", not "0.0"), so every point of each variant's
    grid, and no other, keys bench/reference.json (read only)."""
    pinned = json.loads(_BENCH_REFERENCE.read_text())["values"]
    for workload, preset in (("fig7_exact", "fig7"), ("fig11_mc", "fig11")):
        for v in figure_preset(preset):
            tokens = {x for label, x, *_ in map(str.split, pinned[workload]) if label == v.label}
            assert tokens == {repr(x) for x in v.sweep.grid}, (workload, v.label)
