"""Configuration validation, derived statistics and threshold algebra."""

import math
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import j0

from fdnoma.errors import ConfigError, ImpairmentError, InfeasibleAllocationError, NumericsError
from fdnoma.sysmodel import (
    _ALL_KEYS,
    _ARRAY_FLOAT,
    _MAX_N_B,
    _MAX_N_USERS,
    _SCALAR_FLOAT,
    _SCALAR_INT,
    SystemConfig,
    _bessel_j0,
    _correlation,
    check_user,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    dump_config,
    load_config,
    loads_config,
    map_baseline_thresholds,
    snr_linear,
)

BASE = SystemConfig()


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.n_users == 3
        assert sum(cfg.a) == pytest.approx(1.0, abs=1e-15)

    def test_power_sum_enforced(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            SystemConfig(a=(0.5, 0.3, 0.3))

    def test_power_ordering_enforced(self):
        with pytest.raises(ConfigError, match="decreasing"):
            SystemConfig(a=(1 / 3, 1 / 3 + 1e-9, 1 / 3 - 1e-9))

    def test_two_antennas_required(self):
        with pytest.raises(ConfigError, match="n_b"):
            SystemConfig(n_b=1)

    def test_feasibility_eager(self):
        with pytest.raises(InfeasibleAllocationError) as err:
            SystemConfig(a=(0.5, 0.3, 0.2), gamma_th=(0.9, 2.0, 2.0))
        assert err.value.user == 2

    def test_array_lengths(self):
        with pytest.raises(ConfigError, match="m_ru"):
            SystemConfig(m_ru=(1, 1))

    def test_mu_range(self):
        with pytest.raises(ConfigError):
            SystemConfig(mu=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", _SCALAR_FLOAT + _ARRAY_FLOAT)
    def test_non_finite_value_rejected(self, name, bad):
        # NaN passes a comparison, and inf most range checks: both reached
        # the engines, which printed zeros or crashed
        value = bad
        if name in _ARRAY_FLOAT:
            value = (getattr(BASE, name)[0], bad, *getattr(BASE, name)[2:])
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
            replace(BASE, **{name: value})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
    @pytest.mark.parametrize("name", _SCALAR_INT)
    def test_count_must_be_an_integer(self, name, bad):
        # n_r=1.5 gave Monte Carlo a meaningless Gamma shape and the exact
        # form a bare TypeError; n_users=True asked for True tuple entries
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {bad!r}$"):
            replace(BASE, **{name: bad})

    @pytest.mark.parametrize("name,limit", [("n_b", _MAX_N_B), ("n_users", _MAX_N_USERS)])
    def test_count_above_its_limit_rejected(self, name, limit):
        # n_b = 10**6 would make a Monte Carlo block of (16384, 10**6) draws
        for bad in (limit + 1, 10**6, 10**400):
            with pytest.raises(ConfigError, match=f"^{name} must be <= {limit}, got {bad}$"):
                replace(BASE, **{name: bad})

    def test_count_beyond_the_float_range_rejected(self):
        # n_r = 10**400 overflowed in the finiteness check with a traceback
        message = r"^n_r must be <= 1\.7976931348623157e\+308, got 10{400}$"
        with pytest.raises(ConfigError, match=message):
            replace(BASE, n_r=10**400)
        assert replace(BASE, n_r=10**300).n_r == 10**300

    @pytest.mark.parametrize("name,value,shown", [
        ("mu", 10**400, "1" + "0" * 400),
        ("d_ru", (10**400, 0.5, 0.5), f"\\(1{'0' * 400}, 0\\.5, 0\\.5\\)"),
        ("eta", -10**5000, "an integer of 16610 bits"),
    ], ids=["mu", "d_ru", "too_long_to_print"])
    def test_int_beyond_the_float_range_in_a_float_field_rejected(self, name, value, shown):
        # isfinite overflowed with a traceback
        with pytest.raises(ConfigError, match=f"^{name} must lie within the float range, "
                                              f"got {shown}$"):
            replace(BASE, **{name: value})

    def test_count_too_long_to_print_rejected(self):
        # formatting the message hit Python's int-to-str digit limit
        message = r"^n_r must be <= 1\.7976931348623157e\+308, got an integer of 16610 bits$"
        with pytest.raises(ConfigError, match=message):
            replace(BASE, n_r=10**5000)
        with pytest.raises(ConfigError, match="^n_b must be >= 2, got an integer of 16610 bits$"):
            replace(BASE, n_b=-10**5000)

    def test_counts_at_their_limits_accepted(self):
        L = _MAX_N_USERS
        a = [3.0**-k for k in range(L)]
        cfg = replace(BASE, n_b=_MAX_N_B, n_users=L, a=tuple(x / sum(a) for x in a),
                      gamma_th=(0.5,) * L, m_ru=(1,) * L, d_ru=(0.5,) * L,
                      sigma2_est_ru=(0.0,) * L, fd_tau_ru=(0.0,) * L)
        assert (cfg.n_b, cfg.n_users) == (_MAX_N_B, _MAX_N_USERS)

    def test_numpy_integer_count_accepted(self):
        cfg = replace(BASE, n_b=np.int64(3), n_r=np.int32(2), n_users=np.int64(3))
        assert (cfg.n_b, cfg.n_r, cfg.n_users) == (3, 2, 3)

    @pytest.mark.parametrize("kw", [dict(d_sr=1e-80), dict(d_ru=(0.5, 1e-80, 0.5)),
                                    dict(d_sr=1e200), dict(d_sr=0.1, eta=400.0)],
                             ids=["overflow", "user", "underflow", "eta"])
    def test_mean_power_outside_the_float_range_rejected(self, kw):
        # d^-eta overflowed with a traceback, or underflowed to zero
        with pytest.raises(ConfigError, match="outside the float range"):
            replace(BASE, **kw)

    @pytest.mark.parametrize("k", [0, -1, 4, 1.0, True])
    def test_feasibility_margin_checks_the_stage(self, k):
        with pytest.raises(ConfigError, match=re.escape(f"user index {k!r} out of range 1..3")):
            BASE.feasibility_margin(k)


class TestLinkStats:
    def test_pathloss_and_clean_estimates(self):
        st = derive_link_stats(BASE, 10.0)
        assert st.omega_sr == pytest.approx(16.0)
        assert st.omega_hat_sr == pytest.approx(16.0)
        assert st.omega_ru[0] == pytest.approx(16.0)

    def test_no_doppler_means_unit_correlation(self):
        st = derive_link_stats(BASE, 10.0)
        assert st.rho_sr == 1.0
        assert st.sigma2_sr == 0.0

    def test_si_power_flat_at_mu_one(self):
        cfg = replace(BASE, mu=1.0, alpha_si=1.0)
        for snr in (1.0, 100.0, 1e5):
            assert derive_link_stats(cfg, snr).omega_rr == pytest.approx(1.0)

    def test_si_power_scales_with_mu(self):
        cfg = replace(BASE, mu=0.25, alpha_si=2.0)
        st = derive_link_stats(cfg, 100.0)
        assert st.omega_rr == pytest.approx(2.0 * 100.0 ** (-0.75))

    def test_distance_scaling(self):
        near = derive_link_stats(BASE, 1.0)
        far = derive_link_stats(replace(BASE, d_sr=1.0, d_ru=(1.0,) * 3), 1.0)
        assert far.omega_sr == pytest.approx(near.omega_sr * 2.0**-4)

    def test_si_power_outside_the_float_range_raises(self):
        with pytest.raises(NumericsError, match="SI power 0.0, outside the float range"):
            derive_link_stats(replace(BASE, alpha_si=1e-300), 1e150)

    @pytest.mark.parametrize("snr_db", [3100.0, -3300.0, 1541.3, -1538.3, math.nan])
    def test_snr_outside_the_float_range_raises(self, snr_db):
        # 10^(snr_db/10) overflowed with a traceback, or underflowed to 0
        with pytest.raises(NumericsError, match=f"^snr_db={snr_db} is outside "):
            snr_linear(snr_db)

    def test_snr_inside_the_float_range(self):
        assert snr_linear(1541.2) ** 2 < math.inf and snr_linear(-1538.2) ** 2 >= sys.float_info.min
        assert snr_linear(15.0) == 10.0 ** 1.5

    def test_excessive_estimation_error(self):
        with pytest.raises(ImpairmentError):
            derive_link_stats(replace(BASE, sigma2_est_sr=20.0), 1.0)

    def test_combined_variance(self):
        cfg = replace(BASE, sigma2_est_sr=0.01, fd_tau_sr=0.03)
        st = derive_link_stats(cfg, 10.0)
        rho = j0(2 * math.pi * 0.03)
        assert st.rho_sr == pytest.approx(rho)
        assert st.sigma2_sr == pytest.approx(0.01 + (1 - rho**2) * (16.0 - 0.01))


class TestCorrelation:
    """J_0 by the trapezoid rule (and the Hankel expansion beyond x = 1000)
    against scipy's j0 and mpmath, and the feedback-delay correlation's
    accepted set."""

    def test_j0_matches_scipy_to_rounding(self):
        x = np.linspace(0.0, 20.0, 4001)
        got = np.array([_bessel_j0(float(xi)) for xi in x])
        assert np.max(np.abs(got - j0(x))) <= 1e-15

    def test_j0_far_argument_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        x = [800.0, 999.9, 1000.0, math.nextafter(1000.0, 2000.0), 1234.5, 1e5, 3.3e7, 1e12]
        with mp.workdps(30):
            for xi in x:
                # J_0 falls as sqrt(2 / (pi x)); the error is judged on that scale
                err = abs(_bessel_j0(xi) - float(mp.besselj(0, xi))) * math.sqrt(xi)
                assert err <= 5e-14, xi

    def test_accepted_fd_tau_set_matches_scipy(self):
        fd_tau = np.linspace(0.0, 1.5, 3001)
        accepted = []
        for f in fd_tau:
            try:
                _correlation(float(f), "fd_tau_sr")
                accepted.append(True)
            except ImpairmentError:
                accepted.append(False)
        accepted = np.array(accepted)
        assert np.array_equal(accepted, j0(2 * math.pi * fd_tau) > 0)
        # the grid covers the first zero and the positive lobe beyond the second
        assert not accepted[(fd_tau > 0.39) & (fd_tau < 0.87)].any()
        assert accepted[(fd_tau > 0.88) & (fd_tau < 1.37)].all()


class TestTheta:
    def test_all_ones_under_ideal_conditions(self):
        st = derive_link_stats(BASE, 123.0)
        th = compute_theta(st, 123.0, 1)
        for name in ("theta1", "theta2", "theta3", "theta4", "theta5", "thetap4"):
            assert getattr(th, name) == pytest.approx(1.0, abs=1e-15), name

    def test_hand_computed_theta2(self):
        # sigma2_sr = 0.02 with rho = 1 at snr 100: theta2 = 100*0.02/2 + 1 = 2
        cfg = replace(BASE, sigma2_est_sr=0.02)
        st = derive_link_stats(cfg, 100.0)
        th = compute_theta(st, 100.0, 1)
        assert th.theta2 == pytest.approx(2.0, rel=1e-14)

    def test_high_snr_limit_ratio(self):
        cfg = replace(BASE, sigma2_est_sr=0.01, sigma2_est_ru=(0.01,) * 3,
                      fd_tau_sr=0.03, fd_tau_ru=(0.03,) * 3)
        g = 1e6
        st = derive_link_stats(cfg, g)
        th = compute_theta(st, g, 2)
        assert th.theta2 / (g * st.sigma2_sr / (2 * st.rho_sr**2)) == pytest.approx(1.0, rel=1e-3)
        assert th.theta1 / (g * st.sigma2_ru[1] / (2 * st.rho_ru[1] ** 2)) == pytest.approx(
            1.0, rel=1e-3
        )

    @pytest.mark.parametrize("l", [0, -1, 4, 2.0, None, True])
    def test_user_index_outside_the_users_rejected(self, l):
        # l = 0 used to give user 3's constants, and l = True user 1's
        message = re.escape(f"user index {l!r} out of range 1..3")
        with pytest.raises(ConfigError, match=message):
            check_user(l, 3)
        with pytest.raises(ConfigError, match=message):
            compute_theta(derive_link_stats(BASE, 10.0), 10.0, l)

    def test_user_index_inside_the_users_accepted(self):
        for l in (1, 2, 3, np.int64(3)):
            check_user(l, 3)

    def test_monotone_degradation(self):
        g = 50.0
        base_cfg = replace(BASE, sigma2_est_sr=0.005, sigma2_est_ru=(0.005,) * 3)
        th0 = compute_theta(derive_link_stats(base_cfg, g), g, 1)
        worse_est = replace(base_cfg, sigma2_est_sr=0.02, sigma2_est_ru=(0.02,) * 3)
        th1 = compute_theta(derive_link_stats(worse_est, g), g, 1)
        worse_rho = replace(base_cfg, fd_tau_sr=0.05, fd_tau_ru=(0.05,) * 3)
        th2 = compute_theta(derive_link_stats(worse_rho, g), g, 1)
        for name in ("theta1", "theta2", "theta3", "theta4", "theta5"):
            assert getattr(th1, name) >= getattr(th0, name), name
            assert getattr(th2, name) >= getattr(th0, name), name


class TestDeltas:
    def test_last_user_empty_interference_sum(self):
        cfg = replace(BASE, gamma_th=(0.9, 1.5, 2.0))
        ds = compute_deltas(cfg, 1.0)
        assert ds.delta[2] == pytest.approx(2.0 / (1.0 / 6.0), rel=1e-14)

    def test_first_user_hand_value(self):
        ds = compute_deltas(BASE, 10.0)
        assert ds.delta[0] == pytest.approx(0.9 / (10.0 * (0.5 - 0.9 * 0.5)), rel=1e-14)
        assert ds.delta[0] == pytest.approx(1.8, rel=1e-14)

    def test_infeasible_names_user(self):
        cfg_kwargs = dict(a=(0.5, 0.3, 0.2), gamma_th=(0.9, 2.0, 2.0))
        with pytest.raises(InfeasibleAllocationError) as err:
            SystemConfig(**cfg_kwargs)
        assert err.value.user == 2
        assert err.value.margin == pytest.approx(0.3 - 2.0 * 0.2)

    def test_snr_independence_of_lambda(self):
        ref = None
        for snr_db in np.arange(0.0, 60.1, 5.0):
            ds = compute_deltas(BASE, 10 ** (snr_db / 10))
            if ref is None:
                ref = ds.lambda_dag
            else:
                for a, b in zip(ref, ds.lambda_dag):
                    assert b == pytest.approx(a, rel=1e-12)

    def test_delta_dag_nondecreasing(self):
        ds = compute_deltas(BASE, 31.6)
        assert ds.delta_dag[0] <= ds.delta_dag[1] <= ds.delta_dag[2]


class TestBaselineThresholds:
    def test_fd_oma_product(self):
        thr = map_baseline_thresholds(BASE, "fd_oma")
        assert thr[0] == pytest.approx(1.9 * 2.5 * 3.0 - 1.0, rel=1e-14)
        assert len(set(thr)) == 1

    def test_hd_squared(self):
        # the rate-matched rule is a config of its own thresholds, not an option
        with pytest.raises(TypeError):
            map_baseline_thresholds(BASE, "hd_noma", "squared")

    def test_hd_equal_mode(self):
        assert map_baseline_thresholds(BASE, "hd_noma") == BASE.gamma_th

    def test_hd_rule_defaults_to_equal(self):
        # any config's own thresholds, the squared ones included
        cfg = replace(BASE, a=(0.8, 0.17, 0.03), gamma_th=(1.9**2 - 1, 2.5**2 - 1, 3.0**2 - 1))
        assert map_baseline_thresholds(cfg, "hd_noma") == cfg.gamma_th

    def test_unknown_baseline(self):
        with pytest.raises(ValueError):
            map_baseline_thresholds(BASE, "tdma")


class TestConfigFile:
    def test_round_trip(self):
        cfg = replace(BASE, n_b=3, mu=0.3, sigma2_est_ru=(0.01, 0.02, 0.03))
        assert loads_config(dump_config(cfg)) == cfg

    def test_keys_are_the_fields(self):
        assert sorted(_ALL_KEYS) == sorted(f.name for f in fields(SystemConfig))

    def test_default_text_pins_the_key_order(self):
        assert dump_config(BASE) == (
            "n_b = 2\nn_r = 1\nn_users = 3\n"
            "m_sr = 1\nm_rr = 1\nd_sr = 0.5\neta = 4\nmu = 0.25\nalpha_si = 1\n"
            "sigma2_est_sr = 0\nfd_tau_sr = 0\n"
            "m_ru = 1, 1, 1\nd_ru = 0.5, 0.5, 0.5\n"
            "a = 0.5, 0.33333333333333331, 0.16666666666666666\n"
            "gamma_th = 0.90000000000000002, 1.5, 2\n"
            "sigma2_est_ru = 0, 0, 0\nfd_tau_ru = 0, 0, 0\n"
        )

    def test_round_trip_is_byte_stable(self):
        text = dump_config(BASE)
        assert dump_config(loads_config(text)) == text

    def test_parse_error_cites_line_and_key(self):
        with pytest.raises(ConfigError, match=r"string>:2.*n_b"):
            loads_config("n_users = 3\nn_b = two\n")

    def test_unknown_key_cites_line(self):
        with pytest.raises(ConfigError, match=r":1: unknown key 'bogus'"):
            loads_config("bogus = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r":1: expected"):
            loads_config("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads_config("n_b = 2\nn_b = 3\n")

    def test_file_loading(self, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text(dump_config(BASE))
        assert load_config(str(path)) == BASE

    def test_comments_and_blanks(self):
        text = "# comment\n\nn_b = 3  # trailing\n"
        cfg = loads_config(text)
        assert cfg.n_b == 3
