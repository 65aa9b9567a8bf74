"""Sampler marginals, SINR evaluation, reproducibility, baselines and the
order laws of the sweep rows."""

import io
import math
import re
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

import fdnoma.mcsim as mcsim
from fdnoma.cli import run_sweep
from fdnoma.errors import ConfigError, FdnomaError, ImpairmentError, InfeasibleAllocationError
from fdnoma.mcsim import (
    sample_first_hop,
    sample_second_hop,
    sample_si_gain,
    simulate_baseline,
    simulate_outage,
    simulate_outage_all,
    simulate_sweep,
    wilson_interval,
)
from fdnoma.presets import SweepSpec, linear_grid
from fdnoma.sysmodel import (
    SystemConfig,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    map_baseline_thresholds,
)
from waveform import FixedChannels, predicted_sinr

BASE = SystemConfig()
STATS = derive_link_stats(BASE, 10.0)


class TestStandardGamma:
    @pytest.mark.parametrize("shape", [1, 1.0, 0.5, 2.5])
    def test_draws_and_state_equal_standard_gamma(self, shape):
        # at shape 1 the helper calls standard_exponential(out=), which
        # numpy's standard_gamma(1.0) calls per element
        ours, ref = np.random.default_rng(12), np.random.default_rng(12)
        x = mcsim._standard_gamma(ours, shape, np.empty(10_001))
        y = ref.standard_gamma(shape, size=10_001)
        assert np.array_equal(_bits(x), _bits(y))
        assert ours.bit_generator.state == ref.bit_generator.state


class TestSamplers:
    def test_two_antenna_sum_mean(self):
        rng = np.random.default_rng(1)
        a = sample_first_hop(BASE, STATS, rng, 1_000_000)
        se = a.std() / math.sqrt(a.size)
        assert abs(a.mean() - 2 * STATS.omega_hat_sr) < 3 * se

    def test_selection_against_full_sort_oracle(self):
        cfg3 = replace(BASE, n_b=3)
        rng = np.random.default_rng(2)
        a = sample_first_hop(cfg3, STATS, rng, 200_000)
        # identical draws through the naive full-sort oracle
        oracle_rng = np.random.default_rng(2)
        g = oracle_rng.gamma(cfg3.m_sr, STATS.omega_hat_sr / cfg3.m_sr, size=(200_000, 3))
        g.sort(axis=1)
        assert np.allclose(a, g[:, -1] + g[:, -2])
        # exponential order statistics: E[sum of two largest of 3] = (4/3+4/3)... = (8/3) mean/2
        expect = STATS.omega_hat_sr * (11.0 / 6.0 + 5.0 / 6.0)
        se = a.std() / math.sqrt(a.size)
        assert abs(a.mean() - expect) < 3.5 * se

    def test_mean_scales_with_power(self):
        rng = np.random.default_rng(3)
        a1 = sample_first_hop(BASE, STATS, rng, 400_000).mean()
        boosted = derive_link_stats(replace(BASE, d_sr=0.5 / 2**0.25), 10.0)  # doubles omega
        rng = np.random.default_rng(3)
        a2 = sample_first_hop(BASE, boosted, rng, 400_000).mean()
        assert a2 / a1 == pytest.approx(2.0, rel=2e-3)

    def test_single_user_gain_is_gamma(self):
        cfg = replace(BASE, n_users=1, m_ru=(2,), d_ru=(0.5,), a=(1.0,), gamma_th=(0.9,),
                      sigma2_est_ru=(0.0,), fd_tau_ru=(0.0,), n_r=2)
        st = derive_link_stats(cfg, 10.0)
        rng = np.random.default_rng(4)
        b = sample_second_hop(cfg, st, rng, 400_000)[:, 0]
        shape = cfg.m_ru[0] * cfg.n_r
        scale = st.omega_hat_ru[0] / cfg.m_ru[0]
        res = kstest(b, gamma_dist(a=shape, scale=scale).cdf)
        assert res.pvalue > 0.01

    def test_min_of_three_exponentials_mean(self):
        rng = np.random.default_rng(5)
        b = sample_second_hop(BASE, STATS, rng, 1_000_000)
        se = b[:, 0].std() / 1000.0
        assert abs(b[:, 0].mean() - STATS.omega_hat_ru[0] / 3.0) < 3 * se

    def test_ordering(self):
        rng = np.random.default_rng(6)
        b = sample_second_hop(BASE, STATS, rng, 1000)
        assert np.all(b[:, 0] <= b[:, 1]) and np.all(b[:, 1] <= b[:, 2])

    def test_second_hop_equals_scaled_full_sort(self):
        cfg = replace(BASE, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03))
        stats = derive_link_stats(cfg, 10.0)
        b = sample_second_hop(cfg, stats, np.random.default_rng(8), 50_000)
        rng = np.random.default_rng(8)
        ref = np.stack([rng.standard_gamma(m * cfg.n_r, size=50_000) for m in cfg.m_ru], axis=1)
        ref = ref * np.array([om / m for om, m in zip(stats.omega_hat_ru, cfg.m_ru)])
        ref.sort(axis=1)
        assert b.shape == (50_000, 3)
        assert np.array_equal(b, ref)

    def test_si_gain_marginal(self):
        rng = np.random.default_rng(7)
        c = sample_si_gain(BASE, STATS, rng, 400_000)
        res = kstest(c, gamma_dist(a=BASE.m_rr, scale=STATS.omega_rr / BASE.m_rr).cdf)
        assert res.pvalue > 0.01


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


# nonnegative and NaN-free, like every gain; a few fixed values force ties
_gains = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1.0, 1.5]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


class TestOrderStatisticKernels:
    @settings(deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, st.tuples(st.just(n), st.integers(1, 40)), elements=_gains)))
    def test_sort_rows_equals_np_sort(self, x):
        ref = np.sort(x, axis=0)
        mcsim._sort_rows(x, np.empty(x.shape[1]))
        assert np.array_equal(_bits(x), _bits(ref))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sort_rows_on_block_views(self, n):
        block = mcsim.BLOCK_TRIALS
        x = np.round(np.random.default_rng(9).standard_gamma(1.0, size=(n, 2 * block + 123)), 2)
        ref = np.sort(x, axis=0)
        tmp = np.empty(block)
        for lo in range(0, x.shape[1], block):
            view = x[:, lo:lo + block]
            mcsim._sort_rows(view, tmp[:view.shape[1]])
        assert np.array_equal(_bits(x), _bits(ref))

    @pytest.mark.parametrize("m_sr", [0.5, 1, 2.5])
    @pytest.mark.parametrize("n_b", [2, 3, 4, 5, 6])
    def test_top2_equals_partition_reference(self, n_b, m_sr):
        g = np.random.default_rng((10, n_b)).standard_gamma(m_sr, size=(20_000, n_b))
        top = mcsim._top2(g, np.empty((2, 20_000)))
        g.partition(n_b - 2, axis=1)
        assert top.shape == (2, 20_000)
        assert np.array_equal(top[0], g[:, -2]) and np.array_equal(top[1], g[:, -1])

    @pytest.mark.parametrize("n_b", [2, 3, 4, 6])
    def test_top2_equals_sorted_reference_across_blocks(self, n_b):
        # views of BLOCK_TRIALS rows, as _sweep_chunk passes them; the last
        # block is short
        size = 2 * mcsim.BLOCK_TRIALS + 123
        g = np.random.default_rng((11, n_b)).standard_gamma(2.5, size=(size, n_b))
        top = np.empty((2, size))
        for lo in range(0, size, mcsim.BLOCK_TRIALS):
            mcsim._top2(g[lo:lo + mcsim.BLOCK_TRIALS], top[:, lo:lo + mcsim.BLOCK_TRIALS])
        assert np.array_equal(_bits(top), _bits(np.sort(g, axis=1)[:, -2:].T))


def gains(a: float, b, c: float, n_r: int = 1) -> FixedChannels:
    """Fixed channels whose first-hop sum is a, user l's combined gain b[l-1]
    and SI gain c."""
    return FixedChannels(h_sr=(math.sqrt(a), 0.0),
                         h_ru=tuple((math.sqrt(x),) + (0.0,) * (n_r - 1) for x in b), si_gain=c)


class TestEvaluateSinr:
    """The scalar per-stage SINR model, waveform.predicted_sinr."""

    def test_hand_computed_single_user(self):
        # ideal, A=B=1, C=0, snr 2: denominator = 2 + 2 + 0 + 0 + 1
        cfg = replace(BASE, n_users=1, m_ru=(1,), d_ru=(0.5,), a=(1.0,), gamma_th=(0.9,),
                      sigma2_est_ru=(0.0,), fd_tau_ru=(0.0,))
        out = predicted_sinr(cfg, gains(1.0, (1.0,), 0.0), 10.0 * math.log10(2.0), 1)
        assert out[0] == pytest.approx(2.0 / 5.0, rel=1e-14)

    def test_interference_limited_ceiling(self):
        out = predicted_sinr(BASE, gains(1e12, (1e12, 1e12, 1e12), 0.0), 20.0, 3)
        for k in (1, 2):
            ceiling = BASE.a[k - 1] / sum(BASE.a[k:])
            assert out[k - 1] == pytest.approx(ceiling, rel=1e-3)

    def test_monotone_in_stage_thresholded_event(self):
        out = predicted_sinr(BASE, gains(20.0, (4.0, 9.0, 28.0), 0.2), 10.0, 3)
        assert len(out) == 3
        assert all(g >= 0 for g in out)

    @pytest.mark.parametrize("si", [False, True], ids=["no_si", "si"])
    @pytest.mark.parametrize("cfg", [
        BASE,
        replace(BASE, n_r=2, sigma2_est_sr=0.01, sigma2_est_ru=(0.02,) * 3,
                fd_tau_sr=0.03, fd_tau_ru=(0.05,) * 3),
        replace(BASE, a=(0.761, 0.191, 0.048), gamma_th=(2.0, 2.5, 3.0), sigma2_est_sr=0.048,
                sigma2_est_ru=(0.048,) * 3),
    ], ids=["ideal", "cee_fbd", "cee_testbed"])
    def test_joint_sic_event_is_one_threshold_per_user(self, cfg, si):
        # user l is in outage when any stage k <= l has gamma_{k->l} <= gamma_th_k;
        # both engines test the single inequality (gbar^2/2) a b <= Lambda+_l d0
        # instead.  On the ideal configs Lambda+_3 = 18 comes from stages 1
        # and 2 (stage 3 alone gives 12): a test of the last stage alone
        # differs on ~5% of these states.
        snr_db = 12.0
        g = 10.0 ** (snr_db / 10.0)
        stats = derive_link_stats(cfg, g)
        lam = compute_deltas(cfg, g).lambda_dag
        rng = np.random.default_rng(2024)
        flags = {l: [] for l in range(1, cfg.n_users + 1)}
        for _ in range(800):
            a = float(np.exp(rng.uniform(0.0, 7.0)))
            b = sorted(np.exp(rng.uniform(0.0, 7.0, cfg.n_users)).tolist())
            c = float(np.exp(rng.uniform(-6.0, 0.0))) if si else 0.0
            channels = gains(a, b, c, cfg.n_r)
            for l, seen in flags.items():
                stages = predicted_sinr(cfg, channels, snr_db, l)
                per_stage = any(gk <= th for gk, th in zip(stages, cfg.gamma_th))
                th = compute_theta(stats, g, l)
                bl = b[l - 1]
                d0 = (th.theta1 * g * a + th.theta2 * g * bl + th.theta3 * g * c
                      + th.theta4 * g**2 * bl * c + th.theta5)
                seen.append((per_stage, g**2 / 2 * a * bl <= lam[l - 1] * d0))
        for l, seen in flags.items():
            per_stage, joint = np.array(seen).T
            assert np.array_equal(per_stage, joint), l
            assert 0.05 < per_stage.mean() < 0.95, l


class TestWilson:
    def test_brackets_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_small_probability_stays_positive(self):
        lo, hi = wilson_interval(0, 10_000, conf=0.99)
        assert lo == 0.0 and 0.0 < hi < 1e-3

    @pytest.mark.parametrize("trials", [1, 2, 7, 100, 10_000, 1_000_000, 10**9])
    @pytest.mark.parametrize("conf", [0.5, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9])
    def test_ends_exact_at_no_and_all_successes(self, trials, conf):
        lo, hi = wilson_interval(0, trials, conf)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(trials, trials, conf)
        assert 0.0 < lo < 1.0 and hi == 1.0

    def test_z_is_the_normal_quantile(self):
        # the interval's z, statistics.NormalDist's quantile, against the
        # 40-digit quantile and against scipy's ndtri (each within 3.7 ulp of
        # the exact value on this grid, so within 8 of each other)
        mp = pytest.importorskip("mpmath")
        conf = np.concatenate([np.linspace(0.5, 0.999, 500), 1.0 - np.geomspace(1e-3, 1e-9, 200)])
        p = 0.5 + conf / 2.0
        z = np.array([statistics.NormalDist().inv_cdf(pi) for pi in p])
        with mp.workdps(40):
            exact = np.array([float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(pi) - 1)) for pi in p])
        assert np.all(np.abs(z - exact) <= 4 * np.spacing(exact))
        assert np.all(np.abs(z - ndtri(p)) <= 8 * np.spacing(exact))

    def test_interval_is_the_score_interval(self):
        # a transcription of the Wilson score interval with scipy's z
        for k, n, conf in ((37, 1000, 0.95), (1, 20_000, 0.99), (19_999, 20_000, 0.9)):
            z = ndtri(0.5 + conf / 2.0)
            centre = (k + z * z / 2) / (n + z * z)
            half = z * math.sqrt(k * (n - k) / n + z * z / 4) / (n + z * z)
            assert wilson_interval(k, n, conf) == pytest.approx((centre - half, centre + half),
                                                                rel=1e-13)

    @pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 10), (11, 10), (-1, 1),
                                                   (5.5, 10), (True, 10), (1, True), (1, 10.0)])
    def test_impossible_counts_rejected(self, successes, trials):
        if type(successes) is int and type(trials) is int:
            with pytest.raises(ValueError, match=f"got {successes} of {trials} trials"):
                wilson_interval(successes, trials)
        else:  # a bool or a float is not a count
            with pytest.raises(TypeError, match="must be an integer"):
                wilson_interval(successes, trials)

    @pytest.mark.parametrize("conf", [1.0, 1.5, -1.0, 0.0, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, conf):
        with pytest.raises(ValueError, match="confidence level"):
            wilson_interval(5, 10, conf)

    def test_calibration(self):
        # coverage of the 95% interval at a point with known exact outage;
        # the band [93%, 97%] is about +-1.3 binomial sigmas wide at 200
        # runs, so this is a seeded draw (neighboring seed bases measured
        # 92.5-96.5%, consistent with nominal coverage)
        from fdnoma.analytic import exact_outage

        truth = exact_outage(BASE, 10.0, 2).value
        covered = 0
        runs = 200
        for seed in range(1000, 1000 + runs):
            pt = simulate_outage(BASE, 10.0, 2, 20_000, seed=seed)
            lo, hi = pt.ci
            covered += lo <= truth <= hi
        assert 0.93 * runs <= covered <= 0.97 * runs


class TestSimulateOutage:
    def test_zero_thresholds_never_fail(self):
        cfg = replace(BASE, gamma_th=(1e-12, 1e-12, 1e-12))
        pt = simulate_outage(cfg, 10.0, 1, 50_000, seed=1)
        assert pt.value == 0.0

    @pytest.mark.parametrize("l", [0, -1, 4, 1.0, True])
    def test_user_index_outside_the_users_rejected(self, l, monkeypatch):
        # l = 0 and -1 used to return users 3 and 2; nothing is drawn
        monkeypatch.setattr(mcsim, "_sweep_chunk", None)
        with pytest.raises(ConfigError, match=re.escape(f"user index {l!r} out of range 1..3")):
            simulate_outage(BASE, 20.0, l, 10_000)
        with pytest.raises(ConfigError, match=re.escape(f"user index {l!r} out of range 1..3")):
            simulate_baseline(BASE, 20.0, l, "fd_oma", 10_000)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            simulate_outage(BASE, 10.0, 1, 100, seed=1)

    def test_deterministic_across_worker_counts(self):
        res = [
            simulate_outage(BASE, 10.0, 2, 2_500_000, seed=9, workers=w).value
            for w in (1, 2, 4)
        ]
        assert res[0] == res[1] == res[2]

    @pytest.mark.parametrize("trials", [1e5, 100000.5, True])
    def test_float_trials_rejected(self, trials):
        with pytest.raises(TypeError, match="trials must be an integer >= 10000"):
            simulate_outage_all(BASE, 10.0, trials)

    def test_numpy_integer_trials_accepted(self):
        a = simulate_outage_all(BASE, 10.0, np.int64(20_000), seed=11)
        assert a == simulate_outage_all(BASE, 10.0, 20_000, seed=11)

    def test_repeatable(self):
        a = simulate_outage(BASE, 10.0, 2, 50_000, seed=11)
        b = simulate_outage(BASE, 10.0, 2, 50_000, seed=11)
        assert a.value == b.value and a.ci == b.ci

    def test_stochastic_dominance_threshold_dominated(self):
        # when the per-stage thresholds dominate (test-bed protocol: the
        # normalized thresholds Lambda+ are 7.1, 35.2, 62.5), weaker-power
        # users fail more often
        cfg = replace(
            BASE,
            a=(0.761, 0.191, 0.048),
            gamma_th=(2.0, 2.5, 3.0),
            mu=0.0,
        )
        res = simulate_outage_all(cfg, 15.0, 500_000, seed=13)["monte_carlo"]
        assert res[0].value <= res[1].value <= res[2].value

    def test_order_statistics_dominate_with_tied_thresholds(self):
        # the baseline allocation ties Lambda+ at 18 for every user, so the
        # ordering is driven purely by the sorted second-hop gains and the
        # strongest-ordered user (l = 3) fails least
        res = simulate_outage_all(BASE, 15.0, 500_000, seed=13)["monte_carlo"]
        assert res[0].value >= res[1].value >= res[2].value

    def test_ci_attached_and_brackets(self):
        pt = simulate_outage(BASE, 15.0, 2, 50_000, seed=15)
        assert pt.ci is not None and pt.ci[0] <= pt.value <= pt.ci[1]
        assert pt.method == "monte_carlo"

    def test_infeasible_raises_before_sampling(self):
        cfg_kwargs = dict(a=(0.5, 0.3, 0.2), gamma_th=(0.9, 2.0, 2.0))
        with pytest.raises(InfeasibleAllocationError):
            SystemConfig(**cfg_kwargs)


class TestBaselines:
    def test_hd_independent_of_si_quality(self):
        a = simulate_baseline(replace(BASE, mu=0.2), 15.0, 2, "hd_noma", 50_000, seed=17)
        b = simulate_baseline(replace(BASE, mu=0.9), 15.0, 2, "hd_noma", 50_000, seed=17)
        assert a.value == b.value

    def test_hd_dominates_fd_pointwise_with_equal_thresholds(self):
        # removing the self-interference terms can only raise the SINR, so
        # with equal thresholds and common draws the no-SI baseline outage
        # event is a subset of the full-duplex one at every mu
        for mu in (0.0, 0.5, 1.0):
            res = simulate_outage_all(
                replace(BASE, mu=mu), 15.0, 200_000, seed=19,
                methods=("monte_carlo", "hd_noma"),
            )
            for l in range(3):
                assert res["hd_noma"][l].value <= res["monte_carlo"][l].value

    def test_oma_matches_closed_form_with_product_threshold(self):
        # the single-user baseline is the same chain evaluated at the
        # product-mapped threshold; cross-check against the closed form
        from fdnoma.analytic import exact_outage_for_lambda
        from fdnoma.sysmodel import map_baseline_thresholds

        lam = map_baseline_thresholds(BASE, "fd_oma")[0]
        res = simulate_outage_all(BASE, 10.0, 400_000, seed=21, methods=("fd_oma",))["fd_oma"]
        for l in (1, 2, 3):
            exact = exact_outage_for_lambda(BASE, 10.0, l, lam).value
            sd = math.sqrt(max(res[l - 1].value * (1 - res[l - 1].value), 1e-9) / 400_000)
            assert abs(exact - res[l - 1].value) < 4.5 * sd

    def test_oma_threshold_below_tied_sic_maximum(self):
        # baseline thresholds: the product map gives 13.25, below the tied
        # SIC maximum of 18, so here the single-user service wins for every
        # user (the aggregate-rate mapping is generous at these targets)
        res = simulate_outage_all(BASE, 15.0, 200_000, seed=23,
                                  methods=("monte_carlo", "fd_oma"))
        for l in range(3):
            assert res["fd_oma"][l].value <= res["monte_carlo"][l].value

    def test_unknown_baseline(self):
        from fdnoma.errors import ConfigError

        with pytest.raises(ConfigError):
            simulate_baseline(BASE, 10.0, 1, "tdma", 50_000)

    def test_squared_rule_infeasible_for_default_allocation(self):
        # the half-rate mapping squares the thresholds, which the default
        # power split cannot support; the config's own thresholds are the
        # workable ones
        with pytest.raises(InfeasibleAllocationError) as exc:
            _squared(BASE)
        assert (exc.value.user, round(exc.value.margin, 3)) == (1, -0.805)


def _squared(cfg):
    """cfg at the rate-matched HD-NOMA thresholds, (1 + gamma_th)^2 - 1."""
    return replace(cfg, gamma_th=tuple((1.0 + g) ** 2 - 1.0 for g in cfg.gamma_th))


def _reference_counts(cfg, snr_db, trials, seed, methods, chunk=0):
    """Per-point reference: one chunk drawn with rng.gamma at this point's
    own scales and tested on whole arrays, with nothing shared or blocked.
    The chunk's variables come from the children of SeedSequence((seed,
    chunk)): the first hop, users 1..L, then the SI gain."""
    g = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, g)
    lam = {"monte_carlo": compute_deltas(cfg, g).lambda_dag}
    if "hd_noma" in methods:
        thr = map_baseline_thresholds(cfg, "hd_noma")
        lam["hd_noma"] = compute_deltas(replace(cfg, gamma_th=thr), g).lambda_dag
    if "fd_oma" in methods:
        lam["fd_oma"] = map_baseline_thresholds(cfg, "fd_oma")
    seq = np.random.SeedSequence((seed, chunk))
    first, *users, si = (np.random.default_rng(s) for s in seq.spawn(cfg.n_users + 2))
    a = first.gamma(cfg.m_sr, stats.omega_hat_sr / cfg.m_sr, size=(trials, cfg.n_b))
    a = np.partition(a, cfg.n_b - 2, axis=1)[:, -2:].sum(axis=1)
    b = np.stack([
        rng.gamma(cfg.m_ru[l] * cfg.n_r, stats.omega_hat_ru[l] / cfg.m_ru[l], size=trials)
        for l, rng in enumerate(users)
    ], axis=1)
    b.sort(axis=1)
    c = si.gamma(cfg.m_rr, stats.omega_rr / cfg.m_rr, size=trials)
    counts = {m: [] for m in methods}
    for l in range(1, cfg.n_users + 1):
        th = compute_theta(stats, g, l)
        bl = b[:, l - 1]
        lhs = g**2 / 2 * a * bl
        d0_common = th.theta1 * g * a + th.theta2 * g * bl + th.theta5
        d0_si = th.theta3 * g * c + th.theta4 * g**2 * bl * c
        for m in methods:
            d0 = d0_common if m == "hd_noma" else d0_common + d0_si
            counts[m].append(int(np.count_nonzero(lhs <= lam[m][l - 1] * d0)))
    return counts


ALL_METHODS = ("monte_carlo", "hd_noma", "fd_oma")


def _d_sr_points(cfg, grid=(0.2, 0.35, 0.5, 0.65, 0.8), snr_db=15.0):
    return [(replace(cfg, d_sr=x, d_ru=(1.0 - x,) * cfg.n_users), snr_db) for x in grid]


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 20k trials in blocks of 7k, so that a 50k-trial call spans
    three chunks and ends each one with a partial block."""
    monkeypatch.setattr(mcsim, "CHUNK_TRIALS", 20_000)
    monkeypatch.setattr(mcsim, "BLOCK_TRIALS", 7_000)


class TestSweep:
    @pytest.mark.parametrize("cfg, seed, trials, methods", [
        (BASE, 13, 500_000, ("monte_carlo",)),
        (replace(BASE, a=(0.761, 0.191, 0.048), gamma_th=(2.0, 2.5, 3.0), mu=0.0),
         13, 500_000, ("monte_carlo",)),
        (BASE, 19, 200_000, ("monte_carlo", "hd_noma")),
        (BASE, 21, 400_000, ("fd_oma",)),
        (replace(BASE, n_b=4, m_sr=2, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03)),
         23, 200_000, ALL_METHODS),
    ])
    def test_one_point_counts_match_per_point_reference(self, cfg, seed, trials, methods):
        res = simulate_outage_all(cfg, 15.0, trials, seed=seed, methods=methods)
        ref = _reference_counts(cfg, 15.0, trials, seed, methods)
        for m in methods:
            assert [round(p.value * trials) for p in res[m]] == ref[m]

    @pytest.mark.parametrize("points", [
        _d_sr_points(BASE),
        _d_sr_points(replace(BASE, sigma2_est_ru=(0.01, 0.02, 0.03))),
        # one point whose user scales differ between two that share theirs:
        # two groups, which reuse the rescaled users' rows and the sort carry
        _d_sr_points(replace(BASE, n_b=4), grid=(0.2,))
        + _d_sr_points(replace(BASE, n_b=4, sigma2_est_ru=(0.01, 0.02, 0.03)), grid=(0.5,))
        + _d_sr_points(replace(BASE, n_b=4), grid=(0.8,)),
    ], ids=["common_scales", "unequal_scales", "mixed_scales"])
    def test_each_point_equals_one_point_call(self, small_chunks, points):
        swept = simulate_sweep(points, 50_000, seed=29, methods=ALL_METHODS)
        for (cfg_pt, snr), res in zip(points, swept):
            assert res == simulate_outage_all(cfg_pt, snr, 50_000, seed=29, methods=ALL_METHODS)

    def test_failing_point_does_not_stop_the_others(self, small_chunks):
        points = _d_sr_points(BASE, grid=(0.3, 0.5, 0.7))
        broken = (replace(points[1][0], sigma2_est_ru=(1e6,) * 3), 15.0)
        points = [points[0], broken, points[2]]
        swept = simulate_sweep(points, 50_000, seed=31)
        assert isinstance(swept[1], ImpairmentError)
        for i in (0, 2):
            assert swept[i] == simulate_outage_all(*points[i], 50_000, seed=31)
        with pytest.raises(ImpairmentError):
            simulate_outage_all(*broken, 50_000, seed=31)

    def test_squared_rule_is_a_mapped_config(self, small_chunks):
        # the rate-matched HD-NOMA rule is a config of its own: its hd_noma
        # counts are those the former hd_rule="squared" option gave on the
        # same seed and methods, and the default power split rejects it
        cfg = _squared(replace(BASE, a=(0.8, 0.17, 0.03)))
        swept = simulate_sweep([(cfg, 10.0), (cfg, 20.0)], 50_000, seed=37, methods=ALL_METHODS)
        assert [[round(p.value * 50_000) for p in res["hd_noma"]] for res in swept] == \
            [[16639, 50_000, 50_000], [1730, 31602, 15098]]
        with pytest.raises(InfeasibleAllocationError):
            _squared(BASE)

    @pytest.mark.parametrize("change", [
        dict(n_b=3), dict(n_r=2), dict(m_sr=2), dict(m_rr=2), dict(m_ru=(1, 1, 2)),
        dict(n_users=2, a=(0.6, 0.4), gamma_th=(0.9, 1.5), m_ru=(1, 1), d_ru=(0.5, 0.5),
             sigma2_est_ru=(0.0, 0.0), fd_tau_ru=(0.0, 0.0)),
    ])
    def test_points_must_share_shapes(self, change):
        with pytest.raises(ValueError, match="must share"):
            simulate_sweep([(BASE, 10.0), (replace(BASE, **change), 10.0)], 20_000)

    @pytest.mark.parametrize("cfg, sort_once, expected", [
        (replace(BASE, n_b=4, m_sr=2), True,
         [[[22896, 4477, 352], [22583, 4367, 340], [18065, 2682, 160]],
          [[4689, 1208, 1022], [2668, 48, 0], [2796, 376, 305]]]),
        (replace(BASE, n_b=4, m_sr=2, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03)), False,
         [[[15506, 2061, 106], [15187, 1954, 88], [10885, 816, 18]],
          [[2683, 1090, 1041], [1085, 0, 0], [1351, 324, 312]]]),
    ], ids=["sort_once", "unequal_scales"])
    def test_pinned_counts(self, small_chunks, cfg, sort_once, expected):
        # integer counts (point, method, user) as np.sort/np.partition order
        # statistics give them (the sum of _reference_counts over chunks 0, 1
        # and 2 of seed 43); compare-exchange must reproduce them exactly
        points = _d_sr_points(cfg, grid=(0.35, 0.65))
        plans = [mcsim._plan_point(c, snr, ALL_METHODS) for c, snr in points]
        assert all(len(set(p.scale_ru)) == 1 for p in plans) == sort_once
        swept = simulate_sweep(points, 50_000, seed=43, methods=ALL_METHODS)
        counts = [[[round(p.value * 50_000) for p in res[m]] for m in ALL_METHODS]
                  for res in swept]
        assert counts == expected

    @pytest.mark.parametrize("methods", [("hd_noma",), ("monte_carlo",)])
    def test_unknown_hd_rule_checked_before_any_point(self, monkeypatch, methods):
        # HD-NOMA keeps the config's own thresholds: there is no threshold
        # rule to pick, and no point is planned for one
        def no_plan(*args):
            raise AssertionError("a point was planned")

        monkeypatch.setattr(mcsim, "_plan_point", no_plan)
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'hd_rule'"):
            simulate_sweep([(SystemConfig(), 10.0)], 10_000, methods=methods, hd_rule="Squared")

    @pytest.mark.parametrize("cfg, methods", [
        (BASE, ("monte_carlo",)),
        (replace(BASE, n_b=6), ALL_METHODS),
        (replace(BASE, sigma2_est_ru=(0.01, 0.02, 0.03)), ("monte_carlo", "hd_noma")),
    ], ids=["default", "nb6", "unequal_scales"])
    def test_chunk_memory_stays_within_blocks(self, cfg, methods):
        # every variate is drawn per block, so a 1e6-trial chunk never holds
        # a whole-chunk array (its draws alone would take ~48 MB): it holds
        # x, the first hop's or the users' draws, wx and the mask, plus the
        # rescaled users when their scales differ, and one row to spare
        sorts = mcsim._plan_point(cfg, 15.0, methods).sorts
        rows = 5 + max(cfg.n_b, cfg.n_users) + len(methods) + 1 + sorts * cfg.n_users
        tracemalloc.start()
        try:
            simulate_outage_all(cfg, 15.0, 1_000_000, seed=47, methods=methods)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= rows * mcsim.BLOCK_TRIALS * 8

    def test_block_size_does_not_change_counts(self, monkeypatch):
        points = _d_sr_points(replace(BASE, sigma2_est_ru=(0.01, 0.02, 0.03)), grid=(0.4, 0.6))
        full = simulate_sweep(points, 50_000, seed=37, methods=ALL_METHODS)
        monkeypatch.setattr(mcsim, "BLOCK_TRIALS", 999)
        assert simulate_sweep(points, 50_000, seed=37, methods=ALL_METHODS) == full

    def test_one_pool_per_sweep_sized_to_the_chunks(self, small_chunks, recording_pool):
        serial = simulate_sweep(_d_sr_points(BASE), 50_000, seed=41)
        assert recording_pool == []
        pooled = simulate_sweep(_d_sr_points(BASE), 50_000, seed=41, workers=16)
        assert recording_pool == [3]  # one pool, three chunks
        assert pooled == serial

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(seed=1.7), TypeError, "seed must be an integer >= 0, got 1.7"),
        (dict(seed=-3), ValueError, "seed must be an integer >= 0, got -3"),
        (dict(workers=0), ValueError, "workers must be an integer >= 1, got 0"),
        (dict(workers=-5), ValueError, "workers must be an integer >= 1, got -5"),
        (dict(workers=1.5), TypeError, "workers must be an integer >= 1, got 1.5"),
        (dict(seed=False), TypeError, "seed must be an integer >= 0, got False"),
        (dict(workers=True), TypeError, "workers must be an integer >= 1, got True"),
    ], ids=["float_seed", "negative_seed", "zero_workers", "negative_workers", "float_workers",
            "bool_seed", "bool_workers"])
    def test_rng_and_workers_checked_before_any_chunk(self, monkeypatch, kwargs, error, message):
        def no_chunk(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(mcsim, "_sweep_chunk", no_chunk)
        with pytest.raises(error, match=re.escape(message)):
            simulate_sweep(_d_sr_points(BASE), 20_000, **kwargs)

    def test_numpy_integer_rng_and_workers_accepted(self):
        a = simulate_outage_all(BASE, 10.0, 20_000, seed=np.int64(11), workers=np.int64(2))
        assert a == simulate_outage_all(BASE, 10.0, 20_000, seed=11)

    @pytest.mark.parametrize("snr_db", [0.0, 30.0, 45.0, 60.0])
    @pytest.mark.parametrize("cfg", [
        BASE,
        replace(BASE, n_b=4, m_sr=2, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03)),
        replace(BASE, mu=1.0, sigma2_est_sr=0.01, sigma2_est_ru=(0.01,) * 3, fd_tau_sr=0.03,
                fd_tau_ru=(0.03,) * 3),
    ], ids=["base", "unequal_scales", "practical_mu1"])
    def test_one_point_counts_match_reference_across_snr(self, cfg, snr_db):
        res = simulate_outage_all(cfg, snr_db, 300_000, seed=59, methods=ALL_METHODS)
        ref = _reference_counts(cfg, snr_db, 300_000, 59, ALL_METHODS)
        for m in ALL_METHODS:
            assert [round(p.value * 300_000) for p in res[m]] == ref[m]


_shape = st.sampled_from([0.5, 1, 1.5, 2, 3])
_impairment = st.sampled_from([0.0, 0.01, 0.05])


@st.composite
def _kernel_cases(draw):
    """A random system, grid point and method subset for the outage kernel;
    the system's thresholds are squared (the rate-matched HD-NOMA rule) in
    about half of the cases."""
    n_users = draw(st.integers(1, 3))

    def per_user(strategy):
        return tuple(draw(st.lists(strategy, min_size=n_users, max_size=n_users)))

    ratio = draw(st.floats(0.1, 0.6))
    powers = [ratio**k for k in range(n_users)]
    d_sr = draw(st.floats(0.2, 0.8))
    try:
        cfg = SystemConfig(
            n_b=draw(st.integers(2, 5)),
            n_r=draw(st.integers(1, 3)),
            n_users=n_users,
            m_sr=draw(_shape),
            m_rr=draw(_shape),
            m_ru=per_user(_shape),
            d_sr=d_sr,
            d_ru=(1.0 - d_sr,) * n_users if draw(st.booleans()) else per_user(st.floats(0.2, 0.8)),
            a=tuple(p / sum(powers) for p in powers),
            gamma_th=per_user(st.floats(0.05, 2.0)),
            mu=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            sigma2_est_sr=draw(_impairment),
            sigma2_est_ru=per_user(_impairment),
            fd_tau_sr=draw(_impairment),
            fd_tau_ru=per_user(_impairment),
        )
    except FdnomaError:
        assume(False)
    methods = tuple(draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=3,
                                  unique=True)))
    snr_db = draw(st.floats(-5.0, 60.0))
    if draw(st.sampled_from([False, True])):
        try:
            cfg = _squared(cfg)
        except FdnomaError:
            assume(False)
    return cfg, snr_db, methods, draw(st.integers(0, 2**32))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_kernel_cases())
def test_outage_kernel_counts_equal_elementwise_reference(case):
    cfg, snr_db, methods, seed = case
    try:
        res = simulate_outage_all(cfg, snr_db, 20_000, seed=seed, methods=methods)
    except FdnomaError:
        assume(False)
    ref = _reference_counts(cfg, snr_db, 20_000, seed, methods)
    for m in methods:
        assert [round(p.value * 20_000) for p in res[m]] == ref[m]


ORDER_CONFIGS = {
    "default": BASE,
    "mu0": replace(BASE, mu=0.0),
    "mu1": replace(BASE, mu=1.0),
    "nb3_m3_nr2": replace(BASE, n_b=3, n_r=2, m_sr=3, m_rr=3, m_ru=(3, 3, 3)),
}


def _sweep_counts(cfg) -> dict[tuple[str, int], list[int]]:
    """Outage counts of each (simulation method, user) along 0:60:2 dB, read
    from the rows run_sweep prints for one sweep on seed 1.  At mu = 1 the
    curves near their floor only past 40 dB; there a threshold that creeps
    up with the SNR shows as a count that rises."""
    spec = SweepSpec(grid=linear_grid(0, 60, 2), methods=mcsim.SIM_METHODS, trials=50_000)
    counts: dict[tuple[str, int], list[int]] = {}
    for row in run_sweep(spec, cfg, io.StringIO()):
        assert not row.error, row
        counts.setdefault((row.method, row.user), []).append(round(row.op * row.trials))
    return counts


@pytest.mark.parametrize("cfg", ORDER_CONFIGS.values(), ids=ORDER_CONFIGS.keys())
def test_monte_carlo_order_laws_hold_count_for_count(cfg):
    """OP falls with SNR and rises with the thresholds, trial by trial.

    The law.  With a, b, c the scaled first-hop, second-hop and SI gains,
    user l fails the SIC chain iff (gbar^2/2) a b <= Lambda+ D0, D0 =
    theta1 gbar a + theta2 gbar b + theta3 gbar c + theta4 gbar^2 b c +
    theta5 (README, Numerical notes); hd_noma drops the two c terms, and
    fd_oma takes Lambda+ = prod(1 + gamma_th) - 1.  Divided by gbar^2 the
    test reads a b / 2 <= Lambda+ R, R = theta1 a/gbar + theta2 b/gbar +
    theta3 c/gbar + theta4 b c + theta5/gbar^2.
    - SNR: a and b do not depend on gbar, and c does as gbar^(mu - 1), the
      SI power alpha_si gbar^(mu - 1) (README, Configuration).  Lambda+ =
      max over stages k <= l of gamma_th_k / margin_k does not depend on
      gbar either.  theta1..3 are a constant plus gbar times a constant,
      theta4 a constant and theta5 a quadratic in gbar, all coefficients
      >= 0 (compute_theta), so theta1..3/gbar, theta5/gbar^2 and, for mu
      <= 1, c/gbar and b c are nonincreasing in gbar.  R falls as gbar grows, so a
      trial in outage at one SNR is in outage at every lower one.
    - Thresholds: raising every gamma_th_k raises each gamma_th_k /
      margin_k (the margin a_k - gamma_th_k sum_{t>k} a_t falls), hence
      Lambda+ and prod(1 + gamma_th) - 1, while R >= 0 stays; a trial in
      outage keeps its outage.
    On common random numbers (every grid point rescales one set of draws,
    and a sweep on the same seed and shapes draws the same set) the
    counts must then keep both orders exactly.

    No ulp move is allowed.  The outage test is a BLAS product, and
    simulate_sweep says rounding may move a trial within a few ulps of its
    boundary.  Such a move can break an order only if a trial's margin
    shifts less than that rounding between two compared cells.  A 10%
    raise of gamma_th moves Lambda+ by more than 10%.  A 2 dB step cuts the
    1/gbar terms of R by 37%.  On these ideal configs (every theta 1) those
    terms hold at least 1/(1 + gbar c) of R, with c below 202 (alpha_si = 1
    and C0 below its draw bound, mcsim._gamma_bound): more than 1e-9 of R
    up to 60 dB.  Both shifts exceed rounding (~1e-15 of R) by orders of
    magnitude.
    """
    low = _sweep_counts(cfg)
    high = _sweep_counts(replace(cfg, gamma_th=tuple(1.1 * g for g in cfg.gamma_th)))
    for key, counts in low.items():
        for series in (counts, high[key]):
            assert all(a >= b for a, b in zip(series, series[1:])), (key, series)
        assert all(h >= c for h, c in zip(high[key], counts)), (key, counts, high[key])
    # the orders are not vacuous: some count moves along each axis
    assert any(c[0] > c[-1] for c in low.values())
    assert any(high[key] != counts for key, counts in low.items())


# Family-wise level of the structure laws' one-sided z tests (Bonferroni)
STRUCTURE_LEVEL = 1e-3


def test_monte_carlo_structure_laws_hold_within_noise():
    """OP does not rise with n_b (2 -> 3 -> 4, n_r = 1) nor with n_r (1 -> 2,
    n_b = 2), for any user and SNR.

    The law.  In _PointPlan's terms user l is in outage iff (gbar^2/2) a b
    <= Lambda+ (theta1 gbar a + theta2 gbar b + theta3 gbar c + theta4
    gbar^2 b c + theta5), a = s_sr A the scaled first-hop sum, b the user's
    scaled gain B_(l) and c the SI gain.  Divided by a b it reads gbar^2/2
    <= Lambda+ (theta1 gbar / b + theta2 gbar / a + theta3 gbar c / (a b) +
    theta4 gbar^2 c / a + theta5 / (a b)), every coefficient >= 0, so the
    right side cannot grow when a or b does: outage cannot become more
    likely when A or B grows, draw for draw.  n_b and n_r enter nothing but
    the draws (the scales, thetas and Lambda+ do not read them).  A, the sum
    of the two largest of n_b i.i.d. Gamma(m_sr) draws, grows stochastically
    with n_b: one more draw can only raise the top two.  B_(l), the l-th
    smallest of n_users i.i.d. Gamma(M) gains, grows stochastically with M
    = m_ru n_r, since Gamma(M) does and order statistics keep the usual
    stochastic order (Shaked & Shanthikumar, Stochastic Orders, 2007, ch. 1).
    A, B and C are independent, so OP is nonincreasing in n_b and n_r.

    The check.  The sweeps do not share their draws (another n_b or n_r
    draws another first hop or other gains), so each pair (p_s at the smaller
    structure, p_t at the larger) is judged by the one-sided two-proportion
    z = (p_s - p_t) / sqrt(2 pbar (1 - pbar) / trials), which fails below
    -z* with z* the normal quantile at STRUCTURE_LEVEL over the 36 pairs.
    z takes the two estimates as independent.  Each pair of sweeps shares
    its SI draws, and B (the n_b pairs) or A (the n_r pair), draw for draw;
    outage falls in each shared variable in both sweeps, so sharing them
    correlates the estimates positively (Chebyshev's association
    inequality) and only narrows the spread of p_s - p_t.
    """
    grid, trials = linear_grid(0, 30, 10), 100_000
    spec = SweepSpec(grid=grid, methods=("monte_carlo",), trials=trials)

    def ops(n_b, n_r):
        rows = run_sweep(spec, replace(BASE, n_b=n_b, n_r=n_r), io.StringIO())
        return {(row.axis_value, row.user): row.op for row in rows}

    op = {(n_b, n_r): ops(n_b, n_r) for n_b, n_r in ((2, 1), (3, 1), (4, 1), (2, 2))}
    pairs = [((2, 1), (3, 1)), ((3, 1), (4, 1)), ((2, 1), (2, 2))]
    cells = [(s, t, key) for s, t in pairs for key in op[s]]
    assert len(cells) == 36
    z_star = statistics.NormalDist().inv_cdf(1.0 - STRUCTURE_LEVEL / len(cells))
    z = {}
    for s, t, key in cells:
        p_s, p_t = op[s][key], op[t][key]
        pbar = (p_s + p_t) / 2.0
        z[s, t, key] = 0.0 if p_s == p_t else (p_s - p_t) / math.sqrt(2 * pbar * (1 - pbar) / trials)
    low = {cell: round(v, 2) for cell, v in z.items() if v < -z_star}
    assert not low, low
    # the laws are not vacuous: each pair of structures moves some cell
    assert all(any(z[s, t, key] > z_star for key in op[s]) for s, t in pairs)
