"""Sampler marginals, SINR evaluation, reproducibility and baselines."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

import fdnoma.mcsim as mcsim
from fdnoma.errors import FdnomaError, ImpairmentError, InfeasibleAllocationError
from fdnoma.mcsim import (
    ChannelDraw,
    RngStream,
    evaluate_sinr,
    sample_first_hop,
    sample_second_hop,
    sample_si_gain,
    simulate_baseline,
    simulate_outage,
    simulate_outage_all,
    simulate_sweep,
    wilson_interval,
)
from fdnoma.sysmodel import (
    SystemConfig,
    compute_deltas,
    compute_theta,
    derive_link_stats,
    map_baseline_thresholds,
)

BASE = SystemConfig()
STATS = derive_link_stats(BASE, 10.0)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().standard_normal(5)
        b = RngStream(7, 3).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 3).generator().standard_normal(5)
        b = RngStream(7, 4).generator().standard_normal(5)
        assert not np.array_equal(a, b)


class TestStandardGamma:
    @pytest.mark.parametrize("shape", [1, 1.0, 0.5, 2.5])
    def test_draws_and_state_equal_standard_gamma(self, shape):
        # at shape 1 the helper calls standard_exponential(out=), which
        # numpy's standard_gamma(1.0) calls per element
        ours, ref = RngStream(12).generator(), RngStream(12).generator()
        x = mcsim._standard_gamma(ours, shape, np.empty(10_001))
        y = ref.standard_gamma(shape, size=10_001)
        assert np.array_equal(_bits(x), _bits(y))
        assert ours.bit_generator.state == ref.bit_generator.state


class TestSamplers:
    def test_two_antenna_sum_mean(self):
        rng = RngStream(1).generator()
        a = sample_first_hop(BASE, STATS, rng, 1_000_000)
        se = a.std() / math.sqrt(a.size)
        assert abs(a.mean() - 2 * STATS.omega_hat_sr) < 3 * se

    def test_selection_against_full_sort_oracle(self):
        cfg3 = replace(BASE, n_b=3)
        rng = RngStream(2).generator()
        a = sample_first_hop(cfg3, STATS, rng, 200_000)
        # identical draws through the naive full-sort oracle
        oracle_rng = RngStream(2).generator()
        g = oracle_rng.gamma(cfg3.m_sr, STATS.omega_hat_sr / cfg3.m_sr, size=(200_000, 3))
        g.sort(axis=1)
        assert np.allclose(a, g[:, -1] + g[:, -2])
        # exponential order statistics: E[sum of two largest of 3] = (4/3+4/3)... = (8/3) mean/2
        expect = STATS.omega_hat_sr * (11.0 / 6.0 + 5.0 / 6.0)
        se = a.std() / math.sqrt(a.size)
        assert abs(a.mean() - expect) < 3.5 * se

    def test_mean_scales_with_power(self):
        rng = RngStream(3).generator()
        a1 = sample_first_hop(BASE, STATS, rng, 400_000).mean()
        boosted = derive_link_stats(replace(BASE, d_sr=0.5 / 2**0.25), 10.0)  # doubles omega
        rng = RngStream(3).generator()
        a2 = sample_first_hop(BASE, boosted, rng, 400_000).mean()
        assert a2 / a1 == pytest.approx(2.0, rel=2e-3)

    def test_single_user_gain_is_gamma(self):
        cfg = replace(BASE, n_users=1, m_ru=(2,), d_ru=(0.5,), a=(1.0,), gamma_th=(0.9,),
                      sigma2_est_ru=(0.0,), fd_tau_ru=(0.0,), n_r=2)
        st = derive_link_stats(cfg, 10.0)
        rng = RngStream(4).generator()
        b = sample_second_hop(cfg, st, rng, 400_000)[:, 0]
        shape = cfg.m_ru[0] * cfg.n_r
        scale = st.omega_hat_ru[0] / cfg.m_ru[0]
        res = kstest(b, gamma_dist(a=shape, scale=scale).cdf)
        assert res.pvalue > 0.01

    def test_min_of_three_exponentials_mean(self):
        rng = RngStream(5).generator()
        b = sample_second_hop(BASE, STATS, rng, 1_000_000)
        se = b[:, 0].std() / 1000.0
        assert abs(b[:, 0].mean() - STATS.omega_hat_ru[0] / 3.0) < 3 * se

    def test_ordering(self):
        rng = RngStream(6).generator()
        b = sample_second_hop(BASE, STATS, rng, 1000)
        assert np.all(b[:, 0] <= b[:, 1]) and np.all(b[:, 1] <= b[:, 2])

    def test_second_hop_equals_scaled_full_sort(self):
        cfg = replace(BASE, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03))
        stats = derive_link_stats(cfg, 10.0)
        b = sample_second_hop(cfg, stats, RngStream(8).generator(), 50_000)
        rng = RngStream(8).generator()
        ref = np.stack([rng.standard_gamma(m * cfg.n_r, size=50_000) for m in cfg.m_ru], axis=1)
        ref = ref * np.array([om / m for om, m in zip(stats.omega_hat_ru, cfg.m_ru)])
        ref.sort(axis=1)
        assert b.shape == (50_000, 3)
        assert np.array_equal(b, ref)

    def test_si_gain_marginal(self):
        rng = RngStream(7).generator()
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
        x = np.round(RngStream(9).generator().standard_gamma(1.0, size=(n, 2 * block + 123)), 2)
        ref = np.sort(x, axis=0)
        tmp = np.empty(block)
        for lo in range(0, x.shape[1], block):
            view = x[:, lo:lo + block]
            mcsim._sort_rows(view, tmp[:view.shape[1]])
        assert np.array_equal(_bits(x), _bits(ref))

    @pytest.mark.parametrize("m_sr", [0.5, 1, 2.5])
    @pytest.mark.parametrize("n_b", [2, 3, 4, 5, 6])
    def test_top2_equals_partition_reference(self, n_b, m_sr):
        cfg = replace(BASE, n_b=n_b, m_sr=m_sr)
        top = mcsim._top2_standard(cfg, RngStream(10, n_b).generator(), 20_000)
        g = RngStream(10, n_b).generator().standard_gamma(m_sr, size=(20_000, n_b))
        g.partition(n_b - 2, axis=1)
        assert top.shape == (2, 20_000)
        assert np.array_equal(top[0], g[:, -2]) and np.array_equal(top[1], g[:, -1])


    @pytest.mark.parametrize("n_b", [2, 3, 4, 6])
    def test_top2_equals_sorted_reference_across_blocks(self, n_b):
        # the passes run per block of BLOCK_TRIALS rows; the last block is short
        size = 2 * mcsim.BLOCK_TRIALS + 123
        cfg = replace(BASE, n_b=n_b, m_sr=2.5)
        top = mcsim._top2_standard(cfg, RngStream(11, n_b).generator(), size)
        g = RngStream(11, n_b).generator().standard_gamma(2.5, size=(size, n_b))
        assert np.array_equal(_bits(top), _bits(np.sort(g, axis=1)[:, -2:].T))


class TestEvaluateSinr:
    def test_hand_computed_single_user(self):
        # ideal, A=B=1, C=0, snr 2: denominator = 2 + 2 + 0 + 0 + 1
        cfg = replace(BASE, n_users=1, m_ru=(1,), d_ru=(0.5,), a=(1.0,), gamma_th=(0.9,),
                      sigma2_est_ru=(0.0,), fd_tau_ru=(0.0,))
        st = derive_link_stats(cfg, 2.0)
        th = compute_theta(st, 2.0, 1)
        draw = ChannelDraw(a=1.0, b=(1.0,), c=0.0)
        out = evaluate_sinr(draw, th, cfg, 2.0, 1)
        assert out.gammas[0] == pytest.approx(2.0 / 5.0, rel=1e-14)

    def test_interference_limited_ceiling(self):
        st = derive_link_stats(BASE, 100.0)
        th = compute_theta(st, 100.0, 3)
        draw = ChannelDraw(a=1e12, b=(1e12, 1e12, 1e12), c=0.0)
        out = evaluate_sinr(draw, th, BASE, 100.0, 3)
        for k in (1, 2):
            ceiling = BASE.a[k - 1] / sum(BASE.a[k:])
            assert out.gammas[k - 1] == pytest.approx(ceiling, rel=1e-3)

    def test_monotone_in_stage_thresholded_event(self):
        st = derive_link_stats(BASE, 10.0)
        th = compute_theta(st, 10.0, 3)
        draw = ChannelDraw(a=20.0, b=(4.0, 9.0, 28.0), c=0.2)
        out = evaluate_sinr(draw, th, BASE, 10.0, 3)
        assert len(out.gammas) == 3
        assert all(g >= 0 for g in out.gammas)

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            ChannelDraw(a=1.0, b=(3.0, 2.0, 4.0), c=0.0)
        with pytest.raises(ValueError):
            ChannelDraw(a=-1.0, b=(1.0, 2.0, 3.0), c=0.0)


class TestWilson:
    def test_brackets_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_small_probability_stays_positive(self):
        lo, hi = wilson_interval(0, 10_000, conf=0.99)
        assert lo == 0.0 and 0.0 < hi < 1e-3

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
            pt = simulate_outage(BASE, 10.0, 2, 20_000, rng=seed)
            lo, hi = pt.ci
            covered += lo <= truth <= hi
        assert 0.93 * runs <= covered <= 0.97 * runs


class TestSimulateOutage:
    def test_zero_thresholds_never_fail(self):
        cfg = replace(BASE, gamma_th=(1e-12, 1e-12, 1e-12))
        pt = simulate_outage(cfg, 10.0, 1, 50_000, rng=1)
        assert pt.value == 0.0

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            simulate_outage(BASE, 10.0, 1, 100, rng=1)

    def test_deterministic_across_worker_counts(self):
        res = [
            simulate_outage(BASE, 10.0, 2, 2_500_000, rng=9, workers=w).value
            for w in (1, 2, 4)
        ]
        assert res[0] == res[1] == res[2]

    @pytest.mark.parametrize("trials", [1e5, 100000.5])
    def test_float_trials_rejected(self, trials):
        with pytest.raises(TypeError, match="trials must be an integer >= 10000"):
            simulate_outage_all(BASE, 10.0, trials)

    def test_numpy_integer_trials_accepted(self):
        a = simulate_outage_all(BASE, 10.0, np.int64(20_000), rng=11)
        assert a == simulate_outage_all(BASE, 10.0, 20_000, rng=11)

    def test_repeatable(self):
        a = simulate_outage(BASE, 10.0, 2, 50_000, rng=11)
        b = simulate_outage(BASE, 10.0, 2, 50_000, rng=11)
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
        res = simulate_outage_all(cfg, 15.0, 500_000, rng=13)["monte_carlo"]
        assert res[0].value <= res[1].value <= res[2].value

    def test_order_statistics_dominate_with_tied_thresholds(self):
        # the baseline allocation ties Lambda+ at 18 for every user, so the
        # ordering is driven purely by the sorted second-hop gains and the
        # strongest-ordered user (l = 3) fails least
        res = simulate_outage_all(BASE, 15.0, 500_000, rng=13)["monte_carlo"]
        assert res[0].value >= res[1].value >= res[2].value

    def test_ci_attached_and_brackets(self):
        pt = simulate_outage(BASE, 15.0, 2, 50_000, rng=15)
        assert pt.ci is not None and pt.ci[0] <= pt.value <= pt.ci[1]
        assert pt.method == "monte_carlo"

    def test_infeasible_raises_before_sampling(self):
        cfg_kwargs = dict(a=(0.5, 0.3, 0.2), gamma_th=(0.9, 2.0, 2.0))
        with pytest.raises(InfeasibleAllocationError):
            SystemConfig(**cfg_kwargs)


class TestBaselines:
    def test_hd_independent_of_si_quality(self):
        a = simulate_baseline(replace(BASE, mu=0.2), 15.0, 2, "hd_noma", 50_000, rng=17)
        b = simulate_baseline(replace(BASE, mu=0.9), 15.0, 2, "hd_noma", 50_000, rng=17)
        assert a.value == b.value

    def test_hd_dominates_fd_pointwise_with_equal_thresholds(self):
        # removing the self-interference terms can only raise the SINR, so
        # with equal thresholds and common draws the no-SI baseline outage
        # event is a subset of the full-duplex one at every mu
        for mu in (0.0, 0.5, 1.0):
            res = simulate_outage_all(
                replace(BASE, mu=mu), 15.0, 200_000, rng=19,
                methods=("monte_carlo", "hd_noma"), hd_rule="equal",
            )
            for l in range(3):
                assert res["hd_noma"][l].value <= res["monte_carlo"][l].value

    def test_oma_matches_closed_form_with_product_threshold(self):
        # the single-user baseline is the same chain evaluated at the
        # product-mapped threshold; cross-check against the closed form
        from fdnoma.analytic import exact_outage_for_lambda
        from fdnoma.sysmodel import map_baseline_thresholds

        lam = map_baseline_thresholds(BASE, "fd_oma")[0]
        res = simulate_outage_all(BASE, 10.0, 400_000, rng=21, methods=("fd_oma",))["fd_oma"]
        for l in (1, 2, 3):
            exact = exact_outage_for_lambda(BASE, 10.0, l, lam).value
            sd = math.sqrt(max(res[l - 1].value * (1 - res[l - 1].value), 1e-9) / 400_000)
            assert abs(exact - res[l - 1].value) < 4.5 * sd

    def test_oma_threshold_below_tied_sic_maximum(self):
        # baseline thresholds: the product map gives 13.25, below the tied
        # SIC maximum of 18, so here the single-user service wins for every
        # user (the aggregate-rate mapping is generous at these targets)
        res = simulate_outage_all(BASE, 15.0, 200_000, rng=23,
                                  methods=("monte_carlo", "fd_oma"))
        for l in range(3):
            assert res["fd_oma"][l].value <= res["monte_carlo"][l].value

    def test_unknown_baseline(self):
        from fdnoma.errors import ConfigError

        with pytest.raises(ConfigError):
            simulate_baseline(BASE, 10.0, 1, "tdma", 50_000)

    def test_squared_rule_infeasible_for_default_allocation(self):
        # the half-rate mapping squares the thresholds, which the default
        # power split cannot support; the equal mapping is the workable one
        with pytest.raises(InfeasibleAllocationError):
            simulate_baseline(BASE, 10.0, 1, "hd_noma", 50_000, hd_rule="squared")


def _reference_counts(cfg, snr_db, trials, stream, methods, hd_rule="equal"):
    """Per-point reference: one chunk drawn with rng.gamma at this point's
    own scales and tested on whole arrays, with nothing shared or blocked.
    The chunk's variables come from the children of its seed sequence:
    the first hop, users 1..L, then the SI gain."""
    g = 10.0 ** (snr_db / 10.0)
    stats = derive_link_stats(cfg, g)
    lam = {"monte_carlo": compute_deltas(cfg, g).lambda_dag}
    if "hd_noma" in methods:
        thr = map_baseline_thresholds(cfg, "hd_noma", hd_rule)
        lam["hd_noma"] = compute_deltas(replace(cfg, gamma_th=thr), g).lambda_dag
    if "fd_oma" in methods:
        lam["fd_oma"] = map_baseline_thresholds(cfg, "fd_oma")
    seq = np.random.SeedSequence((stream.seed, stream.stream_id))
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
        res = simulate_outage_all(cfg, 15.0, trials, rng=seed, methods=methods)
        ref = _reference_counts(cfg, 15.0, trials, RngStream(seed), methods)
        for m in methods:
            assert [round(p.value * trials) for p in res[m]] == ref[m]

    @pytest.mark.parametrize("cfg", [BASE, replace(BASE, sigma2_est_ru=(0.01, 0.02, 0.03))],
                             ids=["common_scales", "unequal_scales"])
    def test_each_point_equals_one_point_call(self, small_chunks, cfg):
        points = _d_sr_points(cfg)
        stream = RngStream(29, 5)
        swept = simulate_sweep(points, 50_000, rng=stream, methods=ALL_METHODS)
        for (cfg_pt, snr), res in zip(points, swept):
            assert res == simulate_outage_all(cfg_pt, snr, 50_000, rng=stream,
                                              methods=ALL_METHODS)

    def test_failing_point_does_not_stop_the_others(self, small_chunks):
        points = _d_sr_points(BASE, grid=(0.3, 0.5, 0.7))
        broken = (replace(points[1][0], sigma2_est_ru=(1e6,) * 3), 15.0)
        points = [points[0], broken, points[2]]
        swept = simulate_sweep(points, 50_000, rng=31)
        assert isinstance(swept[1], ImpairmentError)
        for i in (0, 2):
            assert swept[i] == simulate_outage_all(*points[i], 50_000, rng=31)
        with pytest.raises(ImpairmentError):
            simulate_outage_all(*broken, 50_000, rng=31)

    def test_failing_mapping_fails_only_its_method(self):
        # the squared HD rule is infeasible for the default power split
        methods = ("monte_carlo", "hd_noma", "fd_oma")
        (squared,) = simulate_sweep([(BASE, 10.0)], 20_000, rng=7, methods=methods,
                                    hd_rule="squared")
        (equal,) = simulate_sweep([(BASE, 10.0)], 20_000, rng=7, methods=methods)
        assert isinstance(squared["hd_noma"], InfeasibleAllocationError)
        assert squared["monte_carlo"] == equal["monte_carlo"]
        assert squared["fd_oma"] == equal["fd_oma"]
        with pytest.raises(InfeasibleAllocationError):
            simulate_outage_all(BASE, 10.0, 20_000, rng=7, methods=methods, hd_rule="squared")

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
         [[[23254, 4669, 323], [22969, 4528, 309], [18352, 2773, 121]],
          [[4684, 1134, 943], [2677, 43, 0], [2772, 372, 299]]]),
        (replace(BASE, n_b=4, m_sr=2, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03)), False,
         [[[15513, 2064, 119], [15216, 1957, 109], [10983, 821, 21]],
          [[2611, 1017, 961], [1098, 2, 0], [1368, 323, 301]]]),
    ], ids=["sort_once", "unequal_scales"])
    def test_pinned_counts(self, small_chunks, cfg, sort_once, expected):
        # integer counts (point, method, user) as np.sort/np.partition order
        # statistics give them (the sum of _reference_counts over the three
        # chunks); compare-exchange must reproduce them exactly
        points = _d_sr_points(cfg, grid=(0.35, 0.65))
        plans = [mcsim._plan_point(c, snr, ALL_METHODS, "equal") for c, snr in points]
        assert all(len(set(p.scale_ru)) == 1 for p in plans) == sort_once
        swept = simulate_sweep(points, 50_000, rng=RngStream(43, 2), methods=ALL_METHODS)
        counts = [[[round(p.value * 50_000) for p in res[m]] for m in ALL_METHODS]
                  for res in swept]
        assert counts == expected

    @pytest.mark.parametrize("conf", [1.0, 1.5, -1.0, 0.0, float("nan")])
    def test_confidence_checked_before_any_chunk(self, monkeypatch, conf):
        def no_chunk(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(mcsim, "_sweep_chunk", no_chunk)
        with pytest.raises(ValueError, match="confidence level"):
            simulate_sweep(_d_sr_points(BASE), 20_000, conf=conf)

    def test_chunk_memory_stays_within_blocks(self):
        # every variate is drawn per block, so a 1e6-trial chunk never holds
        # a whole-chunk array (its draws alone would take ~48 MB)
        cfg = replace(BASE, n_b=4)
        tracemalloc.start()
        try:
            simulate_outage_all(cfg, 15.0, 1_000_000, rng=47, methods=ALL_METHODS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_block_size_does_not_change_counts(self, monkeypatch):
        points = _d_sr_points(replace(BASE, sigma2_est_ru=(0.01, 0.02, 0.03)), grid=(0.4, 0.6))
        full = simulate_sweep(points, 50_000, rng=37, methods=ALL_METHODS)
        monkeypatch.setattr(mcsim, "BLOCK_TRIALS", 999)
        assert simulate_sweep(points, 50_000, rng=37, methods=ALL_METHODS) == full

    def test_one_pool_per_sweep_sized_to_the_chunks(self, small_chunks, recording_pool):
        serial = simulate_sweep(_d_sr_points(BASE), 50_000, rng=41)
        assert recording_pool == []
        pooled = simulate_sweep(_d_sr_points(BASE), 50_000, rng=41, workers=16)
        assert recording_pool == [3]  # one pool, three chunks
        assert pooled == serial

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(rng=1.7), TypeError, "rng must be an integer >= 0, got 1.7"),
        (dict(rng=-3), ValueError, "rng must be an integer >= 0, got -3"),
        (dict(rng=RngStream(-3)), ValueError, "the rng seed must be an integer >= 0, got -3"),
        (dict(rng=RngStream(3, -1)), ValueError,
         "the rng stream_id must be an integer >= 0, got -1"),
        (dict(workers=0), ValueError, "workers must be an integer >= 1, got 0"),
        (dict(workers=-5), ValueError, "workers must be an integer >= 1, got -5"),
        (dict(workers=1.5), TypeError, "workers must be an integer >= 1, got 1.5"),
    ], ids=["float_rng", "negative_rng", "negative_stream_seed", "negative_stream_id",
            "zero_workers", "negative_workers", "float_workers"])
    def test_rng_and_workers_checked_before_any_chunk(self, monkeypatch, kwargs, error, message):
        def no_chunk(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(mcsim, "_sweep_chunk", no_chunk)
        with pytest.raises(error, match=re.escape(message)):
            simulate_sweep(_d_sr_points(BASE), 20_000, **kwargs)

    def test_numpy_integer_rng_and_workers_accepted(self):
        a = simulate_outage_all(BASE, 10.0, 20_000, rng=np.int64(11), workers=np.int64(2))
        assert a == simulate_outage_all(BASE, 10.0, 20_000, rng=11)

    @pytest.mark.parametrize("snr_db", [0.0, 30.0, 45.0, 60.0])
    @pytest.mark.parametrize("cfg", [
        BASE,
        replace(BASE, n_b=4, m_sr=2, m_ru=(1, 2, 3), sigma2_est_ru=(0.01, 0.02, 0.03)),
        replace(BASE, mu=1.0, sigma2_est_sr=0.01, sigma2_est_ru=(0.01,) * 3, fd_tau_sr=0.03,
                fd_tau_ru=(0.03,) * 3),
    ], ids=["base", "unequal_scales", "practical_mu1"])
    def test_one_point_counts_match_reference_across_snr(self, cfg, snr_db):
        res = simulate_outage_all(cfg, snr_db, 300_000, rng=59, methods=ALL_METHODS)
        ref = _reference_counts(cfg, snr_db, 300_000, RngStream(59), ALL_METHODS)
        for m in ALL_METHODS:
            assert [round(p.value * 300_000) for p in res[m]] == ref[m]


_shape = st.sampled_from([0.5, 1, 1.5, 2, 3])
_impairment = st.sampled_from([0.0, 0.01, 0.05])


@st.composite
def _kernel_cases(draw):
    """A random system, grid point and method subset for the outage kernel."""
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
    return (cfg, draw(st.floats(-5.0, 60.0)), methods, draw(st.sampled_from(["equal", "squared"])),
            draw(st.integers(0, 2**32)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_kernel_cases())
def test_outage_kernel_counts_equal_elementwise_reference(case):
    cfg, snr_db, methods, hd_rule, seed = case
    try:
        res = simulate_outage_all(cfg, snr_db, 20_000, rng=seed, methods=methods,
                                  hd_rule=hd_rule)
    except FdnomaError:
        assume(False)
    ref = _reference_counts(cfg, snr_db, 20_000, RngStream(seed), methods, hd_rule)
    for m in methods:
        assert [round(p.value * 20_000) for p in res[m]] == ref[m]
