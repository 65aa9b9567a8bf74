"""Waveform-level validation: Alamouti encode, AF relay with residual SI,
MRC combining, SIC, measured against the model SINR on fixed channels."""

import numpy as np
import pytest
from dataclasses import replace

from fdnoma.errors import ConfigError
from fdnoma.sysmodel import SystemConfig
from waveform import QPSK, FixedChannels, predicted_sinr, run_symbol_chain, symbol_level_validate

PRACTICAL = SystemConfig(
    n_b=2,
    n_r=2,
    mu=0.25,
    sigma2_est_sr=0.01,
    sigma2_est_ru=(0.01,) * 3,
    fd_tau_sr=0.03,
    fd_tau_ru=(0.03,) * 3,
)


def random_channels(cfg: SystemConfig, rng: np.random.Generator, si: float) -> FixedChannels:
    h = (rng.normal(size=2) + 1j * rng.normal(size=2)) * np.sqrt(16.0 / 2.0)
    rows = []
    for _ in range(cfg.n_users):
        q = (rng.normal(size=cfg.n_r) + 1j * rng.normal(size=cfg.n_r)) * np.sqrt(16.0 / 2.0)
        rows.append(q)
    rows.sort(key=lambda q: float(np.sum(np.abs(q) ** 2)))
    return FixedChannels(h_sr=tuple(h), h_ru=tuple(tuple(q) for q in rows), si_gain=si)


class TestLoopback:
    def test_noise_off_single_user_decodes_exactly(self):
        cfg = SystemConfig(
            n_users=1, a=(1.0,), gamma_th=(0.9,), m_ru=(1,), d_ru=(0.5,),
            sigma2_est_ru=(0.0,), fd_tau_ru=(0.0,),
        )
        ch = FixedChannels(h_sr=(0.8 + 0.3j, -0.4 + 1.1j), h_ru=((1.2 - 0.7j,),), si_gain=0.0)
        out = run_symbol_chain(cfg, ch, snr_db=None, blocks=500, seed=0)
        decoded = out.combined[0] / (out.mean_gain[0] * np.sqrt(cfg.a[0] / 2.0))
        # hard decisions against the constellation
        idx = np.argmin(np.abs(decoded[..., None] - QPSK[None, None, :]), axis=-1)
        assert np.array_equal(QPSK[idx], out.symbols[0])


class TestMeasuredSinr:
    def test_matches_model_on_random_fixed_channels(self):
        # ten random fixed channel states, full impairments and SI: the
        # measured per-stage ratios at 1e6 symbols sit within 3% of the
        # model SINR
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(10):
            ch = random_channels(PRACTICAL, rng, si=float(rng.uniform(0.05, 1.5)))
            meas = symbol_level_validate(PRACTICAL, ch, 15.0, 1_000_000, seed=trial)
            for l in (1, 2, 3):
                pred = predicted_sinr(PRACTICAL, ch, 15.0, l)
                for k in range(l):
                    rel = abs(meas[l - 1][k] - pred[k]) / pred[k]
                    worst = max(worst, rel)
        assert worst < 0.03

    def test_ideal_with_si_only(self):
        cfg = SystemConfig(n_b=2, n_r=1, mu=1.0)
        rng = np.random.default_rng(7)
        ch = random_channels(cfg, rng, si=1.0)
        meas = symbol_level_validate(cfg, ch, 10.0, 400_000, seed=1)
        for l in (1, 2, 3):
            pred = predicted_sinr(cfg, ch, 10.0, l)
            for k in range(l):
                assert meas[l - 1][k] == pytest.approx(pred[k], rel=0.05)

    def test_testbed_protocol_feeds_outage_comparator(self):
        cfg = replace(
            PRACTICAL,
            n_b=3,
            a=(0.761, 0.191, 0.048),
            gamma_th=(2.0, 2.5, 3.0),
            mu=0.0,
            sigma2_est_sr=0.048,
            sigma2_est_ru=(0.048,) * 3,
            fd_tau_sr=0.0,
            fd_tau_ru=(0.0,) * 3,
        )
        rng = np.random.default_rng(11)
        ch = random_channels(cfg, rng, si=0.0001)
        meas = symbol_level_validate(cfg, ch, 25.0, 200_000, seed=3)
        pred = [predicted_sinr(cfg, ch, 25.0, l) for l in (1, 2, 3)]
        for m, p in zip(meas, pred):
            for got, want in zip(m, p, strict=True):
                assert got == pytest.approx(want, rel=0.03)

        def outage(sinr):
            return [any(g <= th for g, th in zip(s, cfg.gamma_th)) for s in sinr]

        assert outage(meas) == outage(pred)


class TestInputValidation:
    def test_channel_shape_validated(self):
        cfg = SystemConfig(n_r=2)
        bad = FixedChannels(h_sr=(1.0, 1.0), h_ru=((1.0,), (1.0,), (1.0,)), si_gain=0.0)
        with pytest.raises(ConfigError, match="h_ru"):
            run_symbol_chain(cfg, bad, 10.0, 10)
