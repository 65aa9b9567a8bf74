"""Symbol-level test-bed: Alamouti encoding, AF relaying with residual
self-interference, MRC combining and successive cancellation, run over an
actual 4-QAM waveform on fixed channels, and the scalar per-stage SINR
model it is checked against.

Power conventions follow the analytical model: the two selected antennas
split the total power (each codeword entry carries P/2), the relay gain is
normalized by P*rho^2*A + P*C + P*sigma2_sr + sigma2, and the residual SI
is injected as an independent unit-power stream scaled to P*C (the one-block
processing delay decorrelates it from the current codeword).  First-hop
CEE/FBD enters as additive estimation noise of per-slot power (P/2)*sigma2_sr,
which is the budget the theta constants assign to it; the second-hop error
perturbs the channel vector itself, drawn fresh per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fdnoma.errors import ConfigError
from fdnoma.sysmodel import SystemConfig, compute_theta, derive_link_stats

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class FixedChannels:
    """Deterministic channel state for the test-bed.

    h_sr: the two selected estimated-delayed first-hop coefficients.
    h_ru: per-user receive vectors, shape (n_users, n_r); their gains must
    ascend with the user index, as the ordering protocol that assigns the
    power levels makes them.
    si_gain: residual SI power |h_rr|^2.
    """

    h_sr: tuple[complex, complex]
    h_ru: tuple[tuple[complex, ...], ...]
    si_gain: float


@dataclass
class ChainOutput:
    """Raw combiner outputs of one run.

    symbols: transmitted per-user unit symbols, shape (L, 2, blocks).
    combined: Alamouti-MRC outputs per user, shape (L, 2, blocks).
    mean_gain: the deterministic coefficient multiplying each user's symbol
    stream at the combiner output (per user).
    """

    symbols: np.ndarray
    combined: np.ndarray
    mean_gain: np.ndarray


def _cn(rng: np.random.Generator, var: float, shape) -> np.ndarray:
    if var == 0.0:
        return np.zeros(shape, dtype=complex)
    s = np.sqrt(var / 2.0)
    return rng.normal(0.0, s, shape) + 1j * rng.normal(0.0, s, shape)


def run_symbol_chain(
    cfg: SystemConfig,
    channels: FixedChannels,
    snr_db: float | None,
    blocks: int,
    seed: int = 0,
) -> ChainOutput:
    """Run the encode -> relay -> combine chain for a number of Alamouti
    blocks of QPSK symbols.

    snr_db = None turns off thermal noise (at unit transmit power) while
    keeping the rest of the chain; the SI stream stays only if si_gain > 0.
    """
    if len(channels.h_ru) != cfg.n_users or any(len(r) != cfg.n_r for r in channels.h_ru):
        raise ConfigError("h_ru must have shape (n_users, n_r)")

    power = 10.0 ** (snr_db / 10.0) if snr_db is not None else 1.0
    noise_var = 1.0 if snr_db is not None else 0.0
    stats = derive_link_stats(cfg, power)
    gen = np.random.default_rng(seed)

    h = np.asarray(channels.h_sr, dtype=complex)
    a_gain = float(np.sum(np.abs(h) ** 2))
    c_gain = channels.si_gain
    rho_s = stats.rho_sr
    relay_gain = np.sqrt(
        power / (power * rho_s**2 * a_gain + power * c_gain + power * stats.sigma2_sr + noise_var)
    )

    L, n_r = cfg.n_users, cfg.n_r
    syms = QPSK[gen.integers(0, len(QPSK), size=(L, 2, blocks))]
    amps = np.sqrt(np.array(cfg.a) * power / 2.0)
    x = np.tensordot(amps, syms, axes=(0, 0))  # (2, blocks) superposed slots

    # Relay input over the two Alamouti slots: data through the mean first-hop
    # channel, plus CEE/FBD-equivalent noise, residual SI, thermal noise.
    est_noise = _cn(gen, power / 2.0 * stats.sigma2_sr, (2, blocks))
    si = np.sqrt(power * c_gain) * _cn(gen, 1.0, (2, blocks)) if c_gain > 0 else 0.0
    w_relay = _cn(gen, noise_var, (2, blocks))
    r1 = rho_s * (x[0] * h[0] + x[1] * h[1])
    r2 = rho_s * (-np.conj(x[1]) * h[0] + np.conj(x[0]) * h[1])
    relay_tx = relay_gain * (np.stack([r1, r2]) + est_noise + si + w_relay)

    combined = np.empty((L, 2, blocks), dtype=complex)
    mean_gain = np.empty(L)
    for l in range(L):
        q = np.asarray(channels.h_ru[l], dtype=complex)  # (n_r,)
        rho_r = stats.rho_ru[l]
        # combined CEE+FBD error perturbs the vector, fresh per block
        eps = _cn(gen, stats.sigma2_ru[l], (n_r, blocks))
        q_true = rho_r * q[:, None] + eps  # (n_r, blocks)
        w_user = _cn(gen, noise_var, (2, n_r, blocks))
        y = relay_tx[:, None, :] * q_true[None, :, :] + w_user  # (2, n_r, blocks)
        # Alamouti-MRC with the known estimates (h, q)
        w1 = (np.conj(h[0]) * np.conj(q))[:, None]
        w2 = (h[1] * q)[:, None]
        combined[l, 0] = np.sum(w1 * y[0] + w2 * np.conj(y[1]), axis=0)
        w1b = (np.conj(h[1]) * np.conj(q))[:, None]
        w2b = (h[0] * q)[:, None]
        combined[l, 1] = np.sum(w1b * y[0] - w2b * np.conj(y[1]), axis=0)
        b_gain = float(np.sum(np.abs(q) ** 2))
        mean_gain[l] = relay_gain * rho_s * rho_r * a_gain * b_gain
    return ChainOutput(symbols=syms, combined=combined, mean_gain=mean_gain)


def symbol_level_validate(
    cfg: SystemConfig,
    channels: FixedChannels,
    snr_db: float,
    symbols: int,
    seed: int = 0,
) -> list[tuple[float, ...]]:
    """Measured per-stage SINRs of the waveform chain: per user l, the
    SINRs of stages k = 1..l.

    Stage k at user l measures the k-th user's symbol after perfectly
    cancelling the mean contributions of stages 1..k-1; the measured
    signal power comes from regressing the residual on the known symbol
    stream, everything else counts as interference plus noise.
    """
    blocks = max(symbols // 2, 1)
    out = run_symbol_chain(cfg, channels, snr_db, blocks, seed)
    power = 10.0 ** (snr_db / 10.0)
    amps = np.sqrt(np.array(cfg.a) * power / 2.0)
    results = []
    for l in range(1, cfg.n_users + 1):
        v = out.combined[l - 1].copy()  # (2, blocks)
        gammas = []
        for k in range(1, l + 1):
            s_k = out.symbols[k - 1]
            beta = np.mean(v * np.conj(s_k))
            p_sig = abs(beta) ** 2
            p_in = float(np.mean(np.abs(v - beta * s_k) ** 2))
            gammas.append(p_sig / p_in)
            # perfect SIC: remove the decoded stream's mean contribution
            v = v - out.mean_gain[l - 1] * amps[k - 1] * s_k
        results.append(tuple(gammas))
    return results


def predicted_sinr(cfg: SystemConfig, channels: FixedChannels, snr_db: float, l: int) -> tuple[float, ...]:
    """Model SINR gamma_{k->l} of every SIC stage k <= l on the fixed
    channels: a = |h_sr|^2 summed over the two antennas, b = |h_ru[l]|^2
    summed over the receive branches, c = si_gain."""
    g = 10.0 ** (snr_db / 10.0)
    theta = compute_theta(derive_link_stats(cfg, g), g, l)
    a = abs(channels.h_sr[0]) ** 2 + abs(channels.h_sr[1]) ** 2
    b = sum(abs(h) ** 2 for h in channels.h_ru[l - 1])
    c = channels.si_gain
    d0 = (
        theta.theta1 * g * a
        + theta.theta2 * g * b
        + theta.theta3 * g * c
        + theta.theta4 * g**2 * b * c
        + theta.theta5
    )
    signal = g**2 / 2 * a * b
    return tuple(signal * cfg.a[k - 1] / (signal * sum(cfg.a[k:]) + d0) for k in range(1, l + 1))
