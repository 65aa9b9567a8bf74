"""Figure presets: the sweep protocol and configuration behind each of the
reference result figures (fig3..fig12).

Where a figure shows several curves sharing one axis (different mu, antenna
counts, Nakagami shapes), the preset expands into one variant per curve
family, each with its own SystemConfig.  Parameters not spelled out in a
caption fall back to the baseline setup (n_b=2, n_r=1, m=1).

METHODS, AXES and linear_grid() are the one definition of the methods, axes
and grids of a sweep; the CLI and every sweep read them from here.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import get_args

from . import analytic, mcsim
from .errors import ConfigError
from .sysmodel import HdRule, SystemConfig

__all__ = [
    "Method", "METHODS", "methods_of", "AXES", "MAX_GRID_POINTS", "linear_grid",
    "SweepSpec", "PresetVariant", "figure_preset", "PRESET_NAMES",
]


@dataclass(frozen=True)
class Method:
    """kind is "analytic" or "simulation".  call(cfg, snr_db, user)
    evaluates an analytic method per cell.  exact and the simulation
    methods have none: a sweep runs every exact cell of its grid as one
    analytic.exact_outage_sweep, and the simulation methods together as
    one Monte Carlo sweep."""

    kind: str
    call: Callable[..., analytic.OutagePoint] | None = None


# Every method, in CSV order.  Each call looks its analytic function up when
# it runs, so a patched or traced module attribute takes effect.
METHODS = {
    "exact": Method("analytic"),
    "lower_bound": Method(
        "analytic", lambda cfg, snr, l: analytic.lower_bound_outage(cfg, snr, l)
    ),
    "asymptotic_ideal": Method(
        "analytic", lambda cfg, snr, l: analytic.asymptotic_outage_ideal(cfg, snr, l)
    ),
    "asymptotic_practical": Method(
        "analytic", lambda cfg, snr, l: analytic.asymptotic_outage_practical(cfg, l)
    ),
    **{name: Method("simulation") for name in mcsim.SIM_METHODS},
}


def methods_of(kind: str) -> tuple[str, ...]:
    """Names of the methods of one kind, in CSV order."""
    return tuple(name for name, m in METHODS.items() if m.kind == kind)


# Sweep axis -> the config at one axis value.  The snr_db axis leaves the
# config alone; its value is the SNR.
AXES: dict[str, Callable[[SystemConfig, float], SystemConfig]] = {
    "snr_db": lambda cfg, v: cfg,
    "mu": lambda cfg, v: replace(cfg, mu=v),
    "sigma2_est_sr": lambda cfg, v: replace(cfg, sigma2_est_sr=v),
    "sigma2_est_ru": lambda cfg, v: replace(cfg, sigma2_est_ru=(v,) * cfg.n_users),
    # users sit on the far side of the relay: d_ru = 1 - d_sr
    "d_sr": lambda cfg, v: replace(cfg, d_sr=v, d_ru=(1.0 - v,) * cfg.n_users),
}


# Points a grid may hold.  The preset grids hold at most 17, and a sweep
# costs at least a full set of Phi quadratures per exact point, so a grid
# past this is a typo (a step of 1e-7 dB), not a sweep to run.
MAX_GRID_POINTS = 100_000


def linear_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop (with 1e-9 slack), each rounded
    to 12 decimals; at most MAX_GRID_POINTS points, counted before any is
    made."""
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ConfigError(f"grid bounds must be finite, got {start}:{stop}:{step}")
    if step <= 0 or stop < start:
        raise ConfigError(f"grid must be an increasing range, got {start}:{stop}:{step}")
    # the last index k with start + k step <= stop + 1e-9, to within rounding
    last = (stop + 1e-9 - start) / step
    if not last < MAX_GRID_POINTS:
        raise ConfigError(f"grid {start}:{stop}:{step} has {last + 1:.6g} points, "
                          f"more than the {MAX_GRID_POINTS} a sweep takes")
    return tuple(round(start + k * step, 12) for k in range(math.floor(last) + 2)
                 if start + k * step <= stop + 1e-9)


@dataclass(frozen=True)
class SweepSpec:
    """Axis, grid and output protocol of one sweep.

    snr_db fixes the operating point when the axis is not snr_db, and must
    be None on the snr_db axis; hd_rule picks the HD-NOMA threshold mapping
    for the hd_noma method.  trials must be an integer >= mcsim.MIN_TRIALS
    and seed an integer >= 0, even when no simulation method runs; a bad
    value raises ConfigError when the spec is built.
    """

    axis: str = "snr_db"
    grid: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("exact",)
    users: tuple[int, ...] = (1, 2, 3)
    trials: int = 100_000
    seed: int = 1
    snr_db: float | None = None
    hd_rule: HdRule = "equal"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; choose from {tuple(AXES)}")
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        if not all(math.isfinite(x) for x in self.grid):
            raise ConfigError(f"sweep grid values must be finite, got {self.grid}")
        if any(self.grid[i] >= self.grid[i + 1] for i in range(len(self.grid) - 1)):
            raise ConfigError("sweep grid must be strictly increasing")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        if self.hd_rule not in get_args(HdRule):
            raise ConfigError(f"unknown hd_rule {self.hd_rule!r}; choose from {get_args(HdRule)}")
        for name, low in (("trials", mcsim.MIN_TRIALS), ("seed", 0)):
            try:
                mcsim._integer_at_least(getattr(self, name), low, name)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
        if self.axis != "snr_db" and self.snr_db is None:
            raise ConfigError(f"axis {self.axis!r} needs a fixed snr_db")
        if self.axis == "snr_db" and self.snr_db is not None:
            raise ConfigError(f"the snr_db axis takes the SNR from its grid; got snr_db={self.snr_db}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        if not self.users:
            raise ConfigError("users list is empty")
        if len(set(self.users)) < len(self.users):
            raise ConfigError(f"users list repeats a user: {self.users}")

    def point(self, cfg: SystemConfig, value: float) -> tuple[SystemConfig, float]:
        """The config and the SNR in dB at one axis value."""
        snr_db = value if self.axis == "snr_db" else self.snr_db
        return AXES[self.axis](cfg, value), snr_db


@dataclass(frozen=True)
class PresetVariant:
    label: str
    sweep: SweepSpec
    config: SystemConfig


_BASE = SystemConfig()  # defaults: the baseline three-user setup
_PRACTICAL = dict(
    sigma2_est_sr=0.01, sigma2_est_ru=(0.01,) * 3, fd_tau_sr=0.03, fd_tau_ru=(0.03,) * 3
)


def _fig3():
    sweep = SweepSpec(grid=linear_grid(0, 50, 5), methods=("exact", "lower_bound", "monte_carlo"))
    return [
        PresetVariant(f"nb{nb}", sweep, replace(_BASE, n_b=nb, mu=1.0)) for nb in (2, 3)
    ]


def _fig4():
    sweep = SweepSpec(
        grid=linear_grid(0, 40, 5), methods=("exact", "asymptotic_ideal", "monte_carlo")
    )
    out = []
    for mu in (0.0, 0.25, 0.5, 1.0):
        out.append(PresetVariant(f"mu{mu:g}", sweep, replace(_BASE, mu=mu)))
    return out


def _fig5():
    sweep = SweepSpec(grid=linear_grid(0, 40, 5), methods=("exact", "monte_carlo"))
    return [PresetVariant(f"nb{nb}", sweep, replace(_BASE, n_b=nb)) for nb in (2, 3)]


def _fig6():
    sweep = SweepSpec(
        grid=linear_grid(0, 50, 5),
        methods=("exact", "asymptotic_practical", "monte_carlo"),
    )
    out = []
    for nb, nr in ((2, 1), (3, 1), (2, 2), (3, 2)):
        cfg = replace(_BASE, n_b=nb, n_r=nr, **_PRACTICAL)
        out.append(PresetVariant(f"nb{nb}_nr{nr}", sweep, cfg))
    return out


def _fig7():
    sweep = SweepSpec(grid=linear_grid(0, 40, 5), methods=("exact", "monte_carlo"))
    out = []
    for m in (2, 3):
        shapes = dict(m_sr=m, m_rr=m, m_ru=(m,) * 3)
        out.append(PresetVariant(f"m{m}_ideal", sweep, replace(_BASE, **shapes)))
        out.append(PresetVariant(f"m{m}_practical", sweep, replace(_BASE, **shapes, **_PRACTICAL)))
    return out


def _fig8():
    # test-bed protocol: estimated shape 0.98, CEE variance from the LS
    # estimator, no feedback delay, SI fully cancelled
    cfg = replace(
        _BASE,
        n_b=3,
        n_r=2,
        m_sr=0.98,
        m_rr=0.98,
        m_ru=(0.98,) * 3,
        a=(0.761, 0.191, 0.048),
        gamma_th=(2.0, 2.5, 3.0),
        mu=0.0,
        sigma2_est_sr=0.048,
        sigma2_est_ru=(0.048,) * 3,
    )
    sweep = SweepSpec(grid=linear_grid(0, 40, 5), methods=("monte_carlo",))
    return [PresetVariant("testbed", sweep, cfg)]


def _fig9():
    sweep = SweepSpec(
        axis="mu",
        grid=linear_grid(0.0, 1.0, 0.1),
        methods=("monte_carlo", "hd_noma"),
        snr_db=15.0,
        hd_rule="equal",
    )
    return [PresetVariant("nb2", sweep, _BASE)]


def _fig10():
    out = []
    for examined in ("sr", "ru"):
        for nb in (2, 3):
            if examined == "sr":
                cfg = replace(_BASE, n_b=nb, fd_tau_sr=0.03)
                axis = "sigma2_est_sr"
            else:
                cfg = replace(_BASE, n_b=nb, fd_tau_ru=(0.03,) * 3)
                axis = "sigma2_est_ru"
            sweep = SweepSpec(
                axis=axis,
                grid=linear_grid(0.0, 0.25, 0.025),
                methods=("exact", "monte_carlo", "fd_oma"),
                snr_db=15.0,
            )
            out.append(PresetVariant(f"{examined}_nb{nb}", sweep, cfg))
    return out


def _fig11():
    sweep = SweepSpec(
        axis="d_sr",
        grid=linear_grid(0.1, 0.9, 0.05),
        methods=("exact", "monte_carlo", "fd_oma"),
        snr_db=15.0,
    )
    out = []
    for nb, nr in ((2, 1), (3, 1), (4, 1), (2, 2)):
        out.append(PresetVariant(f"nb{nb}_nr{nr}", sweep, replace(_BASE, n_b=nb, n_r=nr)))
    return out


def _fig12():
    sweep = SweepSpec(
        axis="d_sr",
        grid=linear_grid(0.1, 0.9, 0.05),
        methods=("exact", "monte_carlo", "fd_oma"),
        snr_db=15.0,
    )
    out = []
    for nb, nr in ((2, 1), (3, 1), (2, 2)):
        cfg = replace(_BASE, n_b=nb, n_r=nr, **_PRACTICAL)
        out.append(PresetVariant(f"nb{nb}_nr{nr}", sweep, cfg))
    return out


_PRESETS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
}

PRESET_NAMES = tuple(_PRESETS)


def figure_preset(name: str) -> list[PresetVariant]:
    """All curve-family variants of one figure preset.

    A name of the form "figN:variant" selects a single variant.
    """
    base, _, variant = name.partition(":")
    if base not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    variants = _PRESETS[base]()
    if not variant:
        return variants
    for v in variants:
        if v.label == variant:
            return [v]
    labels = ", ".join(v.label for v in variants)
    raise ConfigError(f"unknown variant {variant!r} for {base}; available: {labels}")
