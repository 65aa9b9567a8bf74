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

from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

from . import analytic, mcsim
from .errors import ConfigError, FdnomaError
from .sysmodel import SystemConfig, _check_finite, _integer_at_least, _shown

__all__ = [
    "METHODS", "AXES", "MAX_GRID_POINTS", "linear_grid", "SweepSpec", "PresetVariant",
    "figure_preset", "PRESET_NAMES",
]


def _exact_batch(points, users, methods, spec, workers):
    """Every exact cell as one analytic.exact_outage_sweep."""
    cells = [(idx, user, "exact") for idx in points for user in users]
    results = analytic.exact_outage_sweep([(*points[idx], user, None) for idx, user, _ in cells])
    return dict(zip(cells, results))


def _simulation_batch(points, users, methods, spec, workers):
    """The simulation methods as one Monte Carlo sweep on the common random
    numbers of spec.seed; a point that fails puts its error in its own
    cells."""
    results = mcsim.simulate_sweep(list(points.values()), spec.trials, seed=spec.seed,
                                   workers=workers, methods=methods)
    return {(idx, user, m): res if isinstance(res, FdnomaError) else res[m][user - 1]
            for idx, res in zip(points, results) for user in users for m in methods}


def _per_cell(evaluate: Callable[..., analytic.OutagePoint]):
    """The batch of a method evaluated cell by cell, evaluate(cfg, snr_db,
    user); a cell's FdnomaError stays in that cell."""

    def batch(points, users, methods, spec, workers):
        (method,) = methods
        out = {}
        for idx, (cfg, snr_db) in points.items():
            for user in users:
                try:
                    out[idx, user, method] = evaluate(cfg, snr_db, user)
                except FdnomaError as exc:
                    out[idx, user, method] = exc
        return out

    return batch


# Every method, in CSV order, and the batch that evaluates its cells:
# batch(points, users, methods, spec, workers) maps points {grid index:
# (cfg, snr_db)} to {(grid index, user, method): OutagePoint or the
# FdnomaError in its place} for every point, user and method given.  The
# simulation methods share one batch, so they run on common draws.  Each
# batch looks its analytic or mcsim function up when it runs, so a patched
# or traced module attribute takes effect.
METHODS = {
    "exact": _exact_batch,
    "lower_bound": _per_cell(lambda cfg, snr, l: analytic.lower_bound_outage(cfg, snr, l)),
    "asymptotic_ideal": _per_cell(
        lambda cfg, snr, l: analytic.asymptotic_outage_ideal(cfg, snr, l)),
    "asymptotic_practical": _per_cell(
        lambda cfg, snr, l: analytic.asymptotic_outage_practical(cfg, l)),
    **dict.fromkeys(mcsim.SIM_METHODS, _simulation_batch),
}


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
    """start + k step for k = 0, 1, ... up to stop, counted and made
    exactly from the decimals str() gives the bounds: each point is the
    float nearest its value (never -0.0), or an int when start and step
    are ints; at most MAX_GRID_POINTS points, counted before any is made."""
    _check_finite("grid bounds", (start, stop, step), ":".join(map(_shown, (start, stop, step))))
    if step <= 0 or stop < start:
        raise ConfigError(f"grid must be an increasing range, got {start}:{stop}:{step}")
    a, b, h = (Fraction(str(x)) for x in (start, stop, step))
    last = (b - a) // h
    if not last < MAX_GRID_POINTS:  # shown as a float, which prints any count
        raise ConfigError(f"grid {start}:{stop}:{step} has {(float(stop) - start) / step + 1:.6g} "
                          f"points, more than the {MAX_GRID_POINTS} a sweep takes")
    kind = type(start + step)
    return tuple(kind(a + k * h) for k in range(last + 1))


@dataclass(frozen=True)
class SweepSpec:
    """Axis, grid and output protocol of one sweep.

    snr_db fixes the operating point when the axis is not snr_db, and must
    be None on the snr_db axis.  trials must be an integer in mcsim's
    MIN_TRIALS..MAX_TRIALS and seed one >= 0, even when no simulation method
    runs; a bad value raises ConfigError when the spec is built.
    """

    axis: str = "snr_db"
    grid: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("exact",)
    users: tuple[int, ...] = (1, 2, 3)
    trials: int = 100_000
    seed: int = 1
    snr_db: float | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; choose from {tuple(AXES)}")
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        _check_finite("sweep grid values", self.grid)
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {tuple(METHODS)}")
        try:
            _integer_at_least(self.trials, mcsim.MIN_TRIALS, "trials", mcsim.MAX_TRIALS)
            _integer_at_least(self.seed, 0, "seed")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.axis != "snr_db" and self.snr_db is None:
            raise ConfigError(f"axis {self.axis!r} needs a fixed snr_db")
        if self.axis == "snr_db" and self.snr_db is not None:
            raise ConfigError("the snr_db axis takes the SNR from its grid; "
                              f"got snr_db={_shown(self.snr_db)}")
        if self.snr_db is not None:
            _check_finite("snr_db", self.snr_db)
        if not self.methods:
            raise ConfigError("methods list is empty")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods list repeats a method: {self.methods}")
        if not self.users:
            raise ConfigError("users list is empty")
        if len(set(self.users)) < len(self.users):
            raise ConfigError(f"users list repeats a user: {_shown(self.users)}")

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
