"""Outage-probability laboratory for a multi-user downlink NOMA system
served through a full-duplex AF relay with transmit antenna selection,
Alamouti coding and MRC reception, over Nakagami-m fading with channel
estimation error and feedback delay.

Two independent engines compute the per-user outage probability: the
closed-form analysis (exact single-integral form, lower bounds, high-SNR
asymptotics) and a Monte Carlo simulator, plus a symbol-level waveform
validator.  The `fdnoma` CLI reproduces the reference figure datasets.
"""

from .analytic import (
    asymptotic_outage_ideal,
    asymptotic_outage_practical,
    diversity_order,
    exact_outage,
    lower_bound_outage,
)
from .errors import ConfigError, FdnomaError, ImpairmentError, InfeasibleAllocationError, NumericsError
from .mcsim import RngStream, simulate_baseline, simulate_outage
from .presets import SweepSpec, figure_preset
from .sysmodel import OutagePoint, SystemConfig, load_config, loads_config, dump_config

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "OutagePoint",
    "SweepSpec",
    "RngStream",
    "exact_outage",
    "lower_bound_outage",
    "asymptotic_outage_ideal",
    "asymptotic_outage_practical",
    "diversity_order",
    "simulate_outage",
    "simulate_baseline",
    "figure_preset",
    "load_config",
    "loads_config",
    "dump_config",
    "FdnomaError",
    "ConfigError",
    "ImpairmentError",
    "InfeasibleAllocationError",
    "NumericsError",
    "__version__",
]
