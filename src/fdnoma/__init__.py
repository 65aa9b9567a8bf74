"""Outage-probability laboratory for a multi-user downlink NOMA system
served through a full-duplex AF relay with transmit antenna selection,
Alamouti coding and MRC reception, over Nakagami-m fading with channel
estimation error and feedback delay.

Two independent engines compute the per-user outage probability: the
closed-form analysis (`fdnoma.analytic`: exact single-integral form, lower
bounds, high-SNR asymptotics) and a Monte Carlo simulator (`fdnoma.mcsim`).
The `fdnoma` CLI drives both and reproduces the reference figure datasets.

Only the exceptions are imported with the package.  Every other public
name loads its module on first access (PEP 562), so `import fdnoma` loads
no numpy and `import fdnoma.mcsim` does not load the closed-form engine.
"""

import importlib

from .errors import ConfigError, FdnomaError, ImpairmentError, InfeasibleAllocationError, NumericsError

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "OutagePoint",
    "SweepSpec",
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

# public name -> the submodule that defines it
_HOMES = {
    "SystemConfig": "sysmodel",
    "OutagePoint": "sysmodel",
    "load_config": "sysmodel",
    "loads_config": "sysmodel",
    "dump_config": "sysmodel",
    "SweepSpec": "presets",
    "figure_preset": "presets",
    "simulate_outage": "mcsim",
    "simulate_baseline": "mcsim",
    "exact_outage": "analytic",
    "lower_bound_outage": "analytic",
    "asymptotic_outage_ideal": "analytic",
    "asymptotic_outage_practical": "analytic",
    "diversity_order": "analytic",
}


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first access,
    and keep the name as a module global."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
