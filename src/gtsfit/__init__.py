"""Tempered-stable return modelling: spectral density inversion, ML fitting, tail risk.

The public names load their module on first use (PEP 562), so
``import gtsfit`` loads no numpy and leaves the process's threading alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "gts_model": ("GtsParams", "cumulants", "moment_stats"),
    "spectral": ("FourierGrid", "DensityTable", "choose_grid", "density_table"),
    "mle": ("FitOptions", "FitStatus", "fit"),
    "risk": ("RiskReport", "TailSide", "avar", "var"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
