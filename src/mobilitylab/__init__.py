"""Energy and mobility analysis for a hybrid flying/rolling multirotor
platform: rotor power modeling, steady-state equilibria, closed-loop planar
simulation, range optimization, terrain trade-off mapping, multi-agent
scaling bounds and thermal insulation sizing.

``import mobilitylab`` loads no submodule: each one in ``__all__`` is
imported on first attribute access (PEP 562), so a CLI call pays only for
the modules its subcommand uses.
"""

import importlib

__all__ = ["aeropower", "cli", "control", "dynamics", "params", "rangeopt",
           "steadystate", "thermal"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
