"""foamlab: cube-root space-time measurement uncertainty, end to end.

The toolkit implements the cube-root (Ng-van Dam) uncertainty laws for
geodesic lengths and times, pushes them through Wigner's three-pulse
clock-mirror curvature protocol to curvature and energy-density
fluctuations, verifies the closed forms by seeded Monte Carlo sampling,
and exercises the estimator end to end in a toy constant-curvature
bounce simulator.  Everything works in CGS units (cm, g, s).

`import foamlab` does not load NumPy.  The names of the two modules that
need it, montecarlo and report, are imported on first access.
"""

__version__ = "0.1.0"

import importlib

from .constants import (
    ConstantSet,
    load_constants,
    make_constants,
    validate_constants,
)
from .errors import ConfigError, ConsistencyError, DomainError
from .laws import UncertaintyLaw
from .wigner import (
    PulseTriplet,
    TripletCovariance,
    curvature_uncertainty,
    density_fluctuation,
    estimate_curvature,
    riemann_scalar_fluctuation,
    second_difference_variance,
)
from .bounce import BounceModel, BounceRecord, simulate_round_trips

# Public name: the submodule that defines it and loads NumPy on import.
_LAZY = {
    "McConfig": "montecarlo",
    "McResult": "montecarlo",
    "ngvandam_covariance": "montecarlo",
    "verify_curvature_uncertainty": "montecarlo",
    "ClaimReport": "report",
    "ClaimRow": "report",
    "build_claim_report": "report",
}


def __getattr__(name: str):
    """The montecarlo and report names, imported on first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "__version__",
    "ConstantSet",
    "load_constants",
    "make_constants",
    "validate_constants",
    "ConfigError",
    "ConsistencyError",
    "DomainError",
    "UncertaintyLaw",
    "PulseTriplet",
    "TripletCovariance",
    "curvature_uncertainty",
    "density_fluctuation",
    "estimate_curvature",
    "riemann_scalar_fluctuation",
    "second_difference_variance",
    "McConfig",
    "McResult",
    "ngvandam_covariance",
    "verify_curvature_uncertainty",
    "BounceModel",
    "BounceRecord",
    "simulate_round_trips",
    "ClaimReport",
    "ClaimRow",
    "build_claim_report",
]
