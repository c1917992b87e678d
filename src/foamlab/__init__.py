"""foamlab: cube-root space-time measurement uncertainty, end to end.

The toolkit implements the cube-root (Ng-van Dam) uncertainty laws for
geodesic lengths and times, pushes them through Wigner's three-pulse
clock-mirror curvature protocol to curvature and energy-density
fluctuations, verifies the closed forms by seeded Monte Carlo sampling,
and exercises the estimator end to end in a toy constant-curvature
bounce simulator.  Everything works in CGS units (cm, g, s).

`import foamlab` loads only constants, errors and laws, which every CLI
command needs.  The wigner, bounce, montecarlo and report submodules, and
the public names they define, are imported on first access, so NumPy
loads only with montecarlo or report.
"""

__version__ = "0.1.0"

import importlib

from .constants import ConstantSet, load_constants, make_constants
from .errors import ConfigError, ConsistencyError, DomainError
from .laws import clock_mass, length_uncertainty, max_length_for_density, time_uncertainty

# Public name: the submodule that defines it.  Neither the submodules nor these
# names are bound at import; the first access imports them (PEP 562).
_LAZY = {
    "TripletCovariance": "wigner",
    "curvature_from_second_difference": "wigner",
    "curvature_uncertainty": "wigner",
    "density_fluctuation": "wigner",
    "riemann_scalar_fluctuation": "wigner",
    "second_difference_variance": "wigner",
    "BounceModel": "bounce",
    "BounceRecord": "bounce",
    "simulate_round_trips": "bounce",
    "McConfig": "montecarlo",
    "McResult": "montecarlo",
    "ngvandam_covariance": "montecarlo",
    "verify_curvature_uncertainty": "montecarlo",
    "ClaimReport": "report",
    "ClaimRow": "report",
    "build_claim_report": "report",
}
_SUBMODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    """A lazy submodule or public name, imported on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "__version__",
    "ConstantSet",
    "load_constants",
    "make_constants",
    "ConfigError",
    "ConsistencyError",
    "DomainError",
    "clock_mass",
    "length_uncertainty",
    "max_length_for_density",
    "time_uncertainty",
    *_LAZY,
]
