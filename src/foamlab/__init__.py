"""foamlab: cube-root space-time measurement uncertainty, end to end.

The toolkit implements the cube-root (Ng-van Dam) uncertainty laws for
geodesic lengths and times, pushes them through Wigner's three-pulse
clock-mirror curvature protocol to curvature and energy-density
fluctuations, verifies the closed forms by seeded Monte Carlo sampling,
and exercises the estimator end to end in a toy constant-curvature
bounce simulator.  Everything works in CGS units (cm, g, s).
"""

__version__ = "0.1.0"

from .constants import (
    ConstantSet,
    load_constants,
    make_constants,
    validate_constants,
)
from .errors import ConfigError, ConsistencyError, DomainError
from .laws import UncertaintyLaw
from .wigner import (
    FluctuationProfile,
    PulseTriplet,
    TripletCovariance,
    curvature_uncertainty,
    density_fluctuation,
    estimate_curvature,
    fluctuation_profile,
    riemann_scalar_fluctuation,
    second_difference_variance,
)
from .montecarlo import McConfig, McResult, ngvandam_covariance, verify_curvature_uncertainty
from .bounce import BounceModel, BounceRecord, estimator_response, simulate_round_trips
from .report import ClaimReport, ClaimRow, build_claim_report

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
    "FluctuationProfile",
    "PulseTriplet",
    "TripletCovariance",
    "curvature_uncertainty",
    "density_fluctuation",
    "estimate_curvature",
    "fluctuation_profile",
    "riemann_scalar_fluctuation",
    "second_difference_variance",
    "McConfig",
    "McResult",
    "ngvandam_covariance",
    "verify_curvature_uncertainty",
    "BounceModel",
    "BounceRecord",
    "estimator_response",
    "simulate_round_trips",
    "ClaimReport",
    "ClaimRow",
    "build_claim_report",
]
