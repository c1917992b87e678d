"""Wigner's three-pulse curvature estimator and the fluctuation chain.

A clock and a mirror at rest, separated by l/2, exchange three
consecutive light round trips with flight times (t1, t2, t3).  The
average curvature in the swept region is read off the second difference

    C = (t1 - 2 t2 + t3) / (11 c t2^2)

which annihilates constant and linear trends in the flight times.
Applying the cube-root uncertainty law to the single, pairwise and
triple intervals gives the closed-form curvature noise

    delta_C = sqrt(15 - 6*2^(2/3) + 3^(2/3)) / 11 * (1/l) * (l_planck/l)^(2/3)

valid in the linearized regime l >> l_planck (the flight times are then
much larger than their fluctuations; below LINEARIZATION_MIN_PLANCK
Planck lengths `foamlab fluct` flags the output as questionable).  From
delta_C follow the Riemann-scalar and energy-density fluctuations.  The
scalar and density relations are order-of-magnitude laws: they are
implemented with coefficient exactly 1 and must be labelled as such in
user-facing output.  Every law here computes in the CODATA-2018 set
DEFAULT_CONSTANTS; in other units, each is the formula in its docstring.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .constants import (
    DEFAULT_CONSTANTS,
    Curvature,
    Curvature2,
    Length,
    MassDensity,
    TimeInterval,
    require_positive_finite,
    require_representable,
)
from .errors import ConsistencyError, DomainError
from .laws import DENSITY_SCALE

if TYPE_CHECKING:
    import numpy as np

# Ratio Var(t1 - 2 t2 + t3) / sigma^2 implied by the cube-root law applied
# to overlapping intervals, and the resulting prefactor of delta_C.
VARIANCE_RATIO = 15.0 - 6.0 * 2.0 ** (2.0 / 3.0) + 3.0 ** (2.0 / 3.0)
CURVATURE_NOISE_COEFF = math.sqrt(VARIANCE_RATIO) / 11.0

# Linearization guard: below this many Planck lengths the closed forms
# still evaluate but the linear-in-delta_t approximation is questionable.
LINEARIZATION_MIN_PLANCK = 100.0

# PSD acceptance: smallest eigenvalue >= -PSD_RTOL * sigma2.
PSD_RTOL = 1e-12

_ROUTE_RTOL = 1e-12


class TripletCovariance(NamedTuple):
    """3x3 covariance of (t1, t2, t3) with equal diagonal entries.

    Units are time^2.  cov12/cov23 are the adjacent covariances, cov13
    the outer one; the matrix view is symmetric by construction.
    """

    sigma2: float
    cov12: float
    cov23: float
    cov13: float

    def matrix(self) -> np.ndarray:
        import numpy as np  # here, not at module level: the closed forms run without NumPy

        s, c12, c23, c13 = self
        return np.array([[s, c12, c13], [c12, s, c23], [c13, c23, s]])

    def validate(self) -> None:
        import numpy as np

        if not all(math.isfinite(entry) for entry in self):
            raise DomainError(f"covariance entries must be finite, got {tuple(self)!r}")
        if self.sigma2 <= 0:
            raise DomainError(f"sigma2 must be strictly positive, got {self.sigma2!r}")
        smallest = float(np.linalg.eigvalsh(self.matrix())[0])
        if smallest < -PSD_RTOL * self.sigma2:
            raise DomainError(
                f"covariance is not positive semidefinite: smallest eigenvalue {smallest!r}"
            )


def curvature_from_second_difference(second_difference: TimeInterval, t2: TimeInterval) -> Curvature:
    """Average curvature (t1 - 2 t2 + t3) / (11 c t2^2) in 1/cm, Wigner's estimator.

    Takes the second difference t1 - 2 t2 + t3 of three successive
    round-trip flight times (seconds) and the middle time t2, so a caller
    may form the second difference from fluctuations without the times
    themselves.  The estimate is linear in the second difference and has
    its sign; affine trends in the flight times cancel in it.  t2 must be
    strictly positive and finite.
    """
    require_positive_finite("t2", t2)
    # Dividing by t2 twice: t2**2 underflows to zero below ~1e-162 s.
    return second_difference / (11.0 * DEFAULT_CONSTANTS.c * t2) / t2


def second_difference_variance(cov: TripletCovariance) -> float:
    """Var(t1 - 2 t2 + t3) in time^2, computed two equivalent ways.

    Route one is the direct quadratic form with weights (1, -2, 1); route
    two is the six-term decomposition into single, pairwise and triple
    interval variances:

        3 V(t1) + 9 V(t2) + 3 V(t3) - 3 V(t1+t2) - 3 V(t2+t3) + V(t1+t2+t3)

    The two are an algebraic identity for any joint distribution, so any
    disagreement (beyond 1e-12 relative to the matrix scale) raises
    ConsistencyError.
    """
    cov.validate()
    direct, six_term = _variance_routes(*cov)
    # Relative to the matrix scale as well, since the variance itself may
    # legitimately cancel to zero (perfectly correlated triplets).
    if abs(direct - six_term) > _ROUTE_RTOL * max(abs(direct), abs(six_term), cov.sigma2):
        raise ConsistencyError(
            f"second-difference variance routes disagree: direct {direct!r} vs six-term {six_term!r}"
        )
    return direct


def _variance_routes(sigma2, cov12, cov23, cov13):
    """(direct, six-term) values of Var(t1 - 2 t2 + t3); see second_difference_variance.

    Elementwise IEEE arithmetic only, so NumPy array fields give each
    element's pair bit for bit as float fields would; the report's
    identity batch takes them that way.
    """
    direct = 6.0 * sigma2 - 4.0 * cov12 - 4.0 * cov23 + 2.0 * cov13
    var_12 = 2.0 * sigma2 + 2.0 * cov12
    var_23 = 2.0 * sigma2 + 2.0 * cov23
    var_123 = 3.0 * sigma2 + 2.0 * (cov12 + cov23 + cov13)
    six_term = 3.0 * sigma2 + 9.0 * sigma2 + 3.0 * sigma2 - 3.0 * var_12 - 3.0 * var_23 + var_123
    return direct, six_term


def curvature_uncertainty(l: Length) -> Curvature:
    """Closed-form curvature noise delta_C(l) in 1/cm.

    Equals CURVATURE_NOISE_COEFF * (1/l) * (l_planck/l)^(2/3); scales as
    l^(-5/3).  A result that is not a normal double raises DomainError.
    """
    require_positive_finite("l", l)
    ratio = DEFAULT_CONSTANTS.l_planck / l
    return _evaluate("delta_C", l, lambda: CURVATURE_NOISE_COEFF * (1.0 / l) * ratio ** (2.0 / 3.0))


def riemann_scalar_fluctuation(l: Length) -> Curvature2:
    """Riemann-scalar fluctuation (1/l^2) * (l_planck/l)^(4/3) in 1/cm^2.

    Order-of-magnitude law, implemented with coefficient exactly 1.  A
    result that is not a normal double raises DomainError.
    """
    require_positive_finite("l", l)
    ratio = DEFAULT_CONSTANTS.l_planck / l
    return _evaluate("delta_R", l, lambda: (1.0 / l**2) * ratio ** (4.0 / 3.0))


def density_fluctuation(l: Length) -> MassDensity:
    """Energy-density fluctuation (hbar/c) * l_planck^(-2/3) * l^(-10/3) in g/cm^3.

    Order-of-magnitude law with coefficient exactly 1.  Also evaluated as
    (c^2/G) times the Riemann-scalar law; the two forms are the same
    identity through l_planck^2 = hbar G / c^3 and must agree to 1e-12
    relative, else ConsistencyError.  A result that is not a normal double
    raises DomainError; delta_R itself need not be one.
    """
    require_positive_finite("l", l)
    try:
        direct, via_scalar = _density_forms(l)
    except OverflowError:
        raise DomainError(f"delta_rho at l = {l!r} cm overflows a double") from None
    require_representable("delta_rho", direct, l)
    if abs(direct - via_scalar) > _ROUTE_RTOL * direct:
        raise ConsistencyError(
            f"density fluctuation forms disagree: {direct!r} vs {via_scalar!r}"
        )
    return direct


def _density_forms(l: Length) -> tuple[float, float]:
    """delta_rho as (hbar/c) l_planck^(-2/3) l^(-10/3), and as (c^2/G) delta_R.

    Each product is taken in an order that keeps every intermediate a
    normal double wherever delta_rho is one: l^(-10/3) as two powers with
    the scale taken first (l**(-10/3) alone overflows below l ~ 3.3e-93 cm),
    and c^2/G applied before the small factors of delta_R (which is
    subnormal from l ~ 1e80 cm, where delta_rho still fits).
    """
    direct = DENSITY_SCALE * l ** (-5.0 / 3.0) * l ** (-5.0 / 3.0)
    via_scalar = (
        DEFAULT_CONSTANTS.c**2 / DEFAULT_CONSTANTS.G / l / l
        * (DEFAULT_CONSTANTS.l_planck / l) ** (4.0 / 3.0)
    )
    return direct, via_scalar


def _evaluate(name: str, l: Length, formula: Callable[[], float]) -> float:
    """formula(), if it is a normal double; DomainError otherwise.

    A float power that leaves the double range raises OverflowError, and
    1/l**2 raises ZeroDivisionError once l**2 underflows; both mean the
    law at l is outside double precision.  The error names no direction,
    since l**2 overflows at lengths where delta_R itself underflows.
    """
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{name} at l = {l!r} cm is not a representable double") from None
    return require_representable(name, value, l)
