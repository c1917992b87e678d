"""The cube-root (Ng-van Dam) measurement uncertainty laws and inversions.

The length law states that any geodesic length l carries an intrinsic
one-standard-deviation uncertainty

    delta_l = l_planck^(2/3) * l^(1/3)

with the time law as its exact image under t = l/c.  The clock-mass law
gives the mass an optimal clock must have to reach that accuracy, and
max_length_for_density inverts the energy-density fluctuation it implies.

Each law is a pure function of its input and a ConstantSet, which
defaults to the shared CODATA-2018 set DEFAULT_CONSTANTS; a ConstantSet
checks itself when built, so the laws take any set as given.

The uncertainties are treated as one-sigma values, not hard bounds; that
reading is what makes the Monte Carlo verification well-posed.  Inputs
below the Planck scale are accepted (the laws have their fixed point
there) but are physically meaningless; the CLI warns when an input is
below the Planck length or time.
"""

from __future__ import annotations

from .constants import (
    DEFAULT_CONSTANTS,
    ConstantSet,
    Length,
    Mass,
    MassDensity,
    TimeInterval,
    require_positive_finite,
)


def length_uncertainty(l: Length, constants: ConstantSet = DEFAULT_CONSTANTS) -> Length:
    """delta_l = l_planck^(2/3) * l^(1/3); fixed point at l = l_planck."""
    require_positive_finite("l", l)
    return constants.l_planck ** (2.0 / 3.0) * l ** (1.0 / 3.0)


def time_uncertainty(t: TimeInterval, constants: ConstantSet = DEFAULT_CONSTANTS) -> TimeInterval:
    """delta_t = t_planck^(2/3) * t^(1/3)."""
    require_positive_finite("t", t)
    return constants.t_planck ** (2.0 / 3.0) * t ** (1.0 / 3.0)


def clock_mass(l: Length, constants: ConstantSet = DEFAULT_CONSTANTS) -> Mass:
    """Optimal clock mass m = m_planck * (l / l_planck)^(1/3)."""
    require_positive_finite("l", l)
    # Powered apart: the quotient l / l_planck overflows above l ~ 2.9e275 cm.
    return constants.m_planck * l ** (1.0 / 3.0) * constants.l_planck ** (-1.0 / 3.0)


def max_length_for_density(
    rho_max: MassDensity, constants: ConstantSet = DEFAULT_CONSTANTS
) -> Length:
    """Largest averaging length whose density fluctuation stays below rho_max.

    Solves (hbar/c) * l_planck^(-2/3) * l^(-10/3) = rho_max for l, the
    inverse of wigner.density_fluctuation.
    """
    require_positive_finite("rho_max", rho_max)
    cs = constants
    scale = (cs.hbar / cs.c) * cs.l_planck ** (-2.0 / 3.0)
    # Powered apart, so no subnormal quotient scale / rho_max loses digits near 1e308.
    return scale**0.3 * rho_max**-0.3
