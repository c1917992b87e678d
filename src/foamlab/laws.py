"""The cube-root (Ng-van Dam) measurement uncertainty laws and inversions.

The length law states that any geodesic length l carries an intrinsic
one-standard-deviation uncertainty

    delta_l = l_planck^(2/3) * l^(1/3)

with the time law as its exact image under t = l/c.  The clock-mass law
gives the mass an optimal clock must have to reach that accuracy, and
max_length_for_density inverts the energy-density fluctuation it implies.

Each law is a pure function of its input in the CODATA-2018 set
DEFAULT_CONSTANTS, the one set the toolkit computes with.  In other
units, each law is the one-line formula in its docstring.

The uncertainties are treated as one-sigma values, not hard bounds; that
reading is what makes the Monte Carlo verification well-posed.  Inputs
below the Planck scale are accepted (the laws have their fixed point
there) but are physically meaningless; the CLI warns when an input is
below the Planck length or time.
"""

from __future__ import annotations

from .constants import (
    DEFAULT_CONSTANTS,
    Length,
    Mass,
    MassDensity,
    TimeInterval,
    require_positive_finite,
)

# (hbar/c) * l_planck^(-2/3), the scale of the density law in g cm^(-5/3);
# wigner.density_fluctuation takes it from here.
DENSITY_SCALE = (
    (DEFAULT_CONSTANTS.hbar / DEFAULT_CONSTANTS.c) * DEFAULT_CONSTANTS.l_planck ** (-2.0 / 3.0)
)


def length_uncertainty(l: Length) -> Length:
    """delta_l = l_planck^(2/3) * l^(1/3); fixed point at l = l_planck."""
    require_positive_finite("l", l)
    return DEFAULT_CONSTANTS.l_planck ** (2.0 / 3.0) * l ** (1.0 / 3.0)


def time_uncertainty(t: TimeInterval) -> TimeInterval:
    """delta_t = t_planck^(2/3) * t^(1/3)."""
    require_positive_finite("t", t)
    return DEFAULT_CONSTANTS.t_planck ** (2.0 / 3.0) * t ** (1.0 / 3.0)


def clock_mass(l: Length) -> Mass:
    """Optimal clock mass m = m_planck * (l / l_planck)^(1/3)."""
    require_positive_finite("l", l)
    # Powered apart: the quotient l / l_planck overflows above l ~ 2.9e275 cm.
    return DEFAULT_CONSTANTS.m_planck * l ** (1.0 / 3.0) * DEFAULT_CONSTANTS.l_planck ** (-1.0 / 3.0)


def max_length_for_density(rho_max: MassDensity) -> Length:
    """Largest averaging length whose density fluctuation stays below rho_max.

    Solves (hbar/c) * l_planck^(-2/3) * l^(-10/3) = rho_max for l, the
    inverse of wigner.density_fluctuation.
    """
    require_positive_finite("rho_max", rho_max)
    # Powered apart, so no subnormal quotient DENSITY_SCALE / rho_max loses digits near 1e308.
    return DENSITY_SCALE**0.3 * rho_max**-0.3
