import math
import operator
import sys

import pytest
from hypothesis import example, given, strategies as st

from foamlab.constants import DEFAULT_CONSTANTS
from foamlab.errors import DomainError
from foamlab import laws
from foamlab.wigner import curvature_uncertainty, density_fluctuation, riemann_scalar_fluctuation

# Direct evaluations with the CODATA Planck units (frozen oracles).
DELTA_L_1CM = 1.377230372884795e-22
DELTA_L_1E4CM = 2.9671528915085482e-21
DELTA_T_1S = 1.4271165960353683e-29
CLOCK_MASS_1CM = 1854565.9169408667
CLOCK_MASS_LIGHT_SECOND = 5761286646.320204
MAX_LENGTH_1E29 = 10523.850254061477


positive_lengths = st.floats(min_value=1e-30, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_length_uncertainty_fixed_point():
    lp = DEFAULT_CONSTANTS.l_planck
    assert laws.length_uncertainty(lp) == pytest.approx(lp, rel=1e-12, abs=0)


def test_length_uncertainty_frozen_values():
    assert laws.length_uncertainty(1.0) == pytest.approx(DELTA_L_1CM, rel=1e-12, abs=0)
    assert laws.length_uncertainty(1e4) == pytest.approx(DELTA_L_1E4CM, rel=1e-12, abs=0)
    # cube-root scaling between the two
    assert laws.length_uncertainty(1e4) / laws.length_uncertainty(1.0) == pytest.approx(
        1e4 ** (1 / 3), rel=1e-12, abs=0
    )


def test_time_uncertainty_fixed_point_and_values():
    tp = DEFAULT_CONSTANTS.t_planck
    assert laws.time_uncertainty(tp) == pytest.approx(tp, rel=1e-12, abs=0)
    assert laws.time_uncertainty(1.0) == pytest.approx(DELTA_T_1S, rel=1e-12, abs=0)
    t_1cm = 1.0 / DEFAULT_CONSTANTS.c
    assert laws.time_uncertainty(t_1cm) == pytest.approx(
        laws.length_uncertainty(1.0) / DEFAULT_CONSTANTS.c, rel=1e-12, abs=0
    )


@given(l=positive_lengths)
def test_time_length_bridge_identity(l):
    c = DEFAULT_CONSTANTS.c
    assert laws.time_uncertainty(l / c) * c == pytest.approx(
        laws.length_uncertainty(l), rel=1e-12, abs=0
    )


@given(l=positive_lengths, k=st.sampled_from([2.0, 10.0, 100.0]))
def test_cube_root_scaling(l, k):
    assert laws.length_uncertainty(k**3 * l) == pytest.approx(
        k * laws.length_uncertainty(l), rel=1e-12, abs=0
    )
    assert laws.clock_mass(k**3 * l) == pytest.approx(k * laws.clock_mass(l), rel=1e-12, abs=0)


def test_clock_mass_values():
    assert laws.clock_mass(DEFAULT_CONSTANTS.l_planck) == pytest.approx(
        DEFAULT_CONSTANTS.m_planck, rel=1e-12, abs=0
    )
    assert laws.clock_mass(1.0) == pytest.approx(CLOCK_MASS_1CM, rel=1e-12, abs=0)
    # published "~1e6 g" figure: same decade
    assert abs(math.log10(laws.clock_mass(1.0) / 1e6)) < 0.5
    # light-second input: the law answers ~5.8e9 g, nowhere near the quoted 1e16 g
    mass = laws.clock_mass(2.998e10)
    assert mass == pytest.approx(CLOCK_MASS_LIGHT_SECOND, rel=1e-12, abs=0)
    assert abs(math.log10(mass / 1e16)) > 0.5


def test_max_length_for_density_values():
    assert laws.max_length_for_density(1e-29) == pytest.approx(MAX_LENGTH_1E29, rel=1e-12, abs=0)
    # "order of water density" pairing at l ~ 1e-5 cm
    assert laws.max_length_for_density(11.86) == pytest.approx(1e-5, rel=2e-3, abs=0)


# Log-uniform over every positive double, 5e-324 ... 1.7e308.
whole_range = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(
    lambda exponent: max(10.0**exponent, 5e-324)
)


@given(rho=whole_range)
@example(rho=5e-324)
@example(rho=1e292)
@example(rho=1e305)
@example(rho=1.7e308)
def test_max_length_for_density_whole_range(sweep_references, rho):
    # (scale / rho) ** 0.3 went subnormal above rho ~ 1e292 and printed 0.0 at 1.7e308.
    ln_max_length = sweep_references[("threshold", "--density")]["max_length"]
    reference = math.exp(ln_max_length(math.log(rho)))
    assert abs(laws.max_length_for_density(rho) / reference - 1.0) < 1e-12


@given(l=whole_range)
@example(l=7.1e-98)
@example(l=1e-95)
@example(l=3.3e-93)
@example(l=1e79)
@example(l=1e80)
@example(l=4e87)
def test_density_fluctuation_whole_range(sweep_references, l):
    # scale * l**(-10/3) overflowed below l ~ 3.3e-93 cm, and the c^2/G check went through
    # a subnormal delta_R from l ~ 1e80 cm, where delta_rho still fits in a double.
    references = sweep_references[("fluct", "--length")]
    ln_l = math.log(l)
    # Refused only where delta_rho is not a normal double, here with a margin.
    normal = math.log(3e-308) < references["delta_rho"](ln_l) < math.log(1.7e308)
    try:
        rho = density_fluctuation(l)
    except DomainError:
        assert not normal
        return
    assert abs(rho / math.exp(references["delta_rho"](ln_l)) - 1.0) < 1e-12


@given(l=st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False))
def test_max_length_inverts_density_fluctuation(l):
    rho = density_fluctuation(l)
    assert laws.max_length_for_density(rho) == pytest.approx(l, rel=1e-9, abs=0)


@given(a=positive_lengths, b=positive_lengths)
@example(a=1e-30, b=math.nextafter(1e-30, 1.0))
@example(a=1e-30, b=1e-30 + 16 * math.ulp(1e-30))
@example(a=1e-30, b=1e-30 + 17 * math.ulp(1e-30))
def test_monotonicity(a, b):
    lo, hi = sorted((a, b))
    if lo == hi:
        return
    # A cube root can map neighbouring doubles to one double (1e-30 and the
    # next double give equal results), so inputs within 16 ulps need only
    # keep their order; farther apart, the order is strict.
    if hi - lo <= 16 * math.ulp(lo):
        increasing, decreasing = operator.le, operator.ge
    else:
        increasing, decreasing = operator.lt, operator.gt
    assert increasing(laws.length_uncertainty(lo), laws.length_uncertainty(hi))
    assert increasing(laws.time_uncertainty(lo), laws.time_uncertainty(hi))
    assert increasing(laws.clock_mass(lo), laws.clock_mass(hi))
    assert decreasing(laws.max_length_for_density(lo), laws.max_length_for_density(hi))


@pytest.mark.parametrize(
    "operation",
    [
        laws.length_uncertainty,
        laws.time_uncertainty,
        laws.clock_mass,
        laws.max_length_for_density,
        curvature_uncertainty,
        riemann_scalar_fluctuation,
        density_fluctuation,
    ],
    ids=lambda operation: operation.__name__,
)
@given(x=whole_range)
@example(x=5e-324)
@example(x=1.7e308)
def test_whole_range_answers_a_normal_double_or_refuses(operation, x):
    try:
        value = operation(x)
    except DomainError:
        return
    assert sys.float_info.min <= value <= sys.float_info.max


# 10**400 exceeds every double; True is a bool, not the number 1.
@pytest.mark.parametrize(
    "bad", [0.0, -1.0, float("nan"), float("inf"), pytest.param(10**400, id="10**400"), True]
)
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        laws.length_uncertainty(bad)
    with pytest.raises(DomainError):
        laws.time_uncertainty(bad)
    with pytest.raises(DomainError):
        laws.clock_mass(bad)
    with pytest.raises(DomainError):
        laws.max_length_for_density(bad)


def test_law_works_in_planck_units():
    # The cube-root shape: 8 Planck lengths carry 2 of uncertainty and need 3 Planck masses.
    lp, mp = DEFAULT_CONSTANTS.l_planck, DEFAULT_CONSTANTS.m_planck
    assert laws.length_uncertainty(8.0 * lp) == pytest.approx(2.0 * lp, rel=1e-12, abs=0)
    assert laws.clock_mass(27.0 * lp) == pytest.approx(3.0 * mp, rel=1e-12, abs=0)
