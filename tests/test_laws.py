import math
import operator
import sys

import pytest
from hypothesis import example, given, strategies as st

from foamlab.constants import DEFAULT_CONSTANTS, make_constants
from foamlab.errors import DomainError
from foamlab.laws import UncertaintyLaw
from foamlab.wigner import curvature_uncertainty, density_fluctuation, riemann_scalar_fluctuation

# Direct evaluations with the CODATA Planck units (frozen oracles).
DELTA_L_1CM = 1.377230372884795e-22
DELTA_L_1E4CM = 2.9671528915085482e-21
DELTA_T_1S = 1.4271165960353683e-29
CLOCK_MASS_1CM = 1854565.9169408667
CLOCK_MASS_LIGHT_SECOND = 5761286646.320204
MAX_LENGTH_1E29 = 10523.850254061477


@pytest.fixture(scope="module")
def law():
    return UncertaintyLaw()


positive_lengths = st.floats(min_value=1e-30, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_length_uncertainty_fixed_point(law):
    lp = law.constants.l_planck
    assert law.length_uncertainty(lp) == pytest.approx(lp, rel=1e-12, abs=0)


def test_length_uncertainty_frozen_values(law):
    assert law.length_uncertainty(1.0) == pytest.approx(DELTA_L_1CM, rel=1e-12, abs=0)
    assert law.length_uncertainty(1e4) == pytest.approx(DELTA_L_1E4CM, rel=1e-12, abs=0)
    # cube-root scaling between the two
    assert law.length_uncertainty(1e4) / law.length_uncertainty(1.0) == pytest.approx(
        1e4 ** (1 / 3), rel=1e-12, abs=0
    )


def test_time_uncertainty_fixed_point_and_values(law):
    tp = law.constants.t_planck
    assert law.time_uncertainty(tp) == pytest.approx(tp, rel=1e-12, abs=0)
    assert law.time_uncertainty(1.0) == pytest.approx(DELTA_T_1S, rel=1e-12, abs=0)
    t_1cm = 1.0 / law.constants.c
    assert law.time_uncertainty(t_1cm) == pytest.approx(
        law.length_uncertainty(1.0) / law.constants.c, rel=1e-12, abs=0
    )


@given(l=positive_lengths)
def test_time_length_bridge_identity(l):
    law = UncertaintyLaw()
    c = law.constants.c
    assert law.time_uncertainty(l / c) * c == pytest.approx(
        law.length_uncertainty(l), rel=1e-12, abs=0
    )


@given(l=positive_lengths, k=st.sampled_from([2.0, 10.0, 100.0]))
def test_cube_root_scaling(l, k):
    law = UncertaintyLaw()
    assert law.length_uncertainty(k**3 * l) == pytest.approx(
        k * law.length_uncertainty(l), rel=1e-12, abs=0
    )
    assert law.clock_mass(k**3 * l) == pytest.approx(k * law.clock_mass(l), rel=1e-12, abs=0)


def test_clock_mass_values(law):
    assert law.clock_mass(law.constants.l_planck) == pytest.approx(
        law.constants.m_planck, rel=1e-12, abs=0
    )
    assert law.clock_mass(1.0) == pytest.approx(CLOCK_MASS_1CM, rel=1e-12, abs=0)
    # published "~1e6 g" figure: same decade
    assert abs(math.log10(law.clock_mass(1.0) / 1e6)) < 0.5
    # light-second input: the law answers ~5.8e9 g, nowhere near the quoted 1e16 g
    mass = law.clock_mass(2.998e10)
    assert mass == pytest.approx(CLOCK_MASS_LIGHT_SECOND, rel=1e-12, abs=0)
    assert abs(math.log10(mass / 1e16)) > 0.5


def test_max_length_for_density_values(law):
    assert law.max_length_for_density(1e-29) == pytest.approx(MAX_LENGTH_1E29, rel=1e-12, abs=0)
    # "order of water density" pairing at l ~ 1e-5 cm
    assert law.max_length_for_density(11.86) == pytest.approx(1e-5, rel=2e-3, abs=0)


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
    law = UncertaintyLaw()
    ln_max_length = sweep_references[("threshold", "--density")]["max_length"]
    reference = math.exp(ln_max_length(math.log(rho)))
    assert abs(law.max_length_for_density(rho) / reference - 1.0) < 1e-12


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
    law = UncertaintyLaw()
    rho = density_fluctuation(l, law.constants)
    assert law.max_length_for_density(rho) == pytest.approx(l, rel=1e-9, abs=0)


@given(a=positive_lengths, b=positive_lengths)
@example(a=1e-30, b=math.nextafter(1e-30, 1.0))
@example(a=1e-30, b=1e-30 + 16 * math.ulp(1e-30))
@example(a=1e-30, b=1e-30 + 17 * math.ulp(1e-30))
def test_monotonicity(a, b):
    law = UncertaintyLaw()
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
    assert increasing(law.length_uncertainty(lo), law.length_uncertainty(hi))
    assert increasing(law.time_uncertainty(lo), law.time_uncertainty(hi))
    assert increasing(law.clock_mass(lo), law.clock_mass(hi))
    assert decreasing(law.max_length_for_density(lo), law.max_length_for_density(hi))


@pytest.mark.parametrize(
    "operation",
    [
        UncertaintyLaw().length_uncertainty,
        UncertaintyLaw().time_uncertainty,
        UncertaintyLaw().clock_mass,
        UncertaintyLaw().max_length_for_density,
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


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_domain_errors(law, bad):
    with pytest.raises(DomainError):
        law.length_uncertainty(bad)
    with pytest.raises(DomainError):
        law.time_uncertainty(bad)
    with pytest.raises(DomainError):
        law.clock_mass(bad)
    with pytest.raises(DomainError):
        law.max_length_for_density(bad)


def test_sub_planck_flags(law):
    lp = law.constants.l_planck
    assert law.sub_planck_length(lp / 2)
    assert not law.sub_planck_length(2 * lp)
    tp = law.constants.t_planck
    assert law.sub_planck_time(tp / 2)
    assert not law.sub_planck_time(2 * tp)


def test_law_works_in_natural_units():
    law = UncertaintyLaw(make_constants(1.0, 1.0, 1.0))
    assert law.length_uncertainty(8.0) == pytest.approx(2.0, rel=1e-12, abs=0)
    assert law.clock_mass(27.0) == pytest.approx(3.0, rel=1e-12, abs=0)


def test_law_rejects_invalid_constants():
    broken = DEFAULT_CONSTANTS._replace(m_planck=1.0)
    with pytest.raises(DomainError, match="m_planck"):
        UncertaintyLaw(broken)
