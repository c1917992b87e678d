import math

import pytest
from hypothesis import example, given, settings, strategies as st

from foamlab.constants import (
    DEFAULT_CONSTANTS,
    ConstantSet,
    _planck_units,
    load_constants,
    make_constants,
)
from foamlab.errors import ConfigError, DomainError

# CODATA-2018 CGS Planck units, from sqrt(hbar*G/c^3) and friends.
L_PLANCK = 1.61625502392855e-33
T_PLANCK = 5.391246446661944e-44
M_PLANCK = 2.1764343420511264e-05


def test_default_constants_codata_values():
    cs = DEFAULT_CONSTANTS
    assert cs.c == 2.99792458e10
    assert cs.hbar == 1.054571817e-27
    assert cs.G == 6.67430e-8
    assert cs.l_planck == pytest.approx(L_PLANCK, rel=1e-12, abs=0)
    assert cs.t_planck == pytest.approx(T_PLANCK, rel=1e-12, abs=0)
    assert cs.m_planck == pytest.approx(M_PLANCK, rel=1e-12, abs=0)
    # published rounded values, for orientation
    assert cs.l_planck == pytest.approx(1.616255e-33, rel=1e-6, abs=0)
    assert cs.t_planck == pytest.approx(5.391247e-44, rel=1e-6, abs=0)
    assert cs.m_planck == pytest.approx(2.176434e-5, rel=1e-6, abs=0)


def test_planck_unit_identities():
    cs = DEFAULT_CONSTANTS
    assert cs.t_planck * cs.c / cs.l_planck == pytest.approx(1.0, rel=1e-12, abs=0)
    assert cs.m_planck * cs.c**2 * cs.t_planck == pytest.approx(cs.hbar, rel=1e-12, abs=0)
    assert cs.l_planck == pytest.approx(math.sqrt(cs.hbar * cs.G / cs.c**3), rel=1e-12, abs=0)


# Building a ConstantSet validates it, and _replace and _make build through the constructor.
def test_validate_accepts_defaults_and_natural_units():
    for cs in (DEFAULT_CONSTANTS, make_constants(1.0, 1.0, 1.0)):
        assert ConstantSet(*cs) == cs


def test_validate_flags_doubled_planck_length():
    with pytest.raises(DomainError, match="^l_planck"):
        DEFAULT_CONSTANTS._replace(l_planck=2 * L_PLANCK)


def test_validate_flags_nonpositive_fields():
    with pytest.raises(DomainError, match="^G must be"):
        DEFAULT_CONSTANTS._replace(G=-1.0)


def test_validate_reports_underivable_planck_units():
    # c**3 overflows at c = 1e200: a DomainError, not an OverflowError.
    with pytest.raises(DomainError, match=r"^c\*\*3"):
        DEFAULT_CONSTANTS._replace(c=1e200)


def test_validate_flags_broken_time_length_bridge():
    with pytest.raises(DomainError, match="^t_planck"):
        DEFAULT_CONSTANTS._replace(t_planck=T_PLANCK * (1.0 + 1e-9))


def test_validated_sets_satisfy_time_length_bridge():
    for cs in (DEFAULT_CONSTANTS, make_constants(1.0, 1.0, 1.0), make_constants(3.0, 0.5, 2.0)):
        assert abs(cs.t_planck * cs.c - cs.l_planck) <= 1e-12 * cs.l_planck


def test_load_empty_document_gives_defaults():
    assert load_constants("") == DEFAULT_CONSTANTS
    assert load_constants("# only a comment\n\n") == DEFAULT_CONSTANTS


def test_load_natural_units():
    cs = load_constants("c = 1\nhbar = 1\nG = 1\n")
    assert cs.l_planck == 1.0
    assert cs.t_planck == 1.0
    assert cs.m_planck == 1.0


def test_load_partial_document_keeps_other_defaults():
    cs = load_constants("G = 6.674e-8  # override\n")
    assert cs.G == 6.674e-8
    assert cs.c == DEFAULT_CONSTANTS.c
    assert cs.hbar == DEFAULT_CONSTANTS.hbar


def test_load_rejects_nonpositive_value():
    with pytest.raises(DomainError, match="G"):
        load_constants("G = -1\n")


def test_load_rejects_malformed_line_with_context():
    with pytest.raises(ConfigError, match="line 2"):
        load_constants("c = 1\nnot a pair\n")


def test_load_rejects_unknown_key():
    with pytest.raises(ConfigError, match="planck"):
        load_constants("planck = 1\n")


def test_load_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        load_constants("c = 1\nc = 2\n")


def test_load_rejects_non_numeric_value():
    with pytest.raises(ConfigError, match="hbar"):
        load_constants("hbar = fast\n")


def test_serialize_round_trip_is_bit_exact():
    cs = DEFAULT_CONSTANTS
    again = load_constants(f"c = {cs.c!r}\nhbar = {cs.hbar!r}\nG = {cs.G!r}\n")
    assert (again.c, again.hbar, again.G) == (cs.c, cs.hbar, cs.G)


@given(
    c=st.floats(min_value=1e-10, max_value=1e15, allow_nan=False, allow_infinity=False),
    hbar=st.floats(min_value=1e-40, max_value=1e5, allow_nan=False, allow_infinity=False),
    G=st.floats(min_value=1e-15, max_value=1e5, allow_nan=False, allow_infinity=False),
)
def test_round_trip_property(c, hbar, G):
    again = load_constants(f"# repr text\nc = {c!r}\nhbar = {hbar!r}\nG = {G!r}\n")
    assert (again.c, again.hbar, again.G) == (c, hbar, G)


# Log-uniform over every positive double, 5e-324 ... 1.7e308.
whole_range = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(
    lambda exponent: max(10.0**exponent, 5e-324)
)


@settings(max_examples=1000)
@given(c=whole_range, hbar=whole_range, G=whole_range)
@example(c=5.6e102, hbar=1e200, G=1e100)  # c**3 near the largest double
@example(c=3e-102, hbar=1e-100, G=1e-150)  # c**3 near the smallest normal double
@example(c=1.0, hbar=1e-154, G=2.3e-154)  # hbar*G near the smallest normal double
def test_constructor_accepts_every_derivable_set(c, hbar, G):
    # Wherever (c, hbar, G) has Planck units, `constants --config` takes it, so the check must too.
    try:
        l_planck, m_planck = _planck_units(c, hbar, G)
    except DomainError:
        return
    assert make_constants(c, hbar, G) == (c, hbar, G, l_planck, l_planck / c, m_planck)


def test_make_constants_rejects_bad_inputs():
    # c**3 overflows at 1e308, underflows to zero at 1e-120 and is subnormal at 3e-108;
    # 10**400 exceeds every double, and True is a bool, not the number 1.
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e308, 1e-120, 3e-108, 10**400, True):
        with pytest.raises(DomainError):
            make_constants(bad, 1.0, 1.0)
