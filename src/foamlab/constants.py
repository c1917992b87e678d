"""Physical constants, Planck units, and the CGS unit system.

Every quantity in the toolkit is a plain double-precision float in CGS
units (cm, g, s).  CGS is the working system because all the numbers this
toolkit reproduces are quoted in it ("g cm^-3", lengths in cm).  The
aliases below tag dimensions in signatures; they carry no runtime
behaviour.

Planck units are always derived from (c, hbar, G) and are never
configurable on their own, so the defining identities

    l_planck = sqrt(hbar * G / c^3)
    t_planck = l_planck / c
    m_planck = sqrt(hbar * c / G)

cannot be broken by configuration.  A ConstantSet checks them whenever it
is built, _replace and _make included, so none can break them either.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConfigError, DomainError

Length = float        # cm
TimeInterval = float  # s
Mass = float          # g
MassDensity = float   # g/cm^3
Curvature = float     # 1/cm
Curvature2 = float    # 1/cm^2

# CODATA 2018, CGS
C_DEFAULT = 2.99792458e10       # cm/s
HBAR_DEFAULT = 1.054571817e-27  # erg s
G_DEFAULT = 6.67430e-8          # cm^3 g^-1 s^-2

# Relative tolerances for the derived-unit identities.
PLANCK_LENGTH_RTOL = 1e-9
PLANCK_TIME_RTOL = 1e-12
PLANCK_MASS_RTOL = 1e-9

_CONFIG_KEYS = ("c", "hbar", "G")


def is_number(value: object, kinds: type | tuple[type, ...] = (int, float)) -> bool:
    """isinstance(value, kinds), refusing bool: True is not the number 1 here."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def shown(value: object) -> str:
    """repr(value), or the sign and digit count of an int too long for repr.

    CPython refuses to write an int of more than sys.get_int_max_str_digits()
    digits as text, so a message naming one with !r would raise ValueError.
    """
    try:
        return repr(value)
    except ValueError:
        magnitude = abs(value)
        digits = int(math.log10(magnitude)) + 1  # may be one off at a power of ten
        digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def require_positive_finite(name: str, value: float) -> None:
    """The toolkit's one input check: value must be an int or float in (0, largest double]."""
    # Exact for an int of any size, and false for NaN.
    if not (is_number(value) and 0 < value <= sys.float_info.max):
        raise DomainError(f"{name} must be a strictly positive finite number, got {shown(value)}")


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record whose subclass checks its fields in __new__.

    _make builds through cls(...), so _replace cannot skip the check.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def require_representable(name: str, value: float, l: Length) -> float:
    """value, if it is a normal double; DomainError naming the length l otherwise."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DomainError(f"{name} at l = {l!r} cm is not a representable double (got {value!r})")
    return value


def _planck_units(c: float, hbar: float, G: float) -> tuple[Length, Mass]:
    """(l_planck, m_planck) derived from positive (c, hbar, G).

    Each intermediate (c**3, hbar*G, hbar*c and the quotients under the
    square roots) must be a normal double, else DomainError: a subnormal
    one keeps too few bits, and zero or inf leaves a unit undefined.
    """
    try:
        cube = c**3
    except OverflowError:
        cube = math.inf
    length2 = _normal("hbar*G", hbar * G) / _normal("c**3", cube)
    mass2 = _normal("hbar*c", hbar * c) / G
    return math.sqrt(_normal("hbar*G/c**3", length2)), math.sqrt(_normal("hbar*c/G", mass2))


def _normal(name: str, value: float) -> float:
    """value, if it is a normal double; DomainError naming the Planck-unit term otherwise."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DomainError(f"{name} = {value!r} is not a normal double; the Planck units are undefined")
    return value


class ConstantSet(checked_record("ConstantSet", "c hbar G l_planck t_planck m_planck")):
    """Immutable bundle of base constants and derived Planck units (CGS).

    Building one, through _replace or _make too, checks in this order that
    every field is positive and finite, that the Planck units can be
    derived from (c, hbar, G), that l_planck and m_planck match their
    derivation and that t_planck * c matches l_planck.  The first
    violation raises DomainError, so no ConstantSet is inconsistent.
    """

    __slots__ = ()

    def __new__(
        cls, c: float, hbar: float, G: float, l_planck: Length, t_planck: TimeInterval,
        m_planck: Mass,
    ) -> ConstantSet:
        self = super().__new__(cls, c, hbar, G, l_planck, t_planck, m_planck)
        for name, value in zip(self._fields, self):
            require_positive_finite(name, value)
        l_derived, m_derived = _planck_units(c, hbar, G)
        if abs(l_planck - l_derived) > PLANCK_LENGTH_RTOL * l_derived:
            raise DomainError(
                f"l_planck = {l_planck!r} does not match sqrt(hbar*G/c^3) = {l_derived!r}"
            )
        if abs(m_planck - m_derived) > PLANCK_MASS_RTOL * m_derived:
            raise DomainError(
                f"m_planck = {m_planck!r} does not match sqrt(hbar*c/G) = {m_derived!r}"
            )
        t_scaled = t_planck * c
        if abs(t_scaled - l_planck) > PLANCK_TIME_RTOL * l_planck:
            raise DomainError(f"t_planck * c = {t_scaled!r} does not match l_planck = {l_planck!r}")
        return self


def make_constants(c: float, hbar: float, G: float) -> ConstantSet:
    """Build a ConstantSet, deriving the Planck units from (c, hbar, G).

    DomainError if an input is not positive and finite or the Planck units
    cannot be derived from it.
    """
    for name, value in (("c", c), ("hbar", hbar), ("G", G)):
        require_positive_finite(name, value)
    l_planck, m_planck = _planck_units(c, hbar, G)
    return ConstantSet(c, hbar, G, l_planck, l_planck / c, m_planck)


# CODATA-2018 constants in CGS with derived Planck units, built once.  The
# set is frozen and every law in the toolkit computes with it; other sets
# come only from a `constants --config` file, which the CLI prints.
DEFAULT_CONSTANTS = make_constants(C_DEFAULT, HBAR_DEFAULT, G_DEFAULT)


def load_constants(config_text: str) -> ConstantSet:
    """Parse a flat key/value document and return a derived ConstantSet.

    Grammar: one `key = number` per line, `#` starts a comment, blank
    lines ignored.  Keys must be a subset of {c, hbar, G}; missing keys
    take the CODATA defaults.  Planck units are always recomputed, never
    read from the file.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = number', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} (allowed: {', '.join(_CONFIG_KEYS)})"
            )
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {text!r}") from None
        values[key] = value
    return make_constants(
        c=values.get("c", C_DEFAULT),
        hbar=values.get("hbar", HBAR_DEFAULT),
        G=values.get("G", G_DEFAULT),
    )
