"""Coefficient fields.

Two backends:

* exact: arbitrary-precision rationals (``fractions.Fraction``).  Arithmetic
  never rounds, values are always in canonical reduced form (denominator
  positive, gcd 1), so equality is structural.
* numeric: complex double.  NaN and infinity are rejected at construction;
  comparison only happens through an explicit mixed tolerance
  ``|x - y| <= atol + rtol * max(|x|, |y|)``.

A ``FieldTag`` names the field a value or series lives in and carries the
numeric tolerances.  Values themselves are plain ``Fraction``/``complex``
objects; all operations on them are pure, so they are safe to share across
threads.

A ``FieldTag`` also owns the form the hot loops run on, so each loop is
written once for both fields: ``common`` puts values over one denominator
(integers when exact, the values over 1 on doubles) and ``over`` turns the
loop's results back into values.  An exact ``TruncatedSeries`` is stored in
that form, so its ``Fraction``s are formed by ``over`` when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, FieldError

ExactScalar = Fraction
NumericScalar = complex

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-10


@dataclass(frozen=True)
class FieldTag:
    """Field marker: kind 'exact' carries no tolerance, 'numeric' carries one."""

    kind: str
    atol: float | None = None
    rtol: float | None = None

    def __post_init__(self):
        if self.kind == "exact":
            if self.atol is not None or self.rtol is not None:
                raise FieldError("exact field carries no tolerance")
        elif self.kind == "numeric":
            if self.atol is None or self.rtol is None:
                raise FieldError("numeric field needs atol and rtol")
            if not (self.atol > 0.0 and self.rtol >= 0.0):  # a NaN fails both
                raise FieldError("numeric tolerance must be positive")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def of(self, value):
        """Coerce ``value`` into this field, validating invariants."""
        return as_exact(value) if self.is_exact else as_numeric(value)

    def zero(self):
        return Fraction(0) if self.is_exact else complex(0.0)

    def one(self):
        return Fraction(1) if self.is_exact else complex(1.0)

    def common(self, values):
        """(numerators, den), value i = numerators[i] / den: integers over the
        lcm of the denominators when exact, the values over 1 on doubles."""
        if not self.is_exact:
            return list(values), 1
        den = math.lcm(*[v.denominator for v in values])
        return [v.numerator * (den // v.denominator) for v in values], den

    def over(self, numerators, den) -> list:
        """The values numerators[i] / den: a ``Fraction`` each when exact, the
        numerators as they are on doubles, as complex(-0.0, 1) / 1 is 1j."""
        return [Fraction(v, den) for v in numerators] if self.is_exact else list(numerators)

    def eq(self, a, b) -> bool:
        if self.is_exact:
            return a == b
        a, b = complex(a), complex(b)
        return abs(a - b) <= self.atol + self.rtol * max(abs(a), abs(b))

    def as_json(self) -> dict:
        """The keys a JSON document uses for its field: the kind, plus the
        tolerances of a numeric field."""
        if self.is_exact:
            return {"field": self.kind}
        return {"field": self.kind, "atol": self.atol, "rtol": self.rtol}

    @staticmethod
    def from_json(doc: dict) -> "FieldTag":
        """Inverse of ``as_json``; a numeric field without tolerances gets
        the defaults, and any other kind than exact is the FieldError of
        ``__post_init__``."""
        if doc["field"] == "numeric":
            return numeric(doc.get("atol", DEFAULT_ATOL), doc.get("rtol", DEFAULT_RTOL))
        return EXACT if doc["field"] == "exact" else FieldTag(doc["field"])

    def text(self, value) -> str:
        """A scalar as the CLI and CSV cells write it, which ``Fraction`` or
        ``complex`` reads back: 'p/q' on the exact field, else the repr of
        a real or of a complex value."""
        if self.is_exact:
            return str(Fraction(value))
        v = complex(value)
        return repr(v.real) if v.imag == 0 else repr(v)

    def serialize(self, value):
        """Exact scalars as the canonical string 'p/q' ('p' when q = 1),
        numeric scalars as [re, im]."""
        if self.is_exact:
            return str(as_exact(value))
        v = as_numeric(value)
        return [v.real, v.imag]

    def deserialize(self, payload):
        if self.is_exact:
            return parse_rational(payload)
        if isinstance(payload, (list, tuple)) and len(payload) == 2:
            return as_numeric(complex(payload[0], payload[1]))
        return as_numeric(payload)


EXACT = FieldTag("exact")


def numeric(atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> FieldTag:
    return FieldTag("numeric", atol, rtol)


NUMERIC = numeric()


def integer_linear(*polys):
    """Linear polynomials c0 + c1 x, given as pairs (c0, c1) of exact values,
    scaled by one common positive factor (the lcm of their denominators) so
    that every coefficient is an integer."""
    nums, _ = EXACT.common([c for poly in polys for c in poly])
    return list(zip(nums[::2], nums[1::2]))


def deviation(a, b) -> float:
    """|a - b| in doubles, as a report states it: 0.0 for equal values, so
    equal exact values too large for a double still agree, and inf for
    unequal values when one of them is too large for a double.  Unequal
    exact values whose doubles coincide deviate by their exact difference
    rounded once, and by the smallest positive double when that rounds to
    0.0, so a fail never reads 0.0."""
    if a == b:
        return 0.0
    try:
        gap = abs(complex(a) - complex(b))
    except OverflowError:
        return math.inf
    if gap == 0.0 and field_of(a, b).is_exact:
        return float(abs(Fraction(a) - Fraction(b))) or math.ulp(0.0)
    return gap


def is_exact_value(value) -> bool:
    """True for an int or a Fraction, a subclass of either too, never for a
    bool.  The four common types are told by their type alone, before the
    ``Fraction`` ABC check every double would otherwise take."""
    kind = type(value)
    if kind is int or kind is Fraction:
        return True
    if kind is float or kind is complex:
        return False
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def field_of(*values) -> FieldTag:
    """The field a computation on these values runs in: exact when every
    value is exact (None, an absent value, counts as exact), else numeric."""
    for value in values:
        if value is not None and not is_exact_value(value):
            return NUMERIC
    return EXACT


def as_exact(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        if isinstance(value, str):
            return parse_rational(value)
        raise FieldError(
            f"exact field holds rationals, not {type(value).__name__};"
            " write the value as a ratio like '3/10'"
        )
    return Fraction(value)


def as_numeric(value) -> complex:
    if type(value) is complex:
        v = value
    elif isinstance(value, bool):
        raise FieldError("bool is not a scalar")
    else:
        try:  # an exact value past the double range is as infinite as its double
            v = complex(value.numerator / value.denominator if isinstance(value, Fraction)
                        else value)
        except OverflowError:
            v = complex(math.inf if value > 0 else -math.inf)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise DomainError(f"numeric scalar must be finite, got {value!r}")
    return v


def parse_rational(text) -> Fraction:
    """Parse 'p/q' or 'p'.  Decimals are refused: silently reading '0.4' as
    2/5 would fake exactness, so the caller must spell the ratio out."""
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    s = str(text).strip()
    if any(ch in s for ch in ".eE") and not s.lstrip("+-").isdigit():
        raise DomainError(
            f"exact values use rational literals like '2/5', got {text!r}"
        )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational literal {text!r}") from exc


def is_integer_valued(value) -> bool:
    if isinstance(value, int) and not isinstance(value, bool):
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, complex):
        return value.imag == 0.0 and value.real.is_integer()
    return False


def is_nonpositive_integer(value) -> bool:
    """True when value is in {0, -1, -2, ...} exactly."""
    if not is_integer_valued(value):
        return False
    if isinstance(value, complex):
        return value.real <= 0
    return value <= 0


def rising_vanishes(b, count: int) -> bool:
    """True when (b)_count = b (b+1) ... (b+count-1) is 0, that is when b is
    one of 0, -1, ..., 1 - count.  It reads b, not the product: a double
    b + j is exactly 0.0 only at b = -j, so the rule holds on every field."""
    return is_nonpositive_integer(b) and -b.real < count


def as_index(value, name: str = "index") -> int:
    if not is_integer_valued(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    n = int(value.real) if isinstance(value, complex) else int(value)
    return n
