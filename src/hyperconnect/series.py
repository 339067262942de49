"""Truncated formal power series in one symbol t.

A TruncatedSeries holds coefficients c_0..c_N of one field.  Every identity in
this package is ultimately a statement that two such series agree
coefficientwise, exactly on the exact field or within the field tolerance on
the numeric one.  Mixed-order arithmetic truncates to the smaller order, which
is what "equal up to order N" means; multiplication is the Cauchy product
truncated at the result order.

``hypergeometric_terms`` builds every row prod (a_i)_k / prod (b_j)_k
lam^k / k! in the package, ``binomial_power`` (1F0) and ``exp_series``
(0F0) among them, but for ``hyper``'s exact argument factors, exact sums
and tail sum: on exact inputs from ``integer_term_ratios``, one ``Fraction``
per k, otherwise by ``term_ratio`` on CoefficientStream, whose one loop (the
q-series' too) stops at the first zero term and raises PoleError eagerly.

The O(order^2) loops run once for both fields on the form ``FieldTag.common``
gives: a product takes the Cauchy product of its operands' numerators over
one denominator each, ``linear_combination`` sums s_n t^k_n S_n(t) over one
denominator for all terms, and ``FieldTag.over`` turns the results back into
values.  An exact coefficient is an integer sum reduced once, the canonical
``Fraction`` term-by-term arithmetic gives; doubles are those of the plain
operations.

Values are immutable and operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, FieldError, PoleError
from .fields import EXACT, NUMERIC, FieldTag, as_numeric, field_of


def _cauchy_product(left, right):
    """The first len(left) coefficients of the product of two equally long
    coefficient lists, skipping zero factors; coefficient m accumulates its
    terms in increasing index of ``left``."""
    n = len(left)
    nonzero = [(j, b) for j, b in enumerate(right) if b != 0]
    out = [0] * n
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in nonzero:
            if i + j >= n:
                break
            out[i + j] += a * b
    return out


class TruncatedSeries:
    __slots__ = ("field", "coefficients")

    def __init__(self, field: FieldTag, coefficients):
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "coefficients", tuple([field.of(c) for c in coefficients])
        )
        if not self.coefficients:
            raise DomainError("a series needs at least the constant coefficient")

    @classmethod
    def _stored(cls, field: FieldTag, coefficients) -> "TruncatedSeries":
        """A series of values already in ``field``, stored as they are."""
        series = object.__new__(cls)
        object.__setattr__(series, "field", field)
        object.__setattr__(series, "coefficients", tuple(coefficients))
        return series

    @classmethod
    def _result(cls, field: FieldTag, coefficients) -> "TruncatedSeries":
        """An arithmetic result: exact coefficients come from Fraction
        arithmetic on a series and are stored as they are; numeric ones are
        still checked, so an overflow to inf raises DomainError."""
        return cls._stored(
            field, coefficients if field.is_exact else [as_numeric(c) for c in coefficients])

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def zero(cls, order: int, field: FieldTag = EXACT) -> "TruncatedSeries":
        return cls(field, [field.zero()] * (order + 1))

    @classmethod
    def one(cls, order: int, field: FieldTag = EXACT) -> "TruncatedSeries":
        return cls(field, [field.one()] + [field.zero()] * order)

    @classmethod
    def constant(cls, value, order: int, field: FieldTag = EXACT) -> "TruncatedSeries":
        return cls(field, [field.of(value)] + [field.zero()] * order)

    def coefficient(self, j: int):
        return self.coefficients[j]

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other: "TruncatedSeries"):
        if self.field != other.field:
            raise FieldError(
                f"field mismatch: {self.field.kind} vs {other.field.kind}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_field(other)
        n = min(self.order, other.order)
        return TruncatedSeries._result(
            self.field,
            [self.coefficients[i] + other.coefficients[i] for i in range(n + 1)],
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_field(other)
        n = min(self.order, other.order)
        return TruncatedSeries._result(
            self.field,
            [self.coefficients[i] - other.coefficients[i] for i in range(n + 1)],
        )

    def __neg__(self):
        return TruncatedSeries._result(self.field, [-c for c in self.coefficients])

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_field(other)
        n, field = min(self.order, other.order), self.field
        left, da = field.common(self.coefficients[: n + 1])
        right, db = field.common(other.coefficients[: n + 1])
        return TruncatedSeries._result(field, field.over(_cauchy_product(left, right), da * db))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "TruncatedSeries":
        s = self.field.of(scalar)
        return TruncatedSeries._result(self.field, [c * s for c in self.coefficients])

    def truncate_to(self, m: int) -> "TruncatedSeries":
        """[f]_m: keep c_0..c_m.  m may not exceed the stored order."""
        if m > self.order:
            raise DomainError(f"cannot truncate order {self.order} series to {m}")
        if m < 0:
            raise DomainError("truncation order must be >= 0")
        return TruncatedSeries._result(self.field, self.coefficients[: m + 1])

    def padded_to(self, order: int) -> "TruncatedSeries":
        """Zero-extend: exact for polynomials and truncated tails."""
        if order < self.order:
            raise DomainError("padded_to cannot shrink; use truncate_to")
        zero = self.field.zero()
        return TruncatedSeries._result(
            self.field, self.coefficients + (zero,) * (order - self.order)
        )

    def shifted(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; order grows by k."""
        if k < 0:
            raise DomainError("shift must be >= 0")
        zero = self.field.zero()
        return TruncatedSeries._result(self.field, (zero,) * k + self.coefficients)

    def evaluate(self, t0):
        """Polynomial value sum c_j t0^j by Horner."""
        t0 = self.field.of(t0)
        acc = self.field.zero()
        for c in reversed(self.coefficients):
            acc = acc * t0 + c
        return acc

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.field == other.field and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.field, self.coefficients))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coefficients[:5])
        tail = ", ..." if self.order > 4 else ""
        return f"TruncatedSeries(order={self.order}, [{shown}{tail}])"

    # -- serialization ------------------------------------------------------

    def as_json(self) -> dict:
        return {
            "order": self.order,
            **self.field.as_json(),
            "coefficients": [self.field.serialize(c) for c in self.coefficients],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TruncatedSeries":
        field = FieldTag.from_json(payload)
        return cls(field, [field.deserialize(c) for c in payload["coefficients"]])


@dataclass(frozen=True)
class CoefficientStream:
    """Series coefficients given by a_0 and the term ratio a_{k+1}/a_k.

    Once a coefficient is exactly zero the stream has terminated: rising
    factorials that reach zero stay zero, so the remaining coefficients are
    zero without ever evaluating a ratio past the termination point (where a
    denominator pole may sit).
    """

    first: object
    ratio: Callable[[int], object]

    def coefficients(self, order: int, field: FieldTag):
        out = [field.of(self.first)]
        for k in range(order):
            current = out[-1]
            if current == 0:
                out.extend([field.zero()] * (order - k))
                break
            try:
                step = self.ratio(k)
            except ZeroDivisionError:
                raise PoleError(f"term ratio has a pole at index {k}") from None
            out.append(field.of(current * step))
        return out

    def series(self, order: int, field: FieldTag) -> TruncatedSeries:
        """The series of ``coefficients``, which ``field.of`` has checked."""
        return TruncatedSeries._stored(field, self.coefficients(order, field))

def geometric_stream() -> CoefficientStream:
    return CoefficientStream(Fraction(1), lambda k: Fraction(1))


def term_ratio(tops, bottoms, z, k: int):
    """Multiplier taking term k of prod_i (a_i)_k / prod_j (b_j)_k z^k / k!
    to term k+1, a_i in ``tops``, b_j in ``bottoms``.  A vanishing numerator
    product zeroes the term (and every later one) before any division; a
    nonzero term over a vanishing denominator factor is a pole, raised eagerly."""
    num = 1
    for a in tops:
        num = num * (a + k)
    if num == 0:
        return 0
    den = 1
    for b in bottoms:
        den = den * (b + k)
    if den == 0:
        raise PoleError(f"denominator parameter pole at term {k + 1}: "
                        f"one of {tuple(bottoms)} lies in -N0")
    return num * z / (den * (k + 1))


def integer_term_ratios(tops, bottoms, lam, count: int):
    """Integer pairs (num, den), k = 0..count-1, with c_{k+1} = c_k num / den
    for c_k = prod_i (a_i)_k / prod_j (b_j)_k lam^k / k!, exact a_i
    (``tops``), b_j (``bottoms``) and lam.

    With a = p/q, (a + k) = (p + kq)/q, so every pair is a product of small
    integers.  The pairs keep ``term_ratio``'s order of checks: a vanishing
    numerator factor ends them (every later term is zero) before any
    denominator factor is looked at; a vanishing denominator factor is a
    PoleError, also when lam = 0, which the caller sees as a zero num.
    """
    tops = [(a.numerator, a.denominator) for a in tops]
    poles = [(b.numerator, b.denominator) for b in bottoms]
    num_scale = lam.numerator * math.prod([s for _, s in poles])
    den_scale = lam.denominator * math.prod([q for _, q in tops])
    for k in range(count):
        num = 1
        for p, q in tops:
            num *= p + k * q
        if not num:
            return
        den = k + 1
        for r, s in poles:
            den *= r + k * s
        if not den:
            raise PoleError(
                f"denominator parameter pole at term {k + 1}: "
                f"one of {tuple(bottoms)} lies in -N0"
            )
        yield num * num_scale, den * den_scale


def hypergeometric_terms(tops, bottoms, lam, order: int, field: FieldTag = EXACT) -> list:
    """Coefficients c_k = prod_i (a_i)_k / prod_j (b_j)_k lam^k / k!,
    k = 0..order, of the a_i (``tops``), b_j (``bottoms``) and lam.

    On the exact field with exact inputs each step multiplies the previous
    term's numerator and denominator by the integers of
    ``integer_term_ratios`` and forms one ``Fraction``; otherwise the terms
    stream ``term_ratio`` on ``CoefficientStream``.  Either way the stream
    stops at the first zero term, so a zero lam ends it after the pole check.
    """
    if not (field.is_exact and field_of(*tops, *bottoms, lam).is_exact):
        return CoefficientStream(
            Fraction(1), lambda k: term_ratio(tops, bottoms, lam, k)).coefficients(order, field)
    term = Fraction(1)
    out = [term]
    for num, den in integer_term_ratios(tops, bottoms, lam, order):
        term = Fraction(term.numerator * num, term.denominator * den)
        if not term:
            break
        out.append(term)
    return out + [Fraction(0)] * (order + 1 - len(out))


def binomial_power(kappa, a, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """(1 - kappa t)^(-a) = 1F0(a;; kappa t): coefficient (a)_n kappa^n / n!."""
    kappa, a = field.of(kappa), field.of(a)
    return TruncatedSeries._stored(field, hypergeometric_terms([a], [], kappa, order, field))


def exp_series(kappa, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """exp(kappa t) = 0F0(;; kappa t): coefficient kappa^n / n!."""
    return TruncatedSeries._stored(
        field, hypergeometric_terms([], [], field.of(kappa), order, field))


def linear_combination(terms, order: int, field: FieldTag) -> TruncatedSeries:
    """sum_n s_n t^k_n S_n(t) to ``order`` for terms (S_n, k_n, s_n), each
    S_n of order at most order - k_n (zero-padded to it).

    The coefficients of all the S_n go over one denominator and the s_n over
    another (``FieldTag.common``), and the products are summed term by term
    into one row: on the exact field integers with one reduction per
    coefficient, on doubles the plain products and sums."""
    rows = []
    for series, shift, _ in terms:
        if series.field != field:
            raise FieldError(f"field mismatch: {series.field.kind} vs {field.kind}")
        rows.append(series.padded_to(order - shift).coefficients)
    nums, den = field.common([c for row in rows for c in row])
    scalars, scalar_den = field.common([field.of(scalar) for _, _, scalar in terms])
    total, start = [0] * (order + 1), 0
    for (_, shift, _), scalar, row in zip(terms, scalars, rows):
        if scalar:
            for j, v in enumerate(nums[start:start + len(row)], shift):
                total[j] += scalar * v
        start += len(row)
    return TruncatedSeries._result(field, field.over(total, scalar_den * den))


def q_binomial_series(a, kappa, q, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """(a kappa t; q)_inf / (kappa t; q)_inf by the q-binomial theorem:
    coefficient kappa^n (a;q)_n / (q;q)_n, term ratio
    kappa (1 - a q^n)/(1 - q^{n+1})."""
    a, kappa, q = field.of(a), field.of(kappa), field.of(q)
    if q == 0:
        raise DomainError("q_binomial_series needs q != 0")
    return CoefficientStream(
        1, lambda n: kappa * (1 - a * q**n) / (1 - q ** (n + 1))).series(order, field)


def mobius_argument(lam, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """lam * t / (1 - t) = lam (t + t^2 + ...), zero constant term."""
    lam = field.of(lam)
    return TruncatedSeries(field, [field.zero()] + [lam] * order)


def compose(outer: CoefficientStream, inner: TruncatedSeries, order: int) -> TruncatedSeries:
    """sum_k a_k inner(t)^k truncated at ``order``.

    Horner accumulation in the inner series: order-many multiplications,
    which is plenty at the orders used here.  The inner constant term must
    vanish, otherwise every outer coefficient would contribute at t^0.
    """
    field = inner.field
    if inner.coefficients[0] != 0:
        raise DomainError("compose needs inner series with zero constant term")
    coeffs = outer.coefficients(order, field)
    inner = inner.truncate_to(min(order, inner.order)).padded_to(order)
    result = TruncatedSeries.constant(coeffs[order], order, field)
    for k in range(order - 1, -1, -1):
        result = result * inner + TruncatedSeries.constant(coeffs[k], order, field)
    return result


def q_exp_lower(kappa, q, order: int, field: FieldTag = NUMERIC) -> TruncatedSeries:
    """(kappa t; q)_inf as a series: coefficient (-kappa)^n q^{n(n-1)/2}/(q;q)_n,
    term ratio -kappa q^n/(1 - q^{n+1})."""
    kappa, q = field.of(kappa), field.of(q)
    return CoefficientStream(1, lambda n: -kappa * q**n / (1 - q ** (n + 1))).series(order, field)


def q_exp_upper(kappa, q, order: int, field: FieldTag = NUMERIC) -> TruncatedSeries:
    """1 / (kappa t; q)_inf as a series: coefficient kappa^n / (q;q)_n."""
    return q_binomial_series(field.zero(), kappa, q, order, field)
