"""Truncated formal power series in one symbol t.

A TruncatedSeries holds coefficients c_0..c_N of one field.  Every identity in
this package is ultimately a statement that two such series agree
coefficientwise, exactly on the exact field or within the field tolerance on
the numeric one.  Mixed-order arithmetic truncates to the smaller order, which
is what "equal up to order N" means; multiplication is the Cauchy product
truncated at the result order.

Each hypergeometric factor (``binomial_power``, ``exp_series``,
``q_binomial_series``, ``q_exp_lower``) is a first term plus a term ratio on
CoefficientStream, whose one loop stops at the first zero coefficient and
turns a zero divisor into PoleError.

On the exact field the O(order^2) work runs on integers: a product puts each
operand over one common denominator and forms one ``Fraction`` per output
coefficient; ``hypergeometric_terms`` streams prod (a_i)_k / prod (b_j)_k
lam^k / k! with one ``Fraction`` per k (it serves the exact binomial_power,
exp_series and pFq lifts); ``linear_combination`` sums s_n t^k_n S_n(t) over
the lcm of the denominators.  ``Fraction(num, den)`` is canonical, so every
exact coefficient is the one term-by-term ``Fraction`` arithmetic gives.
The numeric field keeps its term-by-term loops, so its doubles are those of
the plain operations.

Values are immutable and operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, FieldError, PoleError
from .fields import EXACT, NUMERIC, FieldTag, as_numeric, deviation


def _over_one_denominator(values):
    """(integer numerators, their common denominator) of exact values
    (``int`` or ``Fraction``): value i is numerators[i] / den, den the lcm of
    the denominators."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_linear(*polys):
    """Linear polynomials c0 + c1 x, given as pairs (c0, c1) of exact values,
    scaled by one common positive factor (the lcm of their denominators) so
    that every coefficient is an integer."""
    nums, _ = _over_one_denominator([c for poly in polys for c in poly])
    return list(zip(nums[::2], nums[1::2]))


def _cauchy_product(left, right, zero=0):
    """The first len(left) coefficients of the product of two equally long
    coefficient lists, skipping zero factors; coefficient m accumulates its
    terms in increasing index of ``left``."""
    n = len(left)
    nonzero = [(j, b) for j, b in enumerate(right) if b != 0]
    out = [zero] * n
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
    def _result(cls, field: FieldTag, coefficients) -> "TruncatedSeries":
        """An arithmetic result: exact coefficients come from Fraction
        arithmetic on a series and are stored as they are; numeric ones are
        still checked, so an overflow to inf raises DomainError."""
        series = object.__new__(cls)
        object.__setattr__(series, "field", field)
        object.__setattr__(series, "coefficients", tuple(
            coefficients if field.is_exact else [as_numeric(c) for c in coefficients]))
        return series

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
        n = min(self.order, other.order)
        if self.field.is_exact:
            left, da = _over_one_denominator(self.coefficients[: n + 1])
            right, db = _over_one_denominator(other.coefficients[: n + 1])
            out = _cauchy_product(left, right)
            den = da * db
            return TruncatedSeries._result(self.field, [Fraction(v, den) for v in out])
        out = _cauchy_product(self.coefficients[: n + 1], other.coefficients[: n + 1],
                              self.field.zero())
        return TruncatedSeries._result(self.field, out)

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

    def first_mismatch(self, other: "TruncatedSeries"):
        self._check_field(other)
        n = min(self.order, other.order)
        for i in range(n + 1):
            if not self.field.eq(self.coefficients[i], other.coefficients[i]):
                return i
        return None

    def max_deviation(self, other: "TruncatedSeries") -> float:
        self._check_field(other)
        n = min(self.order, other.order)
        return max(deviation(self.coefficients[i], other.coefficients[i])
                   for i in range(n + 1))

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
        return TruncatedSeries(field, self.coefficients(order, field))

def geometric_stream() -> CoefficientStream:
    return CoefficientStream(Fraction(1), lambda k: Fraction(1))


def _term_ratios(tops, bottoms, lam, count: int):
    """Integer pairs (num, den), k = 0..count-1, with c_{k+1} = c_k num / den
    for c_k = prod_i (a_i)_k / prod_j (b_j)_k lam^k / k!, exact a_i
    (``tops``), b_j (``bottoms``) and lam.

    With a = p/q, (a + k) = (p + kq)/q, so every pair is a product of small
    integers.  The pairs keep the term ratio's order of checks: a vanishing
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


def hypergeometric_terms(tops, bottoms, lam, order: int) -> list:
    """Exact coefficients c_k = prod_i (a_i)_k / prod_j (b_j)_k lam^k / k!,
    k = 0..order, for exact a_i (``tops``), b_j (``bottoms``) and lam.

    Each step multiplies the previous term's numerator and denominator by
    the integers of ``_term_ratios`` and forms one ``Fraction``; the stream
    stops at the first zero term, so a zero lam ends it after the pole check.
    """
    term = Fraction(1)
    out = [term]
    for num, den in _term_ratios(tops, bottoms, lam, order):
        term = Fraction(term.numerator * num, term.denominator * den)
        if not term:
            break
        out.append(term)
    return out + [Fraction(0)] * (order + 1 - len(out))


def binomial_power(kappa, a, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """(1 - kappa t)^(-a): coefficient pochhammer(a, n) kappa^n / n!, term
    ratio kappa (a+n)/(n+1); 1F0(a;; kappa t)."""
    kappa, a = field.of(kappa), field.of(a)
    if field.is_exact:
        return TruncatedSeries._result(field, hypergeometric_terms([a], [], kappa, order))
    return CoefficientStream(1, lambda n: kappa * (a + n) / (n + 1)).series(order, field)


def exp_series(kappa, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """exp(kappa t): coefficient kappa^n / n!, term ratio kappa/(n+1);
    0F0(;; kappa t)."""
    kappa = field.of(kappa)
    if field.is_exact:
        return TruncatedSeries._result(field, hypergeometric_terms([], [], kappa, order))
    return CoefficientStream(1, lambda n: kappa / (n + 1)).series(order, field)


def linear_combination(terms, order: int, field: FieldTag) -> TruncatedSeries:
    """sum_n s_n t^k_n S_n(t) to ``order`` for terms (S_n, k_n, s_n), each
    S_n of order at most order - k_n (zero-padded to it).

    Exact terms are summed on integer numerators over the lcm of the
    denominators of the s_n S_n, with one reduction per coefficient; numeric
    ones by padding, scaling, shifting and adding term by term."""
    if not field.is_exact:
        total = TruncatedSeries.zero(order, field)
        for series, shift, scalar in terms:
            total = total + series.padded_to(order - shift).scale(scalar).shifted(shift)
        return total
    parts = []
    for series, shift, scalar in terms:
        if series.field != field:
            raise FieldError(f"field mismatch: {series.field.kind} vs {field.kind}")
        scalar = field.of(scalar)
        nums, den = _over_one_denominator(series.padded_to(order - shift).coefficients)
        parts.append((scalar.numerator, scalar.denominator * den, shift, nums))
    common = math.lcm(*[den for _, den, _, _ in parts])
    total = [0] * (order + 1)
    for scalar, den, shift, nums in parts:
        if scalar:
            scalar *= common // den
            for j, v in enumerate(nums, shift):
                total[j] += scalar * v
    return TruncatedSeries._result(field, [Fraction(v, common) for v in total])


def linear_factor_product(kappas, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """prod_j (1 - kappa_j t), exact polynomial when there are <= order factors."""
    result = TruncatedSeries.one(order, field)
    for kappa in kappas:
        factor = TruncatedSeries(
            field,
            [field.one(), -field.of(kappa)] + [field.zero()] * max(0, order - 1),
        )
        result = result * factor.truncate_to(order)
    return result


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
