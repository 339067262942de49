"""Truncated formal power series in one symbol t.

A TruncatedSeries holds coefficients c_0..c_N of one field.  Every identity in
this package is ultimately a statement that two such series agree
coefficientwise, exactly on the exact field or within the field tolerance on
the numeric one.  Mixed-order arithmetic truncates to the smaller order, which
is what "equal up to order N" means; multiplication is the Cauchy product
truncated at the result order.

An exact series is stored as its row: integer numerators over one positive
denominator, reduced once by a single ``math.gcd(den, *nums)`` when the row
is stored.  The canonical ``Fraction``s are formed the first time
``coefficients`` is read, and kept.  A double series stores its values over
1, so every double keeps its bits.  Each double is checked once by
``as_numeric`` (a complex by its type and ``cmath.isfinite``): in its
stream, or where ``_result`` stores a product.

``hypergeometric_terms`` builds every row prod (a_i)_k / prod (b_j)_k
lam^k / k! in the package, ``binomial_power`` (1F0) and ``exp_series``
(0F0) among them: on exact inputs the running products of
``integer_term_ratios`` over their last denominator, otherwise by
``term_ratio`` on CoefficientStream, whose one loop (the q-series' too)
stops at the first zero term and raises PoleError eagerly.
``gauss_degree_row`` builds the row 2F1(-k, a; b; w), k = 0..order, by
Gauss's contiguous relation in -k: a fraction-free recurrence, O(order)
steps on growing integers, over the Gaussian integers for doubles, whose
entries are then rounded once.

The O(order^2) loops run once for both fields on rows: a product takes the
Cauchy product of its operands' numerators over the product of their
denominators, and ``linear_combination`` sums s_n t^k_n S_n(t) over one
denominator for all terms.  ``FieldTag.common`` is the one way a list of
values enters row form and ``FieldTag.over`` the one way a row leaves it.
An exact coefficient is the canonical ``Fraction`` term-by-term arithmetic
gives; doubles are those of the plain operations.

Values are immutable and operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable

from .errors import DomainError, FieldError, PoleError
from .fields import (EXACT, NUMERIC, FieldTag, as_numeric, field_of, integer_linear,
                     rising_vanishes)


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


def _reduced(nums, den):
    """The row nums / den over a positive denominator, in lowest terms: one
    multi-argument gcd, and a division only when it is not 1."""
    common = math.gcd(den, *nums)
    if den < 0:
        common = -common
    if common == 1:
        return nums, den
    return [v // common for v in nums], den // common


class TruncatedSeries:
    __slots__ = ("field", "row", "_values")

    def __init__(self, field: FieldTag, coefficients):
        values = tuple([field.of(c) for c in coefficients])
        if not values:
            raise DomainError("a series needs at least the constant coefficient")
        nums, den = field.common(values)
        self._fill(field, nums, den, values)

    def _fill(self, field, nums, den, values):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "row", (tuple(nums), den))
        object.__setattr__(self, "_values", values)

    @classmethod
    def _result(cls, field: FieldTag, nums, den=1, checked=False) -> "TruncatedSeries":
        """The series of the row nums[i] / den (den 1 on doubles).  An exact
        row is stored reduced; doubles are checked by ``as_numeric`` unless
        ``checked`` says they were, so an overflow to inf raises DomainError."""
        series = object.__new__(cls)
        if field.is_exact:
            series._fill(field, *_reduced(nums, den), None)
        else:
            values = tuple(nums) if checked else tuple([as_numeric(v) for v in nums])
            series._fill(field, values, 1, values)
        return series

    @property
    def coefficients(self) -> tuple:
        """The values of the row, formed on first read and kept."""
        if self._values is None:
            object.__setattr__(self, "_values", tuple(self.field.over(*self.row)))
        return self._values

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.row[0]) - 1

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
        return TruncatedSeries(self.field, map(add, self.coefficients, other.coefficients))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_field(other)
        return TruncatedSeries(self.field, map(sub, self.coefficients, other.coefficients))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_field(other)
        n = min(self.order, other.order) + 1
        (left, da), (right, db) = self.row, other.row
        return TruncatedSeries._result(
            self.field, _cauchy_product(left[:n], right[:n]), da * db)

    def scale(self, scalar) -> "TruncatedSeries":
        s = self.field.of(scalar)
        return TruncatedSeries(self.field, [c * s for c in self.coefficients])

    def truncate_to(self, m: int) -> "TruncatedSeries":
        """[f]_m: keep c_0..c_m.  m may not exceed the stored order."""
        if m > self.order:
            raise DomainError(f"cannot truncate order {self.order} series to {m}")
        if m < 0:
            raise DomainError("truncation order must be >= 0")
        nums, den = self.row
        return TruncatedSeries._result(self.field, nums[: m + 1], den)

    def padded_to(self, order: int) -> "TruncatedSeries":
        """Zero-extend: exact for polynomials and truncated tails."""
        if order < self.order:
            raise DomainError("padded_to cannot shrink; use truncate_to")
        if order == self.order:
            return self
        nums, den = self.row
        zero = 0 if self.field.is_exact else self.field.zero()
        return TruncatedSeries._result(self.field, nums + (zero,) * (order - self.order), den)

    def shifted(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; order grows by k."""
        if k < 0:
            raise DomainError("shift must be >= 0")
        return TruncatedSeries(self.field, (self.field.zero(),) * k + self.coefficients)

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
        # a stored row is canonical: exact rows are reduced with den > 0
        return self.field == other.field and self.row == other.row

    def __hash__(self):
        return hash((self.field, self.row))

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
        of = field.of if field.is_exact else as_numeric
        out = [of(self.first)]
        for k in range(order):
            current = out[-1]
            if current == 0:
                out.extend([field.zero()] * (order - k))
                break
            try:
                step = self.ratio(k)
            except ZeroDivisionError:
                raise PoleError(f"term ratio has a pole at index {k}") from None
            out.append(of(current * step))
        return out

    def series(self, order: int, field: FieldTag) -> TruncatedSeries:
        """The series of ``coefficients``, whose doubles are checked there."""
        return TruncatedSeries._result(field, *field.common(self.coefficients(order, field)),
                                       checked=True)

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


def hypergeometric_terms(tops, bottoms, lam, order: int, field: FieldTag = EXACT) -> tuple:
    """The row (nums, den) of c_k = nums[k] / den = prod_i (a_i)_k /
    prod_j (b_j)_k lam^k / k!, k = 0..order, of the a_i (``tops``), b_j
    (``bottoms``) and lam; ``field.over`` of it gives the values.

    On the exact field with exact inputs the terms are the running products
    of ``integer_term_ratios``, put over the last term's denominator and
    reduced once, so den > 0 and gcd(den, *nums) = 1; otherwise the terms
    stream ``term_ratio`` on ``CoefficientStream`` and stand over 1.  Either
    way the stream stops at the first zero term, so a zero lam ends it after
    the pole check, and the row is zero-padded to ``order``.
    """
    if not (field.is_exact and field_of(*tops, *bottoms, lam).is_exact):
        return field.common(CoefficientStream(
            Fraction(1), lambda k: term_ratio(tops, bottoms, lam, k)).coefficients(order, field))
    nums, steps = [1], []
    for num, den in integer_term_ratios(tops, bottoms, lam, order):
        term = nums[-1] * num
        if not term:
            break
        nums.append(term)
        steps.append(den)
    nums, den = _reduced(*_over_last(nums, steps))
    return nums + [0] * (order + 1 - len(nums)), den


def _over_last(nums, steps):
    """Entries nums[k] over steps[0] ... steps[k-1] as one row over the
    product of all the steps: entry k is scaled by the steps after it."""
    den = 1
    for k in range(len(steps) - 1, -1, -1):
        den *= steps[k]
        nums[k] *= den
    return nums, den


def gauss_degree_row(a, b, w, order: int, field: FieldTag = EXACT) -> tuple:
    """The row (nums, den) of F_k = 2F1(-k, a; b; w), k = 0..order, by
    Gauss's contiguous relation in the first parameter (DLMF 15.5.11):

        (b+k) F_{k+1} = ((2-w)k + b - a w) F_k + (w-1) k F_{k-1}

    On exact inputs the relation runs on its ``integer_linear`` coefficients
    with both running values over one denominator, which each step
    multiplies by the divisor, and every entry is put over the last one
    (den > 0, not reduced).  Where a divisor b+k vanishes, k < order, every
    F_k is the sum of its ``hypergeometric_terms`` row instead, which stops
    at the first zero term and raises PoleError at a nonzero term over a
    vanishing (b)_j, as the terms of 2F1(-k, a; b; w) do on their own.

    Otherwise doubles take the exact row at their own values (a finite
    double is a rational), each entry rounded once, over 1; an entry past
    the double range is a DomainError, as a non-finite double is.  The
    relation runs on Gaussian integers x + iy, each step multiplied through
    by the conjugate of its divisor, so the running denominator is |b+k|^2
    times the last.  The relation run on doubles loses up to 8 digits where
    b+k nears 0, as the Krawtchouk b = n - N makes it near k = N - n.
    """
    a, b, w = field.of(a), field.of(b), field.of(w)
    if rising_vanishes(b, order):
        return field.common([
            field.over([sum(nums)], den)[0]
            for nums, den in (hypergeometric_terms((-k, a), (b,), w, k, field)
                              for k in range(order + 1))])
    if not field.is_exact:
        ar, ai, br, bi, wr, wi = [Fraction(v) for z in (a, b, w) for v in (z.real, z.imag)]
        # the coefficients' real and imaginary parts, scaled to integers together
        (a0, a0i, a1, a1i, d0, di, s1, s1i, d1), _ = EXACT.common([
            br - ar * wr + ai * wi, bi - ar * wi - ai * wr, 2 - wr, -wi, br, bi, wr - 1, wi,
            Fraction(1)])
        re, im, steps = [1], [0], []
        (x0, y0), (x, y) = (0, 0), (1, 0)  # F_{k-1} and F_k over the running denominator
        for k in range(order):
            dr, ak, aki = d0 + d1 * k, a0 + a1 * k, a0i + a1i * k
            tr = ak * x - aki * y + k * (s1 * x0 - s1i * y0)
            ti = ak * y + aki * x + k * (s1 * y0 + s1i * x0)
            scale = dr * dr + di * di
            (x0, y0), (x, y) = (x * scale, y * scale), (dr * tr + di * ti, dr * ti - di * tr)
            re.append(x)
            im.append(y)
            steps.append(scale)
        (re, den), (im, _) = _over_last(re, steps), _over_last(im, steps)
        try:
            return [complex(u / den, v / den) for u, v in zip(re, im)], 1
        except OverflowError:
            raise DomainError("numeric scalar must be finite, got a 2F1(-k, a; b; w)"
                              " past the double range") from None
    (a0, a1), (d0, d1), (_, s1) = integer_linear((b - a * w, 2 - w), (b, 1), (0, w - 1))
    nums, steps = [1], []
    before, now = 0, 1
    for k in range(order):
        scale = d0 + d1 * k
        before, now = now * scale, (a0 + a1 * k) * now + s1 * k * before
        nums.append(now)
        steps.append(scale)
    nums, den = _over_last(nums, steps)
    return ([-v for v in nums], -den) if den < 0 else (nums, den)


def binomial_power(kappa, a, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """(1 - kappa t)^(-a) = 1F0(a;; kappa t): coefficient (a)_n kappa^n / n!."""
    kappa, a = field.of(kappa), field.of(a)
    return TruncatedSeries._result(field, *hypergeometric_terms([a], [], kappa, order, field),
                                   checked=True)


def exp_series(kappa, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """exp(kappa t) = 0F0(;; kappa t): coefficient kappa^n / n!."""
    return TruncatedSeries._result(
        field, *hypergeometric_terms([], [], field.of(kappa), order, field), checked=True)


def linear_combination(terms, order: int, field: FieldTag) -> TruncatedSeries:
    """sum_n s_n t^k_n S_n(t) to ``order`` for terms (S_n, k_n, s_n), each
    S_n of order at most order - k_n (zero-padded to it).

    The rows of the S_n go over the lcm of their denominators and the s_n
    over one denominator (``FieldTag.common``), and the products are summed
    term by term into one row: on the exact field integers reduced once, on
    doubles the plain products and sums."""
    rows = []
    for series, shift, _ in terms:
        if series.field != field:
            raise FieldError(f"field mismatch: {series.field.kind} vs {field.kind}")
        rows.append(series.padded_to(order - shift).row)
    den = math.lcm(*[d for _, d in rows])
    scalars, scalar_den = field.common([field.of(scalar) for _, _, scalar in terms])
    total = [0] * (order + 1)
    for (_, shift, _), scalar, (nums, d) in zip(terms, scalars, rows):
        if scalar:
            if d != den:
                scalar *= den // d
            for j, v in enumerate(nums, shift):
                total[j] += scalar * v
    return TruncatedSeries._result(field, total, scalar_den * den)


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
