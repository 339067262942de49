"""Generalized, basic, and multivariable hypergeometric evaluation.

Scalar evaluation comes in two modes.  Terminating mode requires a numerator
parameter in {0, -1, -2, ...} (or q^{-m} for basic series) and sums the finite
series exactly, with eager pole detection: a term whose numerator product is
already zero contributes nothing, but a nonzero term over a vanishing
denominator factor is reported as a pole instead of being divided through.
An exact pFq sum runs on integers over one running denominator
(``series._term_ratios``, the same checks in the same order) and is reduced
once.
Truncated mode sums until the absolute term drops below tol * |partial sum|
for five consecutive terms (guarding against alternating-term false
convergence) or the term cap is hit.

Everything can also be lifted to a series in t, each coefficient an exact
finite sum.  pFq at lam*t has coefficients c_k = a_k lam^k, from the term
ratio; at lam*t/(1-t), which expands as (lam t)^k (1-t)^(-k), the t^j
coefficient is sum_{k=1..j} c_k C(j-1, k-1) for j >= 1.  On exact inputs
both run on integers: the c_k come from ``series.hypergeometric_terms``,
one ``Fraction`` per k, and the binomial sums from the numerators of the c_k
over their common denominator, one ``Fraction`` per j.  The two- and
three-variable kinds take lam_i*t arguments; the multi-indices of total
degree M share only (a)_M / (c)_M = joint(M), so the t^M coefficient, the
shell S_M, is joint(M) [t^M] prod_i sum_m (b_i)_m (lam_i t)^m / m!: one
Cauchy product of per-argument factors.  That product does not involve the
joint parameters, so a caller lifting many series that differ only in them
(the inner_n of one generating-function build) builds it once with
``factor_product`` and hands it to every lift.  Scalar multivariable sums
add the same shells, and take a shared product the same way
(``multivar_eval(..., product=...)``, as the connection-type F1 kernels
at one argument do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ConvergenceError, DomainError, PoleError
from .fields import (
    EXACT,
    NUMERIC,
    FieldTag,
    as_index,
    is_exact_value,
    is_nonpositive_integer,
)
from .pochhammer import pochhammer_row
from .series import (CoefficientStream, TruncatedSeries, _over_one_denominator,
                     _term_ratios, hypergeometric_terms)


@dataclass(frozen=True)
class HyperSpec:
    """Parameter lists of rFs (ordinary) or r-phi-s (basic, q set)."""

    numerator: tuple
    denominator: tuple
    q: object = None

    @property
    def is_basic(self) -> bool:
        return self.q is not None

    def __post_init__(self):
        if self.q is not None and not (0 < abs(complex(self.q)) < 1):
            raise DomainError("basic series need 0 < |q| < 1")


def pfq(numerator, denominator) -> HyperSpec:
    return HyperSpec(tuple(numerator), tuple(denominator))


def rphis(numerator, denominator, q) -> HyperSpec:
    return HyperSpec(tuple(numerator), tuple(denominator), q)


class Terminating(NamedTuple):
    """Sum the finite series exactly; valid on either field."""


class Truncated(NamedTuple):
    max_terms: int = 512
    tol: float = 1e-15


TERMINATING = Terminating()

_CONSECUTIVE_SMALL = 5


class TailReport(NamedTuple):
    terms: int
    last_term: float
    converged: bool
    abs_sum: float  # sum of |term| over the terms added; rounding scales with it


def _terminating_degree(spec: HyperSpec):
    """Smallest m with some numerator parameter forcing term m+1 to vanish."""
    best = None
    if spec.is_basic:
        for a in spec.numerator:
            m = _q_terminating_index(a, spec.q)
            if m is not None and (best is None or m < best):
                best = m
    else:
        for a in spec.numerator:
            if is_nonpositive_integer(a):
                m = -as_index(a.real if isinstance(a, complex) else a)
                if best is None or m < best:
                    best = m
    return best


def _q_terminating_index(a, q):
    """m >= 0 with a = q^{-m}, or None."""
    if is_exact_value(a) and is_exact_value(q):
        value = Fraction(a)
        step = Fraction(q)
        m = 0
        while value > 1:
            value = value * step
            m += 1
            if m > 4096:
                return None
        return m if value == 1 else None
    a = complex(a)
    q = complex(q)
    if a == 0:
        return None
    m = round(math.log(abs(a)) / -math.log(abs(q)))
    if m < 0:
        return None
    if abs(a * q**m - 1.0) < 1e-12:
        return m
    return None


def _pfq_term_ratio(spec: HyperSpec, z, k: int):
    """Multiplier taking term k to term k+1.

    A vanishing numerator product zeroes the term (and everything after it)
    before any division happens; a nonzero term over a vanishing denominator
    factor is a genuine pole and is raised eagerly.
    """
    num = 1
    for a in spec.numerator:
        num = num * (a + k)
    if num == 0:
        return 0
    den = 1
    for b in spec.denominator:
        den = den * (b + k)
    if den == 0:
        raise PoleError(
            f"denominator parameter pole at term {k + 1}: "
            f"one of {spec.denominator} lies in -N0"
        )
    return num * z / (den * (k + 1))


def _rphis_term_ratio(spec: HyperSpec, z, k: int):
    q = spec.q
    qk = q**k
    num = 1
    for a in spec.numerator:
        num = num * (1 - a * qk)
    if num == 0:
        return 0
    den = 1 - q ** (k + 1)
    for b in spec.denominator:
        den = den * (1 - b * qk)
    if den == 0:
        raise PoleError(f"basic-series denominator pole at term {k + 1}")
    extra = 1
    exponent = 1 + len(spec.denominator) - len(spec.numerator)
    if exponent:
        base = -qk
        extra = base**exponent if exponent > 0 else 1 / base ** (-exponent)
    return num * z * extra / den


def _all_exact(spec: HyperSpec, z) -> bool:
    exact = all(is_exact_value(p) for p in spec.numerator + spec.denominator)
    exact = exact and is_exact_value(z)
    return exact and (not spec.is_basic or is_exact_value(spec.q))


def _sum_terminating(spec: HyperSpec, z, degree: int):
    if not spec.is_basic and _all_exact(spec, z):
        # the terms over one running denominator, one reduction at the end
        term, den, total = 1, 1, 1
        for step_num, step_den in _term_ratios(spec.numerator, spec.denominator, z, degree):
            term *= step_num
            if not term:
                break
            den *= step_den
            total = total * step_den + term
        return Fraction(total, den)
    ratio = _rphis_term_ratio if spec.is_basic else _pfq_term_ratio
    term = Fraction(1) if _all_exact(spec, z) else complex(1.0)
    total = term
    for k in range(degree):
        term = term * ratio(spec, z, k)
        if term == 0:
            break
        total = total + term
    return total


def _sum_truncated(spec: HyperSpec, z, mode: Truncated):
    ratio = _rphis_term_ratio if spec.is_basic else _pfq_term_ratio
    term = complex(1.0)
    total = complex(1.0)
    z = complex(z)
    small_streak = 0
    shrinking = False
    last_abs = abs_sum = 1.0
    k = 0
    while k < mode.max_terms:
        term = term * complex(ratio(spec, z, k))
        k += 1
        if term == 0:
            return total, TailReport(k + 1, 0.0, True, abs_sum)
        if abs(term) < last_abs:
            shrinking = True
        last_abs = abs(term)
        abs_sum += last_abs
        total = total + term
        if abs(term) <= mode.tol * abs(total):
            small_streak += 1
            if small_streak >= _CONSECUTIVE_SMALL:
                return total, TailReport(k + 1, abs(term), True, abs_sum)
        else:
            small_streak = 0
    if not shrinking:
        raise ConvergenceError(
            f"terms still growing after {mode.max_terms} terms;"
            f" last |term| = {last_abs:.3e}"
        )
    return total, TailReport(k + 1, last_abs, False, abs_sum)


def _evaluate(spec: HyperSpec, z, mode):
    if isinstance(mode, Terminating):
        degree = _terminating_degree(spec)
        if degree is None:
            raise DomainError(
                "terminating mode needs a numerator parameter "
                + ("q^-m" if spec.is_basic else "in {0, -1, -2, ...}")
            )
        return _sum_terminating(spec, z, degree)
    value, _ = _sum_truncated(spec, z, mode)
    return value


def pfq_eval(spec: HyperSpec, z, mode=TERMINATING):
    """Scalar value of the generalized hypergeometric series at z."""
    if spec.is_basic:
        raise DomainError("use rphis_eval for basic series")
    return _evaluate(spec, z, mode)


def pfq_eval_with_tail(spec: HyperSpec, z, mode: Truncated):
    """As pfq_eval in truncated mode, also reporting the bound used."""
    if spec.is_basic:
        raise DomainError("use rphis_eval for basic series")
    return _sum_truncated(spec, z, mode)


def rphis_eval(spec: HyperSpec, z, mode=TERMINATING):
    """Scalar value of the basic hypergeometric series at z.

    Includes the ((-1)^k q^binom(k,2))^(1+s-r) factor, so the value matches
    the series exactly as displayed for any r, s.
    """
    if not spec.is_basic:
        raise DomainError("rphis_eval needs a basic spec; use pfq_eval")
    return _evaluate(spec, z, mode)


# -- multivariable kinds ----------------------------------------------------

APPELL_F1 = "appell_f1"
HUMBERT_PHI2 = "humbert_phi2"
LAURICELLA_FD3 = "lauricella_fd3"
HUMBERT_PHI2_3 = "humbert_phi2_3"

# kind -> (arity, whether a joint numerator leads the parameters)
_KINDS = {APPELL_F1: (2, True), HUMBERT_PHI2: (2, False),
          LAURICELLA_FD3: (3, True), HUMBERT_PHI2_3: (3, False)}


@dataclass(frozen=True)
class MultiVarSpec:
    """One of the double/triple series.

    appell_f1(a, b, b'; c):        (a)_{m+n} (b)_m (b')_n / (c)_{m+n}
    humbert_phi2(b, b'; c):        (b)_m (b')_n / (c)_{m+n}
    lauricella_fd3(a, b1,b2,b3; c):(a)_{m+n+p} (b1)_m (b2)_n (b3)_p / (c)_{m+n+p}
    humbert_phi2_3(b1,b2,b3; c):   (b1)_m (b2)_n (b3)_p / (c)_{m+n+p}

    each term divided by the factorials of the indices and multiplied by the
    matching powers of the arguments.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown multivariable kind {self.kind!r}")
        arity, joint = _KINDS[self.kind]
        if len(self.params) != arity + joint + 1:
            raise DomainError(
                f"{self.kind} takes {arity + joint + 1} parameters,"
                f" got {len(self.params)}"
            )

    @property
    def arity(self) -> int:
        return _KINDS[self.kind][0]

    @property
    def joint_numerator(self):
        """Parameter appearing as (a)_{|index|}, or None."""
        return self.params[0] if _KINDS[self.kind][1] else None

    @property
    def separate_numerators(self) -> tuple:
        return self.params[-1 - self.arity:-1]

    @property
    def joint_denominator(self):
        return self.params[-1]


def _pfq_coefficients(spec: HyperSpec, lam, order: int, field: FieldTag) -> list:
    """Coefficients a_k lam^k, k = 0..order, of pFq at lam*t: on integers
    (``hypergeometric_terms``) when the field and every input are exact,
    else by the term ratio."""
    if field.is_exact and _all_exact(spec, lam):
        return hypergeometric_terms(spec.numerator, spec.denominator, lam, order)
    return CoefficientStream(
        Fraction(1), lambda k: _pfq_term_ratio(spec, lam, k)
    ).coefficients(order, field)


def _joint_ratios(spec: MultiVarSpec, order: int, field: FieldTag) -> list:
    """joint[M] = (a)_M / (c)_M (or 1/(c)_M), M = 0..order: the coefficients
    of 2F1(a, 1; c; t) (or 1F1(1; c; t)), with eager pole detection."""
    a = spec.joint_numerator
    joint = pfq((1,) if a is None else (a, 1), (spec.joint_denominator,))
    return _pfq_coefficients(joint, 1, order, field)


def _argument_factor(b, lam, order: int, field: FieldTag) -> list:
    """(b)_m lam^m / m!, m = 0..order.  Doubles take the term ratio
    (b+m) lam / (m+1), because (b)_m and m! leave their range past m = 170."""
    if field.is_exact:
        return [rising / math.factorial(m) * lam**m
                for m, rising in enumerate(pochhammer_row(b, order))]
    return _pfq_coefficients(pfq((b,), ()), lam, order, field)


def _shells(spec: MultiVarSpec, shapes, joint, field: FieldTag, product=None) -> list:
    """Shells S_0..S_M of the series at the argument shapes, M = len(joint) - 1:
    joint[M] times the t^M coefficient of the factor product, taken from
    ``product`` when one of order >= M is given."""
    order = len(joint) - 1
    if product is None:
        product = factor_product(spec, shapes, order, field)
    elif product.order < order:
        raise DomainError(f"factor product of order {product.order} < {order}")
    return [j * c for j, c in zip(joint, product.coefficients)]


def multivar_field(spec: MultiVarSpec, args: Sequence) -> FieldTag:
    """The field a terminating multivariable sum runs in: exact when every
    parameter and argument is."""
    return EXACT if all(is_exact_value(v) for v in (*spec.params, *args)) else NUMERIC


def multivar_eval(spec: MultiVarSpec, args: Sequence, mode=None,
                  product: TruncatedSeries | None = None):
    """Scalar value of the double/triple series at the given arguments.

    Terminates exactly when the joint numerator is a nonpositive integer;
    otherwise sums shells under the truncated-mode stopping rule, doubling
    the number formed until the rule is met or ``max_terms`` is reached.
    ``product`` hands in the factor product (``factor_product`` at lam_i*t
    with the arguments as the lam_i, in the field of the sum) when sums that
    differ only in joint parameters share it; it must reach the highest
    shell formed.
    """
    if len(args) != spec.arity:
        raise DomainError(f"{spec.kind} takes {spec.arity} arguments")
    a = spec.joint_numerator
    if a is not None and is_nonpositive_integer(a):
        field = multivar_field(spec, args)
        degree = -as_index(a.real if isinstance(a, complex) else a)
        joint = _joint_ratios(spec, degree, field)
        shells = _shells(spec, [linear_arg(field.of(x)) for x in args], joint, field, product)
        return sum(shells, field.zero())
    mode = mode or Truncated()
    joint = _joint_ratios(spec, mode.max_terms, NUMERIC)
    shapes = [linear_arg(complex(x)) for x in args]
    order = min(16, mode.max_terms)
    while True:
        total = complex(0.0)
        streak = 0
        for m, shell in enumerate(_shells(spec, shapes, joint[: order + 1], NUMERIC, product)):
            total = total + shell
            if m and abs(shell) <= mode.tol * abs(total):
                streak += 1
                if streak >= _CONSECUTIVE_SMALL:
                    return total
            else:
                streak = 0
        if order == mode.max_terms:
            raise ConvergenceError(
                f"no {_CONSECUTIVE_SMALL}-shell convergence streak within degree"
                f" {mode.max_terms}; last |shell| = {abs(shell):.3e}"
            )
        order = min(2 * order, mode.max_terms)


# -- series in t ------------------------------------------------------------


@dataclass(frozen=True)
class ArgShape:
    """Argument of a hypergeometric factor as a function of t."""

    scale: object
    over_one_minus_t: bool = False


def linear_arg(scale) -> ArgShape:
    return ArgShape(scale, False)


def mobius_arg(scale) -> ArgShape:
    return ArgShape(scale, True)


def factor_product(spec: MultiVarSpec, shapes, order: int, field: FieldTag = EXACT) -> TruncatedSeries:
    """prod_i sum_m (b_i)_m (lam_i t)^m / m!: the part of a multivariable
    lift at lam_i*t that does not depend on the joint parameters."""
    if len(shapes) != spec.arity:
        raise DomainError(f"{spec.kind} takes {spec.arity} argument shapes")
    if any(s.over_one_minus_t for s in shapes):
        raise DomainError(
            "multivariable series support lam*t argument shapes only"
        )
    return reduce(mul, [
        TruncatedSeries(field, _argument_factor(b, field.of(s.scale), order, field))
        for b, s in zip(spec.separate_numerators, shapes)
    ])


def _mobius_lift(c, field: FieldTag) -> list:
    """c_0 and, for j >= 1, sum_{k=1..j} c_k C(j-1, k-1): the coefficients
    at lam*t/(1-t) from those c_k at lam*t.  Exact sums run on the integer
    numerators of the c_k over their common denominator, one ``Fraction``
    per j."""
    if not field.is_exact:
        return c[:1] + [
            sum(c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1) if c[k])
            for j in range(1, len(c))
        ]
    nums, den = _over_one_denominator(c)
    nonzero = [(k, v) for k, v in enumerate(nums) if k and v]
    return c[:1] + [
        Fraction(sum([v * math.comb(j - 1, k - 1) for k, v in nonzero if k <= j]), den)
        for j in range(1, len(c))
    ]


def hyper_series_in_t(spec, shapes, order: int, field: FieldTag = EXACT,
                      product: TruncatedSeries | None = None) -> TruncatedSeries:
    """Lift a hypergeometric function to a TruncatedSeries in t.

    A pFq spec takes one ArgShape: at lam*t the coefficients are
    c_k = a_k lam^k; at lam*t/(1-t) they are c_0 and, for j >= 1,
    sum_{k=1..j} c_k C(j-1, k-1), as (1-t)^(-k) = sum_i C(k+i-1, i) t^i.
    A multivariable spec takes one lam*t shape per argument; its t^M
    coefficient is joint(M) [t^M] prod_i sum_m (b_i)_m (lam_i t)^m / m!.
    ``product`` hands in that product (``factor_product``, to any order
    >= ``order``) when lifts that differ only in joint parameters share it.
    """
    if isinstance(shapes, ArgShape):
        shapes = [shapes]
    if isinstance(spec, HyperSpec):
        if spec.is_basic:
            raise DomainError("basic series are not supported as t-streams")
        if len(shapes) != 1:
            raise DomainError("single-variable series takes one argument shape")
        c = _pfq_coefficients(spec, field.of(shapes[0].scale), order, field)
        if shapes[0].over_one_minus_t:
            c = _mobius_lift(c, field)
        return TruncatedSeries._result(field, c)
    if isinstance(spec, MultiVarSpec):
        joint = _joint_ratios(spec, order, field)
        return TruncatedSeries(field, _shells(spec, shapes, joint, field, product))
    raise DomainError(f"unsupported spec type {type(spec).__name__}")
