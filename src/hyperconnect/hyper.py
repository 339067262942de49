"""Generalized and multivariable hypergeometric evaluation.

``pfq_eval``, the public scalar sum, requires a numerator parameter in
{0, -1, -2, ...} and sums the finite series exactly,
with eager pole detection: a term whose numerator product is already zero
contributes nothing, but a nonzero term over a vanishing denominator factor
is reported as a pole instead of being divided through.  On both fields the
sum is that of the ``series.hypergeometric_terms`` row, exact on integers
over the row's one denominator.  The one
non-terminating sum, a lattice sum's closed form, goes through
``pfq_eval_with_tail``: complex doubles until the absolute term drops below
1e-17 |partial sum| for five consecutive terms (guarding against
alternating-term false convergence) or 4,000 terms are summed, each step on
exact parameters taken from ``series.integer_term_ratios`` as two correctly
rounded integer quotients, the doubles ``term_ratio`` would give.

Everything can also be lifted to a series in t, each coefficient an exact
finite sum.  pFq at lam*t has coefficients c_k = a_k lam^k, from the term
ratio; at lam*t/(1-t), which expands as (lam t)^k (1-t)^(-k), the t^j
coefficient is sum_{k=1..j} c_k C(j-1, k-1) for j >= 1.  The c_k are the
row of ``series.hypergeometric_terms`` (integer numerators over one
denominator for exact inputs, the values over 1 on doubles), the binomial
sums run once for both fields on its numerators, and the lifted row is
reduced once as it is stored: no ``Fraction`` is formed until a coefficient
is read.  The two- and three-variable kinds take lam_i*t arguments; the
multi-indices of total degree M share only (a)_M / (c)_M = joint(M), so the
t^M coefficient, the shell S_M, is joint(M) [t^M] prod_i sum_m (b_i)_m
(lam_i t)^m / m!: one Cauchy product of per-argument factors, and the
shells are the joint row times the product's row, numerators pairwise over
the product of the two denominators.  That product does not involve the
joint parameters, so a caller lifting many series that differ only in them
(the inner_n of one generating-function build) builds it once with
``factor_product`` and hands it to every lift.  Scalar multivariable sums
terminate on a joint numerator in {0, -1, -2, ...}, add the same shells on
their numerators into one value, and take a shared product the same way
(``multivar_eval(..., product=...)``, as the connection-type F1 kernels at
one argument do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ConvergenceError, DomainError
from .fields import (
    EXACT,
    FieldTag,
    as_index,
    field_of,
    is_nonpositive_integer,
)
from .pochhammer import pochhammer_row
from .series import TruncatedSeries, hypergeometric_terms, integer_term_ratios, term_ratio


@dataclass(frozen=True)
class HyperSpec:
    """Parameter lists of rFs."""

    numerator: tuple
    denominator: tuple


def pfq(numerator, denominator) -> HyperSpec:
    return HyperSpec(tuple(numerator), tuple(denominator))


_TAIL_MAX_TERMS = 4000
_TAIL_TOL = 1e-17
_CONSECUTIVE_SMALL = 5


class TailReport(NamedTuple):
    terms: int
    last_term: float
    converged: bool
    abs_sum: float  # sum of |term| over the terms added; rounding scales with it


def pfq_eval_with_tail(spec: HyperSpec, z):
    """Value of a non-terminating series at z in complex doubles and the
    tail it stopped at: summed until five consecutive terms fall below
    1e-17 of the total, or 4,000 terms are summed.

    On exact parameters the step k is complex(A / scale) z / complex(B / scale)
    for the ``integer_term_ratios`` pair (A, B) at lam = 1 and scale the
    product of the parameters' denominators: A / scale and B / scale are the
    exact numerator and denominator products of ``term_ratio``, each rounded
    once, so the doubles are those of ``term_ratio`` without a ``Fraction``."""
    tops, bottoms = spec.numerator, spec.denominator
    z = complex(z)
    if field_of(*tops, *bottoms).is_exact:
        scale = math.prod([a.denominator for a in (*tops, *bottoms)])
        ratios = (complex(a / scale) * z / complex(b / scale)
                  for a, b in integer_term_ratios(tops, bottoms, 1, _TAIL_MAX_TERMS))
    else:
        ratios = (complex(term_ratio(tops, bottoms, z, k)) for k in range(_TAIL_MAX_TERMS))
    term = complex(1.0)
    total = complex(1.0)
    small_streak = 0
    shrinking = False
    last_abs = abs_sum = 1.0
    k = 0
    for ratio in ratios:
        term = term * ratio
        k += 1
        if term == 0:
            return total, TailReport(k + 1, 0.0, True, abs_sum)
        if abs(term) < last_abs:
            shrinking = True
        last_abs = abs(term)
        abs_sum += last_abs
        total = total + term
        if abs(term) <= _TAIL_TOL * abs(total):
            small_streak += 1
            if small_streak >= _CONSECUTIVE_SMALL:
                return total, TailReport(k + 1, abs(term), True, abs_sum)
        else:
            small_streak = 0
    if k < _TAIL_MAX_TERMS:  # the exact steps stopped at a vanishing numerator
        return total, TailReport(k + 2, 0.0, True, abs_sum)
    if not shrinking:
        raise ConvergenceError(
            f"terms still growing after {_TAIL_MAX_TERMS} terms;"
            f" last |term| = {last_abs:.3e}"
        )
    return total, TailReport(k + 1, last_abs, False, abs_sum)


def pfq_eval(spec: HyperSpec, z):
    """Scalar value of the terminating generalized hypergeometric series at z."""
    # the smallest m with a numerator parameter -m: every term past the m-th vanishes
    degree = min([-as_index(a.real if isinstance(a, complex) else a)
                  for a in spec.numerator if is_nonpositive_integer(a)], default=None)
    if degree is None:
        raise DomainError("a terminating sum needs a numerator parameter in {0, -1, -2, ...}")
    field = field_of(*spec.numerator, *spec.denominator, z)
    nums, den = hypergeometric_terms(spec.numerator, spec.denominator, z, degree, field)
    return field.over([sum(nums)], den)[0]


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


def _argument_factor(b, lam, order: int, field: FieldTag) -> tuple:
    """The row of (b)_m lam^m / m!, m = 0..order.  Doubles take the term
    ratio (b+m) lam / (m+1), because (b)_m and m! leave their range past
    m = 170."""
    if field.is_exact:
        return field.common([rising / math.factorial(m) * lam**m
                             for m, rising in enumerate(pochhammer_row(b, order))])
    return hypergeometric_terms((b,), (), lam, order, field)


def _multivar_row(spec: MultiVarSpec, shapes, order: int, field: FieldTag,
                  product=None) -> tuple:
    """The row of the shells S_0..S_order at the argument shapes: the row of
    joint(M) = (a)_M / (c)_M (or 1/(c)_M), the coefficients of 2F1(a, 1; c; t)
    (or 1F1(1; c; t)), times that of the factor product, taken from
    ``product`` when one of order >= ``order`` is given."""
    a = spec.joint_numerator
    joint, joint_den = hypergeometric_terms((1,) if a is None else (a, 1),
                                            (spec.joint_denominator,), 1, order, field)
    if product is None:
        product = factor_product(spec, shapes, order, field)
    elif product.order < order:
        raise DomainError(f"factor product of order {product.order} < {order}")
    nums, den = product.row
    return [j * c for j, c in zip(joint, nums)], joint_den * den


def multivar_eval(spec: MultiVarSpec, args: Sequence,
                  product: TruncatedSeries | None = None):
    """Scalar value of the terminating double/triple series at the given
    arguments: the joint numerator must lie in {0, -1, -2, ...}.
    ``product`` hands in the factor product (``factor_product`` at lam_i*t
    with the arguments as the lam_i, in the field of the sum) when sums that
    differ only in joint parameters share it; it must reach the highest
    shell formed.
    """
    if len(args) != spec.arity:
        raise DomainError(f"{spec.kind} takes {spec.arity} arguments")
    a = spec.joint_numerator
    if a is None or not is_nonpositive_integer(a):
        raise DomainError(f"{spec.kind} sums need a joint numerator in {{0, -1, -2, ...}}")
    field = field_of(*spec.params, *args)
    degree = -as_index(a.real if isinstance(a, complex) else a)
    shells, den = _multivar_row(spec, [linear_arg(field.of(x)) for x in args], degree, field,
                                product)
    return field.over([sum(shells)], den)[0]


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
        TruncatedSeries._result(field, *_argument_factor(b, field.of(s.scale), order, field))
        for b, s in zip(spec.separate_numerators, shapes)
    ])


def _mobius_lift(nums) -> list:
    """nums[0] and, for j >= 1, sum_{k=1..j} nums[k] C(j-1, k-1): from the
    numerators of a row at lam*t, those of the row at lam*t/(1-t) over the
    same denominator."""
    lifted = [0] * len(nums)
    lifted[0] = nums[0]
    for k, v in enumerate(nums):
        if k and v:  # coefficient j >= k gathers its terms in increasing k
            for j in range(k, len(nums)):
                lifted[j] += v * math.comb(j - 1, k - 1)
    return lifted


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
        if len(shapes) != 1:
            raise DomainError("single-variable series takes one argument shape")
        nums, den = hypergeometric_terms(spec.numerator, spec.denominator,
                                         field.of(shapes[0].scale), order, field)
        if shapes[0].over_one_minus_t:
            nums = _mobius_lift(nums)
        return TruncatedSeries._result(field, nums, den)
    if isinstance(spec, MultiVarSpec):
        return TruncatedSeries._result(field, *_multivar_row(spec, shapes, order, field, product))
    raise DomainError(f"unsupported spec type {type(spec).__name__}")
