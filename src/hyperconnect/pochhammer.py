"""Pochhammer and q-Pochhammer kernels.

The rising factorial is

    (a)_n = a (a+1) ... (a+n-1),          (a)_0 = 1 (empty product),

computed iteratively in whatever field ``a`` lives in; no gamma function is
ever called, so exact inputs give exact outputs and there is no cancellation
for large ``n``.  The q-shifted factorial is

    (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}),  (a;q)_0 = 1,

with an infinite-product mode for numeric inputs: factors are multiplied
until |a q^j| drops below 1e-17, beyond which they are the identity at
double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, FieldError
from .fields import as_index, field_of, is_exact_value

#: Sentinel for the infinite q-shifted factorial (a;q)_inf.
INFINITE = math.inf

_INF_FACTOR_CUTOFF = 1e-17


def pochhammer(a, n):
    """Rising factorial (a)_n.  Satisfies (a)_{n+k} = (a)_n (a+n)_k.  An int
    or ``Fraction`` a = p/q gives prod_j (p + j q) / q^n, one ``Fraction``."""
    n = as_index(n, "n")
    if n < 0:
        raise DomainError("pochhammer needs n >= 0")
    if type(a) is int or type(a) is Fraction:
        p, q = a.numerator, a.denominator
        return Fraction(math.prod(range(p, p + n * q, q)), q**n)
    result = field_of(a).one()
    for j in range(n):
        result = result * (a + j)
    return result


def pochhammer_row(a, top):
    """(a)_0, ..., (a)_top by the term ratio (a)_{m+1} = (a)_m (a + m), so
    every value equals ``pochhammer(a, m)`` (on doubles, by the same loop)."""
    row = [pochhammer(a, 0)]
    for m in range(top):
        row.append(row[-1] * (a + m))
    return row


def q_pochhammer(a, q, n):
    """q-shifted factorial (a;q)_n; pass n=INFINITE for the infinite product.

    The infinite product is numeric only: on exact inputs it cannot
    terminate, so requesting it there is an error rather than an
    approximation in disguise.
    """
    if n is INFINITE or (isinstance(n, float) and math.isinf(n)):
        if is_exact_value(a) or is_exact_value(q):
            raise FieldError(
                "infinite q-Pochhammer products are numeric-only;"
                " convert the operands to the numeric field first"
            )
        q = complex(q)
        a = complex(a)
        if not 0.0 < abs(q) < 1.0:
            raise DomainError("(a;q)_inf needs 0 < |q| < 1")
        result = complex(1.0)
        factor = a
        while abs(factor) >= _INF_FACTOR_CUTOFF:
            result *= 1.0 - factor
            factor *= q
        return result
    n = as_index(n, "n")
    if n < 0:
        raise DomainError("q_pochhammer needs n >= 0 or INFINITE")
    one = field_of(a, q).one()
    result = one
    power = one
    for _ in range(n):
        result = result * (one - a * power)
        power = power * q
    return result


# Bound predicates for rising factorials.  Each returns True when the stated
# inequality holds at the given point; preconditions are enforced.

def rising_abs_lower_bound_holds(u, j) -> bool:
    """|(u)_j| >= Re(u) (j-1)!  for Re(u) > 0, j >= 1."""
    j = as_index(j, "j")
    u = complex(u)
    if j < 1:
        raise DomainError("needs j >= 1")
    if not u.real > 0:
        raise DomainError("needs Re(u) > 0")
    return abs(pochhammer(u, j)) >= u.real * math.factorial(j - 1)


def rising_over_factorial_bound_holds(v, n) -> bool:
    """(v)_n / n! <= (1+n)^v  for v >= 0, n >= 0."""
    n = as_index(n, "n")
    v = float(v)
    if v < 0:
        raise DomainError("needs v >= 0")
    lhs = float(pochhammer(Fraction(v).limit_denominator(10**12), n)) / math.factorial(n)
    return lhs <= (1.0 + n) ** v


def shifted_rising_bound_holds(w, n, k) -> bool:
    """(n+w)_k <= max{1, 2^w} (n+k)!/n!  for w > -1, n, k >= 0."""
    n = as_index(n, "n")
    k = as_index(k, "k")
    w = float(w)
    if not w > -1:
        raise DomainError("needs w > -1")
    lhs = float(pochhammer(n + Fraction(w).limit_denominator(10**12), k))
    rhs = max(1.0, 2.0**w) * math.factorial(n + k) / math.factorial(n)
    return lhs <= rhs


def offset_rising_bound_holds(z, n, k) -> bool:
    """(z+k)_{n-k} <= (n!/k!) (1+n)^{|z|}  for real z, 0 <= k <= n."""
    n = as_index(n, "n")
    k = as_index(k, "k")
    if not 0 <= k <= n:
        raise DomainError("needs 0 <= k <= n")
    z = float(z)
    lhs = float(pochhammer(Fraction(z).limit_denominator(10**12) + k, n - k))
    rhs = math.factorial(n) / math.factorial(k) * (1.0 + n) ** abs(z)
    return lhs <= rhs
