"""Scalar fields and the Pochhammer / q-Pochhammer kernels."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperconnect import (
    EXACT,
    INFINITE,
    NUMERIC,
    DomainError,
    FieldError,
    numeric,
    parse_rational,
    pochhammer,
    q_pochhammer,
)
from hyperconnect.fields import deviation, field_of, is_exact_value
from hyperconnect.pochhammer import (
    offset_rising_bound_holds,
    rising_abs_lower_bound_holds,
    rising_over_factorial_bound_holds,
    shifted_rising_bound_holds,
)


def test_pochhammer_empty_product_is_one():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(complex(2.5, 1.0), 0) == 1


def test_pochhammer_of_one_is_factorial():
    assert pochhammer(1, 5) == 120


def test_pochhammer_half():
    # (1/2)(3/2)(5/2)
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


def test_pochhammer_negative_integer_hits_zero():
    assert pochhammer(-3, 5) == 0


def loop_pochhammer(a, n):
    """(a)_n as the running product a (a+1) ... (a+n-1) in the field of a."""
    result = field_of(a).one()
    for j in range(n):
        result = result * (a + j)
    return result


@given(a=st.one_of(st.fractions(-20, 20, max_denominator=60), st.integers(-12, 0),
                   st.integers(-10**6, 10**6)),
       n=st.integers(0, 30))
def test_rational_pochhammer_is_the_running_product(a, n):
    got = pochhammer(a, n)
    assert type(got) is Fraction and got == loop_pochhammer(Fraction(a), n)
    assert pochhammer(a, 0) == 1


def test_pochhammer_of_any_other_type_keeps_the_field_loop():
    assert type(pochhammer(True, 3)) is complex and pochhammer(True, 3) == 6 + 0j
    for a in (2.5, complex(1.5, -0.5), False):
        for n in (0, 1, 4):
            got = pochhammer(a, n)
            assert type(got) is type(loop_pochhammer(a, n)) and got == loop_pochhammer(a, n)


def test_pochhammer_rejects_negative_n():
    with pytest.raises(DomainError):
        pochhammer(Fraction(1, 2), -1)


def test_pochhammer_addition_rule():
    # (a)_{n+k} = (a)_n (a+n)_k = (a)_k (a+k)_n
    a = Fraction(5, 7)
    for n in range(21):
        for k in (0, 1, 2, 5, 9):
            whole = pochhammer(a, n + k)
            assert whole == pochhammer(a, n) * pochhammer(a + n, k)
            assert whole == pochhammer(a, k) * pochhammer(a + k, n)


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(5, 2), Fraction(-7, 4)])
def test_pochhammer_reflection(a):
    # (a)_n * (-1)^n / (-a-n+1)_n = 1 whenever neither factor vanishes
    for n in range(11):
        partner = pochhammer(-a - n + 1, n)
        if partner == 0:
            continue
        assert pochhammer(a, n) * Fraction((-1) ** n, 1) / partner == 1


def test_q_pochhammer_finite():
    assert q_pochhammer(Fraction(1, 3), Fraction(1, 2), 0) == 1
    # (1 - 1/2)(1 - 1/4)
    assert q_pochhammer(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)
    assert q_pochhammer(Fraction(0), Fraction(1, 3), 7) == 1


def test_q_pochhammer_infinite_product():
    a, q = 0.4, 0.3
    direct = 1.0
    for j in range(200):
        direct *= 1 - a * q**j
    assert abs(q_pochhammer(a, q, INFINITE) - direct) < 1e-15


def test_q_pochhammer_infinite_rejects_exact():
    with pytest.raises(FieldError):
        q_pochhammer(Fraction(1, 2), Fraction(1, 2), INFINITE)


def test_q_pochhammer_infinite_needs_base_in_unit_interval():
    with pytest.raises(DomainError):
        q_pochhammer(0.3, 1.5, INFINITE)


def test_exact_field_algebra_randomized():
    rng = random.Random(20240811)

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_exact_values_stay_canonical():
    v = Fraction(6, -4)
    assert v.denominator > 0
    assert math.gcd(abs(v.numerator), v.denominator) == 1


def test_field_tags():
    assert EXACT.is_exact
    assert not NUMERIC.is_exact
    with pytest.raises(FieldError):
        numeric(atol=0.0)
    with pytest.raises(FieldError):
        type(EXACT)("exact", atol=1e-10, rtol=1e-10)


def test_numeric_field_rejects_non_finite():
    with pytest.raises(DomainError):
        NUMERIC.of(float("nan"))
    with pytest.raises(DomainError):
        NUMERIC.of(complex(1.0, float("inf")))


class Ratio(Fraction):
    """A Fraction subclass: coerced like any other rational."""


NON_FINITE = (float("nan"), float("inf"), -float("inf"), complex(float("nan"), 0.0),
              complex(0.0, float("inf")), complex(-float("inf"), float("nan")))


@pytest.mark.parametrize("field", [EXACT, NUMERIC])
def test_coercion_refuses_bools_on_both_fields(field):
    for value in (True, False):
        with pytest.raises(FieldError):
            field.of(value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_coercion_refuses_non_finite_parts(value):
    with pytest.raises(DomainError, match="finite"):
        NUMERIC.of(value)
    with pytest.raises(FieldError):
        EXACT.of(value)


@pytest.mark.parametrize("text", ["0.4", "1e3", "2.5/3", "-.5"])
def test_exact_coercion_refuses_decimal_strings(text):
    with pytest.raises(DomainError, match="rational literals"):
        EXACT.of(text)


def test_coercion_keeps_types_and_values():
    for value in (Ratio(3, 7), 5, -2, Fraction(-9, 4), "7/3"):
        got = EXACT.of(value)
        assert type(got) is Fraction and got == Fraction(value)
    for value in (Ratio(3, 7), 5, 2.5, complex(-0.0, 1.0), Fraction(1, 3)):
        got = NUMERIC.of(value)
        assert type(got) is complex
        assert repr(got) == repr(complex(value.numerator / value.denominator
                                         if isinstance(value, Fraction) else value))
    value = complex(0.25, -0.0)
    assert NUMERIC.of(value) is value


class Count(int):
    """An int subclass: exact like any other integer."""


def test_exact_values_are_ints_and_fractions_subclasses_too_never_bools():
    for value in (0, -7, 10**40, Fraction(-2, 3), Ratio(3, 7), Count(4)):
        assert is_exact_value(value) and field_of(value) is EXACT
    for value in (True, False, 0.5, -0.0, complex(1.0, 0.0), "1/2", None, [1]):
        assert not is_exact_value(value)
    assert field_of(Count(1), Ratio(1, 2), 0.5) is NUMERIC
    assert field_of(Count(1), True) is NUMERIC


def test_numeric_comparison_uses_mixed_tolerance():
    tag = numeric(atol=1e-10, rtol=1e-10)
    assert tag.eq(1.0, 1.0 + 5e-11)
    assert not tag.eq(1.0, 1.0 + 5e-9)
    assert tag.eq(1e8, 1e8 * (1 + 5e-11))


def test_scalar_serialization():
    assert EXACT.serialize(Fraction(3, 2)) == "3/2"
    assert EXACT.serialize(Fraction(4)) == "4"
    assert EXACT.deserialize("3/2") == Fraction(3, 2)
    assert NUMERIC.serialize(complex(1.5, -2.0)) == [1.5, -2.0]
    assert NUMERIC.deserialize([1.5, -2.0]) == complex(1.5, -2.0)


def test_parse_rational_rejects_decimals_with_hint():
    with pytest.raises(DomainError, match="rational literals"):
        parse_rational("0.4")
    assert parse_rational("-7/4") == Fraction(-7, 4)
    assert parse_rational("12") == 12


# Rising-factorial bound predicates on their stated grids (>= 100 points each).

def test_bound_abs_lower_grid():
    points = [
        (complex(re, im), j)
        for re in (0.1, 0.5, 1.0, 2.0, 5.0)
        for im in (-2.0, -0.5, 0.0, 1.0, 3.0)
        for j in (1, 2, 3, 7)
    ]
    assert len(points) >= 100
    assert all(rising_abs_lower_bound_holds(u, j) for u, j in points)


def test_bound_over_factorial_grid():
    points = [
        (v, n)
        for v in (0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 7, 10)
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)
    ]
    assert len(points) >= 100
    assert all(rising_over_factorial_bound_holds(v, n) for v, n in points)


def test_bound_shifted_grid():
    # provable strip is -1 < w <= 1; w = 2 with n = 0, k = 6 is a genuine
    # counterexample to the unrestricted statement
    points = [
        (w, n, k)
        for w in (Fraction(-9, 10), Fraction(-3, 4), Fraction(-1, 2),
                  Fraction(-1, 4), 0, Fraction(1, 4), Fraction(1, 2), 1)
        for n in (0, 1, 2, 5, 9)
        for k in (0, 1, 3, 6)
    ]
    assert len(points) >= 100
    assert all(shifted_rising_bound_holds(w, n, k) for w, n, k in points)
    assert not shifted_rising_bound_holds(2, 0, 6)


def test_bound_offset_grid():
    points = [
        (z, n, k)
        for z in (-3, Fraction(-7, 4), 0, Fraction(1, 3), 2)
        for n in (0, 1, 2, 4, 7, 10)
        for k in range(n + 1)
    ]
    assert len(points) >= 100
    assert all(offset_rising_bound_holds(z, n, k) for z, n, k in points)


def test_unequal_exact_values_never_deviate_by_zero():
    big = Fraction(10**30)
    assert complex(big + 1) == complex(big)  # the doubles coincide
    assert deviation(big + 1, big) == 1.0
    tiny = Fraction(1, 10**400)  # the exact difference underflows too
    assert deviation(1 + tiny, Fraction(1)) == math.ulp(0.0) > 0.0
    assert deviation(big, big) == 0.0
    huge = Fraction(10**400, 3)  # beyond the double range
    assert deviation(huge, huge) == 0.0
    assert deviation(huge + 1, huge) == math.inf
    assert deviation(Fraction(1, 3), Fraction(1, 4)) == abs(complex(Fraction(1, 3)) - 0.25)
    assert deviation(complex(1.0), complex(1.0 + 2**-52)) == 2**-52
