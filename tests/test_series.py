"""Truncated power series arithmetic and constructors."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconnect import (
    EXACT,
    NUMERIC,
    CoefficientStream,
    DomainError,
    FieldError,
    PoleError,
    TruncatedSeries,
    binomial_power,
    compose,
    exp_series,
    geometric_stream,
    linear_factor_product,
    mobius_argument,
    numeric,
    pochhammer,
    q_binomial_series,
    q_pochhammer,
)
from hyperconnect.hyper import _mobius_lift, _pfq_term_ratio, pfq
from hyperconnect.series import (hypergeometric_terms, linear_combination,
                                 q_exp_lower)
from test_verify import small_rationals


def S(*coeffs):
    return TruncatedSeries(EXACT, [Fraction(c) for c in coeffs])


def test_mul_difference_of_squares():
    # (1 + t)(1 - t) at order 3
    left = S(1, 1, 0, 0)
    right = S(1, -1, 0, 0)
    assert (left * right).coefficients == (1, 0, -1, 0)


def test_add_zero_is_identity():
    s = S(2, Fraction(1, 3), -5)
    assert (s + TruncatedSeries.zero(2)) == s


def test_geometric_times_one_minus_t_telescopes():
    geometric = geometric_stream().series(5, EXACT)
    one_minus_t = S(1, -1, 0, 0, 0, 0)
    assert (geometric * one_minus_t).coefficients == (1, 0, 0, 0, 0, 0)


def test_mixed_order_truncates_to_minimum():
    assert (S(1, 1, 1) + S(1, 1)).order == 1
    assert (S(1, 1, 1) * S(0, 1)).order == 1


def test_field_mismatch_is_an_error():
    exact = S(1, 2)
    approx = TruncatedSeries(NUMERIC, [1.0, 2.0])
    with pytest.raises(FieldError):
        exact + approx
    with pytest.raises(FieldError):
        exact * approx


def test_binomial_power_geometric():
    assert binomial_power(1, 1, 5).coefficients == (1, 1, 1, 1, 1, 1)


def test_binomial_power_expands_cube():
    # (1 - 2t)^3
    assert binomial_power(2, -3, 4).coefficients == (1, -6, 12, -8, 0)


def test_binomial_power_finite_binomial():
    import math

    # (1 - t/c)^x with c = 2/5, x = 3: a finite binomial expansion
    got = binomial_power(Fraction(5, 2), -3, 5)
    want = tuple(
        Fraction(math.comb(3, j)) * Fraction(-5, 2) ** j if j <= 3 else Fraction(0)
        for j in range(6)
    )
    assert got.coefficients == want


def random_rational(rng, avoid=()):
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value not in avoid:
            return value


def test_binomial_power_coefficients_are_pochhammer_over_factorial():
    """Each constructor equals its displayed coefficient exactly: (a)_n k^n/n!,
    k^n/n!, k^n (a;q)_n/(q;q)_n and (-k)^n q^{n(n-1)/2}/(q;q)_n."""
    import math

    rng = random.Random(2718)
    cases = [(Fraction(5, 4), Fraction(2, 3), Fraction(1, 2))] + [
        (random_rational(rng), random_rational(rng), random_rational(rng, (0, 1, -1)))
        for _ in range(40)
    ]
    for a, kappa, q in cases:
        constructors = (
            (binomial_power(kappa, a, 8),
             lambda n: pochhammer(a, n) * kappa**n / math.factorial(n)),
            (exp_series(kappa, 8), lambda n: kappa**n / math.factorial(n)),
            (q_binomial_series(a, kappa, q, 8),
             lambda n: kappa**n * q_pochhammer(a, q, n) / q_pochhammer(q, q, n)),
            (q_exp_lower(kappa, q, 8, EXACT),
             lambda n: (-kappa) ** n * q ** (n * (n - 1) // 2) / q_pochhammer(q, q, n)),
        )
        for series, coefficient in constructors:
            assert series.coefficients == tuple(coefficient(n) for n in range(9)), (a, kappa, q)


def test_binomial_power_additivity_randomized():
    rng = random.Random(1234)
    for _ in range(50):
        kappa = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        left = binomial_power(kappa, a, 7) * binomial_power(kappa, b, 7)
        right = binomial_power(kappa, a + b, 7)
        assert left == right


def test_exp_series_values():
    assert exp_series(0, 4).coefficients == (1, 0, 0, 0, 0)
    assert exp_series(1, 3).coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6))
    product = exp_series(1, 8) * exp_series(-1, 8)
    assert product == TruncatedSeries.one(8)


def test_compose_geometric_with_mobius():
    # sum t^k/(1-t)^k = (1-t)/(1-2t): coefficients 1, 1, 2, 4, 8, 16
    got = compose(geometric_stream(), mobius_argument(1, 5), 5)
    assert got.coefficients == (1, 1, 2, 4, 8, 16)


def test_compose_with_zero_inner_is_constant():
    stream = CoefficientStream(Fraction(3), lambda k: Fraction(7))
    got = compose(stream, TruncatedSeries.zero(4), 4)
    assert got.coefficients == (3, 0, 0, 0, 0)


def test_compose_binomial_stream_matches_binomial_power():
    # stream of (1-z)^{-a} composed with kappa*t
    a, kappa = Fraction(7, 5), Fraction(1, 3)
    stream = CoefficientStream(Fraction(1), lambda k: Fraction(a + k, k + 1))
    inner = TruncatedSeries(EXACT, [0, kappa] + [0] * 5)
    assert compose(stream, inner, 6) == binomial_power(kappa, a, 6)


def test_compose_rejects_nonzero_constant_term():
    with pytest.raises(DomainError):
        compose(geometric_stream(), S(1, 1), 1)


def test_compose_respects_argument_scaling():
    # scaling the stream argument equals scaling the inner series
    def ratio(k):
        return Fraction(1, k + 1)

    lam = Fraction(3, 7)
    stream = CoefficientStream(Fraction(1), ratio)
    inner = mobius_argument(Fraction(1, 2), 6)
    left = compose(CoefficientStream(1, lambda k: ratio(k) * lam), inner, 6)
    right = compose(stream, inner.scale(lam), 6)
    assert left == right


def test_stream_pole_rejected():
    stream = CoefficientStream(Fraction(1), lambda k: Fraction(1, k - 2))
    with pytest.raises(PoleError):
        stream.coefficients(5, EXACT)


def test_linear_factor_product():
    assert linear_factor_product([], 3) == TruncatedSeries.one(3)
    assert linear_factor_product([1, 1], 3).coefficients == (1, -2, 1, 0)
    # (ct; q)_3 with c = 1, q = 1/2: (1-t)(1-t/2)(1-t/4)
    q = Fraction(1, 2)
    got = linear_factor_product([q**j for j in range(3)], 4)
    assert got.coefficients == (
        1, Fraction(-7, 4), Fraction(7, 8), Fraction(-1, 8), 0,
    )


def test_q_binomial_series_values():
    q = Fraction(1, 3)
    # a = q makes every coefficient kappa^n
    kappa = Fraction(2, 7)
    got = q_binomial_series(q, kappa, q, 5)
    assert got.coefficients == tuple(kappa**n for n in range(6))
    # a = 0, kappa = 1: coefficients 1/(q;q)_n
    got = q_binomial_series(0, 1, q, 5)
    assert got.coefficients == tuple(1 / q_pochhammer(q, q, n) for n in range(6))
    assert q_binomial_series(Fraction(1, 2), 3, q, 0).coefficients == (1,)


def test_q_binomial_series_rejects_root_of_unity():
    with pytest.raises(PoleError):
        q_binomial_series(Fraction(1, 2), 1, Fraction(1), 3)
    with pytest.raises(DomainError):
        q_binomial_series(Fraction(1, 2), 1, Fraction(0), 3)


def test_truncate_to():
    e = exp_series(1, 6)
    assert e.truncate_to(2).coefficients == (1, 1, Fraction(1, 2))
    assert e.truncate_to(6) == e
    with pytest.raises(DomainError):
        e.truncate_to(7)
    # [(1-t)^{-5/4}]_3
    got = binomial_power(1, Fraction(5, 4), 9).truncate_to(3)
    assert got.coefficients == (
        1, Fraction(5, 4), Fraction(45, 32), Fraction(195, 128),
    )


def test_truncate_is_idempotent_and_commutes_with_add():
    a = binomial_power(1, Fraction(1, 2), 8)
    b = exp_series(Fraction(2, 3), 8)
    assert a.truncate_to(5).truncate_to(5) == a.truncate_to(5)
    assert (a + b).truncate_to(5) == a.truncate_to(5) + b.truncate_to(5)


def test_mul_commutative_associative_randomized():
    rng = random.Random(99)

    def rand_series():
        return TruncatedSeries(
            EXACT,
            [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(7)],
        )

    for _ in range(30):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_shift_and_evaluate():
    s = S(1, 2, 3)
    assert s.shifted(2).coefficients == (0, 0, 1, 2, 3)
    assert s.evaluate(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)


def test_q_shifted_factor_expansions_match_infinite_products():
    from hyperconnect import INFINITE, q_pochhammer
    from hyperconnect.series import q_exp_lower, q_exp_upper

    kappa, q, t = 0.7, 0.3, 0.2
    lower = q_exp_lower(kappa, q, 40, NUMERIC)
    upper = q_exp_upper(kappa, q, 40, NUMERIC)
    want = q_pochhammer(kappa * t, q, INFINITE)
    assert abs(lower.evaluate(t) - want) < 1e-13
    assert abs(upper.evaluate(t) - 1 / want) < 1e-13
    assert (lower * upper).max_deviation(TruncatedSeries.one(40, NUMERIC)) < 1e-14


def test_series_values_are_immutable():
    s = S(1, 2, 3)
    with pytest.raises(AttributeError):
        s.coefficients = (4, 5, 6)


def test_series_json_round_trip():
    s = binomial_power(Fraction(2, 5), Fraction(-3, 7), 5)
    doc = s.as_json()
    assert doc["field"] == "exact"
    assert TruncatedSeries.from_json(doc) == s
    n = TruncatedSeries(NUMERIC, [complex(1, 2), 0.5])
    assert TruncatedSeries.from_json(n.as_json()) == n


def test_series_json_round_trip_keeps_tolerances():
    field = numeric(1e-10, 0.0)
    s = TruncatedSeries(field, [complex(1, 2), 0.5])
    back = TruncatedSeries.from_json(json.loads(json.dumps(s.as_json())))
    assert back.field == field and back == s


def test_exact_arithmetic_results_equal_constructor_built_series():
    a, b = S(1, Fraction(1, 2), -3), S(Fraction(2, 3), 0, 5)
    results = [
        (a + b, S(Fraction(5, 3), Fraction(1, 2), 2)),
        (a - b, S(Fraction(1, 3), Fraction(1, 2), -8)),
        (a * b, S(Fraction(2, 3), Fraction(1, 3), 3)),
        (a.scale(2), S(2, 1, -6)),
        (a.scale(Fraction(-1, 4)), S(Fraction(-1, 4), Fraction(-1, 8), Fraction(3, 4))),
        (a.shifted(2), S(0, 0, 1, Fraction(1, 2), -3)),
        (a.padded_to(4), S(1, Fraction(1, 2), -3, 0, 0)),
    ]
    for got, want in results:
        assert all(type(c) is Fraction for c in got.coefficients)
        assert got == want and hash(got) == hash(want)


def test_numeric_arithmetic_still_rejects_overflow():
    big = TruncatedSeries(NUMERIC, [1e200])
    with pytest.raises(DomainError):
        big * big
    with pytest.raises(DomainError):
        big.scale(1e200)
    with pytest.raises(DomainError):
        TruncatedSeries(NUMERIC, [1.7e308]) + TruncatedSeries(NUMERIC, [1.7e308])


# -- exact series algebra on integer numerators -------------------------------

COEFFS = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction), small_rationals(-4, 4))
# rationals plus the points of -N0, where a numerator terminates the series
# and a denominator is a pole
PARAMS = st.one_of(small_rationals(-4, 4), st.integers(-4, 0).map(Fraction))


def test_max_deviation_compares_exact_values_beyond_the_double_range():
    huge = Fraction(10**400, 3)
    assert S(huge, 1).max_deviation(S(huge, 1)) == 0.0
    assert S(huge, 1).max_deviation(S(huge + 1, 1)) == math.inf
    assert S(Fraction(1, 3), 2).max_deviation(S(Fraction(1, 2), 2)) == abs(
        complex(Fraction(1, 3)) - complex(Fraction(1, 2)))


def _naive_product(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n)]


@settings(max_examples=80)
@given(a=st.lists(COEFFS, min_size=1, max_size=9), b=st.lists(COEFFS, min_size=1, max_size=9))
def test_integer_product_equals_fraction_cauchy_product(a, b):
    got = (TruncatedSeries(EXACT, a) * TruncatedSeries(EXACT, b)).coefficients
    assert list(got) == _naive_product(a, b)
    assert all(type(c) is Fraction for c in got)


def _stream_outcome(produce):
    try:
        return produce()
    except PoleError as exc:
        return f"PoleError: {exc}"


@settings(max_examples=150)
@given(tops=st.lists(PARAMS, max_size=3), bottoms=st.lists(PARAMS, max_size=2),
       lam=st.one_of(st.just(Fraction(0)), small_rationals(-3, 3)), order=st.integers(0, 10))
def test_hypergeometric_terms_equal_the_term_ratio_stream(tops, bottoms, lam, order):
    spec = pfq(tops, bottoms)
    stream = CoefficientStream(Fraction(1), lambda k: _pfq_term_ratio(spec, lam, k))
    want = _stream_outcome(lambda: stream.coefficients(order, EXACT))
    got = _stream_outcome(lambda: hypergeometric_terms(spec.numerator, spec.denominator,
                                                       lam, order))
    assert got == want


def test_hypergeometric_terms_stop_at_a_numerator_in_minus_n0():
    got = hypergeometric_terms([Fraction(-2), Fraction(1, 3)], [Fraction(-5)], Fraction(1), 6)
    assert got[3:] == [0] * 4 and got[2] != 0


def test_hypergeometric_terms_raise_at_the_pole_index_even_at_zero_argument():
    with pytest.raises(PoleError, match="pole at term 3"):
        hypergeometric_terms([Fraction(1, 2)], [Fraction(-2)], Fraction(1), 5)
    with pytest.raises(PoleError, match="pole at term 1"):
        hypergeometric_terms([Fraction(1, 2)], [Fraction(0)], Fraction(0), 5)
    # a numerator vanishing at the same index ends the stream before the pole
    assert hypergeometric_terms([Fraction(0)], [Fraction(0)], Fraction(0), 3) == [1, 0, 0, 0]


@settings(max_examples=60)
@given(c=st.lists(COEFFS, min_size=1, max_size=10))
def test_mobius_lift_equals_the_fraction_binomial_sum(c):
    want = c[:1] + [sum((c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1)), Fraction(0))
                    for j in range(1, len(c))]
    assert _mobius_lift(c, EXACT) == want


@settings(max_examples=60)
@given(data=st.data(), order=st.integers(0, 8))
def test_linear_combination_equals_the_add_scale_shift_loop(data, order):
    terms = []
    for shift in range(data.draw(st.integers(0, order + 1), "count")):
        coeffs = data.draw(st.lists(COEFFS, min_size=1, max_size=order - shift + 1))
        terms.append((TruncatedSeries(EXACT, coeffs), shift, data.draw(COEFFS)))
    want = TruncatedSeries.zero(order)
    for series, shift, scalar in terms:
        want = want + series.padded_to(order - shift).scale(scalar).shifted(shift)
    got = linear_combination(terms, order, EXACT)
    assert got == want and all(type(c) is Fraction for c in got.coefficients)


def test_linear_combination_rejects_a_series_of_another_field():
    with pytest.raises(FieldError):
        linear_combination([(TruncatedSeries(NUMERIC, [1.0]), 0, 1)], 2, EXACT)
