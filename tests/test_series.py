"""Truncated power series arithmetic and constructors."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperconnect import (
    APPELL_F1,
    EXACT,
    HUMBERT_PHI2,
    NUMERIC,
    CoefficientStream,
    DomainError,
    FieldError,
    IdentityCase,
    MultiVarSpec,
    PoleError,
    TruncatedSeries,
    binomial_power,
    build_sides,
    compose,
    exp_series,
    geometric_stream,
    hyper_series_in_t,
    linear_arg,
    mobius_arg,
    mobius_argument,
    numeric,
    pochhammer,
    q_binomial_series,
    q_pochhammer,
)
from hyperconnect.hyper import _mobius_lift, factor_product, pfq
from hyperconnect.series import (gauss_degree_row, hypergeometric_terms, linear_combination,
                                 q_exp_lower, term_ratio)
from test_verify import CANON, _pole_or, _stream_terms, small_rationals


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


def test_a_scalar_multiplies_a_series_only_through_scale():
    s = S(1, 2)
    for product in (lambda: s * 3, lambda: 3 * s, lambda: -s):
        with pytest.raises(TypeError):
            product()
    assert s.scale(-3) == S(-3, -6)


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
    product = (lower * upper).coefficients
    assert abs(product[0] - 1) < 1e-14 and max(map(abs, product[1:])) < 1e-14


def test_series_values_are_immutable():
    s = S(1, 2, 3)
    with pytest.raises(AttributeError):
        s.coefficients = (4, 5, 6)
    # a row-built series forms its values on first read; it stays immutable after
    product = S(1, Fraction(1, 2)) * S(Fraction(1, 3), 1)
    assert product.coefficients == (Fraction(1, 3), Fraction(7, 6))
    for name in ("coefficients", "row", "_values", "field"):
        with pytest.raises(AttributeError):
            setattr(product, name, None)
    assert product.coefficients == (Fraction(1, 3), Fraction(7, 6))
    assert product.row == ((2, 7), 6)


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


def _naive_product(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n)]


@settings(max_examples=80)
@given(a=st.lists(COEFFS, min_size=1, max_size=9), b=st.lists(COEFFS, min_size=1, max_size=9))
def test_integer_product_equals_fraction_cauchy_product(a, b):
    _assert_matches(TruncatedSeries(EXACT, a) * TruncatedSeries(EXACT, b), _naive_product(a, b))


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
    stream = CoefficientStream(Fraction(1), lambda k: term_ratio(spec.numerator, spec.denominator, lam, k))
    want = _stream_outcome(lambda: stream.coefficients(order, EXACT))
    got = _stream_outcome(lambda: EXACT.over(*hypergeometric_terms(
        spec.numerator, spec.denominator, lam, order)))
    assert got == want


def test_hypergeometric_terms_stop_at_a_numerator_in_minus_n0():
    got = EXACT.over(*hypergeometric_terms([Fraction(-2), Fraction(1, 3)], [Fraction(-5)],
                                           Fraction(1), 6))
    assert got[3:] == [0] * 4 and got[2] != 0


def test_hypergeometric_terms_raise_at_the_pole_index_even_at_zero_argument():
    with pytest.raises(PoleError, match="pole at term 3"):
        hypergeometric_terms([Fraction(1, 2)], [Fraction(-2)], Fraction(1), 5)
    with pytest.raises(PoleError, match="pole at term 1"):
        hypergeometric_terms([Fraction(1, 2)], [Fraction(0)], Fraction(0), 5)
    # a numerator vanishing at the same index ends the stream before the pole
    assert hypergeometric_terms([Fraction(0)], [Fraction(0)], Fraction(0), 3) == ([1, 0, 0, 0], 1)


@settings(max_examples=60)
@given(c=st.lists(COEFFS, min_size=1, max_size=10))
def test_mobius_lift_equals_the_fraction_binomial_sum(c):
    want = c[:1] + [sum((c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1)), Fraction(0))
                    for j in range(1, len(c))]
    nums, den = EXACT.common(c)
    assert EXACT.over(_mobius_lift(nums), den) == want


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


# -- exact series stored as rows: every result against a Fraction oracle ------

def _rising(a, k):
    return math.prod([a + i for i in range(k)], start=Fraction(1))


def _fraction_terms(tops, bottoms, lam, order):
    """prod (a)_k / prod (b)_k lam^k / k!, each term on its own in Fractions."""
    return [math.prod([_rising(a, k) for a in tops], start=Fraction(1)) * lam**k
            / (math.prod([_rising(b, k) for b in bottoms], start=Fraction(1)) * math.factorial(k))
            for k in range(order + 1)]


def _fraction_mobius(c):
    return c[:1] + [sum((c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1)), Fraction(0))
                    for j in range(1, len(c))]


def _fraction_double_series(spec, lams, order):
    """t^M coefficient of a two-argument kind: the sum over m + n = M of its
    term at m, n, each term on its own in Fractions."""
    *joint, b1, b2, c = spec.params
    out = []
    for total in range(order + 1):
        top = _rising(joint[0], total) if joint else 1
        out.append(sum((top * _rising(b1, m) * _rising(b2, total - m) * lams[0]**m
                        * lams[1]**(total - m) / (_rising(c, total) * math.factorial(m)
                                                   * math.factorial(total - m))
                        for m in range(total + 1)), Fraction(0)))
    return out


def _assert_canonical(series):
    """The stored row of an exact series: integers over den > 0, reduced."""
    nums, den = series.row
    assert all(type(v) is int for v in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1


def _assert_matches(got, want):
    """``got``, built on rows, equals the Fraction oracle ``want`` value by
    value, as canonical Fractions, and as a series built from the values."""
    _assert_canonical(got)
    assert list(got.coefficients) == want
    assert all(type(c) is Fraction for c in got.coefficients)
    built = TruncatedSeries(EXACT, want)
    assert got == built and hash(got) == hash(built)


POSITIVE = small_rationals(0, 4)


@settings(max_examples=60)
@given(data=st.data(), order=st.integers(0, 9),
       tops=st.lists(PARAMS, max_size=2), bottoms=st.lists(POSITIVE, max_size=2),
       lam=st.one_of(st.just(Fraction(0)), small_rationals(-3, 3)))
def test_row_built_results_equal_a_fraction_oracle(data, order, tops, bottoms, lam):
    b = data.draw(st.lists(COEFFS, min_size=1, max_size=order + 1), "b")
    _assert_matches(TruncatedSeries(EXACT, b).padded_to(order),
                    b + [Fraction(0)] * (order + 1 - len(b)))

    # shifted terms, one of them with a zero scalar
    terms, want = [], [Fraction(0)] * (order + 1)
    for shift in range(min(order, 3) + 1):
        coeffs = data.draw(st.lists(COEFFS, min_size=1, max_size=order - shift + 1))
        scalar = Fraction(0) if shift == 1 else data.draw(COEFFS)
        terms.append((TruncatedSeries(EXACT, coeffs), shift, scalar))
        for j, c in enumerate(coeffs, shift):
            want[j] += scalar * c
    _assert_matches(linear_combination(terms, order, EXACT), want)

    terms_at_lam = _fraction_terms(tops, bottoms, lam, order)
    spec = pfq(tops, bottoms)
    _assert_matches(hyper_series_in_t(spec, linear_arg(lam), order, EXACT), terms_at_lam)
    _assert_matches(hyper_series_in_t(spec, mobius_arg(lam), order, EXACT),
                    _fraction_mobius(terms_at_lam))
    _assert_matches(binomial_power(lam, tops[0] if tops else 1, order),
                    _fraction_terms(tops[:1] or [1], [], lam, order))
    _assert_matches(exp_series(lam, order), _fraction_terms([], [], lam, order))


@settings(max_examples=40)
@given(joint=st.lists(PARAMS, min_size=0, max_size=1), b=st.lists(PARAMS, min_size=2, max_size=2),
       c=POSITIVE, lams=st.lists(small_rationals(-2, 2), min_size=2, max_size=2),
       order=st.integers(0, 8), extra=st.integers(0, 3))
def test_multivariable_lift_with_a_shared_product_equals_a_fraction_oracle(joint, b, c, lams,
                                                                           order, extra):
    spec = MultiVarSpec(APPELL_F1 if joint else HUMBERT_PHI2, (*joint, *b, c))
    shapes = [linear_arg(lam) for lam in lams]
    shared = factor_product(spec, shapes, order + extra, EXACT)
    _assert_canonical(shared)
    got = hyper_series_in_t(spec, shapes, order, EXACT, product=shared)
    _assert_matches(got, _fraction_double_series(spec, lams, order))
    assert hyper_series_in_t(spec, shapes, order, EXACT) == got


def test_every_stored_row_of_a_high_order_build_is_reduced():
    # rows that skip their reduction grow fastest at high orders
    params = {k: CANON[k] for k in ("x", "alpha", "beta", "c", "d", "gamma")}
    lhs, rhs = build_sides(IdentityCase("meixner_2f1_two_param", params, order=48))
    for side in (lhs, rhs):
        _assert_canonical(side)
    assert lhs == rhs


def test_a_terminating_row_pads_with_zeros_and_a_pole_keeps_its_index():
    nums, den = hypergeometric_terms([Fraction(-3), Fraction(1, 2)], [Fraction(5, 3)],
                                     Fraction(2, 7), 8)
    assert len(nums) == 9 and nums[3] != 0 and nums[4:] == [0] * 5
    assert den > 0 and math.gcd(den, *nums) == 1
    lift = hyper_series_in_t(pfq([Fraction(-3)], [Fraction(5, 3)]), mobius_arg(Fraction(2)), 8)
    _assert_canonical(lift)
    stream = CoefficientStream(Fraction(1), lambda k: term_ratio([Fraction(1, 2)], [Fraction(-4)],
                                                                 Fraction(3), k))
    for produce in (lambda: stream.coefficients(8, EXACT),
                    lambda: hypergeometric_terms([Fraction(1, 2)], [Fraction(-4)], Fraction(3), 8),
                    lambda: hyper_series_in_t(pfq([Fraction(1, 2)], [Fraction(-4)]),
                                              linear_arg(Fraction(3)), 8)):
        with pytest.raises(PoleError, match="pole at term 5"):
            produce()


# -- the Gauss degree row: 2F1(-k, a; b; w), k = 0..order ----------------------


@settings(max_examples=200)
@given(a=PARAMS, b=PARAMS, order=st.integers(0, 10),
       w=st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), small_rationals(-3, 3)))
def test_gauss_degree_row_equals_the_sum_of_each_degree(a, b, w, order):
    # b in -N0 makes a divisor b+k vanish: a pole, or a sum a terminates first
    def row():
        nums, den = gauss_degree_row(a, b, w, order)
        assert all(type(v) is int for v in nums) and type(den) is int and den > 0
        return EXACT.over(nums, den)

    want = _pole_or(lambda: [sum(_stream_terms((-k, a), (b,), w, k)) for k in range(order + 1)])
    assert _pole_or(row) == want


@settings(max_examples=100)
@given(a=PARAMS, b=PARAMS, w=small_rationals(-3, 3), order=st.integers(0, 10))
def test_gauss_degree_row_on_real_doubles_is_the_exact_row_rounded_once(a, b, w, order):
    a, b, w = float(a), float(b), float(w)
    assume(not (b <= 0 and b.is_integer() and -b < order))  # there each degree sums its terms
    exact = EXACT.over(*gauss_degree_row(Fraction(a), Fraction(b), Fraction(w), order))
    assert gauss_degree_row(a, b, w, order, NUMERIC) == ([complex(v) for v in exact], 1)


def _gaussian_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def exact_degree_sums(a, b, w, order):
    """2F1(-k, a; b; w), k = 0..order, at the double (or rational) values
    a, b, w taken exactly, each rounded once to a complex double: the sum of
    its terms, each from the last by the term ratio, in Gaussian rationals
    (pairs of parts)."""
    a, b, w = ((Fraction(complex(v).real), Fraction(complex(v).imag)) for v in (a, b, w))
    sums = []
    for k in range(order + 1):
        total = term = (Fraction(1), Fraction(0))
        for j in range(k):
            step = _gaussian_mul(_gaussian_mul((j - k, 0), (a[0] + j, a[1])), w)
            div = ((b[0] + j) * (j + 1), b[1] * (j + 1))
            term = _gaussian_mul(_gaussian_mul(term, step), (div[0], -div[1]))
            term = (term[0] / (div[0] ** 2 + div[1] ** 2), term[1] / (div[0] ** 2 + div[1] ** 2))
            total = (total[0] + term[0], total[1] + term[1])
        sums.append(complex(float(total[0]), float(total[1])))
    return sums


@pytest.mark.parametrize("a, b, w, order", [
    # Krawtchouk inners: b + k = -1 at the last degree, where the relation
    # run on doubles is off by about 1e-8 relative
    (-30, -24, 5 / 28, 24),
    (-30, -24, complex(0.6, 0.2) / complex(0.3, -0.1), 24),
    (1.5 + 0.5j, 2.25 - 0.25j, 0.3 + 0.4j, 16),
])
def test_gauss_degree_row_on_doubles_is_the_exact_row_rounded_once(a, b, w, order):
    want = exact_degree_sums(a, b, w, order)
    assert gauss_degree_row(complex(a), complex(b), complex(w), order, NUMERIC) == (want, 1)


def test_gauss_degree_row_at_unit_argument_is_chu_vandermonde():
    a, b = Fraction(7, 3), Fraction(3, 2)
    want = [_rising(b - a, k) / _rising(b, k) for k in range(11)]
    assert EXACT.over(*gauss_degree_row(a, b, Fraction(1), 10)) == want
