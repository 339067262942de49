"""One loop per algorithm on both fields: the merged loops give the bits of
the plain double formulations they replaced, signed zeros included, and
the exact common-denominator form round-trips.

Each oracle below is the term-by-term double loop as it was written before
the loops were merged; ``repr`` tells -0.0 from 0.0, so the comparisons are
bit for bit.  The binomial and exponential rows, now
``series.hypergeometric_terms`` rows, are the one exception: they keep
every value, but not every sign of a zero part."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconnect import (EXACT, NUMERIC, CoefficientStream, DomainError, PoleError,
                          TruncatedSeries, binomial_power, exp_series, hyper_series_in_t,
                          linear_arg, pfq, pfq_eval)
from hyperconnect.connection import _terminating_gauss_rows
from hyperconnect.fields import as_index, is_nonpositive_integer
from hyperconnect.hyper import _mobius_lift
from hyperconnect.series import linear_combination
from test_verify import small_rationals

PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False))
COMPLEX = st.builds(complex, PARTS, PARTS)
ROWS = st.lists(COMPLEX, min_size=1, max_size=9)


def _outcome(produce):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(produce())
    except (PoleError, DomainError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _old_product(left, right):
    n = len(left)
    nonzero = [(j, b) for j, b in enumerate(right) if b != 0]
    out = [complex(0.0)] * n
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in nonzero:
            if i + j >= n:
                break
            out[i + j] += a * b
    return out


def _old_linear_combination(terms, order):
    total = TruncatedSeries.zero(order, NUMERIC)
    for series, shift, scalar in terms:
        total = total + series.padded_to(order - shift).scale(scalar).shifted(shift)
    return total


def _old_mobius_lift(c):
    return c[:1] + [
        sum(c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1) if c[k])
        for j in range(1, len(c))
    ]


def _old_gauss_entries(w):
    rows = [w]
    while len(rows[-1]) > 1:
        rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
    return lambda n, k: math.comb(n, k) * rows[n - k][k]


def _old_pfq_ratio(tops, bottoms, z, k):
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


def test_numeric_over_returns_the_numerators_untouched():
    # a division by 1 would turn (-0+1j) into 1j
    assert repr(NUMERIC.over([complex(-0.0, 1.0), complex(2.5, -0.0)], 1)) == \
        "[(-0+1j), (2.5-0j)]"
    values = [complex(-0.0, -0.0), 3.0]
    assert NUMERIC.common(values) == (values, 1)


@settings(max_examples=100)
@given(st.lists(st.one_of(st.integers(-40, 40), small_rationals(-9, 9, max_den=30)),
                max_size=8))
def test_exact_common_form_round_trips(values):
    nums, den = EXACT.common(values)
    assert all(type(v) is int for v in nums) and den >= 1
    back = EXACT.over(nums, den)
    assert back == values and all(type(v) is Fraction for v in back)


def test_exact_common_form_of_nothing_is_nothing():
    assert EXACT.common([]) == ([], 1) and EXACT.over([], 1) == []


@settings(max_examples=120)
@given(left=ROWS, right=ROWS)
def test_product_keeps_the_bits_of_the_double_loop(left, right):
    n = min(len(left), len(right))
    got = TruncatedSeries(NUMERIC, left) * TruncatedSeries(NUMERIC, right)
    assert repr(got.coefficients) == repr(tuple(_old_product(left[:n], right[:n])))


@settings(max_examples=100)
@given(data=st.data(), order=st.integers(0, 7), count=st.integers(0, 4))
def test_linear_combination_keeps_the_bits_of_the_double_loop(data, order, count):
    terms = []
    for _ in range(count):
        shift = data.draw(st.integers(0, order))
        coefficients = data.draw(st.lists(COMPLEX, min_size=1, max_size=order - shift + 1))
        terms.append((TruncatedSeries(NUMERIC, coefficients), shift, data.draw(COMPLEX)))
    got = _outcome(lambda: linear_combination(terms, order, NUMERIC).coefficients)
    assert got == _outcome(lambda: _old_linear_combination(terms, order).coefficients)


@settings(max_examples=120)
@given(ROWS)
def test_mobius_lift_keeps_the_bits_of_the_double_loop(c):
    assert repr(_mobius_lift(c)) == repr(_old_mobius_lift(c))


@settings(max_examples=120)
@given(ROWS)
def test_gauss_entries_keep_the_bits_of_the_double_loop(w):
    got, want = _terminating_gauss_rows((w, 1)), _old_gauss_entries(w)
    pairs = [(n, k) for n in range(len(w)) for k in range(n + 1)]
    assert all(den == 1 for _, den in got)
    assert repr([got[n][0][k] for n, k in pairs]) == repr([want(n, k) for n, k in pairs])


PFQ_PARAMS = st.one_of(COMPLEX, st.integers(-3, 3).map(complex))


@settings(max_examples=120)
@given(tops=st.lists(PFQ_PARAMS, max_size=3), bottoms=st.lists(PFQ_PARAMS, max_size=2),
       lam=COMPLEX, order=st.integers(0, 9))
def test_pfq_lift_keeps_the_bits_of_the_double_stream(tops, bottoms, lam, order):
    got = _outcome(lambda: hyper_series_in_t(
        pfq(tops, bottoms), linear_arg(lam), order, NUMERIC).coefficients)
    stream = CoefficientStream(Fraction(1), lambda k: _old_pfq_ratio(tops, bottoms, lam, k))
    want = _outcome(lambda: TruncatedSeries._result(
        NUMERIC, stream.coefficients(order, NUMERIC)).coefficients)
    assert got == want


# The hand-written double rows that ``series.hypergeometric_terms`` replaced.
# Its ratio starts from the integer 1 and is the integer 0 once it vanishes,
# so at a kappa with a -0.0 part, and from the first zero of a terminating
# binomial on, a zero part of a coefficient may carry the other sign.  The
# rows are therefore compared with ==, which on doubles tells every bit apart
# except the sign of a zero.

def _old_binomial_power(kappa, a, order):
    kappa, a = NUMERIC.of(kappa), NUMERIC.of(a)
    return CoefficientStream(1, lambda n: kappa * (a + n) / (n + 1)).series(order, NUMERIC)


def _old_exp_series(kappa, order):
    kappa = NUMERIC.of(kappa)
    return CoefficientStream(1, lambda n: kappa / (n + 1)).series(order, NUMERIC)


def _old_pfq_eval(spec, z):
    degree = min([-as_index(a.real if isinstance(a, complex) else a)
                  for a in spec.numerator if is_nonpositive_integer(a)])
    term = NUMERIC.one()
    total = term
    for k in range(degree):
        term = term * _old_pfq_ratio(spec.numerator, spec.denominator, z, k)
        if term == 0:
            break
        total = total + term
    return total


SCALARS = st.one_of(PARTS, COMPLEX, st.sampled_from([-0.0, complex(-0.0, -0.0)]))
# a terminating numerator, as an int, a double or a complex double
NEGATIVE_INDICES = st.integers(-6, 0).flatmap(
    lambda m: st.sampled_from([m, float(m), complex(m), complex(m, -0.0)]))


@settings(max_examples=200)
@given(kappa=SCALARS, a=st.one_of(SCALARS, NEGATIVE_INDICES), order=st.integers(0, 9))
def test_double_binomial_and_exponential_rows_keep_the_removed_formulas(kappa, a, order):
    got = binomial_power(kappa, a, order, NUMERIC).coefficients
    assert got == _old_binomial_power(kappa, a, order).coefficients
    got = exp_series(kappa, order, NUMERIC).coefficients
    assert got == _old_exp_series(kappa, order).coefficients
    assert {type(c) for c in got} == {complex}


@settings(max_examples=200)
@given(data=st.data(), lead=NEGATIVE_INDICES, tops=st.lists(PFQ_PARAMS, max_size=2),
       bottoms=st.lists(st.one_of(PFQ_PARAMS, PARTS), max_size=2), z=SCALARS)
def test_double_terminating_sums_keep_the_removed_loop(data, lead, tops, bottoms, z):
    spec = pfq([*tops, lead][::data.draw(st.sampled_from([1, -1]))], bottoms)
    assert _outcome(lambda: pfq_eval(spec, z)) == _outcome(lambda: _old_pfq_eval(spec, z))


def test_a_non_finite_double_term_is_refused_where_the_removed_loop_summed_it():
    spec = pfq((-400.0,), ())
    assert repr(_old_pfq_eval(spec, 1e300)) == "(nan+nanj)"
    with pytest.raises(DomainError, match="numeric scalar must be finite"):
        pfq_eval(spec, 1e300)
