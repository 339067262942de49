"""Generalized, basic, and multivariable hypergeometric evaluation."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verify import small_rationals

from hyperconnect import (
    APPELL_F1,
    EXACT,
    HUMBERT_PHI2,
    HUMBERT_PHI2_3,
    LAURICELLA_FD3,
    NUMERIC,
    ConvergenceError,
    DomainError,
    MultiVarSpec,
    PoleError,
    hyper_series_in_t,
    linear_arg,
    mobius_arg,
    multivar_eval,
    pfq,
    pfq_eval,
    pfq_eval_with_tail,
    pochhammer,
)
from hyperconnect.hyper import factor_product
from hyperconnect.series import (
    CoefficientStream,
    binomial_power,
    compose,
    mobius_argument,
)


def test_pfq_at_zero_is_one():
    assert pfq_eval(pfq((Fraction(-3), Fraction(1, 2)), (Fraction(5, 4),)), 0) == 1


def test_1f0_is_binomial_theorem():
    # 1F0(a; -; z) = (1-z)^{-a} for |z| < 1
    a, z = Fraction(5, 2), 0.3
    value, _ = pfq_eval_with_tail(pfq((a,), ()), z)
    assert abs(value - (1 - z) ** (-float(a))) < 1e-13


def test_2f1_single_term():
    # 2F1(-1, -x; alpha; z) = 1 + x z / alpha
    x, alpha, z = Fraction(5, 2), Fraction(4, 3), Fraction(2, 7)
    got = pfq_eval(pfq((Fraction(-1), -x), (alpha,)), z)
    assert got == 1 + x * z / alpha


def test_terminating_needs_nonpositive_integer():
    with pytest.raises(DomainError):
        pfq_eval(pfq((Fraction(1, 2),), (Fraction(3),)), Fraction(1, 3))


def test_terminating_zero_numerator_wins_over_pole():
    # numerator dies at s = 1 before the denominator pole can matter
    got = pfq_eval(pfq((Fraction(-3), Fraction(0)), (Fraction(-2),)), Fraction(1, 5))
    assert got == 1


def plain_terminating_sum(nums, dens, z):
    """sum_k prod (a)_k / prod (b)_k z^k / k! term by term in Fractions, up to
    the first numerator in -N0: a vanishing numerator ends the sum before the
    denominator is looked at, a vanishing denominator is a pole."""
    degree = min(-int(a) for a in nums if a.denominator == 1 and a <= 0)
    term = total = Fraction(1)
    for k in range(degree):
        num = math.prod(a + k for a in nums)
        if num == 0:
            break
        den = math.prod(b + k for b in dens)
        if den == 0:
            raise PoleError(f"denominator parameter pole at term {k + 1}:"
                            f" one of {tuple(dens)} lies in -N0")
        term = term * num * z / (den * (k + 1))
        if term == 0:
            break
        total = total + term
    return total


def sum_or_pole(produce):
    try:
        value = produce()
    except PoleError as exc:
        return f"PoleError: {exc}"
    return type(value), value


# integers as well as Fractions; -N0 values both end a sum and are poles
PARAMETERS = st.one_of(small_rationals(-5, 5), st.integers(-5, 0).map(Fraction),
                       st.integers(-5, 3))


@settings(max_examples=200)
@given(terminator=st.integers(-9, 0), tops=st.lists(PARAMETERS, max_size=2),
       bottoms=st.lists(PARAMETERS, max_size=2),
       z=st.one_of(st.just(Fraction(0)), st.integers(-3, 3), small_rationals(-4, 4)))
def test_exact_terminating_sum_equals_the_fraction_term_sum(terminator, tops, bottoms, z):
    nums = (Fraction(terminator), *tops)
    want = sum_or_pole(lambda: plain_terminating_sum(nums, bottoms, z))
    assert sum_or_pole(lambda: pfq_eval(pfq(nums, bottoms), z)) == want
    assert want[0] is Fraction or want.startswith("PoleError")


def test_exact_terminating_sum_checks_the_numerator_before_the_pole():
    # a pole at term 1 is one also at z = 0 ...
    with pytest.raises(PoleError, match="pole at term 1"):
        pfq_eval(pfq((Fraction(-4),), (0,)), 0)
    # ... where the second term is zero and ends the sum before a later pole
    got = pfq_eval(pfq((Fraction(-4), Fraction(1, 2)), (Fraction(-2),)), Fraction(0))
    assert got == 1 and type(got) is Fraction
    with pytest.raises(PoleError, match="pole at term 3"):
        pfq_eval(pfq((Fraction(-4), Fraction(1, 2)), (Fraction(-2),)), Fraction(1, 3))
    # a numerator vanishing at or before the pole's index ends the sum first
    assert pfq_eval(pfq((Fraction(-2), Fraction(1, 3)), (Fraction(-2),)), Fraction(3)) == 4
    assert pfq_eval(pfq((Fraction(-2), Fraction(1, 3)), (Fraction(-3),)), Fraction(3)) == (
        1 + Fraction(2, 3) + Fraction(2, 3))


def test_eager_pole_detection():
    with pytest.raises(PoleError):
        pfq_eval(pfq((Fraction(-5), Fraction(1, 2)), (Fraction(-2),)), Fraction(1, 3))


def test_terminating_permutation_invariance():
    nums = (Fraction(-4), Fraction(2, 3), Fraction(-7, 5))
    dens = (Fraction(5, 4), Fraction(9, 7))
    z = Fraction(3, 8)
    base = pfq_eval(pfq(nums, dens), z)
    assert pfq_eval(pfq(nums[::-1], dens), z) == base
    assert pfq_eval(pfq((nums[1], nums[0], nums[2]), dens[::-1]), z) == base


def test_truncated_mode_reports_tail():
    import math

    value, tail = pfq_eval_with_tail(pfq((), ()), 0.5)
    assert abs(value - math.exp(0.5)) < 1e-12
    assert tail.converged
    assert tail.terms > 5


def test_truncated_mode_flags_divergence():
    # 2F0 diverges everywhere off 0: its terms never shrink in 4,000
    with pytest.raises(ConvergenceError, match="still growing after 4000 terms"):
        pfq_eval_with_tail(pfq((Fraction(2), Fraction(3)), ()), 1.5)


def test_multivar_all_zero_args():
    for spec in (
        MultiVarSpec(APPELL_F1, (Fraction(-3), Fraction(1, 2), Fraction(1, 3), Fraction(5, 4))),
        MultiVarSpec(LAURICELLA_FD3, (Fraction(-4), Fraction(1, 2), Fraction(1, 3), Fraction(2),
                                      Fraction(5, 4))),
        MultiVarSpec(APPELL_F1, (-3.0, 0.5, 1 / 3, 1.25)),
    ):
        assert multivar_eval(spec, (0,) * spec.arity) == 1


def test_f1_equal_arguments_reduce_to_2f1_brute_force():
    # terminating case against a brute-force double sum at x = 1/10
    a, b, b2, c = Fraction(-9), Fraction(1, 2), Fraction(4, 3), Fraction(5, 4)
    x = Fraction(1, 10)
    got = multivar_eval(MultiVarSpec(APPELL_F1, (a, b, b2, c)), (x, x))
    brute = Fraction(0)
    for m in range(12):
        for n in range(12 - m):
            brute += (
                pochhammer(a, m + n) * pochhammer(b, m) * pochhammer(b2, n)
                / pochhammer(c, m + n) * x ** (m + n)
                / (math.factorial(m) * math.factorial(n))
            )
    assert got == brute


def test_f1_equal_arguments_reduce_to_2f1_exact():
    # terminating case compared exactly
    a, b, b2, c, x = Fraction(-6), Fraction(1, 2), Fraction(4, 3), Fraction(5, 4), Fraction(1, 10)
    got = multivar_eval(MultiVarSpec(APPELL_F1, (a, b, b2, c)), (x, x))
    want = pfq_eval(pfq((a, b + b2), (c,)), x)
    assert got == want


def test_f1_y_zero_reduces_coefficientwise():
    # F1(a, b, b'; c; x, 0) = 2F1(a, b; c; x) as series in t
    a, b, b2, c = Fraction(5, 4), Fraction(1, 2), Fraction(7, 3), Fraction(9, 5)
    lifted = hyper_series_in_t(
        MultiVarSpec(APPELL_F1, (a, b, b2, c)),
        [linear_arg(Fraction(1, 3)), linear_arg(0)], 8, EXACT,
    )
    plain = hyper_series_in_t(pfq((a, b), (c,)), linear_arg(Fraction(1, 3)), 8, EXACT)
    assert lifted == plain


def test_series_in_t_constant_term_is_one():
    spec = MultiVarSpec(HUMBERT_PHI2, (Fraction(4), Fraction(-4), Fraction(4, 3)))
    series = hyper_series_in_t(
        spec, [linear_arg(Fraction(5, 2)), linear_arg(Fraction(7, 3))], 6, EXACT
    )
    assert series.coefficient(0) == 1


def test_series_in_t_agrees_with_partial_sums():
    # evaluating the lifted series at t0 matches the truncated scalar sum
    spec = pfq((-Fraction(7, 2),), (Fraction(4, 3),))
    lam = Fraction(2, 5)
    order = 9
    series = hyper_series_in_t(spec, linear_arg(lam), order, EXACT)
    t0 = Fraction(1, 7)
    z = lam * t0
    partial = Fraction(0)
    term = Fraction(1)
    for k in range(order + 1):
        partial += term
        term = term * (-Fraction(7, 2) + k) / ((Fraction(4, 3) + k) * (k + 1)) * z
    assert series.evaluate(t0) == partial


def test_series_in_t_mobius_argument():
    # 2F1(a, 1; 1; lam t/(1-t)) = (1 - t(1+lam))^{-a} (1-t)^{a} checked
    # against an independent product of binomial powers
    a, lam = Fraction(3, 2), Fraction(2, 3)
    got = hyper_series_in_t(pfq((a, 1), (1,)), mobius_arg(lam), 8, EXACT)
    want = binomial_power(1 + lam, a, 8) * binomial_power(1, -a, 8)
    assert got == want


def test_multivar_rejects_mobius_shapes():
    spec = MultiVarSpec(HUMBERT_PHI2, (Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(DomainError):
        hyper_series_in_t(spec, [mobius_arg(1), linear_arg(1)], 4, EXACT)


def test_multivar_parameter_count_checked():
    with pytest.raises(DomainError):
        MultiVarSpec(APPELL_F1, (Fraction(1), Fraction(2)))
    with pytest.raises(DomainError):
        MultiVarSpec("humbert_phi9", (Fraction(1),))


def _simplex_coefficients(spec, lams, order):
    """[t^M] of the multivariable series at lam_i t, M = 0..order, summed
    term by term over every multi-index of total degree M."""
    a, c = spec.joint_numerator, spec.joint_denominator
    out = []
    for total in range(order + 1):
        joint = (1 if a is None else pochhammer(a, total)) / pochhammer(c, total)
        shell = Fraction(0)
        for index in itertools.product(range(total + 1), repeat=spec.arity):
            if sum(index) != total:
                continue
            term = joint
            for b, m, lam in zip(spec.separate_numerators, index, lams):
                term *= pochhammer(b, m) * lam**m / math.factorial(m)
            shell += term
        out.append(shell)
    return out


MULTIVAR_ORACLE_CASES = (
    # (kind, params, argument scales); each row has a separate numerator in
    # -N0 or a zero scale, F1 and F_D also a terminating joint numerator
    (APPELL_F1, (Fraction(3, 4), Fraction(-2), Fraction(4, 3), Fraction(5, 4)),
     (Fraction(2, 3), Fraction(-5, 7))),
    (APPELL_F1, (Fraction(-3), Fraction(1, 2), Fraction(4, 3), Fraction(-11, 2)),
     (Fraction(0), Fraction(7, 3))),
    (HUMBERT_PHI2, (Fraction(1, 2), Fraction(-3), Fraction(7, 5)),
     (Fraction(0), Fraction(3, 2))),
    (LAURICELLA_FD3, (Fraction(5, 2), Fraction(1, 2), Fraction(-1), Fraction(4, 3),
                      Fraction(9, 4)),
     (Fraction(2, 3), Fraction(1, 5), Fraction(-5, 7))),
    (LAURICELLA_FD3, (Fraction(-4), Fraction(1, 2), Fraction(2, 7), Fraction(4, 3),
                      Fraction(9, 4)),
     (Fraction(2, 3), Fraction(0), Fraction(-5, 7))),
    (HUMBERT_PHI2_3, (Fraction(-2), Fraction(5, 3), Fraction(1, 2), Fraction(-7, 2)),
     (Fraction(1, 3), Fraction(2), Fraction(0))),
)


@pytest.mark.parametrize("kind, params, lams", MULTIVAR_ORACLE_CASES)
def test_multivar_lift_matches_simplex_sum(kind, params, lams):
    spec = MultiVarSpec(kind, params)
    shapes = [linear_arg(lam) for lam in lams]
    want = _simplex_coefficients(spec, lams, 10)
    got = hyper_series_in_t(spec, shapes, 10, EXACT)
    assert got.coefficients == tuple(want)
    # a factor product built to a higher order is shared; a shorter one is refused
    shared = factor_product(spec, shapes, 14, EXACT)
    assert hyper_series_in_t(spec, shapes, 10, EXACT, product=shared) == got
    with pytest.raises(DomainError):
        hyper_series_in_t(spec, shapes, 10, EXACT, product=shared.truncate_to(9))
    approx = hyper_series_in_t(spec, shapes, 10, NUMERIC)
    for x, y in zip(approx.coefficients, want):
        assert abs(x - complex(y)) <= 1e-12 * max(1.0, abs(float(y)))


@pytest.mark.parametrize("kind, params, lams", [
    row for row in MULTIVAR_ORACLE_CASES
    if row[0] in (APPELL_F1, LAURICELLA_FD3) and row[1][0] <= 0
])
def test_terminating_multivar_eval_matches_simplex_sum(kind, params, lams):
    spec = MultiVarSpec(kind, params)
    degree = int(-spec.joint_numerator)
    # the value at arguments lam_i is the series at lam_i t evaluated at t = 1
    want = sum(_simplex_coefficients(spec, lams, degree))
    assert multivar_eval(spec, lams) == want
    # a factor product of any order >= the degree is shared; a shorter one is refused
    shapes = [linear_arg(lam) for lam in lams]
    for order in (degree, degree + 3):
        assert multivar_eval(spec, lams, product=factor_product(spec, shapes, order, EXACT)) == want
    with pytest.raises(DomainError):
        multivar_eval(spec, lams, product=factor_product(spec, shapes, degree - 1, EXACT))


def test_mobius_lift_matches_composition():
    for nums, dens in (
        ((Fraction(3, 2), Fraction(-1, 3)), (Fraction(5, 4),)),
        ((Fraction(-4), Fraction(1, 3)), (Fraction(5, 4),)),
        ((Fraction(2),), ()),
    ):
        def ratio(k, nums=nums, dens=dens):
            return math.prod(a + k for a in nums) / (math.prod(b + k for b in dens) * (k + 1))

        stream = CoefficientStream(Fraction(1), ratio)
        for lam in (Fraction(2, 3), Fraction(-3), Fraction(0)):
            got = hyper_series_in_t(pfq(nums, dens), mobius_arg(lam), 10, EXACT)
            assert got == compose(stream, mobius_argument(lam, 10), 10)


@pytest.mark.parametrize("spec", [
    # (c)_M vanishes at shell 21; the sum is refused before any shell is formed
    MultiVarSpec(HUMBERT_PHI2, (Fraction(1, 2), Fraction(1, 3), Fraction(-20))),
    MultiVarSpec(HUMBERT_PHI2_3, (Fraction(-2), Fraction(5, 3), Fraction(1, 2), Fraction(7, 2))),
    MultiVarSpec(APPELL_F1, (Fraction(3, 4), Fraction(1, 2), Fraction(4, 3), Fraction(5, 4))),
    MultiVarSpec(APPELL_F1, (0.75, 0.5, 4 / 3, 1.25)),
    MultiVarSpec(LAURICELLA_FD3, (Fraction(5, 2), Fraction(-1), Fraction(1, 2), Fraction(4, 3),
                                  Fraction(9, 4))),
], ids=["phi2_pole", "phi2_3", "f1", "f1_double", "fd3"])
def test_multivar_eval_refuses_a_non_terminating_joint_numerator(spec):
    with pytest.raises(DomainError, match="joint numerator in") as refused:
        multivar_eval(spec, (Fraction(1, 100),) * spec.arity)
    assert type(refused.value) is DomainError


def test_multivar_eval_reports_joint_pole_before_converging():
    # (c)_M vanishes at shell 21, before the sum would end at shell 31
    spec = MultiVarSpec(APPELL_F1, (Fraction(-30), Fraction(1, 2), Fraction(1, 3), Fraction(-20)))
    with pytest.raises(PoleError, match="pole at term 21"):
        multivar_eval(spec, (Fraction(1, 100), Fraction(1, 100)))


def test_double_multivar_lift_past_170_shells():
    # F1 at (0.85, 0.1) needs more than 170 shells, where (1/2)_m and m!
    # no longer fit in a double
    mpmath = pytest.importorskip("mpmath")
    spec = MultiVarSpec(APPELL_F1, (0.75, 0.5, 4 / 3, 1.25))
    lifted = hyper_series_in_t(spec, [linear_arg(0.85), linear_arg(0.1)], 400, NUMERIC)
    got = lifted.evaluate(1.0)
    want = complex(mpmath.appellf1(0.75, 0.5, 4 / 3, 1.25, 0.85, 0.1))
    assert abs(got - want) < 1e-12 * abs(want)
