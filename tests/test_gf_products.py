"""The single-variable generating-function sums built as series products,
against the sum over n they replace."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconnect import EXACT, IdentityCase, PoleError, build_sides, numeric, verify_gf_identity
from hyperconnect import families, verify
from hyperconnect.errors import HyperconnectError
from hyperconnect.fields import rising_vanishes
from hyperconnect.pochhammer import pochhammer
from hyperconnect.series import hypergeometric_terms, linear_combination

SINGLE_VARIABLE = sorted(identity for identity, (spec, _) in verify.GF_IDENTITIES.items()
                         if spec.term is not None)


def test_the_ten_single_variable_rows_are_declared():
    assert len(SINGLE_VARIABLE) == 10
    assert not any(name.endswith(("c_shift", "triple")) for name in SINGLE_VARIABLE)


def per_degree(identity, params, order, field):
    """(lhs, rhs) of the identity as the sum over n: coeff_n t^n inner_n(t)
    summed by ``series.linear_combination``, with inner_n from
    ``GFSpec.inner`` and coeff_n from its declaration, checked in the order
    of the sum: inner_n, then the P_n row (once, at n = 0), then (b)_n."""
    spec, _ = verify.GF_IDENTITIES[identity]
    p = {k: v if k in ("N", "M") else field.of(v) for k, v in params.items()}
    lhs = spec.lhs_series(order, field, **p)
    top = families.degree_cap(order, p)
    tops, bottom, z, (family, x, poly_params) = spec.coeff(**p)
    terms = []
    for n in range(top + 1):
        inner = spec.inner(n, top - n, field, **p)
        if n == 0:
            row, den = hypergeometric_terms(tops, (), z, top, field)
            poly = families.family_row(family, top, x, poly_params)
        rising = 1 if bottom is None else pochhammer(bottom, n)
        if rising == 0:
            raise PoleError(f"(alpha)_n vanishes at n = {n}: alpha = {bottom} lies in -N0")
        terms.append((inner, n, field.over([row[n]], den)[0] * poly[n] / rising))
    return lhs, linear_combination(terms, order, field)


def outcome(build):
    try:
        lhs, rhs = build()
    except (HyperconnectError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return lhs, rhs


RATES = st.integers(2, 9).flatmap(
    lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den)))
EDGES = st.one_of(
    st.integers(-5, 0).map(Fraction),
    st.integers(1, 6).flatmap(lambda den: st.integers(-6 * den, 6 * den).map(
        lambda num: Fraction(num, den))))


@st.composite
def bindings(draw, identity):
    """A binding of the identity's names: alpha, beta and gamma reach
    {0, -1, ..., -5}, c, d, p and q lie in (0, 1), d = c and q = p at times,
    and x is a small rational or a lattice point."""
    _, names = verify.GF_IDENTITIES[identity]
    N = draw(st.integers(0, 8))
    values = {
        "alpha": draw(EDGES), "beta": draw(EDGES), "gamma": draw(EDGES),
        "c": (c := draw(RATES)), "d": draw(st.one_of(st.just(c), RATES)),
        "p": (p := draw(RATES)), "q": draw(st.one_of(st.just(p), RATES)),
        "N": N, "M": draw(st.integers(N, 10)),
        "x": draw(st.one_of(st.integers(0, N).map(Fraction), EDGES)),
    }
    return {name: values[name] for name in names}


@settings(max_examples=60)
@given(data=st.data(), order=st.integers(0, 10))
@pytest.mark.parametrize("identity", SINGLE_VARIABLE)
def test_products_equal_the_sum_over_n(identity, data, order):
    params = data.draw(bindings(identity), "params")
    case = IdentityCase(identity, params, order=order)
    report = verify_gf_identity(case)
    got = outcome(lambda: build_sides(case))
    wanted = outcome(lambda: per_degree(identity, params, order, EXACT))
    assert got == wanted
    if isinstance(wanted[0], str):
        assert (report.status, report.detail) == ("error", wanted[0])
    else:  # the identity holds on the exact field wherever it is defined
        assert report.status == "pass" and wanted[0] == wanted[1]


@settings(max_examples=25)
@given(data=st.data(), order=st.integers(0, 10))
@pytest.mark.parametrize("identity", SINGLE_VARIABLE)
def test_real_double_rhs_is_the_exact_rhs_rounded_once(identity, data, order):
    params = data.draw(bindings(identity), "params")
    doubles = {k: v if k in ("N", "M") else float(v) for k, v in params.items()}
    exact = {k: Fraction(v) for k, v in doubles.items()}
    got = outcome(lambda: build_sides(IdentityCase(identity, doubles, order=order,
                                                   field=numeric())))
    wanted = outcome(lambda: build_sides(IdentityCase(identity, exact, order=order)))
    if isinstance(got[0], str) or isinstance(wanted[0], str):
        assert isinstance(got[0], str) and isinstance(wanted[0], str)
        return
    assert got[1].coefficients == tuple(complex(c) for c in wanted[1].coefficients)


@settings(max_examples=25)
@given(data=st.data(), order=st.integers(0, 10))
@pytest.mark.parametrize("identity", SINGLE_VARIABLE)
def test_complex_bindings_keep_the_sum_over_n(identity, data, order):
    params = data.draw(bindings(identity), "params")
    imaginary = data.draw(st.floats(-1, 1).filter(bool), "imaginary")
    params = {k: v if k in ("N", "M") else complex(v, imaginary) for k, v in params.items()}
    case = IdentityCase(identity, params, order=order, field=numeric())
    got = outcome(lambda: build_sides(case))
    wanted = outcome(lambda: per_degree(identity, params, order, numeric()))
    assert got == wanted


# b as each field holds it: exact, a double (-0.0 too) and a complex double,
# real or not
POLE_CANDIDATES = st.one_of(
    EDGES, EDGES.map(float), st.just(-0.0),
    st.builds(complex, st.one_of(EDGES.map(float), st.just(-0.0)),
              st.sampled_from([0.0, -0.0, 0.5, -1.0])))


@settings(max_examples=400)
@given(b=POLE_CANDIDATES, top=st.integers(0, 8))
def test_the_pole_rule_agrees_with_the_rising_factorial(b, top):
    """The rule that sends a vanishing (b)_top to the sum over n reads b, not
    the product (b)_top."""
    assert rising_vanishes(b, top) == (pochhammer(b, top) == 0)
