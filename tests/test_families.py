"""Family catalog, polynomial evaluators, and generating-function expansion."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_series import exact_degree_sums
from test_verify import small_rationals

import qfamily_oracles
from hyperconnect import expressions, fields
from hyperconnect import families as families_mod
from hyperconnect import (
    EXACT,
    NUMERIC,
    DomainError,
    FieldError,
    HyperconnectError,
    UnsupportedExpansionError,
    catalog,
    family_eval,
    family_row,
    family_rows,
    get_family,
    gf_expand,
    pochhammer,
    poly_from_gf,
)
from hyperconnect.families import catalog_as_json, normalization_at
from hyperconnect.hyper import pfq, pfq_eval
from hyperconnect.pochhammer import q_pochhammer

MEIXNER = {"alpha": Fraction(3, 2), "c": Fraction(2, 5)}


def test_meixner_degree_zero_is_one():
    assert family_eval("meixner", 0, Fraction(9, 4), MEIXNER) == 1


def test_meixner_degree_one():
    # M_1(x; 1, 1/2) = 1 - x
    got = family_eval("meixner", 1, Fraction(4), {"alpha": Fraction(1), "c": Fraction(1, 2)})
    assert got == -3
    got = family_eval("meixner", 1, Fraction(-2), {"alpha": Fraction(1), "c": Fraction(1, 2)})
    assert got == 3


def test_krawtchouk_degree_one():
    # K_1(x; 1/2, N) = 1 - 2x/N
    for cap in (4, 7):
        got = family_eval("krawtchouk", 1, Fraction(3), {"p": Fraction(1, 2), "N": cap})
        assert got == 1 - Fraction(6, cap)


def test_krawtchouk_rejects_degree_beyond_cap():
    with pytest.raises(DomainError):
        family_eval("krawtchouk", 5, Fraction(1), {"p": Fraction(1, 2), "N": 4})


def test_krawtchouk_is_meixner_special_case():
    # K_n(x; p, N) = M_n(x; -N, p/(p-1))
    pairs = [
        (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(3)),
        (Fraction(2, 7), Fraction(-5, 4)), (Fraction(3, 4), Fraction(5, 2)),
        (Fraction(-1, 2), Fraction(2)), (Fraction(5, 3), Fraction(0)),
        (Fraction(1, 5), Fraction(7)), (Fraction(-2, 3), Fraction(1, 7)),
        (Fraction(4, 9), Fraction(-3)), (Fraction(9, 8), Fraction(6)),
    ]
    for cap in (4, 8):
        for p, x in pairs:
            meixner_params = {"alpha": Fraction(-cap), "c": p / (p - 1)}
            for n in range(cap + 1):
                kraw = family_eval("krawtchouk", n, x, {"p": p, "N": cap})
                meix = family_eval("meixner", n, x, meixner_params)
                assert kraw == meix


def test_meixner_is_degree_n_in_x():
    # finite differencing n+1 times annihilates degree-n polynomials; one
    # more difference of the shifted values must be exactly zero
    params = {"alpha": Fraction(3, 2), "c": Fraction(2, 5)}
    for n in range(7):
        values = [family_eval("meixner", n, Fraction(j), params) for j in range(n + 2)]
        diffs = values
        for _ in range(n + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert diffs == [0]
        # and the n-th difference is nonzero (degree exactly n)
        diffs = values[:-1]
        for _ in range(n):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert diffs[0] != 0


def test_gf_expand_meixner_first_order():
    # coefficient of t^1 is alpha + x(1 - 1/c) = (alpha)_1 / 1! * M_1
    x = Fraction(4)
    series = gf_expand("meixner", x, MEIXNER, 1)
    alpha, c = MEIXNER["alpha"], MEIXNER["c"]
    assert series.coefficient(1) == alpha + x * (1 - 1 / c)


def test_gf_expand_constant_terms_are_unity():
    assert gf_expand("meixner", Fraction(2), MEIXNER, 3).coefficient(0) == 1
    assert gf_expand("charlier", Fraction(2), {"a": Fraction(3)}, 3).coefficient(0) == 1
    kraw = gf_expand("krawtchouk", Fraction(2), {"p": Fraction(1, 2), "N": 4}, 3)
    assert kraw.coefficient(0) == 1
    asc = gf_expand(
        "al_salam_chihara", None,
        {"a": 0.25, "b": 0.2, "q": 1 / 3, "theta": math.pi / 3}, 3,
    )
    assert abs(asc.coefficient(0) - 1) < 1e-14


def test_gf_expand_meixner_matches_eval_to_order_12():
    # coefficient n equals (alpha)_n / n! M_n for three parameter sets
    for alpha, c, x in (
        (Fraction(3, 2), Fraction(2, 5), Fraction(4)),
        (Fraction(7, 3), Fraction(3, 7), Fraction(5, 2)),
        (Fraction(1, 2), Fraction(-2, 3), Fraction(-3, 7)),
    ):
        params = {"alpha": alpha, "c": c}
        series = gf_expand("meixner", x, params, 12)
        for n in range(13):
            want = pochhammer(alpha, n) / math.factorial(n) * family_eval(
                "meixner", n, x, params
            )
            assert series.coefficient(n) == want


def test_gf_expand_krawtchouk_truncates():
    params = {"p": Fraction(1, 2), "N": 4}
    series = gf_expand("krawtchouk", Fraction(5, 2), params, 8)
    for n in range(5):
        want = family_eval("krawtchouk", n, Fraction(5, 2), params) / math.factorial(n)
        assert series.coefficient(n) == want
    for n in range(5, 9):
        assert series.coefficient(n) == 0


def test_poly_from_gf_charlier():
    assert poly_from_gf("charlier", 0, Fraction(3), {"a": Fraction(2)}) == 1
    # C_1(x; a) = 1 - x/a
    a, x = Fraction(5, 2), Fraction(3)
    assert poly_from_gf("charlier", 1, x, {"a": a}) == 1 - x / a


def test_poly_from_gf_matches_meixner_eval():
    x = Fraction(4)
    params = {"alpha": Fraction(3, 2), "c": Fraction(2, 5)}
    for n in range(7):
        assert poly_from_gf("meixner", n, x, params) == family_eval(
            "meixner", n, x, params
        )


def test_family_eval_routes_charlier_through_gf():
    a, x = Fraction(5, 2), Fraction(3)
    assert family_eval("charlier", 1, x, {"a": a}) == 1 - x / a


def test_al_salam_chihara_against_basic_series():
    theta, a, b, q = math.pi / 3, 0.25, 0.2, 1 / 3
    params = {"a": a, "b": b, "q": q, "theta": theta}
    series = gf_expand("al_salam_chihara", None, params, 8)
    for n in range(9):
        want = qfamily_oracles.al_salam_chihara(n, theta, a, b, q) / complex(
            q_pochhammer(q, q, n)
        )
        assert abs(series.coefficient(n) - want) < 1e-10


def test_continuous_big_q_hermite_against_basic_series():
    theta, a, q = 2 * math.pi / 7, 0.35, 0.25
    params = {"a": a, "q": q, "theta": theta}
    series = gf_expand("continuous_big_q_hermite", None, params, 8)
    for n in range(9):
        want = qfamily_oracles.continuous_big_q_hermite(n, theta, a, q) / complex(
            q_pochhammer(q, q, n)
        )
        assert abs(series.coefficient(n) - want) < 1e-10


def test_al_salam_carlitz_families_against_basic_series():
    # second-kind values grow like q^{-n(n-1)/2}, so compare mixed-tolerance
    x, a, q = 0.6, 0.25, 1 / 3
    params = {"a": a, "q": q}
    for n in range(9):
        got = poly_from_gf("al_salam_carlitz_1", n, x, params)
        want = qfamily_oracles.al_salam_carlitz_1(n, x, a, q)
        assert abs(got - want) < 1e-10 * (1 + abs(want))
        got = poly_from_gf("al_salam_carlitz_2", n, x, params)
        want = qfamily_oracles.al_salam_carlitz_2(n, x, a, q)
        assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_exact_family_also_expands_numerically():
    exact = gf_expand("meixner", Fraction(4), MEIXNER, 6)
    loose = gf_expand("meixner", 4.0, {"alpha": 1.5, "c": 0.4}, 6)
    assert not loose.field.is_exact
    for n in range(7):
        assert abs(complex(exact.coefficient(n)) - loose.coefficient(n)) < 1e-12


def test_family_eval_numeric_inputs():
    exact = family_eval("meixner", 3, Fraction(4), MEIXNER)
    loose = family_eval("meixner", 3, 4.0, {"alpha": 1.5, "c": 0.4})
    assert abs(complex(exact) - loose) < 1e-12


def test_metadata_only_families_refuse_expansion():
    with pytest.raises(UnsupportedExpansionError, match="bessel"):
        gf_expand("bessel", Fraction(1, 2), {"a": Fraction(1)}, 4)
    with pytest.raises(UnsupportedExpansionError):
        family_eval("continuous_dual_hahn", 2, Fraction(1),
                    {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)})


def test_an_x_cos_theta_family_refuses_the_exact_field():
    # cis(theta) is irrational in general, whatever the bindings
    bindings = {"a": Fraction(1, 4), "q": Fraction(1, 3), "theta": Fraction(1, 2)}
    assert get_family("continuous_big_q_hermite").field_for(*bindings.values()) == NUMERIC
    with pytest.raises(FieldError, match="cis"):
        gf_expand("continuous_big_q_hermite", None, bindings, 3, EXACT)


def test_catalog_contents():
    ids = {d.id for d in catalog()}
    assert len(ids) == 16  # 14 catalog families + meixner + krawtchouk
    for d in catalog():
        assert d.factors, d.id
        assert d.normalization
    assert {d.expansion for d in catalog()} == {"exact", None}
    exact = {d.id for d in catalog() if d.expansion == "exact"}
    assert exact == {
        "meixner", "krawtchouk", "charlier", "al_salam_carlitz_1", "al_salam_carlitz_2",
        "al_salam_chihara", "continuous_big_q_hermite",
    }


def test_catalog_metadata_matches_statements():
    entries = {entry["id"]: entry for entry in catalog_as_json()["families"]}
    cdh = entries["continuous_dual_hahn"]
    assert cdh["free_parameters"] == 3
    assert cdh["known_generating_functions"] == 5
    assert cdh["connection_relations"] == 7
    assert set(cdh["symmetric_parameters"]) == {"a", "b", "c"}
    assert entries["dual_q_hahn"]["citation_note"]
    assert entries["continuous_dual_q_hahn"]["citation_note"]
    asc1 = entries["al_salam_carlitz_1"]
    assert asc1["known_generating_functions"] == 1
    assert "no generalized generating functions" in asc1["notes"]


def test_get_family_takes_an_id_or_a_descriptor():
    descriptor = get_family("charlier")
    assert get_family(descriptor) is descriptor
    with pytest.raises(families_mod.UnknownIdentityError, match="unknown family"):
        get_family("no_such_family")


def test_bind_validates_names_and_domains():
    meixner = get_family("meixner")
    with pytest.raises(DomainError, match="needs parameter"):
        meixner.bind({"alpha": Fraction(1)})
    with pytest.raises(DomainError, match="does not take"):
        meixner.bind({**MEIXNER, "p": Fraction(1, 2)})
    with pytest.raises(DomainError):
        meixner.bind({"alpha": Fraction(3, 2), "c": Fraction(1)})
    with pytest.raises(DomainError):
        get_family("krawtchouk").bind({"p": Fraction(1, 2), "N": Fraction(5, 2)})
    # nonpositive-integer alpha stays evaluable (the Krawtchouk bridge needs
    # alpha = -N); the pole surfaces only past the degeneracy bound
    assert family_eval("meixner", 1, Fraction(2),
                       {"alpha": Fraction(-4), "c": Fraction(1, 3)}) is not None


def test_theta_families_take_argument_through_theta():
    params = {"a": 0.25, "b": 0.2, "q": 1 / 3, "theta": math.pi / 3}
    with pytest.raises(DomainError, match="theta"):
        gf_expand("al_salam_chihara", 0.5, params, 3)
    with pytest.raises(DomainError, match="needs the argument"):
        family_eval("meixner", 2, None, MEIXNER)


SCALARS = st.one_of(small_rationals(-3, 3), st.floats(-3, 3), st.just(-0.0),
                   st.builds(complex, st.floats(-2, 2), st.sampled_from([0.0, -0.0, 0.5])))


@st.composite
def gf_bindings(draw):
    """(family, params) of a family that poly_from_gf evaluates, exact or
    double, with a nonvanishing normalization."""
    family = draw(st.sampled_from(["charlier", "al_salam_carlitz_1", "al_salam_carlitz_2",
                                   "meixner", "krawtchouk"]))
    nonzero = SCALARS.filter(lambda v: v != 0)
    if family == "meixner":
        return family, {"alpha": draw(st.one_of(small_rationals(0, 4), st.floats(0.25, 4))),
                        "c": draw(nonzero.filter(lambda v: v != 1))}
    if family == "krawtchouk":
        return family, {"p": draw(nonzero), "N": draw(st.integers(0, 5))}
    params = {"a": draw(nonzero)}
    if family != "charlier":
        params["q"] = draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5), 0.3, 0.7]))
    return family, params


def outcome(f):
    """(type, repr) of f's value, or of the error it raises, with its message."""
    try:
        value = f()
    except (HyperconnectError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


@settings(max_examples=120)
@given(binding=gf_bindings(), n=st.integers(0, 10), x=SCALARS)
def test_one_coefficient_value_is_the_expanded_coefficient(binding, n, x):
    """poly_from_gf forms only the t^n coefficient, and it is gf_expand's
    coefficient n over c_n: the same Fraction, the same double by repr,
    -0.0 included, and zero past a Krawtchouk degree cap."""
    family, params = binding

    def expanded():
        series = gf_expand(family, x, params, n)
        c_n = normalization_at(get_family(family), n, None, params, series.field)
        return series.coefficient(n) / c_n

    want, got = (outcome(f) for f in (expanded, lambda: poly_from_gf(family, n, x, params)))
    assert got == want


def test_normalization_zero_is_an_error():
    # Meixner normalization (alpha)_n / n! vanishes at alpha = -N once n > N
    with pytest.raises(DomainError, match="normalization"):
        poly_from_gf("meixner", 3, Fraction(1),
                     {"alpha": Fraction(-2), "c": Fraction(1, 3)})
    value = normalization_at(
        get_family("al_salam_carlitz_2"), 2, None,
        {"a": 0.25, "q": 1 / 3}, NUMERIC,
    )
    assert value != 0


def per_degree(family, n_max, x, params):
    return [family_eval(family, n, x, params) for n in range(n_max + 1)]


def kernel_row(family, n_max, x, params):
    """family_row, checked to evaluate no degree on its own with family_eval."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families_mod, "family_eval",
                      lambda *args: calls.append(args[1]) or family_eval(*args))
        row = family_row(family, n_max, x, params)
    assert calls == []
    return row


def gauss_arguments(family, params):
    """(b, w) of P_n(x) = 2F1(-n, -x; b; w), w formed as the route forms it:
    exact from an exact c or p, else in doubles."""
    if family == "meixner":
        c = params["c"]
        return params["alpha"], 1 - 1 / (c if fields.is_exact_value(c) else complex(c))
    p = params["p"]
    return -Fraction(params["N"]), 1 / (p if fields.is_exact_value(p) else complex(p))


def terminating_sums(family, n_max, x, params):
    """[P_0, ..., P_n_max] on exact inputs, each degree its own terminating
    2F1 summed term by term by ``pfq_eval``."""
    b, w = gauss_arguments(family, params)
    return [pfq_eval(pfq((-Fraction(n), -Fraction(x)), (Fraction(b),)), Fraction(w))
            for n in range(n_max + 1)]


ARGUMENTS = st.one_of(st.integers(-6, 12), small_rationals(-6, 12))


@settings(max_examples=25)
@given(x=ARGUMENTS, beta=small_rationals(-5, 6), c=small_rationals(-3, 3),
       n_max=st.integers(0, 16))
def test_meixner_row_equals_the_terminating_sum_of_each_degree(x, beta, c, n_max):
    assume(c not in (0, 1) and not (beta.denominator == 1 and beta <= 0))
    params = {"alpha": beta, "c": c}
    row = kernel_row("meixner", n_max, x, params)
    assert row == terminating_sums("meixner", n_max, x, params)
    assert all(type(v) is Fraction for v in row)
    assert per_degree("meixner", n_max, x, params) == row


@settings(max_examples=25)
@given(data=st.data(), x=ARGUMENTS, p=small_rationals(-2, 3), cap=st.integers(0, 25))
def test_krawtchouk_row_equals_the_terminating_sum_of_each_degree(data, x, p, cap):
    assume(p != 0)
    n_max = data.draw(st.integers(0, cap), label="n_max")
    params = {"p": p, "N": cap}
    row = kernel_row("krawtchouk", n_max, x, params)
    assert row == terminating_sums("krawtchouk", n_max, x, params)
    assert all(type(v) is Fraction for v in row)
    assert per_degree("krawtchouk", n_max, x, params) == row


@pytest.mark.parametrize("beta", [0, -1, -3])
@pytest.mark.parametrize("x", [Fraction(5, 2), 2, 7, -2])
def test_meixner_row_at_nonpositive_integer_beta_fails_where_each_degree_does(beta, x):
    params = {"alpha": Fraction(beta), "c": Fraction(2, 5)}
    failing = None
    for n in range(9):
        try:
            terminating_sums("meixner", n, x, params)
        except HyperconnectError as exc:
            failing = n, type(exc)
            break
    if failing is None:
        assert family_row("meixner", 8, x, params) == terminating_sums("meixner", 8, x, params)
        return
    n, kind = failing
    assert family_row("meixner", n - 1, x, params) == terminating_sums("meixner", n - 1, x,
                                                                       params)
    with pytest.raises(kind):
        family_row("meixner", n, x, params)
    with pytest.raises(kind):
        family_eval("meixner", n, x, params)


def test_a_double_value_past_the_double_range_is_a_domain_error():
    # M_n(3.5; 1.5, 0.01) is about 10^73 at n = 40 and 10^389 at n = 200
    params = {"alpha": 1.5, "c": 0.01}
    assert 1e72 < abs(family_eval("meixner", 40, 3.5, params)) < 1e74
    with pytest.raises(DomainError, match="double range"):
        family_eval("meixner", 200, 3.5, params)
    with pytest.raises(DomainError, match="double range"):
        family_row("meixner", 200, 3.5, params)


def test_krawtchouk_row_past_the_degree_cap_is_an_error():
    with pytest.raises(DomainError):
        family_row("krawtchouk", 5, Fraction(1), {"p": Fraction(1, 2), "N": 4})


@pytest.mark.parametrize("family,x,params", [
    ("meixner", complex(2.5, 0.5), {"alpha": 1.5, "c": 0.4}),
    ("meixner", Fraction(7, 2), {"alpha": complex(1.5, -0.25), "c": Fraction(2, 5)}),
    ("meixner", 10.5, {"alpha": 2.5, "c": 0.7}),
    ("meixner", Fraction(3), {"alpha": 0.1, "c": Fraction(-7, 3)}),
    ("krawtchouk", 3.0, {"p": 0.3, "N": 9}),
    ("krawtchouk", 4.25, {"p": 0.7, "N": 24}),
    ("krawtchouk", Fraction(3), {"p": complex(0.5, 0.5), "N": 9}),
])
def test_numeric_rows_are_the_exact_sums_rounded_once(family, x, params):
    """A double row is the exact 2F1 of each degree at the double arguments
    the route forms, rounded once per entry; compared by repr, so a signed
    zero counts."""
    n_max = min(24, params.get("N", 24))
    b, w = gauss_arguments(family, params)
    want = exact_degree_sums(-complex(x), b, w, n_max)
    row = kernel_row(family, n_max, x, params)
    assert list(map(repr, row)) == list(map(repr, want))
    assert per_degree(family, n_max, x, params) == row


SIGNED_ZEROS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0))
Q_ROW_ARGUMENTS = st.one_of(
    st.sampled_from(SIGNED_ZEROS),
    small_rationals(-3, 3),
    st.floats(-3, 3),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
)


def nonzero(values):
    return values.filter(lambda v: v != 0)


@st.composite
def gf_family_bindings(draw):
    """(family, params) of Charlier or an Al-Salam-Carlitz family, with all
    rational or all complex-double bindings."""
    family = draw(st.sampled_from(["al_salam_carlitz_1", "al_salam_carlitz_2", "charlier"]))
    if draw(st.booleans()):
        a = draw(nonzero(small_rationals(-2, 2)))
        q = draw(small_rationals(0, 1))
    else:
        a = draw(nonzero(st.builds(complex, st.floats(-2, 2), st.floats(-1, 1))))
        q = draw(st.floats(0.1, 0.9))
    return family, {"a": a} if family == "charlier" else {"a": a, "q": q}


@settings(max_examples=60)
@given(binding=gf_family_bindings(), xs=st.lists(Q_ROW_ARGUMENTS, min_size=1, max_size=4),
       n_max=st.integers(0, 10))
def test_rows_at_many_abscissae_keep_the_per_degree_bits(binding, xs, n_max):
    """One family_rows call, whose abscissae may mix exact values and doubles
    (so rows on both fields), reads every degree with family_eval's bits:
    compared by repr, so a signed zero counts."""
    family, params = binding
    rows = family_rows(family, n_max, xs, params)
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        assert list(map(repr, row)) == list(map(repr, per_degree(family, n_max, x, params)))
        assert family_row(family, n_max, x, params) == row


def test_no_executable_normalization_reads_x():
    for descriptor in catalog():
        if descriptor.is_expandable:
            assert "x" not in expressions.variables(descriptor.normalization), descriptor.id


def test_family_rows_evaluates_each_normalization_once_per_field(monkeypatch):
    seen = []
    inner = families_mod.normalization_at

    def counted(descriptor, n, x, params, field):
        seen.append((n, x, field.is_exact))
        return inner(descriptor, n, x, params, field)

    monkeypatch.setattr(families_mod, "normalization_at", counted)
    params = {"a": Fraction(1, 5), "q": Fraction(2, 5)}
    xs = [Fraction(1, 3), 0.5, Fraction(2), -0.0, 3]
    family_rows("al_salam_carlitz_2", 6, xs, params)
    assert sorted(seen) == sorted((n, None, exact) for n in range(7) for exact in (True, False))


def test_family_rows_refuses_a_missing_argument():
    with pytest.raises(DomainError, match="needs the argument"):
        family_rows("charlier", 3, [Fraction(1), None], {"a": Fraction(2)})
    assert family_rows("charlier", 3, [], {"a": Fraction(2)}) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 complex(1.0, float("nan")), complex(float("inf"), 0.0)])
@pytest.mark.parametrize("family,params,name", [
    ("meixner", {"alpha": 1.0, "c": 0.5}, "alpha"),
    ("krawtchouk", {"p": 0.5, "N": 4}, "p"),
    ("charlier", {"a": 0.5}, "a"),
])
def test_non_finite_arguments_and_parameters_are_domain_errors(bad, family, params, name):
    assert not fields.is_integer_valued(bad)
    assert not fields.is_nonpositive_integer(bad)
    with pytest.raises(DomainError):
        fields.as_index(bad)
    with pytest.raises(DomainError):
        family_eval(family, 2, bad, params)
    with pytest.raises(DomainError):
        family_eval(family, 2, 1.5, {**params, name: bad})


@pytest.mark.parametrize("family,params", [
    ("meixner", {"alpha": Fraction(10**400), "c": 0.5}),
    ("charlier", {"a": Fraction(10**400) + Fraction(1, 3)}),
])
def test_exact_parameters_past_the_double_range_are_domain_errors(family, params):
    """An exact value whose double would be infinite enters the numeric
    field as a DomainError, as a non-finite double does (it was an
    OverflowError)."""
    with pytest.raises(DomainError, match="numeric scalar must be finite"):
        family_eval(family, 2, 1.5, params)
    for huge in (10**400, -Fraction(10**400, 3)):
        with pytest.raises(DomainError, match="numeric scalar must be finite"):
            fields.as_numeric(huge)
