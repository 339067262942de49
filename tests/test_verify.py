"""Identity verifier: builders, comparisons, orthogonality sums, batches."""

import dataclasses
import functools
import gc
import itertools
import json
import math
import tracemalloc
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperconnect import (
    EXACT,
    DomainError,
    IdentityCase,
    PoleError,
    VerificationReport,
    acceptance_suite,
    batch_verify,
    build_sides,
    numeric,
    summarize,
    verify_case,
    verify_connection_relation,
    verify_gf_identity,
    verify_gf_invariance,
    verify_orthogonality_sum,
)
from hyperconnect import TruncatedSeries, exp_series, pochhammer
from hyperconnect import families as families_mod
from hyperconnect import hyper as hyper_mod
from hyperconnect import verify as verify_mod
from hyperconnect.errors import FieldError
from hyperconnect.fields import FieldTag, deviation

CANON = {
    "x": Fraction(4), "alpha": Fraction(3, 2), "beta": Fraction(7, 3),
    "c": Fraction(2, 5), "d": Fraction(3, 7), "gamma": Fraction(5, 4),
}
KRAW = {
    "x": Fraction(5, 2), "p": Fraction(1, 2), "q": Fraction(1, 3),
    "N": 4, "M": 6, "gamma": Fraction(5, 4),
}


def pick(params, *names):
    return {k: params[k] for k in names}


def test_constant_terms_agree_trivially():
    case = IdentityCase("meixner_1f1_two_param",
                        pick(CANON, "x", "alpha", "beta", "c", "d"), order=0)
    lhs, rhs = build_sides(case)
    assert lhs.coefficient(0) == 1 == rhs.coefficient(0)


def test_confluent_alpha_shift_exact_to_order_12():
    case = IdentityCase("meixner_1f1_alpha_shift",
                        pick(CANON, "x", "alpha", "beta", "c"), order=12)
    report = verify_gf_identity(case)
    assert report.status == "pass"
    assert report.deviation == 0.0
    assert report.millis >= 0.0


def test_gauss_alpha_shift_exact_at_spec_point():
    params = {"x": Fraction(3), "alpha": Fraction(5, 4), "beta": Fraction(1, 2),
              "c": Fraction(3, 7), "gamma": Fraction(5, 4)}
    report = verify_gf_identity(IdentityCase("meixner_2f1_alpha_shift", params,
                                             order=12))
    assert report.status == "pass" and report.deviation == 0.0


def test_krawtchouk_two_param_exact_polynomials():
    case = IdentityCase("krawtchouk_1f1_two_param",
                        pick(KRAW, "x", "p", "q", "N", "M"), order=4)
    report = verify_gf_identity(case)
    assert report.status == "pass" and report.deviation == 0.0
    case = IdentityCase("krawtchouk_2f1_two_param", KRAW, order=4)
    assert verify_gf_identity(case).status == "pass"


def test_all_identities_pass_at_second_parameter_set():
    other = {
        "x": Fraction(5, 2), "alpha": Fraction(4, 3), "beta": Fraction(1, 2),
        "c": Fraction(3, 8), "d": Fraction(2, 7), "gamma": Fraction(-2, 3),
    }
    for identity, (_, names) in verify_mod.GF_IDENTITIES.items():
        if identity.startswith("krawtchouk"):
            continue
        case = IdentityCase(identity, pick(other, *names), order=7)
        report = verify_gf_identity(case)
        assert report.status == "pass", (identity, report.detail)


def test_two_param_collapses_to_alpha_shift_when_rates_match():
    # d = c turns the two-parameter expansion into the same series as the
    # single-shift theorem, both sides
    degenerate = {**pick(CANON, "x", "alpha", "beta", "c", "gamma"), "d": CANON["c"]}
    lhs14, rhs14 = build_sides(IdentityCase("meixner_2f1_two_param", degenerate,
                                            order=9))
    lhs13, rhs13 = build_sides(IdentityCase(
        "meixner_2f1_alpha_shift", pick(CANON, "x", "alpha", "beta", "c", "gamma"),
        order=9))
    assert lhs14 == lhs13
    assert rhs14.coefficients == rhs13.coefficients


def test_argument_pairing_is_forced():
    # the two argument scales of the double/triple coefficients are not
    # interchangeable: swapping 1/c and 1/d breaks the identity at order 1
    from hyperconnect import (
        HUMBERT_PHI2,
        MultiVarSpec,
        TruncatedSeries,
        exp_series,
        hyper_series_in_t,
        linear_arg,
        pfq,
        pochhammer,
    )
    from hyperconnect.fields import EXACT as X

    p = {k: CANON[k] for k in ("x", "alpha", "c", "d")}
    x, alpha, c, d = p["x"], p["alpha"], p["c"], p["d"]
    order = 3
    lhs = exp_series(1, order, X) * hyper_series_in_t(
        pfq((-x,), (alpha,)), linear_arg((1 - c) / c), order, X
    )
    import math

    from hyperconnect import family_eval

    def rhs_with(scales):
        rhs = TruncatedSeries.zero(order, X)
        for n in range(order + 1):
            inner = hyper_series_in_t(
                MultiVarSpec(HUMBERT_PHI2, (x, -x, alpha + n)),
                [linear_arg(s) for s in scales], order - n, X,
            )
            coeff = family_eval("meixner", n, x, {"alpha": alpha, "c": d}) \
                / math.factorial(n)
            rhs = rhs + inner.scale(coeff).shifted(n)
        return rhs

    assert lhs.coefficients == rhs_with((1 / d, 1 / c)).coefficients
    swapped = rhs_with((1 / c, 1 / d)).coefficients
    assert swapped[0] == lhs.coefficients[0] and swapped[1] != lhs.coefficients[1]


def test_gauss_two_param_prefactor_is_forced():
    # dropping the extra (1-t)^{-(gamma)} factor from each right-hand term
    # breaks the two-parameter expansion at order 1
    from hyperconnect import binomial_power

    case = IdentityCase("meixner_2f1_two_param",
                        pick(CANON, "x", "alpha", "beta", "c", "d", "gamma"),
                        order=4)
    lhs, rhs = build_sides(case)
    assert lhs.coefficients == rhs.coefficients
    stripped = (rhs * binomial_power(1, -CANON["gamma"], 4)).coefficients
    assert stripped[0] == lhs.coefficients[0] and stripped[1] != lhs.coefficients[1]


_SERIES_CASES = [case for case in acceptance_suite(16)
                 if case.identity in verify_mod.GF_IDENTITIES
                 or case.identity in verify_mod.SPECIALIZATION_CHAINS]


@pytest.mark.parametrize("field", [EXACT, numeric()], ids=["exact", "numeric"])
@pytest.mark.parametrize("case", _SERIES_CASES, ids=[case.identity for case in _SERIES_CASES])
@settings(max_examples=10)
@given(data=st.data())
def test_a_perturbed_rhs_coefficient_fails_at_its_order(case, field, data):
    # one rhs coefficient moved past the tolerance: the report fails at its
    # order, and its deviation is the worst gap of the two sides up to that
    # order (a chain builds one pair of sides, its general identity's)
    order = data.draw(st.integers(0, case.order), label="order")
    i = data.draw(st.integers(0, order), label="i")
    case = dataclasses.replace(case, order=order, field=field)
    general = verify_mod.SPECIALIZATION_CHAINS.get(case.identity, (case.identity,))[0]
    build, built = verify_mod.build_sides, []

    def perturbed(sub):
        lhs, rhs = build(sub)
        assert sub.identity == general
        coefficients = list(rhs.coefficients)
        coefficients[i] += (1 + abs(coefficients[i])) * (
            Fraction(1, 10**9) if field.is_exact else 1e-9)
        built.append((lhs, TruncatedSeries(field, coefficients)))
        return built[-1]

    with unittest.mock.patch.object(verify_mod, "build_sides", perturbed):
        report = verify_case(case)
    [(lhs, rhs)] = built
    worst = max(deviation(lhs.coefficients[j], rhs.coefficients[j]) for j in range(i + 1))
    assert (report.status, report.first_failing_order) == ("fail", i)
    assert report.deviation == worst


def test_specialization_chains_pass():
    for chain, params, order in (
        ("chain_meixner_1f1_c_equals_d", pick(CANON, "x", "alpha", "beta", "c"), 10),
        ("chain_meixner_2f1_d_equals_c",
         pick(CANON, "x", "alpha", "beta", "c", "gamma"), 10),
        ("chain_krawtchouk_1f1_p_equals_q", KRAW, 4),
        ("chain_krawtchouk_1f1_M_equals_N", KRAW, 4),
        ("chain_krawtchouk_2f1_p_equals_q", KRAW, 4),
        ("chain_krawtchouk_2f1_M_equals_N", KRAW, 4),
    ):
        report = verify_case(IdentityCase(chain, params, order=order))
        assert report.status == "pass", (chain, report.detail)
    assert report.detail == ("krawtchouk_2f1_two_param at M = N,"
                             " which collapses to krawtchouk_2f1_prob_shift")


def test_perturbed_side_reports_first_failing_order():
    # harness self-test through a deliberately broken builder
    def broken(params, order, field):
        lhs, rhs = verify_mod.GF_IDENTITIES["meixner_1f1_alpha_shift"][0](
            params, order, field
        )
        bad = list(rhs.coefficients)
        bad[3] += Fraction(1, 1000)
        return lhs, type(rhs)(field, bad)

    verify_mod.GF_IDENTITIES["perturbed_self_test"] = (
        broken, ("x", "alpha", "beta", "c"),
    )
    try:
        case = IdentityCase("perturbed_self_test",
                            pick(CANON, "x", "alpha", "beta", "c"), order=6)
        report = verify_gf_identity(case)
        assert report.status == "fail"
        assert report.first_failing_order == 3
        assert report.deviation == pytest.approx(1e-3)
    finally:
        del verify_mod.GF_IDENTITIES["perturbed_self_test"]


def test_stray_parameters_are_rejected_before_execution():
    cases = [
        IdentityCase("meixner_1f1_alpha_shift",
                     {**pick(CANON, "x", "alpha", "beta", "c"), "d": CANON["d"]},
                     order=4),
        IdentityCase("meixner_alpha_to_beta",
                     {**pick(CANON, "alpha", "beta", "c"),
                      "gamma": CANON["gamma"], "n_max": 3}),
        IdentityCase("meixner_orthogonality",
                     {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 1,
                      "t": Fraction(1, 4)}, field=numeric()),
    ]
    for case in cases:
        report = verify_case(case)
        assert report.status == "error"
        assert "does not take" in report.detail


_ORACLE = IdentityCase("oracle_meixner_alpha", {**pick(CANON, "alpha", "beta", "c"), "n_max": 4})
_INVARIANCE = IdentityCase("gf_invariance", {
    "generating_function": "meixner_exp_gf", "relation": "meixner_alpha_to_beta",
    **pick(CANON, "x", "alpha", "c"), "beta": CANON["alpha"]}, order=4)
_KRAW_SUM = IdentityCase("krawtchouk_sum_1f1", {
    "p": Fraction(1, 2), "q": Fraction(1, 3), "N": 3, "M": 5, "t": Fraction(1, 5), "n": 1})
_ORTH = IdentityCase("meixner_orthogonality",
                     {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 1},
                     field=numeric(1e-9, 1e-9))
# an order equal to n_max agrees with it; another one would be dropped
_RELATION = IdentityCase("meixner_alpha_to_beta", {**pick(CANON, "alpha", "beta", "c"),
                                                   "n_max": 3}, order=3)
_ASC = IdentityCase("oracle_al_salam_carlitz_1", {
    "a_from": Fraction(1, 4), "a_to": Fraction(1, 5), "q": Fraction(1, 3), "n_max": 3},
    field=numeric())


@pytest.mark.parametrize("case, stray, order, refusal", [
    (_ORACLE, {"d": CANON["d"]}, None, "does not take parameter(s) ['d']"),
    (_ORACLE, {"x_samples": (1, 2)}, None, "['x_samples']"),
    (_ORACLE, {}, 7, "reads no order"),
    (_ASC, {}, 3, "reads no order"),
    (IdentityCase("catalog_complete", {}), {"alpha": Fraction(3)}, None, "['alpha']"),
    (IdentityCase("catalog_complete", {}), {}, 2, "reads no order"),
    (IdentityCase("pochhammer_bound_shifted", {}), {"n": 2}, None, "['n']"),
    (IdentityCase("pochhammer_bound_shifted", {}), {}, 3, "reads no order"),
    (_ORTH, {}, 5, "reads no order"),
    (_KRAW_SUM, {}, 5, "reads no order"),
    (_INVARIANCE, {"gamma": Fraction(9)}, None, "['gamma']"),
    (_RELATION, {}, 7, "drop order 7"),
], ids=["table-param", "table-samples", "table-order", "q-table-order", "catalog-param",
        "catalog-order", "grid-param", "grid-order", "lattice-order", "kraw-sum-order",
        "invariance-param", "relation-order-beside-n-max"])
def test_routes_refuse_parameters_and_orders_they_do_not_read(case, stray, order, refusal):
    assert verify_case(case).status == "pass"
    report = verify_case(IdentityCase(case.identity, {**case.params, **stray},
                                      order=case.order if order is None else order,
                                      field=case.field))
    assert report.status == "error"
    assert refusal in report.detail


def test_unknown_identity_is_isolated_in_batches():
    good = IdentityCase("meixner_1f1_alpha_shift",
                        pick(CANON, "x", "alpha", "beta", "c"), order=4)
    bad = IdentityCase("no_such_theorem", {}, order=4)
    reports = batch_verify([good, bad, good])
    assert [r.status for r in reports] == ["pass", "error", "pass"]
    counts = summarize(reports)
    assert counts["pass"] == 2 and counts["error"] == 1 and counts["total"] == 3


def test_empty_batch_has_zero_count_summary():
    reports = batch_verify([])
    assert reports == []
    assert summarize(reports) == {
        "pass": 0, "fail": 0, "error": 0, "inconclusive": 0, "total": 0,
    }


def test_batch_is_order_preserving_and_sequential():
    cases = [
        IdentityCase("meixner_1f1_alpha_shift",
                     pick(CANON, "x", "alpha", "beta", "c"), order=k)
        for k in (2, 3, 4, 5)
    ]
    for threads in (None, 1):
        reports = batch_verify(cases, threads=threads)
        assert [r.case.order for r in reports] == [2, 3, 4, 5]
        assert all(r.status == "pass" for r in reports)
    # a thread count the batch would ignore is refused
    for threads in (0, 2, 4):
        with pytest.raises(DomainError, match="sequentially"):
            batch_verify(cases, threads=threads)


def test_connection_relation_verifier():
    report = verify_connection_relation(
        "meixner_alpha_c_to_beta_d", pick(CANON, "alpha", "beta", "c", "d"), 8
    )
    assert report.status == "pass" and report.deviation == 0.0
    report = verify_connection_relation(
        "krawtchouk_same_p_N_to_M",
        {"p": Fraction(1, 2), "N": 4, "M": 7}, 4,
    )
    assert report.status == "pass"
    # d = c degenerates to the identity and still passes
    report = verify_connection_relation(
        "meixner_same_alpha_c_to_d",
        {"alpha": CANON["alpha"], "c": CANON["c"], "d": CANON["c"]}, 6,
    )
    assert report.status == "pass"


def test_orthogonality_moments_pass():
    for n, m in ((0, 0), (2, 2), (4, 4), (3, 1), (4, 0)):
        case = IdentityCase(
            "meixner_orthogonality",
            {"alpha": Fraction(2), "c": Fraction(1, 2), "n": n, "m": m},
            field=numeric(1e-9, 1e-9),
        )
        report = verify_orthogonality_sum(case)
        assert report.status == "pass", (n, m, report.deviation)
        assert report.terms_summed == 301
        assert report.tail_bound < 1e-20


def test_confluent_sum_at_t_zero_degenerates_to_binomial_theorem():
    # at n = 0, t = 0 both sides are (1-c)^{-beta}
    case = IdentityCase(
        "meixner_sum_1f1_same_c",
        {"alpha": Fraction(2), "beta": Fraction(3), "c": Fraction(1, 2),
         "t": Fraction(0), "n": 0},
        field=numeric(1e-12, 1e-12),
    )
    report = verify_orthogonality_sum(case)
    assert report.status == "pass"
    kernel = verify_mod._confluent_kernel(alpha=Fraction(2), c=Fraction(1, 2), t=Fraction(0))
    values = kernel_weight_values(kernel, Fraction(3), Fraction(1, 2), 40)
    assert all(v == weight(Fraction(3), Fraction(1, 2), x) for x, v in enumerate(values))
    (acc, chain), _ = verify_mod._lattice_sum([1] * 200, 1, verify_mod._CONSTANT_KERNEL,
                                              Fraction(3), Fraction(1, 2))
    assert abs(acc / chain - (1 - 0.5) ** -3.0) < 1e-12


def test_confluent_sum_matches_closed_form():
    case = IdentityCase(
        "meixner_sum_1f1_same_c",
        {"alpha": Fraction(2), "beta": Fraction(3), "c": Fraction(1, 2),
         "t": Fraction(1, 4), "n": 3},
        field=numeric(1e-10, 0.0),
    )
    report = verify_orthogonality_sum(case)
    assert report.status == "pass"
    assert report.deviation + report.tail_bound < 1e-10


def test_sum_identities_at_non_integer_beta():
    # the closed forms carry (1-c)^{-beta}; exercise the non-integer powers
    tol = numeric(1e-10, 0.0)
    for ident, params in (
        ("meixner_sum_1f1_same_c",
         {"alpha": Fraction(5, 2), "beta": Fraction(7, 3), "c": Fraction(2, 5),
          "t": Fraction(1, 5), "n": 2}),
        ("meixner_sum_1f1_two_param",
         {"alpha": Fraction(5, 2), "beta": Fraction(7, 3), "c": Fraction(2, 5),
          "d": Fraction(1, 3), "t": Fraction(1, 5), "n": 2}),
        ("meixner_sum_2f1_same_c",
         {"alpha": Fraction(5, 2), "beta": Fraction(7, 3), "gamma": Fraction(3, 4),
          "c": Fraction(2, 5), "t": Fraction(1, 5), "n": 2}),
        ("meixner_sum_2f1_two_param",
         {"alpha": Fraction(5, 2), "beta": Fraction(7, 3), "gamma": Fraction(3, 4),
          "c": Fraction(1, 2), "d": Fraction(2, 5), "t": Fraction(1, 5), "n": 2}),
    ):
        report = verify_orthogonality_sum(IdentityCase(ident, params, field=tol))
        assert report.status == "pass", (ident, report.deviation)


def test_gauss_sum_conditions_are_enforced():
    case = IdentityCase(
        "meixner_sum_2f1_same_c",
        {"alpha": Fraction(2), "beta": Fraction(3), "gamma": Fraction(5, 4),
         "c": Fraction(1, 2), "t": Fraction(9, 10), "n": 1},
        field=numeric(1e-10, 0.0),
    )
    report = verify_orthogonality_sum(case)
    assert report.status == "error"
    assert "|t(1-c)|" in report.detail


def test_small_tail_cap_is_inconclusive_not_fail():
    case = IdentityCase(
        "meixner_orthogonality",
        {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 4, "m": 4},
        field=numeric(1e-9, 1e-9), x_max=12,
    )
    report = verify_orthogonality_sum(case)
    assert report.status == "inconclusive"


def test_krawtchouk_sums_exact():
    params = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 3, "M": 5,
              "t": Fraction(1, 5), "n": 2}
    report = verify_orthogonality_sum(IdentityCase("krawtchouk_sum_1f1", params))
    assert report.status == "pass" and report.deviation == 0.0
    report = verify_orthogonality_sum(
        IdentityCase("krawtchouk_sum_2f1", {**params, "gamma": Fraction(5, 4)})
    )
    assert report.status == "pass" and report.deviation == 0.0


def _inline_krawtchouk_verdict(field, lhs, rhs, terms):
    """(status, repr(deviation), terms_summed, tail_bound) of a finite
    Krawtchouk sum by the rule it once had inline: literal equality on the
    exact field, |lhs - rhs| <= atol + rtol |rhs| on doubles."""
    if field.is_exact:
        status, deviation = "pass" if lhs == rhs else "fail", abs(float(lhs - rhs))
    else:
        deviation = abs(float(lhs) - float(rhs))
        status = "pass" if deviation <= field.atol + field.rtol * abs(float(rhs)) else "fail"
    return status, repr(deviation), terms, 0.0


@pytest.mark.parametrize("field", [EXACT, numeric()], ids=["exact", "numeric"])
@pytest.mark.parametrize("scale", [1, Fraction(1001, 1000)], ids=["pass", "perturbed"])
@pytest.mark.parametrize("identity, gf_id", [
    ("krawtchouk_sum_1f1", "krawtchouk_1f1_two_param"),
    ("krawtchouk_sum_2f1", "krawtchouk_2f1_two_param"),
])
def test_krawtchouk_sums_keep_their_inline_verdict(monkeypatch, identity, gf_id, scale, field):
    # the rhs is (t(q-1)/p)^n (gamma)_n / (-N)_n inner_n(t), so scaling inner_n
    # scales it; unscaled, it equals the exact lhs
    spec, names = verify_mod.GF_IDENTITIES[gf_id]
    inner = verify_mod.GFSpec.inner
    monkeypatch.setattr(verify_mod.GFSpec, "inner",
                        lambda self, *args, **kw: inner(self, *args, **kw).scale(scale))
    params = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 3, "M": 5, "t": Fraction(1, 5),
              "n": 2, **({"gamma": Fraction(5, 4)} if "gamma" in names else {})}
    p, q, N, t, n = (params[k] for k in ("p", "q", "N", "t", "n"))
    lhs = ((t * (q - 1) / p) ** n / pochhammer(-N, n)
           * (pochhammer(params["gamma"], n) if "gamma" in params else 1)
           * inner(spec, n, N - n, EXACT, **pick(params, *names[1:])).evaluate(t))
    report = verify_orthogonality_sum(IdentityCase(identity, params, field=field))
    assert report.status == ("pass" if scale == 1 else "fail")
    assert (report.status, repr(report.deviation), report.terms_summed, report.tail_bound) \
        == _inline_krawtchouk_verdict(field, lhs, lhs * scale, params["M"] + 1)


def test_invariance_under_degenerate_relations():
    case = IdentityCase("gf_invariance", {
        "generating_function": "meixner_product_gf",
        "relation": "meixner_alpha_to_beta",
        "x": CANON["x"], "alpha": CANON["alpha"], "c": CANON["c"],
        "beta": CANON["alpha"],
    }, order=10)
    assert verify_gf_invariance(case).status == "pass"
    case = IdentityCase("gf_invariance", {
        "generating_function": "krawtchouk_gauss_gf",
        "relation": "krawtchouk_same_p_N_to_M",
        "x": KRAW["x"], "p": KRAW["p"], "N": KRAW["N"], "M": KRAW["N"],
        "gamma": KRAW["gamma"],
    }, order=4)
    assert verify_gf_invariance(case).status == "pass"


INVARIANCE_UNDER_REAL_RELATIONS = [
    (gf_id, relation)
    for gf_id, (family, *_) in verify_mod._PLAIN_GFS.items()
    for relation in verify_mod.conn.relation_ids()
    if verify_mod.conn.get_relation(relation).family == family
]


def real_invariance_case(gf_id, relation, order=12):
    """gf_invariance at bindings that make the table a real one: beta !=
    alpha, d != c, q != p and M > N, with Krawtchouk's N below the order."""
    family, names, _, _ = verify_mod._PLAIN_GFS[gf_id]
    binding = CANON if family == "meixner" else KRAW
    spec = verify_mod.conn.get_relation(relation)
    return IdentityCase("gf_invariance", {
        "generating_function": gf_id, "relation": relation,
        **pick(binding, *names, *spec.names)}, order=order)


@pytest.mark.parametrize("gf_id, relation", INVARIANCE_UNDER_REAL_RELATIONS)
def test_invariance_under_real_relations(gf_id, relation):
    report = verify_gf_invariance(real_invariance_case(gf_id, relation))
    assert (report.status, report.deviation) == ("pass", 0.0), report.detail


def test_invariance_fails_for_a_wrong_table(monkeypatch):
    """The table must be the relation's own: one built for another beta,
    or from a mutated declaration, changes the re-expanded series."""
    case = real_invariance_case("meixner_gauss_gf", "meixner_alpha_to_beta")
    table = verify_mod.conn.connection_table
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod.conn, "connection_table", lambda relation, params, *rest:
                      table(relation, {**params, "beta": params["beta"] + 1}, *rest))
        assert verify_gf_invariance(case).status == "fail"
    spec = verify_mod.conn.get_relation("meixner_alpha_to_beta")
    mutant = dataclasses.replace(spec, entries=functools.partial(
        verify_mod.conn._terms, lambda alpha, beta, **_: (
            ((alpha - beta,), 1), ((beta,), Fraction(11, 10)), ((alpha,), 1))))
    monkeypatch.setitem(verify_mod.conn._RELATIONS, spec.id, mutant)
    report = verify_gf_invariance(case)
    assert (report.status, report.first_failing_order) == ("fail", 1)


def test_report_json_round_trip():
    case = IdentityCase("meixner_1f1_alpha_shift",
                        pick(CANON, "x", "alpha", "beta", "c"), order=5)
    report = verify_gf_identity(case)
    doc = report.as_json()
    assert set(doc) == {"case", "status", "deviation", "first_failing_order",
                        "terms_summed", "tail_bound", "detail", "millis"}
    text = json.dumps(doc)
    back = VerificationReport.from_json(json.loads(text))
    assert back.status == report.status
    assert back.case.identity == case.identity
    assert back.case.params["alpha"] == CANON["alpha"]
    assert back.case.order == 5


def test_acceptance_suite_shape():
    cases = verify_mod.acceptance_suite(order=6)
    identities = [c.identity for c in cases]
    assert "meixner_2f1_two_param" in identities
    assert "krawtchouk_sum_2f1" in identities
    assert identities.count("gf_invariance") == 10
    assert "catalog_complete" in identities


def test_kernel_recurrences_match_direct_sums():
    from hyperconnect import pfq, pfq_eval

    # at c = 1/2 the kernel arguments are z = t = 1/4 and w = t/(1-t) = 1/3
    alpha, c, t, beta, d = Fraction(2), Fraction(1, 2), Fraction(1, 4), Fraction(3), Fraction(2, 3)
    z, w = Fraction(1, 4), Fraction(1, 3)
    values = kernel_weight_values(verify_mod._confluent_kernel(alpha, c, t), beta, d, 25)
    for x in range(25):
        direct = pfq_eval(pfq((Fraction(-x),), (alpha,)), z)
        assert values[x] == direct * weight(beta, d, x)
    gamma = Fraction(5, 4)
    values = kernel_weight_values(verify_mod._gauss_kernel(alpha, gamma, c, t), beta, d, 25)
    for x in range(25):
        direct = pfq_eval(pfq((Fraction(-x), gamma), (alpha,)), w)
        assert values[x] == direct * weight(beta, d, x)


def test_malformed_cases_become_error_reports_in_batches():
    good = IdentityCase("meixner_1f1_alpha_shift",
                        pick(CANON, "x", "alpha", "beta", "c"), order=4)
    invariance = {
        "generating_function": "meixner_exp_gf", "relation": "meixner_alpha_to_beta",
        "x": CANON["x"], "alpha": CANON["alpha"], "c": CANON["c"],
        "beta": CANON["alpha"],
    }
    malformed = [
        IdentityCase("oracle_krawtchouk",
                     {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 4, "M": 7}),
        IdentityCase("chain_meixner_1f1_c_equals_d",
                     pick(CANON, "x", "alpha", "c"), order=4),
        IdentityCase("gf_invariance", {**invariance, "generating_function": "nope"},
                     order=4),
        IdentityCase("gf_invariance", invariance),
    ]
    reports = batch_verify([good, *malformed, good])
    assert [r.status for r in reports] == ["pass"] + ["error"] * 4 + ["pass"]
    assert all(r.detail.startswith("DomainError") for r in reports[1:5])
    malformed = [
        IdentityCase("meixner_orthogonality",
                     {"alpha": complex(2, 1), "c": Fraction(1, 2), "n": 1, "m": 1},
                     field=numeric(), x_max=10),
        IdentityCase("meixner_alpha_to_beta",
                     {**pick(CANON, "alpha", "beta", "c"), "n_max": 3,
                      "x_samples": Fraction(1)}),
        IdentityCase("meixner_1f1_alpha_shift",
                     pick(CANON, "x", "alpha", "beta", "c"), order=-1),
        # an empty lattice sum used to pass against the zero rhs of m != n
        IdentityCase("meixner_orthogonality",
                     {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 0},
                     field=numeric(), x_max=-1),
    ]
    reports = batch_verify(malformed)
    assert [r.status for r in reports] == ["error"] * 4
    assert "order = -1 is outside the budget 0 <= order <= 200" in reports[2].detail


def test_exact_zero_term_gives_no_tail_bound():
    # M_1(3; 3, 1/2) = 0 exactly, so the last summed term vanishes; its ratio
    # to the next term says nothing about the tail
    case = IdentityCase(
        "meixner_orthogonality",
        {"alpha": Fraction(3), "c": Fraction(1, 2), "n": 1, "m": 1},
        field=numeric(), x_max=3,
    )
    report = verify_case(case)
    assert report.status == "inconclusive"
    assert report.tail_bound == float("inf")
    assert verify_mod._tail_bound([(1, 1), (1, 2), (0, 4)]) is None


def test_tail_bound_reads_each_pair_as_its_quotient():
    # each (term, chain) pair is read as term / chain, reduced or not: terms
    # 8, 4, 2, 1 decay by 1/2 and leave a geometric tail of 1
    assert verify_mod._tail_bound([(8, 1), (4, 1), (2, 1), (1, 1)]) == 1.0
    assert verify_mod._tail_bound([(16, 2), (-12, 3), (8, 4), (5, 5)]) == 1.0
    # nonzero pairs that all round to 0.0 leave nothing a double can see,
    # an exact zero no bound
    tiny = [(1, 10**400), (-1, 10**401), (1, 10**402), (1, 10**403)]
    assert verify_mod._tail_bound(tiny) == 0.0
    assert verify_mod._tail_bound(tiny[:3] + [(0, 10**403)]) is None


def test_case_json_round_trip_keeps_tolerances():
    for field in (numeric(1e-10, 0.0), numeric(1e-7, 1e-3), numeric()):
        case = IdentityCase("meixner_orthogonality",
                            {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 0},
                            field=field, x_max=40)
        back = IdentityCase.from_json(json.loads(json.dumps(case.as_json())))
        assert back == case
    exact = IdentityCase("meixner_1f1_alpha_shift", pick(CANON, "x", "alpha", "beta", "c"),
                         order=3)
    assert IdentityCase.from_json(exact.as_json()) == exact
    # documents written without tolerances load with the defaults
    doc = {**case.as_json(), "field": "numeric"}
    del doc["atol"], doc["rtol"]
    assert IdentityCase.from_json(doc).field == numeric()


# -- Meixner lattice sums against a direct Fraction sum ----------------------


def poch(a, k):
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def kernel_weight_values(kernel, beta, d, count):
    """kernel(x) (beta)_x d^x / x! as Fractions, x = 0..count-1, each the last
    term of the engine's sum of the unit polynomial up to x."""
    values = []
    for x in range(count):
        _, tail = verify_mod._lattice_sum([1] * (x + 1), 1, kernel, beta, d)
        values.append(Fraction(*tail[-1]))
    return values


def weight(beta, d, x):
    return poch(beta, x) * d**x / math.factorial(x)


def direct_meixner(n, x, beta, d):
    """M_n(x; beta, d) = 2F1(-n, -x; beta; 1 - 1/d)."""
    return sum(poch(-n, k) * poch(-x, k) * (1 - 1 / d) ** k / (poch(beta, k) * math.factorial(k))
               for k in range(n + 1))


def direct_1f1(x, alpha, z):
    return sum(poch(-x, k) * z**k / (poch(alpha, k) * math.factorial(k)) for k in range(x + 1))


def direct_2f1(x, gamma, alpha, w):
    return sum(poch(-x, k) * poch(gamma, k) * w**k / (poch(alpha, k) * math.factorial(k))
               for k in range(x + 1))


def gauss_arg(c, t):
    return t * (1 - c) / (c * (1 - t))


DIRECT_SUMMANDS = {
    "meixner_orthogonality": lambda x, n, alpha, c, m: (
        direct_meixner(n, x, alpha, c) * direct_meixner(m, x, alpha, c) * weight(alpha, c, x)),
    "meixner_sum_1f1_same_c": lambda x, n, alpha, beta, c, t: (
        direct_1f1(x, alpha, t * (1 - c) / c) * direct_meixner(n, x, beta, c)
        * weight(beta, c, x)),
    "meixner_sum_1f1_two_param": lambda x, n, alpha, beta, c, d, t: (
        direct_1f1(x, alpha, t * (1 - c) / c) * direct_meixner(n, x, beta, d)
        * weight(beta, d, x)),
    "meixner_sum_2f1_same_c": lambda x, n, alpha, beta, gamma, c, t: (
        direct_2f1(x, gamma, alpha, gauss_arg(c, t)) * direct_meixner(n, x, beta, c)
        * weight(beta, c, x)),
    "meixner_sum_2f1_two_param": lambda x, n, alpha, beta, gamma, c, d, t: (
        direct_2f1(x, gamma, alpha, gauss_arg(c, t)) * direct_meixner(n, x, beta, d)
        * weight(beta, d, x)),
}

LATTICE_PARAMS = {
    "meixner_orthogonality": {"alpha": Fraction(3, 2), "c": Fraction(2, 5), "m": 2},
    "meixner_sum_1f1_same_c": {"alpha": Fraction(5, 2), "beta": Fraction(7, 3),
                               "c": Fraction(2, 5), "t": Fraction(1, 5)},
    "meixner_sum_1f1_two_param": {"alpha": Fraction(5, 2), "beta": Fraction(7, 3),
                                  "c": Fraction(2, 5), "d": Fraction(1, 3),
                                  "t": Fraction(-3, 4)},
    "meixner_sum_2f1_same_c": {"alpha": Fraction(5, 2), "beta": Fraction(7, 3),
                               "gamma": Fraction(3, 4), "c": Fraction(2, 5),
                               "t": Fraction(1, 5)},
    "meixner_sum_2f1_two_param": {"alpha": Fraction(5, 2), "beta": Fraction(7, 3),
                                  "gamma": Fraction(3, 4), "c": Fraction(1, 2),
                                  "d": Fraction(2, 5), "t": Fraction(1, 5)},
}


def check_against_direct_sum(identity, n, x_max, params):
    engine, _ = verify_mod.ORTHOGONALITY_IDS[identity]
    terms = [DIRECT_SUMMANDS[identity](x, n, **params) for x in range(x_max + 1)]
    (acc, chain), tail = engine.partial_sum(n, x_max, **params)
    assert Fraction(acc, chain) == sum(terms)
    assert [Fraction(term, den) for term, den in tail] == terms[-4:]
    report = verify_case(IdentityCase(identity, {**params, "n": n},
                                      field=numeric(1e-9, 1e-9), x_max=x_max))
    assert report.terms_summed == x_max + 1
    rhs, _ = engine.rhs(n, **params)
    assert report.deviation == abs(float(sum(terms)) - float(rhs))


@pytest.mark.parametrize("x_max", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("identity", sorted(DIRECT_SUMMANDS))
def test_lattice_sum_matches_direct_fraction_sum(identity, x_max):
    # n = 5 exceeds every x_max but 40; the orthogonality rows take m = 2,
    # so n = 2 is the diagonal and n = 0, 5 are not
    for n in (0, 2, 5):
        check_against_direct_sum(identity, n, x_max, LATTICE_PARAMS[identity])


def small_rationals(low, high, max_den=9):
    """Rationals in the open interval (low, high) with denominators <= max_den."""
    return st.integers(2, max_den).flatmap(
        lambda den: st.integers(math.floor(low * den) + 1, math.ceil(high * den) - 1).map(
            lambda num: Fraction(num, den)))


@st.composite
def chain_bindings(draw):
    """Every name a chain's rows read, in their domain: alpha, beta and gamma
    off {0, -1, ...}, c, d, p and q in (0, 1), 0 <= N <= M."""
    off_poles = small_rationals(-6, 6).filter(lambda v: v > 0 or v.denominator > 1)
    N = draw(st.integers(0, 6))
    return {"x": draw(small_rationals(-6, 6)), "alpha": draw(off_poles),
            "beta": draw(off_poles), "gamma": draw(off_poles),
            **{name: draw(small_rationals(0, 1)) for name in ("c", "d", "p", "q")},
            "N": N, "M": draw(st.integers(N, 8))}


@settings(max_examples=20)
@given(values=chain_bindings(), order=st.integers(0, 8))
@pytest.mark.parametrize("chain", sorted(verify_mod.SPECIALIZATION_CHAINS))
def test_a_chain_is_its_general_identity_at_the_degenerate_binding(chain, values, order):
    """A chain reports what its general identity's own case reports at the
    degenerate binding, and the identity it collapses to passes there."""
    general, (bound, source), special = verify_mod.SPECIALIZATION_CHAINS[chain]
    degenerate = {**values, bound: values[source]}
    report = verify_case(IdentityCase(
        chain, pick(values, *verify_mod._chain_names(chain)), order=order))
    own, collapsed = (verify_case(IdentityCase(
        identity, pick(degenerate, *verify_mod.GF_IDENTITIES[identity][1]), order=order))
        for identity in (general, special))
    assert (report.status, report.deviation, report.first_failing_order) == (
        own.status, own.deviation, own.first_failing_order) == ("pass", 0.0, None), own.detail
    assert collapsed.status == "pass", collapsed.detail


# -- the Gauss inners against the series they expand --------------------------


def _stream_terms(tops, bottoms, z, order):
    """prod (a)_k / prod (b)_k z^k / k!, k = 0..order, one term from the
    last: zero from the first zero term on, PoleError at a nonzero term whose
    next ratio meets a vanishing (b)_k."""
    out = [Fraction(1)]
    for k in range(order):
        num = math.prod([a + k for a in tops], start=Fraction(1))
        if out[-1] == 0 or num == 0:
            out.append(Fraction(0))
            continue
        den = math.prod([b + k for b in bottoms], start=Fraction(k + 1))
        if den == 0:
            raise PoleError(f"pole at term {k + 1}")
        out.append(out[-1] * num * z / den)
    return out


def _cauchy(left, right):
    return [sum((left[i] * right[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(len(left))]


def _inner_oracle(tops, a, b, w, order):
    """(1-t)^(-lam) 2F1(lam, a; b; -w t/(1-t)) for tops = (lam,), by the
    binomial sums of the 2F1 row at -w t times the (1-t)^(-lam) row; e^t
    1F1(a; b; -w t) for tops = (), by the Cauchy product."""
    if not tops:
        return _cauchy(_stream_terms((), (), 1, order), _stream_terms((a,), (b,), -w, order))
    c = _stream_terms((*tops, a), (b,), -w, order)
    lifted = c[:1] + [sum((c[k] * math.comb(j - 1, k - 1) for k in range(1, j + 1)), Fraction(0))
                      for j in range(1, order + 1)]
    return _cauchy(_stream_terms(tops, (), 1, order), lifted)


def _pole_or(produce):
    try:
        return produce()
    except PoleError:
        return "PoleError"


EDGES = st.one_of(small_rationals(-4, 4), st.integers(-5, 0).map(Fraction))
RATES = small_rationals(0, 1)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(0, 4), order=st.integers(0, 8))
def test_meixner_gauss_inner_equals_the_mobius_series_it_expands(data, n, order):
    # alpha and gamma reach -N0: a vanishing (alpha+n)_k and a terminating gamma+n
    alpha, beta, gamma = (data.draw(EDGES, name) for name in ("alpha", "beta", "gamma"))
    c = data.draw(RATES, "c")
    d = data.draw(st.one_of(st.just(c), RATES), "d")
    spec = verify_mod.GF_IDENTITIES["meixner_2f1_two_param"][0]
    got = _pole_or(lambda: list(spec.inner(n, order, EXACT, alpha=alpha, beta=beta, c=c, d=d,
                                           gamma=gamma).coefficients))
    w = d * (1 - c) / (c * (1 - d))
    assert got == _pole_or(lambda: _inner_oracle((gamma + n,), beta + n, alpha + n, w, order))


@settings(max_examples=150)
@given(data=st.data(), identity=st.sampled_from(["krawtchouk_1f1_two_param",
                                                 "krawtchouk_2f1_two_param"]))
def test_krawtchouk_gauss_inners_equal_the_series_they_expand(data, identity):
    cap = data.draw(st.integers(0, 8), "N")
    big = data.draw(st.one_of(st.just(cap), st.integers(cap, 10)), "M")
    p = data.draw(RATES, "p")
    q = data.draw(st.one_of(st.just(p), RATES), "q")
    gamma = data.draw(EDGES, "gamma")
    n = data.draw(st.integers(0, cap), "n")
    order = data.draw(st.integers(0, cap - n), "order")  # the capped builder's inner order
    spec = verify_mod.GF_IDENTITIES[identity][0]
    got = list(spec.inner(n, order, EXACT, p=p, q=q, N=cap, M=big, gamma=gamma).coefficients)
    tops = (gamma + n,) if "2f1" in identity else ()
    assert got == _inner_oracle(tops, Fraction(n - big), Fraction(n - cap), q / p, order)


LATTICE_DRAWS = {
    "alpha": small_rationals(0, 6), "beta": small_rationals(0, 6),
    "gamma": small_rationals(-3, 3), "c": small_rationals(0, 1),
    "d": small_rationals(0, 1), "t": small_rationals(-1, 1), "m": st.integers(0, 6),
}


@settings(max_examples=20)
@given(data=st.data())
@pytest.mark.parametrize("identity", sorted(DIRECT_SUMMANDS))
def test_lattice_sum_property(identity, data):
    engine, names = verify_mod.ORTHOGONALITY_IDS[identity]
    params = {k: data.draw(LATTICE_DRAWS[k], label=k) for k in names if k != "n"}
    assume(engine.domain(**params))
    n = data.draw(st.integers(0, 6), label="n")
    x_max = data.draw(st.integers(0, 24), label="x_max")
    check_against_direct_sum(identity, n, x_max, params)


@pytest.mark.parametrize("identity", sorted(DIRECT_SUMMANDS))
def test_lattice_verdict_reads_the_double_of_the_reduced_sum(identity):
    # at workload size the sum and its tail are read as integer quotients:
    # the deviation and the tail bound are those of the reduced Fractions
    params = LATTICE_PARAMS[identity]
    engine, _ = verify_mod.ORTHOGONALITY_IDS[identity]
    (acc, chain), tail = engine.partial_sum(3, 300, **params)
    rhs, _ = engine.rhs(3, **params)
    report = verify_case(IdentityCase(identity, {**params, "n": 3}, field=numeric(),
                                      x_max=300))
    assert report.deviation == abs(float(Fraction(acc, chain)) - float(rhs))
    reduced = [Fraction(term, den) for term, den in tail]
    assert report.tail_bound == verify_mod._tail_bound(
        [(f.numerator, f.denominator) for f in reduced])


def test_diagonal_orthogonality_builds_the_row_once(monkeypatch):
    degrees = []
    row = verify_mod._meixner_row

    def counted(n, *args):
        degrees.append(n)
        return row(n, *args)

    monkeypatch.setattr(verify_mod, "_meixner_row", counted)
    for m, built in ((3, [3]), (1, [1, 3])):
        degrees.clear()
        report = verify_case(IdentityCase(
            "meixner_orthogonality",
            {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 3, "m": m},
            field=numeric(1e-9, 1e-9)))
        assert report.status == "pass"
        assert sorted(degrees) == built


def horner_meixner_row(n, beta, d, count):
    """The Meixner row by an integer Horner pass over (-x)_k at each x."""
    from hyperconnect.series import hypergeometric_terms

    coeffs, den = hypergeometric_terms((-n,), (beta,), 1 - 1 / d, n)
    row = []
    for x in range(count):
        total = 0
        for k in range(n, -1, -1):
            total = coeffs[k] + (k - x) * total
        row.append(total)
    return row, den


def stepwise_partial_sum(engine, n, x_max, **params):
    """``LatticeSum.partial_sum`` as three stages: Horner rows, a generator of
    the (u_x, step_x) of the kernel times the weight, and a Horner sum over
    it that keeps a term for each x."""
    from hyperconnect.fields import integer_linear

    count = x_max + 1
    beta, d = engine.poly(**params)
    poly, den = [1] * count, 1
    for k in engine.degrees(n, **params):
        row, row_den = horner_meixner_row(k, beta, d, count)
        poly, den = [a * b for a, b in zip(poly, row)], den * row_den

    def kernel_weight_rows():
        (p0, p1), (q0, q1), (s0, s1) = integer_linear(*engine.kernel(**params))
        (a0, a1), (b0, b1) = integer_linear((beta * d, d), (1, 1))
        u_prev, u, ap_prev, step = 0, 1, 0, 1
        for x in range(count):
            yield u, step
            a, p = a0 + a1 * x, p0 + p1 * x
            u_prev, u = u, a * ((q0 + q1 * x) * u - (s0 + s1 * x) * ap_prev * u_prev)
            ap_prev, step = a * p, (b0 + b1 * x) * p

    acc, chain, terms = 0, den, []
    for value, (u, step) in zip(poly, kernel_weight_rows()):
        chain *= step
        term = value * u
        acc = acc * step + term
        terms.append((term, chain))
    return (acc, chain), terms[-4:]


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(0, 12))
def test_meixner_row_by_running_sums_equals_the_horner_row(data, n):
    count = data.draw(st.sampled_from(sorted({1, 2, max(n, 1), n + 1, 301})), "count")
    beta = data.draw(small_rationals(-4, 6), "beta")
    assume(not (beta.denominator == 1 and beta <= 0))  # (beta)_k vanishes: no row
    d = data.draw(small_rationals(0, 2), "d")
    assert verify_mod._meixner_row(n, beta, d, count) == horner_meixner_row(n, beta, d, count)


@settings(max_examples=20)
@given(data=st.data())
@pytest.mark.parametrize("identity", sorted(DIRECT_SUMMANDS))
def test_partial_sum_forms_the_integers_of_the_stepwise_sum(identity, data):
    engine, names = verify_mod.ORTHOGONALITY_IDS[identity]
    params = {k: data.draw(LATTICE_DRAWS[k], label=k) for k in names if k != "n"}
    assume(engine.domain(**params))
    n = data.draw(st.integers(0, 7), label="n")
    x_max = data.draw(st.one_of(st.integers(0, 8), st.just(300)), label="x_max")
    assert engine.partial_sum(n, x_max, **params) == stepwise_partial_sum(
        engine, n, x_max, **params)


def test_a_lattice_sum_past_the_budget_is_refused_before_any_row(monkeypatch, capsys):
    from hyperconnect.cli import main

    def unbuilt(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(verify_mod, "_meixner_row", unbuilt)
    params = {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 1}
    big = 10**19
    refused = [
        ({}, big, f"x_max = {big} is outside the budget 0 <= x_max <= 10000"),
        ({}, verify_mod.LATTICE_X_MAX + 1, "x_max = 10001 is outside the budget"),
        ({}, -1, "x_max = -1 is outside the budget"),
        ({"n": big}, 300, f"n = {big} is past the budget n <= 100"),
        ({"m": Fraction(101)}, 300, "m = 101 is past the budget m <= 100"),
        ({"m": 100.5}, 300, "m = 100.5 is past the budget"),
    ]
    cases = [IdentityCase("meixner_orthogonality", {**params, **change}, field=numeric(),
                          x_max=x_max) for change, x_max, _ in refused]
    for report, (_, _, text) in zip(batch_verify(cases), refused):
        assert report.status == "error"
        assert report.detail.startswith("DomainError: meixner_orthogonality: " + text)
    at_budget = IdentityCase("meixner_sum_1f1_same_c", {
        "alpha": Fraction(2), "beta": Fraction(3), "c": Fraction(1, 2), "t": Fraction(1, 4),
        "n": verify_mod.LATTICE_DEGREE}, field=numeric(), x_max=verify_mod.LATTICE_X_MAX)
    assert verify_mod.check_sizes(at_budget) is None
    flags = ["verify", "--identity", "meixner_orthogonality", "--alpha", "2", "--c", "1/2",
             "--backend", "numeric"]
    for extra, text in ((["--n", "1", "--m", "1", "--x-max", str(big)], "x_max = "),
                        (["--n", "101", "--m", "1"], "n = 101 is past the budget"),
                        (["--n", "1", "--m", "1000000"], "m = 1000000 is past")):
        assert main(flags + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and text in err


def test_an_order_or_n_max_past_the_budget_is_refused_before_any_build(monkeypatch, capsys):
    from hyperconnect import connection as conn_mod
    from hyperconnect.cli import main

    def unbuilt(*args, **kwargs):
        raise AssertionError("a series or table was built")

    for module, name in ((verify_mod, "build_sides"), (families_mod, "gf_expand"),
                         (conn_mod, "connection_table"), (conn_mod, "power_collect"),
                         (conn_mod, "connect_linear_solve")):
        monkeypatch.setattr(module, name, unbuilt)
    big, top = 10**19, verify_mod.SIZE_MAX
    assert top == 200
    invariance = {"generating_function": "meixner_exp_gf", "relation": "meixner_alpha_to_beta",
                  **pick(CANON, "x", "alpha", "beta", "c")}
    meixner = pick(CANON, "alpha", "beta", "c")
    refused = [
        (IdentityCase("meixner_1f1_alpha_shift", pick(CANON, "x", "alpha", "beta", "c"),
                      order=big), f"order = {big}"),
        (IdentityCase("chain_meixner_1f1_c_equals_d", pick(CANON, "x", "alpha", "beta", "c"),
                      order=top + 1), "order = 201"),
        (IdentityCase("gf_invariance", invariance, order=-1), "order = -1"),
        (IdentityCase("gf_matches_eval", {"family": "meixner", **pick(CANON, "x", "alpha", "c")},
                      order=top + 1), "order = 201"),
        (IdentityCase("meixner_alpha_to_beta", meixner, order=top + 1), "order = 201"),
        (IdentityCase("meixner_alpha_to_beta", {**meixner, "n_max": big}), f"n_max = {big}"),
        (IdentityCase("oracle_meixner_alpha", {**meixner, "n_max": Fraction(201)}),
         "n_max = 201"),
    ]
    reports = batch_verify([case for case, _ in refused])
    reports.append(verify_connection_relation("meixner_alpha_to_beta", meixner, top + 1))
    refused.append((reports[-1].case, "n_max = 201"))
    for report, (case, text) in zip(reports, refused):
        name = text.split(" ")[0]
        assert (report.status, report.detail) == ("error", f"DomainError: {case.identity}: {text}"
                                                  f" is outside the budget 0 <= {name} <= 200")
    assert verify_mod.check_sizes(IdentityCase("meixner_alpha_to_beta",
                                               {**meixner, "n_max": top}, order=top)) is None
    meixner_flags = ["--alpha", "3/2", "--beta", "7/3", "--c", "2/5"]
    for argv, text in (
        (["verify", "--identity", "meixner_1f1_alpha_shift", "--x", "4", *meixner_flags,
          "--order", "201"], "meixner_1f1_alpha_shift: order = 201 is outside the budget"),
        (["verify", "--identity", "meixner_alpha_to_beta", *meixner_flags, "--n-max", str(big)],
         f"meixner_alpha_to_beta: n_max = {big} is outside the budget 0 <= n_max <= 200"),
        (["verify", "--suite", "acceptance", "--order", "1000000"],
         "the acceptance suite: order = 1000000 is outside the budget"),
        (["expand", "--family", "meixner", "--x", "4", "--alpha", "3/2", "--c", "2/5",
          "--order", "201"], "expand: order = 201 is outside the budget"),
        (["connect", "--relation", "meixner_alpha_to_beta", *meixner_flags, "--n-max", "201"],
         "connect: n_max = 201 is outside the budget"),
        (["connect", "--family", "meixner", "--method", "linear-solve", "--source",
          "alpha=1,c=1/2", "--target", "alpha=2,c=1/2", "--n-max", str(big)],
         f"connect: n_max = {big} is outside the budget"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"usage error: {text}" in err


def test_exact_zero_repro_exits_inconclusive(capsys):
    from hyperconnect.cli import main

    code = main(["verify", "--identity", "meixner_orthogonality", "--alpha", "3",
                 "--c", "1/2", "--n", "1", "--m", "1", "--x-max", "3",
                 "--backend", "numeric", "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["reports"][0]["status"] == "inconclusive"


def test_each_build_makes_its_n_independent_pieces_once(monkeypatch):
    factors, rows = [], []
    argument_factor, row_form = hyper_mod._argument_factor, families_mod.gauss_row_form

    def counted_factor(*args):
        factors.append(args[2])
        return argument_factor(*args)

    def counted_row(family, n_max, *args):
        rows.append((families_mod.get_family(family).id, n_max))
        return row_form(family, n_max, *args)

    monkeypatch.setattr(hyper_mod, "_argument_factor", counted_factor)
    monkeypatch.setattr(families_mod, "gauss_row_form", counted_row)
    order = 12
    for identity, (_, names) in verify_mod.GF_IDENTITIES.items():
        family = identity.split("_")[0]
        params = pick(KRAW if family == "krawtchouk" else CANON, *names)
        top = min(params["N"], order) if "N" in names else order
        arity = {"c_shift": 2, "two_param_triple": 3}.get(identity.split("_", 2)[2], 0)
        for _ in range(2):
            factors.clear()
            rows.clear()
            lhs, rhs = build_sides(IdentityCase(identity, params, order=order))
            assert lhs == rhs, identity
            assert factors == [top] * arity, identity
            assert rows == [(family, top)], identity


def test_a_failing_polynomial_row_is_an_error_report():
    # beta = 0 makes M_1(x; beta, d) a pole; the row P_0..P_6 is built whole
    # on first use, before inner_1 = 1F1(1; -2; .) meets its own pole
    report = verify_gf_identity(IdentityCase("meixner_1f1_two_param", {
        "x": Fraction(1), "alpha": Fraction(-3), "beta": Fraction(0),
        "c": Fraction(2, 5), "d": Fraction(3, 7)}, order=6))
    assert report.status == "error"
    assert report.detail == (
        "PoleError: denominator parameter pole at term 1: one of (Fraction(0, 1),) lies in -N0")


def test_vanishing_alpha_pochhammer_is_an_error_report():
    # (alpha)_4 = (-3)_4 = 0 divides coeff_4; it used to escape as ZeroDivisionError
    case = IdentityCase("meixner_1f1_two_param", {
        "x": Fraction(1), "alpha": Fraction(-3), "beta": Fraction(-3),
        "c": Fraction(2, 5), "d": Fraction(3, 7)}, order=6)
    [report] = batch_verify([case])
    assert report.status == "error"
    assert report.detail == "PoleError: (alpha)_n vanishes at n = 4: alpha = -3 lies in -N0"


def test_no_meixner_gf_case_at_nonpositive_integer_parameters_escapes():
    lattice = (Fraction(0), Fraction(-1), Fraction(-3))
    cases = []
    for identity, (_, names) in verify_mod.GF_IDENTITIES.items():
        if not identity.startswith("meixner"):
            continue
        for alpha, beta, gamma in itertools.product(lattice, repeat=3):
            params = {**CANON, "x": Fraction(1), "alpha": alpha, "beta": beta, "gamma": gamma}
            cases.append(IdentityCase(identity, pick(params, *names), order=6))
    reports = batch_verify(cases)
    assert len(reports) == len(cases) == 8 * 27
    assert {r.status for r in reports} <= {"pass", "fail", "error"}
    assert any(r.status == "error" and r.detail.startswith("PoleError: (alpha)_n")
               for r in reports)


@pytest.mark.parametrize("case", [
    IdentityCase("meixner_alpha_to_beta", {"alpha": Fraction(3, 2), "beta": Fraction(0),
                                           "c": Fraction(1, 2), "n_max": -1}),
    IdentityCase("oracle_meixner_alpha", {"alpha": Fraction(3, 2), "beta": Fraction(0),
                                          "c": Fraction(1, 2), "n_max": -1}),
], ids=["relation", "table-check"])
def test_negative_n_max_is_an_error_report(case):
    report = verify_case(case)
    assert report.status == "error" and report.case == case
    assert report.detail == (f"DomainError: {case.identity}: n_max = -1 is outside the budget"
                             " 0 <= n_max <= 200")


def test_every_report_carries_the_submitted_case():
    for case in acceptance_suite(order=6):
        assert verify_case(case).case is case, case.identity


FUZZ_VALUES = (0, 1, -1, -2, Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(1, 3),
               Fraction(2, 3), 2, Fraction(-7, 3), 5000)
# a degree or table size of 5000 would only make the case slow
FUZZ_INDICES = ("n", "m", "N", "M", "n_max")
ROUTES = {case.identity: case for case in reversed(acceptance_suite(order=6))}


@settings(max_examples=400)
@given(data=st.data(), route=st.sampled_from(sorted(ROUTES)),
       field=st.sampled_from([EXACT, numeric(1e-10, 0.0)]))
def test_no_fault_escapes_a_batch(data, route, field):
    """Zero divisors, double overflows and lattice sums on the exact field
    become error reports; batch_verify itself never raises."""
    base = ROUTES[route]
    params = {
        name: data.draw(st.sampled_from(
            FUZZ_VALUES[:-1] if name in FUZZ_INDICES else FUZZ_VALUES), name)
        if isinstance(value, (int, Fraction)) else value
        for name, value in base.params.items()
    }
    case = IdentityCase(route, params, order=base.order, field=field, x_max=base.x_max)
    [report] = batch_verify([case])
    assert report.case is case
    assert report.status in ("pass", "fail", "error", "inconclusive")


# values that are no finite number: each is refused wherever it is bound, a
# name (generating_function, relation, family) included, and x_samples too
NOT_FINITE_NUMBERS = (None, "", "alpha", "1/2", (), (Fraction(1), None), ("a",),
                      (float("nan"),), float("nan"), float("inf"), -float("inf"),
                      complex(float("inf"), 0.0), complex(0.0, float("nan")))


@settings(max_examples=300)
@given(data=st.data(), route=st.sampled_from(sorted(ROUTES)),
       field=st.sampled_from([EXACT, numeric()]))
def test_values_that_are_no_finite_numbers_are_error_reports(data, route, field):
    base = ROUTES[route]
    names = data.draw(st.lists(st.sampled_from(sorted(base.params) + ["x_samples"]),
                               min_size=1, unique=True), "names")
    params = {**base.params,
              **{name: data.draw(st.sampled_from(NOT_FINITE_NUMBERS), name) for name in names}}
    case = IdentityCase(route, params, order=base.order, field=field, x_max=base.x_max)
    for report in (verify_case(case), *batch_verify([case])):
        assert report.case is case
        assert report.status == "error", report


@settings(max_examples=100)
@given(data=st.data(), route=st.sampled_from(sorted(ROUTES)),
       field=st.sampled_from([EXACT, numeric()]))
def test_error_reports_of_values_that_are_no_finite_numbers_are_standard_json(data, route,
                                                                            field):
    """None is written as null and a non-finite number as its text, so the
    document is standard JSON and the case read back is an error again."""
    base = ROUTES[route]
    names = data.draw(st.lists(st.sampled_from(sorted(base.params) + ["x_samples"]),
                               min_size=1, unique=True), "names")
    bad = (None, float("nan"), float("inf"), -float("inf"), complex(float("inf"), 0.0),
           complex(0.0, float("nan")), (float("nan"),), (Fraction(1), None), True)
    params = {**base.params, **{name: data.draw(st.sampled_from(bad), name) for name in names}}
    case = IdentityCase(route, params, order=base.order, field=field, x_max=base.x_max)
    report = verify_case(case)
    assert report.status == "error"
    text = json.dumps(report.as_json(), allow_nan=False)
    back = VerificationReport.from_json(json.loads(text))
    assert (back.status, back.detail) == (report.status, report.detail)
    assert verify_case(back.case).status == "error"


def test_the_reported_escapes_of_non_numeric_values_are_error_reports():
    cases = [
        IdentityCase("meixner_alpha_to_beta",
                     {"alpha": Fraction(3, 2), "beta": None, "c": Fraction(1, 2)}),
        IdentityCase("meixner_alpha_to_beta", {"alpha": float("nan"), "beta": 2.5, "c": 0.5},
                     field=numeric()),
        IdentityCase("gf_invariance", {"generating_function": "meixner_exp_gf",
                                       "relation": "meixner_alpha_to_beta", "x": 4,
                                       "alpha": None, "beta": None, "c": Fraction(2, 5)},
                     order=3),
        # '3/2' is no number; read back as Fraction(3, 2) the case would pass
        IdentityCase("meixner_alpha_to_beta",
                     {"alpha": "3/2", "beta": Fraction(5, 2), "c": Fraction(1, 2)}),
    ]
    reports = batch_verify(cases)
    assert [r.status for r in reports] == ["error"] * 4
    assert reports[0].detail == ("DomainError: meixner_alpha_to_beta: parameter beta = None"
                                 " must be a finite number")
    docs = [json.loads(json.dumps(r.as_json(), allow_nan=False)) for r in reports]
    assert docs[0]["case"]["params"]["beta"] is None
    assert docs[1]["case"]["params"]["alpha"] == "nan"
    assert docs[3]["case"]["params"]["alpha"] == "'3/2'"
    assert verify_case(IdentityCase.from_json(docs[3]["case"])).status == "error"
    # a name slot keeps its string as it is, a number-like one too
    named = IdentityCase("gf_invariance", {**cases[2].params, "relation": "1/2"}, order=3)
    assert IdentityCase.from_json(named.as_json()) == named


@pytest.mark.parametrize("change, refusal", [
    ({"identity": ["meixner_orthogonality"]}, "identity ['meixner_orthogonality'] must be"),
    ({"x_max": "300"}, "x_max '300' must be an integer"),
    ({"x_max": None}, "x_max None must be an integer"),
    ({"x_max": 3.5}, "x_max 3.5 must be an integer"),
    # a bool is no count: read as 1 it would sum x = 0, 1 only
    ({"x_max": True}, "x_max True must be an integer"),
], ids=["identity-list", "x_max-str", "x_max-null", "x_max-float", "x_max-bool"])
def test_a_malformed_case_document_is_an_error_report(change, refusal):
    case = IdentityCase.from_json({**_ORTH.as_json(), **change})
    good, report = batch_verify([_ORTH, case])
    assert good.status == "pass"
    assert report.status == "error" and refusal in report.detail


def test_a_field_that_is_no_field_tag_is_an_error_report_on_every_route():
    cases = [dataclasses.replace(case, field=field) for case in acceptance_suite(4)
             for field in ("numeric", None)]
    reports = batch_verify(cases)
    assert {r.status for r in reports} == {"error"}
    assert all("must be a FieldTag" in r.detail for r in reports)


def test_a_case_document_of_an_unknown_field_kind_is_an_error_report():
    # an unknown kind read back as a numeric field with the default tolerances
    with pytest.raises(FieldError, match="unknown field kind 'bogus'"):
        FieldTag.from_json({"field": "bogus"})
    case = IdentityCase.from_json({**acceptance_suite(4)[0].as_json(), "field": "bogus"})
    assert case.field == "bogus"
    [report] = batch_verify([case])
    assert (report.status, report.detail) == (
        "error", f"DomainError: {case.identity}: field 'bogus' must be a FieldTag")


@pytest.mark.parametrize("field", ["numeric", None])
def test_the_report_of_a_field_that_is_no_field_tag_round_trips(field):
    # as_json read the field's own as_json, which a str or None lacks
    [report] = batch_verify([dataclasses.replace(acceptance_suite(4)[0], field=field)])
    back = VerificationReport.from_json(json.loads(json.dumps(report.as_json())))
    # a kind's bare name would read back as its FieldTag; None is written as it is
    assert back.case.field == (repr(field) if field == "numeric" else field)
    assert (back.status, back.detail) == (report.status, report.detail)
    [again] = batch_verify([back.case])
    assert again.status == "error" and again.detail.endswith("must be a FieldTag")


# one value of each kind a parameter may hold: exact, double (-0.0 too),
# complex, a name, a tuple, None, a non-finite double and a string
ANY_PARAMETER = st.one_of(
    small_rationals(-4, 6), st.integers(-3, 8),
    st.floats(-4, 6, allow_nan=False, allow_infinity=False),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    st.sampled_from(["meixner", "krawtchouk", "meixner_exp_gf", "meixner_alpha_to_beta"]),
    st.lists(small_rationals(-4, 6), min_size=1, max_size=3).map(tuple),
    st.just(None),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan"))]),
    st.sampled_from(["3/2", "-1", "0.5", "", "nan"]),
)


@settings(max_examples=200)
@given(data=st.data(), route=st.sampled_from(sorted(ROUTES)),
       field=st.sampled_from([EXACT, numeric(1e-10, 0.0)]))
def test_json_round_trip_keeps_the_verdict(data, route, field):
    base = ROUTES[route]
    names = data.draw(st.lists(st.sampled_from(sorted(base.params) + ["x_samples"]),
                               max_size=2, unique=True), "names")
    # the base value written as a string, too: a number-like string is no number
    params = {**base.params, **{
        name: data.draw(st.one_of(ANY_PARAMETER, st.just(str(base.params.get(name)))), name)
        for name in names}}
    case = IdentityCase(route, params, order=base.order, field=field, x_max=base.x_max)
    report = verify_case(case)
    back = IdentityCase.from_json(json.loads(json.dumps(case.as_json(), allow_nan=False)))
    back_report = VerificationReport.from_json(
        json.loads(json.dumps(report.as_json(), allow_nan=False)))
    assert back_report.case == back
    assert (back_report.status, back_report.detail, back_report.first_failing_order,
            back_report.terms_summed) == (report.status, report.detail,
                                          report.first_failing_order, report.terms_summed)
    assert repr((back_report.deviation, back_report.tail_bound)) == repr(
        (report.deviation, report.tail_bound))
    assert verify_case(back).status == report.status, (case, back)


def test_arithmetic_faults_are_error_reports():
    lattice_exact = IdentityCase("meixner_orthogonality",
                                 {"alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 1})
    zero_c = IdentityCase("meixner_1f1_alpha_shift",
                          {"x": 1, "alpha": 1, "beta": Fraction(1, 2), "c": 0}, order=0)
    overflow = IdentityCase("meixner_sum_1f1_same_c",
                            {"alpha": Fraction(2), "beta": Fraction(3), "c": Fraction(1, 2),
                             "t": Fraction(5000), "n": 0}, field=numeric(1e-10, 0.0))
    reports = batch_verify([lattice_exact, zero_c, overflow])
    assert [r.status for r in reports] == ["error"] * 3
    assert reports[0].detail == ("DomainError: an infinite lattice sum is compared in"
                                 " doubles; give a numeric field")
    assert reports[1].detail.startswith("ZeroDivisionError")
    assert reports[2].detail.startswith("OverflowError")


def exact_pfq(nums, dens, z, terms=400):
    """sum_k prod (a)_k / prod (b)_k z^k / k! in Fractions, to ``terms`` terms,
    each term from the one before by the term ratio."""
    term = total = Fraction(1)
    for k in range(terms - 1):
        term = term * math.prod(a + k for a in nums) * z / (
            math.prod(b + k for b in dens) * (k + 1))
        total += term
    return total


@pytest.mark.parametrize("identity, params, nums, z", [
    # z = -d(1-c)/(c(1-d)) t = -56/3: terms near 1e8 cancel to a value near 1e-7
    ("meixner_sum_1f1_two_param",
     {"alpha": Fraction(2), "beta": Fraction(3), "c": Fraction(1, 5), "d": Fraction(7, 10),
      "t": Fraction(2)}, lambda n: (Fraction(3 + n),), Fraction(-56, 3)),
    ("meixner_sum_1f1_same_c",
     {"alpha": Fraction(2), "beta": Fraction(7, 2), "c": Fraction(1, 2), "t": Fraction(-12)},
     lambda n: (Fraction(-3, 2),), Fraction(-12)),
    ("meixner_sum_2f1_same_c",
     {"alpha": Fraction(1, 2), "beta": Fraction(7, 2), "gamma": Fraction(9, 4),
      "c": Fraction(7, 10), "t": Fraction(-9, 10)},
     lambda n: (Fraction(-3), Fraction(9, 4) + n), Fraction(-9, 10)),
])
def test_closed_forms_at_negative_arguments_keep_their_digits(identity, params, nums, z):
    # the closed forms were summed in Fractions; summed in doubles at z < 0 the
    # alternating series cancelled to a false fail
    for n in range(4):
        dens = (params["alpha"] + n,)
        value, error = verify_mod._closed_form(1.0, nums(n), dens, z)
        exact = float(exact_pfq(nums(n), dens, z))
        assert abs(value - exact) <= 1e-13 * abs(exact)
        assert error <= 1e-13 * abs(exact)
        report = verify_case(IdentityCase(identity, {**params, "n": n},
                                          field=numeric(1e-10, 1e-10)))
        assert report.status == "pass", (n, report.deviation)


def test_cancelled_digits_are_charged_to_the_closed_form():
    # 1F1(-13/2; 2; 12) cancels from terms near 1e4 to about -8
    value, error = verify_mod._closed_form(1.0, (Fraction(-13, 2),), (Fraction(2),), Fraction(12))
    exact = float(exact_pfq((Fraction(-13, 2),), (Fraction(2),), Fraction(12)))
    assert abs(value - exact) <= error
    assert error > 1e-4 * 2.0**-52
    # no term cancels: no error is charged
    assert verify_mod._closed_form(1.0, (Fraction(3),), (Fraction(2),), Fraction(6))[1] == 0.0


@pytest.mark.parametrize("identity, params", [
    # the terms of 1F1(-3/2; 2; 5000) grow for about 5000 terms, past the cap of 4000
    ("meixner_sum_1f1_same_c",
     {"alpha": Fraction(2), "beta": Fraction(7, 2), "c": Fraction(1, 2), "t": Fraction(5000)}),
    # Kummer's 1F1(-3/2; 2; 2800/3) overflows a double
    ("meixner_sum_1f1_two_param",
     {"alpha": Fraction(2), "beta": Fraction(7, 2), "c": Fraction(1, 5), "d": Fraction(7, 10),
      "t": Fraction(100)}),
], ids=["terms-grow", "overflow"])
def test_a_closed_form_that_does_not_settle_is_an_error_report(identity, params):
    report = verify_case(IdentityCase(identity, {**params, "n": 0}, field=numeric(1e-10, 0.0)))
    assert report.status == "error"
    assert report.detail == "DomainError: closed-form series did not settle; argument too large"


def test_exact_gf_case_beyond_the_double_range_compares_exactly():
    # both sides agree literally; their coefficients pass 10^308 from t^4 on,
    # which made the double deviation an OverflowError report
    case = IdentityCase("meixner_1f1_alpha_shift",
                        {"x": Fraction(10**80), "alpha": Fraction(3, 2),
                         "beta": Fraction(5, 2), "c": Fraction(1, 2)}, order=6)
    report = verify_case(case)
    assert (report.status, report.deviation) == ("pass", 0.0)


_NEGATIVE_N = "krawtchouk: parameter N = -2 must be a nonnegative integer"


@pytest.mark.parametrize("identity, names, bad, refusal", [
    ("krawtchouk_2f1_degree_shift", ("x", "p", "gamma"), {"N": -2, "M": 2}, _NEGATIVE_N),
    # M < 0 <= N is a size pair with N > M
    ("krawtchouk_1f1_two_param", ("x", "p", "q"), {"N": 2, "M": -1},
     "krawtchouk needs N <= M, got N = 2, M = -1"),
    ("chain_krawtchouk_2f1_p_equals_q", ("x", "p", "gamma"), {"N": -2, "M": 2}, _NEGATIVE_N),
])
def test_krawtchouk_gf_rows_refuse_a_negative_size(identity, names, bad, refusal):
    given = {"x": Fraction(0), "p": Fraction(1, 2), "q": Fraction(1, 3), "gamma": Fraction(5, 4)}
    params = {**{k: given[k] for k in names}, **{k: Fraction(v) for k, v in bad.items()}}
    report = verify_case(IdentityCase(identity, params, order=4))
    assert (report.status, report.detail) == ("error", f"DomainError: {refusal}")


def test_repeated_gf_passes_leave_traced_memory_flat():
    """CPython keeps up to 2000 freed tuples of each size 1..20 for reuse, but a
    tuple built from a generator is sized by realloc instead of taken from
    that store, so each one freed grows it for good.  Ten extra passes of a
    few GF cases grew traced memory by about 130 KB that way; the series
    layer builds its tuples from lists, and the growth is the warm-up of
    the interpreter's small caches alone (about 11 KB).  Order 16 keeps
    every series under 20 coefficients: CPython 3.11 fills but never reuses
    its store of 20-tuples, whoever builds them."""
    meixner = {"x": Fraction(13, 2), "alpha": Fraction(10, 3), "beta": Fraction(15, 4),
               "c": Fraction(1, 5), "d": Fraction(1, 7), "gamma": Fraction(5, 4)}
    krawtchouk = {"x": Fraction(11, 2), "p": Fraction(2, 5), "q": Fraction(3, 7),
                  "N": 10, "M": 12, "gamma": Fraction(5, 4)}
    cases = [
        IdentityCase(identity, {k: source[k] for k in names}, order=16)
        for identity, source, names in (
            ("meixner_2f1_two_param", meixner, ("x", "alpha", "beta", "c", "d", "gamma")),
            ("meixner_1f1_c_shift", meixner, ("x", "alpha", "c", "d")),
            ("krawtchouk_1f1_two_param", krawtchouk, ("x", "p", "q", "N", "M")),
            ("chain_krawtchouk_2f1_M_equals_N", krawtchouk, ("x", "p", "q", "N", "M", "gamma")),
        )
    ]

    def one_pass():
        assert [verify_case(case).status for case in cases] == ["pass"] * len(cases)

    collecting = gc.isenabled()
    gc.collect()  # a full collection empties the tuple store
    gc.disable()  # and none may empty it while the passes run
    tracemalloc.start()
    try:
        one_pass()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            one_pass()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert grown < 40_000


@pytest.mark.parametrize("n, m", [(-1, -1), (-1, 0), (1, -2)])
def test_a_negative_orthogonality_degree_is_an_error_report(n, m):
    # (-1, -1) escaped the batch as factorial's ValueError; the others read inconclusive
    case = IdentityCase("meixner_orthogonality", {"alpha": Fraction(2), "c": Fraction(1, 2),
                                                  "n": Fraction(n), "m": Fraction(m)},
                        field=numeric(1e-9, 1e-9))
    [report] = batch_verify([case])
    assert (report.status, report.detail) == (
        "error", f"DomainError: degrees must be >= 0, got {(n, m)}")


def test_a_negative_orthogonality_degree_exits_without_a_traceback(capsys):
    from hyperconnect.cli import main

    code = main(["verify", "--identity", "meixner_orthogonality", "--alpha", "2",
                 "--c", "1/2", "--n", "-1", "--m", "-1", "--backend", "numeric"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    assert "DomainError: degrees must be >= 0" in out


def test_a_reconstruction_at_no_sample_is_an_error_report():
    params = {"alpha": Fraction(3, 2), "beta": Fraction(5, 2), "c": Fraction(1, 2)}
    direct = verify_connection_relation("meixner_alpha_to_beta", params, 4, x_samples=())
    routed = verify_case(IdentityCase("meixner_alpha_to_beta",
                                      {**params, "n_max": 4, "x_samples": ()}))
    for report in (direct, routed):
        assert (report.status, report.detail) == (
            "error", "DomainError: meixner_alpha_to_beta needs at least one x sample")


def test_a_relation_case_at_order_zero_checks_degree_zero_only():
    # an order of 0 read as "no order" and checked degrees up to 8, past N = 0
    case = IdentityCase("krawtchouk_p_to_q_same_N",
                        {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": Fraction(0)}, order=0)
    report = verify_case(case)
    assert (report.status, report.detail) == ("pass", None)
    unbounded = verify_case(IdentityCase(case.identity, case.params))
    assert unbounded.status == "error" and "krawtchouk needs n <= N, got n = 8, N = 0" in unbounded.detail


def test_a_relation_case_at_order_zero_passes_on_the_command_line(capsys):
    from hyperconnect.cli import main

    code = main(["verify", "--identity", "krawtchouk_p_to_q_same_N", "--p", "1/2",
                 "--q", "1/3", "--N", "0", "--order", "0"])
    assert code == 0 and "PASS" in capsys.readouterr().out


def test_an_unknown_orthogonality_id_is_an_error_report():
    case = IdentityCase("meixner_orthogonalty", {"alpha": Fraction(2), "c": Fraction(1, 2),
                                                 "n": 1, "m": 1}, field=numeric())
    report = verify_orthogonality_sum(case)
    assert report.status == "error" and report.detail.startswith("UnknownIdentityError")
    assert "unknown orthogonality id 'meixner_orthogonalty'" in report.detail


NON_INTEGERS = small_rationals(-5, 9).filter(lambda v: v.denominator != 1)
GF_DOMAIN = {
    "x": NON_INTEGERS, "alpha": small_rationals(0, 5), "beta": small_rationals(0, 5),
    "gamma": small_rationals(0, 5), "c": small_rationals(0, 1), "d": small_rationals(0, 1),
    "p": small_rationals(0, 1), "q": small_rationals(0, 1),
}


@settings(max_examples=25)
@given(data=st.data())
@pytest.mark.parametrize("identity", sorted(verify_mod.GF_IDENTITIES))
def test_every_declared_coefficient_passes_exactly_inside_its_domain(identity, data):
    """Each row's declared coeff_n (tops, bottom, z, P_n) at random parameters:
    Meixner alpha, beta, gamma > 0, c, d in (0, 1) and non-integer x;
    Krawtchouk p, q in (0, 1) and 0 <= N <= M <= 8."""
    _, names = verify_mod.GF_IDENTITIES[identity]
    big = data.draw(st.integers(0, 8), "M")
    sizes = {"M": st.just(big), "N": st.integers(0, big)}
    params = {name: data.draw({**GF_DOMAIN, **sizes}[name], name) for name in names}
    report = verify_gf_identity(IdentityCase(identity, params,
                                             order=data.draw(st.integers(0, 8), "order")))
    assert report.status == "pass", (report.first_failing_order, report.detail)


_NUMERIC_DOC = {**acceptance_suite(4)[0].as_json(), **numeric().as_json()}


_REFUSED_DOCUMENTS = [
    *[({key: value}, f"'{key}': {value!r}") for key in ("atol", "rtol")
      for value in (-1, None, "x", [1])],
    ({"atol": 0}, "'atol': 0"),
    # a NaN tolerance would fail every comparison
    ({"rtol": math.nan}, "'rtol': nan"),
    ({"params": [1, 2]}, "params [1, 2] must map names to values"),
    ({"params": "x=4"}, "params 'x=4' must map names to values"),
    ({"params": {**_NUMERIC_DOC["params"], "alpha": "1/0"}},
     "parameter alpha = '1/0' must be a finite number"),
    # a JSON object as a parameter, also inside a sequence
    ({"params": {**_NUMERIC_DOC["params"], "alpha": {"p": 3, "q": [2]}}},
     "parameter alpha = {'p': 3, 'q': [2]} must be a finite number"),
    ({"params": {**_NUMERIC_DOC["params"], "x": [{}, "1/2"]}},
     "parameter x = ({}, Fraction(1, 2)) must be a finite number"),
]
_REFUSED_IDS = [*[f"{key}={value!r}" for key in ("atol", "rtol")
                  for value in (-1, None, "x", [1])],
                "atol=0", "rtol=nan", "params-list", "params-str", "alpha-1/0",
                "alpha-object", "x-object-in-list"]


@pytest.mark.parametrize("change, refusal", _REFUSED_DOCUMENTS, ids=_REFUSED_IDS)
def test_a_case_document_no_case_reads_is_an_error_report(change, refusal):
    case = IdentityCase.from_json({**_NUMERIC_DOC, **change})
    [report] = batch_verify([case])
    assert report.status == "error" and refusal in report.detail
    # the refused case goes through JSON and is refused again
    back = VerificationReport.from_json(json.loads(json.dumps(report.as_json(), allow_nan=False)))
    assert verify_case(back.case).status == "error"


@pytest.mark.parametrize("change, refusal", [
    *_REFUSED_DOCUMENTS, ({"field": "bogus"}, "field 'bogus' must be a FieldTag"),
], ids=[*_REFUSED_IDS, "field-bogus"])
def test_a_refused_case_document_is_written_as_it_came(change, refusal):
    case = IdentityCase.from_json({**_NUMERIC_DOC, **change})
    back = IdentityCase.from_json(json.loads(json.dumps(case.as_json(), allow_nan=False)))
    if any(isinstance(v, float) and math.isnan(v) for v in change.values()):
        # NaN equals nothing, itself read back included: the documents agree
        assert back.as_json() == case.as_json()
    else:
        assert back == case
    [report], [again] = batch_verify([case]), batch_verify([back])
    assert report.status == again.status == "error" and refusal in report.detail
    assert again.detail == report.detail


def test_an_object_parameter_is_written_back_as_it_came():
    params = {**_NUMERIC_DOC["params"], "alpha": {"p": 3, "q": [2]}, "x": [{}, "1/2"]}
    case = IdentityCase.from_json({**_NUMERIC_DOC, "params": params})
    assert json.loads(json.dumps(case.as_json()))["params"] == params


def test_an_x_max_no_route_reads_is_refused_as_on_the_command_line(capsys):
    from hyperconnect.cli import main

    params = pick(CANON, "x", "alpha", "beta", "c")
    case = IdentityCase("meixner_1f1_alpha_shift", params, order=4, x_max=17)
    finite_sum = IdentityCase("krawtchouk_sum_1f1", {
        "p": Fraction(1, 2), "q": Fraction(1, 3), "N": 3, "M": 5, "t": Fraction(1, 5), "n": 1},
        x_max=17)
    refusal = "{} is no infinite lattice sum; drop --x-max"
    reports = batch_verify([case, finite_sum])
    assert [(r.status, r.detail) for r in reports] == [
        ("error", "DomainError: " + refusal.format(c.identity)) for c in (case, finite_sum)]
    assert case.as_json()["x_max"] == 17
    # the default x_max is read by no route, and a lattice sum reads its own
    assert verify_case(dataclasses.replace(case, x_max=300)).status == "pass"
    lattice = verify_case(IdentityCase("meixner_orthogonality", {
        "alpha": Fraction(2), "c": Fraction(1, 2), "n": 1, "m": 1}, field=numeric(), x_max=17))
    assert lattice.terms_summed == 18
    code = main(["verify", "--identity", "meixner_1f1_alpha_shift", "--x", "4", "--alpha", "3/2",
                 "--beta", "7/3", "--c", "2/5", "--order", "4", "--x-max", "17"])
    assert code == 2 and refusal.format(case.identity) in capsys.readouterr().err
