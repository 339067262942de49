"""Connection coefficients: closed forms, power collection, linear solve."""

import json
import math
import traceback
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_verify import small_rationals

from hyperconnect import connection as connection_mod
from hyperconnect import families as families_mod
from hyperconnect import hyper as hyper_mod
from hyperconnect import (
    ConnectionExpansion,
    DomainError,
    HyperconnectError,
    MethodNotApplicableError,
    PoleError,
    SingularConfigurationError,
    SingularSampleError,
    UnknownIdentityError,
    UnsupportedExpansionError,
    connect_linear_solve,
    connection_table,
    family_eval,
    multivar_eval,
    numeric,
    pochhammer,
    power_collect,
    relation_ids,
    verify_connection_relation,
)
from hyperconnect.fields import EXACT, NUMERIC
from hyperconnect.hyper import APPELL_F1, MultiVarSpec

ALPHA, BETA, C, D = Fraction(3, 2), Fraction(7, 3), Fraction(2, 5), Fraction(3, 7)
MEIX = {"alpha": ALPHA, "beta": BETA, "c": C, "d": D}
KRAW = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 4, "M": 7}
X_SAMPLES = (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(4), Fraction(-3, 7))


def reads(relation_id, params):
    """The part of a binding the relation reads, the only names its table takes."""
    return {k: params[k] for k in connection_mod.get_relation(relation_id).names}


def coefficient(relation_id, params, n, k, x=None):
    """One closed-form coefficient, from a table built to its own degree n."""
    return connection_table(relation_id, params, n).coefficient(n, k, x)


def reconstruct_meixner(relation, params, source, target, n_max, xs, x_dep=False):
    for n in range(n_max + 1):
        for x in xs:
            want = family_eval("meixner", n, x, source)
            got = sum(
                coefficient("meixner_" + relation, params, n, k, x if x_dep else None)
                * family_eval("meixner", k, x, target)
                for k in range(n + 1)
            )
            assert got == want, (relation, n, x)


def test_alpha_to_beta_identity_when_equal():
    params = {"alpha": ALPHA, "beta": ALPHA, "c": C}
    for n in range(6):
        for k in range(n + 1):
            want = 1 if k == n else 0
            assert coefficient("meixner_alpha_to_beta", params, n, k) == want


def test_alpha_to_beta_first_order():
    params = {"alpha": ALPHA, "beta": BETA, "c": C}
    assert coefficient("meixner_alpha_to_beta", params, 1, 0) == (ALPHA - BETA) / ALPHA
    assert coefficient("meixner_alpha_to_beta", params, 1, 1) == BETA / ALPHA
    # reconstruction at n = 1: 1 + x(1-1/c)/alpha from the beta side
    x = Fraction(5, 2)
    lhs = 1 + x * (1 - 1 / C) / ALPHA
    rhs = (ALPHA - BETA) / ALPHA + (BETA / ALPHA) * (1 + x * (1 - 1 / C) / BETA)
    assert lhs == rhs


def test_same_alpha_c_to_d_collapses_at_equal_rates():
    params = {"alpha": ALPHA, "c": C, "d": C}
    for n in range(6):
        for k in range(n + 1):
            want = 1 if k == n else 0
            assert coefficient("meixner_same_alpha_c_to_d", params, n, k) == want


def test_meixner_relations_reconstruct_exactly():
    reconstruct_meixner(
        "alpha_c_to_beta_d", MEIX,
        {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": D}, 8, X_SAMPLES,
    )
    reconstruct_meixner(
        "same_alpha_c_to_d", {"alpha": ALPHA, "c": C, "d": D},
        {"alpha": ALPHA, "c": C}, {"alpha": ALPHA, "c": D}, 8, X_SAMPLES,
    )
    reconstruct_meixner(
        "alpha_to_beta", {"alpha": ALPHA, "beta": BETA, "c": C},
        {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 8, X_SAMPLES,
    )


def test_meixner_type_relations_reconstruct_exactly():
    reconstruct_meixner(
        "type_c_to_d", {"alpha": ALPHA, "c": C, "d": D},
        {"alpha": ALPHA, "c": C}, {"alpha": ALPHA, "c": D}, 8, X_SAMPLES, x_dep=True,
    )
    reconstruct_meixner(
        "type_alpha_c", MEIX,
        {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": D}, 8, X_SAMPLES, x_dep=True,
    )


def test_type_relations_require_x():
    with pytest.raises(DomainError):
        coefficient("meixner_type_c_to_d", {"alpha": ALPHA, "c": C, "d": D}, 2, 1)


def test_type_alpha_c_singular_offset_is_reported():
    # an integer offset beta - alpha in {0..n-1} zeroes (beta-alpha-n+1)_k
    params = {"alpha": Fraction(3, 2), "beta": Fraction(5, 2), "c": C, "d": D}
    assert pochhammer(params["beta"] - params["alpha"] - 2 + 1, 2) == 0
    with pytest.raises(SingularConfigurationError):
        coefficient("meixner_type_alpha_c", params, 2, 2, Fraction(1))


def test_meixner_domain_checks():
    with pytest.raises(DomainError):
        coefficient(
            "meixner_alpha_to_beta", {"alpha": Fraction(-2), "beta": BETA, "c": C}, 2, 1
        )
    with pytest.raises(DomainError):
        coefficient(
            "meixner_same_alpha_c_to_d", {"alpha": ALPHA, "c": Fraction(1), "d": D}, 2, 1
        )
    with pytest.raises(UnknownIdentityError):
        coefficient("meixner_alpha_to_gamma", MEIX, 1, 0)


@pytest.mark.parametrize("relation", [r for r in relation_ids() if r.startswith("meixner")])
def test_every_meixner_relation_checks_every_parameter_it_binds(relation):
    # meixner_alpha_to_beta binds c on both sides, so c = 0 is refused there too
    for name in connection_mod.get_relation(relation).names:
        bad = (0, -2) if name in ("alpha", "beta") else (0, 1)
        for value in map(Fraction, bad):
            with pytest.raises(DomainError, match=f"^{name} must avoid"):
                connection_table(relation, reads(relation, {**MEIX, name: value}), 2)


def test_krawtchouk_degenerate_tables():
    same_p = {"p": Fraction(1, 2), "q": Fraction(1, 2), "N": 4}
    same_n = {"p": Fraction(1, 2), "N": 4, "M": 4}
    for n in range(5):
        for k in range(n + 1):
            want = 1 if k == n else 0
            assert coefficient("krawtchouk_p_to_q_same_N", same_p, n, k) == want
            assert coefficient("krawtchouk_same_p_N_to_M", same_n, n, k) == want


def test_krawtchouk_first_order_reconstruction():
    params = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 4, "M": 6}
    for x in (Fraction(0), Fraction(1), Fraction(2)):
        want = family_eval("krawtchouk", 1, x, {"p": params["p"], "N": 4})
        got = sum(
            coefficient("krawtchouk_p_N_to_q_M", params, 1, k)
            * family_eval("krawtchouk", k, x, {"p": params["q"], "N": 6})
            for k in range(2)
        )
        assert got == want


def test_krawtchouk_relations_reconstruct_exactly():
    n_max = KRAW["N"]
    for relation, source, target in (
        ("p_N_to_q_M", {"p": KRAW["p"], "N": KRAW["N"]}, {"p": KRAW["q"], "N": KRAW["M"]}),
        ("p_to_q_same_N", {"p": KRAW["p"], "N": KRAW["N"]}, {"p": KRAW["q"], "N": KRAW["N"]}),
        ("same_p_N_to_M", {"p": KRAW["p"], "N": KRAW["N"]}, {"p": KRAW["p"], "N": KRAW["M"]}),
    ):
        for n in range(n_max + 1):
            for x in X_SAMPLES:
                want = family_eval("krawtchouk", n, x, source)
                got = sum(
                    coefficient("krawtchouk_" + relation, reads("krawtchouk_" + relation, KRAW),
                                n, k)
                    * family_eval("krawtchouk", k, x, target)
                    for k in range(n + 1)
                )
                assert got == want


def test_krawtchouk_size_preconditions():
    with pytest.raises(DomainError):
        coefficient("krawtchouk_p_N_to_q_M", KRAW, 5, 1)  # n > N
    bad = {**KRAW, "N": 7, "M": 4}
    with pytest.raises(DomainError):
        coefficient("krawtchouk_p_N_to_q_M", bad, 2, 1)
    # degree 0 is checked first, then p, then the degrees above 0
    with pytest.raises(DomainError, match="p must be nonzero"):
        coefficient("krawtchouk_p_N_to_q_M", {**KRAW, "p": 0}, 5, 1)
    with pytest.raises(DomainError, match="krawtchouk: parameter N = -1 must be a nonnegative"):
        connection_table("krawtchouk_p_to_q_same_N", {"p": 0, "q": KRAW["q"], "N": -1}, 3)
    with pytest.raises(DomainError, match="krawtchouk needs n <= N, got n = 6, N = 4"):
        connection_table("krawtchouk_p_N_to_q_M", KRAW, 6)


def test_transitivity_of_alpha_shift():
    gamma2 = Fraction(16, 5)
    a = connection_table("meixner_alpha_to_beta",
                         {"alpha": ALPHA, "beta": BETA, "c": C}, 8)
    b = connection_table("meixner_alpha_to_beta",
                         {"alpha": BETA, "beta": gamma2, "c": C}, 8)
    direct = connection_table("meixner_alpha_to_beta",
                              {"alpha": ALPHA, "beta": gamma2, "c": C}, 8)
    for n in range(9):
        for k in range(n + 1):
            composed = sum(
                a.coefficient(n, j) * b.coefficient(j, k) for j in range(k, n + 1)
            )
            assert composed == direct.coefficient(n, k)


def test_power_collect_matches_alpha_shift_table():
    table = power_collect(
        "meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 10
    )
    assert not table.x_dependent
    for n in range(11):
        for k in range(n + 1):
            want = (
                math.comb(n, k) * pochhammer(ALPHA - BETA, n - k)
                * pochhammer(BETA, k) / pochhammer(ALPHA, n)
            )
            assert table.coefficient(n, k) == want


def test_power_collect_identity_when_nothing_varies():
    table = power_collect("meixner", {"alpha": ALPHA, "c": C},
                          {"alpha": ALPHA, "c": C}, 5)
    for n in range(6):
        for k in range(n + 1):
            assert table.coefficient(n, k) == (1 if k == n else 0)


def test_power_collect_rejects_argument_entangled_parameter():
    # the rate parameter lives in (1 - t/c)^x, whose ratio keeps x
    with pytest.raises(MethodNotApplicableError):
        power_collect("meixner", {"alpha": ALPHA, "c": C}, {"alpha": ALPHA, "c": D}, 4)
    with pytest.raises(MethodNotApplicableError):
        power_collect("charlier", {"a": Fraction(2)}, {"a": Fraction(3)}, 4)


def test_power_collect_dual_hahn_size_parameter():
    # metadata-only family, but the varied parameter sits in a plain binomial
    # exponent, so the ratio series and the table are still well defined
    source = {"gamma": Fraction(1, 2), "delta": Fraction(1, 3), "N": 4}
    target = {**source, "N": 6}
    table = power_collect("dual_hahn", source, target, 4)
    r = [pochhammer(Fraction(2), j) / math.factorial(j) for j in range(5)]
    for n in range(5):
        for k in range(n + 1):
            want = (
                r[n - k]
                * (pochhammer(Fraction(-6), k) / math.factorial(k))
                / (pochhammer(Fraction(-4), n) / math.factorial(n))
            )
            assert table.coefficient(n, k) == want


def test_power_collect_al_salam_carlitz_vs_linear_solve():
    source = {"a": Fraction(1, 4), "q": Fraction(1, 3)}
    target = {"a": Fraction(1, 5), "q": Fraction(1, 3)}
    collected = power_collect("al_salam_carlitz_1", source, target, 6)
    solved = connect_linear_solve("al_salam_carlitz_1", source, target, 6)
    for n in range(7):
        for k in range(n + 1):
            delta = abs(
                complex(collected.coefficient(n, k)) - complex(solved.coefficient(n, k))
            )
            assert delta < 1e-10


def test_power_collect_vs_linear_solve_on_theta_family():
    # varying one numerator base of a cos(theta) family; the solve samples
    # theta and grades on x = cos(theta)
    src = {"a": 0.25, "b": 0.2, "q": 1 / 3, "theta": math.pi / 3}
    tgt = {**src, "a": 0.4}
    collected = power_collect("al_salam_chihara", src, tgt, 5)
    solved = connect_linear_solve("al_salam_chihara", src, tgt, 5)
    for n in range(6):
        for k in range(n + 1):
            delta = abs(
                complex(collected.coefficient(n, k)) - complex(solved.coefficient(n, k))
            )
            assert delta < 1e-10


def test_linear_solve_matches_alpha_shift_exactly():
    solved = connect_linear_solve(
        "meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 10
    )
    closed = connection_table("meixner_alpha_to_beta",
                              {"alpha": ALPHA, "beta": BETA, "c": C}, 10)
    for n in range(11):
        for k in range(n + 1):
            assert solved.coefficient(n, k) == closed.coefficient(n, k)


def test_linear_solve_matches_two_parameter_relation_exactly():
    solved = connect_linear_solve(
        "meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": D}, 8
    )
    closed = connection_table("meixner_alpha_c_to_beta_d", MEIX, 8)
    for n in range(9):
        for k in range(n + 1):
            assert solved.coefficient(n, k) == closed.coefficient(n, k)


def test_linear_solve_identity_and_errors():
    table = connect_linear_solve("meixner", {"alpha": ALPHA, "c": C},
                                 {"alpha": ALPHA, "c": C}, 4)
    for n in range(5):
        for k in range(n + 1):
            assert table.coefficient(n, k) == (1 if k == n else 0)
    with pytest.raises(SingularSampleError):
        connect_linear_solve(
            "meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 3,
            abscissae=[Fraction(0), Fraction(1), Fraction(1), Fraction(2)],
        )
    with pytest.raises(DomainError):
        connect_linear_solve(
            "meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 3,
            abscissae=[Fraction(0), Fraction(1)],
        )


def test_reconstruction_on_twenty_samples():
    # every x-independent expansion reproduces the source on 20 sample points
    table = power_collect("meixner", {"alpha": ALPHA, "c": C},
                          {"alpha": BETA, "c": C}, 6)
    xs = [Fraction(j, 3) for j in range(-6, 14)]
    assert len(xs) == 20
    for n in range(7):
        for x in xs:
            want = family_eval("meixner", n, x, {"alpha": ALPHA, "c": C})
            got = sum(
                table.coefficient(n, k) * family_eval("meixner", k, x,
                                                      {"alpha": BETA, "c": C})
                for k in range(n + 1)
            )
            assert got == want


def test_connection_expansion_serialization_round_trip():
    table = connection_table("meixner_alpha_to_beta",
                             {"alpha": ALPHA, "beta": BETA, "c": C}, 4)
    doc = table.as_json()
    back = ConnectionExpansion.from_json(doc)
    assert back.matrix() == table.matrix()
    assert back.source == table.source and back.target == table.target
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("0,1")
    typed = connection_table("meixner_type_c_to_d",
                             {"alpha": ALPHA, "c": C, "d": D}, 3)
    doc = typed.as_json()
    assert doc["x_dependent"] and doc["table"] is None
    back = ConnectionExpansion.from_json(doc)
    x = Fraction(5, 2)
    for n in range(4):
        for k in range(n + 1):
            assert back.coefficient(n, k, x) == typed.coefficient(n, k, x)
    assert "relation,meixner_type_c_to_d" in typed.to_csv()


def test_relation_registry_lists_all_eight():
    assert set(relation_ids()) == {
        "meixner_alpha_c_to_beta_d", "meixner_same_alpha_c_to_d",
        "meixner_alpha_to_beta", "meixner_type_c_to_d", "meixner_type_alpha_c",
        "krawtchouk_p_N_to_q_M", "krawtchouk_p_to_q_same_N",
        "krawtchouk_same_p_N_to_M",
    }


def test_connection_table_json_round_trip_keeps_tolerances():
    field = numeric(1e-10, 0.0)
    table = connection_table("meixner_alpha_to_beta",
                             {"alpha": ALPHA, "beta": BETA, "c": C}, 4, field)
    back = ConnectionExpansion.from_json(json.loads(json.dumps(table.as_json())))
    assert back.field == field
    assert back.matrix() == table.matrix()


def test_power_collect_on_doubles_matches_exact_table_within_tolerance():
    # alpha 1.3 -> 2.9: the exponent x + alpha differs between the two sides by
    # the same amount at every x only up to rounding, so its per-probe
    # differences are compared within the numeric field's tolerance
    got = power_collect("meixner", {"alpha": 1.3, "c": 0.4}, {"alpha": 2.9, "c": 0.4}, 2)
    want = power_collect("meixner", {"alpha": Fraction(13, 10), "c": Fraction(2, 5)},
                         {"alpha": Fraction(29, 10), "c": Fraction(2, 5)}, 2)
    assert not got.field.is_exact and want.field.is_exact
    for n in range(3):
        for k in range(n + 1):
            assert got.field.eq(got.coefficient(n, k), want.coefficient(n, k)), (n, k)


def test_exact_probe_differences_must_be_equal():
    from hyperconnect.connection import _probe
    from hyperconnect.fields import EXACT

    one, near = {"alpha": Fraction(1)}, {"alpha": 1 + Fraction(1, 10**20)}
    assert _probe("x * alpha", EXACT, one, near) is None
    assert _probe("x + alpha", EXACT, one, near) == Fraction(-1, 10**20)


# -- every polynomial value and every x-kernel computed once ------------------


def rising(a, m):
    out = Fraction(1)
    for j in range(m):
        out *= a + j
    return out


def terminating_2f1(a, b, c, z, top):
    """sum_{m <= top} (a)_m (b)_m / ((c)_m m!) z^m, stopped at the first
    vanishing numerator so 0/0 terms past a terminating b are never formed."""
    total = 0
    for m in range(top + 1):
        num = rising(a, m) * rising(b, m)
        if num == 0:
            break
        total += num / (rising(c, m) * math.factorial(m)) * z**m
    return total


def terminating_appell_f1(j, b1, b2, gamma, u, v):
    """F1(-j; b1, b2; gamma; u, v) as its double sum over m1 + m2 <= j."""
    return sum(
        rising(-j, m1 + m2) * rising(b1, m1) * rising(b2, m2)
        / (rising(gamma, m1 + m2) * math.factorial(m1) * math.factorial(m2))
        * u**m1 * v**m2
        for m1 in range(j + 1) for m2 in range(j + 1 - m1)
    )


def direct_type_entry(relation, p, n, k, x):
    """The displayed connection-type coefficient, unsplit."""
    alpha, c, d = p["alpha"], p["c"], p["d"]
    if relation == "type_c_to_d":
        return (math.comb(n, k) * rising(alpha, k) * rising(x, n - k)
                / (d ** (n - k) * rising(alpha, n))
                * terminating_2f1(k - n, -x, -x + k - n + 1, d / c, n - k))
    beta = p["beta"]
    return (rising(alpha - beta, n) / rising(alpha, n) * rising(beta, k) * rising(-n, k)
            / (math.factorial(k) * rising(beta - alpha - n + 1, k))
            * terminating_appell_f1(n - k, -x, x, beta - alpha - n + k + 1, 1 / c, 1 / d))


@pytest.mark.parametrize("relation", ["type_c_to_d", "type_alpha_c"])
def test_type_entries_equal_the_direct_closed_form(relation):
    meix = reads("meixner_" + relation, MEIX)
    table = connection_table("meixner_" + relation, meix, 6)
    for x in (*X_SAMPLES, Fraction(7)):
        for n in range(7):
            for k in range(n + 1):
                want = direct_type_entry(relation, MEIX, n, k, x)
                assert table.coefficient(n, k, x) == want, (n, k, x)
                assert coefficient("meixner_" + relation, meix, n, k, x) == want
    doubles = {name: float(v) for name, v in meix.items()}
    # a double alpha with exact c, d and x: in type_c_to_d a double prefactor
    # times exact kernels
    for params, xs in ((doubles, (complex(0.7, 0.3), complex(-1.25, 2.0), 2.5)),
                       ({**meix, "alpha": float(ALPHA)}, X_SAMPLES)):
        table = connection_table("meixner_" + relation, params, 6, numeric())
        for x in xs:
            for n in range(7):
                row = table.row(n, x)
                for k in range(n + 1):
                    want = direct_type_entry(relation, params, n, k, x)
                    assert row[k] == table.coefficient(n, k, x) and isinstance(row[k], complex)
                    assert abs(row[k] - want) <= 1e-12 * max(1.0, abs(want)), (n, k, x)
        report = verify_connection_relation("meixner_" + relation, params, 6, xs, numeric())
        assert report.status == "pass", report.detail


ARGUMENTS = st.one_of(st.integers(-4, 6).map(Fraction), small_rationals(-5, 6))


@settings(max_examples=40)
@given(data=st.data(), relation=st.sampled_from(["type_c_to_d", "type_alpha_c"]))
def test_type_entries_equal_the_direct_closed_form_on_random_bindings(data, relation):
    """Each entry is the unsplit displayed form where that is defined;
    SingularConfigurationError exactly where (beta-alpha-n+1)_k = 0, and
    PoleError where the kernel's 2F1 or F1 has a pole, so the displayed
    form divides by zero."""
    alpha, c, d = (data.draw(s, name) for s, name in ((OFF_LATTICE, "alpha"), (RATES, "c"),
                                                       (RATES, "d")))
    beta = data.draw(st.one_of(st.integers(-3, 6).map(lambda j: alpha + j), OFF_LATTICE), "beta")
    params = {"alpha": alpha, "beta": beta, "c": c, "d": d}
    xs = data.draw(st.lists(ARGUMENTS, min_size=1, max_size=3), "xs")
    table = connection_table("meixner_" + relation, reads("meixner_" + relation, params), 6)
    for x, n in ((x, n) for x in xs for n in range(7)):
        for k in range(n + 1):
            if relation == "type_alpha_c" and rising(beta - alpha - n + 1, k) == 0:
                with pytest.raises(SingularConfigurationError):
                    table.coefficient(n, k, x)
                continue
            try:
                want = direct_type_entry(relation, params, n, k, x)
            except ZeroDivisionError:
                with pytest.raises(PoleError):
                    table.coefficient(n, k, x)
                continue
            assert table.coefficient(n, k, x) == want, (n, k, x)


def test_type_entries_keep_the_argument_type():
    table = connection_table("meixner_type_c_to_d", reads("meixner_type_c_to_d", MEIX), 3)
    exact = table.row(3, Fraction(1))
    as_double = table.row(3, 1.0)
    assert all(isinstance(v, Fraction) for v in exact)
    assert all(isinstance(v, complex) for v in as_double)
    assert table.row(3, Fraction(1)) == exact


def test_singular_offset_raises_from_the_entry_not_the_table():
    params = {"alpha": Fraction(3, 2), "beta": Fraction(5, 2), "c": C, "d": D}
    table = connection_table("meixner_type_alpha_c", params, 4)
    x = Fraction(1)
    for n, k in ((0, 0), (1, 0), (1, 1)):
        assert table.coefficient(n, k, x) == direct_type_entry("type_alpha_c", params, n, k, x)
    depths = set()
    for read, error in ((lambda: table.coefficient(2, 2, x), SingularConfigurationError),
                        (lambda: table.row(2, x), PoleError)) * 3:
        # a failed entry is not remembered as a value, and a held error
        # raises afresh, with no traceback kept from an earlier read
        with pytest.raises(error) as raised:
            read()
        depths.add((error, len(traceback.extract_tb(raised.value.__traceback__))))
    assert len(depths) == 2
    # at n - k = 2 the kernel's F1 has gamma = beta - alpha - 1 = 0
    with pytest.raises(PoleError):
        table.coefficient(2, 0, x)
    # the reconstruction reaches (2, 0) before (2, 1) and (2, 2)
    report = verify_connection_relation("meixner_type_alpha_c", params, 3)
    assert report.status == "error"
    assert report.detail.startswith("PoleError")


def test_reconstruction_evaluates_each_polynomial_and_kernel_once(monkeypatch):
    """Per sample: one Gauss degree row per side, so family_eval gives no
    degree on its own; one kernel per (n - k, x); and for type_alpha_c one F1
    factor product, which every kernel at that x shares."""
    n_max = 6
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((families_mod, "family_eval"), (connection_mod, "multivar_eval"),
                         (connection_mod, "factor_product"), (hyper_mod, "factor_product")):
        calls[module.__name__, name] = 0
        counting(module, name)
    for relation in ("meixner_type_alpha_c", "meixner_alpha_to_beta", "krawtchouk_p_N_to_q_M"):
        params = KRAW if relation.startswith("krawtchouk") else MEIX
        top = min(n_max, KRAW["N"]) if params is KRAW else n_max
        calls.update(dict.fromkeys(calls, 0))
        report = verify_connection_relation(relation, reads(relation, params), top, X_SAMPLES)
        assert report.status == "pass", report
        assert calls[families_mod.__name__, "family_eval"] == 0
        type_alpha_c = relation == "meixner_type_alpha_c"
        kernels = (top + 1) * len(X_SAMPLES) if type_alpha_c else 0
        assert calls[connection_mod.__name__, "multivar_eval"] == kernels
        assert calls[connection_mod.__name__, "factor_product"] == (
            len(X_SAMPLES) if type_alpha_c else 0)
        assert calls[hyper_mod.__name__, "factor_product"] == 0


def test_power_collect_evaluates_each_normalization_once(monkeypatch):
    seen = []
    inner = connection_mod.normalization_at

    def counted(descriptor, n, x, params, field):
        seen.append((n, tuple(sorted(params.items()))))
        return inner(descriptor, n, x, params, field)

    monkeypatch.setattr(connection_mod, "normalization_at", counted)
    power_collect("meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}, 8)
    assert len(seen) == len(set(seen)) == 2 * 9


@pytest.mark.parametrize("family", ["al_salam_carlitz_1", "al_salam_carlitz_2"])
@pytest.mark.parametrize("a_from,a_to,q", [
    (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)),
    (complex(0.2, 0.1), complex(0.3, -0.05), 0.4),
])
def test_linear_solve_evaluates_each_normalization_once_per_side(monkeypatch, family, a_from,
                                                                  a_to, q):
    seen = []
    inner = families_mod.normalization_at

    def counted(descriptor, n, x, params, field):
        seen.append((n, params["a"]))
        return inner(descriptor, n, x, params, field)

    monkeypatch.setattr(families_mod, "normalization_at", counted)
    n_max = 6
    connect_linear_solve(family, {"a": a_from, "q": q}, {"a": a_to, "q": q}, n_max)
    assert len(seen) == len(set(seen)) == 2 * (n_max + 1)


def naive_reconstruction(relation, params, n_max, x_samples, table):
    """(first failing order, detail, deviation) the way the unshared loop
    forms them: degrees outer, samples inner, every target value afresh."""
    spec = connection_mod.get_relation(relation)
    source, target = spec.source(params), spec.target(params)
    worst = 0.0
    for n in range(n_max + 1):
        for x in x_samples:
            wanted = family_eval(spec.family, n, x, source)
            got = sum(table.coefficient(n, k, x if table.x_dependent else None)
                      * family_eval(spec.family, k, x, target) for k in range(n + 1))
            worst = max(worst, abs(complex(wanted) - complex(got)))
            if wanted != got:
                return n, f"reconstruction breaks at n = {n}, x = {x}", worst
    return None, None, worst


class PerturbedTable:
    """A closed-form table with one entry nudged by 1/1000, at one argument
    or at all: in its entries and in its row forms, which the verifier reads."""

    def __init__(self, table, n, k, x=None):
        self.table, self.at, self.x = table, (n, k), x
        self.x_dependent = table.x_dependent

    def _nudged(self, n, x):
        return n == self.at[0] and (self.x is None or x == self.x)

    def coefficient(self, n, k, x=None):
        value = self.table.coefficient(n, k, x)
        if k == self.at[1] and self._nudged(n, x):
            return value + Fraction(1, 1000)
        return value

    def row_form(self, n, x=None):
        field, nums, den = self.table.row_form(n, x)
        if not self._nudged(n, x):
            return field, nums, den
        nums = [v * 1000 for v in nums]
        nums[self.at[1]] += den
        return field, nums, den * 1000


@pytest.mark.parametrize("relation,at", [
    ("meixner_alpha_to_beta", (3, 1, None)),
    ("meixner_type_c_to_d", (3, 1, Fraction(5, 2))),
    ("meixner_type_alpha_c", (4, 0, Fraction(-3, 7))),
])
def test_forced_reconstruction_failure_reports_the_first_break(monkeypatch, relation, at):
    build = connection_mod.connection_table
    params = {name: MEIX[name] for name in connection_mod.get_relation(relation).names}
    monkeypatch.setattr(connection_mod, "connection_table",
                        lambda *args: PerturbedTable(build(*args), *at))
    order, detail, deviation = naive_reconstruction(
        relation, params, 6, X_SAMPLES, PerturbedTable(build(relation, params, 6), *at))
    report = verify_connection_relation(relation, params, 6, X_SAMPLES)
    assert report.status == "fail"
    assert (report.first_failing_order, report.detail, report.deviation) == (
        order, detail, deviation)
    assert order == at[0] and deviation > 0


def test_exact_reconstruction_beyond_the_double_range_compares_exactly():
    """Equal exact values too large for a double deviate by 0.0 (they were an
    OverflowError report); unequal ones by inf, and the case fails."""
    params = {"alpha": Fraction(3, 2), "beta": Fraction(5, 2), "c": Fraction(1, 2)}
    huge = (Fraction(10**90),)
    report = verify_connection_relation("meixner_alpha_to_beta", params, 4, x_samples=huge)
    assert (report.status, report.deviation) == ("pass", 0.0)
    table = connection_table("meixner_alpha_to_beta", params, 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connection_mod, "connection_table",
                      lambda *args: PerturbedTable(table, 4, 1))
        report = verify_connection_relation("meixner_alpha_to_beta", params, 4,
                                            x_samples=huge)
    # P_4(10^90) is about 10^360, past the largest double
    assert (report.status, report.first_failing_order, report.deviation) == (
        "fail", 4, math.inf)



def test_an_exact_fail_past_double_resolution_reads_a_nonzero_deviation():
    """Nudging c_{3,1} by 1/1000 moves the reconstructed P_3(10^90) by about
    4e86, far below one rounding of P_3 (about 10^270): the two doubles
    coincide, so the deviation is the exact difference rounded once."""
    params = {"alpha": Fraction(3, 2), "beta": Fraction(5, 2), "c": Fraction(1, 2)}
    x = Fraction(10**90)
    table = connection_table("meixner_alpha_to_beta", params, 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(connection_mod, "connection_table",
                      lambda *args: PerturbedTable(table, 3, 1))
        report = verify_connection_relation("meixner_alpha_to_beta", params, 4,
                                            x_samples=(x,))
    target = connection_mod.get_relation("meixner_alpha_to_beta").target(params)
    gap = Fraction(1, 1000) * family_eval("meixner", 1, x, target)
    assert (report.status, report.first_failing_order) == ("fail", 3)
    assert report.deviation == float(abs(gap)) > 1e86

# -- the row forms against the entries, on random bindings ------------------

RELATION_ARGUMENTS = st.one_of(st.integers(-5, 6).map(Fraction), small_rationals(-5, 6))


def relation_binding(data, relation):
    """(params, n_max): rationals, an integer beta - alpha offset half the
    time, and N <= 8 with N <= M <= N + 4."""
    if relation.startswith("meixner"):
        alpha = data.draw(OFF_LATTICE, "alpha")
        beta = data.draw(st.one_of(st.integers(-3, 6).map(lambda j: alpha + j), OFF_LATTICE),
                         "beta")
        params = {"alpha": alpha, "beta": beta, "c": data.draw(RATES, "c"),
                  "d": data.draw(RATES, "d")}
        n_max = data.draw(st.integers(0, 6), "n_max")
    else:
        cap = data.draw(st.integers(0, 8), "N")
        params = {"p": data.draw(small_rationals(-2, 3).filter(bool), "p"),
                  "q": data.draw(small_rationals(-2, 3).filter(bool), "q"),
                  "N": cap, "M": data.draw(st.integers(cap, cap + 4), "M")}
        n_max = data.draw(st.integers(0, cap), "n_max")
    return {name: params[name] for name in connection_mod.get_relation(relation).names}, n_max


def outcome(read):
    try:
        return read()
    except (HyperconnectError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def displayed_entry(relation, params, n, k, x):
    """The displayed coefficient, or None where it divides by zero."""
    try:
        if relation in ("meixner_type_c_to_d", "meixner_type_alpha_c"):
            return direct_type_entry(relation.removeprefix("meixner_"), params, n, k, x)
        return closed_form_entry(relation, params, n, k)
    except ZeroDivisionError:
        return None


@settings(max_examples=300)
@given(data=st.data(), relation=st.sampled_from(relation_ids()))
def test_row_forms_reconstruct_as_the_entries_do(data, relation):
    """The reconstruction, which reads row forms, reports what the entry by
    entry loop reports, and never a fail, as every relation holds.  Every
    row equals its entries, and a row raises the error of its first failing
    entry; an entry is the displayed coefficient, and an error exactly where
    that divides by zero."""
    params, n_max = relation_binding(data, relation)
    xs = (data.draw(st.integers(-5, 6).map(Fraction), "x"),
          *data.draw(st.lists(RELATION_ARGUMENTS, max_size=2), "xs"))
    report = verify_connection_relation(relation, params, n_max, xs)
    table = outcome(lambda: connection_table(relation, params, n_max))
    want = table if isinstance(table, str) else outcome(
        lambda: naive_reconstruction(relation, params, n_max, xs, table))
    if isinstance(want, str):
        assert (report.status, report.detail) == ("error", want)
    else:
        assert (report.status, report.first_failing_order, report.detail,
                report.deviation) == ("pass", None, None, want[2]) and want[:2] == (None, None)
    if isinstance(table, str):
        return
    for x in xs if table.x_dependent else (None,):
        for n in range(n_max + 1):
            entries = [outcome(lambda: table.coefficient(n, k, x)) for k in range(n + 1)]
            failed = [e for e in entries if isinstance(e, str)]
            assert outcome(lambda: table.row(n, x)) == (failed[0] if failed else entries)
            for k, entry in enumerate(entries):
                displayed = displayed_entry(relation, params, n, k, x)
                assert entry == displayed or displayed is None and entry in failed, (n, k, x)


@settings(max_examples=40)
@given(data=st.data(), relation=st.sampled_from(relation_ids()),
       field=st.sampled_from([EXACT, numeric(1e-9, 1e-8)]))
def test_closed_form_tables_round_trip_through_json(data, relation, field):
    """Every row reads back equal and the CSV identically, for x-free tables
    on both fields and connection-type tables at sampled x."""
    params, n_max = relation_binding(data, relation)
    if not field.is_exact:  # the field's scalars, which JSON writes as [re, im]
        params = {k: v if k in ("N", "M") else field.of(v) for k, v in params.items()}
    table = outcome(lambda: connection_table(relation, params, n_max, field))
    assume(not isinstance(table, str))
    back = ConnectionExpansion.from_json(json.loads(json.dumps(table.as_json())))
    assert back.to_csv() == table.to_csv()
    xs = data.draw(st.lists(RELATION_ARGUMENTS, min_size=1, max_size=2), "xs")
    for x in xs if table.x_dependent else (None,):
        for n in range(n_max + 1):
            assert outcome(lambda: back.row(n, x)) == outcome(lambda: table.row(n, x)), (n, x)


@settings(max_examples=30)
@given(data=st.data(), method=st.sampled_from([power_collect, connect_linear_solve]),
       convert=st.sampled_from([Fraction, float]), n_max=st.integers(0, 6))
def test_generic_tables_round_trip_through_json(data, method, convert, n_max):
    c = convert(data.draw(small_rationals(0, 1), "c"))
    source, target = ({"alpha": convert(data.draw(small_rationals(0, 6), "alpha")), "c": c}
                      for _ in range(2))
    table = method("meixner", source, target, n_max)
    back = ConnectionExpansion.from_json(json.loads(json.dumps(table.as_json())))
    assert back.matrix() == table.matrix()
    assert back.to_csv() == table.to_csv()


def per_degree_sample(descriptor, params, n_max, points):
    """The sampler that evaluates every degree on its own."""
    if descriptor.uses_theta:
        return [math.cos(float(theta)) for theta in points], [
            [family_eval(descriptor, n, None, {**params, "theta": theta}) for theta in points]
            for n in range(n_max + 1)]
    return list(points), [[family_eval(descriptor, n, x, params) for x in points]
                          for n in range(n_max + 1)]


SAMPLED = [
    ("al_salam_carlitz_1", {"a": complex(0.3, 0.1), "q": 0.4},
     {"a": complex(0.2, -0.15), "q": 0.4}),
    ("al_salam_carlitz_2", {"a": complex(0.3, 0.1), "q": 0.4},
     {"a": complex(0.2, -0.15), "q": 0.4}),
    ("al_salam_chihara", {"a": 0.25, "b": 0.2, "q": 1 / 3, "theta": math.pi / 3},
     {"a": 0.4, "b": 0.2, "q": 1 / 3, "theta": math.pi / 3}),
    ("continuous_big_q_hermite", {"a": 0.3, "q": 0.45, "theta": 0.0},
     {"a": -0.2, "q": 0.45, "theta": 0.0}),
    ("charlier", {"a": Fraction(2)}, {"a": Fraction(7, 3)}),
]


@pytest.mark.parametrize("family,source,target", SAMPLED)
def test_one_expansion_per_abscissa_matches_per_degree_values(monkeypatch, family, source,
                                                              target):
    descriptor = families_mod.get_family(family)
    n_max = 10
    points = connection_mod.default_abscissae(descriptor, n_max)
    for params in (source, target):
        assert connection_mod._sample(descriptor, params, n_max, points) == (
            per_degree_sample(descriptor, params, n_max, points))
    expansions = []
    inner = families_mod.gf_expand

    def counted(*args, **kwargs):
        expansions.append(args[3])
        return inner(*args, **kwargs)

    monkeypatch.setattr(families_mod, "gf_expand", counted)
    table = connect_linear_solve(family, source, target, n_max)
    assert expansions == [n_max] * (2 * (n_max + 1))
    monkeypatch.setattr(connection_mod, "_sample", per_degree_sample)
    assert table.matrix() == connect_linear_solve(family, source, target, n_max).matrix()


@settings(max_examples=25)
@given(alpha=small_rationals(-4, 6), beta=small_rationals(-4, 6), c=small_rationals(0, 1),
       n_max=st.integers(0, 5))
def test_three_alpha_shift_tables_agree_exactly(alpha, beta, c, n_max):
    assume(alpha.denominator != 1 and beta.denominator != 1)
    source, target = {"alpha": alpha, "c": c}, {"alpha": beta, "c": c}
    closed = connection_table("meixner_alpha_to_beta",
                              {"alpha": alpha, "beta": beta, "c": c}, n_max).matrix()
    assert power_collect("meixner", source, target, n_max).matrix() == closed
    assert connect_linear_solve("meixner", source, target, n_max).matrix() == closed


# -- tables from shared factors, integer Newton tables, shared F1 products ------


def closed_form_entry(relation, p, n, k):
    """The displayed coefficient of an x-free relation, one entry at a time."""
    comb = math.comb(n, k)
    if relation == "meixner_alpha_c_to_beta_d":
        alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
        ratio = d * (1 - c) / (c * (1 - d))
        return (comb * rising(beta, k) / rising(alpha, k) * ratio**k
                * terminating_2f1(k - n, k + beta, k + alpha, ratio, n - k))
    if relation == "meixner_same_alpha_c_to_d":
        c, d = p["c"], p["d"]
        return comb * (c - d) ** (n - k) * (d * (1 - c)) ** k / (c * (1 - d)) ** n
    if relation == "meixner_alpha_to_beta":
        alpha, beta = p["alpha"], p["beta"]
        return comb * rising(alpha - beta, n - k) * rising(beta, k) / rising(alpha, n)
    pp, cap = p["p"], p["N"]
    if relation == "krawtchouk_p_N_to_q_M":
        qq, big = p["q"], p["M"]
        return (comb * qq**k * rising(-big, k) / (pp**k * rising(-cap, k))
                * terminating_2f1(k - n, k - big, k - cap, qq / pp, n - k))
    if relation == "krawtchouk_p_to_q_same_N":
        qq = p["q"]
        return comb * (pp - qq) ** (n - k) * qq**k / pp**n
    big = p["M"]
    return comb * rising(big - cap, n - k) * rising(-big, k) / rising(-cap, n)


X_FREE = [r for r in relation_ids() if "type" not in r]
OFF_LATTICE = small_rationals(-5, 6).filter(lambda v: v.denominator != 1)
RATES = small_rationals(-3, 3).filter(lambda v: v not in (0, 1))


@settings(max_examples=30)
@given(data=st.data(), relation=st.sampled_from(X_FREE), n_max=st.integers(0, 8))
def test_tables_from_shared_factors_equal_the_entrywise_closed_form(data, relation, n_max):
    if relation.startswith("meixner"):
        alpha, c = data.draw(OFF_LATTICE, "alpha"), data.draw(RATES, "c")
        beta = data.draw(st.one_of(st.just(alpha), OFF_LATTICE), "beta")
        d = data.draw(st.one_of(st.just(c), RATES), "d")
        params = {"alpha": alpha, "beta": beta, "c": c, "d": d}
    else:
        p = data.draw(small_rationals(-2, 3).filter(bool), "p")
        q = data.draw(st.one_of(st.just(p), small_rationals(-2, 3).filter(bool)), "q")
        cap = data.draw(st.integers(n_max, n_max + 3), "N")
        big = data.draw(st.one_of(st.just(cap), st.integers(cap, cap + 4)), "M")
        params = {"p": p, "q": q, "N": cap, "M": big}
    params = {name: params[name] for name in connection_mod.get_relation(relation).names}
    table = connection_table(relation, params, n_max).matrix()
    for n in range(n_max + 1):
        for k in range(n + 1):
            want = closed_form_entry(relation, params, n, k)
            assert table[n][k] == want and type(table[n][k]) is Fraction, (n, k)
            assert coefficient(relation, params, n, k) == want


@pytest.mark.parametrize("relation,params", [
    ("meixner_alpha_c_to_beta_d", {"alpha": 1.5, "beta": 7 / 3, "c": 0.4, "d": 3 / 7}),
    ("meixner_alpha_c_to_beta_d", {"alpha": -2.5, "beta": 1 / 3, "c": -0.4, "d": 9 / 7}),
    ("meixner_alpha_c_to_beta_d", {"alpha": complex(1.5, 0.5), "beta": 2.0, "c": 0.3,
                                   "d": 0.6}),
    ("krawtchouk_p_N_to_q_M", {"p": 0.5, "q": 1 / 3, "N": 10, "M": 14}),
    ("krawtchouk_p_N_to_q_M", {"p": -1.5, "q": 5 / 3, "N": 10, "M": 10}),
])
def test_numeric_gauss_tables_equal_the_displayed_sum_to_rounding(relation, params):
    """On doubles the difference rows add the displayed 2F1's terms in
    another order, so an entry may move by rounding: at most 1e-12 times
    C(n,k) sum_m C(n-k, m) |w_{k+m}|, the size of the terms it cancels."""
    if relation.startswith("meixner"):
        alpha, beta, c, d = params["alpha"], params["beta"], params["c"], params["d"]
        ratio = d * (1 - c) / (c * (1 - d))
        w = [rising(beta, i) / rising(alpha, i) * ratio**i for i in range(11)]
    else:
        w = [rising(-params["M"], i) / rising(-params["N"], i) * (params["q"] / params["p"]) ** i
             for i in range(11)]
    table = connection_table(relation, params, 10, numeric()).matrix()
    for n in range(11):
        for k in range(n + 1):
            size = math.comb(n, k) * sum(math.comb(n - k, m) * abs(w[k + m])
                                         for m in range(n - k + 1))
            want = closed_form_entry(relation, params, n, k)
            assert abs(table[n][k] - want) <= 1e-12 * size, (n, k)


@pytest.mark.parametrize("relation,params,n_max", [
    # every entry is below 42, yet (alpha)_n alone passes the double range at n = 170
    ("meixner_alpha_to_beta", {"alpha": 1.5, "beta": 2.25, "c": 0.4}, 200),
    # the diagonal E^n, E = 1/(2^20 - 1), falls below the double range at
    # n = 54, while e(n, 0) stays near 1
    ("meixner_same_alpha_c_to_d", {"alpha": 1.5, "c": 0.5, "d": 2.0**-20}, 80),
    # (alpha - beta)_m vanishes for m > 2: each row ends in zeros
    ("meixner_alpha_to_beta", {"alpha": 1.5, "beta": 3.5, "c": 0.4}, 200),
    ("krawtchouk_p_to_q_same_N", {"p": 0.25, "q": 0.75, "N": 200}, 200),
], ids=["alpha-beta", "small-E", "vanishing-g", "krawtchouk"])
def test_double_term_tables_past_n_170_equal_the_exact_table_at_the_doubles(relation,
                                                                            params, n_max):
    table = connection_table(relation, params, n_max, numeric())
    exact = connection_table(relation, {k: Fraction(v) for k, v in params.items()}, n_max)
    for n in range(n_max + 1):
        for k, (got, want) in enumerate(zip(table.row(n), exact.row(n))):
            if want == 0:
                assert got == 0, (n, k)
            else:  # below the normal range the two may round one subnormal apart
                assert abs(got - float(want)) <= 1e-12 * abs(float(want)) + 5e-324, (n, k)


def test_a_double_term_table_with_an_entry_past_the_double_range_is_refused():
    # E is about 10^6, so e(n, n) = E^n passes the double range near n = 51
    with pytest.raises(DomainError, match="double range"):
        connection_table("meixner_same_alpha_c_to_d",
                         {"alpha": 1.5, "c": 0.001, "d": 0.999}, 200, numeric())


def fraction_divided_differences(values, abscissae):
    """Newton coefficients by the plain Fraction loop."""
    level, out = list(values), [values[0]]
    for j in range(1, len(values)):
        level = [(level[i + 1] - level[i]) / (abscissae[i + j] - abscissae[i])
                 for i in range(len(level) - 1)]
        out.append(level[0])
    return out


EXACT_POINTS = st.one_of(st.integers(-30, 30), small_rationals(-6, 6, max_den=12))


def integer_newton_levels(values, abscissae):
    """The Newton coefficients from ``_integer_newton`` on the values over
    one denominator, at the ``_gap_schedule`` of the abscissae over one
    denominator, one Fraction per level."""
    points, scale = EXACT.common(abscissae)
    level, den = EXACT.common(values)
    tops = connection_mod._integer_newton(level, connection_mod._gap_schedule(points))
    lcms = [math.lcm(*[b - a for a, b in zip(points, points[j:])]) for j in range(1, len(points))]
    return [Fraction(top * scale**j, den * math.prod(lcms[:j])) for j, top in enumerate(tops)]


@settings(max_examples=60)
@given(data=st.data(), abscissae=st.lists(EXACT_POINTS, min_size=1, max_size=10,
                                          unique_by=Fraction))
def test_integer_newton_table_equals_the_fraction_loop(data, abscissae):
    abscissae = [Fraction(a) for a in abscissae]
    values = data.draw(st.lists(EXACT_POINTS.map(Fraction), min_size=len(abscissae),
                                max_size=len(abscissae)), "values")
    got = integer_newton_levels(values, abscissae)
    assert got == fraction_divided_differences(values, abscissae)
    assert all(type(v) is Fraction for v in got)
    doubles = [complex(float(v)) for v in values]
    points = [complex(float(a)) for a in abscissae]
    assert connection_mod._divided_differences(doubles, points) == (
        fraction_divided_differences(doubles, points))
    if len(abscissae) > 1:
        repeated = abscissae[:-1] + [data.draw(st.sampled_from(abscissae[:-1]), "repeat")]
        for newton in (integer_newton_levels, connection_mod._divided_differences):
            with pytest.raises(SingularSampleError):
                newton(values, repeated)


def fraction_back_substitution(source_dd, target_dd):
    """Rows c_{k,n} of S_n[j] = sum_{k=j..n} c_{k,n} T_k[j] by the plain
    Fraction loop, j = n..0."""
    rows = []
    for n in range(len(source_dd)):
        coeffs = [Fraction(0)] * (n + 1)
        for j in range(n, -1, -1):
            if target_dd[j][j] == 0:
                raise SingularSampleError(f"degree-{j} target member degenerates")
            coeffs[j] = (source_dd[n][j] - sum(coeffs[k] * target_dd[k][j]
                                               for k in range(j + 1, n + 1))) / target_dd[j][j]
        rows.append(coeffs)
    return rows


def solve_or_singular(solve):
    try:
        return solve()
    except SingularSampleError as exc:
        return f"SingularSampleError: {str(exc).split(' on ')[0]}"


@settings(max_examples=80)
@given(data=st.data(), size=st.integers(1, 7))
def test_fraction_free_solve_equals_the_fraction_back_substitution(data, size):
    """Random integer tables (tops, den) with small entries, so pivots vanish
    too, and one nonzero factor per level shared by every table."""
    entries = st.integers(-4, 4)
    factors = data.draw(st.lists(small_rationals(-3, 3).filter(bool), min_size=size,
                                 max_size=size), "factors")

    def tables(label):
        drawn = data.draw(st.lists(st.tuples(st.lists(entries, min_size=size, max_size=size),
                                             st.integers(1, 12)),
                                   min_size=size, max_size=size), label)
        return (drawn,
                [[Fraction(t) * g / den for t, g in zip(tops, factors)] for tops, den in drawn])

    (source, source_dd), (target, target_dd) = tables("source"), tables("target")
    got = solve_or_singular(lambda: [EXACT.over(*row) for row in
                                     connection_mod._fraction_free_solve(source, target)])
    assert got == solve_or_singular(lambda: fraction_back_substitution(source_dd, target_dd))


@settings(max_examples=30)
@given(data=st.data(), family=st.sampled_from(["meixner", "krawtchouk", "charlier"]),
       n_max=st.integers(0, 6))
def test_exact_linear_solve_equals_the_fraction_solve_on_random_abscissae(data, family,
                                                                          n_max):
    if family == "meixner":
        rates = small_rationals(0, 1)
        source, target = ({"alpha": data.draw(small_rationals(0, 6)), "c": data.draw(rates)}
                          for _ in range(2))
    elif family == "krawtchouk":
        cap = data.draw(st.integers(n_max, n_max + 4), "N")
        source, target = ({"p": data.draw(small_rationals(0, 1)), "N": cap} for _ in range(2))
    else:
        source, target = ({"a": data.draw(small_rationals(0, 5))} for _ in range(2))
    points = data.draw(st.lists(EXACT_POINTS.map(Fraction), min_size=n_max + 1,
                                max_size=n_max + 1, unique=True), "abscissae")
    descriptor = families_mod.get_family(family)
    xs, source_vals = connection_mod._sample(descriptor, source, n_max, points)
    _, target_vals = connection_mod._sample(descriptor, target, n_max, points)
    want = fraction_back_substitution(
        *([fraction_divided_differences(row, xs) for row in vals]
          for vals in (source_vals, target_vals)))
    table = connect_linear_solve(family, source, target, n_max, abscissae=points)
    assert table.matrix() == want
    assert all(type(c) is Fraction for row in table.matrix() for c in row)


def f1_kernel_or_error(spec, args, **kwargs):
    try:
        return repr(multivar_eval(spec, args, **kwargs))
    except PoleError as exc:
        return f"PoleError: {exc}"


@pytest.mark.parametrize("arguments", [
    st.integers(-4, 8), small_rationals(-4, 8),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
], ids=["integer", "rational", "complex"])
@settings(max_examples=15)
@given(data=st.data(), alpha=small_rationals(-4, 5), beta=small_rationals(-4, 5), c=RATES,
       d=RATES, n_max=st.integers(0, 8))
def test_shared_f1_product_gives_each_kernel_bit_for_bit(arguments, data, alpha, beta, c, d,
                                                         n_max):
    x = data.draw(arguments, "x")
    params = {"alpha": alpha, "beta": beta, "c": c, "d": d}
    product = connection_mod._alpha_c_product(params, x, n_max)
    assert product.field == (NUMERIC if isinstance(x, complex) else EXACT)
    for j in range(n_max + 1):
        spec = MultiVarSpec(APPELL_F1, (Fraction(-j), -x, x, beta - alpha - j + 1))
        assert f1_kernel_or_error(spec, (1 / c, 1 / d), product=product) == (
            f1_kernel_or_error(spec, (1 / c, 1 / d)))


# -- one row per relation, one field rule ------------------------------------

INTEGER_BINDINGS = {
    "meixner": {"alpha": 2, "beta": 5, "c": 2, "d": 3},
    "krawtchouk": {"p": 2, "q": 3, "N": 4, "M": 6},
}


@pytest.mark.parametrize("relation", relation_ids())
def test_params_inverts_source_and_target(relation):
    spec = connection_mod.get_relation(relation)
    params = {name: Fraction(i + 2, 7) for i, name in enumerate(spec.names)}
    assert spec.params(spec.source(params), spec.target(params)) == params
    assert set(spec.source(params)) == set(spec.target(params))
    assert set(spec.source(params)) == set(families_mod.get_family(spec.family).parameters)


@pytest.mark.parametrize("relation", relation_ids())
def test_integer_bindings_give_the_fractions_of_fraction_bindings(relation):
    spec = connection_mod.get_relation(relation)
    ints = {name: INTEGER_BINDINGS[spec.family][name] for name in spec.names}
    fractions = {name: Fraction(v) for name, v in ints.items()}
    got, want = connection_table(relation, ints, 3), connection_table(relation, fractions, 3)
    for x in ((1, Fraction(1), Fraction(5, 2)) if got.x_dependent else (None,)):
        for n in range(4):
            row = got.row(n, x)
            assert row == want.row(n, x) and all(type(v) is Fraction for v in row), (n, x)
            for k in range(n + 1):
                entry = coefficient(relation, ints, n, k, x)
                assert type(entry) is Fraction and entry == row[k], (n, k, x)


def test_integer_binding_repros_stay_exact():
    same = connection_table("meixner_same_alpha_c_to_d", {"alpha": 2, "c": 2, "d": 3}, 2)
    assert same.row(1) == [Fraction(1, 4), Fraction(3, 4)]
    two = connection_table("meixner_alpha_c_to_beta_d",
                           {"alpha": 2, "beta": Fraction(1, 2), "c": 2, "d": 3}, 2)
    assert two.row(1) == [Fraction(13, 16), Fraction(3, 16)]
    typed = connection_table("meixner_type_alpha_c",
                             {"alpha": Fraction(3, 2), "beta": BETA, "c": 2, "d": 3}, 2)
    assert all(type(v) is Fraction for v in typed.row(2, Fraction(1)))


def typed(values):
    """The values with their types, which tell Fraction(1) from (1+0j)."""
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("field", [EXACT, NUMERIC], ids=["exact", "numeric"])
@pytest.mark.parametrize("relation", ["meixner_type_c_to_d", "meixner_type_alpha_c"])
@pytest.mark.parametrize("x", [3, Fraction(5, 2)])
def test_type_tables_round_trip_through_json(relation, x, field):
    """A numeric connection-type table rebuilt from exact bindings keeps
    exact entries, so its JSON must give the bindings back exact."""
    table = connection_table(relation, reads(relation, MEIX), 4, field)
    back = ConnectionExpansion.from_json(json.loads(json.dumps(table.as_json())))
    assert back.field == field
    for side in ("source", "target"):
        assert typed(getattr(back, side).values()) == typed(getattr(table, side).values())
    for n in range(5):
        assert typed(back.row(n, x)) == typed(table.row(n, x)), n


def test_x_free_numeric_table_reads_its_bindings_back_in_their_fields():
    params = {"alpha": ALPHA, "beta": 2.25, "c": C}
    table = connection_table("meixner_alpha_to_beta", params, 4, NUMERIC)
    back = ConnectionExpansion.from_json(json.loads(json.dumps(table.as_json())))
    assert back.source == {"alpha": ALPHA, "c": C}
    assert typed(back.target.values()) == [(complex, 2.25), (Fraction, C)]
    assert typed(back.matrix()[3]) == typed(table.matrix()[3])


EXECUTABLE = [f.id for f in families_mod.catalog() if f.is_expandable]
BINDINGS = {
    "meixner": {"alpha": Fraction(3, 2), "c": Fraction(2, 5)},
    "krawtchouk": {"p": Fraction(1, 2), "N": 4},
    "charlier": {"a": Fraction(2)},
    "al_salam_chihara": {"a": Fraction(1, 4), "b": Fraction(1, 5), "q": Fraction(1, 3),
                         "theta": Fraction(1, 2)},
    "continuous_big_q_hermite": {"a": Fraction(1, 4), "q": Fraction(1, 3),
                                 "theta": Fraction(1, 2)},
    "al_salam_carlitz_1": {"a": Fraction(1, 4), "q": Fraction(1, 3)},
    "al_salam_carlitz_2": {"a": Fraction(1, 4), "q": Fraction(1, 3)},
}


@pytest.mark.parametrize("family", EXECUTABLE)
@pytest.mark.parametrize("convert", [Fraction, float], ids=["exact", "float"])
def test_every_method_picks_the_field_of_field_for(family, convert):
    descriptor = families_mod.get_family(family)
    params = {k: v if k == "N" else convert(v) for k, v in BINDINGS[family].items()}
    x = None if descriptor.uses_theta else convert(Fraction(5, 2))
    want = descriptor.field_for(x, *params.values())
    assert want == (EXACT if convert is Fraction and not descriptor.uses_theta
                    else NUMERIC)
    assert families_mod.gf_expand(family, x, params, 3).field == want
    assert power_collect(family, params, params, 3).field == want
    assert connect_linear_solve(family, params, params, 3).field == want


# a rational in each catalog domain, and a second one for the varied side;
# sizes N stay above the degrees 0..3 the tables below reach
DOMAIN_VALUES = {
    "unrestricted": (Fraction(1, 3), Fraction(2, 5)),
    "not_zero_or_one": (Fraction(2, 5), Fraction(3, 7)),
    "nonzero": (Fraction(1, 2), Fraction(1, 3)),
    "nonnegative_integer": (6, 7),
    "base": (Fraction(1, 3), Fraction(1, 4)),
    "real": (Fraction(1, 2), Fraction(1, 3)),
}


@pytest.mark.parametrize("family, name", [
    (descriptor.id, name) for descriptor in families_mod.catalog()
    for name in descriptor.parameters])
def test_power_collection_varies_any_parameter_of_any_family_on_rationals(family, name):
    """A table, or the refusal of a method or a family that cannot expand
    it, and no other error: c of continuous_dual_hahn, in (1 - t)^(c - ix),
    once raised the exact field's FieldError on the imaginary unit."""
    parameters = families_mod.get_family(family).parameters
    source = {k: DOMAIN_VALUES[domain][0] for k, domain in parameters.items()}
    target = {**source, name: DOMAIN_VALUES[parameters[name]][1]}
    try:
        table = power_collect(family, source, target, 3)
    except (MethodNotApplicableError, UnsupportedExpansionError):
        return
    assert len(table.matrix()) == 4


def test_rational_bindings_of_a_family_naming_i_give_the_double_bindings_table():
    source = {"a": Fraction(1, 3), "b": Fraction(1, 4), "c": Fraction(1, 5)}
    target = {**source, "c": Fraction(2, 5)}
    exact = power_collect("continuous_dual_hahn", source, target, 4)
    double = power_collect("continuous_dual_hahn", *({k: float(v) for k, v in side.items()}
                                                     for side in (source, target)), 4)
    assert exact.field == double.field == NUMERIC
    assert exact.matrix() == double.matrix()


@settings(max_examples=30)
@given(family=st.sampled_from(["al_salam_carlitz_1", "al_salam_carlitz_2"]),
       a_from=small_rationals(-2, 2), a_to=small_rationals(-2, 2), q=small_rationals(0, 1),
       n_max=st.integers(0, 8))
def test_q_family_methods_agree_exactly_on_rational_bindings(family, a_from, a_to, q, n_max):
    # the q-binomial theorem expands every Al-Salam-Carlitz factor on rationals
    assume(a_from != 0 and a_to != 0 and a_from != a_to)
    source, target = {"a": a_from, "q": q}, {"a": a_to, "q": q}
    collected = power_collect(family, source, target, n_max)
    solved = connect_linear_solve(family, source, target, n_max)
    assert collected.field == solved.field == EXACT
    assert collected.matrix() == solved.matrix()
    descriptor = families_mod.get_family(family)
    assert descriptor.field_for(float(a_from), q) == NUMERIC
    # cos theta is irrational in general, so a theta family stays on doubles
    chihara = {"a": a_from, "b": a_to, "q": q, "theta": Fraction(1, 2)}
    assert power_collect("al_salam_chihara", chihara, chihara, n_max).field == NUMERIC


@pytest.mark.parametrize("family,source,target", [
    ("meixner", {"alpha": ALPHA, "c": C}, {"alpha": BETA, "c": C}),
    ("meixner", {"alpha": 1.5, "c": 0.4}, {"alpha": 2.25, "c": 0.4}),
    ("al_salam_carlitz_1", {"a": complex(0.25, 0.5), "q": 0.5},
     {"a": complex(0.2, 0.1), "q": 0.5}),
], ids=["exact", "double", "complex"])
def test_csv_cells_read_back_to_the_table(family, source, target):
    table = power_collect(family, source, target, 4)
    parse = Fraction if table.field.is_exact else complex
    lines = table.to_csv().splitlines()
    assert len(lines) == table.n_max + 1
    for n, line in enumerate(lines):
        index, *cells = line.split(",")
        assert int(index) == n
        assert [parse(cell) for cell in cells] == table.row(n)
    if family == "al_salam_carlitz_1":
        assert any(c.imag for row in table.matrix() for c in row)


# a second value for each parameter of an executable family, inside its domain;
# alpha avoids {0, -1, ...}, where the Meixner normalization vanishes, and a, b
# stay in (-1, 1), so no Al-Salam-Chihara normalization meets ab q^j = 1
OTHER_VALUES = {
    "alpha": small_rationals(-3, 5).filter(lambda v: v.denominator > 1 or v > 0),
    "c": RATES,
    "p": small_rationals(-2, 3).filter(bool),
    "N": st.integers(4, 7),
    "a": small_rationals(-1, 1).filter(bool),
    "b": small_rationals(-1, 1),
    "q": small_rationals(0, 1),
    "theta": small_rationals(0, 3),
}


@settings(max_examples=300)
@given(data=st.data(), family=st.sampled_from(EXECUTABLE),
       convert=st.sampled_from([Fraction, float]), n_max=st.integers(0, 4))
def test_power_collection_reconstructs_or_refuses_on_every_parameter(data, family, convert,
                                                                     n_max):
    """Each parameter varied on its own gives a table that reconstructs P_n at
    sample arguments (theta for an x = cos theta family), or a refusal."""
    descriptor = families_mod.get_family(family)
    name = data.draw(st.sampled_from(sorted(descriptor.parameters)), "name")
    source = {k: v if k == "N" else convert(v) for k, v in BINDINGS[family].items()}
    value = data.draw(OTHER_VALUES[name], "value")
    target = {**source, name: value if name == "N" else convert(value)}
    try:
        table = power_collect(family, source, target, n_max)
    except MethodNotApplicableError:
        return
    points = ([(None, {"theta": convert(t)}) for t in (Fraction(1, 3), 1, 2)]
              if descriptor.uses_theta else [(convert(x), {}) for x in (0, 1, Fraction(5, 2))])
    for x, at in points:
        want = families_mod.family_row(family, n_max, x, {**source, **at})
        basis = families_mod.family_row(family, n_max, x, {**target, **at})
        for n in range(n_max + 1):
            got = sum(c * v for c, v in zip(table.row(n), basis))
            if table.field.is_exact:
                assert got == want[n], (name, n, x)
            else:
                assert table.field.eq(want[n], got), (name, n, x, want[n], got)
