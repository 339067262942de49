"""Each parameter rule gives one refusal text, whichever route meets it: a
verify case, a closed-form table, a family binding or the command line."""

from fractions import Fraction

import pytest

from hyperconnect import (IdentityCase, connection_table, family_eval, get_family, power_collect,
                         verify_case)
from hyperconnect.cli import main
from hyperconnect.errors import DomainError

HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)


def _case(identity, params, order=None):
    """The detail of the error report of one verify case, less its error type."""
    report = verify_case(IdentityCase(identity, params, order=order))
    assert report.status == "error"
    return report.detail.removeprefix("DomainError: ")


def _raised(call, *args):
    with pytest.raises(DomainError) as info:
        call(*args)
    return str(info.value)


def _cli(*argv):
    """The usage error of one command, which must exit 2 with no output."""
    def refuse(capsys):
        code = main([str(arg) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        return err.removeprefix("usage error: ").rstrip("\n")

    return refuse


def _call(make, *args):
    return lambda capsys: make(*args)


KRAW_P_N_TO_Q_M = ("connect", "--relation", "krawtchouk_p_N_to_q_M", "--p", "1/3", "--q", "2/5")
KRAW_PAIR = ("--source", "p=1/3,N=4", "--target", "p=1/2,N=4")
NEGATIVE_N = "krawtchouk: parameter N = -1 must be a nonnegative integer"
DEGREE_PAST_N = "krawtchouk needs n <= N, got n = 5, N = 4"
N_PAST_M = "krawtchouk needs N <= M, got N = 5, M = 4"
RULES = {
    # fault -> {route: the refusal it gives}
    "missing name of a relation": {
        "verify case": (_call(_case, "krawtchouk_p_N_to_q_M", {"p": HALF, "N": 4}),
                        "krawtchouk_p_N_to_q_M needs parameter(s) ['M', 'q']"),
        "connection_table": (
            _call(_raised, connection_table, "krawtchouk_p_N_to_q_M", {"p": HALF, "N": 4}, 3),
            "krawtchouk_p_N_to_q_M needs parameter(s) ['M', 'q']"),
        "connect": (_cli("connect", "--relation", "krawtchouk_p_N_to_q_M", "--p", "1/3",
                         "--N", "4", "--n-max", "3"),
                    "krawtchouk_p_N_to_q_M needs parameter(s) ['M', 'q']"),
    },
    "missing name of a family": {
        "verify case": (_call(_case, "gf_matches_eval",
                              {"family": "krawtchouk", "x": Fraction(1), "p": HALF}, 3),
                        "krawtchouk needs parameter(s) ['N']"),
        "bind": (_call(_raised, get_family("krawtchouk").bind, {"p": HALF}),
                 "krawtchouk needs parameter(s) ['N']"),
        "eval": (_cli("eval", "--family", "krawtchouk", "--n", 1, "--x", 1, "--p", "1/2"),
                 "krawtchouk needs parameter(s) ['N']"),
        "connect": (_cli("connect", "--family", "krawtchouk", "--source", "p=1/3",
                         "--target", "p=1/2,N=4", "--n-max", 3),
                    "krawtchouk needs parameter(s) ['N']"),
    },
    "unknown name": {
        "verify case": (_call(_case, "krawtchouk_p_to_q_same_N",
                              {"p": HALF, "q": THIRD, "N": 4, "m": 1}),
                        "krawtchouk_p_to_q_same_N does not take parameter(s) ['m'];"
                        " expected ['N', 'n_max', 'p', 'q', 'x_samples']"),
        "connection_table": (
            _call(_raised, connection_table, "krawtchouk_p_to_q_same_N",
                  {"p": HALF, "q": THIRD, "N": 4, "m": 1}, 3),
            "krawtchouk_p_to_q_same_N does not take parameter(s) ['m']; expected ['N', 'p', 'q']"),
        "bind": (_call(_raised, get_family("krawtchouk").bind, {"p": HALF, "N": 4, "m": 1}),
                 "krawtchouk does not take parameter(s) ['m']; expected ['N', 'p']"),
        "eval": (_cli("eval", "--family", "krawtchouk", "--n", 1, "--x", 1, "--p", "1/2",
                      "--N", 4, "--m", 1),
                 "krawtchouk does not take parameter(s) ['m']; expected ['N', 'p']"),
        "connect": (_cli("connect", "--family", "krawtchouk", "--source", "p=1/3,N=4,m=1",
                         "--target", "p=1/2,N=4", "--n-max", 3),
                    "krawtchouk does not take parameter(s) ['m']; expected ['N', 'p']"),
    },
    "N < 0": {
        "relation case": (_call(_case, "krawtchouk_p_to_q_same_N",
                                {"p": HALF, "q": THIRD, "N": -1}), NEGATIVE_N),
        "GF row": (_call(_case, "krawtchouk_1f1_prob_shift",
                         {"x": Fraction(1), "p": HALF, "q": THIRD, "N": -1}, 3), NEGATIVE_N),
        "Krawtchouk sum": (_call(_case, "krawtchouk_sum_1f1", {
            "p": HALF, "q": THIRD, "N": -1, "M": 4, "t": FIFTH, "n": 0}), NEGATIVE_N),
        "eval": (_cli("eval", "--family", "krawtchouk", "--n", 0, "--x", 1, "--p", "1/2",
                      "--N", -1), NEGATIVE_N),
        "family_eval": (_call(_raised, family_eval, "krawtchouk", 0, Fraction(1),
                              {"p": HALF, "N": Fraction(-1)}), NEGATIVE_N),
        "gf_matches_eval": (_call(_case, "gf_matches_eval", {
            "family": "krawtchouk", "x": Fraction(1), "p": HALF, "N": Fraction(-1)}, 3),
            NEGATIVE_N),
        "connect": (_cli("connect", "--relation", "krawtchouk_p_to_q_same_N", "--p", "1/3",
                         "--q", "2/5", "--N", -1, "--n-max", 3), NEGATIVE_N),
    },
    "n > N": {
        "relation case": (_call(_case, "krawtchouk_p_N_to_q_M",
                                {"p": HALF, "q": THIRD, "N": 4, "M": 7, "n_max": 5}),
                          DEGREE_PAST_N),
        "Krawtchouk sum": (_call(_case, "krawtchouk_sum_1f1", {
            "p": HALF, "q": THIRD, "N": 4, "M": 7, "t": FIFTH, "n": 5}), DEGREE_PAST_N),
        "eval": (_cli("eval", "--family", "krawtchouk", "--n", 5, "--x", 1, "--p", "1/2",
                      "--N", 4), DEGREE_PAST_N),
        "family_eval": (_call(_raised, family_eval, "krawtchouk", 5, Fraction(1),
                              {"p": HALF, "N": Fraction(4)}), DEGREE_PAST_N),
        "connect": (_cli(*KRAW_P_N_TO_Q_M, "--N", 4, "--M", 7, "--n-max", 5), DEGREE_PAST_N),
        "connect by linear solve": (_cli("connect", "--family", "krawtchouk", *KRAW_PAIR,
                                         "--method", "linear-solve", "--n-max", 5),
                                    DEGREE_PAST_N),
        "connect by power collection": (_cli("connect", "--family", "krawtchouk", *KRAW_PAIR,
                                             "--n-max", 5), DEGREE_PAST_N),
        "power_collect target": (_call(_raised, power_collect, "krawtchouk", {"p": HALF, "N": 6},
                                       {"p": THIRD, "N": 4}, 5), DEGREE_PAST_N),
    },
    "N > M": {
        "relation case": (_call(_case, "krawtchouk_p_N_to_q_M",
                                {"p": HALF, "q": THIRD, "N": 5, "M": 4, "n_max": 3}), N_PAST_M),
        "GF row": (_call(_case, "krawtchouk_1f1_two_param",
                         {"x": Fraction(1), "p": HALF, "q": THIRD, "N": 5, "M": 4}, 3), N_PAST_M),
        "Krawtchouk sum": (_call(_case, "krawtchouk_sum_1f1", {
            "p": HALF, "q": THIRD, "N": 5, "M": 4, "t": FIFTH, "n": 0}), N_PAST_M),
        "connect": (_cli(*KRAW_P_N_TO_Q_M, "--N", 5, "--M", 4, "--n-max", 3), N_PAST_M),
    },
}


@pytest.mark.parametrize("fault, route", [
    pytest.param(fault, route, id=f"{fault}-{route}")
    for fault, routes in RULES.items() for route in routes])
def test_each_fault_gives_one_text_on_every_route(capsys, fault, route):
    refuse, text = RULES[fault][route]
    assert refuse(capsys) == text
