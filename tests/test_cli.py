"""Command-line interface: grammar, outputs, exit codes, round-trips."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperconnect import ConnectionExpansion, TruncatedSeries, VerificationReport, verify_case
from hyperconnect.cli import main
from hyperconnect.hyper import pfq, pfq_eval


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_meixner_example(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "meixner",
        "--n", "1", "--x", "4", "--alpha", "1", "--c", "1/2",
    )
    assert code == 0
    assert out.strip() == "-3"


def test_eval_json_output(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "meixner", "--output", "json",
        "--n", "1", "--x", "4", "--alpha", "1", "--c", "1/2",
    )
    assert code == 0
    assert json.loads(out) == {"value": "-3"}


def test_eval_rejects_decimals_on_exact_backend(capsys):
    code, _, err = run(
        capsys, "eval", "--family", "meixner",
        "--n", "1", "--x", "4", "--alpha", "1", "--c", "0.5",
    )
    assert code == 2
    assert "rational literals" in err


def test_eval_on_doubles_is_the_exact_sum_at_the_double_arguments(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "meixner", "--n", "24", "--x", "10.5",
        "--alpha", "2.5", "--c", "0.7", "--backend", "numeric",
    )
    assert code == 0
    # 2F1(-24, -10.5; 2.5; w) at the double w = 1 - 1/0.7, summed exactly,
    # rounded once; a sum in doubles reads -2.513216142440214, 8e-13 off
    exact = pfq_eval(pfq((Fraction(-24), Fraction(-10.5)), (Fraction(2.5),)),
                     Fraction(1 - 1 / 0.7))
    assert out.strip() == repr(float(exact)) == "-2.5132161424422894"


def test_connect_identity_table(capsys):
    code, out, _ = run(
        capsys, "connect", "--relation", "alpha_to_beta",
        "--alpha", "3/2", "--beta", "3/2", "--c", "2/5", "--n-max", "3",
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows == [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]


def test_connect_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "connect", "--relation", "meixner_alpha_to_beta",
        "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
        "--n-max", "4", "--output", "json",
    )
    assert code == 0
    table = ConnectionExpansion.from_json(json.loads(out))
    assert table.n_max == 4
    assert table.coefficient(1, 1) == Fraction(7, 3) / Fraction(3, 2)


def test_connect_double_table_past_n_170(capsys):
    # (alpha)_n passes the double range at n = 170; every entry stays below 42
    code, out, err = run(
        capsys, "connect", "--relation", "alpha_to_beta", "--alpha", "1.5",
        "--beta", "2.25", "--c", "0.4", "--n-max", "200", "--backend", "numeric",
        "--output", "csv",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert [len(row) for row in rows] == [n + 2 for n in range(201)]
    assert max(abs(complex(cell)) for row in rows for cell in row[1:]) < 42


def test_connect_power_collection_and_linear_solve_agree(capsys):
    outputs = []
    for method in ("power-collection", "linear-solve"):
        code, out, _ = run(
            capsys, "connect", "--relation", "alpha_to_beta", "--method", method,
            "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
            "--n-max", "4", "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        outputs.append(payload["table"])
    assert outputs[0] == outputs[1]


def test_connect_generic_source_target(capsys):
    code, out, _ = run(
        capsys, "connect", "--family", "al_salam_carlitz_1",
        "--method", "power-collection",
        "--source", "a=1/4,q=1/3", "--target", "a=1/5,q=1/3",
        "--n-max", "3", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "power-collection"
    assert payload["field"] == "exact"


def test_connect_type_relation_outputs(capsys):
    args = ("connect", "--relation", "type_c_to_d",
            "--alpha", "3/2", "--c", "2/5", "--d", "3/7", "--n-max", "3")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "connection-type" in out and "coefficients take x" in out
    code, out, _ = run(capsys, *args, "--output", "json")
    payload = json.loads(out)
    assert payload["x_dependent"] is True and payload["table"] is None
    table = ConnectionExpansion.from_json(payload)
    assert table.coefficient(1, 1, Fraction(2)) is not None
    code, out, _ = run(capsys, *args, "--output", "csv")
    assert out.splitlines()[0] == "relation,meixner_type_c_to_d"


def test_expand_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "expand", "--family", "meixner", "--order", "5",
        "--x", "4", "--alpha", "3/2", "--c", "2/5", "--output", "json",
    )
    assert code == 0
    series = TruncatedSeries.from_json(json.loads(out))
    assert series.order == 5
    assert series.coefficient(0) == 1


def test_catalog_lists_all_families(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["families"]) == 16
    code, out, _ = run(capsys, "catalog", "--family", "al_salam_chihara")
    doc = json.loads(out)
    assert doc["id"] == "al_salam_chihara"
    assert doc["factors"]


def test_verify_single_identity(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "meixner_1f1_alpha_shift",
        "--x", "4", "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
        "--order", "8",
    )
    assert code == 0
    assert out.startswith("PASS")
    assert "1/1 pass" in out


def test_numeric_gauss_two_param_passes_at_order_24(capsys):
    # the inners come from the Gauss degree row, rounded once per degree;
    # the Mobius lift per degree read FAIL at t^19 here
    code, out, _ = run(
        capsys, "verify", "--identity", "meixner_2f1_two_param", "--x", "4", "--alpha", "3/2",
        "--beta", "7/3", "--c", "2/5", "--d", "3/7", "--gamma", "5/4", "--order", "24",
        "--backend", "numeric",
    )
    assert code == 0 and out.startswith("PASS") and "1/1 pass" in out


def test_verify_relation_with_x_samples(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "meixner_alpha_to_beta",
        "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
        "--n-max", "6", "--x-samples", "0,1,5/2",
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv", [
    ("gf_invariance", "--param", "generating_function=meixner_exp_gf",
     "--param", "relation=meixner_alpha_to_beta", "--x", "4", "--alpha", "3/2", "--c", "2/5",
     "--beta", "3/2", "--order", "4"),
    ("gf_matches_eval", "--param", "family=meixner", "--x", "4", "--alpha", "3/2",
     "--c", "2/5", "--order", "6"),
], ids=["gf-invariance", "gf-matches-eval"])
def test_verify_reads_a_name_slot_param_as_a_name(capsys, argv):
    # a --param for generating_function, relation or family is a name, not a number
    code, out, err = run(capsys, "verify", "--identity", *argv, "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)["reports"][0]
    assert report["status"] == "pass"
    assert all(isinstance(report["case"]["params"][name], str)
               for name in ("generating_function", "relation", "family")
               if name in report["case"]["params"])


def test_verify_acceptance_suite_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "acceptance",
        "--order", "8", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["error"] == 0
    assert payload["summary"]["total"] == payload["summary"]["pass"]


@pytest.mark.parametrize("argv", [
    ("--suite", "acceptance", "--order", "2", "--x-max", "5"),
    ("--identity", "meixner_1f1_alpha_shift", "--x", "4", "--alpha", "3/2", "--beta", "7/3",
     "--c", "2/5", "--order", "3", "--x-max", "5"),
    ("--suite", "acceptance", "--order", "2", "--backend", "exact"),
    ("--suite", "acceptance", "--order", "-1"),
], ids=["suite-x-max", "gf-x-max", "suite-backend", "suite-negative-order"])
def test_verify_refuses_flags_it_would_ignore(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("oracle_meixner_alpha", "--alpha", "3/2", "--beta", "7/3", "--c", "2/5", "--d", "1/9",
     "--n-max", "4", "--order", "7", "--x-samples", "1,2"),
    ("catalog_complete", "--alpha", "3"),
    ("pochhammer_bound_shifted", "--order", "3"),
    ("meixner_orthogonality", "--alpha", "2", "--c", "1/2", "--n", "1", "--m", "1",
     "--backend", "numeric", "--order", "5"),
], ids=["table", "catalog", "grid", "lattice"])
def test_verify_reports_an_error_for_values_a_route_does_not_read(capsys, argv):
    code, out, _ = run(capsys, "verify", "--identity", *argv)
    assert code == 1 and out.startswith("ERROR")


def test_verify_x_max_and_backend_reach_the_case(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "meixner_orthogonality", "--alpha", "2",
                       "--c", "1/2", "--n", "1", "--m", "1", "--backend", "numeric",
                       "--x-max", "50", "--output", "json")
    assert code == 0 and json.loads(out)["reports"][0]["terms_summed"] == 51
    # an unset --backend means exact, for the values and for the case's field
    gf = ("verify", "--identity", "meixner_1f1_alpha_shift", "--x", "4", "--beta", "7/3",
          "--c", "2/5", "--order", "3", "--output", "json")
    code, out, _ = run(capsys, *gf, "--alpha", "3/2")
    assert code == 0 and json.loads(out)["reports"][0]["case"]["field"] == "exact"
    code, out, err = run(capsys, *gf, "--alpha", "1.5")
    assert (code, out) == (2, "") and "rational literals" in err


def test_verify_inconclusive_exit_three(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "meixner_orthogonality",
        "--alpha", "2", "--c", "1/2", "--n", "4", "--m", "4",
        "--x-max", "12", "--backend", "numeric",
    )
    assert code == 3
    assert "INCONCLUSIVE" in out


def test_verify_unknown_identity_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "made_up_theorem")
    assert code == 1
    assert "ERROR" in out


def test_usage_error_exit_two(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "usage error" in err


def test_json_outputs_are_deterministic(capsys):
    def grab():
        _, out, _ = run(
            capsys, "verify", "--identity", "meixner_1f1_alpha_shift",
            "--x", "4", "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
            "--order", "6", "--output", "json",
        )
        payload = json.loads(out)
        for report in payload["reports"]:
            report.pop("millis")  # wall time is outside the comparison payload
        return json.dumps(payload, sort_keys=False)

    assert grab() == grab()


def test_output_path_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "connect", "--relation", "alpha_to_beta",
        "--alpha", "3/2", "--beta", "7/3", "--c", "2/5",
        "--n-max", "2", "--output", "csv", "--output-path", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "0,1"
    assert lines[1].startswith("1,")


def test_suite_rejects_backend_it_would_ignore(capsys):
    code, _, err = run(capsys, "verify", "--suite", "acceptance", "--backend", "numeric")
    assert code == 2
    assert "--backend numeric" in err
    code, out, _ = run(capsys, "verify", "--suite", "acceptance", "--order", "4",
                       "--output", "json")
    assert code == 0 and json.loads(out)["summary"]["error"] == 0


def test_suite_runs_at_order_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "acceptance", "--order", "0",
                       "--output", "json")
    payload = json.loads(out)
    assert code == 0 and payload["summary"]["pass"] == payload["summary"]["total"]
    orders = {r["case"]["order"] for r in payload["reports"]
              if r["case"]["identity"] in ("meixner_1f1_two_param", "gf_invariance")}
    assert orders == {0, 4}  # the Krawtchouk invariance cases run at N = 4


def test_a_refusal_lists_each_allowed_name_once(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "gf_invariance",
        "--param", "generating_function=meixner_exp_gf", "--param", "relation=meixner_type_c_to_d",
        "--x", "4", "--alpha", "3/2", "--beta", "7/3", "--c", "1/3", "--d", "2/5", "--order", "4",
    )
    assert code == 1
    assert ("does not take parameter(s) ['beta']; expected ['alpha', 'c', 'd',"
            " 'generating_function', 'relation', 'x']") in out


def test_exact_only_methods_reject_numeric_backend(capsys):
    args = ("connect", "--relation", "meixner_alpha_to_beta", "--alpha", "3/2",
            "--beta", "7/3", "--c", "2/5", "--n-max", "3")
    for method in ("power-collection", "linear-solve"):
        code, out, err = run(capsys, *args, "--method", method, "--backend", "numeric")
        assert code == 2 and out == ""
        assert "--backend numeric" in err
        code, _, _ = run(capsys, *args, "--method", method)
        assert code == 0
    code, out, _ = run(capsys, *args, "--backend", "numeric", "--output", "json")
    assert code == 0 and json.loads(out)["field"] == "numeric"


MEIXNER_PAIR = ("--source", "alpha=3/2,c=2/5", "--target", "alpha=7/3,c=2/5", "--n-max", "2")
ALPHA_TO_BETA = ("--relation", "alpha_to_beta", "--alpha", "3/2", "--beta", "7/3",
                 "--c", "2/5", "--n-max", "2")


@pytest.mark.parametrize("argv, message", [
    (("connect", "--family", "meixner", "--method", "closed-form", *MEIXNER_PAIR),
     "--method closed-form needs --relation"),
    (("connect", "--family", "meixner", *MEIXNER_PAIR, "--alpha", "5"),
     "--family with --source and --target takes no --alpha"),
    (("connect", *ALPHA_TO_BETA, "--x", "5"),
     "--relation meixner_alpha_to_beta takes no --x"),
    (("connect", *ALPHA_TO_BETA, "--source", "alpha=9"),
     "--relation fixes the family, source and target"),
    (("connect", "--relation", "alpha_to_beta", "--alpha", "3/2", "--c", "2/5",
      "--n-max", "2", "--method", "power-collection"),
     "meixner_alpha_to_beta needs parameter(s) ['beta']"),
    (("eval", "--family", "meixner", "--n", "1", "--x", "4", "--alpha", "1", "--c", "1/2",
      "--m", "3"),
     "meixner does not take parameter(s) ['m']"),
    (("verify", "--suite", "acceptance", "--alpha", "3"), "--suite takes no --alpha"),
    (("verify", "--suite", "acceptance", "--n-max", "3", "--x-samples", "1,2"),
     "--suite takes no --n-max, --x-samples"),
], ids=["closed-form-with-family", "family-with-parameter-flag", "relation-with-x",
        "relation-with-source", "relation-missing-parameter", "eval-with-m",
        "suite-with-parameter-flag", "suite-with-n-max-and-x-samples"])
def test_a_flag_the_command_would_ignore_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and message in err


def test_every_connect_method_refuses_a_rate_outside_the_domain(capsys):
    # meixner_alpha_to_beta binds c on both sides; c = 0 is no Meixner rate
    args = ("connect", "--relation", "meixner_alpha_to_beta", "--alpha", "3/2",
            "--beta", "5/2", "--c", "0", "--n-max", "2")
    for method in ("closed-form", "power-collection"):
        code, out, err = run(capsys, *args, "--method", method)
        assert (code, out) == (2, "") and err.startswith("usage error: ")
        assert re.search(r"\bc\b.* must ", err), err


def test_connect_method_defaults_follow_the_source_of_the_triple(capsys):
    code, closed, _ = run(capsys, "connect", *ALPHA_TO_BETA, "--output", "json")
    assert code == 0 and json.loads(closed)["method"] == "closed-form"
    code, collected, _ = run(capsys, "connect", "--family", "meixner", *MEIXNER_PAIR,
                             "--output", "json")
    assert code == 0 and json.loads(collected)["method"] == "power-collection"
    assert json.loads(collected)["table"] == json.loads(closed)["table"]


def test_connect_family_path_honours_backend(capsys):
    cases = (
        ("meixner", "alpha=3/2,c=2/5", "alpha=7/3,c=2/5", "power-collection", "exact"),
        ("krawtchouk", "p=1/2,N=4", "p=1/3,N=4", "linear-solve", "exact"),
        ("charlier", "a=2", "a=3", "linear-solve", "exact"),
        ("al_salam_carlitz_1", "a=1/4,q=1/3", "a=1/5,q=1/3", "power-collection", "exact"),
        ("al_salam_carlitz_2", "a=1/4,q=1/3", "a=1/5,q=1/3", "linear-solve", "exact"),
        ("al_salam_chihara", "a=1/4,b=1/5,q=1/3,theta=0", "a=1/3,b=1/5,q=1/3,theta=0",
         "power-collection", "numeric"),
    )
    for family, source, target, method, field in cases:
        args = ("connect", "--family", family, "--source", source, "--target", target,
                "--method", method, "--n-max", "3", "--output", "json")
        code, default, _ = run(capsys, *args)
        assert code == 0 and json.loads(default)["field"] == field
        code, out, _ = run(capsys, *args, "--backend", field)
        assert code == 0 and out == default
        other = "numeric" if field == "exact" else "exact"
        code, out, err = run(capsys, *args, "--backend", other)
        assert code == 2 and out == ""
        assert f"--backend {other}" in err


def test_subcommands_offer_only_the_outputs_they_write(capsys):
    meixner = ("--family", "meixner", "--n", "1", "--x", "4", "--alpha", "1", "--c", "1/2")
    rejected = (
        ("eval", *meixner, "--output", "csv"),
        ("verify", "--identity", "meixner_1f1_c_shift", "--x", "4", "--alpha", "3/2",
         "--c", "2/5", "--d", "3/7", "--order", "3", "--output", "csv"),
        ("catalog", "--output", "text"),
        ("catalog", "--backend", "exact"),
        ("verify", "--suite", "acceptance", "--threads", "2"),
    )
    for argv in rejected:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert code == 2, argv
        assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, "eval", *meixner, "--output", "text")
    assert code == 0 and out.strip() == "-3"
    code, out, _ = run(capsys, "catalog", "--output", "json")
    assert code == 0 and len(json.loads(out)["families"]) == 16


def test_eval_and_expand_show_the_field_the_family_computes_in(capsys):
    asc = ("--family", "al_salam_carlitz_1", "--x", "1/2", "--param", "a=1/3", "--q", "1/2")
    code, text, err = run(capsys, "eval", *asc, "--n", "2")
    assert code == 0 and "Traceback" not in err
    value = Fraction(text.strip())
    code, out, _ = run(capsys, "eval", *asc, "--n", "2", "--output", "json")
    assert code == 0 and json.loads(out) == {"value": str(value)}
    code, out, _ = run(capsys, "eval", *asc, "--n", "2", "--backend", "exact")
    assert code == 0 and out == text
    code, out, _ = run(capsys, "expand", *asc, "--order", "3", "--output", "json")
    assert code == 0 and json.loads(out)["field"] == "exact"
    # an x = cos theta family computes in doubles, so it refuses --backend exact
    chihara = ("--family", "al_salam_chihara", "--param", "a=1/4", "--b", "1/5",
               "--q", "1/3", "--theta", "1/2")
    for command in (("eval", *chihara, "--n", "2"), ("expand", *chihara, "--order", "3")):
        code, out, err = run(capsys, *command, "--backend", "exact")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "numeric field; drop --backend exact" in err
    # exact bindings of an exact family: shown exact, or as doubles on request
    meixner = ("--family", "meixner", "--x", "1/2", "--alpha", "1/3", "--c", "1/2")
    code, out, _ = run(capsys, "eval", *meixner, "--n", "2")
    assert code == 0 and out.strip() == "-41/16"
    code, out, _ = run(capsys, "eval", *meixner, "--n", "2", "--backend", "numeric")
    assert code == 0 and out.strip() == "-2.5625"
    code, out, _ = run(capsys, "expand", *meixner, "--order", "2", "--backend", "numeric",
                       "--output", "json")
    assert code == 0 and json.loads(out)["field"] == "numeric"


def test_lattice_sum_on_the_exact_default_is_an_error_report(capsys):
    code, out, err = run(capsys, "verify", "--identity", "meixner_orthogonality",
                         "--alpha", "2", "--c", "1/2", "--n", "1", "--m", "1")
    assert code == 1 and "Traceback" not in err
    assert out.startswith("ERROR") and "give a numeric field" in out


def test_integer_flags_and_bindings_refuse_non_integers(capsys):
    code, out, err = run(capsys, "eval", "--family", "meixner", "--n", "1/2", "--x", "4",
                         "--alpha", "1", "--c", "1/2")
    assert (code, out) == (2, "")
    assert "usage error: n must be an integer, got '1/2'" in err and "Traceback" not in err
    code, out, err = run(capsys, "connect", "--family", "krawtchouk", "--method", "linear-solve",
                         "--source", "p=1/2,N=5/2", "--target", "p=1/3,N=5/2", "--n-max", "2")
    assert (code, out) == (2, "")
    assert "usage error: N must be an integer, got '5/2'" in err


def test_integer_flags_take_integer_literals_on_either_backend(capsys):
    code, out, _ = run(capsys, "eval", "--family", "meixner", "--n", "2", "--x", "4",
                       "--alpha", "1", "--c", "1/2")
    assert (code, out.strip()) == (0, "-1")
    code, out, _ = run(capsys, "eval", "--family", "meixner", "--n", "2.0", "--x", "4",
                       "--alpha", "1", "--c", "1/2", "--backend", "numeric")
    assert (code, out.strip()) == (0, "-1.0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "nan+1j"])
def test_non_finite_values_are_usage_errors(capsys, value):
    code, out, err = run(capsys, "eval", "--family", "meixner", "--n", "2", f"--x={value}",
                         "--alpha", "1", "--c", "1/2", "--backend", "numeric")
    assert (code, out) == (2, "")
    assert f"usage error: values must be finite, got '{value}'" in err
    assert "Traceback" not in err


def test_expand_refuses_a_negative_order(capsys):
    code, out, err = run(capsys, "expand", "--family", "krawtchouk", "--order", "-2",
                         "--x", "1", "--p", "1/2", "--N", "3")
    assert (code, out) == (2, "")
    assert "usage error: expand: order = -2 is outside the budget 0 <= order <= 200" in err


@pytest.mark.parametrize("n", ["100000", "201", "-1"])
def test_eval_refuses_a_degree_past_the_budget_before_any_row(capsys, monkeypatch, n):
    monkeypatch.setattr("hyperconnect.families.family_eval", None)  # reached: a TypeError
    code, out, err = run(capsys, "eval", "--family", "meixner", "--n", n, "--x", "4",
                         "--alpha", "3/2", "--c", "2/5")
    assert (code, out) == (2, "")
    assert f"usage error: eval: n = {n} is outside the budget 0 <= n <= 200" in err


_BIG = "1/" + "7" * 250  # a value read well inside the limit, whose powers are not


@pytest.mark.parametrize("argv", [
    ("expand", "--family", "charlier", "--x", "1/3", "--a", _BIG, "--order", "20",
     "--output", "csv"),
    ("expand", "--family", "charlier", "--x", "1/3", "--a", _BIG, "--order", "20",
     "--output", "json"),
    ("eval", "--family", "charlier", "--n", "20", "--x", "1/3", "--a", _BIG, "--output", "json"),
    ("eval", "--family", "charlier", "--n", "20", "--x", "1/3", "--a", _BIG, "--output", "text"),
    ("connect", "--relation", "alpha_to_beta", "--alpha", _BIG, "--beta", "1/3", "--c", "1/2",
     "--n-max", "20", "--output", "csv"),
    ("connect", "--relation", "alpha_to_beta", "--alpha", _BIG, "--beta", "1/3", "--c", "1/2",
     "--n-max", "20", "--output", "text"),
], ids=["expand-csv", "expand-json", "eval-json", "eval-text", "connect-csv", "connect-text"])
def test_exact_output_past_the_digit_limit_is_written_in_full(capsys, argv):
    """Exact values past the interpreter's 4,300 digits for an integer's text
    are written in full, and the limit, which guards every value read, is
    back once the document is written."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_a_value_past_the_digit_limit_is_still_refused_as_input(capsys):
    code, out, err = run(capsys, "eval", "--family", "charlier", "--n", "2", "--x", "1/3",
                         "--a", "1/" + "7" * 4301)
    assert (code, out) == (2, "")
    assert "usage error: cannot parse rational literal" in err


@pytest.mark.parametrize("n_max", ["-1", "-2"])
@pytest.mark.parametrize("argv", [
    ("--family", "meixner", "--source", "alpha=1,c=1/2", "--target", "alpha=2,c=1/2"),
    ("--family", "meixner", "--method", "linear-solve",
     "--source", "alpha=1,c=1/2", "--target", "alpha=2,c=1/2"),
    ("--relation", "meixner_alpha_to_beta", "--alpha", "1", "--beta", "2", "--c", "1/2"),
], ids=["power-collection", "linear-solve", "closed-form"])
def test_connect_refuses_a_negative_n_max(capsys, argv, n_max):
    code, out, err = run(capsys, "connect", *argv, "--n-max", n_max)
    assert (code, out) == (2, "")
    assert f"usage error: connect: n_max = {n_max} is outside the budget 0 <= n_max <= 200" in err


def _strict(constant):
    raise ValueError(f"{constant} is no JSON token")


def test_json_outputs_are_standard_json(capsys):
    from test_readme import COMMANDS

    for command, _ in COMMANDS:
        argv = shlex.split(command, comments=True)[1:]
        if "--output" not in argv:
            argv += ["--output", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        json.loads(out, parse_constant=_strict)
    code, out, _ = run(capsys, "verify", "--identity", "meixner_orthogonality", "--alpha", "2",
                       "--c", "9/10", "--n", "0", "--m", "0", "--backend", "numeric",
                       "--x-max", "3", "--output", "json")
    assert code == 3
    [doc] = json.loads(out, parse_constant=_strict)["reports"]
    assert doc["tail_bound"] == "inf"
    report = verify_case(VerificationReport.from_json(doc).case)
    assert report.tail_bound == math.inf
    assert VerificationReport.from_json(json.loads(json.dumps(report.as_json()),
                                                   parse_constant=_strict)) == report


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "acceptance", "--order", "2"),  # fills the pipe while writing
    ("eval", "--family", "meixner", "--n", "1", "--x", "4", "--alpha", "1", "--c", "1/2"),
], ids=["suite", "one-line"])
def test_closed_stdout_is_not_a_crash(argv):
    """Output into a pipe whose reader has gone, as ``... | head -1`` leaves
    it, exits 1 with no traceback."""
    read, write = os.pipe()
    os.close(read)
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from hyperconnect.cli import main;"
             " sys.exit(main())", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
