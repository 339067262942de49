"""The acceptance suite as a case list: pinned by digest, covering every
verifier id, and refusing each of its cases with a parameter dropped or an
unknown one added."""

import hashlib
import json
from fractions import Fraction

import pytest

from hyperconnect import IdentityCase, acceptance_suite, batch_verify
from hyperconnect import verify as verify_mod
from hyperconnect.connection import relation_ids

# SHA-256 of json.dumps([case.as_json() for case in acceptance_suite(order)])
SUITE_DIGESTS = {
    0: "a4d183495c35cfc2b470a014274658eba1be5388d9d839eb14b8e201b7d26d58",
    4: "ab600bb93401e6ff1c1b1bfb3843e0c7acb84ea34c4fb5aa84b8ace94e57d6cd",
    12: "9ad15bb57136a90415917e975de000b00f0d6129348e6e7c54705aabc9334933",
    24: "c5c684d2e554e3afa932bc99d6ad45e70c49711e01c19502a2c135fd68f4a344",
}


@pytest.mark.parametrize("order", sorted(SUITE_DIGESTS))
def test_the_suite_is_pinned(order):
    document = json.dumps([case.as_json() for case in acceptance_suite(order)])
    assert hashlib.sha256(document.encode()).hexdigest() == SUITE_DIGESTS[order]


VERIFIER_IDS = {
    *verify_mod.GF_IDENTITIES, *verify_mod.SPECIALIZATION_CHAINS, *relation_ids(),
    *verify_mod.ORTHOGONALITY_IDS, *verify_mod.TABLE_CHECKS, *verify_mod._BOUND_GRIDS,
    "gf_invariance", "gf_matches_eval", "catalog_complete",
}


def test_every_verifier_id_has_a_suite_case():
    assert set(verify_mod.SPECIAL_CHECKS) <= VERIFIER_IDS
    cases = acceptance_suite(4)
    assert VERIFIER_IDS - {case.identity for case in cases} == set()
    plain = {case.params["generating_function"] for case in cases
             if case.identity == "gf_invariance"}
    assert plain == set(verify_mod._PLAIN_GFS)


def _malformed(case):
    """The case once without each parameter it must bind, and once with an
    unknown one."""
    optional = {"n_max", "x_samples"} if case.identity in relation_ids() else set()
    variants = [{k: v for k, v in case.params.items() if k != name}
                for name in case.params if name not in optional]
    variants.append({**case.params, "zeta": Fraction(1, 3)})
    return [IdentityCase(case.identity, params, order=case.order, field=case.field,
                         x_max=case.x_max) for params in variants]


# the chains accept parameters neither side reads (ROADMAP item 10)
@pytest.mark.parametrize("case", [
    pytest.param(case, id=f"{i}-{case.identity}") for i, case in enumerate(acceptance_suite(4))
    if case.identity not in verify_mod.SPECIALIZATION_CHAINS
])
def test_a_missing_or_unknown_parameter_is_an_error_report(case):
    malformed = _malformed(case)
    reports = batch_verify(malformed)
    assert [report.case for report in reports] == malformed
    assert [(dict(r.case.params), r.status) for r in reports if r.status != "error"] == []
