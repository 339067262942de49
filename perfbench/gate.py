"""Correctness gate: expected verdicts and a digest of the exact outputs.

The digest is a SHA-256 over, case by case in order:

* the lhs and rhs coefficients from ``build_sides`` of every GF identity;
* every entry of the exact closed-form connection table of every relation
  case (x-dependent entries at the case's sample arguments), and of the
  power-collection and linear-solve tables the table checks build;
* for the lattice sums, which have no exact output in the public API, the
  verdict and ``terms_summed``.

``run.py`` computes it for the default seed, in an untimed pass before
timing, and compares it with ``digests.json``: a rewrite of the series lifts
or of the connection code must leave it bit-identical.
"""

from __future__ import annotations

import hashlib
import time

from hyperconnect import HyperconnectError, connection, families, verify
from hyperconnect.fields import EXACT

# Every case is a true identity, so the expected verdict is pass, and any
# other verdict counts as failed.  An output is wrong only when the verdict
# contract is broken: inconclusive (a tail bound above the tolerance) is an
# honest answer, fail, error and an escaped exception are not.
EXPECTED_STATUS = "pass"
ALLOWED_STATUS = ("pass", "inconclusive")

_LINEAR_SOLVE = {
    "oracle_meixner_alpha": ("meixner", lambda p: ({"alpha": p["alpha"], "c": p["c"]},
                                                   {"alpha": p["beta"], "c": p["c"]})),
    "oracle_meixner_two_param": ("meixner", lambda p: ({"alpha": p["alpha"], "c": p["c"]},
                                                       {"alpha": p["beta"], "c": p["d"]})),
    "oracle_krawtchouk": ("krawtchouk", lambda p: ({"p": p["p"], "N": p["N"]},
                                                   {"p": p["q"], "N": p["M"]})),
}


def _table_rows(table, x_samples):
    rows = []
    for n in range(table.n_max + 1):
        if table.x_dependent:
            rows.append([table.row(n, x) for x in x_samples])
        else:
            rows.append(table.row(n))
    return rows


def exact_outputs(case):
    """Exact outputs of one case as text, or None when it has none."""
    p = dict(case.params)
    if case.identity in verify.GF_IDENTITIES:
        lhs, rhs = verify.build_sides(case)
        return [str(c) for c in lhs.coefficients + rhs.coefficients]
    if case.identity in connection.relation_ids():
        n_max = p.pop("n_max")
        x_samples = p.pop("x_samples")
        table = connection.connection_table(case.identity, p, n_max, EXACT)
        return [str(_table_rows(table, x_samples))]
    if case.identity == "power_collect_matches_closed_form":
        table = connection.power_collect(
            "meixner", {"alpha": p["alpha"], "c": p["c"]},
            {"alpha": p["beta"], "c": p["c"]}, p["n_max"])
        return [str(table.matrix())]
    if case.identity in _LINEAR_SOLVE:
        family, pair = _LINEAR_SOLVE[case.identity]
        source, target = pair(p)
        table = connection.connect_linear_solve(family, source, target, p["n_max"])
        return [str(table.matrix())]
    if case.identity in verify.ORTHOGONALITY_IDS:
        report = verify.verify_case(case)
        return [report.status, str(report.terms_summed)]
    return None


def digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        outputs = exact_outputs(case)
        if outputs is None:
            continue
        h.update(case.identity.encode())
        for text in outputs:
            h.update(b"\0" + text.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_q_check(check):
    """(status, millis) of power collection on a q-family, checked the way
    the verifier checks a connection table: by reconstruction,
    P_n(x; source) = sum_k c_nk P_k(x; target), at the sample arguments."""
    start = time.perf_counter()
    status = "pass"
    try:
        table = connection.power_collect(check.family, check.source, check.target,
                                         check.n_max)
        for x in check.x_samples:
            target = [families.family_eval(check.family, k, x, check.target)
                      for k in range(check.n_max + 1)]
            for n in range(check.n_max + 1):
                wanted = families.family_eval(check.family, n, x, check.source)
                rebuilt = sum(table.coefficient(n, k) * target[k] for k in range(n + 1))
                if not check.field.eq(wanted, rebuilt):
                    status = "fail"
    except HyperconnectError:
        status = "error"
    return status, (time.perf_counter() - start) * 1000.0
