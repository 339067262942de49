"""Seeded case lists for the benchmark workloads.

Every parameter is a small-denominator rational drawn inside the documented
domain of the identity it feeds:

* ``c`` and ``d`` lie in (0, 1); the lattice sums draw them from
  [1/5, 7/10], where x_max = 300 should leave a tail far below the
  tolerance (NOTES.md lists where the library's tail estimate disagrees);
* ``alpha``, ``beta`` and ``gamma`` are positive, and ``beta - alpha`` is
  never an integer (``meixner_type_alpha_c`` needs that);
* ``x`` is never an integer, so no series in x terminates early and the work
  of a pass does not depend on the seed through a lucky termination;
* the 2F1 sums keep 0 < t with |t(1-c)| < |c(1-t)| (same c) and
  |t| < cd/(c+d) (two parameters).

Each parameter has one fixed denominator and numerators of one bit length,
so the size of the exact arithmetic, and with it the work of a pass, depends
little on the seed.  Draws are rejected only for failing these parameter
conditions, never for a verdict.  The library receives only the finished ``IdentityCase`` lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from hyperconnect import NUMERIC, IdentityCase, acceptance_suite, numeric
from hyperconnect.connection import get_relation, relation_ids
from hyperconnect.verify import GF_IDENTITIES

GF_ORDER = 24
KRAWTCHOUK_N = 24
KRAWTCHOUK_M = 30
LATTICE_X_MAX = 300
LATTICE_DEGREES = range(8)
CONNECT_N_MAX = 16
CONNECT_KRAWTCHOUK_N = 16
CONNECT_KRAWTCHOUK_M = 20
Q_FAMILY_N_MAX = 16

Q_X_SAMPLES = (-0.75, -0.25, 0.3, 0.8)
X_SAMPLES = (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(4), Fraction(-3, 7))
TOL9 = numeric(1e-9, 1e-9)
TOL10 = numeric(1e-10, 0.0)

CHAINS = {
    "chain_meixner_1f1_c_equals_d": ("x", "alpha", "beta", "c"),
    "chain_meixner_2f1_d_equals_c": ("x", "alpha", "beta", "c", "gamma"),
    "chain_krawtchouk_1f1_p_equals_q": ("x", "p", "q", "N", "M", "gamma"),
    "chain_krawtchouk_1f1_M_equals_N": ("x", "p", "q", "N", "M", "gamma"),
    "chain_krawtchouk_2f1_p_equals_q": ("x", "p", "q", "N", "M", "gamma"),
    "chain_krawtchouk_2f1_M_equals_N": ("x", "p", "q", "N", "M", "gamma"),
}


@dataclass(frozen=True)
class QFamilyCheck:
    """Power collection on a q-family that has no verifier route of its own,
    on complex doubles, checked by reconstruction at ``x_samples``."""

    family: str
    source: dict
    target: dict
    n_max: int
    x_samples: tuple
    field: object


def rational(rng: random.Random, lo, hi, denominators, *, integer=False) -> Fraction:
    """Uniform draw among p/q in the open interval (lo, hi), q from
    ``denominators``; integers are excluded unless ``integer`` is set."""
    while True:
        q = rng.choice(denominators)
        lo_p = math.floor(Fraction(lo) * q) + 1
        hi_p = math.ceil(Fraction(hi) * q) - 1
        if lo_p > hi_p:
            continue
        value = Fraction(rng.randint(lo_p, hi_p), q)
        if integer or value.denominator != 1:
            return value


def _pick(params, names):
    return {k: params[k] for k in names}


def _meixner_params(rng):
    return {
        "x": rational(rng, 4, 8, (2,)),
        "alpha": rational(rng, 2, 4, (3,)),
        "beta": rational(rng, 2, 4, (4,)),
        "c": rational(rng, 0, 1, (5,)),
        "d": rational(rng, 0, 1, (7,)),
        "gamma": rational(rng, 1, 2, (4,)),
    }


def _probability_pair(rng):
    return rational(rng, 0, 1, (5,)), rational(rng, 0, 1, (7,))


def gf_order24(seed: int) -> list:
    """All 14 GF identities and the 6 specialization chains at order 24."""
    rng = random.Random(seed)
    meix = _meixner_params(rng)
    p, q = _probability_pair(rng)
    kraw = {
        "x": rational(rng, 4, 8, (2,)), "p": p, "q": q,
        "N": KRAWTCHOUK_N, "M": KRAWTCHOUK_M,
        "gamma": rational(rng, 1, 2, (4,)),
    }
    cases = []
    for identity, (_, names) in GF_IDENTITIES.items():
        source = kraw if identity.startswith("krawtchouk") else meix
        cases.append(IdentityCase(identity, _pick(source, names), order=GF_ORDER))
    for chain, names in CHAINS.items():
        source = kraw if "krawtchouk" in chain else meix
        cases.append(IdentityCase(chain, _pick(source, names), order=GF_ORDER))
    return cases


def lattice_x300(seed: int) -> list:
    """The five Meixner orthogonality and sum identities, n = 0..7."""
    rng = random.Random(seed)
    cases = []
    for n in LATTICE_DEGREES:
        alpha = rational(rng, Fraction(1, 2), 4, (2,))
        beta = rational(rng, Fraction(1, 2), 4, (3,))
        gamma = rational(rng, Fraction(1, 2), 3, (4,))
        c = rational(rng, Fraction(1, 5), Fraction(7, 10), (11,))
        d = rational(rng, Fraction(1, 5), Fraction(7, 10), (13,))
        t1 = rational(rng, Fraction(1, 10), Fraction(1, 2), (7,))
        # 2F1 sums: 0 < t with |t(1-c)| < |c(1-t)|, i.e. t < c, and
        # t < cd/(c+d); half of each bound keeps the kernels well inside.
        t_same = rational(rng, 0, c / 2, (17,))
        t_two = rational(rng, 0, c * d / (c + d) / 2, (31,))
        m = rng.randint(0, n)
        cases.append(IdentityCase(
            "meixner_orthogonality", {"alpha": alpha, "c": c, "n": n, "m": m},
            field=TOL9, x_max=LATTICE_X_MAX))
        cases.append(IdentityCase(
            "meixner_sum_1f1_same_c",
            {"alpha": alpha, "beta": beta, "c": c, "t": t1, "n": n},
            field=TOL10, x_max=LATTICE_X_MAX))
        cases.append(IdentityCase(
            "meixner_sum_1f1_two_param",
            {"alpha": alpha, "beta": beta, "c": c, "d": d, "t": t1, "n": n},
            field=TOL10, x_max=LATTICE_X_MAX))
        cases.append(IdentityCase(
            "meixner_sum_2f1_same_c",
            {"alpha": alpha, "beta": beta, "gamma": gamma, "c": c, "t": t_same,
             "n": n},
            field=TOL10, x_max=LATTICE_X_MAX))
        cases.append(IdentityCase(
            "meixner_sum_2f1_two_param",
            {"alpha": alpha, "beta": beta, "gamma": gamma, "c": c, "d": d,
             "t": t_two, "n": n},
            field=TOL10, x_max=LATTICE_X_MAX))
    return cases


def connect_n16(seed: int):
    """Connection relations, power collection and the linear-solve oracle
    at n_max = 16, plus both Al-Salam-Carlitz families on complex doubles.

    Returns the verifier cases and the q-family checks that have no
    verifier route.
    """
    rng = random.Random(seed)
    meix = _meixner_params(rng)
    p, q = _probability_pair(rng)
    kraw = {"p": p, "q": q, "N": CONNECT_KRAWTCHOUK_N, "M": CONNECT_KRAWTCHOUK_M}
    cases = []
    for relation in relation_ids():
        source = kraw if relation.startswith("krawtchouk") else meix
        cases.append(IdentityCase(
            relation,
            {**_pick(source, get_relation(relation).names), "n_max": CONNECT_N_MAX,
             "x_samples": X_SAMPLES},
        ))
    n_max = {"n_max": CONNECT_N_MAX}
    cases.append(IdentityCase("power_collect_matches_closed_form",
                              {**_pick(meix, ("alpha", "beta", "c")), **n_max}))
    cases.append(IdentityCase("oracle_meixner_alpha",
                              {**_pick(meix, ("alpha", "beta", "c")), **n_max}))
    cases.append(IdentityCase("oracle_meixner_two_param",
                              {**_pick(meix, ("alpha", "beta", "c", "d")), **n_max}))
    cases.append(IdentityCase("oracle_krawtchouk", {**kraw, **n_max}))

    def complex_a():
        return complex(float(rational(rng, Fraction(1, 10), Fraction(1, 2), (10, 20))),
                       float(rational(rng, -Fraction(1, 5), Fraction(1, 5), (10, 20),
                                      integer=True)))

    base = float(rational(rng, Fraction(1, 5), Fraction(1, 2), (5, 7, 10)))
    a_from, a_to = complex_a(), complex_a()
    cases.append(IdentityCase(
        "oracle_al_salam_carlitz_1",
        {"a_from": a_from, "a_to": a_to, "q": base, "n_max": Q_FAMILY_N_MAX},
        field=TOL10,
    ))
    checks = [QFamilyCheck(
        "al_salam_carlitz_2", {"a": a_from, "q": base}, {"a": a_to, "q": base},
        Q_FAMILY_N_MAX, Q_X_SAMPLES, NUMERIC,
    )]
    return cases, checks


def suite12(seed: int) -> list:
    """The fixed acceptance suite at order 12; it takes no seed."""
    del seed
    return acceptance_suite(order=12)


WORKLOADS = {
    "suite12": suite12,
    "gf_order24": gf_order24,
    "lattice_x300": lattice_x300,
    "connect_n16": connect_n16,
}


def workload_cases(name: str, seed: int):
    """(verifier cases, q-family checks) of one workload."""
    made = WORKLOADS[name](seed)
    return made if isinstance(made, tuple) else (made, [])
