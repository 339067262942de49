"""Exact verdicts on integer rows against a per-value reference.

``verify._agreement`` compares the integer rows of both sides by
cross-multiplication.  The reference below is the verdict on values: every
pair as numbers, each side's deviation taken before the comparison.  Each
route of the acceptance suite that compares rows (the GF rows, the chains,
``gf_invariance``, ``gf_matches_eval``, the table checks and the relation
checks, the x-dependent tables included) must pass unperturbed with
deviation 0.0 and, with one entry of one side moved by a small rational,
report what the reference reports.
"""

import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperconnect import EXACT, IdentityCase, acceptance_suite, build_sides, verify_case
from hyperconnect import connection as conn_mod
from hyperconnect import families as families_mod
from hyperconnect import verify as verify_mod
from hyperconnect.connection import ConnectionExpansion
from hyperconnect.fields import FieldTag, deviation
from hyperconnect.series import TruncatedSeries


def reference(field, rows):
    """(status, deviation, first_failing_order, detail) of rows (order,
    wanted, got, where) of values: fail at the first pair the field tells
    apart, with the worst |a - b| up to it as the deviation."""
    worst = 0.0
    for n, wanted, got, where in rows:
        worst = max(worst, deviation(wanted, got))
        if not field.eq(field.of(wanted), field.of(got)):
            return "fail", worst, n, where
    return "pass", worst, None, None


def outcome(report):
    return report.status, report.deviation, report.first_failing_order, report.detail


def _name(case):
    extra = [str(case.params[k]) for k in ("generating_function", "relation", "family")
             if k in case.params]
    return "-".join([case.identity, *extra])


SUITE = acceptance_suite(6)
SERIES = [c for c in SUITE if c.identity in verify_mod.GF_IDENTITIES
          or c.identity in verify_mod.SPECIALIZATION_CHAINS
          or c.identity in ("gf_invariance", "gf_matches_eval")]
TABLES = [c for c in SUITE if c.identity in verify_mod.TABLE_CHECKS]
RELATIONS = [c for c in SUITE if c.identity in conn_mod.relation_ids()]
CHAINS = [c for c in SERIES if c.identity in verify_mod.SPECIALIZATION_CHAINS]

# small rationals, and one so small that the doubles of the two sides coincide
DELTAS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    st.just(Fraction(1, 10**40)))


def test_the_routes_cover_every_row_verdict():
    assert len(SERIES) == 14 + 6 + len([c for c in SUITE if c.identity == "gf_invariance"]) + 2
    assert len(TABLES) == 5 and len(RELATIONS) == 8
    assert {c.identity for c in RELATIONS if conn_mod.connection_table(
        c.identity, {k: v for k, v in c.params.items() if k not in ("n_max", "x_samples")},
        1).x_dependent} == {"meixner_type_c_to_d", "meixner_type_alpha_c"}


@pytest.mark.parametrize("case", SERIES + TABLES + RELATIONS, ids=_name)
def test_an_unperturbed_row_verdict_passes_with_no_deviation(case):
    report = verify_case(case)
    assert (report.status, report.deviation) == ("pass", 0.0), report.detail


def bumped_series(series, i, delta):
    values = list(series.coefficients)
    values[i] += delta
    return TruncatedSeries(series.field, values)


def perturb_pairs(pairs, moves):
    """The pairs with each move (pair, side, index, delta) applied."""
    pairs = [list(pair) for pair in pairs]
    for p, side, i, delta in moves:
        pairs[p][side] = bumped_series(pairs[p][side], i, delta)
    return [tuple(pair) for pair in pairs]


def series_reference(pairs):
    return reference(EXACT, [(i, left.coefficients[i], right.coefficients[i], None)
                             for i in range(pairs[0][0].order + 1) for left, right in pairs])


def run_with_pairs(case, move):
    """The report of the case with ``move(pairs)`` applied to the series its
    verdict compares, and the reference on the pairs compared."""
    seen = []
    coefficient_rows = verify_mod._coefficient_rows

    def perturbed(pairs):
        seen.append(move(pairs))
        return coefficient_rows(seen[-1])

    with unittest.mock.patch.object(verify_mod, "_coefficient_rows", perturbed):
        report = verify_case(case)
    [pairs] = seen
    return outcome(report), series_reference(pairs)


@settings(max_examples=6)
@given(data=st.data())
@pytest.mark.parametrize("case", SERIES, ids=_name)
def test_a_moved_series_entry_is_reported_as_on_values(case, data):
    def move(pairs):
        p = data.draw(st.integers(0, len(pairs) - 1), "pair")
        i = data.draw(st.integers(0, pairs[0][0].order), "index")
        side, delta = data.draw(st.integers(0, 1), "side"), data.draw(DELTAS, "delta")
        return perturb_pairs(pairs, [(p, side, i, delta)])

    got, wanted = run_with_pairs(case, move)
    assert got == wanted and got[0] == "fail"


@pytest.mark.parametrize("case", CHAINS, ids=_name)
@pytest.mark.parametrize("sides", [(0, 0), (0, 1), (1, 0)])
def test_a_chain_reports_its_first_pair_where_both_first_differ(case, sides):
    """Both pairs of a chain first differ at one index, by different
    amounts: the lhs pair, compared first, decides the deviation."""
    index = case.order // 2
    moves = [(0, sides[0], index, Fraction(1, 3)), (1, sides[1], index, Fraction(-5, 2))]
    got, wanted = run_with_pairs(case, lambda pairs: perturb_pairs(pairs, moves))
    assert got == wanted
    assert (got[0], got[2]) == ("fail", index) and got[1] == pytest.approx(1 / 3)


def bumped_row(field, nums, den, k, delta):
    """Row nums / den with entry k moved by delta; an exact row is rescaled
    by delta's denominator, so it is stored unreduced."""
    if not field.is_exact:
        nums = list(nums)
        nums[k] += float(delta)
        return list(nums), den
    nums = [v * delta.denominator for v in nums]
    nums[k] += delta.numerator * den
    return nums, den * delta.denominator


def bumped_table(table, n, k, delta):
    """The table with entry (n, k) moved by delta, at every x for a
    connection-type table."""
    def rows(x=None):
        forms = [table.row_form(m, x) for m in range(table.n_max + 1)]
        return forms[0][0], [bumped_row(*form, k, delta) if m == n else form[1:]
                             for m, form in enumerate(forms)]

    common = dict(field=table.field, method=table.method, relation=table.relation)
    if table.x_dependent:
        return ConnectionExpansion(table.n_max, table.source, table.target, (), rows_at=rows,
                                   **common)
    return ConnectionExpansion(table.n_max, table.source, table.target, rows()[1], **common)


def recording(module, names, made, change):
    """Patches of module's functions ``names`` that keep each result,
    after ``change(call number, result)``, in ``made``."""
    def wrap(f):
        def wrapped(*args, **kwargs):
            made.append(change(len(made), f(*args, **kwargs)))
            return made[-1]
        return wrapped

    return [unittest.mock.patch.object(module, name, wrap(getattr(module, name)))
            for name in names]


def patched(patches, run):
    for patch in patches:
        patch.start()
    try:
        return run()
    finally:
        for patch in patches:
            patch.stop()


_TABLE_MAKERS = ("connection_table", "power_collect", "connect_linear_solve")


@settings(max_examples=12)
@given(data=st.data())
@pytest.mark.parametrize("case", TABLES, ids=_name)
def test_a_moved_table_entry_is_reported_as_on_values(case, data):
    n_max = case.params["n_max"]
    n = data.draw(st.integers(0, n_max), "n")
    k = data.draw(st.integers(0, n), "k")
    which, delta = data.draw(st.integers(0, 1), "table"), data.draw(DELTAS, "delta")
    tables = []
    report = patched(recording(conn_mod, _TABLE_MAKERS, tables, lambda i, table: (
        bumped_table(table, n, k, delta) if i == which else table)), lambda: verify_case(case))
    left, right = tables
    wanted = reference(case.field, [
        (m, a, b, f"tables disagree at n = {m}, k = {j}") for m in range(n_max + 1)
        for j, (a, b) in enumerate(zip(left.row(m), right.row(m)))])
    assert outcome(report) == wanted


@settings(max_examples=12)
@given(data=st.data())
@pytest.mark.parametrize("case", RELATIONS, ids=_name)
def test_a_moved_relation_entry_is_reported_as_on_values(case, data):
    """One entry of the table, at every sample, or of one sample's source
    row is moved; the reference sums the reconstruction in values."""
    xs = case.params["x_samples"]
    n_max = case.params["n_max"]
    n = data.draw(st.integers(0, n_max), "n")
    delta = data.draw(DELTAS, "delta")
    move_table = data.draw(st.booleans(), "move the table")
    k = data.draw(st.integers(0, n), "k")
    sample = data.draw(st.integers(0, len(xs) - 1), "sample")

    def table_change(i, table):
        return bumped_table(table, n, k, delta) if move_table else table

    def row_change(i, form):  # calls 0 .. len(xs) - 1 read the source rows
        return (form[0], *bumped_row(*form, n, delta)) if not move_table and i == sample else form

    tables, rows = [], []
    patches = recording(conn_mod, ["connection_table"], tables, table_change)
    patches += recording(families_mod, ["gauss_row_form"], rows, row_change)
    report = patched(patches, lambda: verify_case(case))
    [table] = tables
    source, target = [[field.over(nums, den) for field, nums, den in side]
                      for side in (rows[:len(xs)], rows[len(xs):])]
    wanted = reference(EXACT, [
        (m, source[i][m], sum(c * p for c, p in zip(table.row(m, x), target[i])),
         f"reconstruction breaks at n = {m}, x = {x}")
        for m in range(n_max + 1) for i, x in enumerate(xs)])
    assert outcome(report) == wanted and report.status == "fail"


@pytest.mark.parametrize("case", [c for c in SERIES if c.identity in verify_mod.GF_IDENTITIES],
                         ids=_name)
def test_a_passing_exact_gf_verdict_forms_no_value(case):
    """The verdict reads both rows as integers: no ``FieldTag.over`` and no
    ``Fraction`` while it compares."""
    sides = build_sides(case)
    formed = []
    over = FieldTag.over

    def counted_over(field, nums, den):
        formed.append(len(nums))
        return over(field, nums, den)

    def counted_fraction(*args):
        formed.append(args)
        return Fraction(*args)

    with unittest.mock.patch.object(FieldTag, "over", counted_over), \
            unittest.mock.patch.object(verify_mod, "Fraction", counted_fraction):
        report = verify_mod._agreement(case, EXACT, verify_mod._coefficient_rows([sides]))
    assert (report.status, report.deviation, formed) == ("pass", 0.0, [])


@pytest.mark.parametrize("case, kind", [
    (IdentityCase("meixner_alpha_to_beta", {
        "alpha": Fraction(3, 2), "beta": Fraction(7, 3), "c": Fraction(2, 5), "n_max": 4,
        "x_samples": (Fraction(1), 2.5)}), "complex"),
    (IdentityCase("krawtchouk_sum_1f1", {"p": 0.5, "q": Fraction(1, 3), "N": 3, "M": 5,
                                          "t": Fraction(1, 5), "n": 1}), "float"),
], ids=["relation-double-sample", "krawtchouk-sum-double-p"])
def test_a_double_entry_on_the_exact_field_is_its_field_error(case, kind):
    report = verify_case(case)
    assert (report.status, report.detail) == (
        "error", f"FieldError: exact field holds rationals, not {kind};"
                 " write the value as a ratio like '3/10'")
