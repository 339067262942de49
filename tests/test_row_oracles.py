"""The generic connection methods and the generating-function families on
rows, against value-path references kept here.

* Exact: the table Fraction samples from ``family_rows`` give, through
  integer Newton tables over the lcm of each degree's sample denominators
  and fraction-free back substitution, entry for entry, on integers no
  larger than that reference's.
* Doubles: one ``TruncatedSeries`` per generating-function factor,
  multiplied with ``*``, and every value formed from it by the plain
  operations, compared by repr, so a signed zero counts.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verify import small_rationals

from hyperconnect import connection as connection_mod
from hyperconnect import families as families_mod
from hyperconnect import (
    DomainError,
    connect_linear_solve,
    family_eval,
    family_rows,
    gf_expand,
    power_collect,
)
from hyperconnect.fields import EXACT, NUMERIC, as_numeric
from hyperconnect.series import TruncatedSeries

EXACT_POINTS = st.one_of(st.integers(-20, 20), small_rationals(-6, 6, max_den=12)).map(Fraction)


# -- the exact value path -----------------------------------------------------


def value_newton(values, points):
    """(levels, den): the integer Newton table of exact ``values`` over the
    integer ``points``, every level, level j is levels[j] / (den L_1 ...
    L_j) with L_j the lcm of its gaps; level 0 is the values over the lcm of
    their denominators."""
    level, den = EXACT.common(values)
    levels = [level]
    for j in range(1, len(level)):
        gaps = [points[i + j] - points[i] for i in range(len(level) - 1)]
        common = math.lcm(*gaps)
        level = [(b - a) * (common // g) for a, b, g in zip(level, level[1:], gaps)]
        levels.append(level)
    return levels, den


def value_solve(family, source, target, n_max, points):
    """(source tables, target tables, rows) of the value-path solve: the
    Newton tables of ``value_newton`` per degree, and the integer rows
    (nums, den) of back substitution with every unknown over the product of
    the pivots used so far."""
    xs, _ = EXACT.common(points)
    source_tables, target_tables = (
        [value_newton([row[n] for row in columns], xs) for n in range(n_max + 1)]
        for columns in (family_rows(family, n_max, points, side) for side in (source, target)))
    top = [[level[0] for level in levels] for levels, _ in target_tables]
    rows = []
    for n, (levels, source_den) in enumerate(source_tables):
        ys, product = [0] * (n + 1), 1
        for j in range(n, -1, -1):
            pivot = top[j][j]
            residue = levels[j][0] * product - sum(ys[k] * top[k][j] for k in range(j + 1, n + 1))
            ys[j + 1:] = [y * pivot for y in ys[j + 1:]]
            ys[j] = residue
            product *= pivot
        rows.append(([y * den for y, (_, den) in zip(ys, target_tables)], product * source_den))
    return source_tables, target_tables, rows


@st.composite
def exact_pairs(draw):
    """(family, source, target, n_max, abscissae) on rational bindings and
    distinct rational abscissae, non-integer ones too; a Meixner pair keeps
    its c half of the time and a q-family pair always keeps q, so power
    collection applies."""
    family = draw(st.sampled_from(["meixner", "krawtchouk", "charlier", "al_salam_carlitz_1",
                                   "al_salam_carlitz_2"]))
    n_max = draw(st.integers(0, 6), "n_max")
    rates = small_rationals(0, 1)
    nonzero = small_rationals(-3, 3).filter(bool)
    if family == "meixner":
        c = draw(rates, "c")
        same_c = draw(st.booleans(), "same c")
        source, target = ({"alpha": draw(small_rationals(0, 6), "alpha"),
                           "c": c if same_c else draw(rates, "c")} for _ in range(2))
    elif family == "krawtchouk":
        source, target = ({"p": draw(nonzero, "p"), "N": draw(st.integers(n_max, n_max + 4), "N")}
                          for _ in range(2))
    elif family == "charlier":
        source, target = ({"a": draw(nonzero, "a")} for _ in range(2))
    else:
        q = draw(rates, "q")
        source, target = ({"a": draw(nonzero, "a"), "q": q} for _ in range(2))
    points = draw(st.lists(EXACT_POINTS, min_size=n_max + 1, max_size=n_max + 1, unique=True),
                  "abscissae")
    return family, source, target, n_max, points


def applies(family, source, target):
    """Whether power collection applies: the varied parameter sits in a
    factor whose ratio is a single (q-)binomial."""
    if family == "meixner":
        return source["c"] == target["c"]
    return family.startswith("al_salam_carlitz")


@settings(max_examples=80)
@given(pair=exact_pairs())
def test_exact_generic_tables_equal_the_value_path(pair):
    family, source, target, n_max, points = pair
    *_, rows = value_solve(family, source, target, n_max, points)
    want = [EXACT.over(*row) for row in rows]
    table = connect_linear_solve(family, source, target, n_max, abscissae=points)
    assert table.matrix() == want
    assert all(type(c) is Fraction for row in table.matrix() for c in row)
    if applies(family, source, target):  # the connection table does not read the abscissae
        assert power_collect(family, source, target, n_max).matrix() == want


def bits(values):
    return max(abs(v).bit_length() for v in values)


SIZED = [
    ("meixner", {"alpha": Fraction(3, 2), "c": Fraction(1, 3)},
     {"alpha": Fraction(7, 3), "c": Fraction(2, 5)}),
    ("krawtchouk", {"p": Fraction(1, 3), "N": 24}, {"p": Fraction(2, 5), "N": 28}),
    ("charlier", {"a": Fraction(5, 2)}, {"a": Fraction(-7, 3)}),
    ("al_salam_carlitz_1", {"a": Fraction(1, 4), "q": Fraction(1, 3)},
     {"a": Fraction(1, 5), "q": Fraction(1, 3)}),
    ("al_salam_carlitz_2", {"a": Fraction(-3, 4), "q": Fraction(2, 5)},
     {"a": Fraction(1, 5), "q": Fraction(2, 5)}),
]


@pytest.mark.parametrize("family,source,target", SIZED)
@pytest.mark.parametrize("spread", [1, Fraction(7, 3)])
def test_exact_solve_integers_are_no_larger_than_the_value_path(monkeypatch, family, source,
                                                                target, spread):
    """At n_max 24, each Newton table (its level 0, the entries the solve
    reads and its denominator) and each solved row has no more bits than
    the value path's: no degree's samples stay over a larger denominator
    than the lcm of their reduced ones."""
    n_max = 24
    points = [spread * i - 5 for i in range(n_max + 1)]
    samples, tops = [], []

    def recorded(made, f):
        def wrapped(*args):
            made.append(f(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(connection_mod, "_exact_samples",
                        recorded(samples, connection_mod._exact_samples))
    monkeypatch.setattr(connection_mod, "_integer_newton",
                        recorded(tops, connection_mod._integer_newton))
    table = connect_linear_solve(family, source, target, n_max, abscissae=points)
    source_tables, target_tables, rows = value_solve(family, source, target, n_max, points)
    reference = source_tables + target_tables
    assert len(tops) == len(reference) == sum(len(side) for side in samples)
    for (ints, den), got, (levels, want_den) in zip(
            [degree for side in samples for degree in side], tops, reference):
        want = levels[0] + [level[0] for level in levels[:len(got)]]
        assert bits([*ints, *got, den]) <= bits([*want, want_den])
    for n, (want, want_den) in enumerate(rows):
        _, nums, den = table.row_form(n)
        assert bits([*nums, den]) <= bits([*want, want_den])


# -- doubles: one series per factor, multiplied with * --------------------------


def factor_product(family, x, params, order):
    """The generating function to ``order`` as one ``TruncatedSeries`` per
    factor, multiplied with ``*``, zero-padded past a size N."""
    descriptor = families_mod.get_family(family)
    params = descriptor.bind(params)
    field = descriptor.field_for(x, *params.values())
    env = families_mod._environment(descriptor, x, params, field)
    top = families_mod.degree_cap(order, params)
    first, *rest = [families_mod._expand_factor(factor, env, env.get("q"), top, field)
                    for factor in descriptor.factors]
    for factor in rest:
        first = first * factor
    return first.padded_to(order)


def product_values(family, n_max, x, params):
    """P_0..P_n_max as the product's coefficients over the normalizations."""
    descriptor = families_mod.get_family(family)
    series = factor_product(family, x, params, n_max)
    return [c / families_mod.normalization_at(descriptor, n, None, params, series.field)
            for n, c in enumerate(series.coefficients)]


def product_power_collect(family, source, target, n_max):
    """Rows r_{n-k} c_k(target) / c_n(source) on doubles, the ratio one
    series per varied factor multiplied with ``*``."""
    descriptor = families_mod.get_family(family)
    env_from, env_to = ({k: NUMERIC.of(v) for k, v in side.items()} for side in (source, target))
    varied = {name for name in descriptor.parameters if source[name] != target[name]}
    ratio = TruncatedSeries.one(n_max, NUMERIC)
    for factor in descriptor.factors:
        if varied & factor.free_variables():
            ratio = ratio * connection_mod._factor_ratio_series(
                factor, env_from, env_to, env_from["q"], n_max, NUMERIC)
    r = ratio.coefficients
    c, t = ([families_mod.normalization_at(descriptor, n, None, side, NUMERIC)
             for n in range(n_max + 1)] for side in (source, target))
    return [[r[n - k] * t[k] / c[n] for k in range(n + 1)] for n in range(n_max + 1)]


def product_linear_solve(family, source, target, n_max):
    """Divided differences of the product values at the default abscissae
    and back substitution, one plain operation at a time."""
    descriptor = families_mod.get_family(family)
    points = connection_mod.default_abscissae(descriptor, n_max, NUMERIC)
    xs = [as_numeric(x) for x in points]

    def newton(values):
        level, out = [as_numeric(v) for v in values], []
        out.append(level[0])
        for j in range(1, len(level)):
            level = [(level[i + 1] - level[i]) / (xs[i + j] - xs[i])
                     for i in range(len(level) - 1)]
            out.append(level[0])
        return out

    s, t = ([newton(column) for column in zip(*[product_values(family, n_max, x, side)
                                                for x in points])]
            for side in (source, target))
    rows = []
    for n in range(n_max + 1):
        coeffs = [complex(0.0)] * (n + 1)
        for j in range(n, -1, -1):
            residue = s[n][j]
            for k in range(j + 1, n + 1):
                residue = residue - coeffs[k] * t[k][j]
            coeffs[j] = residue / t[j][j]
        rows.append(coeffs)
    return rows


def reprs(values):
    return [repr(v) for v in values]


COMPLEX = st.builds(complex, st.floats(-2, 2), st.floats(-1, 1)).filter(
    lambda z: z.imag != 0 and abs(z) > 0.05)
ARGUMENTS = st.one_of(st.floats(-3, 3), COMPLEX, st.sampled_from([0.0, -0.0, Fraction(3, 2)]))


@st.composite
def complex_pairs(draw):
    """(family, source, target) of Charlier or an Al-Salam-Carlitz family on
    complex-double bindings, one q for both sides."""
    family = draw(st.sampled_from(["charlier", "al_salam_carlitz_1", "al_salam_carlitz_2"]))
    if family == "charlier":
        return family, {"a": draw(COMPLEX, "a")}, {"a": draw(COMPLEX, "a")}
    q = draw(st.floats(0.1, 0.9), "q")
    return family, {"a": draw(COMPLEX, "a"), "q": q}, {"a": draw(COMPLEX, "a"), "q": q}


@settings(max_examples=40)
@given(pair=complex_pairs(), x=ARGUMENTS, n_max=st.integers(0, 9))
def test_doubles_keep_the_bits_of_one_series_per_factor(pair, x, n_max):
    family, source, target = pair
    for params in (source, target):
        want = factor_product(family, x, params, n_max)
        assert reprs(gf_expand(family, x, params, n_max).coefficients) == reprs(
            want.coefficients)
        values = product_values(family, n_max, x, params)
        assert reprs(family_eval(family, n, x, params) for n in range(n_max + 1)) == reprs(
            values)
        assert [reprs(row) for row in family_rows(family, n_max, [x, 0.5], params)] == [
            reprs(values), reprs(product_values(family, n_max, 0.5, params))]
    if family != "charlier":
        table = power_collect(family, source, target, n_max)
        assert [reprs(table.row(n)) for n in range(n_max + 1)] == [
            reprs(row) for row in product_power_collect(family, source, target, n_max)]
    table = connect_linear_solve(family, source, target, n_max)
    assert [reprs(table.row(n)) for n in range(n_max + 1)] == [
        reprs(row) for row in product_linear_solve(family, source, target, n_max)]


@pytest.mark.parametrize("family,params", [
    ("charlier", {"a": complex(1e-300, 1e-300)}),
    ("al_salam_carlitz_1", {"a": complex(1e200, 1e200), "q": 0.5}),
    ("al_salam_carlitz_2", {"a": complex(1e200, -1e200), "q": 0.5}),
])
def test_a_factor_past_the_double_range_is_refused(family, params):
    for expand in (gf_expand, factor_product):
        with pytest.raises(DomainError, match="numeric scalar must be finite"):
            expand(family, 2.5, params, 4)
    with pytest.raises(DomainError, match="numeric scalar must be finite"):
        family_eval(family, 4, 2.5, params)
