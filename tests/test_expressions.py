"""The catalog expression evaluator: arithmetic, fields, and its sandbox."""

import math
from fractions import Fraction

import pytest

from hyperconnect import EXACT, NUMERIC, DomainError, FieldError
from hyperconnect.expressions import evaluate, variables


def test_variables_extraction():
    assert variables("1/c") == {"c"}
    assert variables("x + alpha") == {"x", "alpha"}
    assert variables("qpoch(q**(-N), q, n) / qpoch(q, q, n)") == {"q", "N", "n"}
    assert variables("cis(theta)") == {"theta"}  # cis and i are not variables
    assert variables("c - i*x") == {"c", "x"}


def test_exact_arithmetic():
    env = {"c": Fraction(2, 5), "x": Fraction(3), "alpha": Fraction(3, 2)}
    assert evaluate("1/c", env, EXACT) == Fraction(5, 2)
    assert evaluate("-x", env, EXACT) == -3
    assert evaluate("x + alpha", env, EXACT) == Fraction(9, 2)
    assert evaluate("(-1)**3 * x**2", env, EXACT) == -9
    n = {"n": Fraction(4), "q": Fraction(1, 3)}
    assert evaluate("q**(n*(n - 1)/2)", n, EXACT) == Fraction(1, 3) ** 6


def test_functions():
    env = {"alpha": Fraction(3, 2), "n": Fraction(3)}
    assert evaluate("poch(alpha, n)", env, EXACT) == Fraction(105, 8)
    assert evaluate("factorial(n)", env, EXACT) == 6
    got = evaluate("cis(theta)", {"theta": complex(math.pi / 3)}, NUMERIC)
    assert abs(got - complex(0.5, math.sin(math.pi / 3))) < 1e-15


def test_numeric_only_pieces_rejected_on_exact_field():
    with pytest.raises(FieldError):
        evaluate("cis(theta)", {"theta": Fraction(1)}, EXACT)
    with pytest.raises(FieldError):
        evaluate("i*x", {"x": Fraction(1)}, EXACT)


def test_non_integer_exponent_on_exact_field_is_rejected():
    with pytest.raises(DomainError):
        evaluate("x**(1/2)", {"x": Fraction(4)}, EXACT)


def test_unbound_names_and_division_by_zero():
    with pytest.raises(DomainError, match="unbound"):
        evaluate("alpha + missing", {"alpha": Fraction(1)}, EXACT)
    with pytest.raises(DomainError, match="division"):
        evaluate("1/(x - x)", {"x": Fraction(2)}, EXACT)


def test_sandbox_rejects_everything_but_arithmetic():
    hostile = [
        "__import__('os').system('true')",
        "(1).__class__",
        "[x for x in (1,)]",
        "x if x else x",
        "lambda: 1",
        "open('/etc/passwd')",
        "x.denominator",
        "1.5",  # float literals would smuggle inexactness into the catalog
        "'text'",
    ]
    for expr in hostile:
        with pytest.raises(DomainError):
            evaluate(expr, {"x": Fraction(1)}, EXACT)


def test_each_formula_is_parsed_once_and_values_are_not_kept(monkeypatch):
    import ast

    from hyperconnect import expressions

    parsed = []
    parse = ast.parse

    def counted(source, *args, **kwargs):
        parsed.append(source)
        return parse(source, *args, **kwargs)

    expressions._parse.cache_clear()
    monkeypatch.setattr(ast, "parse", counted)
    expr = "x * alpha + 1"
    values = [evaluate(expr, {"x": Fraction(j), "alpha": Fraction(1, 3)}, EXACT)
              for j in range(4)]
    assert variables(expr) == {"x", "alpha"}
    assert values == [1, Fraction(4, 3), Fraction(5, 3), 2]
    assert parsed == [expr]
