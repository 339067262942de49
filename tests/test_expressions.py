"""The catalog expression evaluator: arithmetic, fields, and its sandbox."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def walk(node, env, field):
    """The reference: a plain walk of the parse tree, each node checked as it
    is reached, which the compiled closures must match value for value and
    refusal for refusal."""
    import ast

    from hyperconnect.expressions import _FUNCTIONS, _NUMERIC_ONLY, _power

    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise DomainError(f"only integer literals are allowed in catalog formulas,"
                              f" got {node.value!r}")
        return field.of(node.value)
    if isinstance(node, ast.Name):
        if node.id == "i":
            if field.is_exact:
                raise FieldError("the imaginary unit needs the numeric field")
            return complex(0.0, 1.0)
        if node.id not in env:
            raise DomainError(f"unbound parameter {node.id!r}")
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = walk(node.operand, env, field)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        left, right = walk(node.left, env, field), walk(node.right, env, field)
        ops = {ast.Add: lambda: left + right, ast.Sub: lambda: left - right,
               ast.Mult: lambda: left * right, ast.Pow: lambda: _power(left, right)}
        if isinstance(node.op, ast.Div):
            if right == 0:
                raise DomainError("division by zero in catalog formula")
            return left / right
        if type(node.op) not in ops:
            raise DomainError(f"operator {type(node.op).__name__} not allowed")
        return ops[type(node.op)]()
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise DomainError("only the documented catalog functions may be called")
        if field.is_exact and node.func.id in _NUMERIC_ONLY:
            raise FieldError(f"{node.func.id}() needs the numeric field")
        return _FUNCTIONS[node.func.id](*[walk(arg, env, field) for arg in node.args])
    raise DomainError(f"syntax {type(node).__name__} not allowed in catalog formulas")


# leaves, and the operands of ** and of calls, which stay leaves so that no
# drawn formula builds a tower of powers
LEAVES = st.sampled_from(["x", "alpha", "n", "q", "i", "missing", "0", "1", "2", "3", "1.5",
                          "'text'", "True", "x.denominator"])
FORMULAS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.builds("-({})".format, inner), st.builds("+({})".format, inner),
    st.builds("not ({})".format, inner),
    st.builds("({}) {} ({})".format, inner, st.sampled_from(["+", "-", "*", "/", "%", "//"]),
              inner),
    st.builds("({}) ** {}".format, inner, LEAVES),
    st.builds("{}({})".format, st.sampled_from(["factorial", "cis", "open"]), LEAVES),
    st.builds("poch({}, {})".format, LEAVES, LEAVES),
    st.builds("qpoch({}, {}, {})".format, LEAVES, LEAVES, LEAVES),
    st.builds("({}) if x else 1".format, inner)), max_leaves=6)


def outcome(f):
    """(type, repr) of f's value, or of the error it raises, with its message."""
    try:
        value = f()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


@settings(max_examples=300)
@given(expr=FORMULAS)
def test_compiled_formulas_give_the_walks_values_and_refusals(expr):
    """Each formula, compiled once per field kind, gives the value a walk of
    its tree gives, and raises the walk's error, type and message, at the
    node the walk reaches first."""
    import ast

    values = {"x": Fraction(3, 2), "alpha": Fraction(-2), "n": Fraction(3), "q": Fraction(1, 3)}
    for field in (EXACT, NUMERIC):
        env = {name: field.of(v) for name, v in values.items()}
        tree = ast.parse(expr, mode="eval").body
        assert outcome(lambda: evaluate(expr, env, field)) == outcome(
            lambda: walk(tree, env, field)), (expr, field.kind)
