"""Tiny arithmetic expression evaluator for catalog formulas.

Factor bases, exponents, and normalizations in the family catalog are stored
as strings like ``"1/c"``, ``"x + alpha"``, or
``"(-1)**n * q**(n*(n - 1)/2) / qpoch(q, q, n)"``.  They are parsed with the
ast module and evaluated against a name -> scalar environment, so the catalog
stays a plain data file while remaining executable and introspectable.  Each
formula is compiled once per field kind into closures, literals already in
the field; a refusal raises where a walk of the tree would reach it.

Allowed syntax: +, -, *, /, **, integer literals, names, and calls to
poch(a, n), qpoch(a, q, n), factorial(n), cis(theta).
``i`` is the imaginary unit (numeric field only).  Exponents must be
integers after simplification on the exact field.
"""

from __future__ import annotations

import ast
import cmath
import functools
import math
import operator
from fractions import Fraction

from .errors import DomainError, FieldError
from .fields import EXACT, NUMERIC, FieldTag, as_index, is_exact_value
from .pochhammer import pochhammer, q_pochhammer


def _cis(theta):
    return cmath.exp(1j * complex(theta))


_FUNCTIONS = {
    "poch": pochhammer,
    "qpoch": q_pochhammer,
    "factorial": lambda n: math.factorial(as_index(n, "factorial argument")),
    "cis": _cis,
}

_NUMERIC_ONLY = {"cis"}


@functools.lru_cache(maxsize=1024)
def _parse(expr: str) -> ast.Expression:
    """The parse tree of a formula string, parsed once per string.  Trees are
    only read, never changed, so sharing them is safe."""
    return ast.parse(expr, mode="eval")


def variables(expr: str) -> frozenset:
    """Free variable names of an expression (functions and 'i' excluded)."""
    tree = _parse(expr)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS and node.id != "i":
            names.add(node.id)
    return frozenset(names)


def names_imaginary_unit(expr: str) -> bool:
    """Whether an expression names the imaginary unit, as ``i`` or through
    a numeric-only function such as cis(theta)."""
    return any(isinstance(node, ast.Name) and (node.id == "i" or node.id in _NUMERIC_ONLY)
               for node in ast.walk(_parse(expr)))


def _power(base, exponent):
    if is_exact_value(exponent):
        exponent = Fraction(exponent)
        if exponent.denominator != 1:
            raise DomainError(f"non-integer exponent {exponent} on exact value")
        exponent = int(exponent)
        if exponent >= 0:
            return base**exponent
        return 1 / base ** (-exponent)
    return complex(base) ** complex(exponent)


def evaluate(expr: str, env, field: FieldTag):
    """Evaluate ``expr`` with names bound by ``env`` in the given field."""
    return _compiled(expr, field.is_exact)(env)


@functools.lru_cache(maxsize=1024)
def _compiled(expr: str, exact: bool):
    """``expr`` as a function of the environment; shared, as it is only called."""
    return _compile(_parse(expr).body, EXACT if exact else NUMERIC)


def _refusal(kind, message, *operands):
    """A node that evaluates its ``operands``, then raises ``kind(message)``,
    so a formula refuses at the point a walk of its tree would reach."""
    def refuse(env):
        for operand in operands:
            operand(env)
        raise kind(message)
    return refuse


def _divide(left, right):
    if right == 0:
        raise DomainError("division by zero in catalog formula")
    return left / right


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: _divide, ast.Pow: _power}


def _compile(node, field: FieldTag):
    """The closure of one node: operands left to right, then the operation."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            return _refusal(DomainError, f"only integer literals are allowed in catalog"
                                         f" formulas, got {node.value!r}")
        value = field.of(node.value)
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        if name == "i":
            if field.is_exact:
                return _refusal(FieldError, "the imaginary unit needs the numeric field")
            return lambda env: complex(0.0, 1.0)

        def lookup(env):
            try:
                return env[name]
            except KeyError:
                raise DomainError(f"unbound parameter {name!r}") from None
        return lookup
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, field)
        return (lambda env: -operand(env)) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.BinOp):
        left, right = _compile(node.left, field), _compile(node.right, field)
        op = _OPERATORS.get(type(node.op))
        if op is None:
            return _refusal(DomainError, f"operator {type(node.op).__name__} not allowed",
                            left, right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            return _refusal(DomainError, "only the documented catalog functions may be called")
        name = node.func.id
        if field.is_exact and name in _NUMERIC_ONLY:
            return _refusal(FieldError, f"{name}() needs the numeric field")
        args = [_compile(arg, field) for arg in node.args]
        # looked up at each call, so a wrapper installed in the table sees it
        return lambda env: _FUNCTIONS[name](*[arg(env) for arg in args])
    return _refusal(DomainError,
                    f"syntax {type(node).__name__} not allowed in catalog formulas")
