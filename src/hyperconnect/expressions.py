"""Tiny arithmetic expression evaluator for catalog formulas.

Factor bases, exponents, and normalizations in the family catalog are stored
as strings like ``"1/c"``, ``"x + alpha"``, or
``"(-1)**n * q**(n*(n - 1)/2) / qpoch(q, q, n)"``.  They are parsed with the
ast module and evaluated against a name -> scalar environment, so the catalog
stays a plain data file while remaining executable and introspectable.

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
from fractions import Fraction

from .errors import DomainError, FieldError
from .fields import FieldTag, as_index, is_exact_value
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
    return _eval_node(_parse(expr).body, env, field)


def _eval_node(node, env, field: FieldTag):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise DomainError(
                f"only integer literals are allowed in catalog formulas,"
                f" got {node.value!r}"
            )
        return field.of(node.value)
    if isinstance(node, ast.Name):
        if node.id == "i":
            if field.is_exact:
                raise FieldError("the imaginary unit needs the numeric field")
            return complex(0.0, 1.0)
        try:
            return env[node.id]
        except KeyError:
            raise DomainError(f"unbound parameter {node.id!r}") from None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_node(node.operand, env, field)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, env, field)
        right = _eval_node(node.right, env, field)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if right == 0:
                raise DomainError("division by zero in catalog formula")
            return left / right
        if isinstance(node.op, ast.Pow):
            return _power(left, right)
        raise DomainError(f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise DomainError("only the documented catalog functions may be called")
        name = node.func.id
        if field.is_exact and name in _NUMERIC_ONLY:
            raise FieldError(f"{name}() needs the numeric field")
        args = [_eval_node(arg, env, field) for arg in node.args]
        return _FUNCTIONS[name](*args)
    raise DomainError(f"syntax {type(node).__name__} not allowed in catalog formulas")
