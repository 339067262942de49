"""Polynomial families and their generating functions.

The catalog (catalog.json, shipped with the package) records one descriptor
per family: parameter domains, the generating function as a list of
elementary factors and the normalization c_n multiplying P_n t^n.  The
catalog's metadata (free-parameter counts, symmetry notes,
connection-relation counts) stays in the file: ``catalog_as_json`` prints
it and no computation reads it.  Factors of executable families expand to
TruncatedSeries; metadata-only families keep their factor lists as data and
refuse expansion.

Evaluation routes:

* meixner:    M_n(x; alpha, c) = 2F1(-n, -x; alpha; 1 - 1/c)
* krawtchouk: K_n(x; p, N)     = 2F1(-n, -x; -N; 1/p), n <= N
* charlier and the executable q-families: coefficient extraction from the
  generating function divided by the normalization.

family_row gives P_0..P_n_max at one argument, from one expansion to n_max
for the generating-function families and, for Meixner and Krawtchouk on
exact inputs, from the three-term recurrence run on integers over one
running denominator, one Fraction per degree.

The registry is built once at import and never mutated; descriptors are
frozen, so all lookups and evaluations are thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from types import MappingProxyType

from . import expressions
from .errors import DomainError, UnknownIdentityError, UnsupportedExpansionError
from .fields import (
    EXACT,
    NUMERIC,
    FieldTag,
    as_index,
    is_exact_value,
    is_integer_valued,
    is_nonpositive_integer,
)
from .hyper import TERMINATING, linear_arg, pfq, pfq_eval, hyper_series_in_t
from .series import (
    TruncatedSeries,
    _integer_linear,
    _over_one_denominator,
    binomial_power,
    exp_series,
    linear_factor_product,
    q_exp_lower,
    q_exp_upper,
)


@dataclass(frozen=True)
class Factor:
    kind: str
    data: MappingProxyType

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    def expressions(self):
        """All expression strings carried by this factor."""
        out = []
        for key in ("kappa", "exponent", "count", "argument_scale"):
            if key in self.data:
                out.append(self.data[key])
        for key in ("numerator", "denominator"):
            out.extend(self.data.get(key, ()))
        return out

    def free_variables(self) -> frozenset:
        names = set()
        for expr in self.expressions():
            names |= expressions.variables(expr)
        return frozenset(names)


@dataclass(frozen=True)
class FamilyDescriptor:
    id: str
    parameters: MappingProxyType
    argument: str
    expansion: str | None
    normalization: str
    factors: tuple
    truncate_at: str | None

    @property
    def is_expandable(self) -> bool:
        return self.expansion is not None

    @property
    def uses_theta(self) -> bool:
        return self.argument == "cos_theta"

    def field_for(self, *values) -> FieldTag:
        """The field a computation on these inputs runs in: exact when every
        value is exact (None, an absent argument, counts as exact) and the
        catalog does not mark the family numeric-only."""
        exact = all(v is None or is_exact_value(v) for v in values)
        return EXACT if exact and self.expansion != "numeric" else NUMERIC

    def bind(self, params) -> dict:
        """Validate a name -> value mapping against this descriptor."""
        params = dict(params)
        missing = set(self.parameters) - set(params)
        if missing:
            raise DomainError(
                f"{self.id} needs parameter(s) {sorted(missing)}"
            )
        unknown = set(params) - set(self.parameters)
        if unknown:
            raise DomainError(
                f"{self.id} does not take parameter(s) {sorted(unknown)};"
                f" expected {sorted(self.parameters)}"
            )
        for name, domain in self.parameters.items():
            _check_domain(self.id, name, params[name], domain)
        return params


def _check_domain(family: str, name: str, value, domain: str):
    def fail(requirement):
        raise DomainError(f"{family}: parameter {name} = {value!r} must be {requirement}")

    if domain == "unrestricted":
        return
    if domain == "not_nonpositive_integer":
        if is_nonpositive_integer(value):
            fail("outside {0, -1, -2, ...}")
    elif domain == "not_zero_or_one":
        if value == 0 or value == 1:
            fail("different from 0 and 1")
    elif domain == "nonzero":
        if value == 0:
            fail("nonzero")
    elif domain == "nonnegative_integer":
        if not is_integer_valued(value) or complex(value).real < 0:
            fail("a nonnegative integer")
    elif domain == "base":
        v = complex(value)
        if v.imag != 0 or not 0 < v.real < 1:
            fail("a real base with 0 < q < 1")
    elif domain == "real":
        if complex(value).imag != 0:
            fail("real")
    else:
        raise DomainError(f"unknown domain tag {domain!r} in catalog")


def _freeze(obj):
    if isinstance(obj, dict):
        return MappingProxyType({k: _freeze(v) for k, v in obj.items()})
    if isinstance(obj, list):
        return tuple(_freeze(v) for v in obj)
    return obj


def _load_registry():
    with resources.files(__package__).joinpath("catalog.json").open() as fh:
        raw = json.load(fh)
    families = {}
    for entry in raw["families"]:
        factors = tuple(
            Factor(kind=f["kind"], data=_freeze({k: v for k, v in f.items() if k != "kind"}))
            for f in entry["factors"]
        )
        descriptor = FamilyDescriptor(
            id=entry["id"],
            parameters=_freeze(entry["parameters"]),
            argument=entry["argument"],
            expansion=entry.get("expansion"),
            normalization=entry["normalization"],
            factors=factors,
            truncate_at=entry.get("truncate_at"),
        )
        families[descriptor.id] = descriptor
    return MappingProxyType(families)


_REGISTRY = _load_registry()


def catalog() -> tuple:
    """All family descriptors, catalog order."""
    return tuple(_REGISTRY.values())


def get_family(family_id: str) -> FamilyDescriptor:
    try:
        return _REGISTRY[family_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown family {family_id!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def catalog_as_json() -> dict:
    """The catalog as plain JSON data (the `catalog` CLI command prints this)."""
    with resources.files(__package__).joinpath("catalog.json").open() as fh:
        return json.load(fh)


def isolated_parameters(descriptor: FamilyDescriptor) -> tuple:
    """Parameters whose source/target factor ratio stays free of the argument:
    inside exactly one binomial exponent (base unchanged), or inside the base
    of exactly one infinite q-shifted factor that does not involve x itself."""
    out = []
    for name in descriptor.parameters:
        if name in ("q", "theta"):
            continue
        hits = [f for f in descriptor.factors if name in f.free_variables()]
        if len(hits) != 1:
            continue
        factor = hits[0]
        if factor.kind == "binomial":
            if name not in expressions.variables(factor["kappa"]):
                out.append(name)
        elif factor.kind in ("qpoch_num", "qpoch_denom"):
            if "x" not in expressions.variables(factor["kappa"]):
                out.append(name)
    return tuple(out)


# -- expansion ---------------------------------------------------------------


def _environment(descriptor: FamilyDescriptor, x, params, field: FieldTag) -> dict:
    env = {name: field.of(value) for name, value in params.items()}
    if descriptor.uses_theta:
        if x is not None:
            raise DomainError(
                f"{descriptor.id} takes its argument through theta (x = cos theta);"
                " pass x=None"
            )
    elif x is not None:
        env["x"] = field.of(x)
    return env


def _expand_factor(factor: Factor, env, q, order: int, field: FieldTag) -> TruncatedSeries:
    kind = factor.kind
    if kind == "binomial":
        kappa = expressions.evaluate(factor["kappa"], env, field)
        exponent = expressions.evaluate(factor["exponent"], env, field)
        return binomial_power(kappa, exponent, order, field)
    if kind == "exponential":
        return exp_series(expressions.evaluate(factor["kappa"], env, field), order, field)
    if kind == "pfq":
        nums = [expressions.evaluate(e, env, field) for e in factor["numerator"]]
        dens = [expressions.evaluate(e, env, field) for e in factor["denominator"]]
        scale = expressions.evaluate(factor["argument_scale"], env, field)
        return hyper_series_in_t(pfq(nums, dens), linear_arg(scale), order, field)
    if kind == "qpoch_num":
        kappa = expressions.evaluate(factor["kappa"], env, field)
        return q_exp_lower(kappa, q, order, field)
    if kind == "qpoch_denom":
        kappa = expressions.evaluate(factor["kappa"], env, field)
        return q_exp_upper(kappa, q, order, field)
    if kind == "finite_qpoch":
        kappa = expressions.evaluate(factor["kappa"], env, field)
        count = as_index(expressions.evaluate(factor["count"], env, field), "factor count")
        if count < 0:
            raise DomainError("finite q-Pochhammer factor needs count >= 0")
        return linear_factor_product(
            [kappa * q**j for j in range(count)], order, field
        )
    raise UnsupportedExpansionError(f"factor kind {kind!r} has no executable expansion")


def gf_expand(family_id, x, params, order: int, field: FieldTag | None = None) -> TruncatedSeries:
    """Expand the family's generating function to a series of the given order.

    Applies the truncation operator when the descriptor carries one (the
    Krawtchouk generating function equals its own degree-N truncation), so
    coefficients past the cutoff come back as exact zeros.
    """
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    if not descriptor.is_expandable:
        raise UnsupportedExpansionError(
            f"family {descriptor.id} is metadata-only; its generating function"
            " is recorded but not expandable"
        )
    params = descriptor.bind(params)
    field = field or descriptor.field_for(x, *params.values())
    if descriptor.expansion == "numeric" and field.is_exact:
        raise UnsupportedExpansionError(
            f"family {descriptor.id} expands numerically only"
        )
    env = _environment(descriptor, x, params, field)
    q = env.get("q")
    work_order = order
    cutoff = None
    if descriptor.truncate_at is not None:
        cutoff = as_index(
            expressions.evaluate(descriptor.truncate_at, env, field), "truncation order"
        )
        work_order = min(order, cutoff)
    result = TruncatedSeries.one(work_order, field)
    for factor in descriptor.factors:
        result = result * _expand_factor(factor, env, q, work_order, field)
    if cutoff is not None and order > work_order:
        result = result.padded_to(order)
    return result


def normalization_at(descriptor: FamilyDescriptor, n: int, x, params, field: FieldTag):
    """c_n multiplying P_n t^n in the generating function."""
    env = _environment(descriptor, x, params, field)
    env["n"] = field.of(n)
    return expressions.evaluate(descriptor.normalization, env, field)


def _member_from_series(descriptor, series, n: int, x, params):
    c_n = normalization_at(descriptor, n, x, params, series.field)
    if c_n == 0:
        raise DomainError(
            f"{descriptor.id}: normalization vanishes at n = {n}"
        )
    return series.coefficient(n) / c_n


def poly_from_gf(family_id, n: int, x, params):
    """P_n as the t^n generating-function coefficient over the normalization."""
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    series = gf_expand(descriptor, x, params, n)
    return _member_from_series(descriptor, series, n, x, descriptor.bind(params))


def family_eval(family_id, n, x, params):
    """Value of the degree-n family member at x (or at cos theta)."""
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    n = as_index(n, "degree")
    if n < 0:
        raise DomainError("degree must be >= 0")
    if x is None and not descriptor.uses_theta:
        raise DomainError(f"{descriptor.id} needs the argument x")
    if descriptor.id == "meixner":
        params = descriptor.bind(params)
        alpha, c = params["alpha"], params["c"]
        return pfq_eval(pfq((-Fraction(n), -x), (alpha,)), 1 - 1 / _promote(c), TERMINATING)
    if descriptor.id == "krawtchouk":
        params = descriptor.bind(params)
        p, cap = params["p"], as_index(params["N"], "N")
        if n > cap:
            raise DomainError(f"krawtchouk needs n <= N, got n = {n}, N = {cap}")
        return pfq_eval(pfq((-Fraction(n), -x), (-Fraction(cap),)), 1 / _promote(p), TERMINATING)
    if descriptor.is_expandable:
        return poly_from_gf(descriptor, n, x, params)
    raise UnsupportedExpansionError(
        f"family {descriptor.id} is metadata-only and has no evaluator"
    )


def _recurrence(descriptor, n_max: int, x, params):
    """The three-term recurrence (Koekoek, Lesky & Swarttouw 2010, 9.10.3
    and 9.11.3) as (b(n) P_{n+1} = a(n) P_n - s(n) P_{n-1}) integer pairs
    ((a0, a1), (b0, b1), (0, s1)) of linear polynomials in n, or None unless
    x and every parameter are exact and b(n) != 0 for 0 <= n < n_max:

        (c-1) x M_n = c(n+beta) M_{n+1} - [n + (n+beta) c] M_n + n M_{n-1}
        -x K_n = p(N-n) K_{n+1} - [p(N-n) + n(1-p)] K_n + n(1-p) K_{n-1}
    """
    if not all(is_exact_value(v) for v in (x, *params.values())):
        return None
    if descriptor.id == "meixner":
        beta, c = Fraction(params["alpha"]), Fraction(params["c"])
        linear = (beta * c + (c - 1) * x, 1 + c), (beta * c, c), (0, 1)
    else:
        p, cap = Fraction(params["p"]), as_index(params["N"], "N")
        linear = (p * cap - x, 1 - 2 * p), (p * cap, -p), (0, 1 - p)
    steps = _integer_linear(*linear)
    b0, b1 = steps[1]
    return steps if all(b0 + b1 * n for n in range(n_max)) else None


def _recurrence_row(first, second, steps, n_max: int) -> list:
    """[P_0, ..., P_n_max] from P_0, P_1 and the integer ``steps`` of
    ``_recurrence``: both running values sit over one common denominator,
    which each step multiplies by b(n), so a degree costs a few integer
    products and one ``Fraction``."""
    (a0, a1), (b0, b1), (_, s1) = steps
    (before, now), den = _over_one_denominator([first, second])
    row = [first, second]
    for n in range(1, n_max):
        scale = b0 + b1 * n
        before, now = now * scale, (a0 + a1 * n) * now - s1 * n * before
        den *= scale
        row.append(Fraction(now, den))
    return row


def family_row(family_id, n_max: int, x, params) -> list:
    """[P_0, ..., P_n_max] at x (or at cos theta), each equal to family_eval's
    value.  Meixner and Krawtchouk rows on exact inputs take P_0 and P_1
    from family_eval and the rest from the recurrence on integers; elsewhere,
    or where a divisor of it vanishes, each degree is evaluated on its own.
    A family evaluated from its generating function expands it once to
    n_max: the t^n coefficient of a product does not depend on the order the
    factors are truncated at, so every degree reads the same bits."""
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    if descriptor.id in ("meixner", "krawtchouk"):
        row = [family_eval(descriptor, n, x, params) for n in range(min(n_max, 1) + 1)]
        steps = n_max > 1 and _recurrence(descriptor, n_max, x, descriptor.bind(params))
        if steps:
            return _recurrence_row(*row, steps, n_max)
        return row + [family_eval(descriptor, n, x, params) for n in range(2, n_max + 1)]
    if not descriptor.is_expandable or n_max < 0:
        return [family_eval(descriptor, n, x, params) for n in range(n_max + 1)]
    if x is None and not descriptor.uses_theta:
        raise DomainError(f"{descriptor.id} needs the argument x")
    series = gf_expand(descriptor, x, params, n_max)
    params = descriptor.bind(params)
    return [_member_from_series(descriptor, series, n, x, params) for n in range(n_max + 1)]


def _promote(value):
    return Fraction(value) if is_exact_value(value) else complex(value)
