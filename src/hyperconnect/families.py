"""Polynomial families and their generating functions.

The catalog (catalog.json, shipped with the package) records one descriptor
per family: parameter domains, the generating function as a list of
elementary factors and the normalization c_n multiplying P_n t^n.  The
catalog's metadata (free-parameter counts, symmetry notes,
connection-relation counts) stays in the file: ``catalog_as_json`` prints
it and no computation reads it.  Factors of executable families expand to
TruncatedSeries, on the field ``FamilyDescriptor.field_for`` picks from the
bindings (the catalog marks no field); metadata-only families refuse it.
Every module binds parameters by the rules stated once here:
``check_names``, ``krawtchouk_sizes`` and ``degree_cap``.

Evaluation routes:

* meixner:    M_n(x; alpha, c) = 2F1(-n, -x; alpha; 1 - 1/c)
* krawtchouk: K_n(x; p, N)     = 2F1(-n, -x; -N; 1/p), n <= N
* charlier and the executable q-families: coefficient extraction from the
  generating function divided by the normalization, the t^n coefficient
  alone formed, bit for bit as ``gf_expand`` forms it.

Meixner and Krawtchouk values come from one kernel on both fields: the row
2F1(-k, -x; b; w), k = 0..n, of ``series.gauss_degree_row``, Gauss's
contiguous relation in the degree, exact on rationals and the exact sum at
the double arguments, rounded once, on doubles.  family_row_forms gives
P_0..P_n_max at several arguments of one binding as rows: one such row per
argument for these two, and for the generating-function families one
``gf_expand`` row per argument over c_0..c_n_max, evaluated once, as no c_n
reads x; family_rows (family_row at one argument) gives their values.
``gauss_row_form`` hands out the Meixner and Krawtchouk row itself,
integers over one denominator when exact: the verifier builds its GF
products from it and compares it, cross-multiplied, in an exact verdict,
so no value is formed there unless the verdict finds a mismatch.

The registry is built once at import and never mutated; descriptors are
frozen, so all lookups and evaluations are thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from types import MappingProxyType

from . import expressions
from .errors import DomainError, UnknownIdentityError, UnsupportedExpansionError
from .fields import (
    NUMERIC,
    FieldTag,
    as_index,
    as_numeric,
    field_of,
    is_integer_valued,
)
from .hyper import linear_arg, pfq, hyper_series_in_t
from .series import (
    TruncatedSeries,
    _cauchy_product,
    binomial_power,
    exp_series,
    gauss_degree_row,
    q_exp_lower,
    q_exp_upper,
)


@dataclass(frozen=True)
class Factor:
    kind: str
    data: MappingProxyType

    def __getitem__(self, key):
        return self.data[key]

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

    @property
    def is_expandable(self) -> bool:
        return self.expansion is not None

    @property
    def uses_theta(self) -> bool:
        return self.argument == "cos_theta"

    @cached_property
    def _names_imaginary_unit(self) -> bool:
        return any(expressions.names_imaginary_unit(expr) for expr in (
            self.normalization, *[e for factor in self.factors for e in factor.expressions()]))

    def field_for(self, *values) -> FieldTag:
        """The field a computation on these inputs runs in: numeric for a
        family whose formulas name the imaginary unit (i, or cis(theta) in
        the x = cos theta families, as cos theta is irrational in general),
        else ``field_of`` the values (exact when every value is exact)."""
        return NUMERIC if self._names_imaginary_unit else field_of(*values)

    def bind(self, params) -> dict:
        """Validate a name -> value mapping against this descriptor."""
        params = dict(params)
        check_names(self.id, params, self.parameters, self.parameters)
        for name, domain in self.parameters.items():
            _check_domain(self.id, name, params[name], domain)
        return params


def check_names(owner: str, given, names, allowed=None):
    """DomainError unless ``given`` binds every name of ``names`` and, when
    ``allowed`` is given, no name outside it."""
    missing = set(names) - set(given)
    if missing:
        raise DomainError(f"{owner} needs parameter(s) {sorted(missing)}")
    unknown = set(given) - set(allowed) if allowed is not None else ()
    if unknown:
        raise DomainError(f"{owner} does not take parameter(s) {sorted(unknown)};"
                          f" expected {sorted(set(allowed))}")


def krawtchouk_sizes(params, n: int = 0) -> tuple:
    """(N, M) of a binding as integers, M None when it binds none: K_n(x; p, N)
    has the degrees 0 <= n <= N, and a relation or generating function from
    size N to size M needs N <= M.  N < 0 fails the catalog domain of N."""
    N, M = as_index(params["N"], "N"), params.get("M")
    M = M if M is None else as_index(M, "M")
    _check_domain("krawtchouk", "N", N, "nonnegative_integer")
    if n > N:
        raise DomainError(f"krawtchouk needs n <= N, got n = {n}, N = {N}")
    if M is not None and N > M:
        raise DomainError(f"krawtchouk needs N <= M, got N = {N}, M = {M}")
    return N, M


def degree_cap(order: int, params) -> int:
    """The top degree of a sum to ``order`` over a binding: min(order, N)
    when it binds a size N, whose family has degrees 0..N, else the order."""
    return min(order, as_index(params["N"], "N")) if "N" in params else order


def _check_domain(family: str, name: str, value, domain: str):
    def fail(requirement):
        shown = value if field_of(value).is_exact else repr(value)  # -1 as int or Fraction
        raise DomainError(f"{family}: parameter {name} = {shown} must be {requirement}")

    if domain == "unrestricted":
        return
    if domain == "not_zero_or_one":
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
        )
        families[descriptor.id] = descriptor
    return MappingProxyType(families)


_REGISTRY = _load_registry()


def catalog() -> tuple:
    """All family descriptors, catalog order."""
    return tuple(_REGISTRY.values())


def get_family(family_id) -> FamilyDescriptor:
    """The descriptor of a catalog id; a descriptor is returned as it is."""
    if isinstance(family_id, FamilyDescriptor):
        return family_id
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
    raise UnsupportedExpansionError(f"factor kind {kind!r} has no executable expansion")


def _factor_rows(descriptor: FamilyDescriptor, x, params, order: int, field) -> tuple:
    """(field, env, top, rows): the ``_expand_factor`` row of each factor to
    top = ``degree_cap``, on ``field`` or the one ``field_for`` picks, and the
    environment they were evaluated in."""
    if not descriptor.is_expandable:
        raise UnsupportedExpansionError(
            f"family {descriptor.id} is metadata-only; its generating function"
            " is recorded but not expandable"
        )
    if order < 0:
        raise DomainError(f"gf_expand needs order >= 0, got {order}")
    params = descriptor.bind(params)
    field = field or descriptor.field_for(x, *params.values())
    env = _environment(descriptor, x, params, field)
    q = env.get("q")
    top = degree_cap(order, params)
    return field, env, top, [_expand_factor(factor, env, q, top, field).row
                             for factor in descriptor.factors]


def gf_expand(family_id, x, params, order: int, field: FieldTag | None = None) -> TruncatedSeries:
    """Expand the family's generating function to a series of the given order.

    A family of size N is expanded to its ``degree_cap`` (the Krawtchouk
    generating function equals its own degree-N truncation), so coefficients
    past degree N come back as exact zeros.  The factors' rows are multiplied
    and make one series: one reduction when exact, one check on doubles,
    whose values are the factor series' multiplied with ``*``.
    """
    field, _, top, ((nums, den), *rest) = _factor_rows(get_family(family_id), x, params,
                                                       order, field)
    for right, right_den in rest:
        nums, den = _cauchy_product(nums, right), den * right_den
    zero = 0 if field.is_exact else field.zero()
    return TruncatedSeries._result(field, [*nums, *[zero] * (order - top)], den)


def normalization_at(descriptor: FamilyDescriptor, n: int, x, params, field: FieldTag):
    """c_n multiplying P_n t^n in the generating function."""
    env = _environment(descriptor, x, params, field)
    env["n"] = field.of(n)
    return expressions.evaluate(descriptor.normalization, env, field)


def _nonvanishing(descriptor, n: int, c_n):
    """c_n, or DomainError when it vanishes."""
    if c_n == 0:
        raise DomainError(f"{descriptor.id}: normalization vanishes at n = {n}")
    return c_n


def poly_from_gf(family_id, n: int, x, params):
    """P_n as the t^n generating-function coefficient over c_n, both in one
    environment: the product of every factor row but the last, then one dot
    product with the last, added in ``_cauchy_product``'s order."""
    descriptor = get_family(family_id)
    field, env, top, ((nums, den), *rest) = _factor_rows(descriptor, x, params, n, None)
    value = nums[n] if top == n else 0
    if rest and top == n:
        *middle, (last, last_den) = rest
        for right, right_den in middle:
            nums, den = _cauchy_product(nums, right), den * right_den
        value, den = 0, den * last_den
        for i, a in enumerate(nums):
            if a and last[n - i]:
                value += a * last[n - i]
    value = Fraction(value, den) if field.is_exact else as_numeric(value)
    env["n"] = field.of(n)
    return value / _nonvanishing(descriptor, n,
                                 expressions.evaluate(descriptor.normalization, env, field))


def family_eval(family_id, n, x, params):
    """Value of the degree-n family member at x (or at cos theta)."""
    descriptor = get_family(family_id)
    n = as_index(n, "degree")
    if n < 0:
        raise DomainError("degree must be >= 0")
    if descriptor.id in ("meixner", "krawtchouk"):
        return _gauss_row(descriptor, n, x, params)[n]
    if x is None and not descriptor.uses_theta:
        raise DomainError(f"{descriptor.id} needs the argument x")
    if descriptor.is_expandable:
        return poly_from_gf(descriptor, n, x, params)
    raise UnsupportedExpansionError(
        f"family {descriptor.id} is metadata-only and has no evaluator"
    )


def gauss_row_form(family_id, n_max: int, x, params) -> tuple:
    """(field, nums, den) with [P_0, ..., P_n_max] of Meixner or Krawtchouk at
    x = ``field.over(nums, den)``: the row 2F1(-k, -x; b; w), k = 0..n_max,
    of ``gauss_degree_row``, with (b, w) = (alpha, 1 - 1/c) or (-N, 1/p).
    An exact row is integers over one positive denominator, not reduced."""
    descriptor = get_family(family_id)
    if x is None:
        raise DomainError(f"{descriptor.id} needs the argument x")
    params = descriptor.bind(params)
    field = field_of(x, *params.values())
    for value in (x, *params.values()):
        field.of(value)  # a non-finite double is refused, as the expanded families do
    if descriptor.id == "meixner":
        c = params["c"]
        b, w = params["alpha"], 1 - 1 / field_of(c).of(c)
    else:
        p, b = params["p"], -krawtchouk_sizes(params, n_max)[0]
        w = 1 / field_of(p).of(p)
    return field, *gauss_degree_row(-x, b, w, n_max, field)


def _gauss_row(descriptor, n_max: int, x, params) -> list:
    """The values of ``gauss_row_form``."""
    field, nums, den = gauss_row_form(descriptor, n_max, x, params)
    return field.over(nums, den)


def family_row_forms(family_id, n_max: int, xs, params) -> list:
    """Per x of ``xs`` (None for an x = cos theta family), (field, nums, den,
    norms) with P_n(x) = nums[n] / (den norms[n]), n <= n_max: a Meixner or
    Krawtchouk ``gauss_row_form``, norms None, which family_eval reads too,
    or the ``gf_expand`` row to n_max (the t^n coefficient of a product does
    not depend on the order the factors are truncated at, so every degree
    reads the same bits) over c_0..c_n_max, evaluated once per field."""
    descriptor = get_family(family_id)
    if descriptor.id in ("meixner", "krawtchouk"):
        return [(*gauss_row_form(descriptor, n_max, x, params), None) for x in xs]
    if not descriptor.uses_theta and any(x is None for x in xs):
        raise DomainError(f"{descriptor.id} needs the argument x")
    params = descriptor.bind(params)
    norms = {}
    forms = []
    for x in xs:
        series = gf_expand(descriptor, x, params, n_max)
        if series.field not in norms:
            norms[series.field] = [
                _nonvanishing(descriptor, n, normalization_at(descriptor, n, None, params,
                                                              series.field))
                for n in range(n_max + 1)]
        forms.append((series.field, *series.row, norms[series.field]))
    return forms


def _over_norms(field, nums, den, norms) -> list:
    """The values nums[n] / (den norms[n]), or ``field.over(nums, den)`` when
    norms is None: a ``Fraction`` each when exact, the plain quotients on
    doubles."""
    if norms is None:
        return field.over(nums, den)
    if field.is_exact:
        return [Fraction(v * c.denominator, den * c.numerator) for v, c in zip(nums, norms)]
    return [v / c for v, c in zip(nums, norms)]


def family_rows(family_id, n_max: int, xs, params) -> list:
    """[P_0, ..., P_n_max] at each x of ``xs`` (None for an x = cos theta
    family, whose theta is a binding), each equal to family_eval's value:
    the values of ``family_row_forms``."""
    descriptor = get_family(family_id)
    if not descriptor.is_expandable or n_max < 0:
        return [[family_eval(descriptor, n, x, params) for n in range(n_max + 1)]
                for x in xs]
    return [_over_norms(*form) for form in family_row_forms(descriptor, n_max, xs, params)]


def family_row(family_id, n_max: int, x, params) -> list:
    """[P_0, ..., P_n_max] at x (or at cos theta): ``family_rows`` at [x]."""
    return family_rows(family_id, n_max, [x], params)[0]
