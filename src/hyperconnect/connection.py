"""Connection coefficients three ways.

* Closed forms: the displayed coefficient tables for Meixner and Krawtchouk,

    alpha_c_to_beta_d   C(n,k) (beta)_k/(alpha)_k E^k 2F1(-n+k, k+beta; k+alpha; E)
                        with E = d(1-c)/(c(1-d))
    same_alpha_c_to_d   C(n,k) (c-d)^(n-k) (d(1-c))^k / (c(1-d))^n
    alpha_to_beta       C(n,k) (alpha-beta)_{n-k} (beta)_k / (alpha)_n
    type_c_to_d         C(n,k) (alpha)_k (x)_{n-k} d^{k-n} / (alpha)_n
                          * 2F1(-n+k, -x; -x+k-n+1; d/c)                 [x-dependent]
    type_alpha_c        (alpha-beta)_n/(alpha)_n (beta)_k (-n)_k /
                          (k! (beta-alpha-n+1)_k)
                          * F1(-n+k, -x, x; beta-alpha-n+k+1; 1/c, 1/d)  [x-dependent]
    p_N_to_q_M          C(n,k) q^k (-M)_k / (p^k (-N)_k) 2F1(-n+k, k-M; k-N; q/p)
    p_to_q_same_N       C(n,k) (p-q)^(n-k) q^k / p^n
    same_p_N_to_M       C(n,k) (M-N)_{n-k} (-M)_k / (-N)_n

  Each relation is one row of ``_RELATIONS`` (a ``RelationSpec``): its
  family, the case parameter bound to each family parameter on the source
  and on the target side, and the declaration of its entries.  The
  parameter names, the source and target bindings, their inverse for JSON,
  the family's domain rule and the acceptance suite's relation cases all
  read that row.  Integer bindings enter as Fractions, so exact inputs give
  exact tables.

  A table builds the rows its entries share once, to n_max, each a
  ``series.hypergeometric_terms`` row.  The four term entries (and the
  type_c_to_d prefactor) are C(n,k) g_{n-k} r_k / h_n, each row declared as
  (tops, z) for prod (a)_m z^m: alpha_to_beta is ((alpha-beta,), 1),
  ((beta,), 1), ((alpha,), 1) and same_alpha_c_to_d ((), c-d),
  ((), d(1-c)), ((), c(1-d)).  The type_alpha_c prefactor is the
  alpha_to_beta entry, as (beta-alpha-n+1)_k = (-1)^k (alpha-beta+n-k)_k,
  save at its 0/0 points.  The two 2F1 entries are declared as (tops,
  bottom, z), ((beta, 1), alpha, E) and ((-M, 1), -N, q/p), and are
  differences of that row, w_i = (beta)_i (1)_i / ((alpha)_i i!) E^i: as
  (beta)_k (k+beta)_m = (beta)_{k+m},

      c_{k,n} = C(n,k) sum_m (-1)^m C(n-k, m) w_{k+m},

  and all of them come from the difference rows S_j(k) = S_{j-1}(k) -
  S_{j-1}(k+1), so a table costs O(n_max^2) operations.  The rows run once
  for both fields on the numerators of w over one denominator
  (``FieldTag.common``): integers, and one Fraction per entry, when exact.

  An x-dependent entry is an x-free prefactor(n, k) times a kernel(n-k, x):
  the (x)_{n-k} d^{k-n} 2F1 and the F1 above depend on n and k only through
  j = n - k.  A table computes each prefactor once per (n, k) and each
  kernel once per (j, x), both on first use, so c_{k,n}(x) costs one
  product after its factors exist and a prefactor that cannot be formed
  still raises from coefficient(n, k, x).  The F1 kernels at one x share
  the factor product sum (-x)_m (t/c)^m/m! * sum (x)_m (t/d)^m/m!, built
  once to n_max; each kernel applies only its joint ratios
  (-j)_M / (beta-alpha-j+1)_M.

* power_collect: the generic method.  Divide the generating function factor
  holding the varied parameter by its retargeted copy, expand the ratio R(t)
  by the (q-)binomial theorem, and match powers of t:

      c_{k,n} = r_{n-k} c_k(target) / c_n(source).

  Applicable exactly when each varied parameter sits in factors whose
  from/to ratio does not involve the argument x, checked on probe points
  within the field's tolerance; the coefficients are x-independent by
  construction.  Each normalization c_n is evaluated once per degree and
  side.

* connect_linear_solve: the independent oracle.  Sample both families on
  n_max+1 distinct abscissae, take divided differences (which grade by
  degree, making the system triangular), and back-substitute.  Each side
  is sampled by one ``families.family_rows`` call (one per theta for an
  x = cos theta family): a family evaluated from its generating function
  is expanded once per abscissa, to n_max, every degree is read from that
  series, and its normalizations are evaluated once per side; Meixner and
  Krawtchouk rows come from their three-term recurrences on exact inputs.
  On the exact field the solve is a different algorithm, fraction-free:
  each Newton table runs on integers (values and abscissae over one
  denominator each, each level over the lcm of its abscissa gaps, which
  doubles lack), the level factors the source and target tables share
  cancel, and back substitution keeps its unknowns over the product of the
  pivots, so each entry is one Fraction.

Both generic methods run on the field ``FamilyDescriptor.field_for`` picks,
as ``families.gf_expand`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable

from . import expressions
from .errors import (
    DomainError,
    HyperconnectError,
    MethodNotApplicableError,
    SingularConfigurationError,
    SingularSampleError,
    UnknownIdentityError,
)
from .fields import (EXACT, NUMERIC, FieldTag, as_index, field_of, is_exact_value,
                     is_nonpositive_integer)
from .hyper import (
    APPELL_F1,
    MultiVarSpec,
    factor_product,
    linear_arg,
    multivar_eval,
    pfq,
    pfq_eval,
)
from .families import (
    FamilyDescriptor,
    family_row,
    family_rows,
    get_family,
    normalization_at,
)
from .pochhammer import pochhammer
from .series import (
    TruncatedSeries,
    binomial_power,
    exp_series,
    hypergeometric_terms,
    q_binomial_series,
    q_exp_lower,
)


class ConnectionExpansion:
    """Lower-triangular table c_{k,n} expanding P_n(source) over P_k(target).

    Entries are scalars for connection relations and single-argument callables
    for connection-type relations, whose coefficients genuinely depend on x
    and are therefore never baked at one argument value.
    """

    __slots__ = ("n_max", "source", "target", "x_dependent", "field", "method",
                 "relation", "_rows")

    def __init__(self, n_max, source, target, rows, *, x_dependent, field,
                 method, relation=None):
        self.n_max = n_max
        self.source = dict(source)
        self.target = dict(target)
        self.x_dependent = x_dependent
        self.field = field
        self.method = method
        self.relation = relation
        self._rows = tuple([tuple(row) for row in rows])
        if len(self._rows) != n_max + 1 or any(
            len(row) != n + 1 for n, row in enumerate(self._rows)
        ):
            raise DomainError("connection table must be lower triangular")

    def coefficient(self, n: int, k: int, x=None):
        if not 0 <= k <= n <= self.n_max:
            raise DomainError(f"need 0 <= k <= n <= {self.n_max}")
        entry = self._rows[n][k]
        if self.x_dependent:
            if x is None:
                raise DomainError("connection-type coefficients need the argument x")
            return entry(x)
        return entry

    def row(self, n: int, x=None):
        return [self.coefficient(n, k, x) for k in range(n + 1)]

    def matrix(self):
        if self.x_dependent:
            raise DomainError("x-dependent tables have no plain matrix; pass x to row()")
        return [list(row) for row in self._rows]

    def as_json(self) -> dict:
        doc = {
            "n_max": self.n_max,
            "method": self.method,
            "relation": self.relation,
            **self.field.as_json(),
            "source": {k: self.field.serialize(v) for k, v in self.source.items()},
            "target": {k: self.field.serialize(v) for k, v in self.target.items()},
            "x_dependent": self.x_dependent,
        }
        if self.x_dependent:
            doc["table"] = None
        else:
            doc["table"] = [
                [self.field.serialize(c) for c in row] for row in self._rows
            ]
        return doc

    @classmethod
    def from_json(cls, doc) -> "ConnectionExpansion":
        field = FieldTag.from_json(doc)
        source = {k: field.deserialize(v) for k, v in doc["source"].items()}
        target = {k: field.deserialize(v) for k, v in doc["target"].items()}
        if doc["x_dependent"]:
            if doc.get("relation") is None:
                raise DomainError("x-dependent table payload needs its relation id")
            params = get_relation(doc["relation"]).params(source, target)
            return connection_table(doc["relation"], params, doc["n_max"], field)
        rows = [[field.deserialize(c) for c in row] for row in doc["table"]]
        return cls(
            doc["n_max"], source, target, rows,
            x_dependent=False, field=field,
            method=doc["method"], relation=doc.get("relation"),
        )

    def to_csv(self) -> str:
        lines = []
        if self.x_dependent:
            lines.append("relation," + str(self.relation))
            for name, value in sorted({**{f"source.{k}": v for k, v in self.source.items()},
                                       **{f"target.{k}": v for k, v in self.target.items()}}.items()):
                lines.append(f"{name},{self.field.text(value)}")
            return "\n".join(lines) + "\n"
        for n, row in enumerate(self._rows):
            cells = [str(n)] + [self.field.text(c) for c in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _require(condition: bool, message: str):
    if not condition:
        raise DomainError(message)


def _require_rows(n_max):
    """DomainError unless a table to degree n_max has a row: a table with no
    rows would read as an answer."""
    _require(n_max >= 0, f"connection tables need n_max >= 0, got {n_max}")


def _check_domain(spec, p, top):
    """The family's rule on every case parameter the relation binds: alpha
    and beta avoid {0, -1, ...}, c and d avoid 0 and 1, p and q are nonzero,
    and N <= M are integers.  A Krawtchouk table has degrees 0..N, so N >= 0
    is checked first and degree N + 1 last."""
    if spec.family == "krawtchouk":
        cap = as_index(p["N"], "N")
        _require(cap >= 0, f"need n <= N, got n = 0, N = {cap}")
    for name in spec.names:
        v = p[name]
        if name in ("alpha", "beta"):
            _require(not is_nonpositive_integer(v), f"{name} must avoid {{0, -1, -2, ...}}")
        elif name in ("c", "d"):
            _require(v != 0 and v != 1, f"{name} must avoid 0 and 1")
        elif name in ("p", "q"):
            _require(v != 0, f"{name} must be nonzero")
        elif name == "M":
            big = as_index(v, "M")
            _require(cap <= big, f"need N <= M, got N = {cap}, M = {big}")
    if spec.family == "krawtchouk":
        _require(top <= cap, f"need n <= N, got n = {cap + 1}, N = {cap}")


def _terms(declare, p, top):
    """entry(n, k) = C(n,k) g_{n-k} r_k / h_n, n <= top, of the three rows
    ``declare(**p)`` gives as (tops, z): g_m = prod (a)_m z^m, the
    ``series.hypergeometric_terms`` row of the tops and 1, as (1)_m = m!.
    C(n,k) stays out of the rows: on doubles z^m / m! underflows to 0 for m
    past about 150 where z^m does not."""
    rows = declare(**p)
    field = field_of(*[v for tops, z in rows for v in (*tops, z)])
    g, r, h = (field.over(*hypergeometric_terms((*tops, 1), (), z, top, field))
               for tops, z in rows)
    return lambda n, k: math.comb(n, k) * g[n - k] * r[k] / h[n]


def _gauss(declare, p, top):
    """entry(n, k), n <= top, of the row w that ``declare(**p)`` gives as
    (tops, bottom, z): C(n,k) (b)_k/(a)_k z^k 2F1(k-n, k+b; k+a; z) for
    tops (b, 1) and bottom a."""
    tops, bottom, z = declare(**p)
    field = field_of(*tops, bottom, z)
    return _terminating_gauss_entries(
        field.over(*hypergeometric_terms(tops, (bottom,), z, top, field)))


def _terminating_gauss_entries(w):
    """C(n,k) (beta)_k/(alpha)_k z^k 2F1(k-n, k+beta; k+alpha; z) with
    w_i = (beta)_i/(alpha)_i z^i, for n < len(w).  As (beta)_k (k+beta)_m =
    (beta)_{k+m} and (k-n)_m / m! = (-1)^m C(n-k, m), the entry is
    C(n,k) S_{n-k}(k), S_j(k) = sum_m (-1)^m C(j, m) w_{k+m}, and the rows
    S_j(k) = S_{j-1}(k) - S_{j-1}(k+1) take O(len(w)^2) subtractions in all.
    The rows run on the numerators of w over their common denominator, so
    an exact entry is one Fraction."""
    field = field_of(*w)
    w, den = field.common(w)
    rows = [w]
    while len(rows[-1]) > 1:
        rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
    return lambda n, k: field.over([math.comb(n, k) * rows[n - k][k]], den)[0]


# An x-dependent relation is prefactors(params, top) giving prefactor(n, k),
# kernel(params, n - k, x, product) and, when the kernels at one x share a
# factor product, product(params, x, top).


def _c_to_d_kernel(p, j, x, product=None):
    """(x)_j d^-j 2F1(-j, -x; -x-j+1; d/c)."""
    c, d = p["c"], p["d"]
    hyp = pfq_eval(pfq((Fraction(-j), -x), (-x - j + 1,)), d / c)
    return pochhammer(x, j) / d**j * hyp


def _alpha_c_prefactors(p, top):
    """(alpha-beta)_n/(alpha)_n (beta)_k (-n)_k / (k! (beta-alpha-n+1)_k).  As
    (beta-alpha-n+1)_k = (-1)^k (alpha-beta+n-k)_k and (alpha-beta)_n =
    (alpha-beta)_{n-k} (alpha-beta+n-k)_k, it is the meixner_alpha_to_beta
    entry, save where the displayed form is 0/0: (beta-alpha-n+1)_k = 0, so
    beta - alpha is an integer in {n-k, ..., n-1}."""
    entry = get_relation("meixner_alpha_to_beta").entries(p, top)
    gap = p["beta"] - p["alpha"]

    def prefactor(n, k):
        if gap in range(n - k, n):
            raise SingularConfigurationError(
                f"(beta - alpha - n + 1)_k vanishes at n = {n}, k = {k};"
                " these parameters admit no limiting value"
            )
        return entry(n, k)

    return prefactor


def _alpha_c_f1(p, j, x):
    """F1(-j, -x, x; beta-alpha-j+1) and its arguments (1/c, 1/d)."""
    alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
    return MultiVarSpec(APPELL_F1, (Fraction(-j), -x, x, beta - alpha - j + 1)), (1 / c, 1 / d)


def _alpha_c_kernel(p, j, x, product=None):
    """F1(-j, -x, x; beta-alpha-j+1; 1/c, 1/d).  ``product`` is the factor
    product sum (-x)_m (t/c)^m/m! * sum (x)_m (t/d)^m/m!, which no j changes."""
    return multivar_eval(*_alpha_c_f1(p, j, x), product=product)


def _alpha_c_product(p, x, top):
    spec, args = _alpha_c_f1(p, 0, x)
    return factor_product(spec, [linear_arg(a) for a in args], top,
                          field_of(*spec.params, *args))


def _type_entries(prefactors, kernel, product, params, top):
    """The x-dependent entries of one table to degree top.  The prefactor
    rows are built here; prefactor(n, k), the kernel factor product at x and
    the kernel at (n - k, x) on first use, so a bad prefactor raises from the
    entry that needs it, never from connection_table.  A cache keeps no
    exception; a failed product is kept as None and the kernels at its x
    form their own.  An x is keyed by its type and repr too: 1, Fraction(1),
    1.0 and -0.0 are equal but give values of different types or signs."""
    prefactor = cache(prefactors(params, top))

    @cache
    def product_at(kind, text, x):
        try:
            return product and product(params, x, top)
        except HyperconnectError:
            return None

    @cache
    def kernel_at(j, kind, text, x):
        return kernel(params, j, x, product=product_at(kind, text, x))

    return lambda n, k, x: prefactor(n, k) * kernel_at(n - k, type(x), repr(x), x)


@dataclass(frozen=True)
class RelationSpec:
    """One connection relation.  ``source_names`` and ``target_names`` send
    each family parameter to the case parameter bound to it on that side;
    ``entries(params, top)`` gives the table's entry(n, k), or entry(n, k, x)
    for a connection-type relation, after the family's domain rule.  An
    x-free entry, and a connection-type prefactor, is a declaration read by
    an engine: ``_terms`` for three (tops, z) rows, ``_gauss`` for one
    (tops, bottom, z) row."""

    id: str
    family: str
    source_names: dict
    target_names: dict
    entries: Callable
    x_dependent: bool = False

    @property
    def names(self) -> tuple:
        """The case parameters, in family-parameter order, source before target."""
        return tuple(dict.fromkeys(
            case for name in self.source_names
            for case in (self.source_names[name], self.target_names[name])))

    def source(self, params) -> dict:
        return {name: params[case] for name, case in self.source_names.items()}

    def target(self, params) -> dict:
        return {name: params[case] for name, case in self.target_names.items()}

    def params(self, source, target) -> dict:
        """The case parameters that ``source`` and ``target`` read back."""
        params = {case: source[name] for name, case in self.source_names.items()}
        for name, case in self.target_names.items():
            params.setdefault(case, target[name])
        return params


_ALPHA_C = {"alpha": "alpha", "c": "c"}
_P_N = {"p": "p", "N": "N"}

# The declarations take the relation's case parameters by name.  A term
# entry's rows g, r, h are (tops, z) each; a Gauss entry's row is
# (tops, bottom, z).
_RELATIONS = {
    spec.id: spec
    for spec in (
        RelationSpec("meixner_alpha_c_to_beta_d", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "d"},
                     partial(_gauss, lambda alpha, beta, c, d: (
                         (beta, 1), alpha, d * (1 - c) / (c * (1 - d))))),
        RelationSpec("meixner_same_alpha_c_to_d", "meixner", _ALPHA_C,
                     {"alpha": "alpha", "c": "d"},
                     partial(_terms, lambda c, d, **_: (
                         ((), c - d), ((), d * (1 - c)), ((), c * (1 - d))))),
        RelationSpec("meixner_alpha_to_beta", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "c"},
                     partial(_terms, lambda alpha, beta, **_: (
                         ((alpha - beta,), 1), ((beta,), 1), ((alpha,), 1)))),
        RelationSpec("meixner_type_c_to_d", "meixner", _ALPHA_C,
                     {"alpha": "alpha", "c": "d"},
                     partial(_type_entries, partial(_terms, lambda alpha, **_: (
                         ((), 1), ((alpha,), 1), ((alpha,), 1))), _c_to_d_kernel, None),
                     x_dependent=True),
        RelationSpec("meixner_type_alpha_c", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "d"},
                     partial(_type_entries, _alpha_c_prefactors, _alpha_c_kernel,
                             _alpha_c_product),
                     x_dependent=True),
        RelationSpec("krawtchouk_p_N_to_q_M", "krawtchouk", _P_N,
                     {"p": "q", "N": "M"},
                     partial(_gauss, lambda p, q, N, M: ((-M, 1), -N, q / p))),
        RelationSpec("krawtchouk_p_to_q_same_N", "krawtchouk", _P_N,
                     {"p": "q", "N": "N"},
                     partial(_terms, lambda p, q, **_: (((), p - q), ((), q), ((), p)))),
        RelationSpec("krawtchouk_same_p_N_to_M", "krawtchouk", _P_N,
                     {"p": "p", "N": "M"},
                     partial(_terms, lambda N, M, **_: (
                         ((M - N,), 1), ((-M,), 1), ((-N,), 1)))),
    )
}


def relation_ids() -> tuple:
    return tuple(_RELATIONS)


def get_relation(relation_id: str) -> RelationSpec:
    try:
        return _RELATIONS[relation_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown relation {relation_id!r}; known: {', '.join(_RELATIONS)}"
        ) from None


def _bind(params) -> dict:
    """The bindings with every int as a Fraction, so exact inputs stay exact
    through true division."""
    return {k: Fraction(v) if is_exact_value(v) else v for k, v in params.items()}


def connection_table(relation_id: str, params, n_max: int,
                     field: FieldTag = EXACT) -> ConnectionExpansion:
    """Closed-form table for one of the displayed relations."""
    _require_rows(n_max)
    spec = get_relation(relation_id)
    params = _bind(params)
    missing = set(spec.names) - set(params)
    if missing:
        raise DomainError(f"{relation_id} needs parameter(s) {sorted(missing)}")
    params = {name: params[name] for name in spec.names}
    _check_domain(spec, params, n_max)
    entry = spec.entries(params, n_max)
    if spec.x_dependent:
        rows = [[partial(entry, n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    else:
        rows = [[field.of(entry(n, k)) for k in range(n + 1)] for n in range(n_max + 1)]
    return ConnectionExpansion(
        n_max, spec.source(params), spec.target(params), rows,
        x_dependent=spec.x_dependent, field=field,
        method="closed-form", relation=relation_id,
    )


# -- power collection ---------------------------------------------------------

_X_PROBES = (0, 1, 2)


def _factor_ratio_series(factor, env_from, env_to, q, n_max, field) -> TruncatedSeries:
    """Series of factor(source params) / factor(target params) in t."""
    kind = factor.kind
    if kind == "binomial":
        kappa_from = _probe(factor["kappa"], field, env_from)
        kappa_to = _probe(factor["kappa"], field, env_to)
        if kappa_from is None or kappa_to is None or kappa_from != kappa_to:
            raise MethodNotApplicableError(
                f"binomial base {factor['kappa']!r} changes with the varied"
                " parameter, so the ratio is not a single binomial"
            )
        delta = _probe(factor["exponent"], field, env_from, env_to)
        if delta is None:
            raise MethodNotApplicableError(
                f"exponent {factor['exponent']!r} leaves an x-dependent ratio;"
                " power collection needs an argument-free binomial ratio"
            )
        return binomial_power(kappa_from, delta, n_max, field)
    if kind == "exponential":
        delta = _probe(factor["kappa"], field, env_from, env_to)
        if delta is None:
            raise MethodNotApplicableError(
                f"exponential rate {factor['kappa']!r} leaves an x-dependent ratio"
            )
        return exp_series(delta, n_max, field)
    if kind in ("qpoch_num", "qpoch_denom"):
        kappa_from = _probe(factor["kappa"], field, env_from)
        kappa_to = _probe(factor["kappa"], field, env_to)
        if kappa_from is None or kappa_to is None:
            raise MethodNotApplicableError(
                f"q-factor base {factor['kappa']!r} depends on the argument"
            )
        if kind == "qpoch_denom":
            kappa_from, kappa_to = kappa_to, kappa_from
        # (kappa_from t; q)_inf / (kappa_to t; q)_inf as a 1phi0 expansion
        if kappa_to == 0:
            return q_exp_lower(kappa_from, q, n_max, field)
        return q_binomial_series(kappa_from / kappa_to, kappa_to, q, n_max, field)
    raise MethodNotApplicableError(
        f"varied parameter sits in a {kind!r} factor, which the binomial"
        " ratio step cannot expand"
    )


def _probe(expr, field, env, minus=None):
    """expr at env, less expr at ``minus`` when given, if that value is
    x-free: equal within the field's tolerance on every probe point.  None
    when it changes with x."""
    def value(at):
        out = expressions.evaluate(expr, {**env, **at}, field)
        return out if minus is None else out - expressions.evaluate(expr, {**minus, **at}, field)

    if "x" not in expressions.variables(expr):
        return value({})
    first, *rest = (value({"x": field.of(x)}) for x in _X_PROBES)
    return first if all(field.eq(first, v) for v in rest) else None


def power_collect(family_id, from_params, to_params, n_max: int) -> ConnectionExpansion:
    """Connection coefficients by ratio expansion and power matching."""
    _require_rows(n_max)
    descriptor = get_family(family_id)
    from_params = descriptor.bind(from_params)
    to_params = descriptor.bind(to_params)
    field = descriptor.field_for(*from_params.values(), *to_params.values())
    varied = {
        name for name in descriptor.parameters
        if not field.eq(field.of(from_params[name]), field.of(to_params[name]))
    }
    if "theta" in varied:
        raise MethodNotApplicableError("the argument parameter theta cannot be varied")
    if "q" in varied:
        raise MethodNotApplicableError("the base q must match on both sides")
    env_from = {k: field.of(v) for k, v in from_params.items()}
    env_to = {k: field.of(v) for k, v in to_params.items()}
    q = env_from.get("q")

    ratio = TruncatedSeries.one(n_max, field)
    if varied:
        hit = [f for f in descriptor.factors if varied & f.free_variables()]
        if not hit:
            raise MethodNotApplicableError(
                f"varied parameter(s) {sorted(varied)} appear in no generating-"
                "function factor"
            )
        for factor in hit:
            ratio = ratio * _factor_ratio_series(factor, env_from, env_to, q, n_max, field)

    r = ratio.coefficients
    target_norms = []
    rows = []
    for n in range(n_max + 1):
        c_n = field.of(normalization_at(descriptor, n, None, from_params, field))
        if c_n == 0:
            raise DomainError(f"source normalization vanishes at n = {n}")
        target_norms.append(field.of(normalization_at(descriptor, n, None, to_params, field)))
        rows.append([r[n - k] * target_norms[k] / c_n for k in range(n + 1)])
    return ConnectionExpansion(
        n_max, from_params, to_params, rows,
        x_dependent=False, field=field, method="power-collection",
    )


# -- linear-solve oracle ------------------------------------------------------


def default_abscissae(descriptor: FamilyDescriptor, n_max: int, field: FieldTag = NUMERIC):
    """n_max+1 distinct sample points for a solve on ``field``: theta for an
    x = cos(theta) family, a cosine grid for doubles and a base q, else x = 0..n_max."""
    if descriptor.uses_theta:
        return [math.pi * (i + Fraction(1, 2)) / (n_max + 1) for i in range(n_max + 1)]
    if field.is_exact or "q" not in descriptor.parameters:
        return [Fraction(i) for i in range(n_max + 1)]
    return [math.cos(math.pi * (i + 0.5) / (n_max + 1)) for i in range(n_max + 1)]


def _sample(descriptor, params, n_max, points):
    """Values P_n(x_i) plus the polynomial abscissae the solve runs on."""
    if descriptor.uses_theta:
        abscissae = [math.cos(float(theta)) for theta in points]
        columns = [family_row(descriptor, n_max, None, {**params, "theta": theta})
                   for theta in points]
    else:
        abscissae = list(points)
        columns = family_rows(descriptor, n_max, points, params)
    return abscissae, [list(row) for row in zip(*columns)]


def _degenerate(j):
    """The error of a vanishing pivot: target degree j on these abscissae."""
    return SingularSampleError(
        f"degree-{j} target member degenerates on these abscissae;"
        " choose different sample points"
    )


def _divided_differences(values, abscissae):
    """Newton coefficients over the abscissae; level j kills degrees < j.
    Exact tables come from ``_integer_newton`` instead."""
    level = list(values)
    out = [level[0]]
    for j in range(1, len(values)):
        nxt = []
        for i in range(len(level) - 1):
            du = abscissae[i + j] - abscissae[i]
            if du == 0:
                raise SingularSampleError(
                    "duplicate sample abscissae; choose distinct points"
                )
            nxt.append((level[i + 1] - level[i]) / du)
        level = nxt
        out.append(level[0])
    return out


def _back_substitution(source_dd, target_dd, field: FieldTag):
    """Rows c_{k,n} of S_n[j] = sum_{k=j..n} c_{k,n} T_k[j], j = n..0."""
    rows = []
    for n in range(len(source_dd)):
        coeffs = [field.zero()] * (n + 1)
        for j in range(n, -1, -1):
            residue = source_dd[n][j]
            for k in range(j + 1, n + 1):
                residue = residue - coeffs[k] * target_dd[k][j]
            pivot = target_dd[j][j]
            if pivot == 0:
                raise _degenerate(j)
            coeffs[j] = residue / pivot
        rows.append(coeffs)
    return rows


def _integer_newton(values, points):
    """The Newton table of exact ``values`` over integer ``points`` as
    (tops, den, lcms): level j's output is tops[j] / (den L_1 ... L_j),
    L_j = lcms[j - 1] the lcm of the level-j gaps g_i = X_{i+j} - X_i.
    With level j - 1 as N_i / D, level j is (N_{i+1} - N_i) (L_j / g_i) /
    (D L_j), so every level stays on integers."""
    level, den = EXACT.common(values)
    tops, lcms = [level[0]], []
    for j in range(1, len(level)):
        gaps = [points[i + j] - points[i] for i in range(len(level) - 1)]
        if 0 in gaps:
            raise SingularSampleError("duplicate sample abscissae; choose distinct points")
        common = math.lcm(*gaps)
        level = [(b - a) * (common // g) for a, b, g in zip(level, level[1:], gaps)]
        tops.append(level[0])
        lcms.append(common)
    return tops, den, lcms


def _fraction_free_solve(source, target):
    """``_back_substitution`` on the integer Newton tables (tops, den, _)
    of ``_integer_newton`` over one set of points.  Level j of every table
    carries the same factor 1 / (L_1 ... L_j) (E^j at abscissae X_i / E),
    which cancels, so with y_k = c_{k,n} E_n / D_k (E_n, D_k the tables'
    dens) the system is s_n[j] = sum_k y_k t_k[j] on integers.  Each y_k
    is kept over the product P of the pivots t_j[j] used so far: a new
    pivot scales the known y_k and P, and each entry is one Fraction."""
    t = [tops for tops, _, _ in target]
    rows = []
    for n, (s, source_den, _) in enumerate(source):
        ys, product = [0] * (n + 1), 1
        for j in range(n, -1, -1):
            pivot = t[j][j]
            if pivot == 0:
                raise _degenerate(j)
            residue = s[j] * product - sum([ys[k] * t[k][j] for k in range(j + 1, n + 1)])
            ys[j + 1:] = [y * pivot for y in ys[j + 1:]]
            ys[j] = residue
            product *= pivot
        rows.append([Fraction(y * den, product * source_den)
                     for y, (_, den, _) in zip(ys, target)])
    return rows


def connect_linear_solve(family_id, from_params, to_params, n_max: int,
                         abscissae=None) -> ConnectionExpansion:
    """Solve P_n(x_i; source) = sum_k c_{k,n} P_k(x_i; target) exactly.

    Divided differences grade both sides by degree: level j of a degree-k
    polynomial vanishes for j > k, so the system is triangular and solved by
    back substitution, exactly and fraction-free on the exact field.
    """
    _require_rows(n_max)
    descriptor = get_family(family_id)
    from_params = descriptor.bind(from_params)
    to_params = descriptor.bind(to_params)
    field = descriptor.field_for(*from_params.values(), *to_params.values())
    points = default_abscissae(descriptor, n_max, field) if abscissae is None else list(abscissae)
    if len(points) != n_max + 1:
        raise DomainError(f"need exactly {n_max + 1} sample abscissae")
    xs, source_vals = _sample(descriptor, from_params, n_max, points)
    _, target_vals = _sample(descriptor, to_params, n_max, points)
    xs, _ = field.common([field.of(v) for v in xs])
    newton, solve = ((_integer_newton, _fraction_free_solve) if field.is_exact else
                     (_divided_differences, partial(_back_substitution, field=field)))
    source_dd, target_dd = ([newton([field.of(v) for v in row], xs) for row in vals]
                            for vals in (source_vals, target_vals))
    return ConnectionExpansion(
        n_max, from_params, to_params, solve(source_dd, target_dd),
        x_dependent=False, field=field, method="linear-solve",
    )
