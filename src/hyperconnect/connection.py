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
  and on the target side, and its entry builder.  The parameter names, the
  source and target bindings, their inverse for JSON and the acceptance
  suite's relation cases all read that row.  Integer bindings enter as
  Fractions, so exact inputs give exact tables.

  A table builds the factors its entries share once, to n_max: the
  Pochhammer rows (alpha)_m, (beta)_m, (alpha-beta)_m, (-N)_m, (-M)_m ... by
  term ratio and the powers E^m, (q/p)^m, (c-d)^m ...  The two 2F1
  entries are differences of one row: with w_i = (beta)_i/(alpha)_i E^i
  (resp. (-M)_i/(-N)_i (q/p)^i), (beta)_k (k+beta)_m = (beta)_{k+m} gives

      c_{k,n} = C(n,k) sum_m (-1)^m C(n-k, m) w_{k+m},

  and all of them come from the difference rows S_j(k) = S_{j-1}(k) -
  S_{j-1}(k+1), on integer numerators over one denominator when exact, so
  a table costs O(n_max^2) operations.

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
  degree, making the system triangular), and back-substitute.  A family
  evaluated from its generating function is expanded once per abscissa,
  to n_max, and every degree is read from that series; Meixner and
  Krawtchouk rows come from their three-term recurrences on exact inputs.
  On the exact field the solve is fraction-free: each Newton table runs on
  integers (values and abscissae over one denominator each, each level over
  the lcm of its abscissa gaps), the level factors the source and target
  tables share cancel, and back substitution keeps its unknowns over the
  product of the pivots, so each entry is one Fraction.

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
from .fields import EXACT, FieldTag, as_index, is_exact_value, is_nonpositive_integer
from .hyper import (
    APPELL_F1,
    MultiVarSpec,
    TERMINATING,
    factor_product,
    linear_arg,
    multivar_eval,
    multivar_field,
    pfq,
    pfq_eval,
)
from .families import FamilyDescriptor, family_row, get_family, normalization_at
from .pochhammer import neg_int_pochhammer, pochhammer, pochhammer_row
from .series import (
    TruncatedSeries,
    _over_one_denominator,
    binomial_power,
    exp_series,
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
                lines.append(f"{name},{_csv_cell(value, self.field)}")
            return "\n".join(lines) + "\n"
        for n, row in enumerate(self._rows):
            cells = [str(n)] + [_csv_cell(c, self.field) for c in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _csv_cell(value, field: FieldTag) -> str:
    if field.is_exact:
        return str(Fraction(value))
    v = complex(value)
    return f"{v.real!r}+{v.imag!r}j" if v.imag else repr(v.real)


def _require(condition: bool, message: str):
    if not condition:
        raise DomainError(message)


def _check_meixner_domains(params, names):
    for name in names:
        v = params[name]
        if name in ("alpha", "beta") and is_nonpositive_integer(v):
            raise DomainError(f"{name} must avoid {{0, -1, -2, ...}}")
        if name in ("c", "d") and (v == 0 or v == 1):
            raise DomainError(f"{name} must avoid 0 and 1")


def _powers(z, top):
    return [z**m for m in range(top + 1)]


def _terminating_gauss_entries(w):
    """C(n,k) (beta)_k/(alpha)_k z^k 2F1(k-n, k+beta; k+alpha; z) with
    w_i = (beta)_i/(alpha)_i z^i, for n < len(w).  As (beta)_k (k+beta)_m =
    (beta)_{k+m} and (k-n)_m / m! = (-1)^m C(n-k, m), the entry is
    C(n,k) S_{n-k}(k), S_j(k) = sum_m (-1)^m C(j, m) w_{k+m}, and the rows
    S_j(k) = S_{j-1}(k) - S_{j-1}(k+1) take O(len(w)^2) subtractions in all.
    Exact rows run on integer numerators over the common denominator of w,
    so an entry is one Fraction."""
    exact = all(is_exact_value(v) for v in w)
    if exact:
        w, den = _over_one_denominator(w)
    rows = [w]
    while len(rows[-1]) > 1:
        rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
    if exact:
        return lambda n, k: Fraction(math.comb(n, k) * rows[n - k][k], den)
    return lambda n, k: math.comb(n, k) * rows[n - k][k]


# Each x-free relation maps (params, top) to its entry(n, k), 0 <= k <= n <= top,
# after the domain checks; the factors shared by the entries are built once.


def _alpha_c_to_beta_d(p, top):
    _check_meixner_domains(p, ("alpha", "beta", "c", "d"))
    alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
    ratio = d * (1 - c) / (c * (1 - d))
    return _terminating_gauss_entries([
        b / a * z for a, b, z in zip(pochhammer_row(alpha, top),
                                     pochhammer_row(beta, top), _powers(ratio, top))
    ])


def _same_alpha_c_to_d(p, top):
    _check_meixner_domains(p, ("alpha", "c", "d"))
    c, d = p["c"], p["d"]
    # (c-d)^0 = 1, so d = c collapses to the identity
    shift, scale, norm = _powers(c - d, top), _powers(d * (1 - c), top), _powers(c * (1 - d), top)
    return lambda n, k: math.comb(n, k) * shift[n - k] * scale[k] / norm[n]


def _alpha_to_beta(p, top):
    _check_meixner_domains(p, ("alpha", "beta"))
    alpha, beta = p["alpha"], p["beta"]
    gap, rising, norm = (pochhammer_row(a, top) for a in (alpha - beta, beta, alpha))
    return lambda n, k: math.comb(n, k) * gap[n - k] * rising[k] / norm[n]


def _within_cap(n, cap):
    _require(n <= cap, f"need n <= N, got n = {n}, N = {cap}")


def _p_N_to_q_M(p, cap, top):
    big = as_index(p["M"], "M")
    _require(cap <= big, f"need N <= M, got N = {cap}, M = {big}")
    _require(p["q"] != 0, "q must be nonzero")
    upper, lower = pochhammer_row(Fraction(-big), top), pochhammer_row(Fraction(-cap), top)
    return _terminating_gauss_entries([
        u / v * z for u, v, z in zip(upper, lower, _powers(p["q"] / p["p"], top))
    ])


def _p_to_q_same_N(p, cap, top):
    _require(p["q"] != 0, "q must be nonzero")
    shift, scale, norm = _powers(p["p"] - p["q"], top), _powers(p["q"], top), _powers(p["p"], top)
    return lambda n, k: math.comb(n, k) * shift[n - k] * scale[k] / norm[n]


def _same_p_N_to_M(p, cap, top):
    big = as_index(p["M"], "M")
    _require(cap <= big, f"need N <= M, got N = {cap}, M = {big}")
    gap, rising, norm = (pochhammer_row(Fraction(a), top) for a in (big - cap, -big, -cap))
    return lambda n, k: math.comb(n, k) * gap[n - k] * rising[k] / norm[n]


def _krawtchouk_entries(form, params, top):
    """entry(n, k) of the Krawtchouk relation ``form(params, N, top)`` for
    n <= top.  Every degree n is checked against N, degree 0 before anything
    else."""
    cap = as_index(params["N"], "N")
    _within_cap(0, cap)
    _require(params["p"] != 0, "p must be nonzero")
    entries = form(params, cap, min(top, cap))

    def entry(n, k):
        _within_cap(n, cap)
        return entries(n, k)

    return entry


# An x-dependent relation is prefactors(params, top) giving prefactor(n, k)
# after the domain checks, kernel(params, n - k, x, product) and, when the
# kernels at one x share a factor product, product(params, x, top).


def _c_to_d_prefactors(p, top):
    _check_meixner_domains(p, ("alpha", "c", "d"))
    rising = pochhammer_row(p["alpha"], top)
    return lambda n, k: math.comb(n, k) * rising[k] / rising[n]


def _c_to_d_kernel(p, j, x, product=None):
    """(x)_j d^-j 2F1(-j, -x; -x-j+1; d/c)."""
    c, d = p["c"], p["d"]
    hyp = pfq_eval(pfq((Fraction(-j), -x), (-x - j + 1,)), d / c, TERMINATING)
    return pochhammer(x, j) / d**j * hyp


def _alpha_c_prefactors(p, top):
    _check_meixner_domains(p, ("alpha", "beta", "c", "d"))
    alpha, beta = p["alpha"], p["beta"]
    lead = [g / a for g, a in zip(pochhammer_row(alpha - beta, top),
                                  pochhammer_row(alpha, top))]
    rising = pochhammer_row(beta, top)
    offsets = {}  # n -> (beta - alpha - n + 1)_k, k = 0..n

    def prefactor(n, k):
        if n not in offsets:
            offsets[n] = pochhammer_row(beta - alpha - n + 1, n)
        shifted = offsets[n][k]
        if shifted == 0:
            raise SingularConfigurationError(
                f"(beta - alpha - n + 1)_k vanishes at n = {n}, k = {k};"
                " these parameters admit no limiting value"
            )
        return lead[n] * rising[k] * neg_int_pochhammer(n, k) / (math.factorial(k) * shifted)

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
                          multivar_field(spec, args))


def _type_entries(prefactors, kernel, product, params, top):
    """The x-dependent entries of one table to degree top.  Each piece (the
    prefactor factors, prefactor(n, k), the kernel factor product at x, the
    kernel at (n - k, x)) is built on first use, so a bad prefactor raises
    from the entry that needs it, never from connection_table.  A cache keeps
    no exception; a failed product is kept as None and the kernels at its x
    form their own.  An x is keyed by its type and repr too: 1, Fraction(1),
    1.0 and -0.0 are equal but give values of different types or signs."""

    @cache
    def prefactor_of():
        return prefactors(params, top)

    @cache
    def prefactor(n, k):
        return prefactor_of()(n, k)

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
    for a connection-type relation."""

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

_RELATIONS = {
    spec.id: spec
    for spec in (
        RelationSpec("meixner_alpha_c_to_beta_d", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "d"}, _alpha_c_to_beta_d),
        RelationSpec("meixner_same_alpha_c_to_d", "meixner", _ALPHA_C,
                     {"alpha": "alpha", "c": "d"}, _same_alpha_c_to_d),
        RelationSpec("meixner_alpha_to_beta", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "c"}, _alpha_to_beta),
        RelationSpec("meixner_type_c_to_d", "meixner", _ALPHA_C,
                     {"alpha": "alpha", "c": "d"},
                     partial(_type_entries, _c_to_d_prefactors, _c_to_d_kernel, None),
                     x_dependent=True),
        RelationSpec("meixner_type_alpha_c", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "d"},
                     partial(_type_entries, _alpha_c_prefactors, _alpha_c_kernel,
                             _alpha_c_product),
                     x_dependent=True),
        RelationSpec("krawtchouk_p_N_to_q_M", "krawtchouk", _P_N,
                     {"p": "q", "N": "M"}, partial(_krawtchouk_entries, _p_N_to_q_M)),
        RelationSpec("krawtchouk_p_to_q_same_N", "krawtchouk", _P_N,
                     {"p": "q", "N": "N"}, partial(_krawtchouk_entries, _p_to_q_same_N)),
        RelationSpec("krawtchouk_same_p_N_to_M", "krawtchouk", _P_N,
                     {"p": "p", "N": "M"}, partial(_krawtchouk_entries, _same_p_N_to_M)),
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
    spec = get_relation(relation_id)
    params = _bind(params)
    missing = set(spec.names) - set(params)
    if missing:
        raise DomainError(f"{relation_id} needs parameter(s) {sorted(missing)}")
    # a negative n_max asks for no entries, so no builder (and no check) runs
    entry = spec.entries(params, n_max) if n_max >= 0 else None
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
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
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


def default_abscissae(descriptor: FamilyDescriptor, n_max: int):
    """n_max+1 distinct sample points; theta grids for x = cos(theta) families."""
    if descriptor.uses_theta:
        return [math.pi * (i + Fraction(1, 2)) / (n_max + 1) for i in range(n_max + 1)]
    if descriptor.expansion == "exact":
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
        columns = [family_row(descriptor, n_max, x, params) for x in points]
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
    level, den = _over_one_denominator(values)
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
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    from_params = descriptor.bind(from_params)
    to_params = descriptor.bind(to_params)
    field = descriptor.field_for(*from_params.values(), *to_params.values())
    points = list(abscissae) if abscissae is not None else default_abscissae(descriptor, n_max)
    if len(points) != n_max + 1:
        raise DomainError(f"need exactly {n_max + 1} sample abscissae")
    xs, source_vals = _sample(descriptor, from_params, n_max, points)
    _, target_vals = _sample(descriptor, to_params, n_max, points)
    xs = [field.of(v) for v in xs]
    if field.is_exact:
        xs, _ = _over_one_denominator(xs)
        newton, solve = _integer_newton, _fraction_free_solve
    else:
        newton = _divided_differences
        solve = partial(_back_substitution, field=field)
    source_dd, target_dd = ([newton([field.of(v) for v in row], xs) for row in vals]
                            for vals in (source_vals, target_vals))
    return ConnectionExpansion(
        n_max, from_params, to_params, solve(source_dd, target_dd),
        x_dependent=False, field=field, method="linear-solve",
    )
