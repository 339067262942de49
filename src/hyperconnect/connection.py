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

  An x-dependent entry is an x-free prefactor(n, k) times a kernel(n-k, x):
  the (x)_{n-k} d^{k-n} 2F1 and the F1 above depend on n and k only through
  j = n - k.  A table computes each prefactor once per (n, k) and each
  kernel once per (j, x), both on first use, so c_{k,n}(x) costs one
  product after its factors exist and a prefactor that cannot be formed
  still raises from coefficient(n, k, x).

* power_collect: the generic method.  Divide the generating function factor
  holding the varied parameter by its retargeted copy, expand the ratio R(t)
  by the (q-)binomial theorem, and match powers of t:

      c_{k,n} = r_{n-k} c_k(target) / c_n(source).

  Applicable exactly when each varied parameter sits in factors whose
  from/to ratio does not involve the argument x; the coefficients are
  x-independent by construction.  Each normalization c_n is evaluated once
  per degree and side.

* connect_linear_solve: the independent oracle.  Sample both families on
  n_max+1 distinct abscissae, take divided differences (which grade by
  degree, making the system triangular), and back-substitute.  A family
  evaluated from its generating function is expanded once per abscissa,
  to n_max, and every degree is read from that series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import expressions
from .errors import (
    DomainError,
    MethodNotApplicableError,
    SingularConfigurationError,
    SingularSampleError,
    UnknownIdentityError,
)
from .fields import EXACT, NUMERIC, FieldTag, as_index, is_exact_value, is_nonpositive_integer
from .hyper import (
    APPELL_F1,
    MultiVarSpec,
    TERMINATING,
    multivar_eval,
    pfq,
    pfq_eval,
)
from .families import FamilyDescriptor, family_row, get_family, normalization_at
from .pochhammer import pochhammer
from .series import (
    TruncatedSeries,
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
        self._rows = tuple(tuple(row) for row in rows)
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
            params = dict(source)
            params.update(_relation_target_overrides(doc["relation"], target))
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


def _c_to_d_prefactor(p, n, k):
    _check_meixner_domains(p, ("alpha", "c", "d"))
    alpha = p["alpha"]
    return math.comb(n, k) * pochhammer(alpha, k) / pochhammer(alpha, n)


def _c_to_d_kernel(p, j, x):
    """(x)_j d^-j 2F1(-j, -x; -x-j+1; d/c)."""
    c, d = p["c"], p["d"]
    hyp = pfq_eval(pfq((Fraction(-j), -x), (-x - j + 1,)), d / c, TERMINATING)
    return pochhammer(x, j) / d**j * hyp


def _alpha_c_prefactor(p, n, k):
    _check_meixner_domains(p, ("alpha", "beta", "c", "d"))
    alpha, beta = p["alpha"], p["beta"]
    shifted = pochhammer(beta - alpha - n + 1, k)
    if shifted == 0:
        raise SingularConfigurationError(
            f"(beta - alpha - n + 1)_k vanishes at n = {n}, k = {k};"
            " these parameters admit no limiting value"
        )
    return (
        pochhammer(alpha - beta, n) / pochhammer(alpha, n)
        * pochhammer(beta, k) * pochhammer(Fraction(-n), k)
        / (math.factorial(k) * shifted)
    )


def _alpha_c_kernel(p, j, x):
    """F1(-j, -x, x; beta-alpha-j+1; 1/c, 1/d)."""
    alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
    return multivar_eval(
        MultiVarSpec(APPELL_F1, (Fraction(-j), -x, x, beta - alpha - j + 1)),
        (1 / c, 1 / d),
    )


_TYPE_ENTRIES = {
    "type_c_to_d": (_c_to_d_prefactor, _c_to_d_kernel),
    "type_alpha_c": (_alpha_c_prefactor, _alpha_c_kernel),
}


class _TypeEntries:
    """The x-dependent entries of one table.  Each prefactor is computed on
    first use of its (n, k) and each kernel on first use of its (n - k, x),
    so a prefactor that cannot be formed raises from the entry that needs
    it, never from connection_table."""

    __slots__ = ("params", "prefactor", "kernel", "_prefactors", "_kernels")

    def __init__(self, params, prefactor, kernel):
        self.params = params
        self.prefactor = prefactor
        self.kernel = kernel
        self._prefactors = {}
        self._kernels = {}

    def __call__(self, n, k, x):
        pre = self._prefactors.get((n, k))
        if pre is None:
            pre = self._prefactors[n, k] = self.prefactor(self.params, n, k)
        # 1, Fraction(1), 1.0 and -0.0 are equal dict keys but give values of
        # different types or signs, so the key carries the type and the repr
        key = (n - k, type(x), repr(x))
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = self.kernel(self.params, n - k, x)
        return pre * kernel


def meixner_connection_coeffs(relation: str, params, n: int, k: int, x=None):
    """One closed-form Meixner coefficient; x only for the type relations."""
    _require(0 <= k <= n, "need 0 <= k <= n")
    p = dict(params)
    if relation == "alpha_c_to_beta_d":
        _check_meixner_domains(p, ("alpha", "beta", "c", "d"))
        alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
        ratio = d * (1 - c) / (c * (1 - d))
        hyp = pfq_eval(pfq((Fraction(k - n), k + beta), (k + alpha,)), ratio, TERMINATING)
        return (
            math.comb(n, k) * pochhammer(beta, k) / pochhammer(alpha, k)
            * ratio**k * hyp
        )
    if relation == "same_alpha_c_to_d":
        _check_meixner_domains(p, ("alpha", "c", "d"))
        c, d = p["c"], p["d"]
        # single combined power so d = c cleanly collapses to the identity
        return (
            math.comb(n, k) * (c - d) ** (n - k) * (d * (1 - c)) ** k
            / (c * (1 - d)) ** n
        )
    if relation == "alpha_to_beta":
        _check_meixner_domains(p, ("alpha", "beta"))
        alpha, beta = p["alpha"], p["beta"]
        return (
            math.comb(n, k) * pochhammer(alpha - beta, n - k) * pochhammer(beta, k)
            / pochhammer(alpha, n)
        )
    if relation in _TYPE_ENTRIES:
        _require(x is not None, f"{relation} coefficients need x")
        prefactor, kernel = _TYPE_ENTRIES[relation]
        return prefactor(p, n, k) * kernel(p, n - k, x)
    raise UnknownIdentityError(f"unknown meixner relation {relation!r}")


def krawtchouk_connection_coeffs(relation: str, params, n: int, k: int):
    """One closed-form Krawtchouk coefficient."""
    _require(0 <= k <= n, "need 0 <= k <= n")
    p = dict(params)
    cap = as_index(p["N"], "N")
    _require(n <= cap, f"need n <= N, got n = {n}, N = {cap}")
    _require(p["p"] != 0, "p must be nonzero")
    if relation == "p_N_to_q_M":
        big = as_index(p["M"], "M")
        _require(cap <= big, f"need N <= M, got N = {cap}, M = {big}")
        _require(p["q"] != 0, "q must be nonzero")
        pp, qq = p["p"], p["q"]
        hyp = pfq_eval(
            pfq((Fraction(k - n), Fraction(k - big)), (Fraction(k - cap),)),
            qq / pp, TERMINATING,
        )
        return (
            math.comb(n, k) * qq**k * pochhammer(Fraction(-big), k)
            / (pp**k * pochhammer(Fraction(-cap), k)) * hyp
        )
    if relation == "p_to_q_same_N":
        _require(p["q"] != 0, "q must be nonzero")
        pp, qq = p["p"], p["q"]
        return math.comb(n, k) * (pp - qq) ** (n - k) * qq**k / pp**n
    if relation == "same_p_N_to_M":
        big = as_index(p["M"], "M")
        _require(cap <= big, f"need N <= M, got N = {cap}, M = {big}")
        return (
            math.comb(n, k) * pochhammer(Fraction(big - cap), n - k)
            * pochhammer(Fraction(-big), k) / pochhammer(Fraction(-cap), n)
        )
    raise UnknownIdentityError(f"unknown krawtchouk relation {relation!r}")


@dataclass(frozen=True)
class RelationSpec:
    """Registry entry tying a relation id to its family and parameter shape."""

    id: str
    family: str
    names: tuple
    coeff: Callable
    source: Callable
    target: Callable
    split: tuple | None = None  # (prefactor, kernel) of a connection-type relation

    @property
    def x_dependent(self) -> bool:
        return self.split is not None


def _meix(relation, names, source, target):
    def coeff(params, n, k, x=None):
        return meixner_connection_coeffs(relation, params, n, k, x)

    return RelationSpec("meixner_" + relation, "meixner", names, coeff, source, target,
                        _TYPE_ENTRIES.get(relation))


def _kraw(relation, names, source, target):
    def coeff(params, n, k, x=None):
        return krawtchouk_connection_coeffs(relation, params, n, k)

    return RelationSpec("krawtchouk_" + relation, "krawtchouk", names, coeff,
                        source, target)


_RELATIONS = {
    spec.id: spec
    for spec in (
        _meix("alpha_c_to_beta_d", ("alpha", "beta", "c", "d"),
              lambda p: {"alpha": p["alpha"], "c": p["c"]},
              lambda p: {"alpha": p["beta"], "c": p["d"]}),
        _meix("same_alpha_c_to_d", ("alpha", "c", "d"),
              lambda p: {"alpha": p["alpha"], "c": p["c"]},
              lambda p: {"alpha": p["alpha"], "c": p["d"]}),
        _meix("alpha_to_beta", ("alpha", "beta", "c"),
              lambda p: {"alpha": p["alpha"], "c": p["c"]},
              lambda p: {"alpha": p["beta"], "c": p["c"]}),
        _meix("type_c_to_d", ("alpha", "c", "d"),
              lambda p: {"alpha": p["alpha"], "c": p["c"]},
              lambda p: {"alpha": p["alpha"], "c": p["d"]}),
        _meix("type_alpha_c", ("alpha", "beta", "c", "d"),
              lambda p: {"alpha": p["alpha"], "c": p["c"]},
              lambda p: {"alpha": p["beta"], "c": p["d"]}),
        _kraw("p_N_to_q_M", ("p", "q", "N", "M"),
              lambda p: {"p": p["p"], "N": p["N"]},
              lambda p: {"p": p["q"], "N": p["M"]}),
        _kraw("p_to_q_same_N", ("p", "q", "N"),
              lambda p: {"p": p["p"], "N": p["N"]},
              lambda p: {"p": p["q"], "N": p["N"]}),
        _kraw("same_p_N_to_M", ("p", "N", "M"),
              lambda p: {"p": p["p"], "N": p["N"]},
              lambda p: {"p": p["p"], "N": p["M"]}),
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


def _relation_target_overrides(relation_id: str, target: dict) -> dict:
    spec = get_relation(relation_id)
    if spec.id.endswith("alpha_c_to_beta_d") or spec.id.endswith("type_alpha_c"):
        return {"beta": target["alpha"], "d": target["c"]}
    if spec.id.endswith("same_alpha_c_to_d") or spec.id.endswith("type_c_to_d"):
        return {"d": target["c"]}
    if spec.id.endswith("alpha_to_beta"):
        return {"beta": target["alpha"]}
    if spec.id.endswith("p_N_to_q_M"):
        return {"q": target["p"], "M": target["N"]}
    if spec.id.endswith("p_to_q_same_N"):
        return {"q": target["p"]}
    return {"M": target["N"]}


def connection_table(relation_id: str, params, n_max: int,
                     field: FieldTag = EXACT) -> ConnectionExpansion:
    """Closed-form table for one of the displayed relations."""
    spec = get_relation(relation_id)
    params = dict(params)
    missing = set(spec.names) - set(params)
    if missing:
        raise DomainError(f"{relation_id} needs parameter(s) {sorted(missing)}")
    if spec.x_dependent:
        entries = _TypeEntries(params, *spec.split)
        rows = [[partial(entries, n, k) for k in range(n + 1)] for n in range(n_max + 1)]
    else:
        rows = [
            [field.of(spec.coeff(params, n, k)) for k in range(n + 1)]
            for n in range(n_max + 1)
        ]
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
        kappa_from = _probe_constant(factor["kappa"], env_from, field)
        kappa_to = _probe_constant(factor["kappa"], env_to, field)
        if kappa_from is None or kappa_to is None or kappa_from != kappa_to:
            raise MethodNotApplicableError(
                f"binomial base {factor['kappa']!r} changes with the varied"
                " parameter, so the ratio is not a single binomial"
            )
        delta = _probe_difference(factor["exponent"], env_from, env_to, field)
        if delta is None:
            raise MethodNotApplicableError(
                f"exponent {factor['exponent']!r} leaves an x-dependent ratio;"
                " power collection needs an argument-free binomial ratio"
            )
        return binomial_power(kappa_from, delta, n_max, field)
    if kind == "exponential":
        delta = _probe_difference(factor["kappa"], env_from, env_to, field)
        if delta is None:
            raise MethodNotApplicableError(
                f"exponential rate {factor['kappa']!r} leaves an x-dependent ratio"
            )
        return exp_series(delta, n_max, field)
    if kind in ("qpoch_num", "qpoch_denom"):
        kappa_from = _probe_constant(factor["kappa"], env_from, field)
        kappa_to = _probe_constant(factor["kappa"], env_to, field)
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


def _probe_constant(expr, env, field):
    """Value of expr when it is x-free, else None."""
    if "x" not in expressions.variables(expr):
        return expressions.evaluate(expr, env, field)
    values = {
        expressions.evaluate(expr, {**env, "x": field.of(probe)}, field)
        for probe in _X_PROBES
    }
    return values.pop() if len(values) == 1 else None


def _probe_difference(expr, env_from, env_to, field):
    """expr(from) - expr(to) when x-free (checked on probe points, equal
    within the field's tolerance), else None."""
    if "x" not in expressions.variables(expr):
        return expressions.evaluate(expr, env_from, field) - expressions.evaluate(
            expr, env_to, field
        )
    first, *rest = (
        expressions.evaluate(expr, {**env_from, "x": x}, field)
        - expressions.evaluate(expr, {**env_to, "x": x}, field)
        for x in map(field.of, _X_PROBES)
    )
    return first if all(field.eq(first, delta) for delta in rest) else None


def power_collect(family_id, from_params, to_params, n_max: int,
                  field: FieldTag | None = None) -> ConnectionExpansion:
    """Connection coefficients by ratio expansion and power matching."""
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    from_params = descriptor.bind(from_params)
    to_params = descriptor.bind(to_params)
    if field is None:
        exact = all(is_exact_value(v) for v in list(from_params.values()) + list(to_params.values()))
        field = EXACT if exact and descriptor.expansion != "numeric" else NUMERIC
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


def _divided_differences(values, abscissae):
    """Newton coefficients over the abscissae; level j kills degrees < j."""
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


def connect_linear_solve(family_id, from_params, to_params, n_max: int,
                         abscissae=None, field: FieldTag | None = None) -> ConnectionExpansion:
    """Solve P_n(x_i; source) = sum_k c_{k,n} P_k(x_i; target) exactly.

    Divided differences grade both sides by degree: level j of a degree-k
    polynomial vanishes for j > k, so the system is triangular and solved by
    back substitution, exactly on the exact field.
    """
    descriptor = family_id if isinstance(family_id, FamilyDescriptor) else get_family(family_id)
    from_params = descriptor.bind(from_params)
    to_params = descriptor.bind(to_params)
    if field is None:
        exact = all(is_exact_value(v) for v in list(from_params.values()) + list(to_params.values()))
        field = EXACT if exact and descriptor.expansion == "exact" else NUMERIC
    points = list(abscissae) if abscissae is not None else default_abscissae(descriptor, n_max)
    if len(points) != n_max + 1:
        raise DomainError(f"need exactly {n_max + 1} sample abscissae")
    xs, source_vals = _sample(descriptor, from_params, n_max, points)
    _, target_vals = _sample(descriptor, to_params, n_max, points)
    xs = [field.of(v) for v in xs]
    source_dd = [
        _divided_differences([field.of(v) for v in row], xs) for row in source_vals
    ]
    target_dd = [
        _divided_differences([field.of(v) for v in row], xs) for row in target_vals
    ]
    rows = []
    for n in range(n_max + 1):
        coeffs = [field.zero()] * (n + 1)
        for j in range(n, -1, -1):
            residue = source_dd[n][j]
            for k in range(j + 1, n + 1):
                residue = residue - coeffs[k] * target_dd[k][j]
            pivot = target_dd[j][j]
            if pivot == 0:
                raise SingularSampleError(
                    f"degree-{j} target member degenerates on these abscissae;"
                    " choose different sample points"
                )
            coeffs[j] = residue / pivot
        rows.append(coeffs)
    return ConnectionExpansion(
        n_max, from_params, to_params, rows,
        x_dependent=False, field=field, method="linear-solve",
    )
