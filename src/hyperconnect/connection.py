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
  and on the target side, and the declaration of its entries, which the
  parameter names, the bindings, their inverse for JSON, the domain rule
  and the acceptance suite's relation cases all read.  Integer bindings
  enter as Fractions, so exact inputs give exact tables.

  A table keeps each row in one form, (numerators, denominator) as
  ``FieldTag.common`` gives it: integers over one denominator when exact,
  the values over 1 on doubles.  The engines emit that form, with no
  Fraction per entry, from rows built once to n_max, each a
  ``series.hypergeometric_terms`` row.  The four term entries (and the
  type_c_to_d prefactor) are C(n,k) g_{n-k} r_k / h_n, each row declared as
  (tops, z) for prod (a)_m z^m, e.g. alpha_to_beta ((alpha-beta,), 1),
  ((beta,), 1), ((alpha,), 1); exact row n is [C(n,k) g_{n-k} r_k h_den]
  over g_den r_den h_n.  The type_alpha_c prefactor is the alpha_to_beta
  entry, as (beta-alpha-n+1)_k = (-1)^k (alpha-beta+n-k)_k, save at its
  0/0 points.  The two 2F1 entries are declared as (tops, bottom, z),
  ((beta, 1), alpha, E) and ((-M, 1), -N, q/p): with w_i = (beta)_i
  (1)_i / ((alpha)_i i!) E^i and (beta)_k (k+beta)_m = (beta)_{k+m},
  c_{k,n} = C(n,k) S_{n-k}(k), S_j(k) = sum_m (-1)^m C(j, m) w_{k+m} =
  S_{j-1}(k) - S_{j-1}(k+1), O(n_max^2) operations on w's numerators.

  An x-dependent entry is an x-free prefactor(n, k) times a kernel K_{n-k}
  at x, as the (x)_{n-k} d^{k-n} 2F1 and the F1 above depend on n and k
  only through j = n - k.  A table builds the prefactor rows once and the
  kernel row K_0..K_n_max once per x; row n at x is the prefactor row
  times K_n..K_0, entry by entry.  As (x)_j / (-x-j+1)_m = (-1)^m
  (x)_{j-m}, the type_c_to_d kernel is K_j d^j / j! = [t^j] (1 - t d/c)^x
  (1 - t)^-x, one Cauchy product of two rows.  The F1 kernels at one x
  share the factor product sum (-x)_m (t/c)^m/m! * sum (x)_m (t/d)^m/m!.
  An entry that cannot be formed (a prefactor at a 0/0 point, a kernel at
  a pole) holds its error and raises it where it is read.

* power_collect: the generic method.  Divide the generating function factor
  holding the varied parameter by its retargeted copy, expand the ratio R(t)
  by the (q-)binomial theorem, and match powers of t:

      c_{k,n} = r_{n-k} c_k(target) / c_n(source).

  Applicable exactly when each varied parameter sits in factors whose
  from/to ratio does not involve the argument x, checked on probe points
  within the field's tolerance; the coefficients are x-independent by
  construction.  Each normalization c_n is evaluated once per degree and
  side; an exact row is the ratio row times the target normalizations
  over one denominator, over c_n(source): no Fraction per entry.

* connect_linear_solve: the independent oracle.  Sample both families on
  n_max+1 distinct abscissae, take divided differences (which grade by
  degree, making the system triangular), and back-substitute.  Doubles
  sample one ``families.family_rows`` call per side (one per theta for an
  x = cos theta family).  The exact solve is fraction-free: it reads one
  ``families.family_row_forms`` call per side as integers, each degree's
  samples over their least common denominator (``_exact_samples``), runs
  each Newton table on integers at one gap schedule, degree k's to level
  k, and keeps the unknowns over the product of the pivots, which is
  every row's denominator.

Both generic methods run on the field ``FamilyDescriptor.field_for`` picks,
as ``families.gf_expand`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
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
from .hyper import APPELL_F1, MultiVarSpec, factor_product, linear_arg, multivar_eval
from .families import (
    FamilyDescriptor,
    check_names,
    family_row,
    family_row_forms,
    family_rows,
    get_family,
    krawtchouk_sizes,
    normalization_at,
)
from .series import (
    TruncatedSeries,
    binomial_power,
    hypergeometric_terms,
    q_binomial_series,
    q_exp_lower,
    term_ratio,
)


class ConnectionExpansion:
    """Lower-triangular table c_{k,n} expanding P_n(source) over P_k(target).

    Every reader goes through ``row_form``: row n as (nums, den), the
    ``FieldTag.common`` form.  A connection-type table, whose coefficients
    genuinely depend on x, takes (field, rows) at x from ``rows_at(x)``,
    once per x; an entry there that cannot be formed holds its error, which
    raises where the entry is read."""

    __slots__ = ("n_max", "source", "target", "x_dependent", "field", "method",
                 "relation", "_rows", "_read")

    def __init__(self, n_max, source, target, rows, *, field, method, relation=None,
                 rows_at=None):
        self.n_max = n_max
        self.source = dict(source)
        self.target = dict(target)
        self.x_dependent = rows_at is not None
        self.field = field
        self.method = method
        self.relation = relation
        # (field, rows) of an x-free table, or rows_at; the (field, rows) read at
        # each x, keyed by type and repr, which tell 1, Fraction(1), 1.0, -0.0 apart
        self._rows = rows_at or (field, tuple(rows))
        self._read = {}
        if not self.x_dependent and (len(rows) != n_max + 1 or any(
                len(nums) != n + 1 for n, (nums, _) in enumerate(rows))):
            raise DomainError("connection table must be lower triangular")

    def _at(self, n, x):
        if not 0 <= n <= self.n_max:
            raise DomainError(f"need 0 <= k <= n <= {self.n_max}")
        if not self.x_dependent:
            return self._rows[0], self._rows[1][n]
        if x is None:
            raise DomainError("connection-type coefficients need the argument x")
        key = type(x), repr(x)
        if key not in self._read:
            self._read[key] = self._rows(x)
        field, rows = self._read[key]
        return field, rows[n]

    def row_form(self, n: int, x=None):
        """(field, nums, den): row n, at x for a connection-type table, as the
        values nums[k] / den; the error of its first failing entry raises."""
        field, (nums, den) = self._at(n, x)
        for v in nums:
            if isinstance(v, Exception):
                raise v.with_traceback(None)  # a held error is read again and again
        return field, nums, den

    def coefficient(self, n: int, k: int, x=None):
        if not 0 <= k <= n:
            raise DomainError(f"need 0 <= k <= n <= {self.n_max}")
        field, (nums, den) = self._at(n, x)
        if isinstance(nums[k], Exception):
            raise nums[k].with_traceback(None)
        return field.over([nums[k]], den)[0]

    def row(self, n: int, x=None):
        field, nums, den = self.row_form(n, x)
        return field.over(nums, den)

    def matrix(self):
        if self.x_dependent:
            raise DomainError("x-dependent tables have no plain matrix; pass x to row()")
        return [self.row(n) for n in range(self.n_max + 1)]

    def as_json(self) -> dict:
        doc = {
            "n_max": self.n_max,
            "method": self.method,
            "relation": self.relation,
            **self.field.as_json(),
            # each binding in its own field: a numeric table may have exact ones
            "source": {k: field_of(v).serialize(v) for k, v in self.source.items()},
            "target": {k: field_of(v).serialize(v) for k, v in self.target.items()},
            "x_dependent": self.x_dependent,
            "table": None,
        }
        if not self.x_dependent:
            doc["table"] = [[self.field.serialize(c) for c in row] for row in self.matrix()]
        return doc

    @classmethod
    def from_json(cls, doc) -> "ConnectionExpansion":
        field = FieldTag.from_json(doc)
        source, target = ({k: (EXACT if isinstance(v, str) else field).deserialize(v)
                           for k, v in doc[side].items()} for side in ("source", "target"))
        if doc["x_dependent"]:
            if doc.get("relation") is None:
                raise DomainError("x-dependent table payload needs its relation id")
            params = get_relation(doc["relation"]).params(source, target)
            return connection_table(doc["relation"], params, doc["n_max"], field)
        return cls(
            doc["n_max"], source, target,
            [field.common([field.deserialize(c) for c in row]) for row in doc["table"]],
            field=field, method=doc["method"], relation=doc.get("relation"),
        )

    def to_csv(self) -> str:
        lines = []
        if self.x_dependent:
            lines.append("relation," + str(self.relation))
            for name, value in sorted({**{f"source.{k}": v for k, v in self.source.items()},
                                       **{f"target.{k}": v for k, v in self.target.items()}}.items()):
                lines.append(f"{name},{self.field.text(value)}")
            return "\n".join(lines) + "\n"
        for n, row in enumerate(self.matrix()):
            cells = [str(n)] + [self.field.text(c) for c in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _held(f, *args, **kwargs):
    """f(*args, **kwargs), or the error it raises, held in its entry."""
    try:
        return f(*args, **kwargs)
    except (HyperconnectError, ArithmeticError) as exc:
        return exc.with_traceback(None)


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
    and 0 <= n <= N <= M (``families.krawtchouk_sizes``).  A Krawtchouk
    table has degrees 0..N, so its sizes are checked at degree 0 first and at
    degree top last."""
    kraw = spec.family == "krawtchouk"
    if kraw:
        krawtchouk_sizes(p)
    for name in spec.names:
        v = p[name]
        if name in ("alpha", "beta"):
            _require(not is_nonpositive_integer(v), f"{name} must avoid {{0, -1, -2, ...}}")
        elif name in ("c", "d"):
            _require(v != 0 and v != 1, f"{name} must avoid 0 and 1")
        elif name in ("p", "q"):
            _require(v != 0, f"{name} must be nonzero")
    if kraw:
        krawtchouk_sizes(p, top)


def _terms(declare, p, top):
    """(field, rows n <= top) of e(n,k) = C(n,k) g_{n-k} r_k / h_n, of the
    three rows ``declare(**p)`` gives as (tops, z): g_m = prod (a)_m z^m, the
    ``series.hypergeometric_terms`` row of the tops and 1, as (1)_m = m!.
    C(n,k) stays out of the rows.  Doubles run on term ratios instead, as
    the rows leave the double range long before the entries do: e(n,n) =
    r_n / h_n in n, then e(n,k) = e(n,k+1) (k+1) g_{n-k} r_k / ((n-k)
    g_{n-k-1} r_{k+1}) down each row, each running value v 2**e, where v is
    rescaled by a power of 2, which rounds nothing, once it leaves [2**-256,
    2**256].  The domain rule keeps every r_k and h_n nonzero; a g that
    vanishes ends its row in zeros."""
    rows = declare(**p)
    field = field_of(*[v for tops, z in rows for v in (*tops, z)])
    if not field.is_exact:
        # the term ratios g_{m+1}/g_m, r_{m+1}/r_m, h_{m+1}/h_m, m < top
        g, r, h = ([math.prod([field.of(a) + m for a in tops], start=field.of(z))
                    for m in range(top)] for tops, z in rows)
        out, diagonal = [], (field.one(), 0)
        try:
            for n in range(top + 1):
                (v, e), entries = diagonal, []
                for k in range(n, -1, -1):
                    if k < n:  # e(n,k) from e(n,k+1)
                        v *= (k + 1) * g[n - k - 1] / ((n - k) * r[k])
                    elif n:  # e(n,n) from e(n-1,n-1)
                        v *= r[n - 1] / h[n - 1]
                    if not 2.0**-256 <= abs(v) <= 2.0**256:
                        s = math.frexp(abs(v))[1]
                        v, e = complex(math.ldexp(v.real, -s), math.ldexp(v.imag, -s)), e + s
                    if k == n:
                        diagonal = v, e
                    entries.append(complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))
                                   if e else v)
                out.append((entries[::-1], 1))
        except OverflowError:
            raise DomainError("numeric scalar must be finite, got a table entry past"
                              " the double range") from None
        return field, out
    (g, g_den), (r, r_den), (h, h_den) = (hypergeometric_terms((*tops, 1), (), z, top, field)
                                          for tops, z in rows)
    r = [v * h_den for v in r]
    return field, [([math.comb(n, k) * g[n - k] * r[k] for k in range(n + 1)],
                    g_den * r_den * h[n]) for n in range(top + 1)]


def _gauss(declare, p, top):
    """(field, rows n <= top) of the row w that ``declare(**p)`` gives as
    (tops, bottom, z): C(n,k) (b)_k/(a)_k z^k 2F1(k-n, k+b; k+a; z) for tops
    (b, 1) and bottom a."""
    tops, bottom, z = declare(**p)
    field = field_of(*tops, bottom, z)
    return field, _terminating_gauss_rows(hypergeometric_terms(tops, (bottom,), z, top, field))


def _terminating_gauss_rows(row):
    """Rows [C(n,k) S_{n-k}(k)] over den, n < len(w), of C(n,k)
    (beta)_k/(alpha)_k z^k 2F1(k-n, k+beta; k+alpha; z) for the row (w, den)
    of w_i = (beta)_i/(alpha)_i z^i: S_j(k) = sum_m (-1)^m C(j, m) w_{k+m} =
    S_{j-1}(k) - S_{j-1}(k+1) on the numerators of w."""
    w, den = row
    rows = [w]
    while len(rows[-1]) > 1:
        rows.append([a - b for a, b in zip(rows[-1], rows[-1][1:])])
    return [([math.comb(n, k) * rows[n - k][k] for k in range(n + 1)], den)
            for n in range(len(w))]


# A connection-type relation declares prefactors(params, top), which gives
# (field, rows) as the x-free engines do, and kernels(params, x, top), which
# gives (field, (nums, den)) of K_0..K_top at x, a failing K_j holding its
# error.


def _c_to_d_kernels(p, x, top):
    """K_j = (x)_j d^-j 2F1(-j, -x; -x-j+1; d/c) = j!/d^j [t^j] (1 - t d/c)^x
    (1 - t)^-x.  At a negative integer x the displayed 2F1 meets the pole of
    (-x-j+1)_m at m = x+j-1 before -j ends it, for every j > -x: K_j holds
    the PoleError its term ratio raises there."""
    c, d = p["c"], p["d"]
    field = field_of(x, c, d)
    u, u_den = (binomial_power(d / c, -x, top, field) * binomial_power(1, x, top, field)).row
    s, s_den = hypergeometric_terms((1, 1), (), 1 / d, top, field)
    row = list(map(mul, s, u))
    if is_nonpositive_integer(x) and x != 0:
        m = as_index(x)
        row[1 - m:] = [_held(term_ratio, (-j, -x), (-x - j + 1,), d / c, m + j - 1)
                       for j in range(1 - m, top + 1)]
    return field, (row, s_den * u_den)


def _alpha_c_prefactors(p, top):
    """(alpha-beta)_n/(alpha)_n (beta)_k (-n)_k / (k! (beta-alpha-n+1)_k).  As
    (beta-alpha-n+1)_k = (-1)^k (alpha-beta+n-k)_k and (alpha-beta)_n =
    (alpha-beta)_{n-k} (alpha-beta+n-k)_k, it is the meixner_alpha_to_beta
    entry, save where the displayed form is 0/0: (beta-alpha-n+1)_k = 0, so
    beta - alpha = g, an integer in {n-k, ..., n-1}."""
    field, rows = get_relation("meixner_alpha_to_beta").entries(p, top)
    for g in [g for g in range(top) if p["beta"] - p["alpha"] == g]:
        for n in range(g + 1, top + 1):
            rows[n][0][n - g:] = [SingularConfigurationError(
                f"(beta - alpha - n + 1)_k vanishes at n = {n}, k = {k};"
                " these parameters admit no limiting value") for k in range(n - g, n + 1)]
    return field, rows


def _alpha_c_f1(p, j, x):
    """F1(-j, -x, x; beta-alpha-j+1) and its arguments (1/c, 1/d)."""
    alpha, beta, c, d = p["alpha"], p["beta"], p["c"], p["d"]
    return MultiVarSpec(APPELL_F1, (Fraction(-j), -x, x, beta - alpha - j + 1)), (1 / c, 1 / d)


def _alpha_c_product(p, x, top):
    spec, args = _alpha_c_f1(p, 0, x)
    return factor_product(spec, [linear_arg(a) for a in args], top,
                          field_of(*spec.params, *args))


def _alpha_c_kernels(p, x, top):
    """F1(-j, -x, x; beta-alpha-j+1; 1/c, 1/d), each over the factor product
    sum (-x)_m (t/c)^m/m! * sum (x)_m (t/d)^m/m!, which no j changes; a
    product that cannot be formed leaves each kernel its own."""
    field = field_of(x, *p.values())
    product = _held(_alpha_c_product, p, x, top)
    values = [_held(multivar_eval, *_alpha_c_f1(p, j, x),
                    product=None if isinstance(product, Exception) else product)
              for j in range(top + 1)]
    nums, den = field.common([0 if isinstance(v, Exception) else v for v in values])
    return field, ([v if isinstance(v, Exception) else m for v, m in zip(values, nums)], den)


def _type_entries(prefactors, kernels, params, top):
    """rows_at(x) of a connection-type table: (field, rows) at x, row n the
    prefactor row n times K_n..K_0, entry by entry.  Where one of the two is
    exact and the other doubles, a row is the values of one times the values
    of the other over 1, as ``Fraction`` * ``complex`` is."""
    made, rows = prefactors(params, top)

    def rows_at(x):
        field, (kernel, kernel_den) = kernels(params, x, top)
        if made.is_exact == field.is_exact:
            return field, [([_times(v, kernel[n - k]) for k, v in enumerate(nums)],
                            den * kernel_den) for n, (nums, den) in enumerate(rows)]
        kernel = [v if isinstance(v, Exception) else field.over([v], kernel_den)[0]
                  for v in kernel]
        return made if field.is_exact else field, [
            ([_held(_times, v if isinstance(v, Exception) else made.over([v], den)[0],
                    kernel[n - k]) for k, v in enumerate(nums)], 1)
            for n, (nums, den) in enumerate(rows)]

    return rows_at


def _times(a, b):
    """a * b, or the held error of a, else of b."""
    if isinstance(a, Exception):
        return a
    return b if isinstance(b, Exception) else a * b


@dataclass(frozen=True)
class RelationSpec:
    """One connection relation.  ``source_names`` and ``target_names`` send
    each family parameter to the case parameter bound to it on that side;
    ``entries(params, top)`` gives the table's (field, rows n <= top), or
    the ``rows_at`` callable of a connection-type table, after the family's
    domain rule; ``connection_table`` makes a table x-dependent exactly when
    it gets that callable.  An x-free entry, and a connection-type
    prefactor, is a declaration read by an engine: ``_terms`` for three
    (tops, z) rows, ``_gauss`` for one (tops, bottom, z) row."""

    id: str
    family: str
    source_names: dict
    target_names: dict
    entries: Callable

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
                         ((), 1), ((alpha,), 1), ((alpha,), 1))), _c_to_d_kernels)),
        RelationSpec("meixner_type_alpha_c", "meixner", _ALPHA_C,
                     {"alpha": "beta", "c": "d"},
                     partial(_type_entries, _alpha_c_prefactors, _alpha_c_kernels)),
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
    check_names(relation_id, params, spec.names, spec.names)
    _check_domain(spec, params, n_max)
    table = dict(n_max=n_max, source=spec.source(params), target=spec.target(params),
                 field=field, method="closed-form", relation=relation_id)
    entries = spec.entries(params, n_max)
    if callable(entries):
        return ConnectionExpansion(rows=(), rows_at=entries, **table)
    made, rows = entries
    if not (made.is_exact and field.is_exact):
        rows = [field.common([field.of(v) for v in made.over(*row)]) for row in rows]
    return ConnectionExpansion(rows=rows, **table)


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


def _bind_pair(family_id, source, target, n_max: int):
    """(descriptor, source, target, field) of a table from one binding of a
    family to another up to degree n_max: both sides bound, a Krawtchouk
    side holding degree n_max (``families.krawtchouk_sizes``), on the field
    ``FamilyDescriptor.field_for`` picks from both."""
    _require_rows(n_max)
    descriptor = get_family(family_id)
    source, target = descriptor.bind(source), descriptor.bind(target)
    if descriptor.id == "krawtchouk":
        for side in (source, target):
            krawtchouk_sizes(side, n_max)
    return descriptor, source, target, descriptor.field_for(*source.values(), *target.values())


def power_collect(family_id, from_params, to_params, n_max: int) -> ConnectionExpansion:
    """Connection coefficients by ratio expansion and power matching."""
    descriptor, from_params, to_params, field = _bind_pair(family_id, from_params, to_params, n_max)
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

    source_norms, target_norms = [], []
    for n in range(n_max + 1):
        c_n = field.of(normalization_at(descriptor, n, None, from_params, field))
        if c_n == 0:
            raise DomainError(f"source normalization vanishes at n = {n}")
        source_norms.append(c_n)
        target_norms.append(field.of(normalization_at(descriptor, n, None, to_params, field)))
    r, r_den = ratio.row
    if field.is_exact:  # row n: [r_{n-k} t_k v] over r_den t_den u for c_n = u / v
        t, t_den = field.common(target_norms)
        rows = []
        for n, c_n in enumerate(source_norms):
            u, v = _positive_over(c_n)
            rows.append(([r[n - k] * t[k] * v for k in range(n + 1)], r_den * t_den * u))
    else:
        rows = [([r[n - k] * target_norms[k] / c_n for k in range(n + 1)], 1)
                for n, c_n in enumerate(source_norms)]
    return ConnectionExpansion(n_max, from_params, to_params, rows, field=field,
                               method="power-collection")


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
    """Rows c_{k,n} of S_n[j] = sum_{k=j..n} c_{k,n} T_k[j], j = n..0, each
    its values over 1."""
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
        rows.append((coeffs, 1))
    return rows


def _positive_over(c):
    """(u, v) with u > 0 and c = u / v, for a nonzero Fraction c."""
    return (c.numerator, c.denominator) if c > 0 else (-c.numerator, -c.denominator)


def _exact_samples(forms):
    """Per degree n, (ints, den) with P_n(x_i) = ints[i] / den, the
    ``EXACT.common`` form of the values, from the ``family_row_forms`` of
    the x_i: with row i's entry n scaled to m_i over the lcm L of the rows' dens
    and c_n = u / v, P_n(x_i) = v m_i / (L u), whose least common
    denominator is L u / gcd(L u, v gcd(m_i))."""
    common = math.lcm(*[den for _, _, den, _ in forms])
    scales = [common // den for _, _, den, _ in forms]
    norms = forms[0][3]
    out = []
    for n in range(len(forms[0][1])):
        ints = [row[n] * s for (_, row, _, _), s in zip(forms, scales)]
        u, v = (1, 1) if norms is None else _positive_over(norms[n])
        den = common * u
        g = math.gcd(den, v * math.gcd(*ints))
        out.append(([m * v // g for m in ints], den // g))
    return out


def _gap_schedule(points):
    """Per level j >= 1 of a Newton table over integer ``points``, the
    multipliers L_j / g_i, L_j the lcm of the level's gaps g_i = X_{i+j} -
    X_i."""
    schedule = []
    for j in range(1, len(points)):
        gaps = [b - a for a, b in zip(points, points[j:])]
        if 0 in gaps:
            raise SingularSampleError("duplicate sample abscissae; choose distinct points")
        common = math.lcm(*gaps)
        schedule.append([common // g for g in gaps])
    return schedule


def _integer_newton(level, schedule):
    """The Newton table of the integers ``level`` (values over one
    denominator) at the levels of ``schedule``: level j's output is tops[j]
    / (L_1 ... L_j) over that denominator.  With level j - 1 as N_i / D,
    level j is (N_{i+1} - N_i) (L_j / g_i) / (D L_j), so every level stays on
    integers."""
    tops = [level[0]]
    for scales in schedule:
        level = [(b - a) * s for a, b, s in zip(level, level[1:], scales)]
        tops.append(level[0])
    return tops


def _fraction_free_solve(source, target):
    """``_back_substitution`` on the integer Newton tables (tops, den) of
    ``_integer_newton`` over one set of points, table k to level k.  Level
    j of every table carries the same factor 1 / (L_1 ... L_j) (E^j at
    abscissae X_i / E), which cancels, so with y_k = c_{k,n} E_n / D_k (E_n,
    D_k the tables' dens) the system is s_n[j] = sum_k y_k t_k[j] on
    integers.  Each y_k is kept over the product P of the pivots t_j[j] used
    so far: a new pivot scales the known y_k and P.  Row n is [y_k D_k] over
    P E_n."""
    t = [tops for tops, _ in target]
    rows = []
    for n, (s, source_den) in enumerate(source):
        ys, product = [0] * (n + 1), 1
        for j in range(n, -1, -1):
            pivot = t[j][j]
            if pivot == 0:
                raise _degenerate(j)
            residue = s[j] * product - sum([ys[k] * t[k][j] for k in range(j + 1, n + 1)])
            ys[j + 1:] = [y * pivot for y in ys[j + 1:]]
            ys[j] = residue
            product *= pivot
        rows.append(([y * den for y, (_, den) in zip(ys, target)], product * source_den))
    return rows


def connect_linear_solve(family_id, from_params, to_params, n_max: int,
                         abscissae=None) -> ConnectionExpansion:
    """Solve P_n(x_i; source) = sum_k c_{k,n} P_k(x_i; target) exactly.

    Divided differences grade both sides by degree: level j of a degree-k
    polynomial vanishes for j > k, so the system is triangular and solved by
    back substitution, exactly and fraction-free on the exact field.
    """
    descriptor, from_params, to_params, field = _bind_pair(family_id, from_params, to_params, n_max)
    points = default_abscissae(descriptor, n_max, field) if abscissae is None else list(abscissae)
    if len(points) != n_max + 1:
        raise DomainError(f"need exactly {n_max + 1} sample abscissae")
    if field.is_exact and descriptor.is_expandable:  # else family_eval refuses the family
        forms = [family_row_forms(descriptor, n_max, points, side)
                 for side in (from_params, to_params)]
        xs, _ = field.common([field.of(v) for v in points])
        schedule = _gap_schedule(xs)
        source_dd, target_dd = ([(_integer_newton(ints, schedule[:n]), den)
                                 for n, (ints, den) in enumerate(_exact_samples(side))]
                                for side in forms)
        rows = _fraction_free_solve(source_dd, target_dd)
    else:
        xs, source_vals = _sample(descriptor, from_params, n_max, points)
        _, target_vals = _sample(descriptor, to_params, n_max, points)
        xs, _ = field.common([field.of(v) for v in xs])
        source_dd, target_dd = ([_divided_differences([field.of(v) for v in row], xs)
                                 for row in vals] for vals in (source_vals, target_vals))
        rows = _back_substitution(source_dd, target_dd, field)
    return ConnectionExpansion(n_max, from_params, to_params, rows, field=field,
                               method="linear-solve")
