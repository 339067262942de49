"""Build both sides of every supported identity and compare them.

Every generalized generating function has the shape

    lhs(t) = sum_n coeff_n t^n inner_n(t)

with coeff_n = prod_a (a)_n z^n / ((b)_n n!) P_n(x), P_n one Meixner or
Krawtchouk polynomial.  Each is a row of ``GF_IDENTITIES`` (a ``GFSpec``:
the closed form, coeff_n declared as its tops a, bottom b, z and P_n, and
inner_n), and one builder forms both sides as truncated series, the sum,
which it calls rhs, over a binding of N to its ``families.degree_cap``.
The paper gets each identity by putting a connection relation into a plain
generating function and swapping the sums, so the sum is a double sum whose
n-shifted Pochhammer symbols merge: (a)_n (a+n)_k = (a)_(n+k).  The ten
single-variable rows declare inner_n as an ``Inner`` (the tops and bottom
that shift with n, the fixed tops, the scale), and the sum is built as two
series products on integer rows: rhs = D . (A * H), ``.`` termwise, where
A_n is coeff_n less the merged symbols (one ``series.hypergeometric_terms``
row times the integer row P_0..P_top of ``families.gauss_row_form``,
reduced once), D_s the merged symbols and H the fixed pFq row.  The three
Gauss rows, with inner_n (1-t)^(-lam) 2F1(lam, a; b; -w t/(1-t)) or e^t
1F1(a; b; -w t), take rhs = (lam)_m . (e^t * ((a)_s / (b)_s . (A *
e^(-w t)))).  A real double
binding is built at its exact values, each coefficient rounded once: in
doubles, A * e^(-w t) is a finite difference, which cancels.  The sum over
n, one inner series per degree and one ``series.linear_combination``,
stays for three cases: the four multivariable rows (their lifts share one
factor product), complex bindings, and a vanishing (alpha)_n, whose
PoleError the sum raises in its own order; it also words the refusal of a
double binding, in the doubles.  The closed forms keep the
displayed Mobius lift, so that transformation is checked, not assumed.

Orthogonality identities are weighted sums over the lattice x = 0, 1, 2, ...
The finite Krawtchouk sums are exact.  The infinite Meixner sums are rows of
one lattice-sum engine (``LatticeSum``) that forms the exact rational
partial sum up to x_max, with the kernels

    f(x) = 1F1(-x; alpha; z)        g(x) = 2F1(-x, gamma; alpha; w)

produced by the three-term recurrences

    (alpha+x) f(x+1) = (2x+alpha-z) f(x) - x f(x-1)
    (alpha+x) g(x+1) = (2x+alpha-(gamma+x)w) g(x) - x(1-w) g(x-1)

so no cancellation-prone alternating sums are ever formed.  The sum runs on
integer rows: M_n(x) is an integer row over one denominator (n running
sums from its forward differences at x = 0), and one loop runs the kernel
times the weight (beta)_x rate^x / x!, an integer recurrence whose
denominators form a chain den_x = den_{x-1} step_x of small integer steps,
and a forward Horner pass acc = acc step_x + term_x that keeps the sum over
the current den_x, up to the budget of ``check_lattice_size``.  The sum is
never reduced: the verdict reads its double as the integer quotient
acc / den_{x_max}, which Python rounds correctly, so it is the double of the
reduced fraction without a gcd of the ~8,000-bit pair, and the loop over x
builds no ``Fraction`` per term.  The discarded tail is estimated by a
geometric series with the observed ratio of the last four terms, read the
same way from their (term, den_x) pairs (an extrapolation, not yet a proven
majorant).

Connection tables have one reader, ``ConnectionExpansion.row_form``, and
one dot product ``_dot`` of row n with P_0(x; target), P_1, ...: the
reconstruction check compares it with P_n(x; source), and c_n times it is
the t^n coefficient of the plain GF sum_n c_n t^n P_n(x; source).

Every verdict follows one of two rules.  ``_agreement`` compares entries
one by one (series coefficients lowest order first, table entries,
reconstructed values, the exact Krawtchouk sums): literal equality on the
exact field, |a - b| <= atol + rtol max(|a|, |b|) on doubles; the first
pair that differs fails at its order, with the worst |a - b| up to it as
the deviation.  Each side hands over its rows as they are stored, integers
over one denominator when exact (a series' reduced row, a table's row, which
need not be reduced, the integer sum of ``_dot``, the source's Gauss row),
and the exact field compares them by cross-multiplication: values are
formed only at the first mismatch, for its deviation.
``_orth_report`` judges a sum against a closed form: pass when deviation +
tail bound + rhs error <= atol + rtol |rhs|, 'inconclusive' (not 'fail')
when the bound and the rhs error alone exceed that; the finite Krawtchouk
sums on doubles take it with both at 0.

Every route declares the parameter names it needs and checks them before it
runs, so a malformed case becomes an 'error' report rather than an exception.
``acceptance_suite`` binds each of its cases from those declarations.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from operator import mul
from types import MappingProxyType
from typing import Callable

from . import connection as conn
from . import families
from .errors import (ConvergenceError, DomainError, FieldError, HyperconnectError, PoleError,
                     UnknownIdentityError)
from .fields import (
    EXACT,
    FieldTag,
    as_index,
    deviation,
    field_of,
    integer_linear,
    is_exact_value,
    numeric,
    rising_vanishes,
)
from .hyper import (
    APPELL_F1,
    HUMBERT_PHI2,
    HUMBERT_PHI2_3,
    LAURICELLA_FD3,
    MultiVarSpec,
    factor_product,
    hyper_series_in_t,
    linear_arg,
    mobius_arg,
    pfq,
    pfq_eval_with_tail,
)
from .pochhammer import (
    offset_rising_bound_holds,
    pochhammer,
    pochhammer_row,
    rising_abs_lower_bound_holds,
    rising_over_factorial_bound_holds,
    shifted_rising_bound_holds,
)
from .series import (TruncatedSeries, _cauchy_product, _reduced, binomial_power, exp_series,
                     gauss_degree_row, hypergeometric_terms, linear_combination)


@dataclass(frozen=True)
class IdentityCase:
    """One theorem instance: identity id, parameters, order, comparison field,
    and the tail cap for infinite sums."""

    identity: str
    params: MappingProxyType
    order: int | None = None
    field: FieldTag = EXACT
    x_max: int = 300

    def __post_init__(self):
        if isinstance(self.params, Mapping):  # anything else is refused by _check_values
            object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def as_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": ({k: _serialize_value(v, k) for k, v in sorted(self.params.items())}
                       if isinstance(self.params, MappingProxyType) else _as_written(self.params)),
            "order": self.order,
            **_field_json(self.field),
            "x_max": self.x_max,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "IdentityCase":
        """The case a document holds; params that are no object, a kind that
        names no field and tolerances no field takes (a non-finite one as
        ``_json_float`` wrote it) are carried as they are, so that the case
        is refused."""
        params, field = doc["params"], doc["field"]
        if field in ("exact", "numeric"):
            try:
                field = FieldTag.from_json(doc)
            except (FieldError, TypeError):
                field = {k: _read_float(doc[k]) for k in ("field", "atol", "rtol") if k in doc}
        return cls(
            identity=doc["identity"],
            params=({k: _deserialize_value(v, k) for k, v in params.items()}
                    if isinstance(params, dict) else params),
            order=doc.get("order"),
            field=field,
            x_max=doc.get("x_max", 300),
        )


# the parameters a route reads as names, not as numbers
_NAME_SLOTS = ("generating_function", "relation", "family")


def _serialize_value(v, slot=None):
    """A parameter as standard JSON: None, or a string in a name slot, as it
    is, a sequence item by item, a finite number as its field writes it
    ('p/q' exact, [re, im] double), a string that reads as no number as it
    is, and any other value (a number-like string outside the name slots, a
    non-finite double, a bool) as its repr, which reads back as a string, so
    the case read back is refused as the case was."""
    if v is None or (slot in _NAME_SLOTS and isinstance(v, str)):
        return v
    if isinstance(v, (tuple, list)):
        return [_serialize_value(item) for item in v]
    if _finite(v):
        return field_of(v).serialize(v)
    return v if isinstance(v, str) and _deserialize_value(v) == v else repr(v)


def _deserialize_value(v, slot=None):
    if v is None or (slot in _NAME_SLOTS and isinstance(v, str)):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            return v  # a repr written for a value that is no number, or p/0
    if isinstance(v, list) and len(v) == 2 and all(isinstance(u, (int, float)) for u in v):
        return complex(v[0], v[1])
    if isinstance(v, list):
        return tuple([_deserialize_value(item) for item in v])
    return Fraction(v)


def _json_float(value):
    """A float as standard JSON, which has no infinities or NaN: a non-finite
    one as its text ('inf', '-inf', 'nan'), which ``_read_float`` reads back."""
    return value if value is None or math.isfinite(value) else str(value)


def _read_float(value):
    return float(value) if value in ("inf", "-inf", "nan") else value


def _as_written(value):
    """A value no case reads as it came, when JSON reads it back as itself,
    else as its repr: a string, refused again when read back."""
    try:
        if json.loads(json.dumps(value, allow_nan=False)) == value:
            return value
    except (TypeError, ValueError):
        pass
    return repr(value)


def _field_json(field) -> dict:
    """A field's keys in a case document: a ``FieldTag``'s own, refused
    tolerances as ``from_json`` read them, else the value under 'field' as
    ``_as_written`` writes it, a kind's bare name as its repr."""
    if isinstance(field, FieldTag):
        return field.as_json()
    if isinstance(field, dict) and field.get("field") in ("exact", "numeric"):
        return {k: _json_float(v) if isinstance(v, float) else v for k, v in field.items()}
    return {"field": repr(field) if field in ("exact", "numeric") else _as_written(field)}


@dataclass(frozen=True)
class VerificationReport:
    case: IdentityCase
    status: str  # pass | fail | error | inconclusive
    deviation: float | None = None
    first_failing_order: int | None = None
    terms_summed: int | None = None
    tail_bound: float | None = None
    millis: float = 0.0
    detail: str | None = None

    def as_json(self) -> dict:
        return {
            "case": self.case.as_json(),
            "status": self.status,
            "deviation": _json_float(self.deviation),
            "first_failing_order": self.first_failing_order,
            "terms_summed": self.terms_summed,
            "tail_bound": _json_float(self.tail_bound),
            "detail": self.detail,
            "millis": self.millis,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "VerificationReport":
        return cls(
            case=IdentityCase.from_json(doc["case"]),
            status=doc["status"],
            deviation=_read_float(doc.get("deviation")),
            first_failing_order=doc.get("first_failing_order"),
            terms_summed=doc.get("terms_summed"),
            tail_bound=_read_float(doc.get("tail_bound")),
            millis=doc.get("millis", 0.0),
            detail=doc.get("detail"),
        )


def _require(case, names, allowed=None, order=None):
    """DomainError unless the case passes ``families.check_names`` and has an
    order >= 0 when ``order`` is True, none when it is False."""
    families.check_names(case.identity, case.params, names, allowed)
    if order and (case.order is None or case.order < 0):
        raise DomainError(f"{case.identity} needs an order >= 0, got {case.order}")
    if order is False and case.order is not None:
        raise DomainError(f"{case.identity} reads no order; drop order {case.order}")


def _finite(value) -> bool:
    return is_exact_value(value) or (isinstance(value, (float, complex)) and cmath.isfinite(value))


def _check_values(case):
    """DomainError unless the identity is a string, the params a mapping,
    the field a ``FieldTag``, x_max an integer (the default unless the
    identity reads one, ``check_x_max``), the order None or an integer and
    every parameter a finite number: a name where a route reads one, a
    sequence of them for x_samples; a lattice sum within ``check_lattice_size``."""
    if not isinstance(case.identity, str):
        raise DomainError(f"identity {case.identity!r} must be a name")
    if not isinstance(case.params, MappingProxyType):
        raise DomainError(f"{case.identity}: params {case.params!r} must map names to values")
    if not isinstance(case.field, FieldTag):
        raise DomainError(f"{case.identity}: field {case.field!r} must be a FieldTag")
    if not (isinstance(case.x_max, int) and is_exact_value(case.x_max)):
        raise DomainError(f"{case.identity}: x_max {case.x_max!r} must be an integer")
    if case.x_max != IdentityCase.x_max:
        check_x_max(case.identity)
    if case.order is not None and not (isinstance(case.order, int) and is_exact_value(case.order)):
        raise DomainError(f"{case.identity}: order {case.order!r} must be an integer")
    for name, value in case.params.items():
        if name in _NAME_SLOTS:
            ok, what = isinstance(value, str), "a name"
        elif name == "x_samples":
            ok = isinstance(value, (tuple, list)) and all(map(_finite, value))
            what = "a sequence of finite numbers"
        else:
            ok, what = _finite(value), "a finite number"
        if not ok:
            raise DomainError(f"{case.identity}: parameter {name} = {value!r} must be {what}")
    check_lattice_size(case)


def _guard(case, run) -> VerificationReport:
    """Run one verifier on ``case``, the case its report carries, once its
    values pass ``_check_values``; a domain or arithmetic fault (a zero
    divisor, a double overflow) is an error report."""
    start = time.perf_counter()
    try:
        _check_values(case)
        report = run()
    except (HyperconnectError, ArithmeticError) as exc:
        report = VerificationReport(case, "error", detail=f"{type(exc).__name__}: {exc}")
    millis = (time.perf_counter() - start) * 1000.0
    return VerificationReport(**{**report.__dict__, "case": case, "millis": millis})


def _value(num, den):
    """The value of a row entry num / den: the number itself over 1."""
    return num if den == 1 else Fraction(num, den)


def _agreement(case, field, rows) -> VerificationReport:
    """rows yields (order, wanted, got, where), wanted and got each an entry
    (num, den) of a ``FieldTag.common`` row; fail at the first pair the field
    tells apart, with ``where`` as the detail.  The exact field compares
    integers by cross-multiplication and forms ``Fraction``s only for the
    pair that differs, for the deviation (a double entry is its FieldError);
    doubles compare values within the tolerance, the deviation the worst
    |a - b| up to the failing pair."""
    if field.is_exact:
        for n, (a, da), (b, db), where in rows:
            if type(a) is not int or type(b) is not int:  # a double: the field refuses it
                field.of(a), field.of(b)
            if a * db != b * da:
                return VerificationReport(case, "fail", first_failing_order=n, detail=where,
                                          deviation=deviation(Fraction(a, da), Fraction(b, db)))
        return VerificationReport(case, "pass", deviation=0.0)
    worst = 0.0
    for n, wanted, got, where in rows:
        wanted, got = _value(*wanted), _value(*got)
        worst = max(worst, deviation(wanted, got))
        if not field.eq(field.of(wanted), field.of(got)):
            return VerificationReport(case, "fail", deviation=worst,
                                      first_failing_order=n, detail=where)
    return VerificationReport(case, "pass", deviation=worst)


def _coefficient_rows(pairs):
    """The ``_agreement`` rows of pairs (left, right) of series of one order,
    read from their rows: (i, left entry i, right entry i, None), lowest
    order first across every pair."""
    rows = [(left.row, right.row) for left, right in pairs]
    return ((i, (left[i], left_den), (right[i], right_den), None)
            for i in range(pairs[0][0].order + 1)
            for (left, left_den), (right, right_den) in rows)


# -- generalized generating functions: one spec per identity, one builder ----


@dataclass(frozen=True)
class Inner:
    """A single-variable inner_n, declared at n = 0: the tops a (``shifted``)
    and the bottom b of coeff_n enter it as a+n and b+n, which merge,
    (a)_n (a+n)_k = (a)_(n+k).  inner_n = pFq(a+n, f; b+n; lam t) with the
    ``fixed`` tops f, or with a ``gauss`` top a' the expansion
    sum_k prod (a+n)_k / k! 2F1(-k, a'+n; b+n; lam) t^k."""

    shifted: tuple = ()
    bottom: object = None
    fixed: tuple = ()
    lam: object = 1
    gauss: object = None


@dataclass(frozen=True)
class GFSpec:
    """lhs(t) = sum_n coeff_n t^n inner_n(t) with

        coeff_n = prod_a (a)_n z^n / ((b)_n n!) P_n(x),

    P_n a Meixner or Krawtchouk polynomial.  ``lhs(order, field, **params)``
    builds a series.  ``coeff(**params)`` declares coeff_n as (tops a,
    bottom b or None, z, (family, x, params of P_n)).  ``term(**params)``
    declares a single-variable inner_n as an ``Inner``; ``multivar(n,
    **params)`` gives (MultiVarSpec, shapes) of a multivariable one, which
    the call lifts with one shared factor product.  A spec that binds N
    carries the degree-N truncation brackets exactly as displayed: the sum
    stops at n = N, lhs is built to order top = ``families.degree_cap`` =
    min(N, order) and inner_n to top - n, and both are zero-padded to the
    requested order."""

    lhs: Callable
    coeff: Callable
    term: Callable | None = None
    multivar: Callable | None = None

    def lhs_series(self, order, field, **p) -> TruncatedSeries:
        return self.lhs(families.degree_cap(order, p), field, **p).padded_to(order)

    def inner(self, n, order, field, **p) -> TruncatedSeries:
        """A single-variable inner_n to ``order``, read from its declaration."""
        term = self.term(**p)
        tops = [a + n for a in term.shifted]
        if term.gauss is not None:  # prod (a+n)_k / k! 2F1(-k, ...) to the last nonzero term
            terms, den = hypergeometric_terms(tops, (), 1, order, field)
            count = next((k for k, v in enumerate(terms) if not v), order + 1) - 1
            gauss, gauss_den = gauss_degree_row(term.gauss + n, term.bottom + n, term.lam,
                                                count, field)
            return TruncatedSeries._result(
                field, [v * g for v, g in zip(terms, gauss)] + terms[count + 1:], den * gauss_den)
        bottoms = () if term.bottom is None else (term.bottom + n,)
        return hyper_series_in_t(pfq((*tops, *term.fixed), bottoms), linear_arg(term.lam),
                                 order, field)

    def _product_row(self, p, top, bottom, field):
        """The one rule that picks how the rhs is built: the ``_products`` row
        at the exact binding (a real double at its exact value), or None for
        the sum over n, which keeps a multivariable inner_n, a complex binding
        (A * e^(-lam t) cancels in doubles), a bottom b with (b)_top = 0, read
        from b by ``fields.rising_vanishes`` (the sum raises its pole in its
        order, before a vanishing top cancels it) and a double binding the
        products refuse (refused in doubles)."""
        if (self.term is None or (bottom is not None and rising_vanishes(bottom, top))
                or any(isinstance(v, complex) and v.imag for v in p.values())):
            return None
        try:
            return self._products({k: Fraction(v.real) if isinstance(v, complex) else v
                                   for k, v in p.items()}, top)
        except HyperconnectError:
            if field.is_exact:
                raise
            return None

    def _products(self, p, top):
        """The rhs row (nums, den) to order top: rhs = D . (A * H), ``.``
        termwise, ``*`` a Cauchy product, A_n = coeff_n less the merged (a)_n
        and (b)_n, D_s = prod (a)_s / (b)_s, H_k = prod (f)_k lam^k / k!.  A
        Gauss inner_n gives rhs = D . (e^t * ((a')_s / (b)_s . (A *
        e^(-lam t)))), D_m = prod (a)_m, as (-k)_j / k! = (-1)^j / (j! (k-j)!)."""
        tops, _, z, (family, x, params) = self.coeff(**p)
        term = self.term(**p)
        # reduced once: the lcm of the reduced P_n's denominators
        poly, den = _reduced(*families.gauss_row_form(family, top, x, params)[1:])
        dens = [den]

        def row(tops, bottoms=(), lam=1):
            nums, den = hypergeometric_terms(tops, bottoms, lam, top)
            dens.append(den)
            return nums

        rest = list(tops)
        for a in (*term.shifted, *([] if term.gauss is None else [term.gauss])):
            rest.remove(a)
        bottoms = () if term.bottom is None else (term.bottom,)
        nums = list(map(mul, row(rest, (), z), poly))
        if term.gauss is None:
            nums = _cauchy_product(nums, row(term.fixed, (), term.lam))
        else:
            nums = _cauchy_product(nums, row((), (), -term.lam))
            nums = _cauchy_product(list(map(mul, row((term.gauss, 1), bottoms), nums)), row(()))
            bottoms = ()
        return list(map(mul, row((*term.shifted, 1), bottoms), nums)), math.prod(dens)

    def __call__(self, p, order, field):
        lhs = self.lhs_series(order, field, **p)
        top = families.degree_cap(order, p)
        tops, bottom, z, (family, x, params) = self.coeff(**p)
        row = self._product_row(p, top, bottom, field)
        if row is not None:  # doubles: the exact rhs at their values, rounded once
            rhs = TruncatedSeries._result(EXACT, *row)
            if not field.is_exact:
                rhs = TruncatedSeries._result(field, rhs.coefficients)
            return lhs, rhs.padded_to(order)
        made = {}  # the pieces that do not depend on n, each made once, on first use

        def once(key, make, *args):
            if key not in made:
                made[key] = make(*args)
            return made[key]

        def inner(n):
            if self.multivar is None:
                return self.inner(n, top - n, field, **p)
            spec, shapes = self.multivar(n, **p)
            product = once("product", factor_product, spec, shapes, top, field)
            return hyper_series_in_t(spec, shapes, top - n, field, product=product)

        def coeff(n):
            row = once("terms", hypergeometric_terms, tops, (), z, top, field)
            value = (field.over([row[0][n]], row[1])[0]
                     * once("poly", families.family_row, family, top, x, params)[n])
            rising = 1 if bottom is None else once("bottom", pochhammer_row, bottom, top)[n]
            if rising == 0:  # only a Meixner (alpha)_n can vanish: (-N)_n != 0 for n <= N
                raise PoleError(f"(alpha)_n vanishes at n = {n}: alpha = {bottom} lies in -N0")
            return value / rising

        rhs = linear_combination([(inner(n), n, coeff(n)) for n in range(top + 1)],
                                 order, field)
        return lhs, rhs


# Spec functions take the order as ``o``, the field as ``f`` and the case
# parameters by name, ignoring the ones they do not use.


def _meixner_1f1(o, f, x, alpha, c, **_):
    """1F1(-x; alpha; (1-c)t/c)"""
    return hyper_series_in_t(pfq((-x,), (alpha,)), linear_arg((1 - c) / c), o, f)


def _meixner_exp_1f1(o, f, **p):
    """e^t 1F1(-x; alpha; (1-c)t/c)"""
    return exp_series(1, o, f) * _meixner_1f1(o, f, **p)


def _meixner_2f1(o, f, x, alpha, c, gamma, **_):
    """(1-t)^(-gamma) 2F1(gamma, -x; alpha; (1-c)t/(c(1-t)))"""
    return binomial_power(1, gamma, o, f) * hyper_series_in_t(
        pfq((gamma, -x), (alpha,)), mobius_arg((1 - c) / c), o, f
    )


def _kraw_exp_1f1(o, f, x, p, N, **_):
    """e^t 1F1(-x; -N; -t/p), the catalog's Krawtchouk generating function"""
    return families.gf_expand("krawtchouk", x, {"p": p, "N": N}, o, f)


def _kraw_2f1(o, f, x, p, N, gamma, **_):
    """(1-t)^(-gamma) 2F1(gamma, -x; -N; -t/(p(1-t)))"""
    return binomial_power(1, gamma, o, f) * hyper_series_in_t(
        pfq((gamma, -x), (Fraction(-N),)), mobius_arg(-1 / p), o, f
    )


def _ratio(c, d):
    """The argument scale of the two-parameter (c -> d) forms."""
    return d * (1 - c) / (c * (1 - d))


def _meixner(x, alpha, c):
    """P_n = M_n(x; alpha, c) in a coefficient declaration."""
    return "meixner", x, {"alpha": alpha, "c": c}


def _krawtchouk(x, p, N):
    """P_n = K_n(x; p, N) in a coefficient declaration."""
    return "krawtchouk", x, {"p": p, "N": N}


GF_IDENTITIES = {
    "meixner_1f1_two_param": (GFSpec(
        _meixner_1f1,
        lambda x, alpha, beta, c, d, **_: ((beta,), alpha, _ratio(c, d), _meixner(x, beta, d)),
        lambda alpha, beta, c, d, **_: Inner((beta,), alpha, lam=-_ratio(c, d)),
    ), ("x", "alpha", "beta", "c", "d")),
    "meixner_1f1_alpha_shift": (GFSpec(
        _meixner_exp_1f1,
        lambda x, alpha, beta, c, **_: ((beta,), alpha, 1, _meixner(x, beta, c)),
        lambda alpha, beta, **_: Inner((), alpha, (alpha - beta,)),
    ), ("x", "alpha", "beta", "c")),
    "meixner_1f1_c_shift": (GFSpec(
        _meixner_exp_1f1,
        lambda x, alpha, d, **_: ((), None, 1, _meixner(x, alpha, d)),
        multivar=lambda n, x, alpha, c, d, **_: (
            MultiVarSpec(HUMBERT_PHI2, (x, -x, alpha + n)),
            [linear_arg(1 / d), linear_arg(1 / c)]),
    ), ("x", "alpha", "c", "d")),
    "meixner_1f1_two_param_triple": (GFSpec(
        _meixner_exp_1f1,
        lambda x, alpha, beta, d, **_: ((beta,), alpha, 1, _meixner(x, beta, d)),
        multivar=lambda n, x, alpha, beta, c, d, **_: (
            MultiVarSpec(HUMBERT_PHI2_3, (x, -x, alpha - beta, alpha + n)),
            [linear_arg(1 / d), linear_arg(1 / c), linear_arg(1)]),
    ), ("x", "alpha", "beta", "c", "d")),
    "meixner_2f1_alpha_shift": (GFSpec(
        _meixner_2f1,
        lambda x, alpha, beta, c, gamma, **_: ((gamma, beta), alpha, 1, _meixner(x, beta, c)),
        lambda alpha, beta, gamma, **_: Inner((gamma,), alpha, (alpha - beta,)),
    ), ("x", "alpha", "beta", "c", "gamma")),
    "meixner_2f1_two_param": (GFSpec(
        _meixner_2f1,
        lambda x, alpha, beta, c, d, gamma, **_: (
            (gamma, beta), alpha, _ratio(c, d), _meixner(x, beta, d)),
        lambda alpha, beta, c, d, gamma, **_: Inner((gamma,), alpha, lam=_ratio(c, d),
                                                    gauss=beta),
    ), ("x", "alpha", "beta", "c", "d", "gamma")),
    "meixner_2f1_c_shift": (GFSpec(
        _meixner_2f1,
        lambda x, alpha, d, gamma, **_: ((gamma,), None, 1, _meixner(x, alpha, d)),
        multivar=lambda n, x, alpha, c, d, gamma, **_: (
            MultiVarSpec(APPELL_F1, (gamma + n, x, -x, alpha + n)),
            [linear_arg(1 / d), linear_arg(1 / c)]),
    ), ("x", "alpha", "c", "d", "gamma")),
    "meixner_2f1_two_param_triple": (GFSpec(
        _meixner_2f1,
        lambda x, alpha, beta, d, gamma, **_: ((gamma, beta), alpha, 1, _meixner(x, beta, d)),
        multivar=lambda n, x, alpha, beta, c, d, gamma, **_: (
            MultiVarSpec(LAURICELLA_FD3, (gamma + n, x, -x, alpha - beta, alpha + n)),
            [linear_arg(1 / d), linear_arg(1 / c), linear_arg(1)]),
    ), ("x", "alpha", "beta", "c", "d", "gamma")),
    "krawtchouk_1f1_two_param": (GFSpec(
        _kraw_exp_1f1,
        lambda x, p, q, N, M, **_: ((-M,), -N, q / p, _krawtchouk(x, q, M)),
        lambda p, q, N, M, **_: Inner((), -N, lam=q / p, gauss=-M),
    ), ("x", "p", "q", "N", "M")),
    "krawtchouk_1f1_degree_shift": (GFSpec(
        _kraw_exp_1f1,
        lambda x, p, N, M, **_: ((-M,), -N, 1, _krawtchouk(x, p, M)),
        lambda N, M, **_: Inner((), -N, (M - N,)),
    ), ("x", "p", "N", "M")),
    "krawtchouk_1f1_prob_shift": (GFSpec(
        _kraw_exp_1f1,
        lambda x, p, q, N, **_: ((), None, q / p, _krawtchouk(x, q, N)),
        lambda p, q, **_: Inner(lam=1 - q / p),
    ), ("x", "p", "q", "N")),
    "krawtchouk_2f1_two_param": (GFSpec(
        _kraw_2f1,
        lambda x, p, q, N, M, gamma, **_: ((gamma, -M), -N, q / p, _krawtchouk(x, q, M)),
        lambda p, q, N, M, gamma, **_: Inner((gamma,), -N, lam=q / p, gauss=-M),
    ), ("x", "p", "q", "N", "M", "gamma")),
    "krawtchouk_2f1_degree_shift": (GFSpec(
        _kraw_2f1,
        lambda x, p, N, M, gamma, **_: ((gamma, -M), -N, 1, _krawtchouk(x, p, M)),
        lambda N, M, gamma, **_: Inner((gamma,), -N, (M - N,)),
    ), ("x", "p", "N", "M", "gamma")),
    "krawtchouk_2f1_prob_shift": (GFSpec(
        _kraw_2f1,
        lambda x, p, q, N, gamma, **_: ((gamma,), None, q / p, _krawtchouk(x, q, N)),
        lambda p, q, gamma, **_: Inner((gamma,), lam=1 - q / p),
    ), ("x", "p", "q", "N", "gamma")),
}


def build_sides(case: IdentityCase):
    """(lhs, rhs) series for a generating-function identity case."""
    try:
        spec, names = GF_IDENTITIES[case.identity]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {case.identity!r}; known: {', '.join(GF_IDENTITIES)}"
        ) from None
    _require(case, names, allowed=names, order=True)
    params = {k: case.field.of(v) for k, v in case.params.items()}
    if "N" in names:
        params["N"], M = families.krawtchouk_sizes(case.params)
        if M is not None:
            params["M"] = M
    return spec(params, case.order, case.field)


def verify_gf_identity(case: IdentityCase) -> VerificationReport:
    return _guard(case, lambda: _agreement(case, case.field,
                                           _coefficient_rows([build_sides(case)])))


# -- connection-relation verification ----------------------------------------

_DEFAULT_X_SAMPLES = (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(4),
                      Fraction(-3, 7))


def _dot_target(form):
    """The target row P_0, P_1, ... at one x, a ``families.gauss_row_form``,
    as ``_dot`` reads it: reduced once when exact, so its denominator is the
    lcm of the values' denominators."""
    field, nums, den = form
    return (field, *_reduced(nums, den)) if field.is_exact else form


def _dot(form, target):
    """sum_k c_{n,k} P_k as a row entry (num, den), for the row form (field,
    nums, den) of c_{n,k} and a ``_dot_target`` row P: one integer dot
    product on exact values, else the sum of the values' products over 1."""
    (field, nums, den), (target_field, target_nums, target_den) = form, target
    if field.is_exact and target_field.is_exact:
        return sum(map(mul, nums, target_nums)), den * target_den
    return sum(map(mul, field.over(nums, den), target_field.over(target_nums, target_den))), 1


def verify_connection_relation(relation_id: str, params, n_max: int,
                               x_samples=_DEFAULT_X_SAMPLES,
                               field: FieldTag = EXACT) -> VerificationReport:
    """Reconstruction check: the table applied to target values gives back
    the source polynomial at every sample argument and every degree.

    Degrees run outer and samples inner.  The source and target rows are
    one ``families.gauss_row_form`` per side and sample (so
    ``families.family_eval`` evaluates no degree on its own).  A
    reconstructed value is one ``_dot`` of the table's row form
    (``ConnectionExpansion.row_form``, read once per degree for an x-free
    table) with the target row, reduced once per sample, and the verdict
    compares it with the source's entry as integers, no value formed."""
    case = IdentityCase(
        relation_id,
        {**dict(params), "n_max": n_max, "x_samples": tuple(x_samples)},
        order=n_max, field=field,
    )

    def run():
        if not x_samples:  # a table compared at no argument would pass on anything
            raise DomainError(f"{relation_id} needs at least one x sample")
        spec = conn.get_relation(relation_id)
        table = conn.connection_table(relation_id, params, n_max, field)
        source, target = ([families.gauss_row_form(spec.family, n_max, x, binding)
                           for x in x_samples]
                          for binding in (spec.source(params), spec.target(params)))
        target = [_dot_target(form) for form in target]

        def rows():
            for n in range(n_max + 1):
                form = None if table.x_dependent else table.row_form(n)
                for (_, nums, den), x, row in zip(source, x_samples, target):
                    yield (n, (nums[n], den), _dot(form or table.row_form(n, x), row),
                           f"reconstruction breaks at n = {n}, x = {x}")

        return _agreement(case, field, rows())

    return _guard(case, run)


_RELATION_N_MAX = 8  # a relation case's n_max when it binds neither n_max nor an order


def _check_relation(case: IdentityCase) -> VerificationReport:
    """A relation id as a case: its names, optional n_max (or an order equal
    to it) and x_samples, then the reconstruction check."""
    spec = conn.get_relation(case.identity)
    _require(case, spec.names, allowed=(*spec.names, "n_max", "x_samples"))
    params = {k: v for k, v in case.params.items() if k not in ("n_max", "x_samples")}
    default = _RELATION_N_MAX if case.order is None else case.order
    n_max = as_index(case.params.get("n_max", default), "n_max")
    if case.order not in (None, n_max):
        raise DomainError(f"{case.identity} checks degrees to n_max = {n_max};"
                          f" drop order {case.order}")
    return verify_connection_relation(case.identity, params, n_max,
                                      case.params.get("x_samples", _DEFAULT_X_SAMPLES),
                                      case.field)


# -- orthogonality sums -------------------------------------------------------


def _meixner_row(n: int, beta, d, count: int):
    """(row, den) with M_n(x; beta, d) = row[x] / den for x = 0..count-1.

    M_n(x) = sum_k a_k (-x)_k with a_k = (-n)_k z^k / ((beta)_k k!) and
    z = 1 - 1/d; the a_k are put over one denominator once.  As (-x)_k =
    (-1)^k k! binom(x, k), the k-th forward difference of den M_n at x = 0
    is (-1)^k k! den a_k, so the row is n running sums over integers, from
    the constant n-th difference down."""
    coeffs, den = hypergeometric_terms((-n,), (beta,), 1 - 1 / d, n)
    diffs = list(map(mul, coeffs, accumulate(range(-1, -n - 1, -1), mul, initial=1)))
    row = [diffs.pop()] * count
    for diff in reversed(diffs):
        row = list(accumulate(row[:-1], initial=diff))
    return row, den


def _lattice_sum(poly, den, kernel, beta, d):
    """sum_x poly[x] u_x / (den step_0 ... step_x), x = 0..len(poly)-1, with
    kernel(x) (beta)_x d^x / x! = u_x / (step_0 ... step_x) in integers, as
    the unreduced pair (acc, chain), sum = acc / chain, and the last four
    terms as (term, chain) pairs (for the tail bound).  ``kernel`` is (p, q,
    s), linear polynomials as pairs, of p(x) f(x+1) = q(x) f(x) - s(x) f(x-1)
    with f(0) = 1 and s(0) = 0.  By the weight ratio a(x)/b(x) = (beta+x)
    d/(x+1), u_{x+1} = (a(x) q(x)) u_x - (a(x) s(x) a(x-1) p(x-1)) u_{x-1}
    and step_{x+1} = b(x) p(x), the small factors multiplied first, so u
    costs two big-by-small products a step."""
    (p0, p1), (q0, q1), (s0, s1) = integer_linear(*kernel)
    (a0, a1), (b0, b1) = integer_linear((beta * d, d), (1, 1))
    acc, chain, tail, last = 0, den, [], len(poly) - 4
    u_prev, u, ap_prev, step = 0, 1, 0, 1
    for x, value in enumerate(poly):
        chain *= step
        term = value * u
        acc = acc * step + term
        if x >= last:
            tail.append((term, chain))
        a, p = a0 + a1 * x, p0 + p1 * x
        u_prev, u = u, a * (q0 + q1 * x) * u - a * (s0 + s1 * x) * ap_prev * u_prev
        ap_prev, step = a * p, (b0 + b1 * x) * p
    return (acc, chain), tail


def _closed_form(prefactor, nums, dens, z):
    """prefactor * pFq(nums; dens; z), a lattice sum's 1F1 or 2F1 closed
    form summed in doubles until the terms fall below 1e-17 of the total,
    and the error its cancellation costs.

    At z < 0 the series alternates and may cancel far below its largest
    term, so it is summed at a positive argument instead: by Kummer,
    1F1(a; b; z) = e^z 1F1(b-a; b; -z), and by Pfaff, 2F1(a, b; c; z) =
    (1-z)^-b 2F1(c-a, b; c; z/(z-1)).  A negative parameter can still
    cancel a few terms; the error is estimated as one double rounding
    (2^-52) of the magnitude that cancelled, sum |term| - |sum|.  It is 0
    when no term cancels: the few roundings every double carries are left
    out, as they were when the sum was exact and rounded once."""
    if z < 0 and len(nums) == 1:
        (a,), (b,) = nums, dens
        prefactor, nums, z = prefactor * math.exp(z), (b - a,), -z
    elif z < 0:
        (a, b), (c,) = nums, dens
        prefactor, nums, z = prefactor * float(1 - z) ** -float(b), (c - a, b), z / (z - 1)
    try:
        value, tail = pfq_eval_with_tail(pfq(nums, dens), z)
    except ConvergenceError:  # the terms never shrank
        value, tail = math.nan, None
    value = value.real
    if tail is None or not tail.converged or not math.isfinite(value):
        raise DomainError("closed-form series did not settle; argument too large")
    return prefactor * value, abs(prefactor) * (tail.abs_sum - abs(value)) * 2.0**-52


def _tail_bound(terms):
    """Geometric bound on the discarded tail from the observed decay of the
    last terms (the last four of a sum), each an exact (term, chain) pair
    worth term / chain; None (no bound) when one of them vanishes exactly,
    because a zero says nothing about the decay, or when the terms do not
    decay.  The integer quotient term / chain is correctly rounded, so each
    magnitude is the double of the reduced fraction without reducing it."""
    if any(term == 0 for term, _ in terms):
        return None
    tail_abs = [abs(term / chain) for term, chain in terms]
    if all(t == 0.0 for t in tail_abs):  # nonzero, but below the double range
        return 0.0
    r = max((b / a for a, b in zip(tail_abs, tail_abs[1:]) if a > 0.0), default=1.0)
    return None if r >= 1.0 else tail_abs[-1] * r / (1.0 - r)


def _orth_report(case, lhs, bound, terms_summed, rhs_value, rhs_error) -> VerificationReport:
    """Verdict on a sum ``lhs`` (exact, or the double of an exact sum) of
    ``terms_summed`` terms whose discarded tail is at most ``bound`` (None
    when nothing bounds it), against ``rhs_value`` known to ``rhs_error``."""
    deviation = abs(float(lhs) - float(rhs_value))
    tol = case.field.atol + case.field.rtol * abs(float(rhs_value))
    if bound is None or bound + rhs_error > tol:
        status = "inconclusive"
    elif deviation + bound + rhs_error <= tol:
        status = "pass"
    else:
        status = "fail"
    return VerificationReport(case, status, deviation=deviation, terms_summed=terms_summed,
                              tail_bound=math.inf if bound is None else bound)


@dataclass(frozen=True)
class LatticeSum:
    """sum_{x=0}^{x_max} kernel(x) prod_k M_k(x; beta, rate) (beta)_x rate^x / x!
    against a closed-form rhs.

    ``domain(**params)`` says where the identity holds (``needs`` says it in
    words), ``poly(**params)`` gives (beta, rate), ``kernel(**params)`` the
    kernel's recurrence (p, q, s) as ``_lattice_sum`` takes it,
    ``degrees(n, **params)`` the degrees k of the Meixner polynomials in the
    summand and ``rhs(n, **params)`` the closed form and its error."""

    domain: Callable
    needs: str
    poly: Callable
    kernel: Callable
    rhs: Callable
    degrees: Callable = lambda n, **_: (n,)

    def __call__(self, case: IdentityCase) -> VerificationReport:
        if case.field.is_exact:
            raise DomainError("an infinite lattice sum is compared in doubles;"
                              " give a numeric field")
        p = {k: EXACT.of(v) for k, v in case.params.items()}  # partial sums are exact
        n = as_index(p.pop("n"), "n")
        if not self.domain(**p):
            raise DomainError(f"needs {self.needs}")
        degrees = self.degrees(n, **p)
        if min(degrees) < 0:
            raise DomainError(f"degrees must be >= 0, got {degrees}")
        (acc, chain), tail = self.partial_sum(n, case.x_max, **p)
        rhs, rhs_error = self.rhs(n, **p)  # a closed form that does not settle raises first
        # int / int is correctly rounded: the double of the reduced sum, with no gcd
        return _orth_report(case, acc / chain, _tail_bound(tail), case.x_max + 1, rhs,
                            rhs_error)

    def partial_sum(self, n: int, x_max: int, **p):
        """The exact lhs summed over x = 0..x_max as an unreduced integer pair
        (acc, chain), lhs = acc / chain, and its last four terms as (term,
        chain) pairs.  A polynomial that occurs twice in the summand is built
        once."""
        count = x_max + 1
        beta, rate = self.poly(**p)
        degrees = self.degrees(n, **p)
        rows = {k: _meixner_row(k, beta, rate, count) for k in set(degrees)}
        poly, den = rows[degrees[0]]
        for k in degrees[1:]:
            row, row_den = rows[k]
            poly, den = list(map(mul, poly, row)), den * row_den
        return _lattice_sum(poly, den, self.kernel(**p), beta, rate)


_CONSTANT_KERNEL = ((1, 0), (1, 0), (0, 0))  # f(x+1) = f(x) = 1


def _confluent_kernel(alpha, c, t, **_):
    """1F1(-x; alpha; z), z = t(1-c)/c:
    (alpha+x) f(x+1) = (2x+alpha-z) f(x) - x f(x-1)."""
    z = t * (1 - c) / c
    return (alpha, 1), (alpha - z, 2), (0, 1)


def _gauss_kernel(alpha, gamma, c, t, **_):
    """2F1(-x, gamma; alpha; w), w = t(1-c)/(c(1-t)):
    (alpha+x) g(x+1) = (2x+alpha-(gamma+x)w) g(x) - x(1-w) g(x-1)."""
    w = t * (1 - c) / (c * (1 - t))
    return (alpha, 1), (alpha - gamma * w, 2 - w), (0, 1 - w)


def _orth_krawtchouk(case: IdentityCase, gf_id: str) -> VerificationReport:
    """sum_x binom(M, x) q^x (1-q)^(M-x) [lhs of gf_id]_N(t) K_n(x; q, M)
    against (t(q-1)/p)^n (gamma)_n / (-N)_n [inner_n of gf_id]_{N-n}(t),
    with (gamma)_n = 1 for the 1F1 form."""
    spec, names = GF_IDENTITIES[gf_id]
    p = {k: case.params[k] for k in names if k != "x"}
    n, t, qq = as_index(case.params["n"], "n"), case.params["t"], p["q"]
    cap, big = p["N"], p["M"] = families.krawtchouk_sizes(p, n)
    lhs = Fraction(0)
    for x in range(big + 1):
        bracket = spec.lhs(cap, EXACT, **p, x=Fraction(x))
        weight = Fraction(math.comb(big, x)) * qq**x * (1 - qq) ** (big - x)
        lhs += weight * bracket.evaluate(t) * families.family_eval(
            "krawtchouk", n, Fraction(x), {"p": qq, "N": big})
    prefactor = pochhammer(p["gamma"], n) if "gamma" in p else 1
    rhs = (
        (t * (qq - 1) / p["p"]) ** n * prefactor / pochhammer(Fraction(-cap), n)
        * spec.inner(n, cap - n, EXACT, **p).evaluate(t)
    )
    if case.field.is_exact:  # the residual against 0: its deviation is rounded once
        residual = EXACT.of(lhs - rhs)
        return replace(_agreement(case, EXACT, [(None, (residual.numerator, residual.denominator),
                                                 (0, 1), None)]),
                       terms_summed=big + 1, tail_bound=0.0)
    return _orth_report(case, lhs, 0.0, big + 1, rhs, 0.0)  # a finite sum leaves no tail


ORTHOGONALITY_IDS = {
    "meixner_orthogonality": (LatticeSum(
        lambda alpha, c, **_: alpha > 0 and 0 < c < 1, "alpha > 0 and c in (0,1)",
        lambda alpha, c, **_: (alpha, c),
        lambda **_: _CONSTANT_KERNEL,
        lambda n, alpha, c, m, **_: (
            math.factorial(n) / (c**n * (1 - c) ** alpha * pochhammer(alpha, n))
            if as_index(m, "m") == n else Fraction(0), 0.0),
        lambda n, m, **_: (n, as_index(m, "m")),
    ), ("alpha", "c", "n", "m")),
    "meixner_sum_1f1_same_c": (LatticeSum(
        lambda alpha, beta, c, **_: alpha > 0 and beta > 0 and 0 < c < 1,
        "alpha, beta > 0 and c in (0,1)",
        lambda beta, c, **_: (beta, c),
        _confluent_kernel,
        lambda n, alpha, beta, c, t, **_: _closed_form(
            float(t**n / (pochhammer(alpha, n) * c**n)) * math.exp(-float(t))
            * float(1 - c) ** -float(beta),
            (alpha - beta,), (alpha + n,), t),
    ), ("alpha", "beta", "c", "t", "n")),
    "meixner_sum_1f1_two_param": (LatticeSum(
        lambda alpha, beta, c, d, **_: alpha > 0 and beta > 0 and 0 < c < 1 and 0 < d < 1,
        "alpha, beta > 0 and c, d in (0,1)",
        lambda beta, d, **_: (beta, d),
        _confluent_kernel,
        lambda n, alpha, beta, c, d, t, **_: _closed_form(
            float(t**n * (1 - c) ** n / (c**n * (1 - d) ** n * pochhammer(alpha, n)))
            * float(1 - d) ** -float(beta),
            (beta + n,), (alpha + n,), -_ratio(c, d) * t),
    ), ("alpha", "beta", "c", "d", "t", "n")),
    "meixner_sum_2f1_same_c": (LatticeSum(
        lambda alpha, beta, c, t, **_: (
            alpha > 0 and beta > 0 and 0 < c < 1
            and abs(t) < 1 and abs(t * (1 - c)) < abs(c * (1 - t))),
        "alpha, beta > 0, c in (0,1), |t| < 1 and |t(1-c)| < |c(1-t)|",
        lambda beta, c, **_: (beta, c),
        _gauss_kernel,
        lambda n, alpha, beta, gamma, c, t, **_: _closed_form(
            float(1 - t) ** float(gamma)
            * float(pochhammer(gamma, n) * t**n / (pochhammer(alpha, n) * c**n))
            * float(1 - c) ** -float(beta),
            (alpha - beta, gamma + n), (alpha + n,), t),
    ), ("alpha", "beta", "gamma", "c", "t", "n")),
    "meixner_sum_2f1_two_param": (LatticeSum(
        lambda alpha, beta, c, d, t, **_: (
            alpha > 0 and beta > 0 and 0 < c < 1 and 0 < d < 1
            and abs(t) < min(1, abs(c * d / (c + d)))),
        "alpha, beta > 0, c, d in (0,1) and |t| < min(1, |cd/(c+d)|)",
        lambda beta, d, **_: (beta, d),
        _gauss_kernel,
        lambda n, alpha, beta, gamma, c, d, t, **_: _closed_form(
            float(pochhammer(gamma, n) / ((1 - d) ** n * pochhammer(alpha, n))
                  * (t * (1 - c) / (c * (1 - t))) ** n)
            * float(1 - d) ** -float(beta),
            (gamma + n, beta + n), (alpha + n,), -_ratio(c, d) * t / (1 - t)),
    ), ("alpha", "beta", "gamma", "c", "d", "t", "n")),
    "krawtchouk_sum_1f1": (lambda case: _orth_krawtchouk(case, "krawtchouk_1f1_two_param"),
                           ("p", "q", "N", "M", "t", "n")),
    "krawtchouk_sum_2f1": (lambda case: _orth_krawtchouk(case, "krawtchouk_2f1_two_param"),
                           ("p", "q", "N", "M", "t", "n", "gamma")),
}


def verify_orthogonality_sum(case: IdentityCase) -> VerificationReport:
    def run():
        try:
            handler, names = ORTHOGONALITY_IDS[case.identity]
        except KeyError:
            raise UnknownIdentityError(
                f"unknown orthogonality id {case.identity!r}"
            ) from None
        _require(case, names, allowed=names, order=False)
        return handler(case)

    return _guard(case, run)


def check_x_max(identity):
    """DomainError unless ``identity`` reads an x_max, as only an infinite
    lattice sum does: a case sets one other than the default, or --x-max."""
    if not isinstance(ORTHOGONALITY_IDS.get(identity, (None,))[0], LatticeSum):
        raise DomainError(f"{identity} is no infinite lattice sum; drop --x-max")


LATTICE_X_MAX, LATTICE_DEGREE = 10_000, 100


def check_lattice_size(case):
    """DomainError unless a lattice sum's x_max is in 0..``LATTICE_X_MAX`` and
    its degrees n, m are at most ``LATTICE_DEGREE`` (one sum at both takes
    about 3.4 s on a 2.1 GHz Xeon), so that no row past the budget is built."""
    if not isinstance(ORTHOGONALITY_IDS.get(case.identity, (None,))[0], LatticeSum):
        return
    if not 0 <= case.x_max <= LATTICE_X_MAX:
        raise DomainError(f"{case.identity}: x_max = {case.x_max} is outside the budget"
                          f" 0 <= x_max <= {LATTICE_X_MAX}")
    for name in ("n", "m"):
        if case.params.get(name, 0).real > LATTICE_DEGREE:
            raise DomainError(f"{case.identity}: {name} = {case.params[name]} is past the"
                              f" budget {name} <= {LATTICE_DEGREE}")


# -- invariance of plain generating functions under degenerate relations -----

_PLAIN_GFS = {
    # id -> (family, parameter names, series(order, field, **params), the
    #        parameters a whose (a)_n / n! is the normalization c_n)
    "meixner_product_gf": (
        "meixner", ("x", "alpha", "c"),
        lambda o, f, x, alpha, c, **_: families.gf_expand(
            "meixner", x, {"alpha": alpha, "c": c}, o, f),
        ("alpha",),
    ),
    "meixner_exp_gf": (
        "meixner", ("x", "alpha", "c"),
        GF_IDENTITIES["meixner_1f1_alpha_shift"][0].lhs_series,
        (),
    ),
    "meixner_gauss_gf": (
        "meixner", ("x", "alpha", "c", "gamma"),
        GF_IDENTITIES["meixner_2f1_alpha_shift"][0].lhs_series,
        ("gamma",),
    ),
    "krawtchouk_exp_gf": (
        "krawtchouk", ("x", "p", "N"),
        GF_IDENTITIES["krawtchouk_1f1_prob_shift"][0].lhs_series,
        (),
    ),
    "krawtchouk_gauss_gf": (
        "krawtchouk", ("x", "p", "N", "gamma"),
        GF_IDENTITIES["krawtchouk_2f1_prob_shift"][0].lhs_series,
        ("gamma",),
    ),
}


def verify_gf_invariance(case: IdentityCase) -> VerificationReport:
    """Re-expand a plain generating function sum_n c_n t^n P_n(x; source)
    through a connection table and demand the truncated series is literally
    unchanged: its t^n coefficient is c_n times the reconstructed value."""

    def run():
        _require(case, ("generating_function", "relation"), order=True)
        gf_id, relation_id = case.params["generating_function"], case.params["relation"]
        if gf_id not in _PLAIN_GFS:
            raise DomainError(
                f"unknown generating function {gf_id!r}; known: {', '.join(_PLAIN_GFS)}"
            )
        family, names, build, tops = _PLAIN_GFS[gf_id]
        spec = conn.get_relation(relation_id)
        if spec.family != family:
            raise DomainError(f"{relation_id} does not apply to {family}")
        _require(case, (*names, *spec.names),
                 allowed=("generating_function", "relation", *names, *spec.names))
        params = {k: v for k, v in case.params.items()
                  if k not in ("generating_function", "relation")}
        order, x = case.order, params["x"]
        bound = {**spec.source(params), **params}
        n_cap = families.degree_cap(order, params)
        original = build(order, case.field, **bound)
        table = conn.connection_table(relation_id, {k: params[k] for k in spec.names}, n_cap,
                                      case.field)
        norms = case.field.over(*hypergeometric_terms([bound[a] for a in tops], (), 1, n_cap,
                                                      case.field))
        polys = _dot_target(families.gauss_row_form(family, n_cap, x, spec.target(params)))
        rebuilt = TruncatedSeries(case.field, [
            c_n * _value(*_dot(table.row_form(n, x), polys)) for n, c_n in enumerate(norms)])
        return _agreement(case, case.field,
                          _coefficient_rows([(original, rebuilt.padded_to(order))]))

    return _guard(case, run)


# -- specialization chains ----------------------------------------------------

SPECIALIZATION_CHAINS = {
    # id -> (general identity, the identity it collapses to, the degenerate
    #        binding {general name: case name}, whether exp(t) multiplies the
    #        general sides because the collapsed form keeps it on its left)
    "chain_meixner_1f1_c_equals_d": (
        "meixner_1f1_two_param", "meixner_1f1_alpha_shift", {"d": "c"}, True),
    "chain_meixner_2f1_d_equals_c": (
        "meixner_2f1_two_param", "meixner_2f1_alpha_shift", {"d": "c"}, False),
    "chain_krawtchouk_1f1_p_equals_q": (
        "krawtchouk_1f1_two_param", "krawtchouk_1f1_degree_shift", {"q": "p"}, False),
    "chain_krawtchouk_1f1_M_equals_N": (
        "krawtchouk_1f1_two_param", "krawtchouk_1f1_prob_shift", {"M": "N"}, False),
    "chain_krawtchouk_2f1_p_equals_q": (
        "krawtchouk_2f1_two_param", "krawtchouk_2f1_degree_shift", {"q": "p"}, False),
    "chain_krawtchouk_2f1_M_equals_N": (
        "krawtchouk_2f1_two_param", "krawtchouk_2f1_prob_shift", {"M": "N"}, False),
}


def _chain_names(chain):
    """The parameters a chain reads: both identities' names less its binding."""
    general_id, special_id, binding, _ = SPECIALIZATION_CHAINS[chain]
    return tuple(name for name in dict.fromkeys(
        (*GF_IDENTITIES[general_id][1], *GF_IDENTITIES[special_id][1])) if name not in binding)


def _verify_chain(case: IdentityCase) -> VerificationReport:
    """Compare the degenerate general identity with the one it collapses to,
    side by side."""
    general_id, special_id, binding, with_exp = SPECIALIZATION_CHAINS[case.identity]
    general_names, special_names = GF_IDENTITIES[general_id][1], GF_IDENTITIES[special_id][1]
    _require(case, _chain_names(case.identity), order=True)
    p = {**case.params, **{k: case.params[v] for k, v in binding.items()}}
    (g_lhs, g_rhs), (s_lhs, s_rhs) = (
        build_sides(IdentityCase(identity, {k: p[k] for k in names},
                                 order=case.order, field=case.field))
        for identity, names in ((general_id, general_names), (special_id, special_names))
    )
    if with_exp:
        factor = exp_series(1, case.order, case.field)
        g_lhs, g_rhs = factor * g_lhs, factor * g_rhs
    return _agreement(case, case.field, _coefficient_rows([(g_lhs, s_lhs), (g_rhs, s_rhs)]))


# -- table agreement, bound-grid and catalog checks ---------------------------

TABLE_CHECKS = {
    # id -> (left table, right table, binding); a table is "power_collect",
    # "connect_linear_solve" or "closed_form", the table of the binding's
    # relation.  The binding is a relation id or, for a family with no
    # closed-form relation, (family, source {family name: case name},
    # target {family name: case name}).
    "power_collect_matches_closed_form": (
        "power_collect", "closed_form", "meixner_alpha_to_beta"),
    "oracle_meixner_alpha": ("connect_linear_solve", "closed_form", "meixner_alpha_to_beta"),
    "oracle_meixner_two_param": (
        "connect_linear_solve", "closed_form", "meixner_alpha_c_to_beta_d"),
    "oracle_krawtchouk": ("connect_linear_solve", "closed_form", "krawtchouk_p_N_to_q_M"),
    "oracle_al_salam_carlitz_1": (
        "power_collect", "connect_linear_solve",
        ("al_salam_carlitz_1", {"a": "a_from", "q": "q"}, {"a": "a_to", "q": "q"})),
}


def _check_tables(case: IdentityCase) -> VerificationReport:
    """Two connection tables for the same source and target agree entry by
    entry."""
    left, right, binding = TABLE_CHECKS[case.identity]
    relation = binding if isinstance(binding, str) else None
    if relation is not None:
        spec = conn.get_relation(relation)
        binding = (spec.family, spec.source_names, spec.target_names)
    family, source, target = binding
    names = {*source.values(), *target.values(), "n_max"}
    _require(case, names, allowed=names, order=False)
    p = dict(case.params)
    n_max = as_index(p["n_max"], "n_max")

    def table(how):
        if how == "closed_form":
            return conn.connection_table(relation, {k: p[k] for k in spec.names}, n_max)
        return getattr(conn, how)(family, {k: p[v] for k, v in source.items()},
                                  {k: p[v] for k, v in target.items()}, n_max)

    left, right = table(left), table(right)

    def rows():  # the rows as they are stored, which need not be reduced
        for n in range(left.n_max + 1):
            (_, a, a_den), (_, b, b_den) = left.row_form(n), right.row_form(n)
            for k, (u, v) in enumerate(zip(a, b)):
                yield n, (u, a_den), (v, b_den), f"tables disagree at n = {n}, k = {k}"

    return _agreement(case, case.field, rows())


_BOUND_GRIDS = {
    "pochhammer_bound_abs_lower": lambda: all(
        rising_abs_lower_bound_holds(complex(re, im), j)
        for re in (Fraction(1, 10), Fraction(1, 2), 1, 2, 5)
        for im in (-2, Fraction(-1, 2), 0, 1, 3)
        for j in (1, 2, 3, 7)
    ),
    "pochhammer_bound_over_factorial": lambda: all(
        rising_over_factorial_bound_holds(v, n)
        for v in (0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 7, 10)
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)
    ),
    # valid for -1 < w <= 1: for w > 1 the ratio (n+w)_k / (n+1)_k grows
    # without bound in k, so the grid stays inside the provable strip
    "pochhammer_bound_shifted": lambda: all(
        shifted_rising_bound_holds(w, n, k)
        for w in (Fraction(-9, 10), Fraction(-3, 4), Fraction(-1, 2),
                  Fraction(-1, 4), 0, Fraction(1, 4), Fraction(1, 2), 1)
        for n in (0, 1, 2, 5, 9)
        for k in (0, 1, 3, 6)
    ),
    "pochhammer_bound_offset": lambda: all(
        offset_rising_bound_holds(z, n, k)
        for z in (-3, Fraction(-7, 4), 0, Fraction(1, 3), 2)
        for n in (0, 1, 2, 4, 7, 10)
        for k_frac in (0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1)
        for k in (int(n * k_frac),)
    ),
}


def _check_bound_grid(case):
    _require(case, (), allowed=(), order=False)
    holds = _BOUND_GRIDS[case.identity]()
    status = "pass" if holds else "fail"
    return VerificationReport(case, status, deviation=0.0 if holds else None)


def _check_catalog_complete(case):
    _require(case, (), allowed=(), order=False)
    expected = {
        "continuous_dual_hahn", "dual_hahn", "bessel", "charlier",
        "continuous_dual_q_hahn", "dual_q_hahn", "al_salam_chihara",
        "q_meixner_pollaczek", "big_q_laguerre", "affine_q_krawtchouk",
        "dual_q_krawtchouk", "continuous_big_q_hermite",
        "al_salam_carlitz_1", "al_salam_carlitz_2",
    }
    present = {d.id for d in families.catalog()}
    missing = expected - present
    if missing:
        return VerificationReport(case, "fail",
                                  detail=f"catalog misses {sorted(missing)}")
    empty = [d.id for d in families.catalog() if not d.factors]
    if empty:
        return VerificationReport(case, "fail",
                                  detail=f"empty factor lists: {empty}")
    return VerificationReport(case, "pass", deviation=0.0)


def _check_gf_matches_eval(case):
    _require(case, ("family",), order=True)
    params = dict(case.params)
    descriptor = families.get_family(params.pop("family"))
    x = params.pop("x", None)
    series = families.gf_expand(descriptor, x, params, case.order)
    top = families.degree_cap(case.order, params)
    expected = TruncatedSeries(series.field, [
        families.normalization_at(descriptor, n, x, params, series.field) * p_n
        for n, p_n in enumerate(families.family_row(descriptor, top, x, params))])
    return _agreement(case, series.field,
                      _coefficient_rows([(expected.padded_to(case.order), series)]))


SPECIAL_CHECKS = {
    **{name: _verify_chain for name in SPECIALIZATION_CHAINS},
    **{name: _check_relation for name in conn.relation_ids()},
    **{name: _check_tables for name in TABLE_CHECKS},
    "catalog_complete": _check_catalog_complete,
    "gf_matches_eval": _check_gf_matches_eval,
    **{name: _check_bound_grid for name in _BOUND_GRIDS},
}


# -- dispatch and batches -----------------------------------------------------


def verify_case(case: IdentityCase) -> VerificationReport:
    """Route a case to its verifier by identity id; an identity that is no
    string is refused before it is looked up."""
    if not isinstance(case.identity, str):
        return _guard(case, None)  # _check_values refuses it, so nothing runs
    if case.identity in GF_IDENTITIES:
        return verify_gf_identity(case)
    if case.identity in ORTHOGONALITY_IDS:
        return verify_orthogonality_sum(case)
    if case.identity == "gf_invariance":
        return verify_gf_invariance(case)
    check = SPECIAL_CHECKS.get(case.identity)
    if check is None:
        return VerificationReport(case, "error", detail=f"unknown identity {case.identity!r}")
    return _guard(case, lambda: check(case))


def batch_verify(cases, threads: int | None = None):
    """Verify every case in order, isolating per-case errors.

    The cases run one after another: the work is pure-Python arithmetic,
    which threads cannot overlap.  ``threads`` may be None or 1; any other
    value is refused rather than ignored.
    """
    if threads not in (None, 1):
        raise DomainError(f"batch_verify runs sequentially; got threads={threads!r}")
    return [verify_case(case) for case in cases]


def summarize(reports) -> dict:
    counts = {"pass": 0, "fail": 0, "error": 0, "inconclusive": 0}
    for report in reports:
        counts[report.status] = counts.get(report.status, 0) + 1
    counts["total"] = len(reports)
    return counts


# -- the named built-in acceptance suite --------------------------------------

# The canonical bindings: each case takes from one of them the names its
# route declares.
_CANONICAL = {
    "x": Fraction(4), "alpha": Fraction(3, 2), "beta": Fraction(7, 3),
    "c": Fraction(2, 5), "d": Fraction(3, 7), "gamma": Fraction(5, 4),
}
_KRAW_GF = {
    "x": Fraction(5, 2), "p": Fraction(1, 2), "q": Fraction(1, 3),
    "N": 4, "M": 6, "gamma": Fraction(5, 4),
}
_KRAW_CONN = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 4, "M": 7}
_LATTICE = {"alpha": Fraction(2), "beta": Fraction(3), "gamma": Fraction(5, 4),
            "c": Fraction(1, 2), "d": Fraction(2, 5), "t": Fraction(1, 4)}
_KRAW_SUM = {"p": Fraction(1, 2), "q": Fraction(1, 3), "N": 3, "M": 5,
             "t": Fraction(1, 5), "gamma": Fraction(5, 4)}
_Q_FAMILY = {"a_from": Fraction(1, 4), "a_to": Fraction(1, 5), "q": Fraction(1, 3)}
# the degenerate relations, whose tables are the identity, of the invariance cases
_INVARIANCE_RELATIONS = ("meixner_alpha_to_beta", "meixner_type_c_to_d",
                         "krawtchouk_p_to_q_same_N", "krawtchouk_same_p_N_to_M")
_TABLE_N_MAX = {"power_collect_matches_closed_form": 10, "oracle_meixner_alpha": 10,
                "oracle_meixner_two_param": 8, "oracle_krawtchouk": 4,
                "oracle_al_salam_carlitz_1": 6}


def _restrict(params, names):
    return {k: params[k] for k in names}


def _relation_params(relation):
    spec = conn.get_relation(relation)
    return _restrict(_KRAW_CONN if spec.family == "krawtchouk" else _CANONICAL, spec.names)


def acceptance_suite(order: int = 12) -> list:
    """Every acceptance criterion as a runnable case list.  Each case takes
    the parameter names its route declares from a canonical binding."""
    if order < 0:
        raise DomainError(f"the acceptance suite needs an order >= 0, got {order}")
    tol9, tol10 = numeric(1e-9, 1e-9), numeric(1e-10, 0.0)
    kraw_n = _KRAW_GF["N"]
    cases = []
    for identity, (_, names) in GF_IDENTITIES.items():
        params = _restrict(_KRAW_GF if "N" in names else _CANONICAL, names)
        cases.append(IdentityCase(identity, params, order=families.degree_cap(order, params)))
    for chain, (general, *_) in SPECIALIZATION_CHAINS.items():
        if "N" in GF_IDENTITIES[general][1]:  # every name of _KRAW_GF, read or not
            cases.append(IdentityCase(chain, _KRAW_GF, order=kraw_n))
        else:
            cases.append(IdentityCase(chain, _restrict(_CANONICAL, _chain_names(chain)),
                                      order=order))
    for relation in conn.relation_ids():
        params = _relation_params(relation)  # a Krawtchouk table needs n_max <= N
        cases.append(IdentityCase(relation, {
            **params, "n_max": families.degree_cap(_RELATION_N_MAX, params),
            "x_samples": _DEFAULT_X_SAMPLES,
        }))
    # each plain GF under each degenerate relation of its family: the target
    # parameters take the source values
    for gf_id, (family, names, _, _) in _PLAIN_GFS.items():
        binding = _KRAW_GF if family == "krawtchouk" else _CANONICAL
        for relation in _INVARIANCE_RELATIONS:
            spec = conn.get_relation(relation)
            if spec.family == family:
                source = spec.source(binding)
                cases.append(IdentityCase("gf_invariance", {
                    "generating_function": gf_id, "relation": relation,
                    **_restrict(binding, names), **spec.params(source, source),
                }, order=kraw_n if family == "krawtchouk" else order))
    for check, (*_, binding) in TABLE_CHECKS.items():
        exact = isinstance(binding, str)
        cases.append(IdentityCase(check, {
            **(_relation_params(binding) if exact else _Q_FAMILY),
            "n_max": _TABLE_N_MAX[check],
        }, field=EXACT if exact else tol10))

    def orth(identity, binding, field=EXACT, **index):
        names = ORTHOGONALITY_IDS[identity][1]
        return IdentityCase(identity, _restrict({**binding, **index}, names), field=field)

    cases += [orth("meixner_orthogonality", _LATTICE, tol9, n=n, m=m)
              for n in range(5) for m in range(n + 1)]
    # t = 1/5 in meixner_sum_2f1_two_param, whose domain |t| < cd/(c+d) = 2/9
    # excludes 1/4
    cases += [orth(identity, _LATTICE, tol10, n=n,
                   t=Fraction(1, 5) if identity == "meixner_sum_2f1_two_param" else _LATTICE["t"])
              for n in range(4) for identity in ORTHOGONALITY_IDS
              if identity.startswith("meixner_sum")]
    cases += [orth(identity, _KRAW_SUM, n=n)
              for n in range(3) for identity in ORTHOGONALITY_IDS
              if identity.startswith("krawtchouk")]
    cases += [IdentityCase(name, {}) for name in (*_BOUND_GRIDS, "catalog_complete")]
    for family, binding, case_order in (("meixner", _CANONICAL, order),
                                        ("krawtchouk", _KRAW_GF, 6)):
        names = ("x", *families.get_family(family).parameters)
        cases.append(IdentityCase("gf_matches_eval", {"family": family,
                                                      **_restrict(binding, names)},
                                  order=case_order))
    return cases
