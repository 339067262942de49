"""Command-line front end.

Subcommands: eval, expand, connect, verify, catalog.  Parameters are passed
as flags named after the family/theorem parameters; rational values use the
literal form p/q (decimals are rejected on the exact backend so decimal ->
rational coercion can never fake exactness).  Exit codes: 0 success or all
pass, 1 verification failure, 2 usage error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys

from . import families, verify
from . import connection as conn
from .errors import DomainError, HyperconnectError
from .fields import EXACT, as_index, field_of, is_integer_valued, numeric, parse_rational

_PARAM_FLAGS = (
    "alpha", "beta", "c", "d", "gamma", "p", "q", "N", "M",
    "a", "b", "x", "theta", "t", "n", "m",
)
_INT_FLAGS = {"N", "M", "n", "m"}


def _add_common(parser: argparse.ArgumentParser, outputs: tuple,
                with_params: bool = True):
    """Shared flags.  ``outputs`` are the formats the subcommand writes, the
    default last; --backend, which decides how values parse and is None
    unless given, comes with the parameter flags."""
    parser.add_argument("--output", choices=outputs, default=outputs[-1])
    parser.add_argument("--output-path", default=None)
    if with_params:
        parser.add_argument("--backend", choices=("exact", "numeric"), default=None)
        for flag in _PARAM_FLAGS:
            parser.add_argument(f"--{flag}", default=None)
        parser.add_argument(
            "--param", action="append", default=[], metavar="NAME=VALUE",
            help="extra parameter binding; may repeat",
        )


def _parse_value(text: str, backend: str):
    if backend == "exact":
        return parse_rational(text)
    try:
        return parse_rational(text)
    except DomainError:
        try:
            value = complex(text)
        except ValueError:
            raise DomainError(f"cannot parse numeric value {text!r}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"values must be finite, got {text!r}")
    return value


def _parse_named(name: str, text: str, backend: str):
    """A value as ``_parse_value`` reads it; an integer flag's value must be
    an integer, else DomainError (a usage error)."""
    value = _parse_value(text, backend)
    if name not in _INT_FLAGS:
        return value
    if not is_integer_valued(value):
        raise DomainError(f"{name} must be an integer, got {text!r}")
    return as_index(value, name)


def _collect_params(args, backend: str) -> dict:
    params = {}
    for flag in _PARAM_FLAGS:
        raw = getattr(args, flag, None)
        if raw is not None:
            params[flag] = _parse_named(flag, raw, backend)
    for item in getattr(args, "param", []):
        if "=" not in item:
            raise DomainError(f"--param expects NAME=VALUE, got {item!r}")
        name, raw = (part.strip() for part in item.split("=", 1))
        # a name slot such as relation holds a name, not a number
        params[name] = raw if name in verify._NAME_SLOTS else _parse_value(raw, backend)
    return params


def _parse_bindings(text: str, backend: str) -> dict:
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise DomainError(f"expected NAME=VALUE, got {piece!r}")
        name, raw = piece.split("=", 1)
        name = name.strip()
        out[name] = _parse_named(name, raw.strip(), backend)
    return out


def _emit(document: str, path):
    if path is None:
        sys.stdout.write(document)
        if not document.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(document)


def _field_for(backend: str):
    return EXACT if backend == "exact" else numeric()


def _agreed_field(args, field):
    """The field the family and the bindings fixed; a --backend may only agree."""
    if args.backend not in (None, field.kind):
        raise DomainError(
            f"{args.family or args.relation} with these bindings works on the"
            f" {field.kind} field; drop --backend {args.backend}"
        )
    return field


def _cmd_eval(args) -> int:
    params = _collect_params(args, args.backend or "exact")
    n = params.pop("n", None)
    if n is None:
        raise DomainError("eval needs --n (the degree)")
    x = params.pop("x", None)
    value = families.family_eval(args.family, n, x, params)
    field = numeric() if args.backend == "numeric" else _agreed_field(args, field_of(value))
    if args.output == "json":
        _emit(json.dumps({"value": field.serialize(value)}, indent=2), args.output_path)
    else:
        _emit(field.text(value), args.output_path)
    return 0


def _cmd_expand(args) -> int:
    params = _collect_params(args, args.backend or "exact")
    x = params.pop("x", None)
    field = numeric() if args.backend == "numeric" else None
    series = families.gf_expand(args.family, x, params, args.order, field)
    _agreed_field(args, series.field)
    if args.output == "json":
        _emit(json.dumps(series.as_json(), indent=2), args.output_path)
    elif args.output == "csv":
        rows = [f"{j},{series.field.text(c)}"
                for j, c in enumerate(series.coefficients)]
        _emit("\n".join(["order," + str(series.order)] + rows), args.output_path)
    else:
        _emit(repr(series), args.output_path)
    return 0


# --method -> the name of the connection function that derives the table; the
# name is looked up on the module at each call, so a wrapper installed there
# (the benchmark's tracing) sees the call
_METHODS = {"power-collection": "power_collect", "linear-solve": "connect_linear_solve"}


def _refuse_unused(given, allowed, owner: str):
    """A usage error naming every flag in ``given`` outside ``allowed``."""
    unused = sorted(set(given) - set(allowed))
    if unused:
        raise DomainError(f"{owner} takes no {', '.join('--' + name for name in unused)}")


def _cmd_connect(args) -> int:
    """One (family, source, target) triple, from --relation or from --family
    with --source and --target, then one method; --method defaults to
    closed-form with --relation and to power-collection with --family."""
    backend = args.backend or "exact"
    params = _collect_params(args, backend)
    if args.relation:
        if args.family or args.source or args.target:
            raise DomainError("--relation fixes the family, source and target;"
                              " drop --family, --source and --target")
        relation_id = args.relation
        if relation_id not in conn.relation_ids():
            prefixed = [r for r in conn.relation_ids() if r.endswith(relation_id)]
            if len(prefixed) == 1:
                relation_id = prefixed[0]
        spec = conn.get_relation(relation_id)
        _refuse_unused(params, spec.names, f"--relation {relation_id}")
        families.check_names(relation_id, params, spec.names)
        family, source, target = spec.family, spec.source(params), spec.target(params)
    else:
        if not (args.source and args.target and args.family):
            raise DomainError(
                "connect needs --relation, or --family with --source and --target"
            )
        _refuse_unused(params, (), "--family with --source and --target")
        family = args.family
        source, target = (_parse_bindings(b, backend) for b in (args.source, args.target))
    method = args.method or ("closed-form" if args.relation else "power-collection")
    if method == "closed-form":
        if not args.relation:
            raise DomainError("--method closed-form needs --relation")
        table = conn.connection_table(relation_id, params, args.n_max, _field_for(backend))
    else:
        table = getattr(conn, _METHODS[method])(family, source, target, args.n_max)
        _agreed_field(args, table.field)
    if args.output == "json":
        _emit(json.dumps(table.as_json(), indent=2), args.output_path)
    elif args.output == "csv":
        _emit(table.to_csv(), args.output_path)
    else:
        if table.x_dependent:
            _emit(f"connection-type table ({table.relation}); coefficients take x",
                  args.output_path)
        else:
            lines = [
                " ".join(table.field.text(c) for c in row)
                for row in table.matrix()
            ]
            _emit("\n".join(lines), args.output_path)
    return 0


def _status_line(report) -> str:
    bits = [f"{report.status.upper():12s} {report.case.identity}"]
    if report.deviation is not None:
        bits.append(f"deviation={report.deviation:.3e}")
    if report.first_failing_order is not None:
        bits.append(f"first_failing_order={report.first_failing_order}")
    if report.tail_bound not in (None, 0.0):
        bits.append(f"tail={report.tail_bound:.3e}")
    if report.detail:
        bits.append(report.detail)
    return "  ".join(bits)


def _cmd_verify(args) -> int:
    if args.suite:
        if args.suite != "acceptance":
            raise DomainError(f"unknown suite {args.suite!r}")
        if args.backend is not None:
            raise DomainError("the acceptance suite fixes each case's field;"
                              f" drop --backend {args.backend}")
        given = [*_collect_params(args, "exact")] + [
            flag for flag, value in (("identity", args.identity), ("n-max", args.n_max),
                                     ("x-samples", args.x_samples), ("x-max", args.x_max))
            if value is not None]
        _refuse_unused(given, (), "--suite")
        cases = verify.acceptance_suite(order=12 if args.order is None else args.order)
    else:
        if not args.identity:
            raise DomainError("verify needs --suite or --identity")
        if args.x_max is not None:
            verify.check_x_max(args.identity)
        backend = args.backend or "exact"
        params = _collect_params(args, backend)
        if args.n_max is not None:
            params["n_max"] = args.n_max
        if args.x_samples:
            params["x_samples"] = tuple(
                _parse_value(v, backend) for v in args.x_samples.split(",")
            )
        cases = [verify.IdentityCase(
            args.identity, params, order=args.order, field=_field_for(backend),
            **({} if args.x_max is None else {"x_max": args.x_max}),
        )]
        verify.check_lattice_size(cases[0])
    reports = verify.batch_verify(cases)
    summary = verify.summarize(reports)
    if args.output == "json":
        document = json.dumps(
            {"reports": [r.as_json() for r in reports], "summary": summary},
            indent=2,
        )
        _emit(document, args.output_path)
    else:
        lines = [_status_line(r) for r in reports]
        lines.append(
            f"summary: {summary['pass']}/{summary['total']} pass,"
            f" {summary['fail']} fail, {summary['error']} error,"
            f" {summary['inconclusive']} inconclusive"
        )
        _emit("\n".join(lines), args.output_path)
    if summary["fail"] or summary["error"]:
        return 1
    if summary["inconclusive"]:
        return 3
    return 0


def _cmd_catalog(args) -> int:
    doc = families.catalog_as_json()
    if args.family:
        matches = [f for f in doc["families"] if f["id"] == args.family]
        if not matches:
            raise DomainError(f"unknown family {args.family!r}")
        doc = matches[0]
    _emit(json.dumps(doc, indent=2), args.output_path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main`` call:
    a parser is a web of reference cycles, so one per call leaves about
    100 KB of garbage that only a full collection frees."""
    parser = argparse.ArgumentParser(
        prog="hyperconnect",
        description="Connection relations and generating-function identities"
                    " for hypergeometric orthogonal polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one polynomial value")
    p_eval.add_argument("--family", required=True)
    _add_common(p_eval, ("json", "text"))
    p_eval.set_defaults(handler=_cmd_eval)

    p_expand = sub.add_parser("expand", help="expand a generating function")
    p_expand.add_argument("--family", required=True)
    p_expand.add_argument("--order", type=int, required=True)
    _add_common(p_expand, ("json", "csv", "text"))
    p_expand.set_defaults(handler=_cmd_expand)

    p_conn = sub.add_parser("connect", help="derive a connection table")
    p_conn.add_argument("--relation", default=None)
    p_conn.add_argument("--family", default=None)
    p_conn.add_argument("--method",
                        choices=("closed-form", *_METHODS), default=None)
    p_conn.add_argument("--n-max", type=int, required=True)
    p_conn.add_argument("--source", default=None, metavar="NAME=VALUE,...")
    p_conn.add_argument("--target", default=None, metavar="NAME=VALUE,...")
    _add_common(p_conn, ("json", "csv", "text"))
    p_conn.set_defaults(handler=_cmd_connect)

    p_verify = sub.add_parser("verify", help="verify identities")
    p_verify.add_argument("--suite", default=None)
    p_verify.add_argument("--identity", default=None)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--x-samples", default=None,
                          metavar="X1,X2,...")
    p_verify.add_argument("--x-max", type=int, default=None)
    _add_common(p_verify, ("json", "text"))
    p_verify.set_defaults(handler=_cmd_verify)

    p_cat = sub.add_parser("catalog", help="print the family catalog")
    p_cat.add_argument("--family", default=None)
    _add_common(p_cat, ("json",), with_params=False)
    p_cat.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # the reader has gone, as in ``... | head -1``
        # what is left goes to devnull, so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HyperconnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
