"""No dead code in the package: every function is reached by some route or
is on the allowlist below with its reason, and no module imports a name it
never uses.

A route is a way the package is run: the acceptance suite at order 12
through ``cli.main``, every README command in each output format its
subcommand writes, and ``eval`` and ``connect`` (both methods, exact and
double bindings) for each executable family that is not an x = cos theta
family.  The routes run in a fresh interpreter (``python
tests/test_reachability.py`` prints what they enter) under a function-level
``sys.setprofile`` hook, so no cache filled by an earlier test hides a call
and the package's import is traced too.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

# found without importing it, so the traced run imports the package itself
PACKAGE = Path(importlib.util.find_spec("hyperconnect").origin).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))

# the formats each subcommand writes (its --output choices)
_OUTPUTS = {"eval": ("text", "json"), "expand": ("text", "json", "csv"),
            "connect": ("text", "json", "csv"), "verify": ("text", "json"),
            "catalog": ("json",)}

# family -> (eval flags, exact source, exact target, double source, double target)
_FAMILY_ROUTES = {
    "meixner": (["--x", "4", "--alpha", "3/2", "--c", "2/5"],
                "alpha=3/2,c=2/5", "alpha=7/3,c=2/5", "alpha=1.5,c=0.4", "alpha=2.5,c=0.4"),
    "krawtchouk": (["--x", "2", "--p", "1/3", "--N", "5"],
                   "p=1/3,N=5", "p=1/2,N=5", "p=0.3,N=5", "p=0.6,N=5"),
    "charlier": (["--x", "2", "--a", "1/2"], "a=1/2", "a=3/2", "a=0.5", "a=1.5"),
    "al_salam_carlitz_1": (["--x", "2", "--a", "1/4", "--q", "1/3"],
                           "a=1/4,q=1/3", "a=1/5,q=1/3", "a=0.25,q=0.3", "a=0.2,q=0.3"),
    "al_salam_carlitz_2": (["--x", "2", "--a", "1/4", "--q", "1/3"],
                           "a=1/4,q=1/3", "a=1/5,q=1/3", "a=0.25,q=0.3", "a=0.2,q=0.3"),
}

# "module.qualname" -> why no route enters it
ALLOWLIST = {
    # the JSON read side: documents are written by every route, read by none
    "connection.ConnectionExpansion.from_json": "JSON read side, kept for report replay",
    "fields.FieldTag.deserialize": "JSON read side",
    "fields.FieldTag.from_json": "JSON read side",
    "verify.IdentityCase.from_json": "JSON read side",
    "verify.VerificationReport.from_json": "JSON read side",
    "verify._deserialize_value": "JSON read side",
    "verify._read_float": "JSON read side",
    # the oracle the tests check the Mobius lift against
    "series.compose": "oracle of the Mobius lift; the benchmark tracer wraps it",
    "hyper.multivar_eval": "public terminating Appell/Lauricella/Humbert sum, exported, the"
                           " tests' oracle of the F1 connection kernels; the benchmark"
                           " tracer wraps it",
    "hyper.pfq_eval": "public terminating sum, the tests' oracle of the Gauss degree rows;"
                      " the benchmark tracer wraps it",
    "connection.ConnectionExpansion.coefficient": "public entry reader; the benchmark's"
                                                  " q-family check reads it and its"
                                                  " tracer wraps it",
    "series.mobius_argument": "oracle of the Mobius lift",
    "series.geometric_stream": "series constructor of the public API, tested directly",
    "series.TruncatedSeries.constant": "the compose oracle's Horner step",
    "series.TruncatedSeries.truncate_to": "the compose oracle's inner series",
    "series.TruncatedSeries.__add__": "the compose and linear-combination oracles",
    "series.TruncatedSeries.zero": "the linear-combination oracle's start",
    "series.TruncatedSeries.scale": "the linear-combination oracle's scalar",
    "series.TruncatedSeries.shifted": "the linear-combination oracle's t^k",
    "series.TruncatedSeries.__sub__": "series algebra the tests check directly",
    "series.TruncatedSeries.coefficient": "public coefficient reader; the tests' oracle of the"
                                          " one-coefficient family values",
    "series.TruncatedSeries.__eq__": "value semantics the tests compare series with",
    "series.TruncatedSeries.__hash__": "value semantics the tests compare series with",
    "series.TruncatedSeries.from_json": "JSON read side",
    # error-only helpers: entered only when an input is malformed
    "connection._degenerate": "raises on a singular sample set",
    "expressions._refusal": "refuses a formula outside the catalog grammar, which no catalog"
                            " formula is",
    "expressions._refusal.<locals>.refuse": "raises on a formula outside the catalog grammar",
    "families._check_domain.<locals>.fail": "raises on a parameter outside its domain",
    "series.TruncatedSeries.__setattr__": "raises on an attempt to mutate a series",
    "verify._as_written": "writes the params or field of a case that is refused",
    "verify.check_x_max": "entered only where a case or --x-max sets an x_max, which no"
                          " route does",
    # x = cos theta families only, which the routes leave out
    "expressions._cis": "cis(theta) of the theta families' formulas",
}


def _readme_argvs() -> list:
    from test_readme import COMMANDS

    argvs = []
    for command, _ in COMMANDS:
        argv = shlex.split(command, comments=True)[1:]
        if "--output" in argv:
            at = argv.index("--output")
            del argv[at:at + 2]
        argvs += [argv + ["--output", fmt] for fmt in _OUTPUTS[argv[0]]]
    return argvs


def _family_argvs() -> list:
    argvs = []
    for family, (flags, *bindings) in _FAMILY_ROUTES.items():
        argvs += [["eval", "--family", family, "--n", "3", *flags],
                  ["eval", "--family", family, "--n", "3", *flags, "--backend", "numeric"]]
        for method in ("power-collection", "linear-solve"):
            for source, target, backend in ((*bindings[:2], "exact"),
                                            (*bindings[2:], "numeric")):
                argvs.append(["connect", "--family", family, "--method", method,
                              "--source", source, "--target", target, "--n-max", "4",
                              "--backend", backend])
    return argvs


def trace_routes() -> set:
    """(file, first line) of every code object the routes enter."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        from hyperconnect.cli import main

        argvs = [["verify", "--suite", "acceptance", "--order", "12"]]
        argvs += _readme_argvs() + _family_argvs()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                main(argv)
    finally:
        sys.setprofile(None)
    return entered


def defined_functions() -> dict:
    """(file, first line) -> "module.qualname" for every def in the package;
    the first line of a decorated def is its first decorator's."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), line] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in MODULES:
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def test_every_function_is_reached_or_allowlisted():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, check=True)
    entered = {(os.path.realpath(f), line) for f, line in json.loads(done.stdout)}
    defined = defined_functions()
    assert set(ALLOWLIST) <= set(defined.values()), "allowlist names a function that is gone"
    unreached = sorted(name for key, name in defined.items()
                       if key not in entered and name not in ALLOWLIST)
    assert unreached == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":  # its imports are the package's public names
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


if __name__ == "__main__":
    print(json.dumps(sorted(trace_routes())))
