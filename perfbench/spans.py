"""Span recorder for the traced benchmark run.

Spans are recorded around calls into each module's public functions, from
the benchmark's own files: ``install`` swaps wrappers into every namespace
that holds the original function (modules import many names by value:
``verify``, ``families`` and ``hyper`` each hold their own
``hyper_series_in_t``, and ``expressions`` keeps ``pochhammer`` in a dict)
and patches methods on their class.  ``uninstall`` restores every
original.  The untraced runs never call ``install``.

Spans stay in memory as flat arrays (name, parent, start, end) until the
caller reduces them to per-name totals, once per pass in ``run.py``.  A
span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def clear(self) -> None:
        """Drop the closed spans; names, counters and maxima stay."""
        if self._stack:
            raise RuntimeError("spans still open")
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        index = self.open(self.name(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def totals(self) -> dict:
        """{name: (calls, total_s, self_s)} over every closed span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            duration = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += duration
            own[k] += duration - child[i]
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}


def _traced(rec: Recorder, name, fn, after=None):
    """Wrap fn in a span.  ``name`` is a span name, or a function of the
    call's positional arguments that returns one.  ``after`` sees each
    result, outside the span."""
    fixed = rec.name(name) if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        index = rec.open(fixed if fixed is not None else rec.name(name(*args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _lift_kind(spec, shapes, *_rest) -> str:
    """Span name of a ``hyper_series_in_t`` call, by argument shape."""
    from hyperconnect.hyper import ArgShape, MultiVarSpec

    if isinstance(spec, MultiVarSpec):
        return "hyper.lift_multivar"
    shape = shapes if isinstance(shapes, ArgShape) else shapes[0]
    return "hyper.lift_mobius" if shape.over_one_minus_t else "hyper.lift_linear"


def coeff_bits(series) -> int:
    """Largest numerator or denominator bit length of an exact series."""
    if not series.field.is_exact:
        return 0
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in series.coefficients
    )


class Installation:
    """Wrappers swapped into the library; ``uninstall`` puts everything back."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list = []

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every hyperconnect namespace and in the
        module-level dicts that hold it by value."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "hyperconnect" or mod_name.startswith("hyperconnect.")
            ):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = replacement
                    hits += 1
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            self._undo.append((value, k2, original))
                            value[k2] = replacement
                            hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is bound nowhere; nothing traced")

    def _patch_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original


def install(rec: Recorder) -> Installation:
    """Wrap the public entry points of every layer named in the benchmark
    notes.  Counters: ``verify.orth.terms`` (sum of ``terms_summed``),
    ``fields.of`` (calls) and ``series.coeff_bits_max``."""
    # the package rebinds some submodule names to functions (pochhammer),
    # so the modules come from importlib
    cli, connection, families, fields, hyper, pochhammer, series, verify = (
        importlib.import_module("hyperconnect." + name)
        for name in ("cli", "connection", "families", "fields", "hyper",
                     "pochhammer", "series", "verify")
    )

    inst = Installation(rec)

    def bits(result):
        if isinstance(result, series.TruncatedSeries):
            b = coeff_bits(result)
            if b > rec.maxima["series.coeff_bits_max"]:
                rec.maxima["series.coeff_bits_max"] = b

    def orth_terms(report):
        rec.counts["verify.orth.terms"] += report.terms_summed or 0

    functions = [
        (verify.verify_case, "verify.case", None),
        (verify.verify_gf_identity, "verify.gf", None),
        (verify.verify_orthogonality_sum, "verify.orth", orth_terms),
        (verify.verify_connection_relation, "verify.conn", None),
        (verify.build_sides, "verify.build_sides", None),
        (hyper.hyper_series_in_t, _lift_kind, bits),
        (hyper.pfq_eval, "hyper.pfq_eval", None),
        (hyper.multivar_eval, "hyper.multivar_eval", None),
        (series.compose, "series.compose", bits),
        (pochhammer.pochhammer, "pochhammer", None),
        (families.family_eval, "families.family_eval", None),
        (families.gf_expand, "families.gf_expand", None),
        (connection.connection_table, "connection.table", None),
        (connection.power_collect, "connection.power_collect", None),
        (connection.connect_linear_solve, "connection.linear_solve", None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, after in functions:
        inst._replace_everywhere(fn, _traced(rec, name, fn, after))

    mul = series.TruncatedSeries.__mul__
    inst._patch_method(series.TruncatedSeries, "__mul__",
                       _traced(rec, "series.mul", mul, bits))
    coefficient = connection.ConnectionExpansion.coefficient
    inst._patch_method(connection.ConnectionExpansion, "coefficient",
                       _traced(rec, "connection.coefficient", coefficient))

    of = fields.FieldTag.of
    counts = rec.counts

    def counted_of(self, value):
        counts["fields.of"] += 1
        return of(self, value)

    inst._patch_method(fields.FieldTag, "of", counted_of)
    return inst
