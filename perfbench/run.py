"""End-to-end and per-layer benchmark of the hyperconnect verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite12, gf_order24, lattice_x300, connect_n16 (see
perfbench/NOTES.md for why each exists and which layers it stresses).

One closed-loop client in one process sends one sequential batch per pass:
``batch_verify(cases, threads=1)``, or ``cli.main`` for the acceptance
suite.  Every run first measures set-up in fresh interpreters, then runs the
correctness gate in an untimed pass, then repeats passes for ``--seconds``.
With ``--trace 1`` the first half of the time is untraced and the second
half traced, and the per-layer metrics come from the traced passes.

End-to-end times are rescaled to the host speed measured by the reference
workload of ``hostspeed.py`` around and during each pass and around each
set-up probe; per-layer times are wall time of the traced passes.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SUITE_ARGV = ["verify", "--suite", "acceptance", "--order", "12", "--output", "json"]
P90_MIN_SAMPLES = 100


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import + case generation, each
    rescaled by the references timed around it."""
    times = []
    before = hostspeed.reference()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = hostspeed.reference()
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append(seconds * hostspeed.scale(before, after))
        before = after
    return statistics.median(times)


class Workload:
    """One workload's cases and how a pass sends them."""

    def __init__(self, name: str, seed: int):
        import cases
        import gate
        from hyperconnect import batch_verify, cli

        self.name = name
        self.cases, self.checks = cases.workload_cases(name, seed)
        self.size = len(self.cases) + len(self.checks)
        self._cli = cli
        self._batch_verify = batch_verify
        self._run_q_check = gate.run_q_check

    def execute(self):
        """One pass; returns what ``verdicts`` reads."""
        if self.name == "suite12":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self._cli.main(SUITE_ARGV)  # looked up per pass: tracing wraps it
            return out.getvalue()
        reports = self._batch_verify(self.cases, threads=1)
        return reports, [self._run_q_check(check) for check in self.checks]

    def verdicts(self, raw) -> list:
        """[(identity, status, millis)] of one pass."""
        if self.name == "suite12":
            doc = json.loads(raw)
            return [(r["case"]["identity"], r["status"], r["millis"])
                    for r in doc["reports"]]
        reports, checks = raw
        out = [(r.case.identity, r.status, r.millis) for r in reports]
        out += [(c.family, status, ms) for c, (status, ms) in zip(self.checks, checks)]
        return out


def timed_pass(workload: Workload):
    """(start, batch_s, verdicts); an escaped exception fails every case."""
    start = time.perf_counter()
    elapsed = None
    try:
        raw = workload.execute()
        elapsed = time.perf_counter() - start
        return start, elapsed, workload.verdicts(raw)
    except Exception:  # noqa: BLE001 - the run must report, not crash
        if elapsed is None:
            elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return start, elapsed, [("<pass>", "escaped", elapsed * 1000.0)] * workload.size


def rescaled_cases(start: float, verdicts: list, speed) -> list:
    """Case millis less the host-speed samples that interrupted each case,
    rescaled by the host speed around that case.

    The cases of a pass run one after another from ``start``, so case i
    spans ``start + sum(millis[:i])`` to that plus its own millis; a sample
    belongs to the case during which it started.  ``cli.main`` parses its
    arguments before the first case, which shifts this by a few ms, so a
    sample near a case boundary can land on the neighbour; one longer than
    that case cannot have interrupted it and is charged to none.
    """
    out, begin, pending = [], start, sorted(speed.samples)
    for name, status, ms in verdicts:
        end = begin + ms / 1000.0
        inside = [s for s in pending if s[0] < end]
        pending = pending[len(inside):]
        paused = 1000.0 * sum(seconds for at, seconds in inside if at >= begin)
        busy = ms - paused if paused < ms else ms
        out.append((name, status, busy * speed.local_factor(begin, end)))
        begin = end
    return out


def run_passes(workload: Workload, seconds: float, on_pass=None):
    """Passes for ``seconds`` (at least one), each between two references.

    Returns the rescaled pass times, the wall pass times (samples included)
    and, per pass, its verdicts with rescaled case millis.
    """
    times, wall, passes = [], [], []
    start = time.perf_counter()
    before = hostspeed.reference()
    while not times or time.perf_counter() - start < seconds:
        with hostspeed.Sampler(before) as speed:
            begin, elapsed, got = timed_pass(workload)
        before = speed.after
        if on_pass is not None:
            on_pass()
        times.append((elapsed - speed.paused) * speed.factor)
        wall.append(elapsed)
        passes.append(rescaled_cases(begin, got, speed))
    return times, wall, passes


def tally(passes: list, size: int):
    """(failed, wrong) over the workload's ``size`` case checks.

    Every pass verifies the same checks in the same order, so a check's
    verdicts are pooled over the passes: it failed when any verdict was not
    the expected pass, and its output is wrong when a verdict breaks the
    verdict contract or its verdicts differ between passes.  Both counts
    depend on the code and the seed only, not on how many passes fit.
    """
    import gate

    seen = [set() for _ in range(size)]
    for got in passes:
        statuses = [status for _, status, _ in got]
        if len(statuses) != size:
            statuses = ["missing"] * size
        for check, status in zip(seen, statuses):
            check.add(status)
    failed = sum(1 for s in seen if s != {gate.EXPECTED_STATUS})
    wrong = sum(1 for s in seen if len(s) > 1 or not s <= set(gate.ALLOWED_STATUS))
    return failed, wrong


def layer_metrics(totals: dict, counts: dict, maxima: dict, passes: int) -> dict:
    """Per-pass per-layer values from the traced spans."""
    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    m = {
        "verify.gf.s": (total("verify.gf"), "s"),
        "verify.orth.s": (total("verify.orth"), "s"),
        "verify.orth.self_s": (own("verify.orth"), "s"),
        "verify.orth.terms": (counts.get("verify.orth.terms", 0) / passes, "count"),
        "verify.conn.s": (total("verify.conn"), "s"),
        "verify.conn.self_s": (own("verify.conn"), "s"),
        "verify.other.s": (total("verify.case") - total("verify.gf")
                           - total("verify.orth") - total("verify.conn"), "s"),
        "verify.build_sides.self_s": (own("verify.build_sides"), "s"),
    }
    for span in ("hyper.lift_linear", "hyper.lift_mobius", "hyper.lift_multivar",
                 "hyper.pfq_eval", "hyper.multivar_eval", "series.mul",
                 "series.compose", "pochhammer", "families.family_eval",
                 "families.gf_expand", "connection.table", "connection.coefficient",
                 "connection.power_collect", "connection.linear_solve"):
        m[span + ".calls"] = (calls(span), "count")
        m[span + ".self_s"] = (own(span), "s")
    m["series.coeff_bits_max"] = (maxima.get("series.coeff_bits_max", 0), "bits")
    m["fields.of.calls"] = (counts.get("fields.of", 0) / passes, "count")
    m["cli.main.self_s"] = (own("cli.main"), "s")
    return m


def traced_passes(workload: Workload, seconds: float):
    """Passes under the span recorder; spans are folded into per-name
    totals after each pass so memory stays bounded by one pass."""
    import spans

    rec = spans.Recorder()
    totals: dict = {}

    def fold():
        for name, (calls, total, own) in rec.totals().items():
            c0, t0, s0 = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c0 + calls, t0 + total, s0 + own)
        rec.clear()

    installation = spans.install(rec)
    try:
        times, wall, passes = run_passes(workload, seconds, on_pass=fold)
    finally:
        installation.uninstall()
    return (times, wall, passes,
            layer_metrics(totals, rec.counts, rec.maxima, len(times)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite12", "gf_order24", "lattice_x300", "connect_n16"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperconnect" / "__init__.py").is_file():
        print(f"no hyperconnect sources under {SRC}", file=sys.stderr)
        return 2
    # one thread, whatever the environment says (see NOTES.md)
    os.environ.pop("HYPERCONNECT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import hyperconnect

    if Path(hyperconnect.__file__).resolve().parent != SRC / "hyperconnect":
        print(f"imported {hyperconnect.__file__}, not the checkout", file=sys.stderr)
        return 2
    import gate

    setup_s = measure_setup(args.workload, args.seed)
    workload = Workload(args.workload, args.seed)
    digest_ok = True
    if args.seed == DEFAULT_SEED:
        digest = gate.digest(workload.cases)
        stored = json.loads((HERE / "digests.json").read_text())
        digest_ok = stored.get(args.workload) == digest

    layers = None
    if args.trace:
        times, wall, passes = run_passes(workload, args.seconds / 2)
        traced_times, _, traced, layers = traced_passes(workload, args.seconds / 2)
        passes += traced
        layers["trace.overhead"] = (
            statistics.median(traced_times) / statistics.median(times) - 1.0, "ratio")
    else:
        times, wall, passes = run_passes(workload, args.seconds)

    failed, wrong = tally(passes, workload.size)
    verdicts = [v for got in passes for v in got]
    millis = [ms for _, _, ms in verdicts]
    end_to_end = {
        "batch_s": (statistics.median(times), "s"),
        "case_ms_p50": (statistics.median(millis), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    print(f"workload {args.workload}  seed {args.seed}  case checks {workload.size}"
          f"  passes {len(times)}  case samples {len(millis)}")
    for name, status in sorted({(n, s) for n, s, _ in verdicts
                                if s != gate.EXPECTED_STATUS}):
        print(f"  unexpected verdict: {name} -> {status}")
    shown = dict(end_to_end)
    shown["batch_wall_s"] = (statistics.median(wall), "s")
    shown["fail_share"] = (failed / workload.size, "ratio")
    if len(millis) >= P90_MIN_SAMPLES:
        shown["case_ms_p90"] = (_percentile(millis, 0.9), "ms")
    for name, (value, unit) in {**shown, **(layers or {})}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if args.seed == DEFAULT_SEED:
        verdict = "matches" if digest_ok else "DIFFERS FROM"
        print(f"  digest {digest} ({verdict} perfbench/digests.json)")

    metrics = layers if args.trace else end_to_end
    result = {
        "correct": wrong == 0 and digest_ok,
        "attempted": workload.size,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
