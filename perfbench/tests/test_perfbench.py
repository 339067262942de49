"""Tests of the benchmark itself: span arithmetic, wrapper installation,
verdict tallies, host-speed rescaling and the seeded case generator.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import cases  # noqa: E402
import spans  # noqa: E402
from hyperconnect import IdentityCase, verify  # noqa: E402
from hyperconnect.connection import get_relation, relation_ids  # noqa: E402
from hyperconnect.families import get_family  # noqa: E402

SEEDS = range(40)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_calls(self):
        # outer [0, 10] holds inner [1, 4] and inner [5, 6]; the second
        # inner holds leaf [5.5, 5.75]
        rec = spans.Recorder(clock=FakeClock([0, 1, 4, 5, 5.5, 5.75, 6, 10]))

        def leaf():
            return "leaf"

        def inner(with_leaf):
            return rec.span("leaf", leaf) if with_leaf else None

        def outer():
            rec.span("inner", inner, False)
            return rec.span("inner", inner, True)

        self.assertEqual(rec.span("outer", outer), "leaf")
        totals = rec.totals()
        self.assertEqual(totals["outer"], (1, 10, 6))
        self.assertEqual(totals["inner"], (2, 4, 3.75))
        self.assertEqual(totals["leaf"], (1, 0.25, 0.25))

    def test_clear_keeps_counters(self):
        rec = spans.Recorder(clock=FakeClock([0, 1]))
        rec.span("a", lambda: None)
        rec.counts["n"] += 3
        rec.clear()
        self.assertEqual(rec.totals(), {"a": (0, 0.0, 0.0)})
        self.assertEqual(rec.counts["n"], 3)


class InstallTest(unittest.TestCase):
    def test_every_namespace_is_wrapped_and_restored(self):
        from hyperconnect import families, hyper, series

        original = hyper.hyper_series_in_t
        mul = series.TruncatedSeries.__mul__
        rec = spans.Recorder()
        inst = spans.install(rec)
        try:
            for module in (hyper, verify, families):
                self.assertIsNot(module.hyper_series_in_t, original)
            report = verify.verify_case(IdentityCase(
                "meixner_1f1_c_shift",
                {"x": Fraction(7, 2), "alpha": Fraction(3, 2), "c": Fraction(2, 5),
                 "d": Fraction(3, 7)}, order=4))
        finally:
            inst.uninstall()
        self.assertEqual(report.status, "pass")
        for module in (hyper, verify, families):
            self.assertIs(module.hyper_series_in_t, original)
        self.assertIs(series.TruncatedSeries.__mul__, mul)
        totals = rec.totals()
        self.assertEqual(totals["verify.gf"][0], 1)
        self.assertEqual(totals["hyper.lift_multivar"][0], 5)
        self.assertGreater(totals["pochhammer"][0], 0)
        self.assertGreater(rec.counts["fields.of"], 0)
        self.assertGreater(rec.maxima["series.coeff_bits_max"], 0)


class TallyTest(unittest.TestCase):
    def test_counts_depend_on_checks_not_passes(self):
        import run

        one = [("a", "pass", 1.0), ("b", "inconclusive", 2.0)]
        self.assertEqual(run.tally([one], 2), (1, 0))
        self.assertEqual(run.tally([one] * 7, 2), (1, 0))

    def test_wrong_outputs(self):
        import run

        good = [("a", "pass", 1.0), ("b", "pass", 1.0)]
        flaky = [("a", "pass", 1.0), ("b", "inconclusive", 1.0)]
        self.assertEqual(run.tally([good, flaky], 2), (1, 1))
        self.assertEqual(run.tally([good, [("a", "fail", 1.0)] * 2], 2), (2, 2))
        self.assertEqual(run.tally([good, good[:1]], 2), (2, 2))


class HostSpeedTest(unittest.TestCase):
    def test_samples_leave_the_case_they_interrupted(self):
        import hostspeed
        import run

        got = [("a", "pass", 100.0), ("b", "pass", 50.0), ("c", "pass", 10.0)]
        # samples at 10.05 s (in a), 10.12 s (in b) and 10.149 s (in b)
        speed = hostspeed.Sampler(hostspeed.REFERENCE_S)
        speed.samples = [(10.12, 0.004), (10.05, 0.01), (10.149, 0.002)]
        speed.local_factor = lambda begin, end: 2.0
        out = run.rescaled_cases(10.0, got, speed)
        self.assertEqual([name for name, _, _ in out], ["a", "b", "c"])
        for (_, _, ms), want in zip(out, (180.0, 88.0, 20.0)):
            self.assertAlmostEqual(ms, want)

    def test_local_factor_uses_nearby_samples(self):
        import hostspeed

        unit = hostspeed.REFERENCE_S / hostspeed.REFERENCE_REPS
        speed = hostspeed.Sampler(hostspeed.REFERENCE_S)
        speed.factor = 0.5
        per_sample = hostspeed.SAMPLE_REPS * unit
        speed.samples = [(1.0, 2 * per_sample), (5.0, per_sample)]
        self.assertAlmostEqual(speed.local_factor(1.1, 1.2), 0.5)
        self.assertAlmostEqual(speed.local_factor(4.9, 5.0), 1.0)
        self.assertEqual(speed.local_factor(3.0, 3.1), 0.5)

    def test_scale(self):
        import hostspeed

        ref = hostspeed.REFERENCE_S
        self.assertEqual(hostspeed.scale(ref, ref), 1.0)
        self.assertAlmostEqual(hostspeed.scale(ref, 3 * ref), 0.5)
        self.assertGreater(hostspeed.reference(), 0.0)

    def test_sampler_samples_during_and_restores_handler(self):
        import signal
        import time

        import hostspeed

        previous = signal.getsignal(signal.SIGALRM)
        with hostspeed.Sampler(hostspeed.reference()) as speed:
            time.sleep(3 * hostspeed.PERIOD_S)
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertAlmostEqual(speed.paused, sum(s for _, s in speed.samples))
        self.assertGreater(speed.factor, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


def _all_cases(name, seed):
    made, checks = cases.workload_cases(name, seed)
    return made, checks


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_cases(self):
        for name in ("gf_order24", "lattice_x300", "connect_n16"):
            self.assertEqual(_all_cases(name, 7), _all_cases(name, 7))

    def test_different_seed_different_cases(self):
        for name in ("gf_order24", "lattice_x300", "connect_n16"):
            self.assertNotEqual(_all_cases(name, 7), _all_cases(name, 8))

    def test_gf_cases_in_domain(self):
        for seed in SEEDS:
            made, _ = _all_cases("gf_order24", seed)
            self.assertEqual(len(made), 20)
            for case in made:
                p = case.params
                self.assertEqual(case.order, 24)
                self.assertNotEqual(p["x"].denominator, 1)
                for name in ("alpha", "beta", "gamma"):
                    if name in p:
                        self.assertGreater(p[name], 0)
                for name in ("c", "d", "p", "q"):
                    if name in p:
                        self.assertTrue(0 < p[name] < 1, (case.identity, name))
                if "N" in p:
                    self.assertEqual((p["N"], p.get("M", 30)), (24, 30))
                    get_family("krawtchouk").bind({"p": p["p"], "N": p["N"]})
                else:
                    get_family("meixner").bind({"alpha": p["alpha"], "c": p["c"]})

    def test_lattice_cases_in_domain(self):
        lo, hi = Fraction(1, 5), Fraction(7, 10)
        for seed in SEEDS:
            made, _ = _all_cases("lattice_x300", seed)
            self.assertEqual(len(made), 40)
            for case in made:
                p = case.params
                self.assertIn(case.identity, verify.ORTHOGONALITY_IDS)
                self.assertEqual(case.x_max, 300)
                self.assertIn(p["n"], range(8))
                self.assertTrue(lo <= p["c"] <= hi)
                self.assertTrue(lo <= p.get("d", lo) <= hi)
                for name in ("alpha", "beta", "gamma"):
                    self.assertGreater(p.get(name, 1), 0)
                if case.identity == "meixner_orthogonality":
                    self.assertIn(p["m"], range(p["n"] + 1))
                    continue
                t, c = p["t"], p["c"]
                self.assertGreater(t, 0)
                if case.identity == "meixner_sum_2f1_same_c":
                    self.assertTrue(abs(t) < 1 and abs(t * (1 - c)) < abs(c * (1 - t)))
                if case.identity == "meixner_sum_2f1_two_param":
                    d = p["d"]
                    self.assertLess(abs(t), min(1, abs(c * d / (c + d))))

    def test_connect_cases_in_domain(self):
        for seed in SEEDS:
            made, checks = _all_cases("connect_n16", seed)
            self.assertEqual(len(made), 13)
            for case in made:
                p = dict(case.params)
                self.assertEqual(p.pop("n_max"), 16)
                if case.identity.startswith("oracle_al_salam"):
                    self.assertTrue(0 < p["q"] < 1)
                    self.assertNotEqual(p["a_from"], 0)
                    self.assertNotEqual(p["a_to"], 0)
                    continue
                if "alpha" in p:
                    self.assertGreater(p["alpha"], 0)
                    self.assertTrue(0 < p["c"] < 1)
                if "beta" in p:
                    self.assertGreater(p["beta"], 0)
                    self.assertNotEqual((p["beta"] - p["alpha"]).denominator, 1)
                if "d" in p:
                    self.assertTrue(0 < p["d"] < 1)
                if "N" in p:
                    self.assertTrue(p["N"] == 16 <= p.get("M", 16))
                p.pop("x_samples", None)
                if case.identity in relation_ids():
                    spec = get_relation(case.identity)
                    self.assertEqual(set(p), set(spec.names))
                    get_family(spec.family).bind(spec.source(p))
                    get_family(spec.family).bind(spec.target(p))
            for check in checks:
                family = get_family(check.family)
                family.bind(check.source)
                family.bind(check.target)
                self.assertIsInstance(check.source["a"], complex)


if __name__ == "__main__":
    unittest.main()
