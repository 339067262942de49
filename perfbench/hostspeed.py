"""The host's speed, measured by a fixed stdlib reference workload.

The benchmark machine is a share of a host whose speed drifts: the same
pure-Python work runs up to twice as slow, for minutes at a time and in
swings of a few seconds, on process CPU time as much as on wall time (no
steal shows in /proc/stat), so neither a longer run nor CPU time removes
it.  ``run.py`` times this reference right before and
right after every measured pass and set-up probe, and during a pass a
``SIGALRM`` handler times a short sample of it every ``PERIOD_S`` seconds.
The measurement, less the time spent in the samples, is rescaled to the
host speed at which ``reference()`` takes ``REFERENCE_S``:

    reported = (measured - samples) * REFERENCE_S / reference time now

where the reference time now is pooled, per product, over the references
before and after and the samples in between; for a part of the measurement
as short as one case, over the samples within ``LOCAL_S`` of it.

The reference does the two kinds of work the verifier does, in about equal
time: many small exact ``Fraction`` operations (the products and sums of a
truncated series, like the GF sides and connection tables) and few
operations on integers of thousands of bits (a sum of c^x (beta)_x / x!
over a lattice, like the orthogonality sums).  A drifting host slows the
two by different amounts, so a reference of one kind alone over- or
under-corrects the workloads dominated by the other.  It touches no
hyperconnect code, so a change to the library moves the reported times
exactly as it moves wall time; only the host's drift cancels.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_REPS = 20
PERIOD_S = 0.25
SAMPLE_REPS = 1
# Samples this close to a case set its factor: the host's speed swings
# within a second, and on gf_order24 this cut the pass-to-pass variation of
# one case's time from 0.14 to 0.10 of its mean (0.15 at 0.6 s or more).
LOCAL_S = 0.3
SERIES_ORDER = 48
LATTICE_TERMS = 280
LATTICE_C = Fraction(5, 11)
LATTICE_BETA = Fraction(7, 3)
# Time of one reference() on the baseline machine when the host is quiet
# (about its fastest tenth), so that reported times read as quiet-host seconds.
REFERENCE_S = 0.14


def _series_product() -> Fraction:
    a = [Fraction(1, k + 2) for k in range(SERIES_ORDER)]
    b = [Fraction(k + 1, 2 * k + 3) for k in range(SERIES_ORDER)]
    c = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(SERIES_ORDER)]
    return c[-1]


def _lattice_sum() -> Fraction:
    term, total = Fraction(1), Fraction(0)
    for x in range(LATTICE_TERMS):
        term = term * LATTICE_C * (LATTICE_BETA + x) / (x + 1)
        total += term
    return total


def _products(reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        _series_product()
        _lattice_sum()
    return time.perf_counter() - start


def reference() -> float:
    """Seconds the reference workload takes now."""
    return _products(REFERENCE_REPS)


def _factor(per_product: float) -> float:
    return REFERENCE_S / (REFERENCE_REPS * per_product)


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two references into
    quiet-host seconds."""
    return _factor((before + after) / (2 * REFERENCE_REPS))


class Sampler:
    """Samples the host speed during the measurement it surrounds.

        with Sampler(before) as speed:
            measure()
        measured_without_samples = measured - speed.paused
        quiet_host_seconds = measured_without_samples * speed.factor

    ``speed.samples`` holds the (start, seconds) of every sample, so that
    a measurement of part of the block can leave out the samples inside it
    and be rescaled by ``speed.local_factor``.

    ``before`` is a ``reference()`` timed just before; leaving the block
    times the next one, ``speed.after``, which can serve as the following
    measurement's ``before``.  The handler only computes on its own data,
    so the interrupted code behaves as it would without it.
    """

    def __init__(self, before: float):
        self.before = before
        self.samples: list = []
        self.paused = 0.0
        self.after = before
        self.factor = 1.0
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), _products(SAMPLE_REPS)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.after = reference()
        self.paused = sum(seconds for _, seconds in self.samples)
        reps = SAMPLE_REPS * len(self.samples) + 2 * REFERENCE_REPS
        self.factor = _factor((self.paused + self.before + self.after) / reps)
        return False

    def local_factor(self, begin: float, end: float) -> float:
        """Factor for a part of the block from ``begin`` to ``end``, from the
        samples that started within ``LOCAL_S`` of it; the whole block's
        when there are none."""
        near = [seconds for at, seconds in self.samples
                if begin - LOCAL_S <= at <= end + LOCAL_S]
        if not near:
            return self.factor
        return _factor(sum(near) / (SAMPLE_REPS * len(near)))
