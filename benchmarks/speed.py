"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose CPU speed changes by
up to 1.7x within a second, and stays slow for seconds to many minutes.
No statistic over a 30 s run removes that, so every time measured in a
timed pass is scaled to a fixed reference speed:

    scaled time = measured time * REF_UNIT_S / (time of the reference unit
                                                measured around it)

The reference unit is a fixed piece of pure-Python work of the kind the
symop layers do (products of dicts keyed by partition tuples).  It lives
here, so no change to `src/` changes it; a program that gets slower by a
fifth reads a fifth slower in scaled time, whatever the machine's speed.

During a timed pass a SIGALRM handler times the unit every INTERVAL_S of
wall time, in the measured process itself.  Its own time is left out of
the scaled time.
"""

import bisect
import signal
import time

# time of one warm reference unit at the reference speed: a round figure
# between the unit's time in the fast phases (about 70 us) and the slow
# phases (about 120 us) of the 2.1 GHz Xeon VM the benchmark was made on
REF_UNIT_S = 1.0e-4
INTERVAL_S = 0.04

_PARTS = [
    tuple(sorted(((i * 7) % 5 + 1, (i * 3) % 4 + 1, i % 3 + 1), reverse=True))
    for i in range(24)
]
_LEFT = {p: i + 1 for i, p in enumerate(_PARTS[:12])}
_RIGHT = {p: 2 * i - 5 for i, p in enumerate(_PARTS[12:])}


def ref_unit():
    """Product of two 12-term dicts keyed by partitions."""
    out = {}
    for a, x in _LEFT.items():
        for b, y in _RIGHT.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _timed_unit(clock=time.perf_counter):
    """One warm-up unit, so the timing does not depend on what the program
    left in the caches, then the time of one unit."""
    ref_unit()
    t0 = clock()
    ref_unit()
    return clock() - t0


class SpeedSampler:
    """Samples the reference unit's time throughout a timed phase.

    Use as `with SpeedSampler() as s: ...`; then `s.scaled(a, b)` is the
    scaled duration of the perf_counter interval [a, b] within the phase.
    A sample is also taken on entry and on exit, so even a phase shorter
    than INTERVAL_S has two.
    """

    def __init__(self):
        self.samples = []  # (start, end, unit_s): the handler ran in [start, end]
        self._old = None
        self._points = self._cum = self._rate = None

    def _sample(self, *_args):
        t0 = time.perf_counter()
        unit = _timed_unit()
        self.samples.append((t0, time.perf_counter(), unit))

    def __enter__(self):
        for _ in range(5):
            ref_unit()
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self._build()
        return False

    def _build(self):
        # Piecewise-constant rate of scaled time per second: zero while the
        # handler runs, between two samples the mean of their speeds.  A
        # single sample tracks the machine better than a rolling median,
        # because the machine switches speed within a fraction of a second.
        units = [u for _s, _e, u in self.samples]
        points, rate = [], []
        for i, (start, end, unit) in enumerate(self.samples):
            nxt = units[i + 1] if i + 1 < len(units) else unit
            points += [start, end]
            rate += [0.0, REF_UNIT_S * 2 / (unit + nxt)]
        cum = [0.0]
        for j in range(1, len(points)):
            cum.append(cum[-1] + (points[j] - points[j - 1]) * rate[j - 1])
        self._points, self._cum, self._rate = points, cum, rate

    def _at(self, t):
        # the first sample is taken before the phase starts, so j >= 0
        j = bisect.bisect_right(self._points, t) - 1
        return self._cum[j] + (t - self._points[j]) * self._rate[j]

    def scaled(self, a, b):
        """Scaled duration of [a, b], the sampler's own time left out."""
        return self._at(b) - self._at(a)

    def handler_s(self, a, b):
        """Time the sampler itself took within [a, b]."""
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e, _u in self.samples)
