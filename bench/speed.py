"""The machine's speed, sampled while the benchmark measures.

Small shared hosts drift between speeds up to 1.7x apart, in phases that
last from seconds to minutes, so raw wall times of identical runs spread
by more than any useful bound.  A ``SpeedProbe`` times a small fixed task
that does not use ringext (exact elimination of a seeded 5 x 5 rational
matrix, the kind of work ringext spends its time on) from a SIGALRM
handler every ``PERIOD`` seconds, so the samples fall inside the
operations being measured.  ``rescale`` turns an operation's wall time
into the time it would take at the speed where that task takes
``TICK_SECONDS``, using the median of the samples taken during the
operation, or of the nearest ones for an operation shorter than a few
periods.  The handler costs about 1% of the run.
"""

import bisect
import contextlib
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# the median tick() taken inside benchmark runs on a 2-core VM with
# Python 3.11, so that rescaled times read close to wall times there
TICK_SECONDS = 0.0009
MIN_SAMPLES = 5


def tick() -> float:
    """Wall seconds of the fixed task."""
    start = time.perf_counter()
    rng = random.Random(0)
    n = 5
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - start


class SpeedProbe:
    """Samples tick() every PERIOD seconds of wall time between __enter__
    and __exit__; must be used from the main thread."""

    def __init__(self) -> None:
        self.at: list = []        # perf_counter() when each sample began
        self.seconds: list = []   # tick() of each sample

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(tick())

    @contextlib.contextmanager
    def paused(self):
        """No samples inside, for work done by another process, which a
        sample would compete with; samples taken right before and after
        stand in for it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(MIN_SAMPLES):
            self._sample()
        try:
            yield
        finally:
            for _ in range(MIN_SAMPLES):
                self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def rescale(self, wall: float, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.at))
        return wall * TICK_SECONDS / statistics.median(self.seconds[lo:hi])
