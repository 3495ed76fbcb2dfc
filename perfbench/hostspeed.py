"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core changes often and by a lot.  On
the 2-core Xeon guest this benchmark was built on, a fixed loop ran at
one of two speeds about a factor 1.9 apart, switching within a fifth of
a second, with CPU time equal to wall time.  Those swings move raw times
far more than a real change to the program would.

So a process that times work also samples the host's speed while the
work runs.  ``Speedometer`` takes a timer signal every ``INTERVAL_S``;
the handler runs in the main thread, on the CPU the work runs on, and
times one round of a fixed pure-Python loop that does the same kind of
work as burnside (integer arithmetic, dict and tuple operations).  A
time is reported in reference seconds:

    reported = (measured - time spent in the handler) * REF_S / mean round

where the mean is over the rounds sampled during the work (or the
nearest ones, for work shorter than a few intervals), leaving out rounds
more than three times the median, which the OS preempted.  That is the time
the work would take on a host where one round takes ``REF_S``.  The loop
does not touch burnside, so a change to the program moves the measured
time and not the rounds.  The raw seconds are kept in the result files.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# one round takes about this long on a 2 GHz Xeon core when the host is
# quiet; the value only sets the scale of reported times
REF_S = 0.0001
INTERVAL_S = 0.01
# work shorter than this many samples is scaled by its nearest samples
MIN_SAMPLES = 4


def _round() -> int:
    counts = {}
    acc = 0
    for i in range(300):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        pair = (key, i & 7)
        acc += (pair[0] ^ len(counts)) + pair[1]
    return acc


class Speedometer:
    """Samples the host's speed from SIGALRM while the process works."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _round()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference(self, t0: float, t1: float):
        """(raw seconds, reference seconds) of the work done in [t0, t1].

        Raw seconds leave out the time the handler took inside the window.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        rounds = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        raw = (t1 - t0) - sum(rounds)
        if len(rounds) < MIN_SAMPLES:
            # the nearest samples on either side of a short window
            near = range(max(0, lo - MIN_SAMPLES // 2),
                         min(len(self.starts), hi + MIN_SAMPLES // 2))
            rounds = [self.ends[i] - self.starts[i] for i in near]
        if not rounds:
            raise RuntimeError("no speed samples were taken")
        # a round the OS preempted says nothing about the core's speed
        cap = 3 * statistics.median(rounds)
        return raw, raw * REF_S / statistics.fmean(r for r in rounds if r <= cap)
