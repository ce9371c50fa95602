"""Host speed, sampled from a thread of the benchmark process.

The container shares its cores with other tenants, and how fast they
let it run drifts over seconds and minutes: identical passes of one
workload ranged 1.9-3.3 s within one minute.  While a
:meth:`HostSpeed.sampling` block runs, a thread wakes every ``EVERY``
seconds and times one fixed piece of interpreter work that does not
touch the program (a 3000-entry dict built and sorted, about a
millisecond).  Its samples, taken while the program runs in the same
process, say how fast the host was at each moment.

``scale(start, end)`` is ``REFERENCE_S`` over the 20%-trimmed mean of
the samples taken in that window: multiplying a host time measured in
the window by it gives the time on a host where one sample takes
``REFERENCE_S``.  The trimmed mean, not the mean: a sample that the
kernel or the garbage collector interrupts reads several times too
long.  Per pass, a trimmed mean of such samples correlated with the
pass seconds at 0.80-0.98, depending on the workload (2-CPU Xeon
container).

Call :func:`pin` before sampling: the process then runs on one CPU, so
the samples time the CPU the program runs on, also while NumPy has
released the interpreter lock.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import List, Tuple

#: seconds between samples
EVERY = 0.05
#: seconds of one sample on the host the scaled times are expressed
#: for: about its typical value on the 2-CPU Xeon container the bounds
#: were measured on
REFERENCE_S = 0.0012
#: share of the samples dropped at each end before averaging
TRIM = 0.2
#: fewest samples a window needs
MIN_SAMPLES = 5


def _work() -> None:
    table = {i: (i, i * 0.5) for i in range(3000)}
    sorted(table.values(), key=lambda v: -v[1])


def pin() -> None:
    """Run this process, and the threads and children it starts from
    now on, on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Host-speed samples, taken from a thread while ``sampling()``
    blocks run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (end, seconds)

    @contextlib.contextmanager
    def sampling(self):
        """Sample while the block runs, and on until there are at least
        ``MIN_SAMPLES`` samples."""
        stop = threading.Event()
        thread = threading.Thread(target=self._loop, args=(stop,), daemon=True)
        thread.start()
        try:
            yield self
        finally:
            while len(self.samples) < MIN_SAMPLES and thread.is_alive():
                time.sleep(EVERY)
            stop.set()
            thread.join()

    def _loop(self, stop: threading.Event) -> None:
        while not stop.wait(EVERY):
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def sample_s(self, start: float, end: float) -> float:
        """Trimmed mean of the samples that ended in [start, end], or of
        the ``MIN_SAMPLES`` nearest to its middle when fewer did."""
        window = [s for t, s in self.samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))
            window = [s for _, s in nearest[:MIN_SAMPLES]]
        window.sort()
        cut = int(len(window) * TRIM)
        kept = window[cut:len(window) - cut]
        return sum(kept) / len(kept)

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_S / self.sample_s(start, end)
