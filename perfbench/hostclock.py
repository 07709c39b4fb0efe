"""Host time, normalised for the speed of a shared host.

The benchmark's host is a virtual machine whose cores other tenants
share: the same pure-Python work runs up to 1.6x slower from one minute
to the next (see README.md).  Raw seconds measured minutes apart are
then not comparable, so the benchmark reports every end-to-end time in
*reference seconds*: raw host seconds scaled by how fast the host ran a
fixed calibration kernel, sampled all through the timed phase.

:class:`HostClock` runs the kernel from a ``SIGALRM`` timer every
``INTERVAL_S`` (so it also samples inside one long call into the
program), subtracts the kernel's own time from the phase, and scales
the rest by ``mean(REFERENCE_S / sample)``.  The kernel is the
benchmark's own code; no change to the program can speed it up or slow
it down.
"""

import heapq
import signal
import statistics
import time

#: calibration kernel time that defines one reference second (the
#: kernel's typical time on the host where the benchmark was defined)
REFERENCE_S = 0.005
#: null set-up probe time (``probe.py null``) in reference seconds: the
#: unit of ``setup_s``, which spans process start and imports, work the
#: kernel above tracks less well than a process of the same kind
NULL_PROBE_REFERENCE_S = 0.08
INTERVAL_S = 0.25


def calibration_kernel():
    """Fixed interpreter-bound work: dict updates, heap traffic and
    integer arithmetic, like the simulator's inner loops."""
    table = {}
    heap = []
    total = 0
    for i in range(6000):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return total


def sample():
    started = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - started


class HostClock:
    """Context manager timing one phase.

    After exit, ``elapsed_s`` is the phase's host seconds, ``raw_s`` the
    same without the calibration samples taken inside it and
    ``seconds`` ``raw_s`` in reference seconds.
    """

    def __init__(self):
        self.samples = []
        self.elapsed_s = None
        self.raw_s = None
        self.seconds = None

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed_s = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        self.raw_s = self.elapsed_s - sum(self.samples[1:-1])
        self.seconds = self.raw_s * self.speed()
        return False

    def speed(self):
        """Mean of REFERENCE_S / sample: above 1 on a faster host."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
