"""Host-speed probe: a fixed piece of work timed in the measured process.

The shared 2-CPU machine the benchmark was tuned on runs the same code at
two speeds about 1.6 times apart, switching every few seconds, so one
audit's wall time says as much about the host as about the program. The
benchmark therefore times ``kernel``, which uses neither the package nor its
inputs, in the process it measures: every ``PERIOD_S`` during an audit
(``Sampler``) and right after a fresh process has set up (``burst``). A time
divided by the typical kernel time of its own process and window, times
``REFERENCE_S``, is that time on a host where the kernel takes
``REFERENCE_S``: a faster or slower program moves it as much as its wall
time, a faster or slower host much less. A change that makes the program
itself load the CPU differently while the kernel runs, such as more or
fewer busy threads, moves the kernel too, so it can move such a time by
less or more than its wall time.

Run as a script, it is the set-up baseline: a fresh Python that imports
numpy and nothing of the package prints the monotonic time it got there,
then its ``burst`` time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.001
# Seconds between two samples during an audit: about 1 % of the audit.
PERIOD_S = 0.1
BURST = 20
_V = np.linspace(0.0, 1.0, 24)


def kernel() -> float:
    """Wall seconds taken by fixed work like the audit's: small numpy updates
    of a dense array and float and dict work in a Python loop (about 1 ms).

    Wall time, not the thread's CPU time, because the host also slows the
    audit by taking its CPUs away for stretches (steal time reached 14 % of
    both CPUs over 10 s), which CPU time leaves out: three ``ladder-100``
    runs that took 1.6 times the usual wall time moved a CPU-time kernel by
    only 10 %."""
    start = time.perf_counter()
    table = np.outer(_V, _V[:16]) + 1.0
    acc, seen = 0.0, {}
    for k in range(60):
        col = table[:, k % 16].copy()
        table -= np.outer(col, table[k % 24]) * 1e-6
        acc += float(np.dot(col, col))
        for j in range(40):
            acc += (j * 0.5) % 3.0
            seen[(k, j & 7)] = acc
    return time.perf_counter() - start


def typical(samples) -> float:
    """Mean of ``samples`` without their highest and lowest tenth.

    The host switches between its two speeds within a window, and the
    measured code runs at each for its share of the window, which the mean
    weighs in and the median does not; trimming drops samples that an
    interrupt or a page fault lengthened."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def burst() -> float:
    """Typical time of ``BURST`` kernel samples taken back to back."""
    return typical([kernel() for _ in range(BURST)])


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` in the main thread while active.

    A ``SIGALRM`` handler takes the samples, so they interleave with the
    measured code on the CPU it runs on; the measured code must not use
    ``SIGALRM``. The samples add about 1 % to the wall time of the code and
    of any trace span open when they run.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def typical(self) -> float:
        """Typical sample, or a burst when the window was too short for one."""
        return typical(self.samples) if self.samples else burst()


if __name__ == "__main__":
    print(time.monotonic(), burst())
