"""Host-speed calibration: fixed reference work sampled during every operation.

On a shared host the same operation can take twice as long in one second as
in the next, because the speed of the cores the process gets changes
(neighbours on the same physical cores, frequency). The changes are too fast
to be followed by timing reference work before and after an operation, so
the benchmark samples the host's speed *during* it: while an operation runs,
an interval timer interrupts the main thread every ``INTERVAL_S`` and a
signal handler times one ``snippet`` of fixed work. The operation's wall and
CPU times exclude the handler's time and are scaled by
``REFERENCE_S / mean snippet time``: the result is the time the operation
would take with the host at the snippet's reference speed. The snippet uses
only Python and numpy, never feedlab, so a change to the program moves the
scaled times exactly as it moves the raw ones.

The snippet mixes interpreter work (a loop over floats with dict updates,
like the per-impression Python of the program) with small numpy calls, in
about equal time. It allocates no Python containers and runs with the
garbage collector paused, so it never collects the operation's garbage.
Signal handlers run between bytecodes, so a long C call (a big numpy
operation) delays the next sample; CPython retries system calls that a
signal interrupts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# seconds one snippet takes at the reference speed: its time on the 2-vCPU
# Intel Xeon VM the benchmark was tuned on, in a quiet period. A constant,
# so scaled times of different runs are comparable.
REFERENCE_S = 0.00035
INTERVAL_S = 0.02
BURST = 100  # snippets in one stand-alone measurement (set-up scaling)

_values = [float(i) * 0.37 for i in range(1500)]
_counts = {k: 0.0 for k in range(31)}
_arr = np.arange(64, dtype=float)


def snippet() -> float:
    acc = 0.0
    k = 0
    for v in _values:
        _counts[k] += v
        acc += v * 0.5
        k = k + 1 if k < 30 else 0
    for _ in range(30):
        acc += float(np.exp(_arr * 0.01).mean()) + float(_arr[::3].sum())
    return acc


def snippet_seconds() -> float:
    """Wall seconds of one warm snippet, with the garbage collector paused.

    The untimed first run makes the time independent of what the
    interrupted operation left in the caches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        snippet()  # untimed: loads the snippet's code and data into the caches
        t0 = time.perf_counter()
        snippet()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst_seconds() -> float:
    """Median seconds of one snippet over a burst of ``BURST`` back to back."""
    return statistics.median(snippet_seconds() for _ in range(BURST))


def scale(seconds: float, snippet_s: float) -> float:
    """``seconds`` measured while a snippet took ``snippet_s``, at the reference speed."""
    return seconds * REFERENCE_S / snippet_s


class Sampler:
    """Samples snippet times during a ``with`` block (one operation).

    Use only from the main thread. ``record()`` gives the wall and CPU
    seconds of the block without the handler's time, the mean snippet time,
    and both times scaled by it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_wall_s = self.handler_cpu_s = 0.0
        self.wall_s = self.cpu_s = 0.0

    def _sample(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.samples.append(snippet_seconds())
        self.handler_cpu_s += time.process_time() - c0
        self.handler_wall_s += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._c0, self._t0 = time.process_time(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0 - self.handler_wall_s
        self.cpu_s = time.process_time() - self._c0 - self.handler_cpu_s
        signal.signal(signal.SIGALRM, self._previous)

    def record(self) -> dict[str, float]:
        if not self.samples:  # a block shorter than one interval
            self.samples.append(burst_seconds())
        snippet_s = statistics.fmean(self.samples)
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "calibration_s": snippet_s,
            "calibration_samples": len(self.samples),
            "wall_scaled_s": scale(self.wall_s, snippet_s),
            "cpu_scaled_s": scale(self.cpu_s, snippet_s),
        }
