"""CPU speed sampling, to report times at a fixed reference speed.

The machines this benchmark runs on share their CPUs with other tenants, and
the same single-threaded computation takes from 1x to 2x as long from one
minute to the next.  A background thread therefore times a short fixed
piece of work every PERIOD seconds on the same CPU as the workload (the
process is pinned to one CPU).  An operation's wall time, less the samples
taken during it, times REFERENCE_SAMPLE_S * (mean of 1 / sample time during
it), is the time it would have taken at the reference speed.  The sample
does not touch liewalk, so a change to the program moves the scaled time as
it moves the wall time.
"""

import threading
import time

import numpy as np

PERIOD = 0.02
REFERENCE_SAMPLE_S = 0.0005   # sample time at the reference speed


def _sample() -> float:
    """Python arithmetic and the small-matrix numpy calls liewalk is made of:
    array construction, finiteness and row-sum checks, a 2x2 solve, a norm."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2000):
        x += i
    acc = np.eye(2)
    for _ in range(25):
        a = np.asarray([[0.9, 0.1], [0.2, 0.8]], dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite sample matrix")
        np.abs(a.sum(axis=1) - 1.0).max()
        acc = np.linalg.solve(a, acc @ a)
        np.linalg.norm(acc)
    return time.perf_counter() - t0


class SpeedMeter:
    """Context manager running the sampler thread; joined on exit."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            start = time.perf_counter()
            self.samples.append(_sample())
            self.starts.append(start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without the samples in it, at the reference speed."""
        pairs = list(zip(list(self.starts), list(self.samples)))
        inside = [s for start, s in pairs if t0 <= start < t1]
        if not inside:  # too short to be sampled: use the latest sample
            inside = [s for start, s in pairs if start < t1][-1:] or [_sample()]
        # work done is speed integrated over time, so average the speed
        # (1 / sample time), not the sample time
        speed = sum(1.0 / x for x in inside) / len(inside)
        return (t1 - t0 - sum(inside)) * REFERENCE_SAMPLE_S * speed
