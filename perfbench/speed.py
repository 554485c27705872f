"""Machine-speed probe: wall time of a region and the same time in nominal
seconds, corrected for how fast the machine ran meanwhile.

On a shared host the speed of this process swings with the load of its
neighbours: on a 2-core VM the same op ran 1.7x faster for a few seconds at
a time, and the share of such phases drifted over minutes. A median over
one run then says more about the host's load during that run than about the
program. The probe samples the machine's speed with a fixed kernel while
the region runs and rescales the region's time to a fixed nominal speed.
"""

import signal
import statistics
import time

import numpy as np

# A kernel runs every INTERVAL_S inside a timed region, and once right
# before and once right after it. Either kernel takes about 0.5 ms here, so
# the probe takes about 2% of a region.
INTERVAL_S = 0.025

# Kernel time at nominal speed, per kind of kernel. A region's nominal
# seconds are its wall seconds at the speed at which one kernel run takes
# this long; the values are the kernels' median times on the 2-core x86-64
# VM of the baseline.
NOMINAL_KERNEL_S = {"interpreter": 0.00052, "memory": 0.00059}


class SpeedProbe:
    """Times a call in wall and in nominal seconds.

    Two kinds of kernel match the two kinds of pointsaga work. The
    interpreter kernel is small matrix-vector products driven from a Python
    loop, like the solver's inner loop at small n and d. The memory kernel
    copies and updates a 2 MB array, like the passes over an n-by-d table
    at large n. On a 2-core VM the interpreter kernel sped up 1.7x in the
    host's fast phases while a solve at n=20000 sped up about 1.15x; the
    memory kernel tracked that solve more closely. A workload names the
    kind whose speed moves with its own.

    Inside the region the kernel runs from a SIGALRM handler, between two
    bytecodes of the program; it reads and writes none of the program's
    data, so the program's outputs do not change. Kernel time inside the
    region is taken out of its wall time. The nominal time is

        wall * NOMINAL_KERNEL_S[kind] * mean(1 / kernel time)

    over every kernel run of the region: each run stands for an equal slice
    of the region, and 1 / kernel time is the speed in that slice.
    """

    def __init__(self, kind):
        self._nominal = NOMINAL_KERNEL_S[kind]
        rng = np.random.default_rng(0)
        if kind == "interpreter":
            self._matrix = rng.normal(size=(8, 8)) / 8
            self._vector = rng.normal(size=8)
            self._work = self._interpreter_work
        else:
            self._block = rng.normal(size=2**18)
            self._copy = np.empty_like(self._block)
            self._work = self._memory_work
        self._samples = []
        self._busy = False

    def _interpreter_work(self):
        x = self._vector
        for _ in range(100):
            x = self._matrix @ x
            x = x / (1.0 + float(np.sqrt(x @ x)))

    def _memory_work(self):
        np.copyto(self._copy, self._block)
        np.add(self._copy, 1.0, out=self._copy)

    def _kernel(self, *_signal_args):
        if self._busy:  # an alarm that arrives during the kernel is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        self._samples.append(time.perf_counter() - t0)
        self._busy = False

    def time(self, fn, *args):
        """Call fn(*args); return (result, wall seconds, nominal seconds)."""
        self._samples = []
        self._kernel()
        previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            inside = self._samples[1:]
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(inside)
        self._kernel()
        speed = statistics.fmean(1.0 / p for p in self._samples)
        return result, wall, wall * self._nominal * speed
