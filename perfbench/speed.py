"""Wall times scaled to the speed this shared machine had while they ran.

The host that runs the benchmark is shared: the same deterministic command
takes 30-40% longer while other tenants are busy, and that state changes
within minutes.  The spread this adds between runs is larger than the bound
a benchmark can set, so each timed command is also scaled to a fixed speed.

While a command runs, a fixed reference kernel (the mix of interpreted and
NumPy work that sepfilt itself runs) is timed at its start, at
its end and every ``INTERVAL_S`` in between, from a timer signal in the same
thread.  Each sample gives the machine's speed as ``KERNEL_REF_S / sample``.
The scaled time is the command's own time (wall time minus the kernel time)
times the mean speed, that is, the time the command would take at the speed
at which the kernel takes ``KERNEL_REF_S``.  Faster code gives a smaller
scaled time exactly as it gives a smaller wall time; a busier host does not.

The kernel assumes single-threaded BLAS, as ``run.py`` sets for its workers;
with BLAS threads its NumPy products can take tens of times longer.
"""

import signal
import time

import numpy

INTERVAL_S = 0.1
# The kernel's time, run back to back, on an idle host of the reference
# machine (a 2-vCPU Xeon VM at 2.1 GHz); it only sets the scale of the
# reported times.
KERNEL_REF_S = 0.001

_RNG = numpy.random.default_rng(0)
_MATRIX = _RNG.random((120, 120))
_ROWS = _RNG.random((214, 214))
_PICK = _RNG.integers(0, 214, 40)


def kernel():
    """Seconds one fixed piece of sepfilt-like work takes.

    Three parts of similar length: interpreted dict updates, many small
    NumPy calls on rows of a distance-like matrix (the shape of
    ``fit_in_ball``'s loop) and a few larger NumPy products.  How much a busy
    host slows each part differs; the mix tracks both the interpreted search
    and the compiled distance work.
    """
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = i % 509
        table[key] = table.get(key, 0) + i * 3 % 11
    best = numpy.inf
    for i in range(200):
        best = min(best, float(_ROWS[i % 214][_PICK].max()))
    for _ in range(4):
        product = _MATRIX @ _MATRIX
        product.sort(axis=1)
    return time.perf_counter() - start


def scale(own_s, samples):
    """``own_s`` at reference speed, given kernel times taken around it."""
    return own_s * sum(KERNEL_REF_S / s for s in samples) / len(samples)


class Probe:
    """Kernel samples taken while a block runs, and its time without them.

    ``wall_s`` is the block's wall time minus the time spent in the kernel,
    ``scaled_s`` that time at reference speed.
    """

    def _tick(self, *signal_args):
        self.samples.append(kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = time.perf_counter() - self._start - sum(self.samples)
        self.scaled_s = scale(self.wall_s, self.samples)
        return False
