"""Host-speed reference of the phaseflow benchmark.

The shared 2-vCPU host this benchmark was built on runs the same
single-threaded Python up to ~2x slower in spells that last from seconds to
minutes; CPU time slows as much as wall time, so the core itself runs slower.
A whole run can fall inside one spell, and then no statistic over its units
can tell a slow host from a slow program.

So the benchmark also times a fixed reference burst between its units: an
LSTM-like recurrence of small numpy operations driven from a Python loop,
the same kind of work as the package's per-frame step. The burst never calls
the package, so a change to the package cannot move it. Single-threaded
units also get a burst every SAMPLE_EVERY_S seconds, on a timer signal, as
the host changes speed within a second; the time of those bursts is taken
out of the unit's own timings (see HostSpeed.clock). A unit's host slowness is the mean of the
bursts from the one just before it to the one just after it, divided by
NOMINAL_S. Units that run on worker threads (infer_dataset's pool) are
bracketed by bursts on as many threads at once, since their speed also
depends on how the threads share the cores and the interpreter lock; each end-to-end value is divided (times) or multiplied (rates) by
the slowness of the unit it came from, which puts it at the reference speed.
The raw values are kept in the details line.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from time import perf_counter

import numpy as np

ITERS = 100
SAMPLE_EVERY_S = 0.1
# bursts per thread when several threads run at once: the threads hand the
# interpreter lock over every 5 ms, so a short burst measures the hand-over
THREADED_REPEATS = 4
# One burst on the host this was built on in its fast spells (~25 us per
# iteration). It only sets the scale: a slowness of 1.0 means that speed.
NOMINAL_S = 2.5e-3

_rng = np.random.default_rng(20090681)
_W = (_rng.standard_normal((100, 256)) * 0.1).astype(np.float32)
_HEAD = (_rng.standard_normal((64, 7)) * 0.1).astype(np.float32)
_X = _rng.standard_normal((ITERS, 36)).astype(np.float32)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _burst() -> float:
    h = np.zeros(64, np.float32)
    c = np.zeros(64, np.float32)
    acc = np.zeros(7, np.float32)
    for x in _X:
        z = np.concatenate([x, h]) @ _W
        i, f, o, g = np.split(z, 4)
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
        logits = h @ _HEAD
        e = np.exp(logits - logits.max())
        acc += e / e.sum()
    return float(acc.sum())


def _repeats(threads: int) -> int:
    return 1 if threads == 1 else THREADED_REPEATS


def _bursts(n: int) -> None:
    for _ in range(n):
        _burst()


def burst_seconds(threads: int = 1) -> float:
    """Wall time of reference bursts on each of `threads` threads at once."""
    n = _repeats(threads)
    workers = [threading.Thread(target=_bursts, args=(n,)) for _ in range(threads - 1)]
    t0 = perf_counter()
    for w in workers:
        w.start()
    _bursts(n)
    for w in workers:
        w.join()
    return perf_counter() - t0


class HostSpeed:
    """Reference bursts of one run, and a clock that leaves them out."""

    def __init__(self):
        self.bursts: dict[int, list[float]] = {1: []}   # by thread count
        self.count = 0
        self._in_bursts = 0.0

    def sample(self, threads: int = 1) -> None:
        t = burst_seconds(threads)
        self.bursts.setdefault(threads, []).append(t)
        self.count += 1
        self._in_bursts += t

    def clock(self) -> float:
        """perf_counter() minus the time spent in bursts so far."""
        return perf_counter() - self._in_bursts

    @contextlib.contextmanager
    def sampling(self):
        """Take a burst every SAMPLE_EVERY_S seconds inside the block. Only
        for single-threaded blocks on the main thread: a burst that competes
        with worker threads for the interpreter lock measures the lock."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def slowness_since(self, first: int, threads: int = 1) -> float:
        """Mean of the `threads`-thread bursts from index `first` on, over
        the time their bursts take one after another at NOMINAL_S."""
        tail = self.bursts[threads][first:]
        return sum(tail) / len(tail) / (threads * _repeats(threads) * NOMINAL_S)
