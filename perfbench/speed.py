"""Track the CPU's speed while a timed region runs, to scale its time to a
reference speed.

On a shared host the same pass can take twice as long in one minute as in
the next: neighbours change how fast this process's CPU runs, with no steal
time reported, and CPU time slows as much as wall time.  ``SpeedProbe``
runs a fixed probe kernel every ``interval`` seconds from a ``SIGALRM``
handler inside the region, so it samples the speed the region actually ran
at.  Then::

    reference seconds = (wall - probe time) * mean(reference kernel time / kernel time)

that is, the region's own time scaled by the probe kernel's speed, averaged
over the region.  Each workload picks the kernel closest to its own hot
path: ``interp`` (interpreted Python and numpy calls on tiny arrays) or
``blas`` (logistic gradients and losses on a 3.2 MB matrix).  The kernels use
nothing from optstab, so a change to optstab cannot change them.

A handler runs only between Python bytecodes of the main thread, so a long
call into C delays a sample rather than splitting it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


def _interp_kernel(state) -> None:
    """Interpreted Python plus numpy calls on tiny arrays."""
    acc, table = 0, {}
    for i in range(2000):
        acc += i * i % 7
        table[i & 63] = acc
    m = state["small"]
    for _ in range(60):
        m = state["small"] @ m
        m = m / np.abs(m).max()
        acc += float(state["vec"].sum())


def _blas_kernel(state) -> None:
    """A logistic gradient and a block of logistic losses on a 2000 x 200
    (3.2 MB) matrix: BLAS products plus transcendental element-wise work."""
    state["design"].T @ (state["design"] @ state["theta"])
    float(np.logaddexp(0.0, -(state["design"] @ state["thetas"])).sum())


# Each kernel, and the seconds one call of it takes on the reference machine
# (a 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11 and numpy 2.4 / OpenBLAS
# 0.3, 2 BLAS threads) in one of its fast stretches.  The seconds only fix
# the unit: any constant would do, as long as it never changes.
KERNELS = {"interp": (_interp_kernel, 4.4e-4),
           "blas": (_blas_kernel, 6.8e-4)}


class SpeedProbe:
    """Context manager: samples one probe kernel throughout its block."""

    def __init__(self, kind: str = "interp", interval: float = 0.025):
        self.kernel, self.reference_s = KERNELS[kind]
        self.interval = interval
        rng = np.random.Generator(np.random.Philox(0))
        self._state = {"small": rng.standard_normal((2, 2)),
                       "vec": rng.standard_normal(16)}
        if kind == "blas":
            self._state.update(design=rng.standard_normal((2000, 200)),
                               theta=rng.standard_normal(200),
                               thetas=rng.standard_normal((200, 8)))
        self.samples: list = []
        self.probe_s = 0.0
        self._previous = None

    def _time_kernel(self) -> None:
        start = time.perf_counter()
        self.kernel(self._state)
        self.samples.append(time.perf_counter() - start)

    def _sample(self, *_) -> None:
        self._time_kernel()
        self.probe_s += self.samples[-1]

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.probe_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # One sample at each edge, so that even a region shorter than the
        # interval gets a speed.
        self._time_kernel()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._time_kernel()

    @property
    def speed(self) -> float:
        """Mean speed over the block relative to the reference (1 = as fast)."""
        return statistics.fmean(self.reference_s / s for s in self.samples)

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s``, measured inside this block, less the time the probe
        took inside it, scaled to the reference speed."""
        return (wall_s - self.probe_s) * self.speed
