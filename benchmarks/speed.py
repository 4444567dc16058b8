"""How fast the core ran during a timed call, sampled from inside the call.

On a shared virtual machine the speed one process sees swings by up to a
third within seconds, as the host's load changes.  A ``SpeedProbe``
interrupts the measuring thread every ``PERIOD_S`` of wall time (SIGALRM)
and times a fixed kernel there: small batched complex matrix products and a
small dict, the mix of interpreter dispatch and small numpy calls that a
filter tick is made of.  ``speed`` is the mean over the samples of
``KERNEL_REF_S / kernel time``, the core's average speed during the call
relative to the reference speed.  Wall time x ``speed`` is then the time the
call would have taken at the reference speed.  The kernel is the benchmark's
own code, so a change to the package does not move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
#: kernel time at the reference speed: the 2-core box the benchmark was
#: defined on, at its usual (slower) speed
KERNEL_REF_S = 2.1e-4

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(64, 6, 6)) + 1j * _rng.normal(size=(64, 6, 6))
# Preallocated results: a kernel that allocated would hit fresh pages while
# the workload grows its heap and read slow for reasons of its own.
_H = np.empty_like(_A)
_Y = (np.empty_like(_A), np.empty_like(_A))
_SCALE = np.empty((64, 1, 1))


def _kernel() -> None:
    x = _A
    for i in range(4):
        y = _Y[i % 2]
        np.conj(np.swapaxes(x, -1, -2), out=_H)
        np.matmul(x, _H, out=y)
        np.abs(y[..., :1, :1], out=_SCALE)
        np.divide(y, _SCALE, out=y)
        x = y
        {j: j * 2 for j in range(20)}


class SpeedProbe:
    """Context manager sampling the kernel while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean core speed during the block, relative to the reference."""
        if not self.samples:
            return 1.0
        return sum(KERNEL_REF_S / s for s in self.samples) / len(self.samples)
