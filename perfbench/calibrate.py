"""Calibration kernels that put timings on a common machine speed.

On a shared host the speed of a core drifts with the neighbours' load: the
same job can take 1.5 to 1.9 times as long, in spells that last from about a
second to tens of seconds. A figure from one run would then say more about
the neighbours than about the code. So the runner times a fixed kernel,
independent of koopmankit, between jobs, and scales each job by the kernel's
``REFERENCE_S`` over the mean of the two kernel times around it: times then
read as seconds on a core that runs the kernel in ``REFERENCE_S``.

There are two kernels, and each workload names the one shaped like its
work (``Workload.calibration``). ``interp`` is an explicit-Euler loop over
two-element numpy arrays, the shape of work in koopmankit's per-point
evaluation and integration loops. ``dense`` builds and solves one 400 x 400
Kronecker-sum system, the shape of a Riccati solve's Lyapunov step: on this
kind of host, dense LAPACK work and interpreter work slow down in different
spells, so neither kernel tracks the other's.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 3


def _interp_kernel():
    x = np.array([1.0, -1.0])
    c = np.array([-0.05, -1.0])
    for _ in range(1500):
        x = x + 0.001 * (c * x + np.array([0.0, x[0] * x[0]]))
    return x


_DENSE_A = np.random.default_rng(0).standard_normal((20, 20)) / np.sqrt(20.0)
_DENSE_RHS = np.ones(400)


def _dense_kernel():
    eye = np.eye(20)
    coeff = np.kron(_DENSE_A.T, eye) + np.kron(eye, _DENSE_A.T)
    return np.linalg.solve(coeff, _DENSE_RHS)


KERNELS = {"interp": _interp_kernel, "dense": _dense_kernel}
# kernel seconds between jobs on a 2-core Intel Xeon virtual machine with
# numpy 2.4, so that scaled times read close to raw ones there
REFERENCE_S = {"interp": 0.005, "dense": 0.0065}


def kernel_seconds(kind="interp"):
    """Median time of one kernel over a few repeats."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Calibrated:
    """Scales job times by kernel timings taken around every stretch of jobs.

    A stretch closes once its jobs have run ``stretch_s`` seconds, so a long
    job is bracketed on its own and short ones share a bracket.
    """

    def __init__(self, kind, stretch_s=0.25):
        self.kind = kind
        self.stretch_s = stretch_s
        self._before = kernel_seconds(kind)
        self._open = []  # (list, index) of job times in the open stretch
        self._open_s = 0.0
        self.factors = []

    def add(self, times, index):
        """Record that ``times[index]`` is a raw job time to be scaled."""
        self._open.append((times, index))
        self._open_s += times[index]
        if self._open_s >= self.stretch_s:
            self.close()

    def close(self):
        if not self._open:
            return
        after = kernel_seconds(self.kind)
        factor = REFERENCE_S[self.kind] / (0.5 * (self._before + after))
        self.factors.append(factor)
        for times, index in self._open:
            times[index] *= factor
        self._before, self._open, self._open_s = after, [], 0.0


def scaled_once(seconds):
    """``seconds`` scaled by one kernel timing taken right after."""
    return seconds * REFERENCE_S["interp"] / kernel_seconds()
