"""Host-speed gauge: a fixed numpy/scipy kernel timed between tasks.

On a shared host the CPU time of one and the same task drifts by 10-30%
between runs minutes apart, and within a run in stretches that last tens of
seconds: other guests on the same physical cores change how much work one
CPU second does.  Medians over a run cannot remove a drift that covers the
whole run.

The gauge runs a kernel that does not touch ``mfg_lab`` and mixes the kinds
of work the workloads do (short numpy calls on 64-node arrays, a dense SVD,
a sparse LU) for a small share of the run, before every task and after the
last.  The host speed around a task is the gauge's reference time
``REFERENCE_S`` over its median time in the two gaps next to the task:
below 1 on a slower host.  How closely task times follow it depends on the
workload, so ``task_scales(sensitivity)`` raises each task's host speed to
the workload's ``host_sensitivity`` (workloads.py); task CPU seconds times
that scale are seconds at reference speed.  A change to the package cannot
move the gauge, so a faster package shows in full.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/calibration.py [seconds]

prints the gauge's median unit time on this machine, the way
``REFERENCE_S`` was measured (run.py pins BLAS to one thread too).
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# median CPU seconds of one unit on the machine the benchmark was written on
# (2-vCPU Xeon VM, one BLAS thread, numpy 2.4, scipy 1.17)
REFERENCE_S = 0.0091
# gauge CPU time between two tasks, as a share of the task before it
SHARE = 0.05
MIN_UNITS = 4


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._u0 = np.cos(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
        self._dense = rng.standard_normal((144, 144))
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(32, 32))
        self._sparse = (sp.kronsum(lap, lap) + sp.eye(32 * 32)).tocsc()
        self.gaps: list[list[float]] = []  # unit times of each run() call
        self._unit()  # warm-up: first calls pay for lazy imports

    @property
    def samples(self) -> list[float]:
        return [t for gap in self.gaps for t in gap]

    def _unit(self) -> float:
        c0 = time.process_time()
        u = self._u0
        for _ in range(96):
            g = np.roll(u, -1) - u
            u = u - 0.1 * (g - np.roll(g, 1)) + 0.01 * g * g
            u = u / np.max(np.abs(u))
        np.linalg.svd(self._dense, compute_uv=False)
        splu(self._sparse)
        return time.process_time() - c0

    def run(self, task_s: float = 0.0) -> None:
        """One gap: time the kernel for SHARE of task_s CPU seconds, MIN_UNITS
        times at least."""
        gap: list[float] = []
        while len(gap) < MIN_UNITS or sum(gap) < SHARE * task_s:
            gap.append(self._unit())
        self.gaps.append(gap)

    def speed(self) -> float:
        """Host speed over the whole run."""
        return REFERENCE_S / statistics.median(self.samples)

    def task_scales(self, sensitivity: float) -> list[float]:
        """For the task between gap i and gap i + 1, the factor that takes its
        CPU seconds to reference speed, given that its log time falls by
        `sensitivity` per log host speed."""
        return [(REFERENCE_S / statistics.median(before + after)) ** sensitivity
                for before, after in zip(self.gaps, self.gaps[1:])]


if __name__ == "__main__":
    gauge = Gauge()
    deadline = time.perf_counter() + (float(sys.argv[1]) if len(sys.argv) > 1 else 30.0)
    while time.perf_counter() < deadline:
        gauge.run()
    q = statistics.quantiles(gauge.samples, n=4)
    print(f"{len(gauge.samples)} units: median {statistics.median(gauge.samples)!r} s, "
          f"quartiles {q[0]!r} .. {q[2]!r} s")
