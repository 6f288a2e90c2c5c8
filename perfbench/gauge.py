"""Machine-speed gauge: corrects measured times for drift in machine speed.

On a shared machine, the speed of one core drifts by tens of percent over
seconds to minutes. Process CPU time drifts with it, so the drift is not
waiting for a core. A fixed numpy kernel drifts in the same way when it does
the same kind of work as the workload. Each workload names the kernel that
matches it:

- ``small`` runs many tiny LAPACK calls, as the n <= 6 pipelines do, and
  one 200x200 solve;
- ``kron`` builds and solves one 625x625 Kronecker system, as
  ``solve_lyapunov`` does at n=20 and n=40.

The kernels call no npdg code, so no change to npdg can move them.

While a gauge runs, an interval timer interrupts the benchmark at a fixed
period. Each time, the kernel runs once in the signal handler and its time
is recorded. A timed call's wall time then loses the kernel time spent
inside it, and is scaled by ``ref_s / k``. Here ``k`` is the median kernel
time sampled during the call, or at the ``MIN_SAMPLES`` samples nearest to
it. Corrected times read as seconds on a machine where the kernel takes
``ref_s``.

Two sets of ten 30-second runs, each run with its own seed, were taken on
one 2-CPU machine. The spread of ``games_per_s`` between quartiles, as a
share of the median, was:

| workload | raw | corrected |
|---|---|---|
| ``sweep_small`` | 26%, 4% | 3.5%, 2.9% |
| ``cli_verify`` | 10%, 20% | 3.4%, 3.7% |
| ``verify_large`` | 16%, 14% | 6.2%, 6.3% |

Between the two sets, the raw ``sweep_small`` median moved by 17% and the
corrected one by 6%.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
_DENSE = _rng.normal(size=(200, 200)) + 200.0 * np.eye(200)
_KRON_F = _rng.normal(size=(25, 25)) - 25.0 * np.eye(25)
_KRON_W = _rng.normal(size=625)


def _small():
    for _ in range(150):
        np.linalg.solve(_SMALL, _SMALL @ _SMALL)
    np.linalg.solve(_DENSE, _DENSE)


def _kron():
    ident = np.eye(_KRON_F.shape[0])
    np.linalg.solve(np.kron(ident, _KRON_F) + np.kron(_KRON_F, ident), _KRON_W)


# kernel name -> (kernel, reference seconds, timer period in seconds). A
# reference is the kernel's time on the 2-CPU machine the benchmark was
# written on (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread) when that
# machine ran fastest. Each period keeps the kernel near 3% of the time.
KERNELS = {"small": (_small, 0.0025, 0.1), "kron": (_kron, 0.010, 0.4)}


class Gauge:
    def __init__(self, kernel: str):
        self._kernel, self.ref_s, self.period_s = KERNELS[kernel]
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        """Sample the kernel every ``period_s`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def net(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end`` without kernel time."""
        return end - start - sum(dt for t, dt in self.samples if start <= t < end)

    def corrected(self, start: float, end: float) -> float:
        """Net seconds from ``start`` to ``end`` at the reference speed."""
        inside = [dt for t, dt in self.samples if start <= t < end]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [dt for _, dt in nearest]
        return self.net(start, end) * self.ref_s / statistics.median(inside)
