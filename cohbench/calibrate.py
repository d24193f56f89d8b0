"""Host-speed calibration: a fixed kernel timed next to every task.

The shared host this benchmark was built on changes the speed of its CPUs
by up to 1.9x, in stretches of seconds to minutes, whatever the process
does: the same task, doing the same solver iterations, takes 310 ms in one
second and 610 ms a few seconds later, and a whole 36 s run can fall in a
slow stretch.  Raw times therefore spread by 15-30% between runs of the
same code.  The benchmark reports every time at the host's reference
speed instead: an interval measured next to calibration samples that took
``c`` milliseconds is scaled by ``REFERENCE_MS / c``.  On a host running
at its reference speed the scale is 1 and the figure is the wall time.

The kernel is fixed code of the benchmark's own, of the same kind as the
package's hot loops (cyclic Jacobi rotations written in Python over small
numpy arrays), so that it slows down with the host as the package does,
but never speeds up when the package does.
"""

import statistics
import time

import numpy as np

# About the time of one sample on the reference host (2 vCPUs of a shared
# "Intel(R) Xeon(R) Processor" at 2.0 GHz, Python 3.11, numpy 2.4): a
# sample takes 1.9-2.2 ms there in fast stretches and up to 4.4 ms in slow
# ones.  Only the ratio of two figures of this benchmark means
# anything; this constant just keeps the figures near wall-clock values.
REFERENCE_MS = 2.5
WINDOW = 2          # samples on each side of a task that set its scale
SETUP_WINDOW = 4    # the same around a set-up probe, which runs longer

_N = 6
_rng = np.random.Generator(np.random.Philox(key=7))
_g = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))
_A0 = _g @ _g.conj().T


def _sweep(a: np.ndarray) -> None:
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            r = abs(apq)
            phase = apq / r
            tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            xp, xq = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * xp - s * np.conj(phase) * xq
            a[:, q] = s * xp + c * np.conj(phase) * xq
            xp, xq = a[p, :].copy(), a[q, :].copy()
            a[p, :] = c * xp - s * phase * xq
            a[q, :] = s * xp + c * phase * xq


def sample() -> float:
    """Time of one calibration sample, in milliseconds."""
    t0 = time.perf_counter()
    for _ in range(10):
        a = _A0.copy()
        _sweep(a)
    return (time.perf_counter() - t0) * 1e3


def scale(samples, i: int) -> float:
    """Factor that brings an interval measured between calibration samples
    ``i - 1`` and ``i`` to the reference speed: the median of the samples
    within ``WINDOW`` of it on each side."""
    near = samples[max(0, i - WINDOW):i + WINDOW]
    return REFERENCE_MS / statistics.median(near)
