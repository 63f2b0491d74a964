"""Fixed reference kernel that calibrates the benchmark's timings.

The kernel mixes the two kinds of work that dominate painlab: pure-Python
complex/tuple arithmetic shaped like the ``Dual`` forward-mode loop, and
3x3 complex numpy products shaped like the Fuchsian right-hand side.  It
imports numpy only, never painlab, so a change to painlab cannot change
the kernel.  Timings are reported as raw seconds scaled by
``NOMINAL_REF_S`` over the mean kernel time measured in the same run.
All times are process CPU seconds, see :data:`clock`.
"""

from __future__ import annotations

import time

import numpy as np

# Mean CPU time of one kernel call on the reference machine (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4, BLAS pinned to one thread), measured
# once inside benchmark runs and then frozen; see README.md.
NOMINAL_REF_S = 0.0024

# Process CPU time, not wall time: the timed work is single-threaded and
# does no I/O, so the two differ only by the time the process waits for
# a CPU, which on a shared machine is noise.  A thread the program might
# start is still counted.
clock = time.process_time

_WIDTH = 6
_DUAL_ITERS = 180
_MAT_ITERS = 60
_POINTS = (1.7 + 0.8j, 1.0, 0.0)
_RESIDUES = tuple(
    np.array([[0.3 + 0.1j * k, -0.2, 0.1j],
              [0.05 * k, -0.1 + 0.2j, 0.3],
              [0.1, 0.2j, 0.15 * k - 0.2]], dtype=complex)
    for k in range(3))


def _dual_part():
    # val/grad pairs multiplied and added like Dual.__mul__/__add__
    v, g = 0.3 + 0.1j, tuple(complex(j == 0) for j in range(_WIDTH))
    w, h = 0.7 - 0.2j, tuple(complex(j == 1) for j in range(_WIDTH))
    for _ in range(_DUAL_ITERS):
        p = v * w
        pg = tuple(w * a + v * b for a, b in zip(g, h))
        v, g = 0.5 * p + 0.25, tuple(0.5 * a for a in pg)
        w, h = w * w * 0.9 + 0.1j, tuple(1.8 * w * b for b in h)
    return v + sum(g) + sum(h)


def _matrix_part():
    y = np.eye(3, dtype=complex).ravel()
    for k in range(_MAT_ITERS):
        x = -2j + 0.01 * k
        m = sum(a / (x - t) for a, t in zip(_RESIDUES, _POINTS))
        y = 0.5 * (m @ y.reshape(3, 3)).ravel() + 0.5 * y
    return complex(y.sum())


def reference_kernel() -> complex:
    """One fixed unit of reference work; the result is returned so that
    none of it can be skipped."""
    return _dual_part() + _matrix_part()


def time_kernel() -> float:
    """CPU seconds taken by one call of :func:`reference_kernel`."""
    t0 = clock()
    reference_kernel()
    return clock() - t0
