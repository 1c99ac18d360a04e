"""Machine-speed references for the end-to-end times.

On a shared machine the speed of the same single-threaded code swings by up
to 1.6x, in phases from a fraction of a second to minutes, with no steal
time and with process CPU time following wall time (see README.md).  So the
harness runs a fixed reference kernel, which calls no slly code, between
tasks and scales each measured time by how fast that kernel ran around it:

    reported seconds = measured seconds * nominal / mean kernel seconds

that is, seconds on a machine where the kernel takes its nominal time.  A
change to slly moves the measured seconds and leaves the kernel alone.

Interpreter-bound and memory-bound code slow down by different amounts in
the same phase, so each workload names the kernel that resembles its own
hot loop (``workloads.REFERENCE``): ``interpreter`` (dict updates and
complex arithmetic, like the chamber calculus) or ``sparse-lu`` (a sparse
LU factorisation and solves of the size the lattice spectra factorise).
"""

from __future__ import annotations

import functools
import time


def interpreter() -> None:
    counts: dict[int, int] = {}
    total = 0j
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += complex(i, 1) * 0.5


@functools.cache
def _laplacian(side: int = 120):
    """A shifted 2-D Laplacian on a side x side grid (14400 unknowns), with its right-hand side."""
    import numpy as np
    import scipy.sparse as sp

    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    eye = sp.eye(side)
    matrix = (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.eye(side * side)).tocsc()
    return matrix, np.ones(side * side)


def sparse_lu() -> None:
    from scipy.sparse.linalg import splu

    matrix, rhs = _laplacian()
    lu = splu(matrix)
    for _ in range(3):
        lu.solve(rhs)


#: reference calls just before a worker starts, and again right after its set-up
SETUP_SAMPLES = 4

#: kernel name -> (kernel, nominal seconds)
KERNELS = {
    "interpreter": (interpreter, 0.010),
    "sparse-lu": (sparse_lu, 0.050),
}


def sample(kernel: str) -> float:
    """Seconds of one call of ``kernel``."""
    fn = KERNELS[kernel][0]
    if fn is sparse_lu:
        _laplacian()  # built once, outside the timed call
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def scale(seconds: float, kernel: str, kernel_seconds: list[float]) -> float:
    """``seconds`` at the nominal speed of ``kernel``, given its times sampled around them."""
    return seconds * KERNELS[kernel][1] * len(kernel_seconds) / sum(kernel_seconds)
