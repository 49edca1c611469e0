"""Dense complex matrix helpers shared by sampling, reduction, eigen, harness and cli.

Matrices are plain numpy arrays of complex128, treated as immutable values:
every function returns fresh arrays and never mutates its inputs.
Eigenvalues travel as plain 1-D complex128 arrays; no type wraps them.
``single_blas_thread`` runs a block with OpenBLAS on one thread, and
``available_cpus`` is the CPU count that sizes every worker pool and
allows the block solver's helper thread.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

__all__ = [
    "PowerIterationError",
    "as_complex_matrix",
    "available_cpus",
    "complex_to_pairs",
    "counter_identity",
    "operator_norm_estimate",
    "single_blas_thread",
]


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message, last_estimate, iterations):
        super().__init__(message)
        self.last_estimate = float(last_estimate)
        self.iterations = int(iterations)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix and validate finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def complex_to_pairs(value) -> list:
    """JSON encoder hook (``json.dumps(obj, default=complex_to_pairs)``): a
    complex scalar gives one [re, im] pair and a complex ndarray gives pairs
    nested like its shape, every float keeping its bits.  Anything else
    raises TypeError, so an integer or a Fraction is never written as a pair."""
    if isinstance(value, complex):  # numpy complex128 scalars included
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray) and value.dtype.kind == "c":
        return np.stack((value.real, value.imag), axis=-1).tolist()
    raise TypeError(f"{type(value).__name__} is not a complex scalar or array")


def counter_identity(s: int) -> np.ndarray:
    """The s-by-s exchange matrix J: ones on the anti-diagonal.

    J is symmetric and involutive (J = J^T, J @ J = I), exactly; s = 0
    gives the 0-by-0 J, and a negative s fails in numpy.
    """
    return np.fliplr(np.eye(s, dtype=np.complex128))


def operator_norm_estimate(m, tol: float = 1e-6, max_iterations: int | None = None) -> float:
    """Largest singular value via power iteration on M* M.

    Runs to relative accuracy ``tol``, capped at max(10*n, 4096) iterations
    unless ``max_iterations`` overrides it.  10*n alone starves small
    matrices: a singular-value ratio of 1 - g needs on the order of
    log(tol)/g iterations before the successive-change test settles, which
    peaks near 500 for tol = 1e-6; the floor is cheap at the sizes where it
    binds.  The estimate approaches the true norm from below, so it always
    dominates the spectral radius up to O(tol).
    """
    m = as_complex_matrix(m)
    n = m.shape[0]
    cap = max(10 * n, 4096) if max_iterations is None else int(max_iterations)

    # Deterministic pseudo-random start: avoids accidental orthogonality
    # to the top singular vector while keeping the function pure.  As a
    # list, the key's first entry would become a float64 and lose bits.
    key = np.array([0x9E3779B97F4A7C15, n], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)

    sigma = 0.0
    for it in range(max(cap, 1)):
        w = m @ v
        new_sigma = float(np.linalg.norm(w))
        if new_sigma == 0.0:
            return 0.0
        u = m.conj().T @ w
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return new_sigma
        v = u / nu
        if it > 0 and abs(new_sigma - sigma) <= tol * new_sigma:
            return new_sigma
        sigma = new_sigma
    raise PowerIterationError(
        f"power iteration did not converge within {cap} iterations (tol={tol})",
        last_estimate=sigma,
        iterations=cap,
    )


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports
    one (so ``taskset`` counts), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas_thread_controls() -> tuple:
    """(set, get) thread-count entry points of every loaded OpenBLAS
    (numpy's, and scipy's if imported before the first call), found by name
    in /proc/self/maps once per process, as every block solve pins (the scan
    takes 0.46 ms, the calls 3 us); empty where there is none or no such file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                set_name = f"{prefix}openblas_set_num_threads{suffix}"
                get_name = f"{prefix}openblas_get_num_threads{suffix}"
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    controls.append((set_threads, get_threads))
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, and restore
    each old thread count on exit; yields whether any OpenBLAS was found.

    OpenBLAS's blocking, and so the last bits of an eigensolve, depends on
    its thread count, so a solve inside the block gives the same bits
    whatever ``OPENBLAS_NUM_THREADS`` says.  Processes forked inside the
    block inherit the setting.  A count already at one is left alone: in a
    forked child, any set restarts OpenBLAS's thread pool, whose new thread
    spun for about 0.1 s of CPU.
    """
    controls = _openblas_thread_controls()
    counts = [(set_threads, get_threads()) for set_threads, get_threads in controls]
    pinned = [(set_threads, count) for set_threads, count in counts if count != 1]
    for set_threads, _ in pinned:
        set_threads(1)
    try:
        yield bool(controls)
    finally:
        for set_threads, count in pinned:
            set_threads(count)

