"""Eigenvalues of dense complex matrices and the fast centrosymmetric path.

Eigenvalues are plain 1-D complex128 arrays (a multiset: their order
carries no meaning).  The dense solver delegates to LAPACK's zgeev
(balancing + Hessenberg reduction + shifted QR with deflation) and checks
its output once, where zgeev returns it: every eigenvalue must be finite
and the eigenvalue sums must reproduce Tr(M) and Tr(M^2) to within
1e-8 * n * ||M||^p.  The centrosymmetric path runs the block reduction
first and solves the two half-size blocks, for every n >= 1 (at n = 1, T1
is the centre entry and T2 is empty); it measured 1.8-2.7x cheaper than
the dense path and must agree with it as a multiset.

``eigenvalues_centrosymmetric`` owns the whole solve policy: it pins
OpenBLAS to one thread, so its bits do not depend on the BLAS thread
setting, and from 512-blocks on one helper thread solves T2 while the
caller solves T1 (zgeev releases the GIL), with the same bits.  s-blocks
on one BLAS thread each, serial against threaded (2 vCPUs): 32 of 256 took
2.66-2.93 s against 3.03-3.44 s, 4 of 512 2.31-3.29 s against 1.28-1.70 s.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_complex_matrix, available_cpus, single_blas_thread
from .reduction import block_reduce
from .sampling import CentrosymmetricMatrix

__all__ = [
    "EigenSolverError",
    "eigenvalues_centrosymmetric",
    "eigenvalues_dense",
    "spectral_radius",
]

_TOL = 1e-8  # relative tolerance of the trace identities
_HELPER_MIN_SIDE = 512  # T2's side from which a helper thread solves it


class EigenSolverError(RuntimeError):
    """The solve failed: QR did not converge or the eigenvalue check failed."""


def eigenvalues_dense(m) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, as a 1-D complex128 array.

    Raises EigenSolverError on QR non-convergence and unless every
    eigenvalue is finite and the trace identities

        |sum(lam) - Tr M|     <= 1e-8 * n * ||M||_F
        |sum(lam^2) - Tr M^2| <= 1e-8 * n * ||M||_F^2

    hold (Frobenius norm, an upper bound on the operator norm).
    """
    m = as_complex_matrix(m)
    n = m.shape[0]
    try:
        lam = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"QR iteration failed for shape {m.shape}: {exc}") from exc

    scale = max(float(np.linalg.norm(m)), 1e-300)
    trace_err = abs(lam.sum() - np.trace(m))
    trace2_err = abs((lam * lam).sum() - (m * m.T).sum())  # Tr M^2 in O(n^2)
    # a NaN fails every comparison; isfinite catches the inf eigenvalue of
    # a matrix whose norm overflows, which would pass inf <= inf
    bound = _TOL * n * scale
    if not (np.isfinite(lam).all() and trace_err <= bound and trace2_err <= bound * scale):
        raise EigenSolverError(
            f"eigenvalue check failed: |dTr|={trace_err:.3e}, "
            f"|dTr2|={trace2_err:.3e} at tol={_TOL}"
        )
    return lam


def eigenvalues_centrosymmetric(cm: CentrosymmetricMatrix) -> np.ndarray:
    """Eigenvalues of M as the union of the spectra of T1 and T2 (any n >= 1).

    OpenBLAS runs on one thread, and on two CPUs a helper thread solves T2
    once its side reaches ``_HELPER_MIN_SIDE``; the helper is joined before
    this returns, and a failure of either solve is raised here.  The half
    of ``cm`` is dropped before the solves, so a caller that keeps no
    reference to ``cm`` frees it first (CPython 3.10 still holds a call's
    arguments on the caller's stack).
    """
    with single_blas_thread():
        t1, t2 = block_reduce(cm)
        del cm
        if t2.shape[0] < _HELPER_MIN_SIDE or available_cpus() < 2:
            return np.concatenate([eigenvalues_dense(t1), eigenvalues_dense(t2)])
        from concurrent.futures import ThreadPoolExecutor  # loaded on use, not at import
        with ThreadPoolExecutor(1) as helper:
            lam2 = helper.submit(eigenvalues_dense, t2)
            lam1 = eigenvalues_dense(t1)
        return np.concatenate([lam1, lam2.result()])


def spectral_radius(eigenvalues: np.ndarray) -> float:
    """max |lambda| over the eigenvalues."""
    if len(eigenvalues) == 0:
        raise ValueError("spectral radius of an empty spectrum")
    return float(np.abs(eigenvalues).max())
