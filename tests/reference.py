"""Reference helpers the tests compare the package against; no command uses them.

They live here rather than in ``src`` so that numpy stays the package's one
runtime dependency (``match_spectra`` needs scipy).  pytest puts ``tests/``
on ``sys.path``, so the tests import this module as ``reference``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from centro_spectra.moments import MomentQuery, exact_mixed_trace_moment


def complex_from_pairs(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs, bit for bit: the float64 pairs are
    reinterpreted as complex128, so signed zeros and infinities survive
    (re + 1j*im would not)."""
    a = np.asarray(pairs, dtype=np.float64)
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.shape[-1:] != (2,):
        raise ValueError(f"expected [re, im] pairs, got shape {a.shape}")
    return np.ascontiguousarray(a).view(np.complex128)[..., 0]


def match_spectra(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pair distance in the matching of least total distance.

    The pairing solves the assignment problem on the full |a_i - b_j|
    matrix (scipy's linear_sum_assignment).  A greedy nearest-neighbor pass
    can instead spend a close eigenvalue on the wrong partner: {0, 0.5}
    against {0.3, -0.4} gives 0.9 greedily and 0.4 here.  O(n^2) memory,
    O(n^3) time.
    """
    from scipy.optimize import linear_sum_assignment

    va = np.asarray(a, dtype=np.complex128)
    vb = np.asarray(b, dtype=np.complex128)
    if len(va) != len(vb):
        raise ValueError(f"multiset sizes differ: {len(va)} vs {len(vb)}")
    if len(va) == 0:
        return 0.0
    d = np.abs(va[:, None] - vb[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def exact_single_trace_moment(n: int, k: int) -> Fraction:
    """E[Tr(M^k)]: the l = 0 query; exactly zero for the Gaussian law."""
    return exact_mixed_trace_moment(MomentQuery(n=n, k=k, l=0))
