"""Spectral statistics of random centrosymmetric matrices.

Sampling of the scaled Gaussian centrosymmetric ensemble, the exact
orthogonal block reduction Q^T M Q = diag(T1, T2), eigensolvers (dense and
halved-cost block path), Monte Carlo harnesses for the circular law, the
LES central limit theorem and the resolvent-trace covariance kernel, and an
exact Wick-pairing oracle for mixed trace moments.
"""

from .eigen import (
    EigenSolverError,
    eigenvalues_centrosymmetric,
    eigenvalues_dense,
    match_spectra,
    spectral_radius,
)
from .harness import (
    RunConfig,
    SummaryStats,
    TestPolynomial,
    TrialBatch,
    covariance_kernel,
    les,
    predicted_sigma2,
    resolvent_series_gap,
    resolvent_trace,
    run_circular_law_experiment,
    run_clt_experiment,
    run_covariance_kernel_experiment,
)
from .linalg import (
    PowerIterationError,
    Spectrum,
    counter_identity,
    operator_norm_estimate,
)
from .moments import (
    BudgetExceededError,
    MomentQuery,
    MomentResult,
    asymptotic_prediction,
    exact_mixed_trace_moment,
    exact_single_trace_moment,
    mc_trace_moment,
)
from .reduction import BlockReduction, block_reduce, build_orthogonal_q, verify_reduction
from .sampling import (
    CentrosymmetricMatrix,
    SeedStream,
    is_centrosymmetric,
    moment_self_test,
    sample_centrosymmetric,
)

__version__ = "0.1.0"
