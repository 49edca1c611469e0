"""Spectral statistics of random centrosymmetric matrices.

Sampling of the scaled Gaussian centrosymmetric ensemble, the exact
orthogonal block reduction Q^T M Q = diag(T1, T2), eigensolvers (dense and
halved-cost block path), Monte Carlo harnesses for the circular law, the
LES central limit theorem and the resolvent-trace covariance kernel, and
exact oracles (chain enumeration and Wick pairings) for mixed trace moments.
Import the submodules directly, e.g. ``from centro_spectra import moments``.
"""

__version__ = "0.1.0"
