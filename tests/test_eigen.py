import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centro_spectra.cli import parse_and_dispatch
from centro_spectra.eigen import (
    eigenvalues_centrosymmetric,
    eigenvalues_dense,
    match_spectra,
    spectral_radius,
)
from centro_spectra.linalg import operator_norm_estimate
from centro_spectra.sampling import CentrosymmetricMatrix, SeedStream, sample_centrosymmetric


def _sorted(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def test_diagonal_matrix():
    lam = eigenvalues_dense(np.diag([1.0, 2.0j, -3.0]))
    assert np.abs(_sorted(lam) - _sorted([1.0, 2.0j, -3.0])).max() <= 1e-12


def test_exchange_matrix():
    lam = eigenvalues_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(_sorted(lam) - _sorted([1.0, -1.0])).max() <= 1e-12


def test_companion_cube_roots_of_unity():
    # companion matrix of z^3 - 1
    c = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    assert match_spectra(eigenvalues_dense(c), roots) <= 1e-10


def test_trace_identities_hold():
    rng = np.random.default_rng(17)
    for n in (3, 8, 20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = eigenvalues_dense(m)
        assert abs(lam.sum() - np.trace(m)) <= 1e-10 * n * np.linalg.norm(m)


_ZGEEV = np.linalg.eigvals


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda lam: np.where(np.arange(len(lam)) == 0, np.nan, lam), id="nan"),
    pytest.param(lambda lam: np.where(np.arange(len(lam)) == 0, np.inf, lam), id="inf"),
    pytest.param(lambda lam: lam + 1e-6, id="shifted"),
])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * inf in Tr M^2
def test_eigenvalue_check_rejects_bad_zgeev_output(monkeypatch, capsys, corrupt):
    """The one check on zgeev's output rejects a NaN, an inf and eigenvalues
    that miss the trace identities, and inside a run it fails the trial."""
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: corrupt(_ZGEEV(m)))
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        eigenvalues_dense(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    assert parse_and_dispatch(["clt", "--n", "8", "--trials", "4", "--poly", "1"]) == 2
    assert "trial 0 failed: eigenvalue check failed" in capsys.readouterr().err


def test_centrosymmetric_2x2_closed_form():
    a, b = 0.7 + 0.1j, -0.3 + 2.0j
    cm = CentrosymmetricMatrix.from_matrix(np.array([[a, b], [b, a]]))
    lam = eigenvalues_centrosymmetric(cm)
    assert np.abs(_sorted(lam) - _sorted([a + b, a - b])).max() <= 1e-12


def test_centrosymmetric_identity():
    cm = CentrosymmetricMatrix.from_matrix(np.eye(6))
    assert np.abs(eigenvalues_centrosymmetric(cm) - 1.0).max() <= 1e-12


def test_centrosymmetric_n1():
    cm = CentrosymmetricMatrix.from_matrix(np.array([[2.5 - 1j]]))
    lam = eigenvalues_centrosymmetric(cm)
    assert lam.dtype == np.complex128 and lam.tolist() == [2.5 - 1j]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 48), seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**32))
@example(n=1, seed=0, stream=0)
@example(n=2, seed=0, stream=0)
def test_block_path_matches_dense_path(n, seed, stream):
    """One block path for every n and both parities, within criterion 1's tolerance."""
    cm = sample_centrosymmetric(n, stream=SeedStream(seed, stream))
    tol = 1e-8 * n * (1.0 + operator_norm_estimate(cm.matrix, tol=1e-3))
    assert match_spectra(eigenvalues_centrosymmetric(cm), eigenvalues_dense(cm.matrix)) <= tol


def test_block_path_16x16_tight():
    cm = sample_centrosymmetric(16, stream=SeedStream(8, 0))
    assert match_spectra(
        eigenvalues_centrosymmetric(cm), eigenvalues_dense(cm.matrix)
    ) <= 1e-8


def test_scaling_covariance():
    cm = sample_centrosymmetric(10, stream=SeedStream(19, 0))
    base = eigenvalues_dense(cm.matrix)
    for c in (2.0, 1.0j):
        scaled = eigenvalues_dense(c * cm.matrix)
        assert match_spectra(scaled, c * base) <= 1e-8


def test_spectral_radius():
    assert spectral_radius(np.array([1.0, -1.0])) == 1.0
    assert spectral_radius(np.array([2.0j, 0.5])) == 2.0
    with pytest.raises(ValueError):
        spectral_radius(np.empty(0, dtype=complex))


def test_spectral_radius_concentrates_at_one():
    cm = sample_centrosymmetric(512, stream=SeedStream(1, 0))
    assert spectral_radius(eigenvalues_centrosymmetric(cm)) <= 1.15


def test_match_spectra_mismatched_sizes():
    a = np.array([1.0 + 0j])
    b = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        match_spectra(a, b)


def test_match_spectra_pairs_by_least_total_distance():
    # greedy nearest-neighbor pairs 0 with 0.3 and leaves 0.5 to -0.4 (0.9)
    a = np.array([0.0, 0.5])
    b = np.array([0.3, -0.4])
    assert match_spectra(a, b) == pytest.approx(0.4)
    assert match_spectra(b, a) == pytest.approx(0.4)

