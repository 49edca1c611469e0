import json
from dataclasses import asdict

import numpy as np
import pytest

from centro_spectra.eigen import (
    eigenvalues_centrosymmetric,
    eigenvalues_dense,
    match_spectra,
    spectral_radius,
)
from centro_spectra.linalg import (
    Spectrum,
    complex_from_pairs,
    complex_to_pairs,
    operator_norm_estimate,
)
from centro_spectra.sampling import CentrosymmetricMatrix, SeedStream, sample_centrosymmetric


def _sorted(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def test_diagonal_matrix():
    spec = eigenvalues_dense(np.diag([1.0, 2.0j, -3.0]))
    assert np.abs(_sorted(spec.eigenvalues) - _sorted([1.0, 2.0j, -3.0])).max() <= 1e-12


def test_exchange_matrix():
    spec = eigenvalues_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(_sorted(spec.eigenvalues) - _sorted([1.0, -1.0])).max() <= 1e-12


def test_companion_cube_roots_of_unity():
    # companion matrix of z^3 - 1
    c = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    spec = eigenvalues_dense(c)
    assert match_spectra(spec, Spectrum(eigenvalues=roots)) <= 1e-10


def test_trace_identities_hold():
    rng = np.random.default_rng(17)
    for n in (3, 8, 20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = eigenvalues_dense(m, tol=1e-10).eigenvalues
        assert abs(lam.sum() - np.trace(m)) <= 1e-10 * n * np.linalg.norm(m)


def test_trace_contract_rejects_wrong_tolerance():
    # a zero tolerance cannot be met by floating point arithmetic
    rng = np.random.default_rng(2)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    with pytest.raises(ValueError):
        eigenvalues_dense(m, tol=0.0)


def test_centrosymmetric_2x2_closed_form():
    a, b = 0.7 + 0.1j, -0.3 + 2.0j
    cm = CentrosymmetricMatrix.from_matrix(np.array([[a, b], [b, a]]))
    spec = eigenvalues_centrosymmetric(cm)
    assert np.abs(_sorted(spec.eigenvalues) - _sorted([a + b, a - b])).max() <= 1e-12


def test_centrosymmetric_identity():
    cm = CentrosymmetricMatrix.from_matrix(np.eye(6))
    spec = eigenvalues_centrosymmetric(cm)
    assert np.abs(spec.eigenvalues - 1.0).max() <= 1e-12


def test_centrosymmetric_n1():
    cm = CentrosymmetricMatrix.from_matrix(np.array([[2.5 - 1j]]))
    assert eigenvalues_centrosymmetric(cm).eigenvalues[0] == 2.5 - 1j


def test_block_path_matches_dense_path():
    for n in range(2, 17):
        for trial in range(5):
            cm = sample_centrosymmetric(n, stream=SeedStream(31, 100 * n + trial))
            tol = 1e-8 * n * (1.0 + operator_norm_estimate(cm.matrix, tol=1e-3))
            assert match_spectra(
                eigenvalues_centrosymmetric(cm), eigenvalues_dense(cm.matrix)
            ) <= tol


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
        expected = Spectrum(eigenvalues=c * base.eigenvalues)
        assert match_spectra(scaled, expected) <= 1e-8


def test_spectral_radius():
    assert spectral_radius(Spectrum(eigenvalues=np.array([1.0, -1.0]))) == 1.0
    assert spectral_radius(Spectrum(eigenvalues=np.array([2.0j, 0.5]))) == 2.0
    with pytest.raises(ValueError):
        spectral_radius(Spectrum(eigenvalues=np.empty(0, dtype=complex)))


def test_spectral_radius_concentrates_at_one():
    cm = sample_centrosymmetric(512, stream=SeedStream(1, 0))
    assert spectral_radius(eigenvalues_centrosymmetric(cm)) <= 1.15


def test_match_spectra_mismatched_sizes():
    a = Spectrum(eigenvalues=np.array([1.0 + 0j]))
    b = Spectrum(eigenvalues=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        match_spectra(a, b)


def test_match_spectra_pairs_by_least_total_distance():
    # greedy nearest-neighbor pairs 0 with 0.3 and leaves 0.5 to -0.4 (0.9)
    a = Spectrum(eigenvalues=np.array([0.0, 0.5]))
    b = Spectrum(eigenvalues=np.array([0.3, -0.4]))
    assert match_spectra(a, b) == pytest.approx(0.4)
    assert match_spectra(b, a) == pytest.approx(0.4)


def test_spectrum_json_round_trip():
    spec = eigenvalues_dense(np.diag([1.0, -2.0j]))
    obj = json.loads(json.dumps(asdict(spec), default=complex_to_pairs))
    assert set(obj) == {"eigenvalues"} and spec.source_dim == 2
    assert np.array_equal(complex_from_pairs(obj["eigenvalues"]), spec.eigenvalues)


def test_spectrum_equality_is_identity_and_never_raises():
    a = Spectrum(eigenvalues=np.array([1.0, 2.0j]))
    b = Spectrum(eigenvalues=np.array([1.0, 2.0j]))
    assert (a == b) is False
    assert (a == a) is True
