import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centro_spectra.eigen import eigenvalues_centrosymmetric, eigenvalues_dense
from centro_spectra.linalg import operator_norm_estimate
from centro_spectra.reduction import (
    _SQRT_HALF,
    block_reduce,
    build_orthogonal_q,
    split_blocks,
    verify_reduction,
)
from centro_spectra.sampling import (
    STANDARD_COMPLEX_GAUSSIAN,
    CentrosymmetricMatrix,
    SeedStream,
    _sample_batch,
    sample_centrosymmetric,
)
from reference import match_spectra

SQ2 = np.sqrt(2.0)


def test_q_n2_matches_closed_form():
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / SQ2
    assert np.abs(build_orthogonal_q(2) - expected).max() <= 1e-15


def test_q_n3_matches_closed_form():
    expected = np.array([[1.0, 0.0, -1.0], [0.0, SQ2, 0.0], [1.0, 0.0, 1.0]]) / SQ2
    assert np.abs(build_orthogonal_q(3) - expected).max() <= 1e-15


def test_q_orthogonal_n7():
    q = build_orthogonal_q(7)
    assert np.abs(q.T @ q - np.eye(7)).max() <= 1e-12


def test_q_n1_is_the_centre_entry():
    # the centre entry every odd Q has
    assert np.array_equal(build_orthogonal_q(1), [[_SQRT_HALF * SQ2]])


def test_q_entries_and_orthogonality_for_every_n():
    for n in range(1, 41):
        q = build_orthogonal_q(n)
        assert np.isin(q, [0.0, _SQRT_HALF, -_SQRT_HALF, _SQRT_HALF * SQ2]).all()
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-15


def test_block_reduce_2x2_scalars():
    a, b = 0.3 - 0.4j, 1.25 + 2j
    t1, t2 = block_reduce(CentrosymmetricMatrix.from_matrix([[a, b], [b, a]]))
    assert t1.shape == (1, 1) and t2.shape == (1, 1)
    assert t1[0, 0] == a + b
    assert t2[0, 0] == a - b


def test_block_reduce_identity_4x4():
    t1, t2 = block_reduce(CentrosymmetricMatrix.from_matrix(np.eye(4)))
    assert np.array_equal(t1, np.eye(2, dtype=complex))
    assert np.array_equal(t2, np.eye(2, dtype=complex))


def test_block_reduce_residual_5x5():
    cm = sample_centrosymmetric(5, stream=SeedStream(7, 0))
    assert verify_reduction(cm, *block_reduce(cm)) <= 1e-12


def test_verify_reduction_identity_is_exact():
    cm = CentrosymmetricMatrix.from_matrix(np.eye(4))
    assert verify_reduction(cm, *block_reduce(cm)) <= 1e-15


def test_block_sizes_sum_to_n():
    for n in range(1, 10):
        t1, t2 = block_reduce(sample_centrosymmetric(n, stream=SeedStream(2, n)))
        assert t1.shape[0] + t2.shape[0] == n
        assert t1.shape[0] == (n + 1) // 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), stream=st.integers(0, 2**32))
def test_reduction_residual_property(n, stream):
    cm = sample_centrosymmetric(n, stream=SeedStream(17, stream))
    assert verify_reduction(cm, *block_reduce(cm)) <= 1e-12
    q = build_orthogonal_q(n)
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12


def test_verify_reduction_flags_corruption():
    cm = sample_centrosymmetric(6, stream=SeedStream(5, 1))
    t1, t2 = block_reduce(cm)
    t1 = t1.copy()
    t1[0, 0] += 1.0
    assert verify_reduction(cm, t1, t2) >= 0.4


def test_verify_reduction_shape_mismatch():
    cm = sample_centrosymmetric(6, stream=SeedStream(5, 2))
    t1, t2 = block_reduce(cm)
    with pytest.raises(ValueError):
        verify_reduction(cm, t1[:2, :2], t2)


def test_verify_reduction_rejects_asymmetric_matrix():
    cm = sample_centrosymmetric(5, stream=SeedStream(5, 3))
    half = cm.half.copy()
    half[2, 0] += 1e-3  # the middle row is no longer its own mirror
    object.__setattr__(cm, "half", half)  # past the constructor's check
    with pytest.raises(ValueError):
        verify_reduction(cm, *block_reduce(cm))


def test_eigenvalue_union_property():
    for n in (2, 3, 6, 9, 12):
        cm = sample_centrosymmetric(n, stream=SeedStream(11, n))
        whole = eigenvalues_dense(cm.matrix)
        split = eigenvalues_centrosymmetric(cm)
        tol = 1e-8 * n * (1.0 + operator_norm_estimate(cm.matrix))
        assert match_spectra(whole, split) <= tol


def test_block_entry_statistics():
    # even-n block entries: mean 0, variance 2/n (n=8, 10^4 trials)
    n, trials = 8, 10**4
    entries = []
    for t in range(trials):
        t1, t2 = block_reduce(sample_centrosymmetric(n, stream=SeedStream(23, t)))
        entries.append(t1.ravel())
        entries.append(t2.ravel())
    values = np.concatenate(entries)
    count = len(values)
    mean_se = np.sqrt((np.abs(values) ** 2).mean() / count)
    assert abs(values.mean()) <= 5 * mean_se
    sq = np.abs(values) ** 2
    var_se = sq.std() / np.sqrt(count)
    assert abs(sq.mean() - 2.0 / n) <= 5 * var_se


def test_split_blocks_on_a_stack_equals_block_reduce_per_matrix():
    for n in range(2, 41):
        halves = _sample_batch(n, STANDARD_COMPLEX_GAUSSIAN, SeedStream(31, n), 3)
        t1, t2 = split_blocks(halves)
        for i, half in enumerate(halves):
            b1, b2 = block_reduce(CentrosymmetricMatrix(half))
            assert np.array_equal(t1[i].view(np.int64), b1.view(np.int64))
            assert np.array_equal(t2[i].view(np.int64), b2.view(np.int64))
