import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centro_spectra.cli import parse_and_dispatch
from centro_spectra.linalg import complex_from_pairs, counter_identity
from centro_spectra.reduction import block_reduce
from centro_spectra.sampling import (
    STANDARD_COMPLEX_GAUSSIAN,
    CentrosymmetricMatrix,
    EntryDistribution,
    SeedStream,
    _sample_batch,
    _unfold,
    is_centrosymmetric,
    moment_self_test,
    sample_centrosymmetric,
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _reference_mask_sampler(n, dist, stream, count):
    """The full-matrix sampler the half sampler replaced: raw draws fill the
    free positions, those (i, j) lexicographically <= their mirror (1-based),
    row-major; mirror copies come from a flip."""
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    mask = (i < n + 1 - i) | ((i == n + 1 - i) & (j <= n + 1 - j))
    n_free = (n * n + 1) // 2
    raw = dist.draw(count * n_free, stream.generator()).reshape(count, n_free)
    x = np.zeros((count, n * n), dtype=np.complex128)
    x[:, np.flatnonzero(mask.ravel())] = raw
    x = x.reshape(count, n, n)
    return np.where(mask, x, np.flip(x, (1, 2))) / np.sqrt(n)


def _reference_blocks(m):
    """T1 = A + JC and T2 = A - JC read off the full matrix's quadrants,
    with the sqrt(2) border on T1 for odd n."""
    n = m.shape[0]
    s = n // 2
    a = m[:s, :s]
    jc = np.flipud(m[n - s :, :s])
    t1 = a + jc
    if n % 2:
        x, y, center = m[:s, s : s + 1], m[s : s + 1, :s], np.array([[m[s, s]]])
        t1 = np.block([[t1, np.sqrt(2.0) * x], [np.sqrt(2.0) * y, center]])
    return t1, a - jc


def test_n1_single_draw():
    cm = sample_centrosymmetric(1, stream=SeedStream(9, 0))
    raw = STANDARD_COMPLEX_GAUSSIAN.draw(1, SeedStream(9, 0).generator())
    assert cm.matrix.shape == (1, 1)
    assert cm.matrix[0, 0] == raw[0]  # scaled by 1/sqrt(1) = 1


def test_n2_mirror_pairs_bit_identical():
    m = sample_centrosymmetric(2, stream=SeedStream(0, 0)).matrix
    assert m[0, 0] == m[1, 1]
    assert m[0, 1] == m[1, 0]


def test_free_draw_count_n5():
    # pairing (i,j) <-> (n+1-i, n+1-j) has one fixed point for odd n, so a
    # 5x5 matrix takes 13 draws: two full rows, then the middle row up to
    # and including the center, which is drawn once
    raw = STANDARD_COMPLEX_GAUSSIAN.draw(26, SeedStream(3, 1).generator()) / np.sqrt(5)
    halves = _sample_batch(5, STANDARD_COMPLEX_GAUSSIAN, SeedStream(3, 1), 2)
    assert halves.shape == (2, 3, 5)
    for t in range(2):
        draws = raw[13 * t : 13 * (t + 1)]
        assert np.array_equal(halves[t, :2].ravel(), draws[:10])
        assert np.array_equal(halves[t, 2], draws[[10, 11, 12, 11, 10]])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 64), stream=st.integers(0, 2**32), count=st.integers(1, 3))
def test_half_sampler_matches_mask_sampler_bit_for_bit(n, stream, count):
    dist, seeds = STANDARD_COMPLEX_GAUSSIAN, SeedStream(29, stream)
    full = _unfold(_sample_batch(n, dist, seeds, count))
    assert np.array_equal(_bits(full), _bits(_reference_mask_sampler(n, dist, seeds, count)))
    if n >= 2:
        red = block_reduce(sample_centrosymmetric(n, seeds))
        t1, t2 = _reference_blocks(full[0])
        assert np.array_equal(_bits(red.t1), _bits(t1))
        assert np.array_equal(_bits(red.t2), _bits(t2))


def test_mirror_symmetry_exact_all_sizes():
    for n in range(1, 12):
        m = sample_centrosymmetric(n, stream=SeedStream(4, n)).matrix
        assert np.array_equal(m, np.flip(m, (0, 1)))


def test_jmj_equals_m_exactly():
    m = sample_centrosymmetric(7, stream=SeedStream(21, 3)).matrix
    j = counter_identity(7)
    # J M J only permutes entries, so the identity holds bitwise
    assert np.array_equal((j @ m @ j), m)


def test_is_centrosymmetric():
    assert is_centrosymmetric(sample_centrosymmetric(6, stream=SeedStream(1, 1)).matrix)
    assert is_centrosymmetric(np.eye(5))
    assert not is_centrosymmetric(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        is_centrosymmetric(np.zeros((2, 3)))


def test_reproducibility_and_stream_independence():
    a = sample_centrosymmetric(6, stream=SeedStream(42, 5)).matrix
    b = sample_centrosymmetric(6, stream=SeedStream(42, 5)).matrix
    c = sample_centrosymmetric(6, stream=SeedStream(42, 6)).matrix
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_entry_scaling_variance():
    # fixed entry variance approaches 1/n over many trials (n=8, 10^4 trials)
    n, trials = 8, 10**4
    entry = np.empty(trials, dtype=complex)
    for t in range(trials):
        entry[t] = sample_centrosymmetric(n, stream=SeedStream(77, t)).matrix[0, 0]
    var = (np.abs(entry) ** 2).mean()
    se = np.std(np.abs(entry) ** 2) / np.sqrt(trials)
    assert abs(var - 1.0 / n) <= 5 * se


def test_moment_self_test_million_draws():
    report = moment_self_test(10**6, SeedStream(1, 0))
    assert abs(report.mean) <= 5e-3
    assert abs(report.second_moment) <= 5e-3
    assert 0.995 <= report.abs_second_moment <= 1.005
    assert report.ok


def test_moment_self_test_rejects_tiny_sample():
    with pytest.raises(ValueError):
        moment_self_test(100, SeedStream(0, 0))


def test_json_round_trip_bit_identical(tmp_path):
    path = tmp_path / "m.json"
    argv = ["sample", "--n", "5", "--seed", "13", "--stream", "2", "--out", str(path)]
    assert parse_and_dispatch(argv) == 0
    obj = json.loads(path.read_text())
    assert set(obj) == {"n", "seed", "stream_index", "dist", "entries"}
    assert (obj["n"], obj["seed"], obj["stream_index"]) == (5, 13, 2)
    assert len(obj["entries"]) == 25
    cm = sample_centrosymmetric(5, stream=SeedStream(13, 2))
    assert np.array_equal(_bits(complex_from_pairs(obj["entries"]).reshape(5, 5)), _bits(cm.matrix))


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        EntryDistribution(kind="uniform_disc")


def test_seeds_above_2_63_draw_apart():
    """Every bit of a seed and a stream index reaches the Philox key."""
    top = 2**64 - 1
    for a, b in ((SeedStream(2**63, 0), SeedStream(2**63 + 1, 0)),
                 (SeedStream(0, 2**63), SeedStream(0, 2**63 + 1)),
                 (SeedStream(top, top), SeedStream(top - 1, top))):
        assert not np.array_equal(sample_centrosymmetric(6, a).half,
                                  sample_centrosymmetric(6, b).half)


def test_seed_stream_validation():
    with pytest.raises(ValueError):
        SeedStream(-1, 0)
    with pytest.raises(ValueError):
        SeedStream(0, 2**64)
    child = SeedStream(3, 4).child(2)
    assert (child.master_seed, child.stream_index) == (3, 6)


def test_constructor_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        CentrosymmetricMatrix.from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        CentrosymmetricMatrix.from_matrix(np.zeros((2, 3)))
    cm = CentrosymmetricMatrix.from_matrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 4.0], [3.0, 2.0, 1.0]]))
    assert cm.half.shape == (2, 3) and cm.n == 3
    for half in (np.zeros((1, 3)), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])):
        with pytest.raises(ValueError):  # wrong shape; a middle row that is not a palindrome
            CentrosymmetricMatrix(half=half)


def test_equality_is_identity_and_never_raises():
    a = sample_centrosymmetric(4, stream=SeedStream(6, 1))
    b = sample_centrosymmetric(4, stream=SeedStream(6, 1))
    assert (a == b) is False
    assert (a == a) is True
