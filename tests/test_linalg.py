import builtins
import json
from fractions import Fraction

import numpy as np
import pytest

from centro_spectra import linalg
from centro_spectra.linalg import (
    PowerIterationError,
    _openblas_thread_controls,
    as_complex_matrix,
    complex_to_pairs,
    counter_identity,
    operator_norm_estimate,
    single_blas_thread,
)
from reference import complex_from_pairs


def test_counter_identity_small_cases():
    assert np.array_equal(counter_identity(1), np.array([[1.0 + 0j]]))
    assert np.array_equal(counter_identity(2), np.array([[0, 1], [1, 0]], dtype=complex))


def test_counter_identity_involution_s5():
    j = counter_identity(5)
    assert np.abs(j @ j - np.eye(5)).max() == 0.0


def test_counter_identity_symmetric_involutive_range():
    for s in range(1, 40):
        j = counter_identity(s)
        assert np.abs(j - j.T).max() <= 1e-14
        assert np.abs(j @ j - np.eye(s)).max() <= 1e-14


def test_counter_identity_is_empty_at_zero_and_rejects_negative():
    assert counter_identity(0).shape == (0, 0)
    with pytest.raises(ValueError):
        counter_identity(-1)


def test_as_complex_matrix_rejects_nonfinite():
    nonfinite = (np.nan, np.inf, -np.inf)
    for bad in (*nonfinite, *(complex(x, 0.0) for x in nonfinite),
                *(complex(0.0, x) for x in nonfinite)):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[bad, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros((2, 3)))


def test_operator_norm_trivial_cases():
    assert operator_norm_estimate(np.eye(4)) == pytest.approx(1.0, rel=1e-6)
    assert operator_norm_estimate(counter_identity(6)) == pytest.approx(1.0, rel=1e-6)
    assert operator_norm_estimate(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-5)


def test_operator_norm_zero_matrix():
    assert operator_norm_estimate(np.zeros((3, 3))) == 0.0


def test_operator_norm_dominates_spectral_radius():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        est = operator_norm_estimate(m, tol=1e-8)
        rho = np.abs(np.linalg.eigvals(m)).max()
        assert est >= rho - 1e-6 * est


def test_operator_norm_start_keeps_every_key_bit(monkeypatch):
    keys = []
    philox = np.random.Philox

    def recording_philox(*args, **kwargs):
        bit_generator = philox(*args, **kwargs)
        keys.append(bit_generator.state["state"]["key"].tolist())
        return bit_generator

    monkeypatch.setattr(np.random, "Philox", recording_philox)
    operator_norm_estimate(np.eye(3))
    assert keys == [[0x9E3779B97F4A7C15, 3]]


def test_operator_norm_nonconvergence_reports_last_estimate():
    m = np.diag([1.0, 1.0 - 1e-14, 0.5])
    with pytest.raises(PowerIterationError) as err:
        # cap of one iteration cannot satisfy the convergence check
        operator_norm_estimate(m, tol=0.0, max_iterations=1)
    assert err.value.last_estimate > 0.0


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


TINY = 5e-324  # the smallest subnormal


def test_complex_pairs_keep_every_bit():
    values = np.array([complex(-0.0, TINY), complex(np.inf, -0.0), complex(-TINY, -np.inf)])
    assert np.array_equal(_bits(complex_from_pairs(complex_to_pairs(values))), _bits(values))
    matrix = np.repeat(values.reshape(3, 1), 2, axis=1)
    assert complex_to_pairs(matrix)[2][1] == [-TINY, -np.inf]
    assert complex_to_pairs(complex(-0.0, 1.5)) == [-0.0, 1.5]
    assert complex_from_pairs([]).shape == (0,)
    with pytest.raises(ValueError):
        complex_from_pairs([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("value", [np.int64(3), Fraction(1, 2), np.array([1.0, 2.0])],
                         ids=["int64", "Fraction", "float64-array"])
def test_complex_to_pairs_rejects_what_is_not_complex(value):
    with pytest.raises(TypeError):
        complex_to_pairs(value)
    with pytest.raises(TypeError):
        json.dumps({"x": value}, default=complex_to_pairs)


def test_json_dumps_keep_signed_zero_and_subnormal():
    a, b, c = complex(-0.0, TINY), complex(-TINY, -0.0), complex(0.0, -0.0)
    m = np.array([[a, b, c], [TINY, -0.0, TINY], [c, b, a]])
    text = json.dumps({"entries": m.ravel(), "first": a}, default=complex_to_pairs)
    assert "[-0.0, 5e-324]" in text
    obj = json.loads(text)
    assert obj["first"] == [-0.0, TINY]
    assert np.array_equal(_bits(complex_from_pairs(obj["entries"]).reshape(3, 3)), _bits(m))


def test_single_blas_thread_pins_and_restores():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-count entry point")
    before = [get() for _, get in controls]
    with single_blas_thread() as pinned:
        assert pinned
        assert [get() for _, get in controls] == [1] * len(controls)
    assert [get() for _, get in controls] == before


def test_second_pin_opens_no_file(monkeypatch):
    """Every block solve pins, so the OpenBLAS lookup (a scan of
    /proc/self/maps) must run once per process, not once per pin."""
    with single_blas_thread():
        pass
    opened = []
    real_open = builtins.open

    def counting_open(*args, **kwargs):
        opened.append(args[0] if args else kwargs.get("file"))
        return real_open(*args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with single_blas_thread():
        pass
    assert opened == []


def test_pin_sets_only_the_counts_that_are_not_one(monkeypatch):
    """In a forked child any set restarts OpenBLAS's thread pool, whose new
    thread spins, so a count already at one is neither set nor restored."""
    calls = []
    controls = ((lambda count: calls.append(("a", count)), lambda: 1),
                (lambda count: calls.append(("b", count)), lambda: 4))
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: controls)
    with single_blas_thread() as pinned:
        assert pinned and calls == [("b", 1)]
    assert calls == [("b", 1), ("b", 4)]
