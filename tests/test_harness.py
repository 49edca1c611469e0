import contextlib
import io
import multiprocessing
import os
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import chdtrc, ndtr

from centro_spectra import eigen, harness
from centro_spectra.eigen import eigenvalues_dense
from centro_spectra.harness import (
    _summarize,
    _worker_count,
    RunConfig,
    TestPolynomial,
    angular_chisquare,
    covariance_kernel,
    les,
    predicted_sigma2,
    radial_ks_statistic,
    resolvent_series_gap,
    resolvent_trace,
    run_circular_law_experiment,
    run_clt_experiment,
    run_covariance_kernel_experiment,
)
from centro_spectra.linalg import _openblas_thread_controls, available_cpus
from centro_spectra.moments import MomentQuery
from centro_spectra.sampling import SeedStream, sample_centrosymmetric

P_LINEAR = TestPolynomial(coeffs=(1.0,))
P_FIG = TestPolynomial(coeffs=(0.0, 0.0, 2.0, 1.0))  # 2x^3 + x^4


def test_les_on_exchange_spectrum():
    lam = np.array([1.0, -1.0])
    assert les(lam, P_LINEAR) == pytest.approx(0.0)
    assert les(lam, TestPolynomial(coeffs=(0.0, 1.0))) == pytest.approx(2.0)


def test_les_linear_poly_recovers_trace():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert les(eigenvalues_dense(m), P_LINEAR) == pytest.approx(complex(np.trace(m)), abs=1e-10)


def test_les_linearity():
    rng = np.random.default_rng(29)
    lam = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    p = TestPolynomial(coeffs=(1.0, -0.5))
    q = TestPolynomial(coeffs=(0.0, 2.0, 0.25))
    alpha, beta = 1.5 - 1j, -0.25j
    combo = TestPolynomial(
        coeffs=(
            alpha * p.coeffs[0] + beta * q.coeffs[0],
            alpha * p.coeffs[1] + beta * q.coeffs[1],
            beta * q.coeffs[2],
        )
    )
    lhs = les(lam, combo)
    rhs = alpha * les(lam, p) + beta * les(lam, q)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_predicted_sigma2_values():
    assert predicted_sigma2(P_LINEAR) == pytest.approx(2.0)
    assert predicted_sigma2(P_FIG) == pytest.approx(32.0)  # 2*3*4 + 2*4*1


def test_predicted_sigma2_conjugation_and_scaling():
    p = TestPolynomial(coeffs=(1.0 + 2.0j, -0.5j, 3.0))
    conj = TestPolynomial(coeffs=tuple(np.conj(a) for a in p.coeffs))
    assert predicted_sigma2(conj) == pytest.approx(predicted_sigma2(p))
    c = 0.5 - 1.5j
    scaled = TestPolynomial(coeffs=tuple(c * a for a in p.coeffs))
    assert predicted_sigma2(scaled) == pytest.approx(abs(c) ** 2 * predicted_sigma2(p))


def test_polynomial_rejects_constant_and_zero_leading():
    with pytest.raises(ValueError):
        TestPolynomial(coeffs=())
    with pytest.raises(ValueError):
        TestPolynomial(coeffs=(1.0, 0.0))
    with pytest.raises(ValueError):  # sum 2k|a_k|^2 underflows: no reference law
        TestPolynomial(coeffs=(1e-200,))
    with pytest.raises(ValueError):  # sum 2k|a_k|^2 overflows to inf
        TestPolynomial(coeffs=(1e200,))
    assert TestPolynomial.from_string("0,0,2,1").coeffs == (0j, 0j, 2 + 0j, 1 + 0j)
    with pytest.raises(ValueError):
        TestPolynomial.from_string("")


def test_resolvent_trace_values():
    n = 7
    assert resolvent_trace(np.zeros(n, dtype=complex), 2.0) == pytest.approx(n / 2.0)
    assert resolvent_trace(np.array([1.0, -1.0]), 2.0) == pytest.approx(4.0 / 3.0)
    with pytest.raises(ValueError):
        resolvent_trace(np.array([1.0]), 1.0 + 1e-12)


def test_covariance_kernel_values():
    assert covariance_kernel(2.0, 2.0) == pytest.approx(2.0 / 9.0)
    assert covariance_kernel(2.0, -2.0) == pytest.approx(0.08)


def test_resolvent_series_consistency():
    from centro_spectra.eigen import eigenvalues_centrosymmetric

    for t in range(3):
        cm = sample_centrosymmetric(256, stream=SeedStream(7, t))
        lam = eigenvalues_centrosymmetric(cm)
        gap = resolvent_series_gap(cm.matrix, lam, 2.5, terms=8)
        assert gap <= 0.05
        # reference: the series from full matrix powers, one matmul per term
        series, power = 256 / 2.5, np.eye(256, dtype=np.complex128)
        for k in range(1, 9):
            power = power @ cm.matrix
            series += 2.5 ** (-k - 1) * np.trace(power)
        assert gap == pytest.approx(abs(resolvent_trace(lam, 2.5) - series), abs=1e-10)
    no_terms = abs(resolvent_trace(lam, 2.5) - 256 / 2.5)
    assert resolvent_series_gap(cm.matrix, lam, 2.5, terms=0) == no_terms


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=0, trials=10, master_seed=0)
    with pytest.raises(ValueError):
        RunConfig(n=4, trials=0, master_seed=0)
    with pytest.raises(ValueError):
        RunConfig(n=4, trials=10, master_seed=0, contour_points=(1.0,))  # |z| <= 1.2
    with pytest.raises(ValueError):
        RunConfig(n=4, trials=10, master_seed=0, rho=-1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        {"rho": nan},
        {"tau": nan},
        {"contour_points": (complex(nan, 0.0),)},
        {"contour_points": (complex(inf, 0.0),)},
        {"contour_points": (2.0, complex(0.0, -inf))},
    ):
        with pytest.raises(ValueError):
            RunConfig(n=4, trials=10, master_seed=0, **bad)
    for threads in (0, "2", 2.0, True):
        with pytest.raises(ValueError):
            RunConfig(n=4, trials=10, master_seed=0, threads=threads)


def test_seeds_sizes_and_counts_must_be_integers():
    # unchecked, a float seed draws its truncation's matrices and a float
    # size fails only inside a trial or the oracle
    for bad in (1.9, 2.0, True, np.int64(2)):
        for make in (lambda: SeedStream(bad, 0), lambda: SeedStream(0, bad),
                     lambda: RunConfig(n=bad, trials=4, master_seed=2),
                     lambda: RunConfig(n=8, trials=bad, master_seed=2),
                     lambda: RunConfig(n=8, trials=4, master_seed=bad),
                     lambda: MomentQuery(bad, 2, 2), lambda: MomentQuery(4, bad, 2),
                     lambda: MomentQuery(4, 2, bad)):
            with pytest.raises(ValueError):
                make()


def test_clt_requires_poly_and_enough_trials():
    with pytest.raises(ValueError):
        run_clt_experiment(RunConfig(n=8, trials=10, master_seed=0))
    with pytest.raises(ValueError):
        run_clt_experiment(RunConfig(n=8, trials=1, master_seed=0, poly=P_LINEAR))


def test_clt_small_run_summaries():
    config = RunConfig(n=64, trials=60, master_seed=3, poly=P_LINEAR, threads=2)
    batch = run_clt_experiment(config)
    assert len(batch.values[0]) + batch.guard_rejections == config.trials
    s = batch.summaries
    assert s is not None
    assert s.predicted_sigma2 == pytest.approx(2.0)
    assert 0.0 <= s.ks_statistic <= 1.0
    assert s.variance_modulus >= 0.0
    centered = batch.values[0] - batch.values[0].mean()
    assert abs(centered.mean()) <= 1e-12  # centering is exact by construction


def test_guard_rejects_everything_with_tiny_rho():
    config = RunConfig(n=32, trials=4, master_seed=0, poly=P_LINEAR, rho=1e-6)
    with pytest.raises(RuntimeError):
        run_clt_experiment(config)


def test_guard_rejection_rate_is_tiny_at_default_rho():
    config = RunConfig(n=128, trials=50, master_seed=5, poly=P_LINEAR)
    batch = run_clt_experiment(config)
    assert batch.guard_rejections / config.trials <= 0.01


def _result_bytes(config: RunConfig) -> bytes:
    if config.poly is not None:
        return run_clt_experiment(config).values[0].tobytes()
    samples = run_circular_law_experiment(config)
    return b"".join(s.eigenvalues.tobytes() for s in samples)


def test_thread_count_does_not_change_results():
    for config in (
        RunConfig(n=64, trials=24, master_seed=9, poly=P_FIG),
        RunConfig(n=200, trials=3, master_seed=9),
        RunConfig(n=201, trials=3, master_seed=9),
    ):
        results = {_result_bytes(replace(config, threads=threads)) for threads in (1, 2, 8)}
        assert len(results) == 1, config


def test_worker_count_is_capped_by_cpus_and_trials():
    cpus = os.cpu_count() or 1
    assert _worker_count(1_000_000, 512, 400, cpus) == min(cpus, 400)
    assert _worker_count(None, 512, 400, 8) == 8
    assert _worker_count(None, 512, 3, 64) == 3
    assert _worker_count(2, 512, 400, 64) == 2
    assert _worker_count(1, 512, 400, 64) == 1
    # one worker per 1.5e6 of n^3 * trials: tiny runs stay inline
    assert _worker_count(None, 8, 4, 64) == 1
    assert _worker_count(None, 32, 20, 64) == 1
    assert _worker_count(None, 64, 20, 64) == 3
    assert _worker_count(2, 64, 40, 2) == 2
    assert _worker_count(None, 1, 10**9, 64) == 64


def test_pooled_failure_names_the_first_failed_trial(monkeypatch):
    sample = harness.sample_centrosymmetric

    def fails_at_trials_5_and_9(n, stream):
        if stream.stream_index in (5, 9):
            raise ValueError(f"broken in process {os.getpid()}")
        return sample(n, stream)

    monkeypatch.setattr(harness, "sample_centrosymmetric", fails_at_trials_5_and_9)
    config = RunConfig(n=64, trials=24, master_seed=0, poly=P_LINEAR, threads=2)
    with pytest.raises(RuntimeError, match=r"^trial 5 failed: broken in process \d+$") as failed:
        run_clt_experiment(config)
    assert multiprocessing.active_children() == []
    workers = _worker_count(config.threads, config.n, config.trials, available_cpus())
    pooled = workers > 1 and bool(_openblas_thread_controls())
    assert (not failed.value.args[0].endswith(f" {os.getpid()}")) == pooled


def test_radial_ks_on_synthetic_disc():
    # exact uniform-disc radial law: r = sqrt(U)
    rng = np.random.default_rng(101)
    radii = np.sqrt(rng.uniform(size=2000))
    assert radial_ks_statistic(radii) <= 0.04
    stat, pvalue = angular_chisquare(rng.uniform(-np.pi, np.pi, size=2000))
    assert pvalue >= 0.01


def _draw_values(kind, size, rng):
    if kind == "constant":
        return np.full(size, 0.1 + 0.2j)
    if kind == "ties":
        return rng.integers(-3, 4, size) + 1j * rng.integers(-3, 4, size)
    draw = rng.standard_t(3, size=(2, size)) if kind == "heavy" else rng.standard_normal((2, size))
    return 10.0 ** rng.uniform(-3, 3) * (draw[0] + 1j * draw[1]) + rng.uniform(-5, 5)


def _constructs(coeffs):
    try:
        TestPolynomial(coeffs=tuple(coeffs))
    except ValueError:
        return False
    return True


def _same(ours, reference):
    return ours == reference or (np.isnan(ours) and np.isnan(reference))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "heavy", "ties", "constant"]),
    size=st.integers(3, 2000),
    seed=st.integers(0, 2**32 - 1),
    coeffs=st.lists(st.floats(-3, 3).filter(lambda a: a != 0), min_size=1, max_size=4)
    .filter(_constructs),
)
@example(kind="constant", size=3, seed=0, coeffs=[1.0])
@example(kind="constant", size=2000, seed=0, coeffs=[1.0])
def test_statistics_equal_scipy_stats_bit_for_bit(kind, size, seed, coeffs):
    rng = np.random.default_rng(seed)
    values = _draw_values(kind, size, rng)
    poly = TestPolynomial(coeffs=tuple(coeffs))
    radii = np.abs(values) / max(np.abs(values).max(), 1e-300) * rng.uniform(0.8, 1.2)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        summary = _summarize(values.mean(), values - values.mean(), poly)
        radial = radial_ks_statistic(radii)
        chi2, pvalue = angular_chisquare(np.angle(values))
    assert stdout.getvalue() == ""

    real = (values - values.mean()).real
    scale = np.sqrt(predicted_sigma2(poly) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on flat samples
        assert _same(summary.skewness, sps.skew(real))
        assert _same(summary.excess_kurtosis, sps.kurtosis(real))
        assert _same(summary.ks_statistic, sps.kstest(real, "norm", args=(0.0, scale)).statistic)
    assert radial == sps.kstest(radii, lambda r: np.minimum(r * r, 1.0)).statistic
    assert pvalue == sps.chi2.sf(chi2, 15)
    if kind == "constant":
        assert np.isnan(summary.skewness) and np.isnan(summary.excess_kurtosis)


def _edges(*points):
    """Each point and its two neighbouring floats."""
    return [v for p in points for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def test_cephes_ports_equal_scipy_bit_for_bit():
    """The normal CDF and the 15-degree chi-square tail that the summaries
    use have scipy.special's bits on a grid through every branch."""
    # |x| / sqrt 2 below 1/sqrt 2 (erf), below 1 (1 - erf), below 8 and at
    # or above it (the two erfc rational functions), past log(DBL_MAX) and
    # into the underflow to 0, up to 1e300, in 0.01 steps, both signs
    magnitudes = np.concatenate([np.linspace(0.0, 45.0, 4501), np.geomspace(45.0, 1e300, 60),
                                 _edges(1.0, np.sqrt(2.0), 8.0 / np.sqrt(0.5))])
    points = np.concatenate([magnitudes, -magnitudes, [np.inf, -np.inf]])
    ours = np.array([harness._ndtr(v) for v in points.tolist()])
    reference = ndtr(points)
    assert ours.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
    assert {0.0, 0.5, 1.0} <= set(reference.tolist())

    # 0; the power series below stat 15 and the continued fraction at or
    # above it; igam_fac through logarithms and, for stat in 9..21, through
    # the Lanczos form; out to 1e5, where the tail underflows to 0
    stats = np.concatenate([np.linspace(0.0, 60.0, 6001), np.geomspace(1e-300, 1e5, 601),
                            _edges(2.2, 9.0, 15.0, 21.0), [5e-324]])
    ours = np.array([harness._chi2_sf_15(s) for s in stats.tolist()])
    reference = chdtrc(15, stats)
    assert ours.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
    assert {0.0, 1.0} <= set(reference.tolist())


def test_circular_law_requires_large_n():
    with pytest.raises(ValueError):
        run_circular_law_experiment(RunConfig(n=64, trials=1, master_seed=0))


def test_circular_law_small_scale():
    sample = run_circular_law_experiment(RunConfig(n=200, trials=1, master_seed=2))[0]
    assert len(sample.eigenvalues) == 200
    assert (sample == replace(sample)) is False  # identity: never compares the arrays
    assert sample.radial_ks <= 0.15
    assert sample.outlier_fraction <= 0.05
    assert 0.0 <= sample.angular_pvalue <= 1.0


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 holds a call's arguments on the caller's stack")
def test_circular_law_frees_the_sampled_half_before_the_solves(monkeypatch):
    """Its peak memory rests on this: at n = 2000 the half is 32 MB."""
    halves, alive = [], []
    sample, solve = harness.sample_centrosymmetric, eigen.eigenvalues_dense

    def sample_spy(n, stream):
        cm = sample(n, stream)
        halves.append(weakref.ref(cm.half))
        return cm

    def solve_spy(m):
        alive.append(any(half() is not None for half in halves))
        return solve(m)

    monkeypatch.setattr(harness, "sample_centrosymmetric", sample_spy)
    monkeypatch.setattr(eigen, "eigenvalues_dense", solve_spy)
    run_circular_law_experiment(RunConfig(n=201, trials=2, master_seed=7, threads=1))
    assert len(halves) == 2 and alive == [False] * 4


@pytest.mark.skipif(available_cpus() < 2 or not _openblas_thread_controls(),
                    reason="the clt run needs two CPUs and OpenBLAS to fork a pool")
def test_circular_law_leaves_no_thread_so_clt_still_forks(monkeypatch):
    before = threading.active_count()
    run_circular_law_experiment(RunConfig(n=200, trials=2, master_seed=6))
    assert threading.active_count() == before
    pools = []
    fork_pool = harness._fork_pool

    def pool_spy(workers):
        pools.append(fork_pool(workers))
        return pools[-1]

    monkeypatch.setattr(harness, "_fork_pool", pool_spy)
    run_clt_experiment(RunConfig(n=64, trials=20, master_seed=6, poly=P_LINEAR, threads=2))
    assert len(pools) == 1 and pools[0] is not None


def test_covariance_experiment_structure():
    config = RunConfig(
        n=64, trials=120, master_seed=4, contour_points=(2.0 + 0j, -2.0 + 0j), threads=2
    )
    report = run_covariance_kernel_experiment(config)
    assert len(report.pairs) == 4
    diag = next(p for p in report.pairs if p.z == p.eta == 2.0 + 0j)
    assert diag.predicted == pytest.approx(2.0 / 9.0)
    # loose at this small n; the acceptance suite runs the calibrated scale
    assert abs(diag.empirical - diag.predicted) <= 0.5 * abs(diag.predicted)
    assert report.guard_rejections == 0


def test_covariance_experiment_requires_contour():
    with pytest.raises(ValueError):
        run_covariance_kernel_experiment(RunConfig(n=32, trials=10, master_seed=0))
