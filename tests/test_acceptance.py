"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The statistical criteria
use fixed seeds, so every run is deterministic; tolerances are the stated
ones, not recalibrated.
"""

import json
from fractions import Fraction

import numpy as np

from centro_spectra.cli import write_trial_jsonl
from centro_spectra.eigen import (
    eigenvalues_centrosymmetric,
    eigenvalues_dense,
)
from centro_spectra.harness import (
    RunConfig,
    TestPolynomial,
    resolvent_series_gap,
    run_circular_law_experiment,
    run_clt_experiment,
    run_covariance_kernel_experiment,
)
from centro_spectra.linalg import operator_norm_estimate
from centro_spectra.moments import (
    MomentQuery,
    exact_mixed_trace_moment,
    mc_trace_moment,
)
from centro_spectra.reduction import block_reduce, build_orthogonal_q, verify_reduction
from centro_spectra.sampling import SeedStream, sample_centrosymmetric
from reference import exact_single_trace_moment, match_spectra


def _report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_reduction_exactness():
    """Orthogonality, similarity residual and eigenvalue union at 8 sizes."""
    worst_orth = 0.0
    worst_residual = 0.0
    worst_match_ratio = 0.0
    for n in (2, 3, 4, 5, 16, 17, 32, 33):
        for trial in range(100):
            cm = sample_centrosymmetric(n, stream=SeedStream(1000 + n, trial))
            t1, t2 = block_reduce(cm)
            q = build_orthogonal_q(n)
            orth = float(np.abs(q.T @ q - np.eye(n)).max())
            residual = verify_reduction(cm, t1, t2)
            # the norm only sets the matching-tolerance scale; coarse is fine
            tol = 1e-8 * n * (1.0 + operator_norm_estimate(cm.matrix, tol=1e-3))
            gap = match_spectra(eigenvalues_dense(cm.matrix), eigenvalues_centrosymmetric(cm))
            worst_orth = max(worst_orth, orth)
            worst_residual = max(worst_residual, residual)
            worst_match_ratio = max(worst_match_ratio, gap / tol)
    ok = worst_orth <= 1e-12 and worst_residual <= 1e-12 and worst_match_ratio <= 1.0
    _report(
        1,
        "reduction exactness",
        ok,
        f"max|QtQ-I|={worst_orth:.2e}, max residual={worst_residual:.2e}, "
        f"worst eig-match/tol={worst_match_ratio:.3f}",
    )


def test_criterion_2_circular_law():
    """One n=2000 sample against the uniform disc law."""
    s = run_circular_law_experiment(RunConfig(n=2000, trials=1, master_seed=1))[0]
    ok = s.radial_ks <= 0.05 and s.angular_pvalue >= 0.01 and s.outlier_fraction <= 0.01
    _report(
        2,
        "circular law",
        ok,
        f"radial KS={s.radial_ks:.4f} (<=0.05), angular p={s.angular_pvalue:.4f} (>=0.01), "
        f"frac |lam|>1.05 = {s.outlier_fraction:.4f} (<=0.01)",
    )


def test_criterion_3_clt_variance():
    """Centered-LES variance and shape at n=512 over 400 trials."""
    linear = run_clt_experiment(
        RunConfig(n=512, trials=400, master_seed=1, poly=TestPolynomial(coeffs=(1.0,)))
    ).summaries
    quartic = run_clt_experiment(
        RunConfig(
            n=512, trials=400, master_seed=1, poly=TestPolynomial(coeffs=(0.0, 0.0, 2.0, 1.0))
        )
    ).summaries
    ok = (
        1.7 <= linear.variance_modulus <= 2.3
        and 25.6 <= quartic.variance_modulus <= 38.4
        and abs(linear.skewness) <= 0.3
        and abs(linear.excess_kurtosis) <= 0.6
    )
    _report(
        3,
        "CLT variance",
        ok,
        f"var[P=x]={linear.variance_modulus:.4f} (in [1.7,2.3]), "
        f"var[P=2x^3+x^4]={quartic.variance_modulus:.4f} (in [25.6,38.4]), "
        f"skew={linear.skewness:.3f} (|.|<=0.3), exkurt={linear.excess_kurtosis:.3f} (|.|<=0.6)",
    )


def test_criterion_4_covariance_kernel():
    """Resolvent-trace covariance at n=256 over 500 trials."""
    report = run_covariance_kernel_experiment(
        RunConfig(n=256, trials=500, master_seed=1, contour_points=(2.0 + 0j, -2.0 + 0j))
    )
    by_pair = {(p.z, p.eta): p for p in report.pairs}
    same = by_pair[(2.0 + 0j, 2.0 + 0j)]
    cross = by_pair[(2.0 + 0j, -2.0 + 0j)]
    err_same = abs(same.empirical - same.predicted) / abs(same.predicted)
    err_cross = abs(cross.empirical - cross.predicted) / abs(cross.predicted)
    ok = err_same <= 0.25 and err_cross <= 0.25
    _report(
        4,
        "covariance kernel",
        ok,
        f"z=eta=2: emp={same.empirical.real:.5f} vs 2/9 (rel err {err_same:.3f}); "
        f"z=2,eta=-2: emp={cross.empirical:.5f} vs 0.08 (rel err {err_cross:.3f}); both <=0.25",
    )


def test_criterion_5_moment_oracle():
    """Exact Wick values, MC agreement, and the large-n pairing path."""
    problems = []

    if exact_mixed_trace_moment(MomentQuery(4, 1, 1)) != Fraction(2):
        problems.append("exact(4,1,1) != 2")
    if exact_mixed_trace_moment(MomentQuery(5, 1, 1)) != Fraction(9, 5):
        problems.append("exact(5,1,1) != 9/5")
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                if k != l and exact_mixed_trace_moment(MomentQuery(n, k, l)) != 0:
                    problems.append(f"exact({n},{k},{l}) != 0")
        for k in (1, 2, 3, 4):
            if exact_single_trace_moment(n, k) != 0:
                problems.append(f"single({n},{k}) != 0")

    worst_sigma = 0.0
    for n in (4, 5, 8):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                q = MomentQuery(n, k, l)
                exact = float(exact_mixed_trace_moment(q))
                est = mc_trace_moment(q, 10**5, SeedStream(100 + n, 0))
                sigmas = abs(est.mean - exact) / est.se
                worst_sigma = max(worst_sigma, sigmas)
                if sigmas > 3.0:
                    problems.append(f"MC({n},{k},{l}) off by {sigmas:.2f} SE")

    gaps = []
    for k in (1, 2, 3):
        value = float(exact_mixed_trace_moment(MomentQuery(64, k, k)))  # auto -> matchings
        gaps.append(abs(value - 2.0 * k) / (2.0 * k))
        if gaps[-1] > 0.10:
            problems.append(f"exact(64,{k},{k}) off by {gaps[-1]:.3f}")

    ok = not problems
    _report(
        5,
        "moment oracle",
        ok,
        f"exact values hit, worst MC deviation {worst_sigma:.2f} SE (<=3), "
        f"exact(64,k,k) rel gaps {['%.4f' % g for g in gaps]} (<=0.1)"
        + ("" if ok else f"; problems: {problems}"),
    )


def test_criterion_6_resolvent_series():
    """Eigenvalue resolvent trace vs truncated power series at |z| = 2.5."""
    worst = 0.0
    for t in range(50):
        cm = sample_centrosymmetric(256, stream=SeedStream(6, t))
        spec = eigenvalues_centrosymmetric(cm)
        worst = max(worst, resolvent_series_gap(cm.matrix, spec, 2.5 + 0j, terms=8))
    ok = worst <= 0.05
    _report(6, "resolvent series", ok, f"max gap over 50 samples = {worst:.2e} (<=0.05)")


def test_criterion_7_determinism(tmp_path):
    """Byte-identical JSONL from 1, 2 and 8 threads for the same config."""
    outputs = []
    for threads in (1, 2, 8):
        config = RunConfig(
            n=64, trials=40, master_seed=11, poly=TestPolynomial(coeffs=(1.0,)),
            threads=threads,
        )
        batch = run_clt_experiment(config)
        path = tmp_path / f"clt_{threads}.jsonl"
        write_trial_jsonl(batch, str(path))
        outputs.append(path.read_bytes())
    clt_ok = outputs[0] == outputs[1] == outputs[2]

    cov_outputs = []
    for threads in (1, 2, 8):
        config = RunConfig(
            n=64, trials=30, master_seed=12, contour_points=(2.0 + 0j, -2.0 + 0j),
            threads=threads,
        )
        report = run_covariance_kernel_experiment(config)
        path = tmp_path / f"cov_{threads}.jsonl"
        write_trial_jsonl(report, str(path))
        cov_outputs.append(path.read_bytes())
    cov_ok = cov_outputs[0] == cov_outputs[1] == cov_outputs[2]

    record = json.loads(outputs[0].splitlines()[0])
    schema_ok = set(record) == {"trial_index", "seed", "les", "spectral_radius", "resolvent"}

    ok = clt_ok and cov_ok and schema_ok
    _report(
        7,
        "determinism",
        ok,
        f"clt identical={clt_ok}, resolvent-cov identical={cov_ok}, schema ok={schema_ok}",
    )
