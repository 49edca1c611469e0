"""Command-line front end: experiments, persistence and plot-data emission.

Every output format lives here.  All JSON goes through ``_encode``, whose
hook ``linalg.complex_to_pairs`` writes each complex value as [re, im].

Commands are deterministic given their flags: every randomized command takes
--seed.  --threads caps the worker processes that run clt and resolvent-cov
trials (default: one per CPU) and is recorded in the config JSON; the
outputs are the same bytes whatever its value.  Exit codes: 0 success,
1 validation failure (bad flags or values, found before any trial runs),
2 runtime error (including a failed trial or solve, and fewer than two
trials surviving the norm guard in clt or resolvent-cov).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .eigen import eigenvalues_centrosymmetric, eigenvalues_dense
from .harness import (
    RunConfig,
    TestPolynomial,
    TrialBatch,
    run_circular_law_experiment,
    run_clt_experiment,
    run_covariance_kernel_experiment,
)
from .linalg import complex_to_pairs, counter_identity
from .moments import MomentQuery, moment_result
from .reduction import block_reduce, verify_reduction
from .sampling import (
    STANDARD_COMPLEX_GAUSSIAN,
    SeedStream,
    moment_self_test,
    sample_centrosymmetric,
)

__all__ = ["config_to_json_dict", "emit_plot_data", "main", "parse_and_dispatch"]


_encode = json.JSONEncoder(default=complex_to_pairs).encode


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _complex_key(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def _parse_contour(text: str) -> tuple:
    points = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            re_s, im_s = part.split(",")
            points.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(f"contour point {part!r} is not of the form re,im") from None
    if not points:
        raise ValueError(f"no contour points in {text!r}")
    return tuple(points)


def config_to_json_dict(config: RunConfig) -> dict:
    return {
        "n": config.n,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "dist": STANDARD_COMPLEX_GAUSSIAN.kind,
        "poly": None if config.poly is None else config.poly.coeffs,
        "contour_points": config.contour_points,
        "rho": config.rho,
        "tau": config.tau,
        "threads": config.threads,
    }


def write_trial_jsonl(batch: TrialBatch, path: str):
    """One record per trial: {trial_index, seed, les, spectral_radius, resolvent}.

    ``les`` and ``resolvent`` split the record's statistics vector back
    into L(P) (null when rejected or without a polynomial) and Tr R_z by
    contour point (empty when rejected)."""
    lead = int(batch.config.poly is not None)
    keys = [_complex_key(z) for z in batch.config.contour_points]
    with open(path, "w") as fh:
        for t, r in enumerate(batch.records):
            record = {
                "trial_index": t,
                "seed": t,
                "les": r.values[0] if lead and r.accepted else None,
                "spectral_radius": r.spectral_radius,
                "resolvent": dict(zip(keys, r.values[lead:])),
            }
            fh.write(_encode(record) + "\n")


def _jsonl_path_for(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root + ".jsonl" if ext != ".jsonl" else root + ".trials.jsonl"


def emit_plot_data(samples: tuple, path: str):
    """The circular law's eigenvalue scatter as CSV: one re,im row per
    eigenvalue of each sample, in trial order."""
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for sample in samples:
            for z in sample.eigenvalues:
                fh.write(_complex_key(z) + "\n")


def _write_histogram(batch: TrialBatch, path: str, bins: int):
    """A CLT batch's centered-LES histogram as CSV, in two series (raw
    L-centered and L-centered divided by sqrt(n)), centred by its summaries'
    mean, with their Gaussian overlay parameters in the header comments."""
    centered = (batch.values[0] - batch.summaries.mean).real
    sigma2 = batch.summaries.predicted_sigma2
    n = batch.config.n
    series = [
        ("les_centered", centered, sigma2),
        ("les_centered_over_sqrt_n", centered / np.sqrt(n), sigma2 / n),
    ]
    with open(path, "w") as fh:
        for name, _, overlay in series:
            fh.write(f"# series={name} overlay_mean=0.0 overlay_sigma2={overlay!r}\n")
        fh.write("series,bin_left,bin_right,count\n")
        for name, data, _ in series:
            counts, edges = np.histogram(data, bins=bins)
            for i, c in enumerate(counts):
                fh.write(f"{name},{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}\n")


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_batch(batch: TrialBatch, key: str, result, out: str | None) -> int:
    """The summary JSON {config, key: result, guard_rejections} and, with
    --out, the per-trial JSONL next to it."""
    payload = {
        "config": config_to_json_dict(batch.config),
        key: result,
        "guard_rejections": batch.guard_rejections,
    }
    _write_output(_encode(payload), out)
    if out is not None:
        write_trial_jsonl(batch, _jsonl_path_for(out))
    return 0


# ---------------------------------------------------------------- handlers


def _sampled(args):
    """The one matrix that sample, reduce and spectrum act on."""
    return sample_centrosymmetric(args.n, SeedStream(args.seed, args.stream))


def _guarded_config(args, **fields) -> RunConfig:
    """RunConfig of the clt and resolvent-cov flags (see ``_add_guard``)."""
    return RunConfig(
        n=args.n, trials=args.trials, master_seed=args.seed,
        rho=args.rho, tau=args.tau, threads=args.threads, **fields,
    )


def _cmd_sample(args) -> int:
    cm = _sampled(args)
    payload = {
        "n": cm.n,
        "seed": args.seed,
        "stream_index": args.stream,
        "dist": STANDARD_COMPLEX_GAUSSIAN.kind,
        "entries": cm.matrix.ravel(),  # row-major over the full matrix
    }
    _write_output(_encode(payload), args.out)
    return 0


def _cmd_reduce(args) -> int:
    cm = _sampled(args)
    t1, t2 = block_reduce(cm)
    payload = {
        "n": cm.n,
        "seed": args.seed,
        "parity": "odd" if cm.n % 2 else "even",
        "t1": t1,
        "t2": t2,
        "residual": verify_reduction(cm, t1, t2),
    }
    _write_output(_encode(payload), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if args.method == "dense":
        lam = eigenvalues_dense(_sampled(args).matrix)
    else:
        lam = eigenvalues_centrosymmetric(_sampled(args))
    payload = {"source_dim": len(lam), "eigenvalues": lam}
    _write_output(_encode(payload), args.out)
    return 0


def _cmd_circular_law(args) -> int:
    config = RunConfig(n=args.n, trials=args.trials, master_seed=args.seed)
    samples = run_circular_law_experiment(config)
    if args.format == "csv":
        emit_plot_data(samples, args.out)
        return 0
    payload = {
        "config": config_to_json_dict(config),
        "samples": [
            {
                "seed": t,
                "radial_ks": s.radial_ks,
                "angular_chi2": s.angular_chi2,
                "angular_pvalue": s.angular_pvalue,
                "outlier_fraction": s.outlier_fraction,
                "spectral_radius": s.spectral_radius,
            }
            for t, s in enumerate(samples)
        ],
    }
    _write_output(_encode(payload), args.out)
    return 0


def _cmd_clt(args) -> int:
    if args.poly is None:
        raise ValueError("clt needs --poly")
    config = _guarded_config(args, poly=TestPolynomial.from_string(args.poly))
    batch = run_clt_experiment(config)
    if args.format == "csv":
        _write_histogram(batch, args.out, args.bins)
        return 0
    return _write_batch(batch, "summaries", asdict(batch.summaries), args.out)


def _cmd_moments(args) -> int:
    query = MomentQuery(n=args.n, k=args.k, l=args.l)
    result = moment_result(
        query,
        mc_trials=args.mc_trials,
        stream=SeedStream(args.seed, 0),
    )
    exact = result.exact_value
    payload = {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "exact": [exact.numerator, exact.denominator],
        "mc": None if result.mc_estimate is None else asdict(result.mc_estimate),
        "prediction": result.asymptotic_prediction,
    }
    text = _encode(payload)
    summary = f"exact {exact.numerator}/{exact.denominator}"
    if args.out is None:
        # stdout carries the JSON alone, so the summary goes to stderr
        print(summary, file=sys.stderr)
        print(text)
    else:
        print(summary)
        _write_output(text, args.out)
    return 0


def _cmd_resolvent_cov(args) -> int:
    if args.contour is None:
        raise ValueError("resolvent-cov needs --contour")
    config = _guarded_config(args, contour_points=_parse_contour(args.contour))
    batch = run_covariance_kernel_experiment(config)
    return _write_batch(batch, "pairs", [asdict(p) for p in batch.pairs], args.out)


def _cmd_self_test(args) -> int:
    failures = []

    report = moment_self_test(args.draws, SeedStream(args.seed, 0))
    print(
        f"entry moments: E[x]={report.mean:.2e} E[x^2]={report.second_moment:.2e} "
        f"E[|x|^2]={report.abs_second_moment:.6f} -> {'ok' if report.ok else 'FAIL'}"
    )
    if not report.ok:
        failures.append("entry moments")

    j = counter_identity(9)
    if np.abs(j @ j - np.eye(9)).max() > 1e-14 or np.abs(j - j.T).max() > 0:
        failures.append("counter identity")
    print("counter identity J^2=I, J=J^T:", "ok" if "counter identity" not in failures else "FAIL")

    for n in (8, 9):
        cm = sample_centrosymmetric(n, SeedStream(args.seed, n))
        residual = verify_reduction(cm, *block_reduce(cm))
        print(f"reduction residual n={n}: {residual:.2e}")
        if residual > 1e-12:
            failures.append(f"reduction n={n}")

    if failures:
        print("self-test FAILED:", ", ".join(failures))
        return 2
    print("self-test passed")
    return 0


# ---------------------------------------------------------------- parser


def _add_common(p, trials_default=None):
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    if trials_default is not None:
        p.add_argument("--trials", type=int, default=trials_default)
    p.add_argument("--out", type=str, default=None, help="output path (stdout if omitted)")


def _add_guard(p):
    p.add_argument("--rho", type=float, default=2.2)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--threads", type=int, default=None,
                   help="cap on trial worker processes (default: one per CPU)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="centro-spectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump one sampled matrix as JSON")
    _add_common(p)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("reduce", help="sample, block-reduce and verify")
    _add_common(p)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("spectrum", help="eigenvalues of one sampled matrix")
    _add_common(p)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--method", choices=("blocks", "dense"), default="blocks",
                   help="blocks: T1 and T2 on one BLAS thread each (at once from "
                        "512-blocks on), so the output is the same for any BLAS thread count; "
                        "dense: the full matrix on BLAS's own threads, the independent check")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("circular-law", help="ESD checks against the disc law")
    _add_common(p, trials_default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_circular_law)

    p = sub.add_parser("clt", help="centered-LES fluctuation experiment")
    _add_common(p, trials_default=400)
    p.add_argument("--poly", type=str, default=None, help="a_1,...,a_d (no constant term)")
    _add_guard(p)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_clt)

    p = sub.add_parser("moments", help="exact/MC trace moments")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--mc-trials", type=int, default=None)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("resolvent-cov", help="resolvent-trace covariance kernel")
    _add_common(p, trials_default=500)
    p.add_argument("--contour", type=str, default=None, help='"re,im;re,im;..."')
    _add_guard(p)
    p.set_defaults(handler=_cmd_resolvent_cov)

    p = sub.add_parser("self-test", help="entry-law and reduction sanity checks")
    p.add_argument("--draws", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_self_test)

    return parser


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "format", None) == "csv" and args.out is None:
            raise ValueError("--format csv needs --out")
        if getattr(args, "bins", 1) < 1:
            raise ValueError(f"--bins must be >= 1, got {args.bins}")
        return int(args.handler(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
