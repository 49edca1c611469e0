"""Child process that drives the program for one workload.

    python3 perfbench/worker.py MODE --workload NAME --seed N --seconds S --workdir DIR [--smoke]

MODE is one of
  setup    import the package and run one tiny warm-up pipeline, then exit;
  measure  warm up, then run whole rounds of the workload's operations until
           the next round would end after --seconds (at least one round);
  trace    the traced run: untraced and traced rounds at threads=1, the
           default-thread engine, dense against block eig, the allocation of
           one block_reduce call and the moment oracle's layer;
  blas1    the single-thread baselines, run by the parent with BLAS limited
           to one thread: the engine at threads=1 and at the default, and
           dense against block eig.

The program is driven only through its user entry points:
`cli.parse_and_dispatch` with real argv, and the `moments` functions.
Outputs go under --workdir; the report is written to DIR/report-MODE.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import Tracer, children_sum, durations, grouped_sum, median_of, self_times

from centro_spectra import cli, eigen, harness, linalg, moments, reduction, sampling
from centro_spectra.sampling import SeedStream

PERSIST_SPANS = ("cli.write_trial_jsonl", "cli.emit_plot_data", "cli._write_output")
STATISTIC_SPANS = ("harness.spectral_radius", "harness.les", "harness.resolvent_trace",
                   "harness.radial_ks_statistic", "harness.angular_chisquare")
ENGINES = (
    (cli, "run_clt_experiment", "harness.run_clt_experiment"),
    (cli, "run_covariance_kernel_experiment", "harness.run_covariance_kernel_experiment"),
    (cli, "run_circular_law_experiment", "harness.run_circular_law_experiment"),
)
# Every public function on the trial path, at each module that calls it.
TRIAL_TARGETS = ENGINES + (
    (cli, "parse_and_dispatch", "cli.parse_and_dispatch"),
    (cli, "write_trial_jsonl", "cli.write_trial_jsonl"),
    (cli, "emit_plot_data", "cli.emit_plot_data"),
    (cli, "_write_output", "cli._write_output"),
    (harness, "sample_centrosymmetric", "sampling.sample_centrosymmetric"),
    (harness, "eigenvalues_centrosymmetric", "eigen.eigenvalues_centrosymmetric"),
    (harness, "spectral_radius", "harness.spectral_radius"),
    (harness, "les", "harness.les"),
    (harness, "resolvent_trace", "harness.resolvent_trace"),
    (harness, "radial_ks_statistic", "harness.radial_ks_statistic"),
    (harness, "angular_chisquare", "harness.angular_chisquare"),
    (eigen, "block_reduce", "reduction.block_reduce"),
    (eigen, "eigenvalues_dense", "eigen.eigenvalues_dense"),
    (reduction, "is_centrosymmetric", "sampling.is_centrosymmetric"),
    (sampling, "is_centrosymmetric", "sampling.is_centrosymmetric"),
    (sampling, "as_complex_matrix", "linalg.as_complex_matrix"),
    (eigen, "as_complex_matrix", "linalg.as_complex_matrix"),
    (harness, "as_complex_matrix", "linalg.as_complex_matrix"),
    (linalg, "as_complex_matrix", "linalg.as_complex_matrix"),
)
MOMENT_TARGETS = (
    (cli, "parse_and_dispatch", "cli.parse_and_dispatch"),
    (cli, "_write_output", "cli._write_output"),
    (cli, "moment_result", "moments.moment_result"),
    (moments, "exact_mixed_trace_moment", "moments.exact_mixed_trace_moment"),
    (moments, "_matching_exact", "moments._matching_exact", lambda n, k: k),
    (moments, "_enumeration_exact", "moments._enumeration_exact"),
    (moments, "mc_trace_moment", "moments.mc_trace_moment"),
    (moments, "_sample_batch", "moments._sample_batch", lambda n, dist, stream, count: count),
)


def run_cli(argv):
    """One command through the program's entry point: (exit code, seconds, stdout)."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.parse_and_dispatch([str(a) for a in argv])
    return rc, perf_counter() - start, out.getvalue()


def out_bytes(rdir: Path) -> int:
    return sum(p.stat().st_size for p in rdir.iterdir() if p.is_file())


# ------------------------------------------------------------------ rounds


def trial_round(w, seed, r, rdir, threads=None, json_only=False):
    """The clt, resolvent-cov or circular-law command set of one round
    (json_only: the circular law's JSON command alone)."""
    rdir.mkdir(parents=True, exist_ok=True)
    seed_r = wl.program_seed(seed, r)
    common = ["--n", w.n, "--seed", seed_r]
    thread_args = [] if threads is None else ["--threads", threads]
    if w.kind == "clt":
        commands = [["clt", *common, "--trials", w.trials, "--poly", wl.CLT_POLY,
                     *thread_args, "--out", rdir / "clt.json"]]
        trials = w.trials
    elif w.kind == "cov":
        commands = [["resolvent-cov", *common, "--trials", w.trials, "--contour",
                     wl.CONTOUR_ARG, "--rho", wl.RHO, "--tau", wl.TAU, *thread_args,
                     "--out", rdir / "cov.json"]]
        trials = w.trials
    else:  # circular-law has no --threads; its loop is serial
        commands = [["circular-law", *common, "--out", rdir / "circ.json"],
                    ["circular-law", *common, "--format", "csv", "--out", rdir / "scatter.csv"]]
        commands = commands[:1] if json_only else commands
        trials = len(commands)
    seconds, failed_commands, stdout = 0.0, 0, 0
    for argv in commands:
        rc, dt, text = run_cli(argv)
        seconds += dt
        stdout += len(text.encode())
        failed_commands += rc != 0
    per_command = trials // len(commands)
    return {"round": r, "seed": seed_r, "dir": rdir.name, "seconds": seconds, "trials": trials,
            "attempted": trials, "failed": failed_commands * per_command,
            "commands": len(commands), "bytes": out_bytes(rdir) + stdout}


def oracle_round(w, seed, r, rdir):
    """Exact query set, Monte Carlo queries and the two `moments` commands."""
    rdir.mkdir(parents=True, exist_ok=True)
    seed_r = wl.program_seed(seed, r)
    n_even, n_odd = wl.ORACLE_NS
    values = {"exact": [], "mc": [], "errors": []}
    counts = {"attempted": 0, "failed": 0}

    def attempt(label, fn):
        counts["attempted"] += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            counts["failed"] += 1
            values["errors"].append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def exact(n, k, l, method):
        v = attempt(f"exact({n},{k},{l},{method})", lambda: moments.exact_mixed_trace_moment(
            moments.MomentQuery(n, k, l), method=method))
        if v is not None:
            values["exact"].append({"n": n, "k": k, "l": l, "method": method,
                                    "value": [v.numerator, v.denominator]})

    start = perf_counter()
    for k in w.big_k:
        for n in (n_even, n_odd):
            exact(n, k, k, "matchings")
    for n, k in wl.ENUMERATION_GRID:
        exact(n, k, k, "enumeration")
        exact(n, k, k, "matchings")
    for n in (n_even, n_odd):
        exact(n, 1, 1, "auto")
        for k, l in wl.OFF_DIAGONAL:
            exact(n, k, l, "auto")
    exact_s = perf_counter() - start

    mc_queries = [(n, k, k) for k in w.big_k for n in (n_even, n_odd)] + [(n_even, 2, 3)]
    start = perf_counter()
    for i, (n, k, l) in enumerate(mc_queries):
        est = attempt(f"mc({n},{k},{l})", lambda: moments.mc_trace_moment(
            moments.MomentQuery(n, k, l), w.mc_trials, SeedStream(seed_r, i)))
        if est is not None:
            values["mc"].append({"n": n, "k": k, "l": l, "stream": [seed_r, i],
                                 "mean": [est.mean.real, est.mean.imag], "se": est.se,
                                 "trials": est.trials})
    mc_s = perf_counter() - start

    cli_out = ["moments", "--n", n_odd, "--k", 2, "--l", 2, "--mc-trials", w.cli_mc_trials,
               "--seed", seed_r, "--out", rdir / "moments.json"]
    rc, out_s, out_text = run_cli(cli_out)
    counts["attempted"] += 1
    counts["failed"] += rc != 0
    values["cli_out"] = {"argv": [str(a) for a in cli_out[1:]], "rc": rc}
    # Known defect kept as the one failing operation: without --out the
    # command prints an `exact p/q` line before the JSON on stdout.
    rc, stdout_s, stdout_text = run_cli(["moments", *wl.STDOUT_QUERY])
    counts["attempted"] += 1
    try:
        payload = json.loads(stdout_text)
    except json.JSONDecodeError as exc:
        payload = None
        values["errors"].append(f"moments stdout is not JSON: {exc}")
    if rc != 0 or payload is None:
        counts["failed"] += 1
    values["cli_stdout"] = {"argv": list(wl.STDOUT_QUERY), "rc": rc, "payload": payload}
    with open(rdir / "values.json", "w") as fh:
        json.dump(values, fh)
    return {"round": r, "seed": seed_r, "dir": rdir.name, "exact_s": exact_s, "mc_s": mc_s,
            "mc_trials": w.mc_trials * len(mc_queries), "cli_s": out_s + stdout_s,
            "seconds": exact_s + mc_s + out_s + stdout_s, "attempted": counts["attempted"],
            "failed": counts["failed"], "commands": 2,
            "bytes": out_bytes(rdir) - (rdir / "values.json").stat().st_size
            + len(out_text.encode()) + len(stdout_text.encode())}


def run_round(w, seed, r, rdir, threads=None):
    if w.kind == "oracle":
        return oracle_round(w, seed, r, rdir)
    return trial_round(w, seed, r, rdir, threads)


def warm_up(w, workdir: Path):
    """Tiny pipeline of the workload's own kind; counted in setup_s."""
    d = workdir / "warmup"
    d.mkdir(parents=True, exist_ok=True)
    if w.kind == "clt":
        argv = ["clt", "--n", 8, "--trials", 4, "--poly", wl.CLT_POLY, "--out", d / "clt.json"]
    elif w.kind == "cov":
        argv = ["resolvent-cov", "--n", 8, "--trials", 4, "--contour", "3,0;0,3",
                "--out", d / "cov.json"]
    elif w.kind == "circlaw":
        argv = ["circular-law", "--n", 200, "--format", "csv", "--out", d / "scatter.csv"]
    else:
        moments.exact_mixed_trace_moment(moments.MomentQuery(2, 2, 2), method="matchings")
        argv = ["moments", "--n", 2, "--k", 2, "--l", 2, "--mc-trials", 1000,
                "--out", d / "moments.json"]
    rc, _, _ = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"warm-up command failed with exit code {rc}: {argv}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ------------------------------------------------------------------- modes


def measure(w, seed, seconds, workdir, max_rounds):
    rounds = []
    start = perf_counter()
    while len(rounds) < max_rounds:
        r = len(rounds)
        t0 = perf_counter()
        result = run_round(w, seed, r, workdir / f"round-{r:03d}")
        result["wall"] = perf_counter() - t0
        rounds.append(result)
        typical = statistics.median(x["wall"] for x in rounds)
        if perf_counter() - start + typical > seconds:
            break
    return {"rounds": rounds, "peak_rss_mb": peak_rss_mb()}


def engine_round(w, seed, rdir, threads):
    """One untraced round with only the engine call timed."""
    with Tracer() as tracer:
        tracer.install(ENGINES)
        result = trial_round(w, seed, 0, rdir, threads, json_only=True)
    result["engine_s"] = sum(end - start for _, _, start, end, _ in tracer.spans)
    return result


def solver_timings(w, seed):
    """Dense eig of the full M against the block path, on the same matrices."""
    dense, centro = [], []
    for t in range(w.dense_samples):
        cm = sampling.sample_centrosymmetric(w.n, stream=SeedStream(wl.program_seed(seed, 0), t))
        start = perf_counter()
        eigen.eigenvalues_dense(cm.matrix)
        dense.append(perf_counter() - start)
        start = perf_counter()
        eigen.eigenvalues_centrosymmetric(cm)
        centro.append(perf_counter() - start)
    return statistics.median(dense), statistics.median(centro)


def accepted_fraction(w, rdir) -> float:
    """Trials that passed the norm guard over trials attempted."""
    if w.kind == "circlaw":  # no guard: every sample is kept
        payload = json.loads((rdir / "circ.json").read_text())
        return len(payload["samples"]) / payload["config"]["trials"]
    records = [json.loads(line) for line in (rdir / f"{w.kind}.jsonl").read_text().splitlines()]
    return sum(bool(r["resolvent"]) or r["les"] is not None for r in records) / len(records)


def block_reduce_alloc_mb(w, seed) -> float:
    cm = sampling.sample_centrosymmetric(w.n, stream=SeedStream(wl.program_seed(seed, 0), 0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        reduction.block_reduce(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def trace_trials(w, seed, workdir):
    """Per-layer numbers of one trial workload (or the oracle's trial probe)."""
    default = engine_round(w, seed, workdir / "default", None)
    serial = engine_round(w, seed, workdir / "serial", 1)
    with Tracer() as tracer:
        tracer.install(TRIAL_TARGETS)
        traced = trial_round(w, seed, 0, workdir / "traced", 1)
    spans = tracer.spans
    dense_s, centro_s = solver_timings(w, seed)
    n_samples = len(durations(spans, "sampling.sample_centrosymmetric"))
    persist = [x for x in children_sum(spans, "cli.parse_and_dispatch", PERSIST_SPANS) if x > 0]
    # Engine time outside the stages, taken within the traced round so that
    # run-to-run noise cancels: the stage spans are disjoint and all lie
    # inside the engine spans.
    stage_total = sum(sum(durations(spans, name)) for name in (
        "sampling.sample_centrosymmetric", "reduction.block_reduce", "eigen.eigenvalues_dense",
        *STATISTIC_SPANS))
    engine_total = sum(sum(durations(spans, name)) for _, _, name in ENGINES)
    metrics = {
        "linalg.as_complex_matrix_ms": median_of(spans, "linalg.as_complex_matrix", scale=1e3),
        "linalg.as_complex_matrix_calls_per_trial":
            len(durations(spans, "linalg.as_complex_matrix")) / n_samples,
        "sampling.sample_ms": median_of(spans, "sampling.sample_centrosymmetric", scale=1e3),
        "sampling.matrices": n_samples,
        "reduction.block_reduce_ms": median_of(spans, "reduction.block_reduce", scale=1e3),
        "reduction.block_reduce_alloc_mb": block_reduce_alloc_mb(w, seed),
        "eigen.centro_ms": median_of(spans, "eigen.eigenvalues_centrosymmetric", scale=1e3),
        "eigen.block_solve_ms": 1e3 * statistics.median(children_sum(
            spans, "eigen.eigenvalues_centrosymmetric", ("eigen.eigenvalues_dense",))),
        "eigen.dense_ms": 1e3 * dense_s,
        "eigen.block_speedup_x": dense_s / centro_s,
        "harness.statistic_ms": 1e3 * statistics.median(grouped_sum(
            spans, "sampling.sample_centrosymmetric", STATISTIC_SPANS)),
        "harness.accepted_fraction": accepted_fraction(w, workdir / "default"),
        "harness.engine_ms_per_trial_1t": 1e3 * serial["engine_s"] / serial["trials"],
        "harness.engine_overhead_ms": 1e3 * (engine_total - stage_total) / n_samples,
        "harness.pool_speedup_x": serial["engine_s"] / default["engine_s"],
        "cli.persist_ms": 1e3 * statistics.median(persist),
        "cli.bytes_written": traced["bytes"],
        # per command: the circular law's serial round has the JSON command alone
        "trace.overhead_s": traced["seconds"] / traced["commands"]
        - serial["seconds"] / serial["commands"],
    }
    rounds = {"default": default, "serial": serial, "traced": traced}
    return metrics, rounds, spans


def trace_moments(w, seed, workdir, big_k):
    """Moment-layer numbers: the oracle's own round, traced, or for a trial
    workload the matchings queries at its n and the enumeration grid."""
    with Tracer() as tracer:
        tracer.install(MOMENT_TARGETS)
        if w.kind == "oracle":
            traced = oracle_round(w, seed, 0, workdir / "traced")
        else:
            traced = None
            for k in big_k:
                moments.exact_mixed_trace_moment(moments.MomentQuery(w.n, k, k),
                                                 method="matchings")
            for n, k in wl.ENUMERATION_GRID:
                moments.exact_mixed_trace_moment(moments.MomentQuery(n, k, k),
                                                 method="enumeration")
    spans = tracer.spans
    metrics = {f"moments.matchings_k{k}_s": median_of(spans, "moments._matching_exact", tag=k)
               for k in big_k}
    metrics["moments.enumeration_s"] = sum(durations(spans, "moments._enumeration_exact"))
    return metrics, traced, spans


def trace(w, seed, workdir, smoke):
    big_k = wl.get("moment-oracle", smoke).big_k
    if w.kind != "oracle":
        metrics, rounds, spans = trace_trials(w, seed, workdir)
        moment_metrics, _, _ = trace_moments(w, seed, workdir, big_k)
        metrics.update(moment_metrics)
        return {"metrics": metrics, "rounds": rounds, "spans": spans,
                "self_s": self_times(spans)}
    untraced = oracle_round(w, seed, 0, workdir / "untraced")
    metrics, probe_rounds, probe_spans = trace_trials(
        wl.trial_probe(smoke), seed, workdir / "probe")
    moment_metrics, traced, spans = trace_moments(w, seed, workdir, big_k)
    metrics.update(moment_metrics)
    persist = [x for x in children_sum(spans, "cli.parse_and_dispatch", PERSIST_SPANS) if x > 0]
    metrics.update({
        "sampling.matrices": sum(s[1] for s in spans if s[0] == "moments._sample_batch"),
        "cli.persist_ms": 1e3 * statistics.median(persist),
        "cli.bytes_written": traced["bytes"],
        "trace.overhead_s": traced["seconds"] - untraced["seconds"],
    })
    return {"metrics": metrics, "rounds": {"untraced": untraced, "traced": traced},
            "probe_rounds": probe_rounds, "spans": spans, "self_s": self_times(spans),
            "probe_self_s": self_times(probe_spans)}


def blas1(w, seed, workdir, smoke):
    probe = w if w.kind != "oracle" else wl.trial_probe(smoke)
    default = engine_round(probe, seed, workdir / "blas1-default", None)
    serial = engine_round(probe, seed, workdir / "blas1-serial", 1)
    dense_s, centro_s = solver_timings(probe, seed)
    return {"metrics": {
        "harness.engine_ms_per_trial_blas1": 1e3 * serial["engine_s"] / serial["trials"],
        "harness.pool_speedup_x_blas1": serial["engine_s"] / default["engine_s"],
        "eigen.block_speedup_x_blas1": dense_s / centro_s,
    }}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("mode", choices=("setup", "measure", "trace", "blas1"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    w = wl.get(args.workload, args.smoke)
    args.workdir.mkdir(parents=True, exist_ok=True)
    warm_up(w, args.workdir)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        report = measure(w, args.seed, args.seconds, args.workdir, 2 if args.smoke else 999)
    elif args.mode == "trace":
        report = trace(w, args.seed, args.workdir, args.smoke)
    else:
        report = blas1(w, args.seed, args.workdir, args.smoke)
    with open(args.workdir / f"report-{args.mode}.json", "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
