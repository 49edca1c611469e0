"""centro-spectra benchmark: one workload per call, checked, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
./src.  --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
metrics (names and units in BENCHMARK.json).  --smoke runs every workload
and every check at tiny sizes, then runs each check against a corrupted
copy of its inputs, which it must reject.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run manifest.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # every run ends within 180 s
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CENTRO_SPECTRA_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def spawn(mode, args, workdir: Path, deadline: float, env=None) -> tuple[dict | None, float]:
    """Run the worker in a child process; returns (its report, wall seconds)."""
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.smoke:
        argv.append("--smoke")
    log = workdir / f"{mode}.log"
    start = time.perf_counter()
    with open(log, "w") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env or child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {mode} ran past the {TIME_LIMIT_S:.0f} s limit")
    wall = time.perf_counter() - start
    if rc != 0:
        raise BenchError(f"worker {mode} exited with {rc}:\n{log.read_text()[-3000:]}")
    report = workdir / f"report-{mode}.json"
    return (json.loads(report.read_text()) if report.exists() else None), wall


def manifest(w, attempted=None, failed=None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": w.name, "git_commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "attempted": attempted, "failed": failed,
    }


def metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(w, rounds, setup_samples, peak_rss_mb):
    if w.kind == "oracle":
        wall = [r["exact_s"] for r in rounds]
        rate = [r["mc_trials"] / r["mc_s"] for r in rounds]
    else:
        wall = [r["seconds"] for r in rounds]
        rate = [r["trials"] / r["seconds"] for r in rounds]
    return {"setup_s": statistics.median(setup_samples), "peak_rss_mb": peak_rss_mb,
            "wall_s": statistics.median(wall), "trials_per_s": statistics.median(rate)}


def same_outputs(w, dirs):
    """Per-trial outputs must not depend on tracing or threads."""
    if w.kind == "oracle":
        def key(d):
            v = json.loads((d / "values.json").read_text())
            return v["exact"], v["mc"], (d / "moments.json").read_text()
    else:
        name = {"clt": "clt.jsonl", "cov": "cov.jsonl", "circlaw": "circ.json"}[w.kind]
        def key(d):
            return (d / name).read_bytes()
    first = key(dirs[0])
    return [f"{d.name} outputs differ from {dirs[0].name}" for d in dirs[1:] if key(d) != first]


def run_measure(w, args, workdir, deadline):
    import checks

    setup = [spawn("setup", args, workdir / f"setup-{i}", deadline)[1]
             for i in range(SETUP_REPEATS)]
    report, _ = spawn("measure", args, workdir / "measure", deadline)
    rounds = report["rounds"]
    # A trial round whose command failed has no outputs; it is counted in `failed`.
    data = [checks.load_round(w, workdir / "measure" / r["dir"], r["seed"]) for r in rounds
            if w.kind == "oracle" or r["failed"] == 0]
    problems = checks.check_rounds(data) if data else {}
    metrics = end_to_end(w, rounds, setup, report["peak_rss_mb"])
    detail = {"rounds": rounds, "setup_samples": setup}
    return metrics, problems, rounds, detail, data


def run_trace(w, args, workdir, deadline):
    import checks

    report, _ = spawn("trace", args, workdir / "trace", deadline)
    single, _ = spawn("blas1", args, workdir / "trace", deadline,
                      env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    metrics = {**report["metrics"], **single["metrics"]}
    base = workdir / "trace"
    if w.kind == "oracle":
        probe = wl.trial_probe(args.smoke)
        groups = [(w, [base / "untraced", base / "traced"]),
                  (probe, [base / "probe" / k for k in ("default", "serial", "traced")])]
    else:
        groups = [(w, [base / k for k in ("default", "serial", "traced")])]
    problems = {}
    seed_r = wl.program_seed(args.seed, 0)
    for gw, dirs in groups:
        found = same_outputs(gw, dirs)
        if found:
            problems[f"{gw.name}:traced_equals_untraced"] = found
        traced = checks.load_round(gw, dirs[-1], seed_r)
        for name, p in checks.check_rounds([traced]).items():
            problems[f"{gw.name}:{name}"] = p
    detail = {"rounds": report["rounds"], "self_s": report["self_s"],
              "spans": report["spans"], "probe_self_s": report.get("probe_self_s")}
    return metrics, problems, list(report["rounds"].values()), detail


def run_one(args) -> int:
    w = wl.get(args.workload)
    e2e_units, layer_units = metric_table()
    workdir = HERE / "_work" / f"{w.name}-{os.getpid()}"
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, problems, rounds, detail = run_trace(w, args, workdir, deadline)
            units = layer_units
        else:
            metrics, problems, rounds, detail, _ = run_measure(w, args, workdir, deadline)
            units = e2e_units
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    info = manifest(w, attempted, failed)
    for name, found in problems.items():
        for p in found[:5]:
            print(f"check failed: {name}: {p}", file=sys.stderr)
    if "self_s" in detail:
        print("self time by layer (s): " + json.dumps(
            {k: round(v, 4) for k, v in sorted(detail["self_s"].items())}), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"manifest": info, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "result": result, "problems": problems, **detail}, indent=1, default=str))
    print("manifest " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, with a table of metrics."""
    status = 0
    for name in wl.FULL:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:14.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def run_smoke(args) -> int:
    """Every workload at tiny sizes, traced and untraced, plus the checker self-test."""
    import checks

    status = 0
    for name in wl.SMOKE:
        sub = argparse.Namespace(**{**vars(args), "workload": name, "seconds": 1.0})
        w = wl.get(name, smoke=True)
        workdir = HERE / "_work" / f"smoke-{name}-{os.getpid()}"
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            _, problems, _, _, data = run_measure(w, sub, workdir, deadline)
            _, trace_problems, _, _ = run_trace(w, sub, workdir, deadline)
            missed, false_alarms = checks.selftest(data)
        except BenchError as exc:
            print(f"{name}: benchmark error: {exc}")
            status = 1
            continue
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems.update(trace_problems)
        ok = not problems and not missed and not false_alarms
        status |= not ok
        print(f"{name}: {'ok' if ok else 'FAIL'} ({len(checks.CHECKS[w.kind])} checks, "
              f"each rejected its corrupted input{'' if not missed else ' except ' + str(missed)})")
        for key, found in problems.items():
            print(f"  check failed: {key}: {found[:3]}")
        if false_alarms:
            print(f"  rejected clean outputs: {false_alarms}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the full result with manifest here")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "centro_spectra" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return run_smoke(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.FULL:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.FULL)}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
