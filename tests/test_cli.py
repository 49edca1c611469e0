import ast
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centro_spectra import eigen, harness, reduction
from centro_spectra.cli import (
    config_to_json_dict,
    emit_plot_data,
    parse_and_dispatch,
    write_trial_jsonl,
)
from centro_spectra.harness import (
    RunConfig,
    TestPolynomial,
    les,
    resolvent_trace,
    run_clt_experiment,
    run_covariance_kernel_experiment,
)
from centro_spectra.linalg import (
    _openblas_thread_controls,
    available_cpus,
    complex_from_pairs,
    complex_to_pairs,
    single_blas_thread,
)
from centro_spectra.sampling import SeedStream, sample_centrosymmetric


def _run(argv, capsys):
    code = parse_and_dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sample_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = _run(["sample", "--n", "4", "--seed", "3", "--out", str(path)], capsys)
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["n"] == 4 and obj["seed"] == 3 and obj["stream_index"] == 0
    m = complex_from_pairs(obj["entries"]).reshape(4, 4)
    assert np.array_equal(m, np.flip(m, (0, 1)))


def test_sample_dump_records_stream_index(tmp_path, capsys):
    path = tmp_path / "m.json"
    argv = ["sample", "--n", "3", "--seed", "3", "--stream", "3", "--out", str(path)]
    assert _run(argv, capsys)[0] == 0
    assert json.loads(path.read_text())["stream_index"] == 3


def test_nan_guard_values_are_validation_failures(tmp_path, capsys):
    for argv in (
        ["clt", "--n", "8", "--trials", "4", "--poly", "1", "--rho", "nan"],
        ["resolvent-cov", "--n", "8", "--trials", "4", "--contour", "3,0", "--tau", "nan"],
        ["resolvent-cov", "--n", "8", "--trials", "4", "--contour", "nan,0"],
    ):
        code, _, err = _run([*argv, "--out", str(tmp_path / "x.json")], capsys)
        assert code == 1, argv
        assert "rejected by the norm guard" not in err
    assert not (tmp_path / "x.json").exists()


def test_reduce_n3_example(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = _run(["reduce", "--n", "3", "--seed", "7", "--out", str(path)], capsys)
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["t1"]) == 2 and len(obj["t1"][0]) == 2
    assert len(obj["t2"]) == 1 and len(obj["t2"][0]) == 1
    assert obj["residual"] <= 1e-12
    assert obj["parity"] == "odd"


def test_spectrum_methods_agree(tmp_path, capsys):
    out_blocks = tmp_path / "b.json"
    out_dense = tmp_path / "d.json"
    assert _run(["spectrum", "--n", "8", "--seed", "2", "--out", str(out_blocks)], capsys)[0] == 0
    assert _run(
        ["spectrum", "--n", "8", "--seed", "2", "--method", "dense", "--out", str(out_dense)],
        capsys,
    )[0] == 0
    blocks = json.loads(out_blocks.read_text())
    dense = json.loads(out_dense.read_text())
    assert blocks["source_dim"] == dense["source_dim"] == 8
    a = sorted(map(tuple, blocks["eigenvalues"]))
    b = sorted(map(tuple, dense["eigenvalues"]))
    assert np.allclose(a, b, atol=1e-8)


def test_moments_exact_output(tmp_path, capsys):
    path = tmp_path / "mom.json"
    code, out, _ = _run(
        ["moments", "--n", "4", "--k", "1", "--l", "1", "--out", str(path)], capsys
    )
    assert code == 0
    assert "exact 2/1" in out
    obj = json.loads(path.read_text())
    assert obj["exact"] == [2, 1]
    assert obj["prediction"] == 2.0
    assert obj["mc"] is None


def test_moments_stdout_is_json(capsys):
    code, out, err = _run(["moments", "--n", "4", "--k", "1", "--l", "1"], capsys)
    assert code == 0
    assert json.loads(out)["exact"] == [2, 1]
    assert "exact 2/1" in err


def test_clt_summary_and_jsonl(tmp_path, capsys):
    out = tmp_path / "run.json"
    code, _, _ = _run(
        ["clt", "--n", "32", "--trials", "20", "--poly", "0,0,2,1", "--seed", "1",
         "--threads", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["summaries"]["predicted_sigma2"] == 32.0
    assert summary["guard_rejections"] == 0
    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    assert len(lines) == 20  # one record per trial
    record = json.loads(lines[0])
    assert set(record) == {"trial_index", "seed", "les", "spectral_radius", "resolvent"}


def test_clt_shape_statistics_do_not_depend_on_the_scale_of_p(capsys):
    """Skewness and kurtosis are scale-free: P = c z gives P = z's values
    whether the powers of c z's values would overflow or underflow."""
    def shape(poly):
        code, out, _ = _run(["clt", "--n", "16", "--trials", "5", "--seed", "1",
                             "--poly", poly], capsys)
        assert code == 0
        s = json.loads(out)["summaries"]
        return np.array([s["skewness"], s["excess_kurtosis"]])

    reference = shape("1")
    for poly in ("1e100", "1e150", "1e-160"):
        assert np.allclose(shape(poly), reference, rtol=1e-12, atol=0.0), poly


def test_clt_csv_format(tmp_path, capsys):
    path = tmp_path / "hist.csv"
    code, _, _ = _run(
        ["clt", "--n", "24", "--trials", "16", "--poly", "1", "--seed", "2",
         "--format", "csv", "--bins", "8", "--out", str(path)],
        capsys,
    )
    assert code == 0
    text = path.read_text()
    assert "overlay_sigma2=2.0" in text
    assert text.splitlines()[2] == "series,bin_left,bin_right,count"


def test_clt_requires_poly(capsys):
    code, _, err = _run(["clt", "--n", "16", "--trials", "4", "--seed", "0"], capsys)
    assert code == 1
    assert "poly" in err


def test_unknown_flag_is_validation_failure(capsys):
    code, _, _ = _run(["clt", "--n", "16", "--frobnicate"], capsys)
    assert code == 1


def test_unwritable_output_is_runtime_error(capsys):
    code, _, _ = _run(
        ["sample", "--n", "2", "--seed", "0", "--out", "/nonexistent-dir/x.json"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("argv, statistics", [
    pytest.param(["circular-law", "--n", "200", "--trials", "2"],
                 ("radial_ks_statistic", "angular_chisquare"), id="circular-law"),
    pytest.param(["clt", "--n", "8", "--trials", "4", "--poly", "1"], ("les",), id="clt"),
    pytest.param(["resolvent-cov", "--n", "8", "--trials", "4", "--contour", "2,0"],
                 ("resolvent_trace",), id="resolvent-cov"),
])
def test_failed_trial_is_runtime_error_in_every_experiment(monkeypatch, capsys, argv, statistics):
    """A failing solve or statistic fails its trial: exit 2, not a validation failure."""
    for name in ("eigenvalues_centrosymmetric", "spectral_radius", *statistics):
        def broken(*args):
            raise ValueError(f"{name} broke")

        with monkeypatch.context() as patch:
            patch.setattr(harness, name, broken)
            code, _, err = _run(argv, capsys)
        assert code == 2, name
        assert f"trial 0 failed: {name} broke" in err
        assert multiprocessing.active_children() == []  # no worker outlives the command


@pytest.mark.skipif(available_cpus() < 2, reason="one CPU: no helper thread")
def test_failed_solve_on_the_helper_thread_fails_its_trial(monkeypatch, capsys):
    solve = eigen.eigenvalues_dense
    helper_solves = []

    def fails_off_the_main_thread(m):
        if threading.current_thread() is threading.main_thread():
            return solve(m)
        helper_solves.append(len(m))
        raise ValueError("T2 broke")

    monkeypatch.setattr(eigen, "eigenvalues_dense", fails_off_the_main_thread)
    with pytest.raises(RuntimeError, match=r"^trial 0 failed: T2 broke$"):
        harness.run_circular_law_experiment(
            RunConfig(n=1025, trials=2, master_seed=5, threads=1))
    assert helper_solves == [512]  # T2 of n = 1025; trial 1 never starts
    code, _, err = _run(["circular-law", "--n", "1025", "--seed", "5", "--trials", "2"], capsys)
    assert code == 2
    assert "trial 0 failed: T2 broke" in err


def _cli_env(**overrides) -> dict:
    """This process's environment with BLAS threads unset, the package's
    sources on PYTHONPATH and ``overrides`` applied."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                             "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **overrides}


@pytest.mark.skipif(not _openblas_thread_controls(), reason="no OpenBLAS thread-count entry point")
def test_spectrum_on_the_helper_thread_gives_the_serial_bits(tmp_path):
    """n = 1025 (odd, a 512-block T2): the blocks solved at once give the
    serial bits, whatever the BLAS thread count."""
    outputs = set()
    for blas in ("1", "2"):
        out = tmp_path / f"spectrum-{blas}.json"
        subprocess.run(
            [sys.executable, "-m", "centro_spectra.cli", "spectrum", "--n", "1025", "--seed",
             "3", "--method", "blocks", "--out", str(out)],
            env=_cli_env(OPENBLAS_NUM_THREADS=blas), check=True, capture_output=True,
        )
        outputs.add(out.read_bytes())
    assert len(outputs) == 1
    red = reduction.block_reduce(sample_centrosymmetric(1025, SeedStream(3, 0)))
    with single_blas_thread():
        serial = np.concatenate([eigen.eigenvalues_dense(red.t1), eigen.eigenvalues_dense(red.t2)])
    lam = complex_from_pairs(json.loads(outputs.pop())["eigenvalues"])
    assert red.t2.shape == (512, 512) and lam.tobytes() == serial.tobytes()


@pytest.mark.skipif(not _openblas_thread_controls(), reason="no OpenBLAS thread-count entry point")
def test_clt_bytes_do_not_depend_on_threads_or_blas_threads(tmp_path):
    """256-blocks: unpinned, the BLAS thread count would change the last bits."""
    outputs = set()
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        for threads in ("1", "2"):
            out = tmp_path / f"clt-{len(blas)}-{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "centro_spectra.cli", "clt", "--n", "512", "--trials",
                 "4", "--seed", "21", "--poly", "0,0,2,1", "--threads", threads,
                 "--out", str(out)],
                env=_cli_env(**blas), check=True, capture_output=True,
            )
            outputs.add(out.with_suffix(".jsonl").read_bytes())
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    ["circular-law", "--n", "1000", "--format", "csv"],
    ["clt", "--n", "256", "--trials", "40", "--poly", "1", "--format", "csv"],
], ids=lambda argv: argv[0])
def test_csv_without_out_fails_before_sampling(monkeypatch, capsys, argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the flags were checked")

    monkeypatch.setattr(harness, "sample_centrosymmetric", no_sampling)
    code, _, err = _run(argv, capsys)
    assert code == 1
    assert "--format csv needs --out" in err


# A valid argv per command; each malformed case below corrupts one flag.
_VALID_FLAGS = {
    "sample": {"--n": "4", "--seed": "1", "--stream": "0"},
    "reduce": {"--n": "4", "--seed": "1", "--stream": "0"},
    "spectrum": {"--n": "4", "--seed": "1", "--stream": "0"},
    "circular-law": {"--n": "200", "--trials": "1", "--seed": "1"},
    "clt": {"--n": "8", "--trials": "4", "--seed": "1", "--poly": "1"},
    "resolvent-cov": {"--n": "8", "--trials": "4", "--seed": "1", "--contour": "2,0"},
    "moments": {"--n": "4", "--k": "2", "--seed": "1", "--mc-trials": "1000"},
}
_NON_POSITIVE = st.integers(-10**6, 0).map(str)
_NEGATIVE = st.integers(-2**70, -1).map(str)
_BAD_POLY = st.one_of(
    st.text(alphabet="abcxyz ,;.+"),  # no digits, "nan" or "inf": never a number
    st.sampled_from(["nan", "inf", "-inf", "1,nan", "2,-inf", "1e999", "0,1e400",
                     "1e-200", "1e200", "0,,2", "1,", ",1"]),
)
_BAD_CONTOUR = st.one_of(
    st.text(alphabet="ab ,;"),
    st.sampled_from(["2", "2,0,1", "2;0", "2,0;x", "nan,0", "0,inf", "1e999,0", "0.5,0",
                     "1.2,0", ";;"]),
)


@st.composite
def _malformed_argv(draw):
    command = draw(st.sampled_from(sorted(_VALID_FLAGS)))
    flags = dict(_VALID_FLAGS[command])
    bad = {"--n": _NON_POSITIVE, "--seed": _NEGATIVE}
    if "--stream" in flags:
        bad["--stream"] = _NEGATIVE
    if "--trials" in flags:  # the two covariance-type experiments need 2 trials
        bad["--trials"] = st.integers(-10**6, 0 if command == "circular-law" else 1).map(str)
    if command == "clt":
        bad["--poly"] = _BAD_POLY
        bad["--bins"] = _NON_POSITIVE
    if command == "resolvent-cov":
        bad["--contour"] = _BAD_CONTOUR
    flag = draw(st.sampled_from(sorted(bad)))
    flags[flag] = draw(bad[flag])
    return [command, *(part for item in flags.items() for part in item)]


@settings(max_examples=150, deadline=None)
@given(argv=_malformed_argv())
def test_malformed_inputs_are_validation_failures_and_write_nothing(argv):
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "out.json"
        assert parse_and_dispatch([*argv, "--out", str(out)]) == 1, argv
        assert list(Path(workdir).iterdir()) == [], argv


def test_circular_law_scatter_csv(tmp_path, capsys):
    path = tmp_path / "scatter.csv"
    code, _, _ = _run(
        ["circular-law", "--n", "200", "--seed", "2", "--format", "csv", "--out", str(path)],
        capsys,
    )
    assert code == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "re,im"
    assert len(rows) == 1 + 200


def test_histogram_csv_overlay(tmp_path):
    config = RunConfig(n=32, trials=30, master_seed=1, poly=TestPolynomial(coeffs=(1.0,)))
    batch = run_clt_experiment(config)
    path = tmp_path / "hist.csv"
    emit_plot_data(batch, str(path), bins=12)
    text = path.read_text()
    assert "overlay_sigma2=2.0" in text
    lines = [l for l in text.splitlines() if l.startswith("les_centered,")]
    assert len(lines) == 12
    # bin edges cover [min, max] of the samples
    values = (batch.values[0] - batch.values[0].mean()).real
    first = lines[0].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == pytest.approx(values.min())
    assert float(last[2]) == pytest.approx(values.max())


def test_jsonl_splits_the_statistics_vector_by_column(tmp_path):
    """With a polynomial and contour points, each accepted record's les and
    resolvent are L(P) and Tr R_z of that trial's own spectrum."""
    poly = TestPolynomial(coeffs=(0.0, 1.0))
    points = (1.7 + 0j, -2.0 + 0.5j)
    config = RunConfig(n=64, trials=40, master_seed=2, poly=poly, contour_points=points)
    for run in (run_clt_experiment, run_covariance_kernel_experiment):
        batch = run(config)
        assert batch.values.shape == (3, config.trials - batch.guard_rejections)
        path = tmp_path / f"{run.__name__}.jsonl"
        write_trial_jsonl(batch, str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert 0 < batch.guard_rejections < config.trials
        for t, record in enumerate(records):
            if not batch.records[t].accepted:
                assert record["les"] is None and record["resolvent"] == {}
                continue
            lam = eigen.eigenvalues_centrosymmetric(sample_centrosymmetric(64, SeedStream(2, t)))
            assert complex_from_pairs([record["les"]])[0] == les(lam, poly)
            assert list(record["resolvent"]) == ["1.7,0.0", "-2.0,0.5"]
            got = complex_from_pairs(list(record["resolvent"].values()))
            assert list(got) == [resolvent_trace(lam, z) for z in points]


def test_all_rejected_runs_raise_in_both_experiments():
    config = RunConfig(n=16, trials=3, master_seed=0, poly=TestPolynomial(coeffs=(1.0,)),
                       contour_points=(3.0 + 0j,), rho=1e-6)
    for run in (run_clt_experiment, run_covariance_kernel_experiment):
        with pytest.raises(RuntimeError, match="all trials rejected"):
            run(config)


def test_resolvent_cov_output(tmp_path, capsys):
    path = tmp_path / "cov.json"
    code, _, _ = _run(
        ["resolvent-cov", "--n", "32", "--trials", "40", "--seed", "3",
         "--contour", "2,0;-2,0", "--out", str(path)],
        capsys,
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["pairs"]) == 4
    predicted = {tuple(p["z"]) + tuple(p["eta"]): p["predicted"] for p in obj["pairs"]}
    assert predicted[(2.0, 0.0, 2.0, 0.0)][0] == pytest.approx(2.0 / 9.0)
    assert predicted[(2.0, 0.0, -2.0, 0.0)][0] == pytest.approx(0.08)
    assert (tmp_path / "cov.jsonl").exists()


def test_config_json_round_trip_reproduces_results():
    config = RunConfig(
        n=24, trials=12, master_seed=5, poly=TestPolynomial(coeffs=(0.5, 1.0)),
        contour_points=(2.5 + 0j,), rho=2.2, tau=0.5, threads=2,
    )
    obj = json.loads(json.dumps(config_to_json_dict(config), default=complex_to_pairs))
    # "dist" names the entry law, which is not a RunConfig field: there is only one
    assert set(obj) == {f.name for f in dataclasses.fields(RunConfig)} | {"dist"}
    assert (obj["n"], obj["trials"], obj["master_seed"], obj["threads"]) == (24, 12, 5, 2)
    assert obj["dist"] == "standard_complex_gaussian"
    assert tuple(complex_from_pairs(obj["poly"])) == config.poly.coeffs
    assert tuple(complex_from_pairs(obj["contour_points"])) == config.contour_points
    assert (obj["rho"], obj["tau"]) == (config.rho, config.tau)


def test_importing_the_cli_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, centro_spectra.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=_cli_env(), capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_only_cli_imports_json():
    package = Path(__file__).resolve().parents[1] / "src" / "centro_spectra"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if "json" in names or (isinstance(node, ast.ImportFrom) and node.module == "json"):
                importers.add(path.stem)
    assert importers == {"cli"}


def test_self_test_quick(capsys):
    code, out, _ = _run(["self-test", "--draws", "20000", "--seed", "0"], capsys)
    assert code == 0
    assert "self-test passed" in out


_IMPORT_BOUNDARY_RUNNER = """
import contextlib, io, json, sys
import centro_spectra
from centro_spectra.cli import parse_and_dispatch
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(parse_and_dispatch(argv))
heavy = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
print(json.dumps({"codes": codes, "heavy": heavy}))
"""


def test_commands_leave_scipy_stats_and_optimize_unimported(tmp_path):
    out = str(tmp_path)
    commands = [
        ["clt", "--n", "16", "--trials", "6", "--seed", "1", "--poly", "0,1",
         "--out", f"{out}/clt.json"],
        ["circular-law", "--n", "200", "--seed", "2", "--out", f"{out}/circ.json"],
        ["circular-law", "--n", "200", "--seed", "2", "--format", "csv",
         "--out", f"{out}/circ.csv"],
        ["resolvent-cov", "--n", "16", "--trials", "6", "--seed", "3", "--contour", "2,0;0,2",
         "--out", f"{out}/cov.json"],
        ["moments", "--n", "4", "--k", "2", "--l", "2", "--mc-trials", "1000", "--seed", "4",
         "--out", f"{out}/mom.json"],
        ["self-test", "--draws", "20000", "--seed", "5"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY_RUNNER, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(commands), done.stderr
    assert result["heavy"] == []
