"""Golden outputs: a fixed CLI command set must write byte-identical files.

The commands run in one child process with BLAS pinned to one thread,
because OpenBLAS's blocking (and so the last bits of an eigensolve) depends
on its thread count.  Every command but ``spectrum --method dense`` pins
OpenBLAS to one thread itself, so it must write the same files with BLAS on
two threads.  The SHA-256 table below was recorded with the numpy and BLAS
builds named next to it; on any other build the last bits may differ, so
the tests skip there instead of failing.

The output files are the program's behaviour: a refactor leaves every hash
unchanged, and only a deliberate change of an output re-records the table.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"

COMMANDS = (
    ["sample", "--n", "9", "--seed", "11", "--stream", "3", "--out", "sample.json"],
    ["reduce", "--n", "9", "--seed", "11", "--out", "reduce.json"],
    ["spectrum", "--n", "64", "--seed", "12", "--method", "blocks", "--out", "spectrum_blocks.json"],
    ["spectrum", "--n", "64", "--seed", "12", "--method", "dense", "--out", "spectrum_dense.json"],
    ["clt", "--n", "64", "--trials", "40", "--seed", "13", "--poly", "0,0,2,1",
     "--threads", "2", "--out", "clt.json"],
    ["clt", "--n", "64", "--trials", "40", "--seed", "13", "--poly", "0,0,2,1",
     "--format", "csv", "--out", "clt.csv"],
    ["resolvent-cov", "--n", "64", "--trials", "30", "--seed", "14",
     "--contour", "1.7,0;0,1.7;-2,0.5", "--out", "cov.json"],
    ["moments", "--n", "5", "--k", "3", "--l", "3", "--out", "moments_exact.json"],
    ["moments", "--n", "6", "--k", "2", "--l", "2", "--mc-trials", "2000", "--seed", "15",
     "--out", "moments_mc.json"],
    ["circular-law", "--n", "200", "--seed", "16", "--out", "circ.json"],
    ["circular-law", "--n", "200", "--seed", "16", "--format", "csv", "--out", "circ.csv"],
    ["spectrum", "--n", "63", "--seed", "17", "--method", "blocks", "--out", "spectrum_odd.json"],
    ["clt", "--n", "63", "--trials", "20", "--seed", "18", "--poly", "0,0,2,1",
     "--out", "clt_odd.json"],
    ["circular-law", "--n", "200", "--trials", "2", "--seed", "19", "--out", "circ2.json"],
    ["moments", "--n", "7", "--k", "4", "--l", "4", "--out", "moments_k4.json"],
    ["moments", "--n", "11", "--k", "6", "--l", "6", "--out", "moments_k6_odd.json"],
    ["moments", "--n", "64", "--k", "5", "--l", "5", "--out", "moments_k5_even.json"],
)

GOLDEN = {
    "circ.csv": "d7121043fe18cfd3db18dcb6775fc5ead7c196e23b3690340f704721dcc87d42",
    "circ.json": "f6364f1fb6a10cf98183a004931710632dbda18d6a804cfce0bd369c207d3537",
    "circ2.json": "ab28c190eb49d282ef02136647c32a5e1b82cd0057f24366dadc325ac664878e",
    "clt.csv": "9603338c64273828116fdba4945e072188f1dab400f9faad524e376d14854a8d",
    "clt.json": "34ec37d368a12507b954384440083320f7a7bc7de4d0421191700b392786f2dd",
    "clt.jsonl": "2ddd415630d47357f4fbb7470e88b88a6db82f61b8100c439f0f265184590296",
    "clt_odd.json": "a53ace23c2abbc7d0fa6086fcc73eb6bc651c70a5da7787c89e5811fbefe5e4e",
    "clt_odd.jsonl": "4e287db935de010d124fc2296ed6351deff77f7df69d47af60ee88cb49a89f75",
    "cov.json": "c7d0b79893d730ff53841ef8f48206a8ea5b6cd9e474b3670737da5f1c267323",
    "cov.jsonl": "dfb8ecac4dc8b45474af2ce9ec90a525f9816f96d3cfb4b1c1cf28caf6c1a1a3",
    "moments_exact.json": "cd8c1a52c363af8314663a8fd99afe94e88f4dc72be5fc53c8850a84cd6af93b",
    "moments_k4.json": "4ea3e5caa38aad942ac40708835acaab51b8baa2431ba1f067ac4b2b6ec0897c",
    "moments_k5_even.json": "427b30a53ed343a321f0f0b6db5237d3edae521d4944beddf393a904d6e11448",
    "moments_k6_odd.json": "5d7e25acba7fb253269ef0c89ac5ea1ee234dc75c9b2a394061ee31bb9ac86bd",
    "moments_mc.json": "4979ec315eaf980db86e1bd4aa318faee771f6333bb092aa79b8d9a415731a9e",
    "reduce.json": "b57828cb590869cfa068366ea9b109b189e29b4fe99928d9b624f9de96c8d336",
    "sample.json": "503b940f919d53686687a0a0362ed3d52ac6a4b94af03d365fc84951cdfef98a",
    "spectrum_blocks.json": "f8fd3941b732113fd3e9937eb3d16073a4992df00b99f0bb8bdf18bcc2754f34",
    "spectrum_dense.json": "83ebb0a1eb9b34161878717bfa7e5be0803be1bf6f25d7aab66d0da980abc636",
    "spectrum_odd.json": "645ce9ff8a2529bdfd59ae701eb413177f8dd490f696f8ba6cca39bbde83274f",
}

_RUNNER = """
import contextlib, io, json, sys
from centro_spectra.cli import parse_and_dispatch
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(parse_and_dispatch(argv))
print(json.dumps(codes))
"""


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_golden_commands(workdir: Path, commands=COMMANDS, blas_threads="1") -> dict:
    """Run the commands in one child process with BLAS on ``blas_threads``
    threads; SHA-256 of every file written."""
    commands = [[*argv[:-1], str(workdir / argv[-1])] for argv in commands]  # --out last
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout) == [0] * len(commands), done.stderr
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())
    }


def _skip_unless_recorded_build():
    if (np.__version__, _blas()) != (RECORDED_NUMPY, RECORDED_BLAS):
        pytest.skip(
            f"golden hashes were recorded with numpy {RECORDED_NUMPY} and {RECORDED_BLAS}, "
            f"this is numpy {np.__version__} with {_blas()}"
        )


def test_golden_outputs_are_byte_identical(tmp_path):
    _skip_unless_recorded_build()
    assert run_golden_commands(tmp_path) == GOLDEN


def test_golden_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Only the dense spectrum runs on BLAS's own threads, as the independent check."""
    _skip_unless_recorded_build()
    commands = [argv for argv in COMMANDS if argv[-1] != "spectrum_dense.json"]
    expected = {name: h for name, h in GOLDEN.items() if name != "spectrum_dense.json"}
    assert run_golden_commands(tmp_path, commands, blas_threads="2") == expected
