"""Workload definitions shared by the measuring worker and the checker.

Every random input the program receives is derived here from the
benchmark seed: the master seed of each round's CLI commands and the seed
streams of the Monte Carlo moments.  Sizes are fixed per workload.  The
deliberately failing `moments` stdout query takes no seed at all, so that
it fails on every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# P(z) = 2 z^3 + z^4: predicted variance sum_k 2k|a_k|^2 = 2*3*4 + 2*4*1 = 32.
CLT_POLY = "0,0,2,1"
CLT_COEFFS = (0.0, 0.0, 2.0, 1.0)
CLT_SIGMA2 = 32.0

# Four contour points.  |z| = 1.7 is the one close to the disc: the guard
# (rho, 1.2 r <= |z|, |z| - r >= tau) then accepts only r <= 1.2, which
# rejects about 6 % of n=64 trials after their full eig.
CONTOUR = (1.7 + 0j, 2.5j, -3.0 + 0j, 2.0 - 2.0j)
CONTOUR_ARG = ";".join(f"{z.real!r},{z.imag!r}" for z in CONTOUR)
RHO = 2.2
TAU = 0.5

# Exact moments compared by enumeration and by matchings, (n, k) with k = l.
ENUMERATION_GRID = tuple((n, k) for n in (2, 3, 4, 5) for k in (1, 2, 3, 4))
# k != l queries; (k, 0) is the single-chain moment.
OFF_DIAGONAL = ((1, 2), (2, 1), (3, 5), (6, 4), (2, 0), (5, 0))
# (even n, odd n) of the oracle's matchings and Monte Carlo queries.  Fixed:
# the Monte Carlo cost grows as n^3, so a seed-drawn n would set the rate.
ORACLE_NS = (10, 11)
# The failing operation: `moments` without --out, stdout parsed as JSON.
STDOUT_QUERY = ("--n", "4", "--k", "2", "--l", "2")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "clt" | "cov" | "circlaw" | "oracle"
    n: int
    trials: int = 0  # trials per CLI command (clt, cov)
    big_k: tuple = ()  # oracle: k of the matchings queries at both parities
    mc_trials: int = 0  # oracle: trials per mc_trace_moment query
    cli_mc_trials: int = 0  # oracle: --mc-trials of the `moments --out` command
    probe_trials: int = 0  # trace: trials of the small engine probe (oracle)
    dense_samples: int = 1  # trace: matrices timed by the dense and block solvers


FULL = {
    w.name: w
    for w in (
        Workload("clt-n512", "clt", n=512, trials=8, dense_samples=3),
        Workload("cov-n64", "cov", n=64, trials=500, dense_samples=20),
        Workload("circlaw-n2000", "circlaw", n=2000, dense_samples=1),
        Workload(
            "moment-oracle", "oracle", n=0, big_k=(5, 6), mc_trials=50000,
            cli_mc_trials=5000, probe_trials=200, dense_samples=20,
        ),
    )
}

# Tiny sizes that run every code path and every check in seconds.
SMOKE = {
    "clt-n512": replace(FULL["clt-n512"], n=16, trials=40),
    "cov-n64": replace(FULL["cov-n64"], n=16, trials=200),
    "circlaw-n2000": replace(FULL["circlaw-n2000"], n=500),
    "moment-oracle": replace(
        FULL["moment-oracle"], big_k=(3, 4), mc_trials=2000, cli_mc_trials=1000,
        probe_trials=20,
    ),
}


def get(name: str, smoke: bool = False) -> Workload:
    table = SMOKE if smoke else FULL
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def program_seed(seed: int, round_index: int) -> int:
    """Master seed of the CLI commands in one round: distinct per round."""
    return seed * 1000 + round_index


def trial_probe(smoke: bool = False) -> Workload:
    """The CLT engine at the oracle's even n, for the trial layers' numbers
    in the oracle's traced run (the oracle itself has no eigensolver)."""
    oracle = get("moment-oracle", smoke)
    return Workload("oracle-trial-probe", "clt", n=ORACLE_NS[0],
                    trials=oracle.probe_trials, dense_samples=oracle.dense_samples)
