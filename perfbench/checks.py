"""Correctness checks on the program's outputs.

Each check recomputes what it can apart from the program (the matrices
from the documented sampling rule, traces by matrix powers, resolvents by a
dense solve, statistics from the written eigenvalues) or tests a property
the method must have.  Nothing is compared with stored copies of earlier
output.  Every check comes with a corruption of its inputs that it must
reject; `selftest` runs each check against its corrupted copy.

A check takes the parsed outputs of one round (`load_round`) and returns a
list of problems; the pooled checks take all rounds of a run.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats

import workloads as wl

SECTORS = 16  # angular chi-square sectors, as the circular-law command uses
# Acceptance criterion 2's tolerances.
RADIAL_KS_MAX, ANGULAR_P_MIN, OUTLIER_MAX, OUTLIER_RADIUS = 0.05, 0.01, 0.01, 1.05
VARIANCE_BAND_SE = 5.0  # pooled CLT variance within this many standard errors of 32
MC_BAND_SE = 4.0


def reference_matrix(n: int, seed: int, stream: int) -> np.ndarray:
    """The ensemble's matrix for (seed, stream), built from the documented rule.

    Philox keyed by (seed, stream) draws ceil(n^2/2) standard circular
    Gaussians (Re, Im interleaved, each N(0, 1/2)).  The free positions are
    those whose row-major index f satisfies f <= n^2 - 1 - f, i.e. the first
    ceil(n^2/2); position f mirrors to n^2 - 1 - f.  Scaled by 1/sqrt(n).
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, stream]))
    n_free = (n * n + 1) // 2
    raw = rng.standard_normal(2 * n_free) * np.sqrt(0.5)
    free = raw[0::2] + 1j * raw[1::2]
    flat = np.concatenate([free, free[: n * n - n_free][::-1]])
    return flat.reshape(n, n) / np.sqrt(n)


def _close(a, b, rel, floor=1.0) -> bool:
    return abs(complex(a) - complex(b)) <= rel * max(floor, abs(complex(a)), abs(complex(b)))


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ------------------------------------------------------------------ loading


def load_round(w, rdir: Path, seed_r: int) -> dict:
    data = {"w": w, "seed": seed_r, "dir": str(rdir)}
    if w.kind in ("clt", "cov"):
        stem = rdir / ("clt" if w.kind == "clt" else "cov")
        data["summary"] = json.loads(stem.with_suffix(".json").read_text())
        data["records"] = [json.loads(line) for line in
                           stem.with_suffix(".jsonl").read_text().splitlines()]
    elif w.kind == "circlaw":
        data["summary"] = json.loads((rdir / "circ.json").read_text())
        lines = (rdir / "scatter.csv").read_text().splitlines()
        data["header"] = lines[0]
        data["eigenvalues"] = np.array(
            [complex(*map(float, line.split(","))) for line in lines[1:]], dtype=np.complex128)
    else:
        data["values"] = json.loads((rdir / "values.json").read_text())
        out = rdir / "moments.json"
        data["cli_out"] = json.loads(out.read_text()) if out.exists() else None
    return data


# ---------------------------------------------------------------- trial runs


def _guard_ok(radius: float, contour) -> bool:
    if radius > wl.RHO:
        return False
    if not contour:
        return True
    m = min(abs(z) for z in contour)
    return 1.2 * radius <= m and m - radius >= wl.TAU


def check_records(d):
    """One record per trial in order, the guard applied exactly, the
    summary's rejection count and configuration as requested."""
    w, recs, summ = d["w"], d["records"], d["summary"]
    contour = wl.CONTOUR if w.kind == "cov" else ()
    problems = []
    if [r["trial_index"] for r in recs] != list(range(w.trials)):
        problems.append(f"{len(recs)} records, expected trial_index 0..{w.trials - 1}")
    if any(r["seed"] != r["trial_index"] for r in recs):
        problems.append("record seed is not its trial's stream index")
    rejected = 0
    for r in recs:
        accepted = r["les"] is not None if w.kind == "clt" else bool(r["resolvent"])
        if accepted != _guard_ok(r["spectral_radius"], contour):
            problems.append(f"trial {r['trial_index']}: accepted={accepted} but guard says "
                            f"{not accepted} at radius {r['spectral_radius']}")
        if w.kind == "cov" and accepted and len(r["resolvent"]) != len(contour):
            problems.append(f"trial {r['trial_index']}: {len(r['resolvent'])} resolvent values")
        rejected += not accepted
    if summ["guard_rejections"] != rejected:
        problems.append(f"summary guard_rejections {summ['guard_rejections']} != {rejected}")
    cfg = summ["config"]
    want = {"n": w.n, "trials": w.trials, "master_seed": d["seed"], "rho": wl.RHO,
            "tau": wl.TAU}
    problems += [f"config {k}={cfg[k]!r}, requested {v!r}" for k, v in want.items()
                 if cfg[k] != v]
    return problems


def _subset(d, count):
    """The first `count` trials (by index) that the check can use."""
    recs = d["records"]
    if d["w"].kind == "clt":
        usable = [r for r in recs if r["les"] is not None]
    else:
        usable = [r for r in recs if r["resolvent"]]
    return (usable[:count - 1] + usable[-1:]) if len(usable) >= count else usable


def check_les_by_traces(d):
    """L(P) = sum_k a_k Tr M^k by plain matrix powers, no eigenvalues."""
    problems = []
    for r in _subset(d, 2):
        m = reference_matrix(d["w"].n, d["seed"], r["seed"])
        power, value = np.eye(len(m), dtype=np.complex128), 0j
        for a in wl.CLT_COEFFS:
            power = power @ m
            value += a * np.trace(power)
        if not _close(value, _c(r["les"]), 1e-10):
            problems.append(f"trial {r['trial_index']}: les {_c(r['les'])} != "
                            f"sum a_k Tr M^k = {value}")
    return problems


def check_radius_by_dense_eig(d):
    """Spectral radius by numpy's dense eigvals of the full matrix."""
    recs = d["records"]
    picks = recs[:1] if d["w"].kind == "clt" else recs[:3]
    picks += [r for r in recs if r["les"] is None and not r["resolvent"]][:1]
    problems = []
    for r in picks:
        m = reference_matrix(d["w"].n, d["seed"], r["seed"])
        radius = float(np.abs(np.linalg.eigvals(m)).max())
        if abs(radius - r["spectral_radius"]) > 1e-10 * max(1.0, radius):
            problems.append(f"trial {r['trial_index']}: radius {r['spectral_radius']!r} != "
                            f"dense {radius!r}")
    return problems


def check_clt_summary(d):
    """Summary statistics recomputed from the JSONL; predicted variance 32."""
    s = d["summary"]["summaries"]
    values = np.array([_c(r["les"]) for r in d["records"] if r["les"] is not None])
    centered = values - values.mean()
    t = len(values)
    want = {
        "mean": values.mean(),
        "variance_modulus": float(np.sum(centered.real**2 + centered.imag**2) / (t - 1)),
        "variance_real": float(np.sum((centered.real - centered.real.mean()) ** 2) / (t - 1)),
    }
    got = {"mean": _c(s["mean"]), "variance_modulus": s["variance_modulus"],
           "variance_real": s["variance_real"]}
    problems = [f"summary {k}={got[k]!r}, recomputed {v!r}" for k, v in want.items()
                if not _close(got[k], v, 1e-9)]
    if s["predicted_sigma2"] != wl.CLT_SIGMA2:
        problems.append(f"predicted_sigma2 {s['predicted_sigma2']!r} != {wl.CLT_SIGMA2}")
    if d["summary"]["config"]["poly"] != [[a, 0.0] for a in wl.CLT_COEFFS]:
        problems.append(f"config poly {d['summary']['config']['poly']} != {wl.CLT_POLY}")
    return problems


def check_variance_band(rounds):
    """Pooled sample variance of the centered LES within VARIANCE_BAND_SE
    standard errors (its own) of sum_k 2k|a_k|^2 = 32."""
    squares = []
    dof = 0
    for d in rounds:
        values = np.array([_c(r["les"]) for r in d["records"] if r["les"] is not None])
        squares.append(np.abs(values - values.mean()) ** 2)
        dof += len(values) - 1
    squares = np.concatenate(squares)
    variance = squares.sum() / dof
    se = squares.std(ddof=1) / np.sqrt(len(squares))
    if abs(variance - wl.CLT_SIGMA2) > VARIANCE_BAND_SE * se:
        return [f"pooled variance {variance:.3f} over {len(squares)} trials is more than "
                f"{VARIANCE_BAND_SE} SE ({se:.3f}) from {wl.CLT_SIGMA2}"]
    return []


def check_resolvent_by_solve(d):
    """Tr (z - M)^-1 by a dense solve, for a subset of accepted trials."""
    problems = []
    for r in _subset(d, 3):
        m = reference_matrix(d["w"].n, d["seed"], r["seed"])
        eye = np.eye(len(m), dtype=np.complex128)
        for z in wl.CONTOUR:
            value = np.trace(np.linalg.solve(z * eye - m, eye))
            got = _c(r["resolvent"][f"{z.real!r},{z.imag!r}"])
            if not _close(got, value, 1e-9):
                problems.append(f"trial {r['trial_index']} z={z}: {got} != solve {value}")
    return problems


def check_covariance(d):
    """Covariances recomputed from the JSONL match the summary; C is
    Hermitian, C(z, eta) = conj C(eta, z); predicted = 2 (1 - z conj eta)^-2."""
    keys = [f"{z.real!r},{z.imag!r}" for z in wl.CONTOUR]
    accepted = [r for r in d["records"] if r["resolvent"]]
    series = {k: np.array([_c(r["resolvent"][k]) for r in accepted]) for k in keys}
    centered = {k: v - v.mean() for k, v in series.items()}
    pairs = {(tuple(p["z"]), tuple(p["eta"])): p for p in d["summary"]["pairs"]}
    problems = []
    if len(pairs) != len(keys) ** 2:
        problems.append(f"{len(pairs)} covariance pairs, expected {len(keys) ** 2}")
    for z, kz in zip(wl.CONTOUR, keys):
        for eta, ke in zip(wl.CONTOUR, keys):
            p = pairs.get(((z.real, z.imag), (eta.real, eta.imag)))
            q = pairs.get(((eta.real, eta.imag), (z.real, z.imag)))
            if p is None or q is None:
                problems.append(f"pair ({z}, {eta}) missing")
                continue
            emp = np.sum(centered[kz] * np.conj(centered[ke])) / (len(accepted) - 1)
            scale = np.sqrt(np.mean(np.abs(centered[kz]) ** 2) * np.mean(np.abs(centered[ke]) ** 2))
            if abs(_c(p["empirical"]) - emp) > 1e-9 * scale:
                problems.append(f"C({z},{eta}) = {_c(p['empirical'])} != recomputed {emp}")
            if abs(_c(p["empirical"]) - np.conj(_c(q["empirical"]))) > 1e-12 * scale:
                problems.append(f"C({z},{eta}) != conj C({eta},{z})")
            predicted = 2.0 / (1.0 - z * np.conj(eta)) ** 2
            if not _close(_c(p["predicted"]), predicted, 1e-12, floor=0.0):
                problems.append(f"predicted({z},{eta}) {_c(p['predicted'])} != {predicted}")
    return problems


# ------------------------------------------------------------ circular law


def check_eigenvalue_count(d):
    problems = []
    if d["header"] != "re,im":
        problems.append(f"CSV header {d['header']!r}")
    if len(d["eigenvalues"]) != d["w"].n:
        problems.append(f"{len(d['eigenvalues'])} eigenvalues for n={d['w'].n}")
    cfg = d["summary"]["config"]
    if cfg["n"] != d["w"].n or cfg["master_seed"] != d["seed"] or len(d["summary"]["samples"]) != 1:
        problems.append(f"JSON config/samples do not match the request: {cfg}")
    return problems


def check_power_sums(d):
    """sum lambda^k = Tr M^k for k = 1..3 (traces from the matrix itself)."""
    m = reference_matrix(d["w"].n, d["seed"], 0)
    lam = d["eigenvalues"]
    m2 = m @ m
    traces = (np.trace(m), np.trace(m2), np.sum(m2 * m.T))
    problems = []
    for k, tr in enumerate(traces, start=1):
        err = abs(np.sum(lam**k) - tr)
        if err > 1e-9 * len(m):
            problems.append(f"|sum lambda^{k} - Tr M^{k}| = {err:.3e} > {1e-9 * len(m):.1e}")
    return problems


def check_disc_statistics(d):
    """Radial KS, angular chi-square p and outlier fraction recomputed from
    the CSV eigenvalues match the JSON and meet criterion 2's tolerances."""
    lam = d["eigenvalues"]
    n = len(lam)
    r = np.sort(np.abs(lam))
    cdf = np.minimum(r * r, 1.0)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    # angles folded into [-pi, pi), as the command documents
    angles = np.mod(np.angle(lam) + np.pi, 2 * np.pi) - np.pi
    sector = ((angles + np.pi) * (SECTORS / (2 * np.pi))).astype(int)
    counts = np.bincount(np.clip(sector, 0, SECTORS - 1), minlength=SECTORS)
    chi2 = float(np.sum((counts - n / SECTORS) ** 2) / (n / SECTORS))
    p = float(stats.chi2.sf(chi2, SECTORS - 1))
    outliers = float(np.mean(np.abs(lam) > OUTLIER_RADIUS))
    s = d["summary"]["samples"][0]
    want = {"radial_ks": ks, "angular_chi2": chi2, "angular_pvalue": p,
            "outlier_fraction": outliers, "spectral_radius": float(r[-1])}
    problems = [f"JSON {k}={s[k]!r}, recomputed {v!r}" for k, v in want.items()
                if not _close(s[k], v, 1e-9, floor=1e-12)]
    if not (ks <= RADIAL_KS_MAX and p >= ANGULAR_P_MIN and outliers <= OUTLIER_MAX):
        problems.append(f"criterion 2 tolerances missed: KS={ks:.4f} p={p:.4f} "
                        f"outliers={outliers:.4f}")
    return problems


# ------------------------------------------------------------ moment oracle


def _exact(d, **key):
    return [Fraction(*e["value"]) for e in d["values"]["exact"]
            if all(e[k] == v for k, v in key.items())]


def check_enumeration_equals_matchings(d):
    problems = []
    for n, k in wl.ENUMERATION_GRID:
        enum = _exact(d, n=n, k=k, l=k, method="enumeration")
        match = _exact(d, n=n, k=k, l=k, method="matchings")
        if len(enum) != 1 or enum != match:
            problems.append(f"(n={n}, k={k}): enumeration {enum} vs matchings {match}")
    return problems


def check_k1_closed_form(d):
    """E|Tr M|^2 = 2 for even n and 2 - 1/n for odd n, by every method."""
    entries = [e for e in d["values"]["exact"] if e["k"] == 1 and e["l"] == 1]
    problems = [] if len(entries) >= 2 * 4 + 2 else [f"only {len(entries)} k=1 values"]
    for e in entries:
        n = e["n"]
        want = Fraction(2) if n % 2 == 0 else 2 - Fraction(1, n)
        if Fraction(*e["value"]) != want:
            problems.append(f"exact(n={n}, 1, 1) by {e['method']} = {Fraction(*e['value'])} "
                            f"!= {want}")
    return problems


def check_off_diagonal_zero(d):
    entries = [e for e in d["values"]["exact"] if e["k"] != e["l"]]
    problems = [] if len(entries) == 2 * len(wl.OFF_DIAGONAL) else [
        f"{len(entries)} k != l values, expected {2 * len(wl.OFF_DIAGONAL)}"]
    problems += [f"exact({e['n']},{e['k']},{e['l']}) = {Fraction(*e['value'])} != 0"
                 for e in entries if Fraction(*e["value"]) != 0]
    return problems


def check_denominators(d):
    """n^k E[Tr M^k Tr conj M^k] is a sum of integer counts: an integer > 0."""
    return [f"exact({e['n']},{e['k']},{e['k']}) = {Fraction(*e['value'])}: n^k times it is "
            f"not a positive integer"
            for e in d["values"]["exact"] if e["k"] == e["l"]
            and ((Fraction(*e["value"]) * e["n"] ** e["k"]).denominator != 1
                 or e["value"][0] <= 0)]


def check_mc_within_se(d):
    """Each Monte Carlo mean within MC_BAND_SE standard errors of the exact value."""
    problems = []
    for q in d["values"]["mc"]:
        n, k, l = q["n"], q["k"], q["l"]
        exact = _exact(d, n=n, k=k, l=l) or ([Fraction(0)] if k != l else [])
        if not exact:
            problems.append(f"no exact value for MC query ({n},{k},{l})")
            continue
        dev = abs(_c(q["mean"]) - float(exact[0]))
        if not dev <= MC_BAND_SE * q["se"]:
            problems.append(f"MC({n},{k},{l}) mean {_c(q['mean'])} is {dev / q['se']:.2f} SE "
                            f"from exact {float(exact[0])}")
    if len(d["values"]["mc"]) != 2 * len(d["w"].big_k) + 1:
        problems.append(f"{len(d['values']['mc'])} MC results")
    return problems


def _moments_payload_problems(payload, argv, mc_seed):
    """A `moments` JSON payload against the library's own values."""
    from centro_spectra.moments import MomentQuery, exact_mixed_trace_moment, mc_trace_moment
    from centro_spectra.sampling import SeedStream

    opts = dict(zip(argv[0::2], argv[1::2]))
    n, k, l = int(opts["--n"]), int(opts["--k"]), int(opts["--l"])
    q = MomentQuery(n, k, l)
    exact = exact_mixed_trace_moment(q)
    problems = []
    if [payload["n"], payload["k"], payload["l"]] != [n, k, l]:
        problems.append(f"payload query {payload['n'], payload['k'], payload['l']} != {n, k, l}")
    if Fraction(*payload["exact"]) != exact:
        problems.append(f"payload exact {payload['exact']} != library {exact}")
    if payload["prediction"] != (2.0 * k if k == l else 0.0):
        problems.append(f"payload prediction {payload['prediction']}")
    if "--mc-trials" in opts:
        est = mc_trace_moment(q, int(opts["--mc-trials"]), SeedStream(mc_seed, 0))
        mc = payload["mc"] or {}
        if mc.get("mean") != [est.mean.real, est.mean.imag] or mc.get("se") != est.se:
            problems.append(f"payload mc {mc} != library {est}")
    return problems


def check_cli_out(d):
    """The `moments --out` file equals the library's exact and MC values."""
    if d["values"]["cli_out"]["rc"] != 0:
        return []  # counted as a failed operation
    if d["cli_out"] is None:
        return ["`moments --out` exited 0 but wrote no file"]
    return _moments_payload_problems(d["cli_out"], d["values"]["cli_out"]["argv"], d["seed"])


def check_cli_stdout(d):
    """When `moments` without --out prints parseable JSON, it must be right.
    (While it does not, the operation is counted as failed.)"""
    entry = d["values"]["cli_stdout"]
    if entry["payload"] is None:
        return []
    return _moments_payload_problems(entry["payload"], entry["argv"], 0)


# ------------------------------------------------------ corruptions, tables


def _first_accepted(d):
    return next(r for r in d["records"] if r["les"] is not None or r["resolvent"])


def _perturb_les(d):
    r = _first_accepted(d)
    r["les"][0] += 1e-6 * (1 + abs(r["les"][0]))


def _perturb_radius(d):
    d["records"][0]["spectral_radius"] *= 1 + 1e-6


def _perturb_resolvent(d):
    values = _first_accepted(d)["resolvent"]
    key = next(iter(values))
    values[key][1] += 1e-6


def _break_guard(d):
    r = _first_accepted(d)
    r["spectral_radius"] = (min(abs(z) for z in wl.CONTOUR) - wl.TAU) * 1.01


def _perturb_pair(d):
    p = next(p for p in d["summary"]["pairs"] if p["z"] != p["eta"])
    p["empirical"][1] += 1e-3 * (1 + abs(p["empirical"][1]))


def _move_eigenvalue(d):
    d["eigenvalues"][0] += 1e-3


def _drop_eigenvalue(d):
    d["eigenvalues"] = d["eigenvalues"][1:]


def _shift_ks(d):
    d["summary"]["samples"][0]["radial_ks"] += 0.01


def _wrong_enumeration(d):
    e = next(e for e in d["values"]["exact"] if e["method"] == "enumeration" and e["k"] == 3)
    e["value"][0] += 1


def _wrong_k1(d):
    e = next(e for e in d["values"]["exact"] if e["k"] == 1 and e["l"] == 1 and e["n"] % 2)
    e["value"] = [2, 1]


def _nonzero_off_diagonal(d):
    e = next(e for e in d["values"]["exact"] if e["k"] != e["l"])
    e["value"] = [1, e["n"]]


def _wrong_denominator(d):
    e = next(e for e in d["values"]["exact"] if e["method"] == "matchings" and e["k"] > 2)
    e["value"] = [1, e["n"] ** e["k"] + 1]


def _shift_mc(d):
    q = d["values"]["mc"][0]
    q["mean"][0] += 10 * q["se"]


def _wrong_cli_exact(d):
    d["cli_out"]["exact"][0] += 1


def _wrong_stdout_payload(d):
    entry = d["values"]["cli_stdout"]
    payload = copy.deepcopy(d["cli_out"])
    opts = dict(zip(entry["argv"][0::2], entry["argv"][1::2]))
    payload.update(n=int(opts["--n"]), k=int(opts["--k"]), l=int(opts["--l"]), mc=None,
                   exact=[3, 1])
    entry["payload"] = payload


def _drop_record(d):
    del d["records"][len(d["records"]) // 2]


def _scale_les(rounds):
    for d in rounds:
        for r in d["records"]:
            if r["les"] is not None:
                r["les"] = [3 * x for x in r["les"]]


# name -> (check, corruption it must reject)
CHECKS = {
    "clt": {
        "records": (check_records, _drop_record),
        "les_by_traces": (check_les_by_traces, _perturb_les),
        "radius_by_dense_eig": (check_radius_by_dense_eig, _perturb_radius),
        "summary_from_jsonl": (check_clt_summary, _perturb_les),
    },
    "cov": {
        "records": (check_records, _break_guard),
        "resolvent_by_solve": (check_resolvent_by_solve, _perturb_resolvent),
        "radius_by_dense_eig": (check_radius_by_dense_eig, _perturb_radius),
        "covariance_from_jsonl": (check_covariance, _perturb_pair),
    },
    "circlaw": {
        "eigenvalue_count": (check_eigenvalue_count, _drop_eigenvalue),
        "power_sums": (check_power_sums, _move_eigenvalue),
        "disc_statistics": (check_disc_statistics, _shift_ks),
    },
    "oracle": {
        "enumeration_equals_matchings": (check_enumeration_equals_matchings, _wrong_enumeration),
        "k1_closed_form": (check_k1_closed_form, _wrong_k1),
        "off_diagonal_zero": (check_off_diagonal_zero, _nonzero_off_diagonal),
        "denominators": (check_denominators, _wrong_denominator),
        "mc_within_4se": (check_mc_within_se, _shift_mc),
        "cli_out_matches_library": (check_cli_out, _wrong_cli_exact),
        "cli_stdout_matches_library": (check_cli_stdout, _wrong_stdout_payload),
    },
}
POOLED = {"clt": {"variance_band": (check_variance_band, _scale_les)}}


def check_rounds(rounds):
    """All checks on all rounds, except that the clt run's dense eig (0.7 s a
    matrix at n=512) runs on its first round only."""
    kind = rounds[0]["w"].kind
    problems = {}
    for i, d in enumerate(rounds):
        for name, (fn, _) in CHECKS[kind].items():
            if i > 0 and (kind, name) == ("clt", "radius_by_dense_eig"):
                continue
            for p in fn(d):
                problems.setdefault(name, []).append(f"round {i}: {p}")
    for name, (fn, _) in POOLED.get(kind, {}).items():
        found = fn(rounds)
        if found:
            problems[name] = found
    return problems


def selftest(rounds):
    """Run every check on a corrupted copy of real outputs; return the checks
    that failed to reject their corruption, and those that rejected the
    clean outputs."""
    kind = rounds[0]["w"].kind
    missed, false_alarms = [], []
    for name, (fn, corrupt) in CHECKS[kind].items():
        if fn(rounds[0]):
            false_alarms.append(name)
        bad = copy.deepcopy(rounds[0])
        corrupt(bad)
        if not fn(bad):
            missed.append(name)
    for name, (fn, corrupt) in POOLED.get(kind, {}).items():
        if fn(rounds):
            false_alarms.append(name)
        bad = copy.deepcopy(rounds)
        corrupt(bad)
        if not fn(bad):
            missed.append(name)
    return missed, false_alarms
