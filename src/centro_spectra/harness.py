"""Monte Carlo experiments on the centrosymmetric ensemble.

Three experiments run on one trial engine.  ``_trial`` owns each trial: it
draws trial t from seed substream t, ``SeedStream(master_seed, t)``,
solves it on its two blocks, and returns a statistic of the eigenvalues;
each experiment supplies that statistic:

* circular law: eigenvalue cloud of one (or a few) large samples against
  the uniform law on the unit disc (radial KS, angular chi-square, outlier
  fraction);
* CLT for linear eigenvalue statistics: the centered statistic
  L(P) = sum_i P(lambda_i) against a centered Gaussian whose variance is
  the closed form sum_k 2 k |a_k|^2;
* resolvent-trace covariance: empirical Cov(Tr R_z, conj Tr R_eta) against
  the kernel 2 (1 - z conj(eta))^-2 for contour points outside the disc.

A trial that fails (a draw, a solve whose eigenvalues fail the finiteness
and trace check, or a statistic) raises ``RuntimeError`` naming the trial,
which the CLI reports as exit code 2 in every experiment.  Trials whose
spectral radius exceeds the norm guard ``rho`` are rejected and counted,
never silently dropped.

The statistics are plain functions of a spectrum: ``_circular_law_sample``,
or for the CLT and the kernel ``_trial_record``, whose record holds the
radius, the accepted flag and one vector of statistics (L(P) when ``poly``
is set, then Tr R_z per contour point).  Records carry no index: a record's
position in the tuple the engine returns is its trial index.
``_centered_trials`` runs those trials, needs two accepted trials in both
experiments, and centres each column of ``TrialBatch.values`` once, by its
mean over the accepted trials; each of the two experiments reduces its own
columns.  The normal CDF of ``_summarize`` and the chi-square tail of
``angular_chisquare`` are ports of the cephes routines scipy runs, with
scipy's bits, so no module of the package imports scipy; only the tests
use it, as their reference.
``_run_trials`` maps ``_trial`` over a pool of forked worker processes, at
most ``RunConfig.threads`` of them (all CPUs when unset) and never more
than the CPUs, the trials or one per ``_WORK_PER_WORKER`` of n^3 * trials;
with one worker (as for the circular law's default single sample) trials
run inline.  Threads would not do: 16 trials at n = 512 took 3.12 s
serial, 3.43 s on two threads and 1.61 s on the pool (2 vCPUs).  The
engine runs with OpenBLAS on one thread, which the workers inherit, and
records are consumed in index order, so they are the same to the bit for
every ``threads`` value and every BLAS thread setting.  Trials run inline
where no OpenBLAS entry point is found (with BLAS as configured), ``fork``
is unavailable or the process runs other threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .eigen import eigenvalues_centrosymmetric, spectral_radius
from .linalg import as_complex_matrix, available_cpus, single_blas_thread
from .moments import _power_traces
from .sampling import SeedStream, sample_centrosymmetric

__all__ = [
    "CircularLawSample",
    "KernelPair",
    "RunConfig",
    "SummaryStats",
    "TestPolynomial",
    "TrialBatch",
    "TrialRecord",
    "angular_chisquare",
    "covariance_kernel",
    "les",
    "predicted_sigma2",
    "radial_ks_statistic",
    "resolvent_series_gap",
    "resolvent_trace",
    "run_circular_law_experiment",
    "run_clt_experiment",
    "run_covariance_kernel_experiment",
]


@dataclass(frozen=True)
class TestPolynomial:
    """P(z) = a_1 z + ... + a_d z^d; the constant term is excluded because
    centering removes it from every linear eigenvalue statistic."""

    coeffs: tuple  # a_1 .. a_d

    def __post_init__(self):
        coeffs = tuple(complex(a) for a in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 1:
            raise ValueError("polynomial needs degree >= 1 (no constant-only P)")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient a_d must be nonzero")
        if not all(np.isfinite([a.real, a.imag]).all() for a in coeffs):
            raise ValueError("coefficients must be finite")
        if not 0 < predicted_sigma2(self) / 2.0 < np.inf:
            raise ValueError(
                "sum 2k|a_k|^2 underflows to 0 or overflows: the LES has no reference law"
            )

    @classmethod
    def from_string(cls, text: str) -> "TestPolynomial":
        """Parse 'a_1,a_2,...,a_d' (real coefficients); an empty field is an error."""
        return cls(coeffs=tuple(float(p) for p in text.split(",")))

    def evaluate(self, z):
        """Horner evaluation, vectorized over z."""
        z = np.asarray(z, dtype=np.complex128)
        acc = np.zeros_like(z)
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc * z


def predicted_sigma2(poly: TestPolynomial) -> float:
    """Limiting variance of the centered LES: sum_k 2 k |a_k|^2.

    For real coefficients this is the closed form sum 2 k a_k^2; the
    modulus-squared version is what the integral form of the variance
    yields for complex coefficients.  A sum too large for a float is inf
    (float ``**`` would raise OverflowError instead).
    """
    return float(sum(2.0 * k * (abs(a) * abs(a)) for k, a in enumerate(poly.coeffs, start=1)))


def les(eigenvalues: np.ndarray, poly: TestPolynomial) -> complex:
    """Linear eigenvalue statistic L(P) = sum_i P(lambda_i)."""
    return complex(poly.evaluate(eigenvalues).sum())


def resolvent_trace(eigenvalues: np.ndarray, z: complex) -> complex:
    """Tr R_z = sum_i 1 / (z - lambda_i); requires z away from the spectrum."""
    z = complex(z)
    diff = z - eigenvalues
    if len(diff) and np.abs(diff).min() <= 1e-9:
        raise ValueError(f"z={z} is within 1e-9 of an eigenvalue")
    return complex((1.0 / diff).sum())


def covariance_kernel(z: complex, eta: complex) -> complex:
    """Limiting covariance of (Tr R_z, conj Tr R_eta): 2 (1 - z conj(eta))^-2."""
    return 2.0 / (1.0 - complex(z) * np.conj(complex(eta))) ** 2


def resolvent_series_gap(matrix, eigenvalues: np.ndarray, z: complex, terms: int = 8) -> float:
    """|Tr R_z - n/z - sum_{k<=terms} z^{-k-1} Tr M^k|.

    Internal consistency check between the eigenvalue route and the
    truncated power-series route; small whenever |z| comfortably exceeds
    the spectral radius.
    """
    m = as_complex_matrix(matrix)
    z = complex(z)
    traces = _power_traces(m, set(range(1, terms + 1)))
    series = sum((z ** (-k - 1) * traces[k] for k in range(1, terms + 1)), m.shape[0] / z)
    return float(abs(resolvent_trace(eigenvalues, z) - series))


@dataclass(frozen=True)
class RunConfig:
    """One experiment configuration; everything needed for reproduction.

    ``threads`` (None or an int >= 1) caps the trial engine's worker
    processes (None: one per CPU); it is recorded with the configuration
    and changes no result.
    """

    n: int
    trials: int
    master_seed: int
    poly: TestPolynomial | None = None
    contour_points: tuple = ()
    rho: float = 2.2
    tau: float = 0.5
    threads: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if not self.rho > 0:  # NaN fails every comparison
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if not self.tau >= 0:
            raise ValueError(f"tau must be non-negative, got {self.tau!r}")
        if self.threads is not None and (type(self.threads) is not int or self.threads < 1):
            raise ValueError(f"threads must be None or an int >= 1, got {self.threads!r}")
        points = tuple(complex(z) for z in self.contour_points)
        object.__setattr__(self, "contour_points", points)
        for i, z in enumerate(points):
            if not (np.isfinite(z) and abs(z) > 1.2):
                raise ValueError(f"contour point {z} must be finite with |z| > 1.2")
            if z in points[:i]:  # 3+0j == 3-0j: one column under two keys
                raise ValueError(f"contour point {z} repeats an earlier point")


@dataclass(frozen=True)
class SummaryStats:
    """Cross-trial summary of the centered LES samples.

    ``variance_modulus`` is the sample mean of |L - mean|^2 (the complex
    variance the limit theorem predicts); ``variance_real`` is the variance
    of the real part, which is half of it for a circular limit.  Shape
    statistics and the KS distance are computed on the real part against
    N(0, predicted_sigma2 / 2).
    """

    mean: complex
    variance_real: float
    variance_modulus: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float
    predicted_sigma2: float


@dataclass(frozen=True)
class TrialRecord:
    spectral_radius: float
    accepted: bool
    values: tuple = ()  # L(P) when poly is set, then Tr R_z per contour point


@dataclass(frozen=True)
class TrialBatch:
    config: RunConfig
    records: tuple
    summaries: SummaryStats | None = None
    pairs: tuple = ()  # KernelPairs of the resolvent-covariance experiment

    @property
    def guard_rejections(self) -> int:
        return sum(1 for r in self.records if not r.accepted)

    @property
    def values(self) -> np.ndarray:
        """The accepted trials' statistics: one row per column of the
        records' ``values`` and one entry per trial, each row contiguous."""
        columns = (self.config.poly is not None) + len(self.config.contour_points)
        accepted = [r.values for r in self.records if r.accepted]
        return np.array(accepted, dtype=np.complex128).reshape(-1, columns).T.copy()


def _trial_record(config: RunConfig, lam: np.ndarray) -> TrialRecord:
    """Apply the norm guard to a trial's spectrum and, when it passes,
    evaluate L(P) when ``config.poly`` is set, then Tr R_z at every contour
    point in config order."""
    radius = spectral_radius(lam)
    contour = config.contour_points
    accepted = radius <= config.rho
    if accepted and contour:
        # Resolvents stay well conditioned only with a margin between
        # the contour and the spectrum.
        min_abs_z = min(abs(z) for z in contour)
        accepted = 1.2 * radius <= min_abs_z and min_abs_z - radius >= config.tau
    if not accepted:
        return TrialRecord(radius, False)
    head = () if config.poly is None else (les(lam, config.poly),)
    traces = tuple(resolvent_trace(lam, z) for z in contour)
    return TrialRecord(radius, True, head + traces)


# n^3 * trials that one more worker process must have to earn its fork: on
# 2 vCPUs a pool of two lost to one inline worker at n x trials = 32 x 20
# and won at 64 x 20, so the crossover is near 3e6.
_WORK_PER_WORKER = 1_500_000


def _worker_count(threads: int | None, n: int, trials: int, cpus: int) -> int:
    """Worker processes of one run: the ``threads`` cap (all CPUs when
    None), never more than the CPUs, the trials or one per
    ``_WORK_PER_WORKER`` of n^3 * trials, so that tiny runs stay inline."""
    return min(threads or cpus, cpus, trials, max(1, n**3 * trials // _WORK_PER_WORKER))


def _fork_pool(workers: int):
    """A pool of ``workers`` forked processes, or None where ``fork`` is
    unavailable or unsafe (the process runs other threads).

    Forked workers inherit the one-thread BLAS and any wrapper installed on
    this module.  multiprocessing is imported here, so that commands which
    never pool do not load it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _trial(config: RunConfig, statistic, t: int):
    """Draw trial t from ``SeedStream(config.master_seed, t)``, solve it on
    its blocks and return ``statistic(config, eigenvalues)``; any failure is
    re-raised as RuntimeError naming t.  The draw is passed straight to the
    solver, which frees it before the blocks are solved, and only the
    statistic leaves a pool worker.  The sampler, the solver and the
    statistics are looked up when the trial runs, so a wrapper installed on
    this module reaches pool workers forked after it."""
    try:
        return statistic(config, eigenvalues_centrosymmetric(
            sample_centrosymmetric(config.n, SeedStream(config.master_seed, t))
        ))
    except Exception as exc:
        raise RuntimeError(f"trial {t} failed: {exc}") from exc


def _run_trials(config: RunConfig, statistic) -> tuple:
    """``_trial(config, statistic, t)`` for t = 0, 1, ... in index order, on
    a worker pool when more than one worker is allowed, with OpenBLAS on one
    thread throughout (see the module notes)."""
    record = partial(_trial, config, statistic)
    workers = _worker_count(config.threads, config.n, config.trials, available_cpus())
    with single_blas_thread() as pinned:
        pool = _fork_pool(workers) if workers > 1 and pinned else None
        if pool is None:
            return tuple(map(record, range(config.trials)))
        try:
            chunksize = max(1, config.trials // (4 * workers))
            return tuple(pool.map(record, range(config.trials), chunksize=chunksize))
        finally:  # after a failed trial, start no pending chunk
            pool.shutdown(cancel_futures=True)


def _ks_distance(sample, cdf) -> float:
    """Two-sided KS distance of a sample to a continuous CDF: the larger of
    max(i/n - F) and max(F - (i-1)/n) over the sorted sample."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    f = cdf(x)
    return float(max((np.arange(1.0, n + 1) / n - f).max(), (f - np.arange(0.0, n) / n).max()))


# Moshier's cephes (Methods and Programs for Mathematical Functions, 1989),
# as scipy.special runs it: ndtr through erf and erfc, and igamc at a = 15/2
# for chdtrc(15, .).  Scalar floats with libm's exp, log and pow give scipy's
# bits; numpy's exp differs from libm's in the last bit for about 4 % of
# arguments in [-745, -0.5].  Each denominator starts with the leading 1
# that cephes's p1evl implies; Horner's rule from it gives p1evl's bits.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MACHEP = 1.11022302462515654042e-16  # 2^-53
_SQRT1_2 = math.sqrt(0.5)
_A = 7.5  # chdtrc(15, s) = igamc(15/2, s/2)
_LGAM_A = 7.534364236758734  # cephes lgam(7.5)
_LANCZOS_FAC = 13.02468004077673  # a + lanczos_g - 0.5
_LANCZOS_PREFACTOR = 67.82839623012609  # sqrt(fac / e) / lanczos_sum_expg_scaled(a)


def _polevl(x: float, coeffs: tuple) -> float:
    """cephes polevl: Horner's rule from the leading coefficient."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _ndtr(a: float) -> float:
    """cephes ndtr: the standard normal CDF at a, from erf(x) for
    |x| = |a| / sqrt 2 below 1/sqrt 2, else from half of cephes erfc(|x|):
    1 - erf below 1, then exp(-x^2) times a rational function, or 0 where
    exp(-x^2) underflows."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, p) / _polevl(z, q))
    return 1.0 - y if x > 0 else y


def _igam_fac(x: float) -> float:
    """cephes igam_fac at a = 15/2: x^a e^-x / Gamma(a), through logarithms
    unless x is within 0.4 a of a, then through the Lanczos approximation."""
    if abs(_A - x) > 0.4 * _A:
        ax = _A * math.log(x) - x - _LGAM_A
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    return _LANCZOS_PREFACTOR * (math.exp(_A - x) * math.pow(x / _LANCZOS_FAC, _A))


def _chi2_sf_15(stat: float) -> float:
    """cephes chdtrc(15, stat) = igamc(15/2, stat/2) for finite stat >= 0:
    one minus igam's power series below x = a, igamc's continued fraction
    at or above it."""
    x = stat / 2.0
    if x == 0.0:
        return 1.0
    ax = _igam_fac(x)
    if x < _A:
        r, c, total = _A, 1.0, 1.0
        while c > _MACHEP * total:
            r += 1.0
            c *= x / r
            total += c
        return 1.0 - total * ax / _A
    y = 1.0 - _A
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(2000):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        t = 1.0
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > 2.0**52:
            pkm2, pkm1, qkm2, qkm1 = (v * 2.0**-52 for v in (pkm2, pkm1, qkm2, qkm1))
        if t <= _MACHEP:
            break
    return ans * ax


def _summarize(mean: complex, centered: np.ndarray, poly: TestPolynomial) -> SummaryStats:
    """Summary of the LES samples, given their mean and the samples less it.

    The KS distance takes the normal CDF from ``_ndtr``, a port of cephes
    ndtr with scipy.special.ndtr's bits (checked by
    test_harness.test_cephes_ports_equal_scipy_bit_for_bit), so the
    statistics equal scipy.stats's to the bit."""
    pred = predicted_sigma2(poly)
    t = len(centered)
    variance_modulus = float((np.abs(centered) ** 2).sum() / (t - 1))
    variance_real = float(np.var(centered.real, ddof=1))
    real = centered.real
    # skewness and excess kurtosis as scipy.stats computes them (NaN when
    # flat), on the real parts scaled by 2^-e so that fourth powers stay
    # finite and nonzero; e is the largest exponent rounded to a multiple of
    # 128, so ordinary data gets e = 0 and keeps every bit
    x = np.ldexp(real, -128 * round(np.frexp(np.abs(real).max())[1] / 128))
    d = x - x.mean()
    d2 = d**2
    m2 = d2.mean()
    flat = m2 <= (np.finfo(np.float64).eps * x.mean()) ** 2
    scale = np.sqrt(pred / 2.0)
    return SummaryStats(
        mean=complex(mean),
        variance_real=variance_real,
        variance_modulus=variance_modulus,
        skewness=np.nan if flat else float((d2 * d).mean() / m2**1.5),
        excess_kurtosis=np.nan if flat else float((d2**2).mean() / m2**2.0 - 3),
        ks_statistic=_ks_distance(
            real, lambda x: np.array([_ndtr(v) for v in (x / scale).tolist()])
        ),
        predicted_sigma2=pred,
    )


def _centered_trials(config: RunConfig):
    """Run the trials of a CLT or covariance experiment and centre each
    column of their statistics once, by its empirical mean over the
    accepted trials (a consistent stand-in for the unknown finite-n
    expectation).  Returns the batch, the column means and the centred
    (columns x accepted trials) array; fewer than two accepted trials
    estimate no variance and raise RuntimeError."""
    if config.trials < 2:
        raise ValueError("need at least 2 trials to estimate a variance")
    batch = TrialBatch(config=config, records=_run_trials(config, _trial_record))
    values = batch.values
    if values.shape[1] == 0:
        raise RuntimeError("all trials rejected by the norm guard")
    if values.shape[1] < 2:
        raise RuntimeError("fewer than 2 trials survived the norm guard")
    means = values.mean(axis=1)
    return batch, means, values - means[:, None]


def run_clt_experiment(config: RunConfig) -> TrialBatch:
    """Centered-LES fluctuation experiment: each trial's L(P) from its
    block-path eigenvalues, summarized across the accepted trials."""
    if config.poly is None:
        raise ValueError("run_clt_experiment needs config.poly")
    batch, means, centered = _centered_trials(config)
    return replace(batch, summaries=_summarize(means[0], centered[0], config.poly))


def radial_ks_statistic(radii: np.ndarray) -> float:
    """KS distance of |lambda| samples to the circular-law radial CDF r^2."""
    return _ks_distance(radii, lambda r: np.minimum(r * r, 1.0))


def angular_chisquare(angles: np.ndarray) -> tuple[float, float]:
    """Chi-square uniformity test of arg(lambda) over 16 equal sectors: the
    statistic and its upper tail on 15 degrees of freedom, from
    ``_chi2_sf_15``, a port of cephes chdtrc with scipy.special.chdtrc's
    bits (checked by test_harness.test_cephes_ports_equal_scipy_bit_for_bit)."""
    # fold exactly-pi angles into [-pi, pi) so no sample falls off the grid
    folded = np.mod(np.asarray(angles, dtype=np.float64) + np.pi, 2 * np.pi) - np.pi
    counts, _ = np.histogram(folded, bins=16, range=(-np.pi, np.pi))
    expected = len(folded) / 16
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, _chi2_sf_15(stat)


@dataclass(frozen=True, eq=False)
class CircularLawSample:
    """``==`` is identity, so no comparison ever reaches the array."""

    eigenvalues: np.ndarray
    radial_ks: float
    angular_chi2: float
    angular_pvalue: float
    outlier_fraction: float  # fraction of |lambda| > 1.05
    spectral_radius: float


def _circular_law_sample(config: RunConfig, lam: np.ndarray) -> CircularLawSample:
    """Test a sample's eigenvalue cloud against the disc law."""
    radii = np.abs(lam)
    stat, pvalue = angular_chisquare(np.angle(lam))
    return CircularLawSample(
        eigenvalues=lam,
        radial_ks=radial_ks_statistic(radii),
        angular_chi2=stat,
        angular_pvalue=pvalue,
        outlier_fraction=float((radii > 1.05).mean()),
        spectral_radius=spectral_radius(lam),
    )


def run_circular_law_experiment(config: RunConfig) -> tuple:
    """Empirical spectral distribution against the uniform disc law: one
    ``CircularLawSample`` per trial, in trial order.

    Uses config.trials samples (typically one); n must be large enough for
    the ESD to have converged to desk-scale tolerances.
    """
    if config.n < 200:
        raise ValueError("circular-law experiment needs n >= 200")
    return _run_trials(config, _circular_law_sample)


@dataclass(frozen=True)
class KernelPair:
    z: complex
    eta: complex
    empirical: complex
    predicted: complex


def run_covariance_kernel_experiment(config: RunConfig) -> TrialBatch:
    """Empirical Cov(Tr R_z, conj Tr R_eta) over the accepted trials
    against the limiting kernel, as the batch's ``pairs``."""
    if not config.contour_points:
        raise ValueError("run_covariance_kernel_experiment needs contour points")
    batch, _, centered = _centered_trials(config)
    t = centered.shape[1]
    points = tuple(zip(config.contour_points, centered[-len(config.contour_points):]))
    pairs = tuple(
        KernelPair(z, eta, complex((cz * np.conj(ce)).sum() / (t - 1)), covariance_kernel(z, eta))
        for z, cz in points
        for eta, ce in points
    )
    return replace(batch, pairs=pairs)
