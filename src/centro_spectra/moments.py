"""Exact and simulated trace moments E[Tr M^k Tr conj(M)^l] for the ensemble.

Entries of the (unscaled) matrix are standard circular complex Gaussians
tied together by the center-symmetry pairing (i, j) <-> (n+1-i, n+1-j).
That makes mixed trace moments exactly computable in two independent ways:

* enumeration: walk the n^k index chains of one trace and resolve each
  factor to its free variable through the pairing.  By the circular
  Gaussian moment rule E[u^p conj(u)^q] = 0 if p != q else p!, a pair of
  chains contributes w(S) = prod_v p_v! exactly when both read the same
  multiset S of variables (p_v copies of v), so the moment is
  sum_S c(S)^2 w(S), where c(S) counts the chains reading S, in exact
  integers from one np.unique pass over each chain's sorted ids as a key;
* pairing count: for Gaussian entries the reduction M ~ diag(T1, T2)
  gives two independent blocks of i.i.d. circular entries, so the moment is
  E|Tr T1^k|^2 + E|Tr T2^k|^2, each a sum over the Wick pairings of its
  factors.  A pairing's equality constraints leave c classes of indices,
  found with a plain union-find, and a block of side s adds s^c; for odd n
  the centre entry of T1 (half the variance) adds a sum over the subsets
  of classes that take the centre index.  One pass per k yields n^k times
  the moment as an integer polynomial in s = n // 2 for each parity of n;
  it is cached per k and any n then costs one evaluation over its k + 1
  coefficients.

Both paths return exact rationals and must agree wherever both run; the
Monte Carlo estimator cross-checks them statistically.  It never forms M:
the exact reduction M ~ diag(T1, T2) gives Tr M^k = Tr T1^k + Tr T2^k, so
each chunk of sampled halves is split into its two blocks, and powers are
taken only to half depth, Tr T^k = sum_ij (T^floor(k/2))_ij (T^ceil(k/2))_ji.
The chunks run on a thread pool of up to available_cpus() threads (the
Philox fills and the stacked matmuls release the GIL) and their partial
sums are added in chunk order, so the estimate does not depend on the
number of cores.  Values are already scaled by n^{-(k+l)/2}, matching
traces of the 1/sqrt(n)-scaled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise, permutations
from math import factorial

import numpy as np

from .linalg import available_cpus
from .reduction import split_blocks
from .sampling import STANDARD_COMPLEX_GAUSSIAN, SeedStream, _sample_batch

__all__ = [
    "ENUMERATION_BUDGET",
    "BudgetExceededError",
    "McEstimate",
    "MomentQuery",
    "MomentResult",
    "asymptotic_prediction",
    "exact_mixed_trace_moment",
    "mc_trace_moment",
    "moment_result",
]

ENUMERATION_BUDGET = 10**8          # index tuples
_MATCHING_BUDGET = 10**5            # (k-1)! * 2^(k+1) pairing-subset steps
_MC_CHUNK = 4096                    # trials drawn per substream


class BudgetExceededError(ValueError):
    pass


@dataclass(frozen=True)
class MomentQuery:
    """E[Tr(M^k) Tr(conj(M)^l)] at size n; l=0 means the single-chain moment."""

    n: int
    k: int
    l: int = 0

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.l < 0:
            raise ValueError(f"need n >= 1, k >= 1, l >= 0, got {self}")

    @property
    def tuple_count(self) -> int:
        return self.n ** (self.k + self.l)


@dataclass(frozen=True)
class McEstimate:
    mean: complex
    se: float
    trials: int


@dataclass(frozen=True)
class MomentResult:
    exact_value: Fraction
    mc_estimate: McEstimate | None
    asymptotic_prediction: float


def asymptotic_prediction(k: int, l: int) -> float:
    """n -> infinity limit: 2k on the diagonal k == l, zero off it."""
    if k < 1 or l < 1:
        raise ValueError("prediction is stated for k, l >= 1")
    return 2.0 * k if k == l else 0.0


def exact_mixed_trace_moment(q: MomentQuery, method: str = "auto") -> Fraction:
    """Exact E[Tr(M^k) Tr(conj(M)^l)] as a rational number.

    method:
      "enumeration" - walks the n^k chains of one trace and adds
                      sum_S c(S)^2 w(S) over their id multisets S; raises
                      BudgetExceededError when the n^(k+l) chain pairs
                      exceed ENUMERATION_BUDGET;
      "matchings"   - Wick pairing count on the blocks T1, T2: the first
                      call for a k walks the (k-1)! pairings with
                      pi(0) = 0 and their centre subsets into two parity
                      polynomials in n // 2, cached; each n then costs O(k);
                      raises BudgetExceededError from k = 7;
      "auto"        - enumeration when affordable, matchings otherwise.

    Whenever k != l some free variable must appear with unequal conjugated
    and unconjugated multiplicity, so every monomial vanishes and the result
    is exactly zero (this covers l = 0).  The moment rule is that of the
    circular Gaussian, the one law the sampler draws from.
    """
    if method not in ("auto", "enumeration", "matchings"):
        raise ValueError(f"unknown method {method!r}")
    if q.k != q.l:
        return Fraction(0)
    over_budget = q.tuple_count > ENUMERATION_BUDGET
    if method == "enumeration" and over_budget:
        raise BudgetExceededError(
            f"n^(k+l) = {q.tuple_count} exceeds the enumeration budget {ENUMERATION_BUDGET}"
        )
    if method == "matchings" or (method == "auto" and over_budget):
        return _matching_exact(q.n, q.k)
    return _enumeration_exact(q.n, q.k)


def _enumeration_exact(n: int, k: int) -> Fraction:
    """Sum the moment rule over the n^(2k) chain pairs from the n^k chains (k = l).

    Chain i_0..i_{k-1} reads the factors at flat index f = i_a n + i_{a+1 mod k};
    f and its mirror n^2 - 1 - f hold one free variable, whose id is the smaller.
    Each chain's sorted ids make one key in base n^2 (below n^(2k) <= 10^8), so one
    ``np.unique`` gives c(S) and a row of each id multiset S; w(S) = prod_v p_v! is
    the running product of each id's rank in its run of equal ids, in int64 for
    n >= 2 (total < 10^8 * 13! < 2^63), in Python ints at n = 1 (k! > 2^63 from k = 21).
    """
    chains = np.arange(n**k)[:, None] // n ** np.arange(k) % n
    flat = chains * n + np.roll(chains, -1, axis=1)
    ids = np.sort(np.minimum(flat, n * n - 1 - flat), axis=1)
    keys = ids @ (n * n) ** np.arange(k)
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    weights = rank = np.ones(len(first), dtype=object if n == 1 else np.int64)
    for left, right in pairwise(ids[first].T):
        rank = np.where(right == left, rank + 1, 1)
        weights = weights * rank
    return Fraction(int((counts * counts * weights).sum()), n**k)


@lru_cache(maxsize=None)
def _matching_polynomials(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients, by power of s = n // 2, of n^k E[Tr(M^k) Tr(conj(M)^k)]
    for even and odd n.

    For Gaussian entries M ~ diag(T1, T2) with independent blocks, and
    E[Tr T^k] = 0, so the moment is E|Tr T1^k|^2 + E|Tr T2^k|^2.  Unscaled,
    both blocks have i.i.d. circular entries of variance 2 and side s,
    except that for odd n T1 has side s + 1 and its centre entry has
    variance 1.  Every pairing pi matches factor a of the first chain with
    factor pi(a) of the second, forcing i_a = j_pi(a) and
    i_{a+1} = j_{pi(a)+1}; a plain union-find leaves c classes of equal
    indices.  A block of side s with variance 2 thus adds 2^k s^c.  For
    odd T1, the classes in a subset S take the centre index and the rest
    range over s values, adding s^(c - |S|) 2^(k - e(S)), where e(S) counts
    the first chain's factors with both indices in S.

    Relabelling the second chain j_b -> j_{b+r} maps pi to pi + r (mod k)
    with the same counts, and every orbit of this action has k members, so
    only pi(0) = 0 is walked and the sums are multiplied by k.
    """
    even = [0] * (k + 1)
    odd = [0] * (k + 1)
    for rest in permutations(range(1, k)):
        parent = list(range(2 * k))  # i_0..i_{k-1}, j_0..j_{k-1}

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in enumerate((0, *rest)):
            for x, y in ((a, k + b), ((a + 1) % k, k + (b + 1) % k)):
                parent[find(x)] = find(y)
        # every j is joined to an i, so the classes are those of the i
        label = {root: c for c, root in enumerate({find(a) for a in range(k)})}
        edges = [1 << label[find(a)] | 1 << label[find((a + 1) % k)] for a in range(k)]
        classes = len(label)
        even[classes] += 2 * 2**k
        odd[classes] += 2**k
        for subset in range(1 << classes):
            inside = sum(edge & subset == edge for edge in edges)
            odd[classes - subset.bit_count()] += 2 ** (k - inside)
    return tuple(k * c for c in even), tuple(k * c for c in odd)


def _matching_exact(n: int, k: int) -> Fraction:
    """Wick pairing count for E[Tr(M^k) Tr(conj(M)^k)]: the polynomial of
    k for the parity of n, evaluated at s = n // 2.

    Building a polynomial walks (k-1)! pairings, each with at most k
    classes and so at most 2^k centre subsets: under (k-1)! 2^(k+1) steps,
    which the budget admits for k <= 6.
    """
    steps = factorial(k - 1) * 2 ** (k + 1)
    if steps > _MATCHING_BUDGET:
        raise BudgetExceededError(
            f"k = {k} needs up to {steps} pairing-subset steps, over the budget {_MATCHING_BUDGET}"
        )
    total = 0
    for coeff in reversed(_matching_polynomials(k)[n % 2]):
        total = total * (n // 2) + coeff
    return Fraction(total, n**k)


def mc_trace_moment(q: MomentQuery, trials: int, stream: SeedStream) -> McEstimate:
    """Monte Carlo estimate of E[Tr(M^k) Tr(conj(M)^l)] with standard error.

    Trials are drawn in chunks of _MC_CHUNK, chunk i from substream
    stream.child(i).  Each chunk is split into its blocks, Tr M^d is taken
    as Tr T1^d + Tr T2^d from powers of half depth, and the chunks run on a
    thread pool of up to available_cpus() threads.  The partial sums are
    added in chunk order, so the estimate is the same to the bit whatever
    the pool size.
    """
    if trials < 10**3:
        raise ValueError(f"need at least 10^3 trials, got {trials}")
    from concurrent.futures import ThreadPoolExecutor  # loaded on use, not at import
    counts = [min(_MC_CHUNK, trials - start) for start in range(0, trials, _MC_CHUNK)]
    with ThreadPoolExecutor(min(available_cpus(), len(counts))) as pool:
        partials = list(pool.map(
            lambda i: _mc_chunk(q, stream.child(i), counts[i]), range(len(counts))
        ))
    sum_x = 0.0 + 0.0j
    sum_abs2 = 0.0
    for chunk_x, chunk_abs2 in partials:
        sum_x += chunk_x
        sum_abs2 += chunk_abs2
    mean = sum_x / trials
    variance = max(sum_abs2 / trials - abs(mean) ** 2, 0.0) * trials / max(trials - 1, 1)
    return McEstimate(mean=complex(mean), se=float(np.sqrt(variance / trials)), trials=trials)


def _mc_chunk(q: MomentQuery, stream: SeedStream, count: int) -> tuple[complex, float]:
    """(sum of x, sum of |x|^2) over one chunk, x = Tr(M^k) conj(Tr(M^l))."""
    t1, t2 = split_blocks(_sample_batch(q.n, STANDARD_COMPLEX_GAUSSIAN, stream, count))
    degrees = {q.k, q.l} - {0}
    tr1, tr2 = _power_traces(t1, degrees), _power_traces(t2, degrees)
    x = tr1[q.k] + tr2[q.k]
    if q.l >= 1:
        x = x * np.conj(tr1[q.l] + tr2[q.l])
    return complex(x.sum()), float((np.abs(x) ** 2).sum())


def _power_traces(t: np.ndarray, degrees: set[int]) -> dict[int, np.ndarray]:
    """Tr T^d for each degree d >= 1 over a stack of square matrices T.

    Powers are formed only up to ceil(max(degrees) / 2), since
    Tr T^d = sum_ij (T^floor(d/2))_ij (T^ceil(d/2))_ji.
    """
    powers = [None, t]  # powers[p] = T^p
    while 2 * (len(powers) - 1) < max(degrees, default=0):
        powers.append(powers[-1] @ t)
    return {
        d: np.einsum("...ii->...", t) if d == 1
        else np.einsum("...ij,...ji->...", powers[d // 2], powers[d - d // 2])
        for d in degrees
    }


def moment_result(
    q: MomentQuery,
    mc_trials: int | None = None,
    stream: SeedStream | None = None,
) -> MomentResult:
    """Bundle the exact value, optional MC cross-check and the n->inf limit."""
    mc = None
    if mc_trials is not None:  # first, so a bad count fails before the exact oracle runs
        mc = mc_trace_moment(q, mc_trials, stream if stream is not None else SeedStream(0, 0))
    exact = exact_mixed_trace_moment(q)
    prediction = asymptotic_prediction(q.k, q.l) if q.l >= 1 else 0.0
    return MomentResult(exact_value=exact, mc_estimate=mc, asymptotic_prediction=prediction)
