from fractions import Fraction
from itertools import permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centro_spectra import moments
from centro_spectra.moments import (
    _MC_CHUNK,
    ENUMERATION_BUDGET,
    BudgetExceededError,
    McEstimate,
    MomentQuery,
    _matching_exact,
    asymptotic_prediction,
    exact_mixed_trace_moment,
    mc_trace_moment,
    moment_result,
)
from centro_spectra.sampling import STANDARD_COMPLEX_GAUSSIAN, SeedStream, _sample_batch, _unfold
from reference import exact_single_trace_moment


class _ReferenceParityUnionFind:
    """Plain parity union-find: one fresh instance per constraint system."""

    def __init__(self, size):
        self.parent = list(range(size))
        self.rank = [0] * size
        self.parity = [0] * size
        self.pinned = [False] * size

    def find(self, x):
        p = 0
        while self.parent[x] != x:
            p ^= self.parity[x]
            x = self.parent[x]
        return x, p

    def union(self, x, y, rel):
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if (px ^ py) != rel:
                self.pinned[rx] = True
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ rel
        if self.pinned[ry]:
            self.pinned[rx] = True
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1

    def pin(self, x):
        self.pinned[self.find(x)[0]] = True

    def count_assignments(self, n):
        count = 1
        for v in range(len(self.parent)):
            root, _ = self.find(v)
            if root != v:
                continue
            if self.pinned[root]:
                if n % 2 == 0:
                    return 0
            else:
                count *= n
        return count


def _reference_matching_exact(n, k):
    """The per-n Wick loop: all k! 3^k constraint systems, each solved afresh at n."""
    total = 0
    for perm in permutations(range(k)):
        for terms in product((0, 1, 2), repeat=k):
            uf = _ReferenceParityUnionFind(2 * k)
            sign = 1
            for a in range(k):
                b = perm[a]
                ia, ia1 = a, (a + 1) % k
                jb, jb1 = k + b, k + (b + 1) % k
                if terms[a] == 2:
                    sign = -sign
                    uf.union(ia, jb, 0)
                    uf.union(ia1, jb1, 0)
                    uf.pin(jb)
                    uf.pin(jb1)
                else:
                    uf.union(ia, jb, terms[a])
                    uf.union(ia1, jb1, terms[a])
            total += sign * uf.count_assignments(n)
    return Fraction(total, n**k)


def test_exact_hand_counts():
    # for each diagonal index there are two partners (i and its mirror),
    # except the self-paired center when n is odd
    assert exact_mixed_trace_moment(MomentQuery(4, 1, 1)) == Fraction(2)
    assert exact_mixed_trace_moment(MomentQuery(5, 1, 1)) == Fraction(9, 5)


def test_exact_vanishing_off_diagonal():
    assert exact_mixed_trace_moment(MomentQuery(4, 1, 2)) == 0
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                if k != l:
                    assert exact_mixed_trace_moment(MomentQuery(n, k, l)) == 0


def test_single_chain_vanishes():
    assert exact_single_trace_moment(4, 2) == 0
    assert exact_single_trace_moment(5, 3) == 0
    assert exact_single_trace_moment(3, 1) == 0
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3, 4):
            assert exact_single_trace_moment(n, k) == 0


def test_enumeration_agrees_with_matchings():
    # two independent exact routes over every admitted (n <= 12, k <= 4),
    # the largest admitted n at k = 3, 4, 5, 6 and an odd n at k = 5, 6:
    # enumeration walks M's mirror pairing, matchings walk the blocks T1, T2
    grid = [(n, k) for k in range(1, 5) for n in range(1, 13)
            if MomentQuery(n, k, k).tuple_count <= ENUMERATION_BUDGET]
    edges = [(21, 3), (10, 4), (6, 5), (4, 6)]
    for n, k in edges:
        assert MomentQuery(n + 1, k, k).tuple_count > ENUMERATION_BUDGET
    for n, k in grid + edges + [(5, 5), (3, 6)]:
        q = MomentQuery(n, k, k)
        enum = exact_mixed_trace_moment(q, method="enumeration")
        pairs = exact_mixed_trace_moment(q, method="matchings")
        assert enum == pairs, (n, k)


def test_enumeration_is_k_factorial_at_n1():
    # n = 1: M is one Gaussian u and E|u^k|^2 = k!, past the int64 range from k = 21
    for k in range(1, 26):
        assert exact_mixed_trace_moment(MomentQuery(1, k, k)) == factorial(k), k


def test_enumeration_at_n2_up_to_the_budget_edge():
    # n = 2: the eigenvalues a + b and a - b are independent circular Gaussians
    # of variance 2, so n^k E|Tr M^k|^2 = 2 * 2^k k!; k = 13 is the largest k the
    # budget admits at n = 2, and there the weights w(S) reach 13!
    assert 2**26 <= ENUMERATION_BUDGET < 2**28  # n^(2k) at k = 13 and at k = 14
    for k in range(1, 14):
        assert moments._enumeration_exact(2, k) == 2 * factorial(k), k


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), k=st.integers(1, 4))
def test_matchings_equal_per_n_loop(n, k):
    assert _matching_exact(n, k) == _reference_matching_exact(n, k)


@pytest.mark.parametrize(
    "n, k, value",
    [
        (10, 5, Fraction(2016, 125)),
        (11, 5, Fraction(2445920, 161051)),
        (10, 6, Fraction(19008, 625)),
        (11, 6, Fraction(48485520, 1771561)),
    ],
)
def test_matchings_reproduce_per_n_loop_at_large_k(n, k, value):
    # values of the per-n loop, too slow at k = 6 to recompute in the suite
    assert _matching_exact(n, k) == value


def test_matchings_k1_closed_form():
    # each diagonal entry pairs with itself and its mirror; the center only with itself
    for n in range(1, 65):
        assert _matching_exact(n, 1) == 2 - Fraction(n % 2, n)


def test_even_matchings_equal_the_ginibre_pairing_sum():
    # even n = 2s: T1, T2 are independent s x s blocks of i.i.d. entries of
    # variance 2/n, and a unit-variance s x s Ginibre G has
    # E|Tr G^k|^2 = sum_{j = max(0, s-k)}^{s-1} (j+k)!/j!
    for n in range(2, 201, 2):
        s = n // 2
        for k in range(1, 7):
            pairing_sum = sum(factorial(j + k) // factorial(j) for j in range(max(0, s - k), s))
            assert _matching_exact(n, k) == Fraction(2 * pairing_sum, s**k), (n, k)


def test_diagonal_values_real_nonnegative():
    for n in (3, 4, 7):
        for k in (1, 2, 3):
            value = exact_mixed_trace_moment(MomentQuery(n, k, k))
            assert isinstance(value, Fraction)
            assert value >= 0


def test_conjugation_symmetry():
    for n in (3, 4):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                a = exact_mixed_trace_moment(MomentQuery(n, k, l))
                b = exact_mixed_trace_moment(MomentQuery(n, l, k))
                assert a == b  # values are real rationals


def test_asymptotic_prediction():
    assert asymptotic_prediction(1, 1) == 2.0
    assert asymptotic_prediction(5, 5) == 10.0
    assert asymptotic_prediction(2, 3) == 0.0
    with pytest.raises(ValueError):
        asymptotic_prediction(1, 0)


def test_convergence_toward_limit():
    for k in (1, 2, 3):
        gaps = [
            abs(float(exact_mixed_trace_moment(MomentQuery(n, k, k), method="matchings")) - 2.0 * k)
            for n in (4, 8, 16)
        ]
        assert gaps[0] >= gaps[1] >= gaps[2]
        at64 = float(exact_mixed_trace_moment(MomentQuery(64, k, k), method="matchings"))
        assert abs(at64 - 2.0 * k) <= 0.1 * 2.0 * k


def test_enumeration_budget():
    q = MomentQuery(64, 3, 3)
    assert q.tuple_count > ENUMERATION_BUDGET
    with pytest.raises(BudgetExceededError):
        exact_mixed_trace_moment(q, method="enumeration")
    auto = exact_mixed_trace_moment(q, method="auto")
    assert auto == exact_mixed_trace_moment(q, method="matchings")


def test_matching_budget():
    for k in (7, 8):
        with pytest.raises(BudgetExceededError):
            exact_mixed_trace_moment(MomentQuery(4, k, k), method="matchings")


def test_query_validation():
    with pytest.raises(ValueError):
        MomentQuery(0, 1, 1)
    with pytest.raises(ValueError):
        MomentQuery(4, 0, 1)
    with pytest.raises(ValueError):
        MomentQuery(4, 1, -1)
    with pytest.raises(ValueError):
        exact_mixed_trace_moment(MomentQuery(4, 1, 1), method="montecarlo")
    with pytest.raises(ValueError):
        exact_mixed_trace_moment(MomentQuery(4, 1, 2), method="montecarlo")


def test_mc_agreement_small():
    q = MomentQuery(8, 1, 1)
    est = mc_trace_moment(q, 2 * 10**4, SeedStream(1, 0))
    exact = float(exact_mixed_trace_moment(q))
    assert abs(est.mean - exact) <= 4 * est.se
    assert est.trials == 2 * 10**4


def test_mc_off_diagonal_near_zero():
    q = MomentQuery(8, 1, 2)
    est = mc_trace_moment(q, 2 * 10**4, SeedStream(2, 0))
    assert abs(est.mean) <= 4 * est.se


def test_mc_requires_enough_trials():
    with pytest.raises(ValueError):
        mc_trace_moment(MomentQuery(4, 1, 1), 100, SeedStream(0, 0))
    for trials in (0, 500):  # 0 is a count too, not "no Monte Carlo"
        with pytest.raises(ValueError):
            moment_result(MomentQuery(4, 1, 1), mc_trials=trials)


def test_bad_mc_trials_fail_before_the_exact_oracle(monkeypatch):
    def exact_must_not_run(*args, **kwargs):
        raise AssertionError("exact oracle ran before the trial count was checked")

    monkeypatch.setattr(moments, "exact_mixed_trace_moment", exact_must_not_run)
    for trials in (0, 500):
        with pytest.raises(ValueError):
            moment_result(MomentQuery(11, 6, 6), mc_trials=trials)


def test_mc_is_reproducible():
    q = MomentQuery(5, 2, 2)
    a = mc_trace_moment(q, 10**3, SeedStream(3, 0))
    b = mc_trace_moment(q, 10**3, SeedStream(3, 0))
    assert a.mean == b.mean and a.se == b.se


def _reference_mc_trace_moment(q, trials, stream):
    """The full-matrix estimator: unfold every chunk and take k - 1 stacked
    matmuls, one chunk after another."""
    kmax = max(q.k, max(q.l, 1))
    sum_x = 0.0 + 0.0j
    sum_abs2 = 0.0
    done = 0
    chunk_index = 0
    while done < trials:
        count = min(_MC_CHUNK, trials - done)
        halves = _sample_batch(q.n, STANDARD_COMPLEX_GAUSSIAN, stream.child(chunk_index), count)
        batch = _unfold(halves)
        traces = np.empty((kmax, count), dtype=np.complex128)
        power = batch
        traces[0] = np.einsum("tii->t", power)
        for deg in range(1, kmax):
            power = power @ batch
            traces[deg] = np.einsum("tii->t", power)
        x = traces[q.k - 1]
        if q.l >= 1:
            x = x * np.conj(traces[q.l - 1])
        sum_x += x.sum()
        sum_abs2 += float((np.abs(x) ** 2).sum())
        done += count
        chunk_index += 1
    mean = sum_x / trials
    variance = max(sum_abs2 / trials - abs(mean) ** 2, 0.0) * trials / max(trials - 1, 1)
    return McEstimate(mean=complex(mean), se=float(np.sqrt(variance / trials)), trials=trials)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 24),
    k=st.integers(1, 6),
    l=st.integers(0, 6),
    trials=st.integers(10**3, 5000),
    index=st.integers(0, 2**32),
)
def test_mc_blocks_match_full_matrix_reference(n, k, l, trials, index):
    q = MomentQuery(n, k, l)
    est = mc_trace_moment(q, trials, SeedStream(9, index))
    ref = _reference_mc_trace_moment(q, trials, SeedStream(9, index))
    assert est.trials == ref.trials
    assert abs(est.mean - ref.mean) <= 1e-12 * abs(ref.mean)
    assert abs(est.se - ref.se) <= 1e-12 * ref.se


@pytest.mark.parametrize("cpus", [1, 3])
def test_mc_does_not_depend_on_the_pool_size(monkeypatch, cpus):
    q = MomentQuery(7, 3, 2)
    trials = 3 * _MC_CHUNK + 1000
    pooled = mc_trace_moment(q, trials, SeedStream(4, 2))
    monkeypatch.setattr(moments, "available_cpus", lambda: cpus)
    assert mc_trace_moment(q, trials, SeedStream(4, 2)) == pooled


def test_moment_result_bundle():
    result = moment_result(MomentQuery(4, 1, 1), mc_trials=10**3, stream=SeedStream(0, 0))
    assert result.exact_value == Fraction(2)
    assert result.asymptotic_prediction == 2.0
    assert result.mc_estimate is not None
    result = moment_result(MomentQuery(4, 2, 0))
    assert result.exact_value == 0
    assert result.mc_estimate is None
