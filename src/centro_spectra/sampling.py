"""Sampling of random centrosymmetric matrices with reproducible streams.

An n-by-n centrosymmetric matrix satisfies m[i, j] == m[n+1-i, n+1-j]
(1-based), i.e. it is symmetric about its center.  It is fixed by its top
ceil(n/2) rows [A | x | B] (the middle column x and the middle row, its own
mirror, exist only for odd n), so only ceil(n^2/2) entries are free.
CentrosymmetricMatrix stores just this half, which is all the block
reduction needs since J C = B J; n is its width, and the bottom rows are
mirror copies, unfolded on demand.  Free entries are drawn i.i.d. from the
standard circular complex Gaussian and scaled by 1/sqrt(n), so every entry
has mean zero and variance 1/n.

Randomness is counter-based (Philox keyed by (master_seed, stream_index)),
so distinct trials get independent substreams and a draw depends on its
(master_seed, stream_index) pair alone, not on what was drawn before it.
A matrix does not record that pair; a caller that writes provenance
writes the stream it drew from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix

__all__ = [
    "CentrosymmetricMatrix",
    "EntryDistribution",
    "MomentSelfTest",
    "STANDARD_COMPLEX_GAUSSIAN",
    "SeedStream",
    "is_centrosymmetric",
    "moment_self_test",
    "sample_centrosymmetric",
]

_MAX_UINT64 = 2**64


def _check_int(name: str, value, low: int, high: float = float("inf")) -> None:
    """Raise ValueError unless value is an int in [low, high); bools, floats and numpy
    integers are not."""
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")


@dataclass(frozen=True)
class EntryDistribution:
    """Law of the raw (unscaled) entries.

    Only the standard circular complex Gaussian is implemented: real and
    imaginary parts independent N(0, 1/2), giving E[x]=0, E[x^2]=0,
    E[|x|^2]=1.  Every sampler draws from ``STANDARD_COMPLEX_GAUSSIAN``.
    """

    kind: str = "standard_complex_gaussian"

    def __post_init__(self):
        if self.kind != "standard_complex_gaussian":
            raise ValueError(f"unsupported entry distribution: {self.kind!r}")

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        raw = rng.standard_normal(2 * count)
        return np.multiply(raw, np.sqrt(0.5), out=raw).view(np.complex128)


STANDARD_COMPLEX_GAUSSIAN = EntryDistribution()


@dataclass(frozen=True)
class SeedStream:
    """One substream of a counter-based RNG family.

    Same (master_seed, stream_index) reproduces the same draws; distinct
    stream indices give statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            _check_int(name, getattr(self, name), 0, _MAX_UINT64)

    def generator(self) -> np.random.Generator:
        # as a list, a key entry >= 2^63 would become a float64 and lose bits
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "SeedStream":
        """Substream at stream_index + offset (per-trial streams)."""
        return SeedStream(self.master_seed, self.stream_index + offset)


@dataclass(frozen=True, eq=False)
class CentrosymmetricMatrix:
    """A centrosymmetric matrix stored as its top ceil(n/2) rows; n is their width.

    The bottom rows are the top ones rotated by 180 degrees and the odd-n
    middle row must be its own mirror, so the type cannot hold a matrix that
    is not centrosymmetric.  Outside matrices enter through ``from_matrix``.
    ``==`` is identity; compare the ``half`` arrays to compare entries.
    """

    half: np.ndarray

    def __post_init__(self):
        half = np.asarray(self.half, dtype=np.complex128)
        object.__setattr__(self, "half", half)
        if half.ndim != 2 or half.shape[0] != (half.shape[1] + 1) // 2:
            raise ValueError(f"half of shape {half.shape} is not ceil(n/2) by n")
        if self.n % 2 and not np.array_equal(half[-1], half[-1, ::-1]):
            raise ValueError("the middle row is not its own mirror")

    @property
    def n(self) -> int:
        return self.half.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The full n-by-n matrix, unfolded anew on each access."""
        return _unfold(self.half)

    @classmethod
    def from_matrix(cls, matrix) -> "CentrosymmetricMatrix":
        """Wrap an outside square matrix, checked to be exactly centrosymmetric."""
        m = as_complex_matrix(matrix)
        if not is_centrosymmetric(m):
            raise ValueError("matrix is not centrosymmetric")
        return cls(m[: (m.shape[0] + 1) // 2].copy())


def _unfold(half: np.ndarray) -> np.ndarray:
    """The full matrix, or stack of matrices, from its top ceil(n/2) rows.
    Mirror copies reuse the very same float bits: the symmetry is exact."""
    n = half.shape[-1]
    return np.concatenate([half, np.flip(half[..., : n // 2, :], (-2, -1))], axis=-2)


def _sample_batch(n: int, dist: EntryDistribution, stream: SeedStream, count: int) -> np.ndarray:
    """Draw ``count`` matrices from one substream as a (count, ceil(n/2), n)
    stack of halves; ``_unfold`` gives the full matrices.

    Exactly ceil(n^2/2) raw entries are drawn per matrix and scaled by
    1/sqrt(n).  They fill the top floor(n/2) rows row-major and, for odd n,
    the middle row up to and including the center, which is its own mirror
    and is drawn once; the rest of the middle row mirrors its left part.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = n // 2
    n_free = (n * n + 1) // 2
    raw = dist.draw(count * n_free, stream.generator()).reshape(count, n_free)
    raw *= 1 / np.sqrt(n)  # the bits of numpy's complex-by-real division
    top = raw[:, : s * n].reshape(count, s, n)
    if n % 2 == 0:
        return top
    left = raw[:, s * n :]  # the middle row's first s + 1 entries
    middle = np.concatenate([left, np.flip(left[:, :s], 1)], axis=1)
    return np.concatenate([top, middle[:, None, :]], axis=1)


def sample_centrosymmetric(
    n: int, stream: SeedStream = SeedStream(0, 0)
) -> CentrosymmetricMatrix:
    """Draw one n-by-n random centrosymmetric matrix: the count=1 batch."""
    return CentrosymmetricMatrix(_sample_batch(n, STANDARD_COMPLEX_GAUSSIAN, stream, 1)[0])


def is_centrosymmetric(m) -> bool:
    """True iff m[i,j] == m[n+1-i,n+1-j] exactly, for every i, j."""
    m = as_complex_matrix(m)
    return np.array_equal(m, np.flip(m, (0, 1)))


@dataclass(frozen=True)
class MomentSelfTest:
    """Empirical first/second moments of the entry law; ``ok`` when each is
    within 5 standard errors of its exact value."""

    mean: complex
    second_moment: complex
    abs_second_moment: float
    ok: bool


def moment_self_test(draws: int, stream: SeedStream) -> MomentSelfTest:
    """Check E[x]=0, E[x^2]=0, E[|x|^2]=1 empirically for the entry law.

    Standard errors are empirical, so the check does not assume the law it
    is verifying.
    """
    if draws < 10**4:
        raise ValueError(f"need at least 10^4 draws, got {draws}")
    x = STANDARD_COMPLEX_GAUSSIAN.draw(draws, stream.generator())

    def _mean_se(samples):
        mu = samples.mean()
        se = float(np.sqrt((np.abs(samples - mu) ** 2).mean() / draws))
        return mu, se

    mean, mean_se = _mean_se(x)
    second, second_se = _mean_se(x * x)
    abs_second, abs_second_se = _mean_se(np.abs(x) ** 2)
    return MomentSelfTest(
        mean=complex(mean),
        second_moment=complex(second),
        abs_second_moment=float(abs_second.real),
        ok=bool(
            abs(mean) <= 5 * mean_se
            and abs(second) <= 5 * second_se
            and abs(abs_second - 1.0) <= 5 * abs_second_se
        ),
    )
