"""Dense symmetric linear algebra and univariate statistics.

All operations are pure functions. The heavy factorizations are delegated to
LAPACK through numpy/scipy; this module enforces the package conventions on
top of them: the even-length median rule, the unscaled MAD, a scale-aware
positive-definiteness threshold for Cholesky pivots, and eigenvalues sorted
descending with a deterministic sign for the eigenvectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.special import gammaincinv

from .errors import (
    ConvergenceFailure,
    DimensionError,
    DomainError,
    EmptyInput,
    NonFiniteValues,
    NotPositiveDefinite,
    NotSymmetric,
)


class EigenDecomposition(NamedTuple):
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    ``vectors`` holds orthonormal eigenvectors as columns; each column's
    largest-magnitude entry is made positive so the decomposition is unique.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_finite_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("need at least one value")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValues("input contains non-finite values")
    return v


# Rows of at most this length are sorted whole by ``row_medians``; longer
# rows get one selection. numpy's SIMD sort returns both central order
# statistics of a row in one call, where a single-kth SIMD quickselect
# needs a max over the left half for the lower one of an even length. The
# median plus MAD of one block, copies included, took (one BLAS thread,
# AVX-512 Xeon, numpy 2.4, medians of 300 alternating calls):
#
#   block      sort (us)  partition (us)
#   163 x 200     181         244
#   128 x 256     175         261
#   108 x 300     237         233
#    81 x 400     274         291
#    64 x 512     294         276
#    50 x 2000    910         518
#
# From 300 on the gain is under 10% or a loss, so those rows keep the
# selection. The sort path leans on numpy's SIMD sort: with its dispatch
# off (NPY_DISABLE_CPU_FEATURES=X86_V3) sorting 163 x 200 took 1150 us,
# 2.7x the 430 us of partitioning it, so a build without SIMD sort loses
# time on short rows, though not bits.
_SORT_MAX_N = 256


def row_medians(values: np.ndarray, work: "np.ndarray | None" = None) -> np.ndarray:
    """Median along the last axis; a 1-d array is one row.

    Equal bit for bit to ``np.median(values, axis=-1)`` on NaN-free values,
    up to the sign of a zero median: which of the equal ±0.0 lands in the
    middle depends on the selection. A NaN ranks above every number, where
    np.median would return NaN. ``work`` (same shape as ``values``) receives
    a sorted copy for rows of at most ``_SORT_MAX_N`` values and a
    partitioned one for longer rows; without it a new copy is made.

    Longer rows take one selection at n // 2: numpy runs a single kth
    through its SIMD quickselect but a tuple of kth values through the
    slower introselect. For even n the lower central value is then the
    largest of the n // 2 values left of it, and a maximum is exact.
    """
    n = values.shape[-1]
    hi = n // 2
    if work is None:
        work = values.copy()
    else:
        np.copyto(work, values)
    short = n <= _SORT_MAX_N
    if short:
        work.sort(axis=-1)
    else:
        work.partition(hi, axis=-1)
    upper = work[..., hi]
    if n % 2:
        return upper.copy()
    lower = work[..., hi - 1] if short else work[..., :hi].max(axis=-1)
    return (lower + upper) / 2.0


def median(values) -> float:
    """Median of a sequence; even lengths average the two central order statistics."""
    return float(row_medians(_as_finite_vector(values)))


def mad(values) -> float:
    """Median absolute deviation from the median, without any consistency scaling."""
    v = _as_finite_vector(values)
    return float(row_medians(np.abs(v - row_medians(v))))


def smallest(values: np.ndarray, h: int) -> np.ndarray:
    """Indices of the h smallest entries along the last axis, increasing;
    ties go to the lower index. Equal to the first h of a stable argsort,
    sorted, for NaN-free values.

    A partition finds each row's h-th smallest value t, and the entries up
    to t are taken. Only when that takes more than h in some row, because
    t is tied, are the entries below t taken and the lowest-indexed ones
    equal to t left to fill up.
    """
    if h == 0:
        return np.empty(values.shape[:-1] + (0,), dtype=np.intp)
    t = np.partition(values, h - 1, axis=-1)[..., h - 1 : h]
    taken = values <= t
    if np.count_nonzero(taken) > t.size * h:
        below = values < t
        tied = values == t
        fill = h - below.sum(axis=-1, keepdims=True)
        taken = below | (tied & (np.cumsum(tied, axis=-1) <= fill))
    return np.nonzero(taken)[-1].reshape(values.shape[:-1] + (h,))


def chi_square_quantile(dof: int, prob: float) -> float:
    """Quantile of the chi-square distribution with ``dof`` degrees of freedom.

    Solves P(dof/2, x/2) = prob for x, where P is the regularized lower
    incomplete gamma function.
    """
    if dof < 1 or int(dof) != dof:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof!r}")
    if not 0.0 < prob < 1.0:
        raise DomainError(f"probability must lie strictly in (0, 1), got {prob!r}")
    return float(2.0 * gammaincinv(dof / 2.0, prob))


def check_symmetric(m) -> np.ndarray:
    """Validate and return a finite, exactly symmetric square matrix."""
    return _checked_symmetric(m, 2)


def _checked_symmetric(m, ndim: int) -> np.ndarray:
    # A square matrix (ndim 2) or a stack of them (ndim 3), checked as a whole.
    a = np.asarray(m, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        kind = "square matrix" if ndim == 2 else "stack of square matrices"
        raise DimensionError(f"expected a {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteValues("matrix contains non-finite entries")
    if not (a == a.swapaxes(-1, -2)).all():
        raise NotSymmetric("matrix is not symmetric")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a nearly-symmetric matrix with its transpose."""
    return (a + a.T) / 2.0


_EPS = np.finfo(float).eps


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefinite (with the failing pivot index) when any pivot
    falls at or below p * machine epsilon * max diagonal entry.
    """
    lower, pivot = _factor(check_symmetric(m)[None])
    if pivot[0] >= 0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (pivot {pivot[0]})", pivot_index=int(pivot[0])
        )
    return lower[0]


def cholesky_stack(m) -> "tuple[np.ndarray, np.ndarray]":
    """Lower Cholesky factors of a stack of symmetric matrices.

    Returns (lower, pivot). The stack is checked once for finite entries and
    exact symmetry, and each matrix is factored by its own LAPACK dpotrf
    call. pivot[b] is -1 when every pivot of matrix b lies above
    p * machine epsilon * its max diagonal entry, as ``cholesky`` requires;
    otherwise it is the index of the first one that does not, and lower[b]
    is no factor.
    """
    return _factor(_checked_symmetric(m, 3))


def _factor(a: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    # cholesky_stack on a checked stack.
    count, p = a.shape[:2]
    if count == 1:
        # The same factor and pivot as below, where the stack's numpy
        # calls cost more than dpotrf itself at small p: its own
        # Fortran-ordered result is the factor, and one diagonal is checked.
        lower, info = dpotrf(a[0], lower=True, clean=True)
        if info > 0:
            lower[range(info - 1, p), range(info - 1, p)] = np.inf
        small = lower.diagonal() ** 2 <= (p * _EPS) * a[0].diagonal().max()
        pivot = small.argmax() if small.any() else info - 1 if info > 0 else -1
        return lower[None], np.array([pivot])
    # Fortran-ordered factors, as dpotrf returns them and dtrtri takes them.
    lower = np.empty_like(a).transpose(0, 2, 1)
    pivot = np.full(count, -1)
    for b in range(count):
        lower[b], info = dpotrf(a[b], lower=True, clean=True)
        if info > 0:
            # LAPACK met a non-positive pivot at index info - 1 and left the
            # pivots before it on the diagonal. The diagonal from there on
            # becomes inf, so the tolerance looks at those pivots only.
            pivot[b] = info - 1
            lower[b, range(info - 1, p), range(info - 1, p)] = np.inf
    tolerance = (p * _EPS) * a.diagonal(axis1=1, axis2=2).max(axis=1, keepdims=True)
    small = lower.diagonal(axis1=1, axis2=2) ** 2 <= tolerance
    if small.any():
        hit = small.any(axis=1)
        pivot[hit] = small[hit].argmax(axis=1)
    return lower, pivot


def triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular factor, by one LAPACK dtrtri call.

    Only the lower triangle is inverted; the strict upper triangle is copied
    through, and the factor itself is left unchanged. Raises
    NotPositiveDefinite (with the index of the zero diagonal entry) when the
    factor is singular.
    """
    inverse, info = dtrtri(lower, lower=1)
    if info != 0:
        raise NotPositiveDefinite(
            f"triangular factor is singular (diagonal entry {info - 1})",
            pivot_index=info - 1,
        )
    return inverse


def log_determinant(lower: np.ndarray):
    """Log-determinant of the matrix whose lower Cholesky factor is given;
    for a stack of factors, the array of their log-determinants."""
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if np.ndim(logdet) == 0 else logdet


def eigen_symmetric(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = check_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from None
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    # Fix each eigenvector's sign so results are reproducible across runs.
    lead = np.argmax(np.abs(vectors), axis=0)
    # A unit vector's largest entry is at least 1 / sqrt(p) in magnitude: no sign is 0.
    vectors *= np.sign(vectors[lead, np.arange(vectors.shape[1])])
    return EigenDecomposition(values, vectors)


def condition_number(m) -> float:
    """Ratio of the largest to the smallest eigenvalue of an SPD matrix."""
    eig = eigen_symmetric(m)
    smallest = float(eig.values[-1])
    if smallest <= 0.0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest:.3e} is not positive"
        )
    return float(eig.values[0]) / smallest
