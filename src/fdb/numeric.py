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
from scipy.linalg.lapack import dpotrf
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


def row_medians(values: np.ndarray, work: "np.ndarray | None" = None) -> np.ndarray:
    """Median along the last axis; a 1-d array is one row.

    Equal bit for bit to ``np.median(values, axis=-1)`` on NaN-free values,
    up to the sign of a zero median: which of the equal ±0.0 lands in the
    middle depends on the selection. A NaN ranks above every number, where
    np.median would return NaN. ``work`` (same shape as ``values``) receives
    a partitioned copy; without it a new copy is made.

    One selection at n // 2: numpy runs a single kth through its SIMD
    quickselect but a tuple of kth values through the slower introselect.
    For even n the lower central value is then the largest of the n // 2
    values left of it, and a maximum is exact.
    """
    n = values.shape[-1]
    hi = n // 2
    if work is None:
        work = values.copy()
    else:
        np.copyto(work, values)
    work.partition(hi, axis=-1)
    upper = work[..., hi]
    if n % 2:
        return upper.copy()
    return (work[..., :hi].max(axis=-1) + upper) / 2.0


def median(values) -> float:
    """Median of a sequence; even lengths average the two central order statistics."""
    return float(row_medians(_as_finite_vector(values)))


def mad(values) -> float:
    """Median absolute deviation from the median, without any consistency scaling."""
    v = _as_finite_vector(values)
    return float(row_medians(np.abs(v - row_medians(v))))


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
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValues("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise NotSymmetric("matrix is not symmetric")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a nearly-symmetric matrix with its transpose."""
    return (a + a.T) / 2.0


def _pivot_tolerance(a: np.ndarray) -> float:
    # Scale-aware singularity threshold: pivots at or below
    # p * eps * max(diag) are treated as zero.
    return a.shape[0] * np.finfo(float).eps * float(np.max(np.diagonal(a)))


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefinite (with the failing pivot index) when any pivot
    falls at or below p * machine epsilon * max diagonal entry.
    """
    a = check_symmetric(m)
    lower, info = dpotrf(a, lower=True, clean=True)
    # info > 0: LAPACK met a non-positive pivot at index info - 1 and left
    # the pivots before it on the diagonal.
    done = info - 1 if info > 0 else a.shape[0]
    small = np.flatnonzero(np.diagonal(lower)[:done] ** 2 <= _pivot_tolerance(a))
    if small.size or info > 0:
        idx = int(small[0]) if small.size else done
        raise NotPositiveDefinite(
            f"matrix is not positive definite (pivot {idx})", pivot_index=idx
        )
    return lower


def log_determinant(lower: np.ndarray) -> float:
    """Log-determinant of the matrix whose lower Cholesky factor is given."""
    return float(2.0 * np.sum(np.log(np.diagonal(lower))))


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
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
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
