"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the code paths it is used to check:
the chi-square CDF is an adaptive quadrature of the density, determinants
come from cofactor expansion, covariances from two-pass summation loops,
Mahalanobis distances from an explicit matrix inverse or a triangular
solve, depths from np.median and pairwise differences, CSV matrices from
one float() call per cell, and the starts of the C-step baseline from
LAPACK and BLAS calls on one start at a time.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.optimize import brentq
from scipy.spatial.distance import cdist

from fdb.cli import InputError


def chi_square_cdf_quadrature(dof: int, x: float) -> float:
    """Chi-square CDF by adaptive quadrature of the transformed density.

    Substituting t = u^2 turns the chi-square density into the chi density
    c * u^(dof-1) * exp(-u^2 / 2), which is smooth at zero for every
    dof >= 1, so plain adaptive quadrature applies.
    """
    if x <= 0.0:
        return 0.0
    log_c = math.log(2.0) - (dof / 2.0) * math.log(2.0) - math.lgamma(dof / 2.0)

    def integrand(u):
        if u <= 0.0:
            return math.exp(log_c) if dof == 1 else 0.0
        return math.exp(log_c + (dof - 1) * math.log(u) - 0.5 * u * u)

    upper = math.sqrt(x)
    # Peak of the chi density sits at sqrt(dof - 1); pass it as a breakpoint
    # so the adaptive rule resolves large-dof integrands.
    peak = math.sqrt(max(dof - 1, 0))
    points = [peak] if 0.0 < peak < upper else None
    value, _ = quad(integrand, 0.0, upper, points=points, limit=200)
    return min(max(value, 0.0), 1.0)


def chi_square_quantile_bisection(dof: int, prob: float, xtol: float = 1e-10) -> float:
    """Quantile by root-bracketing bisection on the quadrature CDF."""
    lo, hi = 0.0, float(dof) + 1.0
    while chi_square_cdf_quadrature(dof, hi) < prob:
        hi *= 2.0
    return float(brentq(lambda x: chi_square_cdf_quadrature(dof, x) - prob, lo, hi, xtol=xtol))


def cofactor_determinant(a) -> float:
    """Determinant by recursive cofactor expansion (small matrices only)."""
    m = [list(map(float, row)) for row in np.asarray(a)]
    size = len(m)
    if size == 1:
        return m[0][0]
    total = 0.0
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1.0) ** j * m[0][j] * cofactor_determinant(minor)
    return total


def two_pass_mean_cov(x, subset, denominator: str):
    """Textbook two-pass mean and covariance over the selected rows."""
    x = np.asarray(x, dtype=float)
    rows = [x[i] for i in subset]
    h = len(rows)
    p = x.shape[1]
    mu = [sum(row[j] for row in rows) / h for j in range(p)]
    div = h if denominator == "h" else h - 1
    cov = [[0.0] * p for _ in range(p)]
    for row in rows:
        for a in range(p):
            for b in range(p):
                cov[a][b] += (row[a] - mu[a]) * (row[b] - mu[b]) / div
    return np.array(mu), np.array(cov)


def mahalanobis_sq_inverse(x, mu, sigma):
    """Squared Mahalanobis distances through an explicit matrix inverse."""
    x = np.asarray(x, dtype=float)
    inv = np.linalg.inv(np.asarray(sigma, dtype=float))
    diff = x - np.asarray(mu, dtype=float)
    return np.einsum("ij,jk,ik->i", diff, inv, diff)


def mahalanobis_sq_solve(x, mu, sigma):
    """Squared Mahalanobis distances through a triangular solve against
    numpy's Cholesky factor."""
    lower = np.linalg.cholesky(np.asarray(sigma, dtype=float))
    z = solve_triangular(lower, (np.asarray(x, dtype=float) - mu).T, lower=True)
    return np.einsum("ij,ij->j", z, z)


def random_spd(rng, p: int, jitter: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix A'A + jitter * I."""
    a = rng.standard_normal((p, p))
    m = a.T @ a + jitter * np.eye(p)
    return (m + m.T) / 2.0


def frozen_chi_square_examples():
    """(dof, prob, expected) triples computed with the quadrature oracle."""
    return [
        (5, 0.975, 12.832501994030027),
        (2, 0.5, 1.3862943611198906),
        (2, 0.975, 7.377758908227871),
        (1, 0.5, 0.45493642311957305),
        (10, 0.9, 15.987179172105261),
    ]


def projection_depth_reference(x, directions) -> np.ndarray:
    """Projection depth by np.median over sample-major blocks of 512
    directions, with zero-MAD directions dropped by a masked copy."""
    x = np.asarray(x, dtype=float)
    directions = np.asarray(directions, dtype=float)
    outlyingness = np.zeros(x.shape[0])
    any_usable = False
    for start in range(0, directions.shape[0], 512):
        proj = x @ directions[start : start + 512].T
        dev = np.abs(proj - np.median(proj, axis=0))
        madv = np.median(dev, axis=0)
        usable = madv > 0.0
        if not np.any(usable):
            continue
        any_usable = True
        ratios = dev[:, usable] / madv[usable]
        np.maximum(outlyingness, ratios.max(axis=1), out=outlyingness)
    if not any_usable:
        raise ValueError("every projection direction has zero MAD")
    return 1.0 / (1.0 + outlyingness)


def l2_depth_reference(x) -> np.ndarray:
    """L2 depth from the full matrix of pairwise Euclidean distances."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + cdist(x, x).sum(axis=1) / x.shape[0])


def read_matrix_csv_reference(path: str) -> np.ndarray:
    """The per-cell CSV reader: every cell through float(), every fault an
    InputError naming its row and column (rows count non-blank lines)."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise InputError(f"{path}: file contains no data rows")

    def split(line):
        return [cell.strip() for cell in line.split(",")]

    start = 0
    first = split(lines[0])
    try:
        [float(cell) for cell in first]
    except ValueError:
        start = 1
    if start == len(lines):
        raise InputError(f"{path}: file contains a header but no data rows")

    width = len(split(lines[start]))
    rows = []
    for i in range(start, len(lines)):
        cells = split(lines[i])
        if len(cells) != width:
            raise InputError(
                f"{path}: row {i + 1} has {len(cells)} columns, expected {width}"
            )
        values = []
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {i + 1}, column {j + 1}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: row {i + 1}, column {j + 1}: non-finite value {cell!r}"
                )
            values.append(value)
        rows.append(values)
    return np.asarray(rows, dtype=float)


def _start_factor(sigma):
    # Lower Cholesky factor, or None where a pivot is at or below
    # p * machine epsilon * the largest diagonal entry.
    p = sigma.shape[0]
    lower, info = dpotrf(sigma, lower=1, clean=1)
    done = info - 1 if info > 0 else p
    tolerance = p * np.finfo(float).eps * sigma.diagonal().max()
    if info > 0 or np.any(np.diagonal(lower)[:done] ** 2 <= tolerance):
        return None
    return lower


def _start_moments(x, rows_index, div):
    rows = x[rows_index]
    mu = rows.mean(axis=0)
    rows -= mu
    return mu, rows.T @ rows / div


def fastmcd_starts_reference(x, h: int, n_starts: int, seed: int):
    """The start phase of the FAST-MCD baseline, one start at a time.

    Each start draws its p + 1 rows from default_rng((seed, start)), adds
    (1e-10 * trace / p) * I to a singular elemental covariance, then takes
    two C-steps (the second only if the subset moved), with denominator
    h - 1 and ties going to the lower index. Distances come from one BLAS
    dtrmm of the centred rows by the dtrtri inverse of the factor.

    Returns (candidates, ridged, dropped): the (logdet, start, subset) of
    every start that stays non-singular, the starts whose elemental
    covariance needed the ridge, and the starts a singular covariance
    stopped. The sums and products are the ones the estimator takes, so
    the results agree bit for bit; this needs x to fit in one of its
    distance blocks (256 KiB).
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    candidates, ridged, dropped = [], [], []
    for start in range(n_starts):
        rng = np.random.default_rng((seed, start))
        mu, sigma = _start_moments(x, np.sort(rng.choice(n, size=p + 1, replace=False)), p)
        lower = _start_factor(sigma)
        if lower is None:
            ridged.append(start)
            sigma = sigma + 1e-10 * float(np.trace(sigma)) / p * np.eye(p)
            lower = _start_factor(sigma)
        subset = None
        for step in range(2):
            if lower is None:
                break
            z = dtrmm(1.0, dtrtri(lower, lower=1)[0], (x - mu).T, lower=1)
            d2 = np.einsum("ij,ij->j", z, z)
            new = np.sort(np.argsort(d2, kind="stable")[:h])
            if subset is not None and np.array_equal(new, subset):
                break
            subset = new
            mu, sigma = _start_moments(x, subset, h - 1)
            lower = _start_factor(sigma)
        if lower is None:
            dropped.append(start)
        else:
            candidates.append((2.0 * np.sum(np.log(np.diagonal(lower))), start, subset))
    return candidates, ridged, dropped
