"""Robust location and scatter estimation pipelines.

The fast depth-based estimator selects the h deepest samples, takes their
mean and covariance, rescales the covariance with a median-based consistency
factor, and applies a one-pass reweighting. A concentration-step (C-step)
baseline in the FASTMCD style and an exhaustive minimum-determinant oracle
for tiny instances are provided for comparison and testing.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice

import numpy as np
from scipy.linalg import solve_triangular

from . import depth as depth_mod
from . import numeric
from .depth import as_data_matrix, deepest_subset, default_direction_count
from .errors import (
    DegenerateData,
    DimensionError,
    FdbError,
    InvalidConfig,
    InvalidSubsetSize,
    NonFiniteValues,
    NotPositiveDefinite,
    OracleTooLarge,
    SingularCovariance,
    TooFewWeightedSamples,
)

_RIDGE_SCALE = 1e-10
_DET_TOL = 1e-12
_MAX_C_STEPS = 100


@dataclass(frozen=True)
class LocationScatter:
    """A (mu, sigma) estimate with positive definite sigma.

    ``provenance`` records the pipeline stage that produced the estimate:
    raw, reweighted, cstep or oracle. ``lower`` is the Cholesky factor of
    sigma, computed on first use and kept; the estimate is frozen so the
    factor cannot go stale.
    """

    mu: np.ndarray
    sigma: np.ndarray
    provenance: str = "raw"

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def lower(self) -> np.ndarray:
        return numeric.cholesky(self.sigma)


@dataclass
class EstimatorConfig:
    """Configuration of a depth-based estimation run.

    ``alpha`` sets the core-set size h = floor(alpha * n) unless ``h`` is
    given explicitly; ``k`` is the direction count for projection depth
    (``None`` means the adaptive rule max(1000, 10 p)). ``threads`` is the
    worker count of the depth kernels (``None`` means the FDB_THREADS
    environment variable, else 1); the estimate does not depend on it.
    """

    alpha: float = 0.75
    h: "int | None" = None
    depth: str = "projection"
    k: "int | None" = None
    seed: int = 0
    reweight: bool = True
    threads: "int | None" = None

    def __post_init__(self):
        if not 0.5 <= self.alpha <= 1.0:
            raise InvalidConfig(f"alpha must lie in [0.5, 1], got {self.alpha}")
        if self.depth not in ("projection", "l2"):
            raise InvalidConfig(f"unknown depth notion {self.depth!r}")
        if self.threads is not None and self.threads < 1:
            raise InvalidConfig(f"thread count must be positive, got {self.threads}")

    def resolve_h(self, n: int, p: int) -> int:
        h = self.h if self.h is not None else int(math.floor(self.alpha * n))
        return _checked_subset_size(h, n, p)

    def resolve_k(self, p: int) -> int:
        return self.k if self.k is not None else default_direction_count(p)


@dataclass
class ReweightResult:
    """Outcome of the reweighting pass: 0/1 weights, the consistency factor
    c0, and the reweighted estimate."""

    weights: np.ndarray
    c0: float
    estimate: LocationScatter


@dataclass
class EstimationReport:
    """Full record of one estimation run."""

    estimate: LocationScatter
    subset: np.ndarray
    weights: "np.ndarray | None"
    c0: "float | None"
    c1: float
    distances_sq: np.ndarray
    elapsed_seconds: float
    subset_seconds: float = field(default=0.0)
    method: str = ""


def _checked_subset_size(h: int, n: int, p: int) -> int:
    # An h-subset covariance in p dimensions is nonsingular only if h > p.
    if not p < h <= n:
        raise InvalidSubsetSize(f"subset size {h} violates p < h <= n for n={n}, p={p}")
    return h


@contextmanager
def _stage(name: str):
    # Tags propagated errors with the pipeline stage that raised them.
    try:
        yield
    except FdbError as err:
        if err.stage is None:
            err.stage = name
        raise


def subset_mean_cov(
    data,
    subset,
    denominator: str = "h-1",
    ridge: bool = False,
    provenance: str = "raw",
) -> LocationScatter:
    """Mean and covariance of the rows selected by ``subset``.

    ``denominator`` is the literal divisor convention, "h" or "h-1". With
    ``ridge`` enabled a singular covariance is repaired by adding
    (1e-10 * trace / p) * I before failing; this is meant for elemental
    starts only, since it perturbs the determinant objective.

    Only the selected rows are read, and they are not scanned: a NaN or inf
    among them makes sigma non-finite, which its Cholesky factor rejects.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d sample matrix, got ndim={x.ndim}")
    idx = np.asarray(subset, dtype=int).ravel()
    h = idx.size
    if denominator not in ("h", "h-1"):
        raise InvalidConfig(f"denominator must be 'h' or 'h-1', got {denominator!r}")
    div = h if denominator == "h" else h - 1
    if div < 1:
        raise InvalidSubsetSize(f"subset of size {h} is too small for denominator {denominator}")
    rows = x[idx]
    mu = rows.mean(axis=0)
    rows -= mu
    # numpy takes a product of an array with its own transpose as one
    # symmetric rank-k update and mirrors it, so sigma is exactly symmetric.
    sigma = rows.T @ rows
    del rows  # frees the h x p copy before the p x p work
    sigma /= div
    estimate = LocationScatter(mu, sigma, provenance)
    try:
        estimate.lower  # the positive-definiteness check
    except NotPositiveDefinite as exc:
        if not ridge:
            raise SingularCovariance(
                f"subset covariance is singular ({exc})"
            ) from None
        bump = _RIDGE_SCALE * float(np.trace(sigma)) / sigma.shape[0]
        sigma = numeric.symmetrize(sigma + bump * np.eye(sigma.shape[0]))
        estimate = LocationScatter(mu, sigma, provenance)
        try:
            estimate.lower
        except NotPositiveDefinite as exc2:
            raise SingularCovariance(
                f"subset covariance is singular even after ridge repair ({exc2})"
            ) from None
    return estimate


def mahalanobis_sq(data, ls: LocationScatter) -> np.ndarray:
    """Squared Mahalanobis distances of every sample under (mu, sigma).

    Computed through the Cholesky factor as |L^-1 (x - mu)|^2, which is
    nonnegative by construction. The data are not scanned: a NaN or inf in
    x or mu, or an overflowing x - mu, raises NonFiniteValues once it makes
    a distance non-finite.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != ls.p:
        raise DimensionError(f"expected an (n, {ls.p}) sample matrix, got shape {x.shape}")
    # The centred transpose is Fortran-ordered, so the solve overwrites it
    # and one n x p array is alive at a time.
    z = solve_triangular(ls.lower, (x - ls.mu).T, lower=True, overwrite_b=True, check_finite=False)
    d2 = np.einsum("ij,ij->j", z, z)
    if not np.isfinite(d2).all():
        raise NonFiniteValues("squared Mahalanobis distances are not finite")
    return d2


def _smallest_distance_subset(d2: np.ndarray, h: int, p: int) -> np.ndarray:
    # Ties broken by lower index via the stable sort.
    _checked_subset_size(h, d2.size, p)
    return np.sort(np.argsort(d2, kind="stable")[:h])


def c_step(data, state: LocationScatter, h: int):
    """One concentration step from the given estimate.

    Selects the h samples with smallest squared Mahalanobis distance under
    ``state`` and returns their mean/covariance (denominator h-1). When the
    incoming state was itself computed from an h-subset with denominator h-1,
    the determinant never increases.
    """
    x = np.asarray(data, dtype=float)
    subset = _smallest_distance_subset(mahalanobis_sq(x, state), h, state.p)
    return subset, subset_mean_cov(x, subset, "h-1", provenance="cstep")


def iterate_c_steps(data, start: LocationScatter, h: int, max_iter: int = _MAX_C_STEPS):
    """Concentration steps until the subset repeats or the determinant stalls.

    Returns (subset, estimate, iterations). Stops when the newly selected
    subset equals the previous one, when the relative determinant decrease
    falls below 1e-12, or after ``max_iter`` estimate updates.
    """
    if max_iter < 1:
        raise InvalidConfig(f"need at least one C-step, got max_iter={max_iter}")
    x = np.asarray(data, dtype=float)
    state = start
    subset = None
    prev_logdet = None
    iterations = 0
    while iterations < max_iter:
        new_subset = _smallest_distance_subset(mahalanobis_sq(x, state), h, start.p)
        if subset is not None and np.array_equal(new_subset, subset):
            break
        subset = new_subset
        state = subset_mean_cov(x, subset, "h-1", provenance="cstep")
        iterations += 1
        logdet = numeric.log_determinant(state.lower)
        if prev_logdet is not None and prev_logdet - logdet < _DET_TOL:
            break
        prev_logdet = logdet
    return subset, state, iterations


def reweight(data, ls: LocationScatter) -> ReweightResult:
    """One-pass reweighting of an estimate.

    c0 rescales sigma so the median squared distance matches the chi-square
    median; samples beyond the sqrt(chi2_{p,0.975}) cutoff under the rescaled
    scatter get weight zero. The reweighted covariance uses denominator
    (sum of weights - 1) with no further correction factor.
    """
    x = np.asarray(data, dtype=float)
    return _reweight(x, mahalanobis_sq(x, ls), ls.p)


def _reweight(x: np.ndarray, d2: np.ndarray, p: int) -> ReweightResult:
    # reweight, given the squared distances d2 of x under the estimate.
    c0 = _consistency_factor(d2, p, "calibrate weights")
    weights = (d2 / c0 <= numeric.chi_square_quantile(p, 0.975)).astype(np.int8)
    kept = int(weights.sum())
    if kept <= p + 1:
        raise TooFewWeightedSamples(
            f"reweighting kept {kept} samples, need more than {p + 1}"
        )
    estimate = subset_mean_cov(x, np.flatnonzero(weights), "h-1", provenance="reweighted")
    return ReweightResult(weights, c0, estimate)


def _consistency_factor(d2: np.ndarray, p: int, purpose: str) -> float:
    # c = med_i D^2(x_i) / chi2_{p, 0.5}: the factor that makes the median
    # squared distance match the chi-square median.
    c = float(numeric.row_medians(d2)) / numeric.chi_square_quantile(p, 0.5)
    if c <= 0.0:
        raise SingularCovariance(f"median squared distance is zero; cannot {purpose}")
    return c


def _finish_report(
    data,
    subset: np.ndarray,
    do_reweight: bool,
    t0: float,
    t_subset: float,
    method: str,
) -> EstimationReport:
    # Shared tail of both estimators: h-denominator scatter, c1 scaling,
    # optional reweighting, final distances and timings. Distances under
    # c1 * sigma0 are those under sigma0 divided by c1, so the scaled
    # estimate needs neither a factor nor a pass of its own.
    with _stage("scatter"):
        raw = subset_mean_cov(data, subset, "h", provenance="raw")
    with _stage("scaling"):
        d2 = mahalanobis_sq(data, raw)
        c1 = _consistency_factor(d2, raw.p, "scale scatter")
        with np.errstate(over="ignore"):
            d2 /= c1
        if not np.isfinite(d2).all():
            raise NonFiniteValues("scaled squared distances overflow")
    # The product keeps sigma0's exact symmetry.
    estimate = LocationScatter(raw.mu, c1 * raw.sigma, "raw")
    weights = c0 = None
    if do_reweight:
        with _stage("reweight"):
            rw = _reweight(data, d2, raw.p)
        estimate, weights, c0 = rw.estimate, rw.weights, rw.c0
        d2 = mahalanobis_sq(data, estimate)
    elapsed = time.perf_counter() - t0
    return EstimationReport(
        estimate=estimate,
        subset=subset,
        weights=weights,
        c0=c0,
        c1=c1,
        distances_sq=d2,
        elapsed_seconds=elapsed,
        subset_seconds=t_subset - t0,
        method=method,
    )


def _depths(x: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    # Scores in depth order. A function of its own so the k x p direction
    # set is freed before the estimation tail runs.
    if config.depth == "projection":
        p = x.shape[1]
        dirs = depth_mod.sample_directions(p, config.resolve_k(p), config.seed)
        return depth_mod.projection_depth(x, dirs, config.threads)
    # L2 depth 1 / (1 + d) is 1 for every mean distance d below 2**-53;
    # -d keeps the depth order wherever the depths differ, and ranks tiny
    # data too.
    _, mean_dist = depth_mod.l2_depth(x, config.threads, return_mean_distance=True)
    return -mean_dist


def fdb_estimate(data, config: EstimatorConfig) -> EstimationReport:
    """Depth-based robust location/scatter estimate.

    Pipeline: depth values -> deepest h-subset -> subset mean and
    h-denominator covariance -> consistency scaling by c1 -> optional
    reweighting. Timing covers the whole pipeline; ``subset_seconds``
    covers the subset pursuit only.
    """
    t0 = time.perf_counter()
    x = as_data_matrix(data)
    n, p = x.shape
    h = config.resolve_h(n, p)
    if n <= 5 * p:
        warnings.warn(
            f"n={n} samples with p={p} variables; results are unreliable unless n > 5p",
            stacklevel=2,
        )
    with _stage("depth"):
        depths = _depths(x, config)
    with _stage("subset"):
        subset = deepest_subset(depths, h)
    t_subset = time.perf_counter()
    method = "fdb-pro" if config.depth == "projection" else "fdb-l2"
    return _finish_report(x, subset, config.reweight, t0, t_subset, method)


def fastmcd_baseline(
    data,
    h: int,
    n_starts: int = 500,
    seed: int = 0,
    reweight_estimate: bool = True,
) -> EstimationReport:
    """FASTMCD-style baseline: random elemental starts plus concentration steps.

    Draws ``n_starts`` random (p+1)-subsets, builds their (ridge-repaired)
    mean/covariance, applies two C-steps to each, keeps the ten best by
    determinant, iterates those to convergence, and finishes the winner with
    the same consistency scaling and reweighting as the depth pipeline.
    Per-start RNG streams are derived from (seed, start index) so the result
    does not depend on evaluation order.
    """
    t0 = time.perf_counter()
    x = as_data_matrix(data)
    n, p = x.shape
    _checked_subset_size(h, n, p)
    if n_starts < 1:
        raise InvalidConfig(f"need at least one start, got {n_starts}")

    with _stage("subset"):
        candidates = []  # (logdet, start index, subset, state)
        for s in range(n_starts):
            rng = np.random.default_rng((seed, s))
            elemental = np.sort(rng.choice(n, size=p + 1, replace=False))
            try:
                state = subset_mean_cov(x, elemental, "h-1", ridge=True, provenance="cstep")
                subset, state = c_step(x, state, h)
                subset, state = c_step(x, state, h)
            except SingularCovariance:
                continue
            logdet = numeric.log_determinant(state.lower)
            candidates.append((logdet, s, subset, state))
        if not candidates:
            raise DegenerateData("every elemental start produced a singular covariance")

        candidates.sort(key=lambda item: (item[0], item[1]))
        best_logdet = np.inf
        best_subset = None
        for _, _, subset, state in candidates[:10]:
            try:
                subset, state, _ = iterate_c_steps(x, state, h)
            except SingularCovariance:
                continue
            logdet = numeric.log_determinant(state.lower)
            if logdet < best_logdet:
                best_logdet = logdet
                best_subset = subset
        if best_subset is None:
            raise DegenerateData("no start could be concentrated to a non-singular subset")
    t_subset = time.perf_counter()
    return _finish_report(x, best_subset, reweight_estimate, t0, t_subset, "fastmcd")


# Chunk bound for the exhaustive oracle: at most this many subset index
# entries are materialized at once.
_ORACLE_CHUNK_ENTRIES = 5_000_000
_ORACLE_LIMIT = 1_000_000


def exhaustive_mcd(data, h: int):
    """Global minimum-determinant h-subset by full enumeration.

    Only available when C(n, h) <= 1e6. Ties are broken by lexicographic
    subset order (the enumeration order). Returns the subset and its
    mean/covariance with denominator h-1.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    _checked_subset_size(h, n, p)
    total = math.comb(n, h)
    if total > _ORACLE_LIMIT:
        raise OracleTooLarge(f"C({n}, {h}) = {total} exceeds the oracle bound {_ORACLE_LIMIT}")

    chunk = max(1, _ORACLE_CHUNK_ENTRIES // h)
    best_logdet = np.inf
    best_subset = None
    iterator = combinations(range(n), h)
    while True:
        block = list(islice(iterator, chunk))
        if not block:
            break
        idx = np.fromiter(
            chain.from_iterable(block), dtype=np.int64, count=len(block) * h
        ).reshape(len(block), h)
        rows = x[idx]  # (c, h, p)
        mu = rows.mean(axis=1)
        centered = rows - mu[:, None, :]
        cov = np.einsum("chi,chj->cij", centered, centered) / (h - 1)
        sign, logdet = np.linalg.slogdet(cov)
        logdet = np.where(sign > 0, logdet, -np.inf)
        j = int(np.argmin(logdet))
        if logdet[j] < best_logdet:
            best_logdet = float(logdet[j])
            best_subset = idx[j]
    subset = np.asarray(best_subset, dtype=int)
    return subset, subset_mean_cov(x, subset, "h-1", provenance="oracle")
