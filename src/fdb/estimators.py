"""Robust location and scatter estimation pipelines.

The fast depth-based estimator selects the h deepest samples, takes their
mean and covariance, rescales the covariance with a median-based consistency
factor, and applies a one-pass reweighting. A concentration-step (C-step)
baseline in the FASTMCD style and an exhaustive minimum-determinant oracle
for tiny instances are provided for comparison and testing.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice

import numpy as np
from scipy.linalg.blas import dtrmm

from . import depth as depth_mod
from . import numeric
from .depth import as_data_matrix, checked_integer, deepest_subset, default_direction_count
from .errors import (
    DegenerateData,
    DimensionError,
    FdbError,
    InvalidConfig,
    InvalidSubsetSize,
    NonFiniteValues,
    NotPositiveDefinite,
    NotSymmetric,
    OracleTooLarge,
    SingularCovariance,
    TooFewWeightedSamples,
)

_RIDGE_SCALE = 1e-10
_DET_TOL = 1e-12
_MAX_C_STEPS = 100
# fastmcd_baseline concentrates its starts in stacks of about this many
# bytes of n x p data, one n x p array per start: 8 starts at 400 x 40.
_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class LocationScatter:
    """A (mu, sigma) estimate with positive definite sigma.

    ``lower`` is the Cholesky factor of sigma and ``lower_inverse`` its
    inverse, which the distance passes multiply by. Each is computed on
    first use and kept; the estimate is frozen so neither can go stale.
    """

    mu: np.ndarray
    sigma: np.ndarray

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def lower(self) -> np.ndarray:
        return numeric.cholesky(self.sigma)

    @cached_property
    def lower_inverse(self) -> np.ndarray:
        return numeric.triangular_inverse(self.lower)

    @classmethod
    def _factored(cls, mu: np.ndarray, sigma: np.ndarray, lower: np.ndarray) -> "LocationScatter":
        # An estimate whose factor is already known; cached_property keeps
        # its values in the instance dict, which the frozen dataclass allows.
        estimate = cls(mu, sigma)
        estimate.__dict__["lower"] = lower
        return estimate


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
        if not isinstance(self.alpha, numbers.Real):
            raise InvalidConfig(f"alpha must be a number, got {self.alpha!r}")
        if not 0.5 <= self.alpha <= 1.0:
            raise InvalidConfig(f"alpha must lie in [0.5, 1], got {self.alpha}")
        if self.depth not in ("projection", "l2"):
            raise InvalidConfig(f"unknown depth notion {self.depth!r}")
        counts = {"subset size": self.h, "direction count": self.k, "thread count": self.threads}
        for name, value in counts.items():
            if value is not None:
                checked_integer(value, name, 1)
        checked_integer(self.seed, "seed", 0)

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
    """Full record of one estimation run: the ``estimate`` returned (the
    reweighted one, else the c1-scaled h-subset one), the h-``subset``, the
    reweighting's 0/1 ``weights`` and ``c0`` (``None`` without it), ``c1``,
    the seconds of the run and of its subset pursuit, and the ``method``.
    ``mahalanobis_sq(x, report.estimate)`` gives the distances. Both
    pipelines take c0 from distances already divided by c1, so it is 1 up
    to rounding (1 or 1 +- 2**-52 at 200 x 5, 400 x 40 and 2000 x 200);
    the reweighted scatter gets no consistency factor of its own."""

    estimate: LocationScatter
    subset: np.ndarray
    weights: "np.ndarray | None"
    c0: "float | None"
    c1: float
    elapsed_seconds: float
    subset_seconds: float
    method: str


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


def _moments(x: np.ndarray, idx: np.ndarray, div: int, work: "np.ndarray | None" = None):
    # Means (B, p) and scatters (B, p, p) of the row sets idx (B, m) of x,
    # the scatters divided by div. One gather, one mean and one stacked
    # product serve the whole stack. The rows are gathered as (m, B, p), so
    # the mean and the centring run along rows of B * p numbers; each
    # mean still adds its m rows in order, as a mean of one (m, p) set does.
    # They go into ``work`` (flat, at least m * B * p) when it is given: a
    # stack's rows are too large for the allocator to keep, and allocating
    # them afresh faulted in every page of them on every call.
    if work is None:
        rows = np.take(x, idx.T, axis=0)
    else:
        shape = (idx.shape[1], idx.shape[0], x.shape[1])
        # mode="clip" gathers straight into work, where the default mode
        # goes through a buffer; the starts' indices are in range.
        rows = np.take(x, idx.T, axis=0, out=work[: math.prod(shape)].reshape(shape), mode="clip")
    # An overflow here makes sigma non-finite, which its factorization
    # reports as NonFiniteValues; numpy need not warn of it first.
    with np.errstate(over="ignore", invalid="ignore"):
        mu = rows.mean(axis=0)
        rows -= mu
        sigma = np.matmul(rows.transpose(1, 2, 0), rows.transpose(1, 0, 2))
    del rows  # without work, frees the gathered rows before the p x p work
    sigma /= div
    return mu, sigma


def _factor_moments(sigma: np.ndarray):
    # numeric.cholesky_stack of scatters from _moments. numpy takes a product
    # of a matrix with its own transpose as one symmetric rank-k update and
    # mirrors it, so they are exactly symmetric; on a build without that
    # path, the lower triangles are mirrored, which changes no bits of a
    # symmetric product.
    try:
        return numeric.cholesky_stack(sigma)
    except NotSymmetric:
        upper = np.triu(np.ones(sigma.shape[1:], dtype=bool), 1)
        np.copyto(sigma, sigma.transpose(0, 2, 1), where=upper)
        return numeric.cholesky_stack(sigma)


def _ridged(sigma: np.ndarray):
    # Adds (1e-10 * trace / p) * I to a singular covariance; returns the
    # sum and its factor, or raises NotPositiveDefinite.
    bump = _RIDGE_SCALE * float(np.trace(sigma)) / sigma.shape[0]
    repaired = sigma + bump * np.eye(sigma.shape[0])
    return repaired, numeric.cholesky(repaired)


def _singular(pivot: int) -> SingularCovariance:
    return SingularCovariance(
        f"subset covariance is singular (matrix is not positive definite (pivot {pivot}))"
    )


def subset_mean_cov(data, subset, denominator: str = "h-1") -> LocationScatter:
    """Mean and covariance of the rows selected by ``subset``.

    ``subset`` holds integer row indices in [0, n); anything else, a
    boolean mask or a negative index included, raises ``InvalidConfig``.
    ``denominator`` is the literal divisor convention, "h" or "h-1". A
    singular covariance raises ``SingularCovariance``.

    Only the selected rows are read, and they are not scanned: a NaN or inf
    among them makes sigma non-finite, which its Cholesky factor rejects.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d sample matrix, got ndim={x.ndim}")
    idx = np.asarray(subset).ravel()
    h = idx.size
    n = x.shape[0]
    if h and idx.dtype.kind not in "iu":  # signed or unsigned integers
        raise InvalidConfig(f"subset must hold integer row indices, got {idx.dtype} values")
    if h and not 0 <= idx.min() <= idx.max() < n:
        raise InvalidConfig(f"subset indices must lie in [0, {n}), got {idx.min()} to {idx.max()}")
    if denominator not in ("h", "h-1"):
        raise InvalidConfig(f"denominator must be 'h' or 'h-1', got {denominator!r}")
    div = h if denominator == "h" else h - 1
    if div < 1:
        raise InvalidSubsetSize(f"subset of size {h} is too small for denominator {denominator}")
    mu, sigma = _moments(x, idx[None], div)
    lower, pivot = _factor_moments(sigma)
    if pivot[0] >= 0:
        raise _singular(pivot[0])
    return LocationScatter._factored(mu[0], sigma[0], lower[0])


def _distances(x: np.ndarray, mu, inverses) -> np.ndarray:
    # Squared distances (B, n) of the rows of x under each state b, given
    # its location mu[b] and inverse Cholesky factor inverses[b]; see
    # mahalanobis_sq.
    n, p = x.shape
    rows = depth_mod._block_rows(p)
    buffer = np.empty((min(n, rows), p))
    d2 = np.empty((len(mu), n))
    # An overflow makes a distance non-finite, which the check below reports;
    # numpy need not warn of it first.
    with np.errstate(over="ignore", invalid="ignore"):
        for center, inverse, out in zip(mu, inverses, d2):
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                block = buffer[: stop - start]
                np.subtract(x[start:stop], center, out=block)
                # The transpose of a C-ordered block is Fortran-ordered, so
                # dtrmm overwrites the block in place.
                z = dtrmm(1.0, inverse, block.T, lower=1, overwrite_b=1)
                np.einsum("ij,ij->j", z, z, out=out[start:stop])
    if not np.isfinite(d2).all():
        raise NonFiniteValues("squared Mahalanobis distances are not finite")
    return d2


def mahalanobis_sq(data, ls: LocationScatter) -> np.ndarray:
    """Squared Mahalanobis distances of every sample under (mu, sigma).

    Computed through the inverse Cholesky factor as |L^-1 (x - mu)|^2, which
    is nonnegative by construction. The rows are taken in blocks of at most
    ``depth._BLOCK_BYTES``: each block is centred into one reused buffer,
    multiplied in place by L^-1 (a triangular matrix product, faster than a
    triangular solve) and reduced to its column sums of squares, so no
    n x p copy is made. The data are not scanned: a NaN or inf in x or mu,
    or an overflowing x - mu, raises NonFiniteValues once it makes a
    distance non-finite.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != ls.p:
        raise DimensionError(f"expected an (n, {ls.p}) sample matrix, got shape {x.shape}")
    return _distances(x, [ls.mu], [ls.lower_inverse])[0]


def _concentrate(x: np.ndarray, mu, sigma, lower, h: int, max_iter: int, work=None):
    # C-steps on a stack of B states, mu (B, p) with sigma and its factor
    # lower (B, p, p), which are updated in place. Each state is stepped
    # until its subset repeats, its determinant stalls or it has max_iter
    # updates. One step takes each state's distances (one LAPACK dtrtri and
    # one BLAS dtrmm per state), its h nearest rows by one partition over
    # the stack, and their moments and factors as one stack.
    #
    # Returns (subsets, iterations, logdets, singular). singular[b] is -1,
    # or the failing pivot of the h-subset covariance that stopped state b.
    count = len(mu)
    subsets = np.empty((count, h), dtype=np.intp)
    iterations = np.zeros(count, dtype=int)
    logdets = np.full(count, np.inf)
    singular = np.full(count, -1)
    live = np.arange(count)
    for step in range(max_iter):
        if not live.size:
            break
        inverses = [numeric.triangular_inverse(factor) for factor in lower[live]]
        new = numeric.smallest(_distances(x, mu[live], inverses), h)
        if step:
            moved = (new != subsets[live]).any(axis=1)
            live, new = live[moved], new[moved]
        subsets[live] = new
        new_mu, new_sigma = _moments(x, new, h - 1, work)
        new_lower, pivot = _factor_moments(new_sigma)
        fit = pivot < 0
        singular[live[~fit]] = pivot[~fit]
        live = live[fit]
        mu[live], sigma[live], lower[live] = new_mu[fit], new_sigma[fit], new_lower[fit]
        iterations[live] += 1
        logdet = numeric.log_determinant(lower[live])
        stalled = logdets[live] - logdet < _DET_TOL
        logdets[live] = logdet
        live = live[~stalled]
    return subsets, iterations, logdets, singular


def c_step(data, state: LocationScatter, h: int):
    """One concentration step from the given estimate.

    Selects the h samples with smallest squared Mahalanobis distance under
    ``state`` and returns their mean/covariance (denominator h-1). When the
    incoming state was itself computed from an h-subset with denominator h-1,
    the determinant never increases. This is ``iterate_c_steps`` with
    ``max_iter=1``.
    """
    subset, state, _ = iterate_c_steps(data, state, h, max_iter=1)
    return subset, state


def iterate_c_steps(data, start: LocationScatter, h: int, max_iter: int = _MAX_C_STEPS):
    """Concentration steps until the subset repeats or the determinant stalls.

    Returns (subset, estimate, iterations). Stops when the newly selected
    subset equals the previous one, when the relative determinant decrease
    falls below 1e-12, or after ``max_iter`` estimate updates. This is the
    stacked step of ``fastmcd_baseline`` on a stack of one.
    """
    checked_integer(max_iter, "C-step count", 1)
    x = np.asarray(data, dtype=float)
    p = start.p
    if x.ndim != 2 or x.shape[1] != p:
        raise DimensionError(f"expected an (n, {p}) sample matrix, got shape {x.shape}")
    _checked_subset_size(checked_integer(h, "subset size", None), x.shape[0], p)
    mu, sigma, lower = start.mu[None].copy(), start.sigma[None].copy(), start.lower[None].copy()
    subsets, iterations, _, singular = _concentrate(x, mu, sigma, lower, h, max_iter)
    if singular[0] >= 0:
        raise _singular(singular[0])
    return subsets[0], LocationScatter._factored(mu[0], sigma[0], lower[0]), int(iterations[0])


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
    # The estimators pass distances under the c1-scaled scatter, so their
    # c0 is 1 up to rounding; only ``reweight`` of another estimate gets a
    # c0 that rescales.
    c0 = _consistency_factor(d2, p, "calibrate weights")
    weights = (d2 / c0 <= numeric.chi_square_quantile(p, 0.975)).astype(np.int8)
    kept = int(weights.sum())
    if kept <= p + 1:
        raise TooFewWeightedSamples(
            f"reweighting kept {kept} samples, need more than {p + 1}"
        )
    estimate = subset_mean_cov(x, np.flatnonzero(weights), "h-1")
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
    # optional reweighting and timings. Distances under c1 * sigma0 are
    # those under sigma0 divided by c1, so sigma0's pass is the only one.
    with _stage("scatter"):
        raw = subset_mean_cov(data, subset, "h")
    with _stage("scaling"):
        d2 = mahalanobis_sq(data, raw)
        c1 = _consistency_factor(d2, raw.p, "scale scatter")
        with np.errstate(over="ignore"):
            d2 /= c1
        if not np.isfinite(d2).all():
            raise NonFiniteValues("scaled squared distances overflow")
    if do_reweight:
        with _stage("reweight"):
            rw = _reweight(data, d2, raw.p)
        estimate, weights, c0 = rw.estimate, rw.weights, rw.c0
    else:
        # The product keeps sigma0's exact symmetry.
        estimate, weights, c0 = LocationScatter(raw.mu, c1 * raw.sigma), None, None
    return EstimationReport(
        estimate=estimate,
        subset=subset,
        weights=weights,
        c0=c0,
        c1=c1,
        elapsed_seconds=time.perf_counter() - t0,
        subset_seconds=t_subset - t0,
        method=method,
    )


def _depths(x: np.ndarray, config: EstimatorConfig) -> np.ndarray:
    # Scores in depth order. projection_depth draws the sampled directions
    # as it consumes them, so the k x p set is never held.
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


def _elemental_starts(x: np.ndarray, h: int, n_starts: int, seed: int) -> list:
    # The start phase of fastmcd_baseline: (logdet, start index, h-subset)
    # of every start that two C-steps leave non-singular, in start order.
    # The starts go through _concentrate in stacks sized by _STACK_BYTES,
    # which gather their rows into one buffer.
    n, p = x.shape
    stack = max(1, _STACK_BYTES // (8 * n * p))
    work = np.empty(stack * h * p)
    candidates = []
    for first in range(0, n_starts, stack):
        starts = range(first, min(first + stack, n_starts))
        elementals = np.array([
            np.sort(np.random.default_rng((seed, s)).choice(n, size=p + 1, replace=False))
            for s in starts
        ])
        mu, sigma = _moments(x, elementals, p, work)
        lower, pivot = _factor_moments(sigma)
        for b in np.flatnonzero(pivot >= 0):
            try:
                sigma[b], lower[b] = _ridged(sigma[b])
                pivot[b] = -1
            except NotPositiveDefinite:
                pass  # the start is dropped
        kept = np.flatnonzero(pivot < 0)
        subsets, _, logdets, singular = _concentrate(
            x, mu[kept], sigma[kept], lower[kept], h, 2, work
        )
        candidates.extend(
            (logdets[b], starts[kept[b]], subsets[b]) for b in np.flatnonzero(singular < 0)
        )
    return candidates


def fastmcd_baseline(
    data,
    h: int,
    n_starts: int = 500,
    seed: int = 0,
    reweight_estimate: bool = True,
) -> EstimationReport:
    """FASTMCD-style baseline: random elemental starts plus concentration steps.

    Draws ``n_starts`` random (p+1)-subsets, builds their (ridge-repaired)
    mean/covariance and applies two C-steps to each, keeping only the
    determinant and h-subset of each start; the starts are concentrated a
    stack at a time by the step that ``iterate_c_steps`` takes for one. The
    ten best subsets are refitted and iterated to convergence, and the
    winner is finished with the same consistency scaling and reweighting as
    the depth pipeline.
    Per-start RNG streams are derived from (seed, start index) so the result
    does not depend on evaluation order.
    """
    t0 = time.perf_counter()
    x = as_data_matrix(data)
    n, p = x.shape
    _checked_subset_size(checked_integer(h, "subset size", 1), n, p)
    checked_integer(n_starts, "start count", 1)
    checked_integer(seed, "seed", 0)

    with _stage("subset"):
        candidates = _elemental_starts(x, h, n_starts, seed)
        if not candidates:
            raise DegenerateData("every elemental start produced a singular covariance")

        # The key leaves the subset arrays out of the comparison.
        candidates.sort(key=lambda item: (item[0], item[1]))
        best_logdet = np.inf
        best_subset = None
        for _, _, subset in candidates[:10]:
            try:
                # Refits the candidate's state: the same call on the same rows.
                state = subset_mean_cov(x, subset, "h-1")
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
    _checked_subset_size(checked_integer(h, "subset size", None), n, p)
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
    return subset, subset_mean_cov(x, subset, "h-1")
