"""Statistical depth values and selection of the deepest h-subset.

Two depth notions are provided: projection depth, approximated with a finite
set of random unit directions, and the exact sample L2 depth. Both map every
sample to a centrality score in (0, 1]; the h-subset of deepest points is the
core set used by the robust estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateData, DimensionError, InvalidSubsetSize

# Byte budget of one working block: projection depth holds two blocks of
# directions x samples, L2 depth one block of rows x samples, so their memory
# beyond a copy of the data stays bounded whatever n and k are. The
# per-sample maximum and the per-sample distance sums do not depend on the
# block size. Measured with one BLAS thread: 128 KiB made 2000 x 200 depths
# 15% (projection) and 65% (L2) slower than 512 KiB, while 1-2 MiB saved at
# most 7% and doubled to tripled the peak memory of a 400 x 40 estimate.
_BLOCK_BYTES = 512 * 1024

# From this dimension on, L2 depth uses the Gram form |a|^2 + |b|^2 - 2 a'b,
# one matrix product per block; below it pairwise differences (cdist) are
# faster. At n = 200 and 400 the measured crossover lies between p = 12 and
# p = 16.
_L2_GRAM_MIN_P = 16

# L2 depth leaves data with max |x| in [2**-256, 2**256] unscaled: there
# squared distances cannot overflow for p below 2**500, and the squares of
# differences down to 2**-250 times the largest entry stay normal. Only data
# outside that range pay for a scaled copy.
_UNSCALED_EXPONENT = 256


def _block_rows(n: int) -> int:
    """Rows of n float64 values that fit in one block (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * n))


def default_direction_count(p: int) -> int:
    """Adaptive direction-count rule: max(1000, 10 p)."""
    return max(1000, 10 * p)


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an (n, p) float matrix with finite entries."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-d sample matrix, got ndim={x.ndim}")
    n, p = x.shape
    if n < 1 or p < 1:
        raise DimensionError(f"need at least one sample and one variable, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix contains non-finite entries")
    return x


@dataclass(frozen=True)
class DirectionSet:
    """A fixed set of unit projection directions, reproducible from its seed."""

    directions: np.ndarray  # (k, p), rows have Euclidean norm 1
    seed: int

    @property
    def k(self) -> int:
        return self.directions.shape[0]

    @property
    def p(self) -> int:
        return self.directions.shape[1]


def sample_directions(p: int, k: int, seed: int) -> DirectionSet:
    """Draw k independent Uniform(sphere) directions in R^p.

    Each direction is a standard-normal vector normalized to unit length;
    the zero-norm draw (a probability-zero event) is redrawn.
    """
    if p < 1:
        raise DimensionError(f"dimension must be positive, got {p}")
    if k < 1:
        raise ValueError(f"direction count must be positive, got {k}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, p))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        u[bad] = rng.standard_normal((int(bad.sum()), p))
        norms = np.linalg.norm(u, axis=1)
    return DirectionSet(u / norms[:, None], seed)


def projection_depth(data, dirs: DirectionSet) -> np.ndarray:
    """Approximate projection depth of every sample.

    For sample x the outlyingness is the maximum over usable directions u of
    |u'x - med(u'X)| / MAD(u'X), and the depth is 1 / (1 + outlyingness).
    Directions with MAD(u'X) = 0 carry no usable scale and are skipped;
    if every direction is unusable the data are degenerate.

    Directions are processed in blocks of at most ``_BLOCK_BYTES`` of
    projections, so the working memory is two such blocks besides the data.
    """
    x = as_data_matrix(data)
    if dirs.p != x.shape[1]:
        raise DimensionError(
            f"directions have dimension {dirs.p}, data has dimension {x.shape[1]}"
        )
    n = x.shape[0]
    rows = min(_block_rows(n), dirs.k)
    proj = np.empty((rows, n))  # one direction per row
    work = np.empty((rows, n))  # partitioned copy for the medians
    outlyingness = np.zeros(n)
    any_usable = False
    for start in range(0, dirs.k, rows):
        block = dirs.directions[start : start + rows]
        dev = proj[: block.shape[0]]
        part = work[: block.shape[0]]
        np.matmul(block, x.T, out=dev)
        med = _row_medians(dev, part)
        np.subtract(dev, med[:, None], out=dev)
        np.abs(dev, out=dev)
        madv = _row_medians(dev, part)
        # A zero-MAD direction divides by infinity and contributes 0, which
        # never raises the nonnegative running maximum.
        zero = madv == 0.0
        any_usable = any_usable or not zero.all()
        madv[zero] = np.inf
        np.divide(dev, madv[:, None], out=dev)
        np.maximum(outlyingness, dev.max(axis=0), out=outlyingness)
    if not any_usable:
        raise DegenerateData("every projection direction has zero MAD")
    return 1.0 / (1.0 + outlyingness)


def _row_medians(values: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Median of each row, equal bit for bit to ``np.median(values, axis=1)``.

    ``work`` (same shape) is overwritten by a partitioned copy; even
    lengths average the two central order statistics as np.median does.
    """
    n = values.shape[1]
    lo, hi = (n - 1) // 2, n // 2
    np.copyto(work, values)
    work.partition((lo, hi), axis=1)
    if lo == hi:
        return work[:, hi].copy()
    return (work[:, lo] + work[:, hi]) / 2.0


def l2_depth(data) -> np.ndarray:
    """Exact sample L2 depth: 1 / (1 + mean Euclidean distance to the sample).

    Data of extreme scale are first scaled by a power of two, which is
    exact, so that squared distances neither overflow nor become subnormal.
    From dimension ``_L2_GRAM_MIN_P`` on the distances come from the Gram
    form of a centred copy, below it from pairwise differences. Either way
    the working memory is one block of at most ``_BLOCK_BYTES`` besides one
    copy of the data.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    exponent = math.frexp(max(x.max(), -x.min()))[1]
    if abs(exponent) <= _UNSCALED_EXPONENT:
        exponent = 0
    if p >= _L2_GRAM_MIN_P:
        sums = _gram_distance_sums(x, exponent)
    else:
        scaled = np.ldexp(x, -exponent) if exponent else x
        rows = _block_rows(n)
        sums = np.empty(n)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            sums[start:stop] = cdist(scaled[start:stop], scaled).sum(axis=1)
    mean_dist = np.ldexp(sums / n, exponent)
    return 1.0 / (1.0 + mean_dist)


def _gram_distance_sums(x: np.ndarray, exponent: int) -> np.ndarray:
    """Sum of the Euclidean distances from each row of ``x * 2**-exponent``
    to all rows, through |a|^2 + |b|^2 - 2 a'b on the centred scaled copy.

    Bitwise-identical rows are merged first and weighted by their count, so
    they get identical sums and a distance of exactly 0 to each other, which
    the rounding of the Gram form would not give them.
    """
    distinct, inverse, counts = _distinct_rows(x)
    xc = x[distinct]
    np.ldexp(xc, -exponent, out=xc)
    xc -= xc.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    weights = counts.astype(float)
    m = xc.shape[0]
    rows = min(_block_rows(m), m)
    buf = np.empty((rows, m))
    sums = np.empty(m)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        d2 = buf[: stop - start]
        np.matmul(xc[start:stop], xc.T, out=d2)
        d2 *= -2.0
        d2 += sq[start:stop, None]
        d2 += sq
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(stop - start), np.arange(start, stop)] = 0.0
        np.sqrt(d2, out=d2)
        np.matmul(d2, weights, out=sums[start:stop])
    return sums[inverse]


def _distinct_rows(x: np.ndarray):
    """Bitwise-distinct rows of ``x``: (first index of each distinct row,
    ascending; position of each row's representative in that list; count of
    each distinct row)."""
    n, p = x.shape
    keys = np.ascontiguousarray(x).view(np.dtype((np.void, 8 * p))).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    del sorted_keys
    # The stable sort puts each group's smallest index first.
    representative = np.empty(n, dtype=np.intp)
    representative[order] = order[starts][np.cumsum(starts) - 1]
    distinct = np.flatnonzero(representative == np.arange(n))
    counts = np.bincount(representative, minlength=n)[distinct]
    return distinct, np.searchsorted(distinct, representative), counts


def deepest_subset(depths, h: int, dim: "int | None" = None) -> np.ndarray:
    """Indices (ascending) of the h largest depth values.

    Ties at the boundary are broken in favour of the smaller original index.
    When ``dim`` is given, enforces the invertibility requirement h > dim.
    """
    d = np.asarray(depths, dtype=float).ravel()
    n = d.size
    if h > n or h < 1:
        raise InvalidSubsetSize(f"subset size {h} not in [1, {n}]")
    if dim is not None and h <= dim:
        raise InvalidSubsetSize(f"subset size {h} must exceed the dimension {dim}")
    order = np.argsort(-d, kind="stable")
    return np.sort(order[:h])
