"""Statistical depth values and selection of the deepest h-subset.

Two depth notions are provided: projection depth, approximated with a finite
set of random unit directions, and the exact sample L2 depth. Both map every
sample to a centrality score in (0, 1]; the h-subset of deepest points is the
core set used by the robust estimators.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import numeric
from .errors import (
    DegenerateData,
    DimensionError,
    InvalidConfig,
    InvalidSubsetSize,
    NonFiniteValues,
)

# Byte budget of one working block: each worker thread of projection depth
# holds two blocks of directions x samples, each worker of L2 depth one block
# of rows x samples, so their memory beyond a copy of the data stays bounded
# whatever n and k are. The block size must not depend on the thread count:
# OpenBLAS picks its kernel by operand shape, so only equal blocks give
# bitwise-equal depths for every count. 256 KiB lets two workers hold what
# one worker held at 512 KiB; at 2000 x 200 with one BLAS thread it makes a
# single worker 5% (projection, k = 2000) and 19% (L2) slower than 512 KiB.
_BLOCK_BYTES = 256 * 1024

# A worker thread costs about 80 us to start and join, and on a two-vCPU host
# the workers also queue for the interpreter lock between numpy calls. So the
# kernels add a worker only per this many blocks. A projection block (two
# single-kth selections per direction) takes 0.15-0.2 ms, 0.3 ms at p = 200.
# Two workers gain where the matrix product is a large share of a block:
# 0.67x the one-worker time at n = 2000, p = 200 (125 blocks) and 0.77x at
# n = 400, p = 200 (25 blocks). With p <= 100 and k = 1000 they took 1.04x
# to 1.39x the time from 4 to 63 blocks (n = 100 to 2000). The block count
# alone does not separate these cases, so the count stays at 2. An L2 block
# takes 0.05-0.13 ms on average; a Gram strip is half a block of rows x
# samples on average. Two workers took 0.77x-1.27x the one-worker time at 8
# blocks (n = 512, p = 5 to 100) and gained from 17 blocks on with pairwise
# differences (0.67x at p = 5). Gram strips took 0.92x-1.16x from 17 to 32
# blocks (p = 20 and 100) and 0.58x at 125 blocks (n = 2000, p = 200).
_PROJECTION_BLOCKS_PER_WORKER = 2
_L2_BLOCKS_PER_WORKER = 8

# An L2 worker may finish this many blocks ahead of the block whose column
# sums are due next before it waits. In strict lock-step (0) a stall of one
# thread stalls the other; two workers at n = 2000, p = 200 took a median
# 10.2 ms with 0 and 9.8 ms with 4 on a quiet host. 4 costs at most four
# parked length-m vectors.
_L2_LOOKAHEAD = 4

# From this dimension on, L2 depth uses the Gram form |a|^2 + |b|^2 - 2 a'b,
# one matrix product per block; below it pairwise differences (cdist) are
# faster at n = 200, where the measured crossover lies between p = 14 and
# p = 16. Since each pair is computed once, the Gram form is also faster at
# n = 400 (0.87x-0.94x for p = 2 to 5) and n = 1000 (0.75x at p = 6); at
# n = 300 and p <= 5 the two are within 6%.
_L2_GRAM_MIN_P = 16

# L2 depth leaves data with max |x| in [2**-256, 2**256] unscaled: there
# squared distances cannot overflow for p below 2**500, and the squares of
# differences down to 2**-250 times the largest entry stay normal. Only data
# outside that range pay for a scaled copy.
_UNSCALED_EXPONENT = 256


def _block_rows(n: int) -> int:
    """Rows of n float64 values that fit in one block (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _worker_count(threads: "int | None") -> int:
    """Worker threads of the depth kernels: ``threads`` if given, else the
    FDB_THREADS environment variable, else 1."""
    if threads is None:
        env = os.environ.get("FDB_THREADS", "").strip()
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise InvalidConfig(f"FDB_THREADS must be a positive integer, got {env!r}") from None
    if threads < 1:
        raise InvalidConfig(f"thread count must be positive, got {threads}")
    return threads


def _map_blocks(work, starts: range, threads: "int | None", blocks_per_worker: int) -> list:
    """Deal the block ``starts`` round-robin to T workers (worker w takes
    blocks w, w + T, ...) and return each worker's ``work(starts)``, in
    worker order. T is the thread count, at most one worker per
    ``blocks_per_worker`` blocks; a single worker runs inline."""
    workers = max(1, min(_worker_count(threads), len(starts) // blocks_per_worker))
    if workers == 1:
        return [work(starts)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, [starts[w::workers] for w in range(workers)]))


def default_direction_count(p: int) -> int:
    """Adaptive direction-count rule: max(1000, 10 p)."""
    return max(1000, 10 * p)


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an (n, p) float matrix with finite entries."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or 0 in x.shape:
        raise DimensionError(f"expected a nonempty 2-d sample matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValues("data matrix contains non-finite entries")
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
        raise InvalidConfig(f"direction count must be positive, got {k}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, p))
    norms = _row_norms(u)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        u[bad] = rng.standard_normal((int(bad.sum()), p))
        norms = _row_norms(u)
    u /= norms[:, None]
    return DirectionSet(u, seed)


def _row_norms(u: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(u, axis=1)`` bit for bit, taken over blocks of rows
    so that its squares never fill a second array of the size of ``u``."""
    rows = _block_rows(u.shape[1])
    return np.concatenate(
        [np.linalg.norm(u[start : start + rows], axis=1) for start in range(0, u.shape[0], rows)]
    )


def projection_depth(data, dirs: DirectionSet, threads: "int | None" = None) -> np.ndarray:
    """Approximate projection depth of every sample.

    For sample x the outlyingness is the maximum over usable directions u of
    |u'x - med(u'X)| / MAD(u'X), and the depth is 1 / (1 + outlyingness).
    Directions with MAD(u'X) = 0 carry no usable scale and are skipped;
    if every direction is unusable the data are degenerate.

    Directions are processed in blocks of at most ``_BLOCK_BYTES`` of
    projections, so the working memory is two such blocks per worker thread
    besides the data. ``threads`` workers (``None``: FDB_THREADS, else 1)
    share the blocks; the depths are bitwise equal for every count.
    """
    x = as_data_matrix(data)
    if dirs.p != x.shape[1]:
        raise DimensionError(
            f"directions have dimension {dirs.p}, data has dimension {x.shape[1]}"
        )
    n = x.shape[0]
    rows = min(_block_rows(n), dirs.k)

    def running_max(starts):
        proj = np.empty((rows, n))  # one direction per row
        work = np.empty((rows, n))  # partitioned copy for the medians
        outlyingness = np.zeros(n)
        usable = False
        for start in starts:
            block = dirs.directions[start : start + rows]
            dev = proj[: block.shape[0]]
            part = work[: block.shape[0]]
            np.matmul(block, x.T, out=dev)
            med = numeric.row_medians(dev, part)
            np.subtract(dev, med[:, None], out=dev)
            np.abs(dev, out=dev)
            madv = numeric.row_medians(dev, part)
            # A zero-MAD direction divides by infinity and contributes 0,
            # which never raises the nonnegative running maximum.
            zero = madv == 0.0
            usable = usable or not zero.all()
            madv[zero] = np.inf
            np.divide(dev, madv[:, None], out=dev)
            np.maximum(outlyingness, dev.max(axis=0), out=outlyingness)
        return outlyingness, usable

    results = _map_blocks(
        running_max, range(0, dirs.k, rows), threads, _PROJECTION_BLOCKS_PER_WORKER
    )
    if not any(usable for _, usable in results):
        raise DegenerateData("every projection direction has zero MAD")
    # The maximum is exact, so merging the workers' maxima in any order
    # gives the same bits.
    outlyingness = results[0][0]
    for other, _ in results[1:]:
        np.maximum(outlyingness, other, out=outlyingness)
    return 1.0 / (1.0 + outlyingness)


def l2_depth(data, threads: "int | None" = None, *, return_mean_distance: bool = False):
    """Exact sample L2 depth: 1 / (1 + mean Euclidean distance to the sample).

    Data of extreme scale are first scaled by a power of two, which is
    exact, so that squared distances neither overflow nor become subnormal.
    From dimension ``_L2_GRAM_MIN_P`` on the distances come from the Gram
    form of a centred copy, each pair computed once; below it from pairwise
    differences. Either way the working memory is one block of at most
    ``_BLOCK_BYTES`` per worker thread besides one copy of the data and a
    few length-n vectors: in the Gram form one per worker, at most
    ``_L2_LOOKAHEAD`` parked ones and the accumulator. ``threads`` workers
    (``None``: FDB_THREADS, else 1) share the blocks; the depths are bitwise
    equal for every count.

    With ``return_mean_distance`` the result is (depths, mean distances).
    The depth rounds to 1 for mean distances below 2**-53, so tiny data
    have to be ranked by the distances.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    exponent = math.frexp(max(x.max(), -x.min()))[1]
    if abs(exponent) <= _UNSCALED_EXPONENT:
        exponent = 0
    if p >= _L2_GRAM_MIN_P:
        sums = _gram_distance_sums(x, exponent, threads)
    else:
        scaled = np.ldexp(x, -exponent) if exponent else x
        rows = _block_rows(n)
        sums = np.empty(n)

        def fill(starts):  # workers write disjoint slices of sums
            for start in starts:
                stop = min(start + rows, n)
                sums[start:stop] = cdist(scaled[start:stop], scaled).sum(axis=1)

        _map_blocks(fill, range(0, n, rows), threads, _L2_BLOCKS_PER_WORKER)
    mean_dist = np.ldexp(sums / n, exponent)
    depths = 1.0 / (1.0 + mean_dist)
    return (depths, mean_dist) if return_mean_distance else depths


def _gram_distance_sums(x: np.ndarray, exponent: int, threads: "int | None") -> np.ndarray:
    """Sum of the Euclidean distances from each row of ``x * 2**-exponent``
    to all rows, through |a|^2 + |b|^2 - 2 a'b on the centred scaled copy.

    Bitwise-identical rows are merged first and weighted by their count, so
    they get identical sums and a distance of exactly 0 to each other, which
    the rounding of the Gram form would not give them.

    Each pair of distinct rows is computed once. The block of rows
    [start, stop) takes the strip of distances to the rows from ``start``
    on: its row sums complete those rows, and its weighted column sums fill
    in the lower triangle of every later row. A ``_BlockOrderSum`` adds the
    blocks' vectors in block order, so every sum adds the same per-block
    terms in the same order for every thread count. The working memory is one
    block of at most ``_BLOCK_BYTES`` and one length-m vector per worker,
    at most ``_L2_LOOKAHEAD`` parked length-m vectors and the accumulator,
    besides the centred copy.
    """
    xc, inverse, weights = _distinct_rows(x)
    np.ldexp(xc, -exponent, out=xc)
    xc -= xc.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    m = xc.shape[0]
    rows = min(_block_rows(m), m)
    sums = _BlockOrderSum(m)

    def fill(starts):
        buf = np.empty(rows * m)
        try:
            for start in starts:
                stop = min(start + rows, m)
                r = stop - start
                d2 = buf[: r * (m - start)].reshape(r, m - start)
                np.matmul(xc[start:stop], xc[start:].T, out=d2)
                d2 *= -2.0
                d2 += sq[start:stop, None]
                d2 += sq[start:]
                np.maximum(d2, 0.0, out=d2)
                np.fill_diagonal(d2, 0.0)
                np.sqrt(d2, out=d2)
                if not sums.add(start // rows, start, _strip_sums(d2, weights[start:])):
                    return  # another worker failed and its error is raised
        except BaseException:
            sums.fail()
            raise

    _map_blocks(fill, range(0, m, rows), threads, _L2_BLOCKS_PER_WORKER)
    return sums.total[inverse]


def _strip_sums(d2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A strip's share of the distance sums of its rows and later rows.

    ``d2`` holds the distances from r rows to the same r rows and then to
    the rows after them, whose weights are ``w``. The result holds its
    weighted row sums, then the column sums right of its r x r diagonal
    block, weighted by the r rows' weights.
    """
    r = d2.shape[0]
    share = np.empty(d2.shape[1])
    np.matmul(d2, w, out=share[:r])
    np.matmul(w[:r], d2[:, r:], out=share[r:])
    return share


class _BlockOrderSum:
    """Adds the vectors of blocks 0, 1, 2, ... into ``total`` strictly in
    block order, whichever worker thread delivers them, so the sum has the
    same bits for every thread count.

    A block may be delivered up to ``_L2_LOOKAHEAD`` blocks ahead of the
    next one due; its vector is parked until then, and whichever thread
    holds the lock adds the parked vectors that have come due. A worker
    further ahead waits, so at most that many vectors are parked.
    """

    def __init__(self, m: int):
        self.total = np.zeros(m)
        self._parked = {}
        self._due = 0
        self._failed = False
        self._turn = threading.Condition()

    def add(self, block: int, start: int, vector: np.ndarray) -> bool:
        """Add ``vector`` to ``total[start:]`` in block ``block``'s turn;
        False, and nothing added, once a worker has failed."""
        with self._turn:
            self._turn.wait_for(lambda: self._failed or block <= self._due + _L2_LOOKAHEAD)
            if self._failed:
                return False
            self._parked[block] = start, vector
            if block == self._due:
                while self._due in self._parked:
                    at, due = self._parked.pop(self._due)
                    self.total[at:] += due
                    self._due += 1
                self._turn.notify_all()
        return True

    def fail(self) -> None:
        """Release the workers waiting for a turn that will not come."""
        with self._turn:
            self._failed = True
            self._turn.notify_all()


def _distinct_rows(x: np.ndarray):
    """Bitwise-distinct rows of ``x``: (a copy of them, in the order of
    their first occurrence; position of each row's representative among
    them; count of each distinct row, as a float weight)."""
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
    inverse = np.searchsorted(distinct, representative)
    return x[distinct], inverse, np.bincount(inverse).astype(float)


def deepest_subset(depths, h: int) -> np.ndarray:
    """Indices (ascending) of the h largest depth values.

    Ties at the boundary are broken in favour of the smaller original index.
    """
    d = np.asarray(depths, dtype=float).ravel()
    n = d.size
    if h > n or h < 1:
        raise InvalidSubsetSize(f"subset size {h} not in [1, {n}]")
    order = np.argsort(-d, kind="stable")
    return np.sort(order[:h])
