"""Statistical depth values and selection of the deepest h-subset.

Two depth notions are provided: projection depth, approximated with a finite
set of random unit directions, and the exact sample L2 depth. Both map every
sample to a centrality score in (0, 1]; the h-subset of deepest points is the
core set used by the robust estimators.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

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
# of rows x samples, so their memory stays bounded whatever n and k are. The
# block size must not depend on the thread count: OpenBLAS picks its kernel
# by operand shape, so only equal blocks give bitwise-equal depths for every
# count. 256 KiB lets two workers hold what one worker held at 512 KiB; at
# 2000 x 200 with one BLAS thread it makes a single L2 worker 19% slower than
# 512 KiB. There it holds 16 projection directions, which
# ``_projection_rows`` widens to 50: with k = 2000, directions drawn in the
# kernel, blocks of 25 and 50 took 0.88x and 0.77x the time of 16 on one
# worker, 0.86x and 0.72x on two (medians of 25).
_BLOCK_BYTES = 256 * 1024

# Byte budget of one widened projection block, so that a worker holds at
# most 2 MiB of projections whatever n and p are (unless one direction's
# projections alone are larger), where p / 4 directions would take
# 2 n p bytes. It keeps the 50 directions of 2000 x 200 (65 fit). At
# 5000 x 200, k = 2000, one BLAS thread, it caps 50 directions at 26: blocks
# of 6 (unwidened), 13, 26 and 50 took 431, 276, 221 and 209 ms on one
# worker and 269, 154, 151 and 126 ms on two (medians of 7).
_PROJECTION_BLOCK_BYTES = 4 * _BLOCK_BYTES

# A kernel starts more than one worker only where one block takes at least
# this many multiply-adds: rows x n x p, where a Gram strip counts its mean
# width (m + rows) / 2 for n. A worker costs about 80 us to start and join,
# and the workers queue for the interpreter lock between numpy calls. With
# one BLAS thread, two workers took 0.95x-1.9x the one-worker time at 1.7M
# and below, above 1x in 24 of 25 cases (projection 200 x 5 to 1000 x 40,
# Gram 400 x 40 to 1024 x 100, cdist 512 x 5), 0.67x-1.11x at 1.9M,
# 0.65x-1.07x at 2.5M and 0.56x-0.90x from 3.2M on (400 x 200: 0.64x-0.78x;
# medians of 15-40 alternating calls, three passes). The 125 cdist blocks
# of 2000 x 5 (0.16M each) read 0.71x-1.05x but run inline.
_PARALLEL_WORK = 2_000_000

# Byte budget of one chunk of a drawn direction set: projection depth draws
# whole blocks of directions per call of the generator, at least one, so a
# chunk holds at most this or one block of directions (80 KB at 2000 x 200).
# Normalizing a chunk holds its squares as well. A quarter block keeps both
# well below the k x p set it replaces (320 KB at k = 1000, p = 40, where a
# chunk holds two blocks of 81), and still draws the 1000 x 5 set of n = 200
# in one call. Drawing one block per call instead made the 200 x 5 estimate
# 2.6% slower (8 of 10 pairs) and lowered its peak by 32 KB; at 400 x 40 it
# was 0.4% slower (7 of 10) and 94 KB lower.
_CHUNK_BYTES = _BLOCK_BYTES // 4

# An L2 worker may finish this many blocks ahead of the block whose column
# sums are due next before it waits. In strict lock-step (0) a stall of one
# thread stalls the other; two workers at n = 2000, p = 200, one BLAS thread,
# took a median 34.2-43.6 ms with 0 and 33.6-38.7 ms with 4 (three passes of
# 30 alternating calls on a 2-vCPU Xeon). 4 costs at most four parked
# length-m vectors.
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


def checked_thread_count(threads) -> int:
    """``threads`` as a positive int; ``InvalidConfig`` for anything else."""
    try:
        count = operator.index(threads)
    except TypeError:
        raise InvalidConfig(f"thread count must be a positive integer, got {threads!r}") from None
    if count < 1:
        raise InvalidConfig(f"thread count must be positive, got {count}")
    return count


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
    return checked_thread_count(threads)


def _share(work, items, blocks: int, threads: "int | None", block_work: int) -> list:
    """Run ``work(take)`` on T worker threads; return their results in
    worker order.

    ``take()`` hands out the ``blocks`` ``items`` in order, one per call, to
    whichever worker asks next, and None once all are taken. T is the
    thread count (``threads``, else FDB_THREADS, else 1), at most
    ``blocks``, where a block takes ``block_work`` >= ``_PARALLEL_WORK``
    multiply-adds, and 1 otherwise; a single worker runs inline. Once a
    worker raises, ``take()`` hands out nothing more, and the error is
    raised when the others have finished their blocks.
    """
    count = _worker_count(threads)
    workers = min(count, blocks) if block_work >= _PARALLEL_WORK else 1
    items, lock = iter(items), threading.Lock()
    failed = False

    def take():
        with lock:
            return None if failed else next(items, None)

    if workers == 1:
        return [work(take)]

    def guarded(take):
        nonlocal failed
        try:
            return work(take)
        except BaseException:
            with lock:
                failed = True
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, [take] * workers))


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


class DirectionSet:
    """A fixed set of k unit projection directions in R^p, reproducible from
    its seed.

    ``DirectionSet(directions, seed)`` holds an explicit (k, p) array whose
    rows have Euclidean norm 1. ``sample_directions`` returns a drawn set,
    which holds only p, k and the seed: ``projection_depth`` draws its
    directions block by block as it consumes them, and ``directions`` draws
    the whole (k, p) array on first use and keeps it. Both give the same
    bits.
    """

    def __init__(self, directions: np.ndarray, seed: int):
        self._given = directions
        self.seed = seed
        self._shape = directions.shape

    @classmethod
    def _drawn(cls, p: int, k: int, seed: int) -> "DirectionSet":
        dirs = cls.__new__(cls)
        dirs._given, dirs.seed, dirs._shape = None, seed, (k, p)
        return dirs

    @property
    def k(self) -> int:
        return self._shape[0]

    @property
    def p(self) -> int:
        return self._shape[1]

    @property
    def drawn(self) -> bool:
        """Whether the set is drawn from its seed rather than given."""
        return self._given is None

    @cached_property
    def directions(self) -> np.ndarray:
        if self._given is not None:
            return self._given
        return _normalize(np.random.default_rng(self.seed).standard_normal(self._shape))


def sample_directions(p: int, k: int, seed: int) -> DirectionSet:
    """k independent Uniform(sphere) directions in R^p, drawn from ``seed``.

    Each direction is a standard-normal vector normalized to unit length;
    a draw of norm 0 (a probability-zero event) stays zeros, and its MAD of
    0 makes ``projection_depth`` skip it. The arguments are checked here,
    but nothing is drawn: ``projection_depth`` draws the directions as it
    consumes them, so the k x p set is never held, and ``.directions``
    draws them all on first use.
    """
    if p < 1:
        raise DimensionError(f"dimension must be positive, got {p}")
    if k < 1:
        raise InvalidConfig(f"direction count must be positive, got {k}")
    return DirectionSet._drawn(p, k, seed)


def _normalize(u: np.ndarray) -> np.ndarray:
    """Divide the rows of ``u`` by their norms in place and return ``u``; a
    row of norm 0 stays zeros. The norms are ``np.linalg.norm(u, axis=1)``
    bit for bit, taken over blocks of rows so that their squares never fill
    a second array of the size of ``u``."""
    rows = _block_rows(u.shape[1])
    norms = np.concatenate(
        [np.linalg.norm(u[start : start + rows], axis=1) for start in range(0, u.shape[0], rows)]
    )
    norms[norms == 0.0] = 1.0
    u /= norms[:, None]
    return u


def _direction_blocks(dirs: DirectionSet, rows: int):
    """The directions of ``dirs`` in blocks of ``rows``, in index order.

    An explicit set's blocks are views of its array. A drawn set is drawn
    from one ``np.random.default_rng(seed)`` in index order, in chunks of
    whole blocks of at most ``_CHUNK_BYTES`` or one block, whichever is
    larger, so its blocks hold the bits of ``DirectionSet.directions``.
    Each chunk is drawn and normalized when its first block is asked for,
    and its blocks are views of it, so a chunk lives until its last block
    is done.
    """
    if not dirs.drawn:
        u = dirs.directions
        for start in range(0, dirs.k, rows):
            yield u[start : start + rows]
        return
    k, p = dirs.k, dirs.p
    rng = np.random.default_rng(dirs.seed)
    chunk_rows = max(1, _CHUNK_BYTES // (8 * p * rows)) * rows
    for first in range(0, k, chunk_rows):
        chunk = _normalize(rng.standard_normal((min(chunk_rows, k - first), p)))
        for start in range(0, len(chunk), rows):
            yield chunk[start : start + rows]


def _projection_rows(n: int, p: int) -> int:
    """Directions per projection block: as many as fit in one block, widened
    towards p / 4, so that a block's projections are up to a quarter of the
    data's bytes, as far as ``_PROJECTION_BLOCK_BYTES`` allows. Each block's
    matrix product packs all of the data once, and a product of few rows is
    dominated by that packing."""
    return max(_block_rows(n), min(-(-p // 4), _PROJECTION_BLOCK_BYTES // (8 * n)))


def projection_depth(data, dirs: DirectionSet, threads: "int | None" = None) -> np.ndarray:
    """Approximate projection depth of every sample.

    For sample x the outlyingness is the maximum over usable directions u of
    |u'x - med(u'X)| / MAD(u'X), and the depth is 1 / (1 + outlyingness).
    Directions with MAD(u'X) = 0 carry no usable scale and are skipped;
    if every direction is unusable the data are degenerate.

    Directions are processed in blocks of ``_projection_rows(n, p)``, so the
    working memory is two blocks of projections per worker thread, plus, for
    a drawn set, the chunks of directions that the workers' blocks come
    from, each of at most ``_CHUNK_BYTES`` or one block of directions,
    whatever k is. ``threads`` workers (``None``: FDB_THREADS, else 1) take
    the blocks in index order, each the next one when it asks; the depths
    are bitwise equal for every count.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if dirs.p != p:
        raise DimensionError(f"directions have dimension {dirs.p}, data has dimension {p}")
    rows = min(_projection_rows(n, p), dirs.k)

    def running_max(take):
        block = take()  # draws a drawn set's first chunk before the buffers
        proj = np.empty((rows, n))  # one direction per row
        work = np.empty((rows, n))  # partitioned copy for the medians
        outlyingness = np.zeros(n)
        usable = False
        while block is not None:
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
            block = take()
        return outlyingness, usable

    blocks = _direction_blocks(dirs, rows)
    results = _share(running_max, blocks, -(-dirs.k // rows), threads, rows * n * p)
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
    (``None``: FDB_THREADS, else 1) take the blocks in index order, each the
    next one when it asks, and the block terms of every sum are added in
    block order; the depths are bitwise equal for every count.

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
        # Imported on first use: scipy.spatial pulls in scipy.sparse, which no other path needs.
        from scipy.spatial.distance import cdist

        scaled = np.ldexp(x, -exponent) if exponent else x
        rows = _block_rows(n)
        sums = np.empty(n)

        def fill(take):  # workers write disjoint slices of sums
            while (start := take()) is not None:
                stop = min(start + rows, n)
                sums[start:stop] = cdist(scaled[start:stop], scaled).sum(axis=1)

        _share(fill, range(0, n, rows), -(-n // rows), threads, rows * n * p)
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
    in the lower triangle of every later row. The workers take the blocks
    in index order, each the next one when it asks, and a ``_BlockOrderSum``
    adds the blocks' vectors in block order, whichever worker finishes
    first, so every sum adds the same per-block terms in the same order for
    every thread count. The working memory is one block of at most ``_BLOCK_BYTES`` and one length-m vector per worker,
    at most ``_L2_LOOKAHEAD`` parked length-m vectors and the accumulator,
    besides the centred copy.
    """
    xc, inverse, weights = _distinct_rows(x)
    np.ldexp(xc, -exponent, out=xc)
    xc -= xc.mean(axis=0)
    sq = np.einsum("ij,ij->i", xc, xc)
    m, p = xc.shape
    rows = min(_block_rows(m), m)
    sums = _BlockOrderSum(m)

    def fill(take):
        buf = np.empty(rows * m)
        try:
            while (start := take()) is not None:
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

    _share(fill, range(0, m, rows), -(-m // rows), threads, rows * (m + rows) // 2 * p)
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
    A NaN depth cannot be ranked and raises ``NonFiniteValues``.
    """
    d = np.asarray(depths, dtype=float).ravel()
    n = d.size
    if h > n or h < 1:
        raise InvalidSubsetSize(f"subset size {h} not in [1, {n}]")
    if np.isnan(d).any():
        raise NonFiniteValues("depth values contain NaN")
    return numeric.smallest(-d, h)
