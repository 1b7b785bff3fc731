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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
# holds two blocks of directions x samples, each worker of L2 depth one tile
# of rows x columns (``_gram_tiles``), so their memory stays bounded
# whatever n and k are. The block size must not depend on the thread
# count: OpenBLAS picks its kernel by operand shape, so only equal blocks give
# bitwise-equal depths for every count. 256 KiB lets two workers hold what
# one worker held at 512 KiB; at 2000 x 200 with one BLAS thread a single L2
# worker took a median 37.2 ms with it and 35.7 ms with 512 KiB (30
# alternating calls). There it holds 16 projection directions, which
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
# this many multiply-adds: rows x n x p, where an L2 strip counts its mean
# width (m + rows) / 2 for n. A worker costs about 80 us to start and join,
# and the workers queue for the interpreter lock between numpy calls. With
# one BLAS thread, two workers took 0.95x-1.9x the one-worker time at 1.7M
# and below, above 1x in 24 of 25 cases (projection 200 x 5 to 1000 x 40,
# Gram 400 x 40 to 1024 x 100, strips of whole cdist rows 512 x 5),
# 0.67x-1.11x at 1.9M, 0.65x-1.07x at 2.5M and 0.56x-0.90x from 3.2M on
# (400 x 200: 0.64x-0.78x; medians of 15-40 alternating calls, three
# passes). L2 blocks of difference tiles at 9000 x 8 (2.3M each) took 0.72x.
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

# The calling thread submits no block more than this many blocks ahead of
# the first block whose result it has not yet reduced, in every kernel: so
# at most this many finished results wait for their turn. In strict
# lock-step (0) a stall of one thread stalls the other. Two L2 workers at
# n = 2000, p = 200 (32 blocks of 64 rows), one BLAS thread, took a median
# 23.5-38.7 ms with 0 and 23.4-38.3 ms with 4, faster in each of three
# passes of 30 alternating calls on a 2-vCPU Xeon.
_LOOKAHEAD = 4

# From this dimension on, an L2 tile is the Gram form |a|^2 + |b|^2 - 2 a'b,
# one matrix product; below it, cdist of the rows, from their differences.
# Both compute each pair once, in the same tiles. Gram tiles took, against
# difference tiles, at n = 200, 400, 1000, 2000 and 8000 (one BLAS thread,
# one worker, medians of 5-61 alternating calls, two passes): 1.02x-1.25x
# at p = 5, 0.79x-1.13x at p = 8, 0.72x-1.05x at p = 9, 0.70x-1.00x at
# p = 10, 0.65x-0.87x at p = 11 and 12 and 0.42x-0.74x at p = 15, 16 and
# 20. So from p = 10 on the Gram form is no slower at any n measured, and
# 200 x 5 stays on differences.
_L2_GRAM_MIN_P = 10

# L2 depth leaves data with max |x| in [2**-256, 2**256] unscaled: there
# squared distances cannot overflow for p below 2**500, and the squares of
# differences down to 2**-250 times the largest entry stay normal. Only data
# outside that range pay for a scaled copy.
_UNSCALED_EXPONENT = 256


def _block_rows(n: int) -> int:
    """Rows of n float64 values that fit in one block (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * n))


def checked_integer(value, name: str, least: "int | None") -> int:
    """``value`` as an int of at least ``least`` (of any size for None);
    ``InvalidConfig`` naming ``name`` for anything else, a float such as 2.0
    included."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidConfig(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise InvalidConfig(f"{name} must be at least {least}, got {number}")
    return number


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
    return checked_integer(threads, "thread count", 1)


def _map_in_order(
    start_worker, reduce, items, blocks: int, threads: "int | None", block_work: int
) -> None:
    """Call ``reduce(work(item))`` for the ``blocks`` ``items``, in item
    order, on T worker threads, where ``work = start_worker()`` is made
    once per worker, on its first block, so it can reuse its buffers from
    block to block.

    T is the thread count (``threads``, else FDB_THREADS, else 1), at most
    ``blocks``, where a block takes ``block_work`` >= ``_PARALLEL_WORK``
    multiply-adds, and 1 otherwise; a single worker runs inline. With more,
    the calling thread submits the items in order to a pool of T threads,
    never more than ``_LOOKAHEAD`` ahead of the first result not yet
    reduced, and reduces each result itself, in item order, with no lock.
    A failure, in a block or in ``reduce``, raises the error of the first
    failing block in item order, as one worker does: nothing more is
    submitted or reduced, blocks not yet started are cancelled, and the
    error is raised once the running ones have ended.
    """
    count = _worker_count(threads)
    workers = min(count, blocks) if block_work >= _PARALLEL_WORK else 1
    if workers == 1:
        work = start_worker()
        for item in items:
            reduce(work(item))
        return
    local = threading.local()

    def run(item):
        if not hasattr(local, "work"):
            local.work = start_worker()
        return local.work(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()  # submitted, not yet reduced, in item order
        try:
            for item in items:
                pending.append(pool.submit(run, item))
                if len(pending) > _LOOKAHEAD:
                    reduce(pending.popleft().result())
            while pending:
                reduce(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()


def default_direction_count(p: int) -> int:
    """Adaptive direction-count rule: min(100 p, max(1000, 10 p)).

    Below p = 10 this is 100 p directions (100 at p = 1, 500 at p = 5);
    from p = 10 on it is max(1000, 10 p). At 200 x 5 with 20% outliers at
    r = 5, no replicate of 1000 per contamination kind broke down at
    k = 250, 500 or 1000, one did at k = 150 and five at k = 100, so 100 p
    keeps a margin of about three over that edge (README, "Direction
    count").
    """
    return min(100 * p, max(1000, 10 * p))


def as_data_matrix(data, name: str = "sample matrix") -> np.ndarray:
    """Validate and return an (n, p) float matrix with finite entries;
    ``name`` names it in the errors."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or 0 in x.shape:
        raise DimensionError(f"expected a nonempty 2-d {name}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteValues(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class DirectionSet:
    """k unit projection directions in R^p, drawn from ``seed``.

    Each direction is a standard-normal vector normalized to unit length;
    a draw of norm 0 (a probability-zero event) stays zeros, and its MAD of
    0 makes ``projection_depth`` skip it. The set holds only p, k and the
    seed, checked when it is made: ``projection_depth`` draws the
    directions block by block as it consumes them, so the k x p set is
    never held, and ``directions`` draws the whole (k, p) array on first
    use and keeps it. Both give the same bits. Explicit directions go to
    ``projection_depth`` as a plain (k, p) array instead.
    """

    p: int
    k: int
    seed: int

    def __post_init__(self):
        try:
            operator.index(self.p)
        except TypeError:
            raise InvalidConfig(f"dimension must be an integer, got {self.p!r}") from None
        if self.p < 1:
            raise DimensionError(f"dimension must be positive, got {self.p}")
        checked_integer(self.k, "direction count", 1)
        checked_integer(self.seed, "seed", 0)

    @cached_property
    def directions(self) -> np.ndarray:
        return _normalize(np.random.default_rng(self.seed).standard_normal((self.k, self.p)))


def sample_directions(p: int, k: int, seed: int) -> DirectionSet:
    """k independent Uniform(sphere) directions in R^p, drawn from ``seed``:
    ``DirectionSet(p, k, seed)``, which checks the arguments but draws
    nothing until the directions are used."""
    return DirectionSet(p, k, seed)


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


def _direction_blocks(dirs: "DirectionSet | np.ndarray", rows: int):
    """The directions of ``dirs`` in blocks of ``rows``, in index order.

    An array's blocks are views of it. A ``DirectionSet`` is drawn from one
    ``np.random.default_rng(seed)`` in index order, in chunks of whole
    blocks of at most ``_CHUNK_BYTES`` or one block, whichever is larger,
    so its blocks hold the bits of ``DirectionSet.directions``. Each chunk
    is drawn and normalized when its first block is asked for, and its
    blocks are views of it, so a chunk lives until its last block is done.
    """
    if not isinstance(dirs, DirectionSet):
        for start in range(0, len(dirs), rows):
            yield dirs[start : start + rows]
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


def projection_depth(
    data, dirs: "DirectionSet | np.ndarray", threads: "int | None" = None
) -> np.ndarray:
    """Approximate projection depth of every sample.

    For sample x the outlyingness is the maximum over usable directions u of
    |u'x - med(u'X)| / MAD(u'X), and the depth is 1 / (1 + outlyingness).
    Directions with MAD(u'X) = 0 carry no usable scale and are skipped;
    if every direction is unusable the data are degenerate.

    ``dirs`` is a drawn ``DirectionSet`` or an explicit (k, p) array of
    directions, which is checked here as the data are: a non-empty 2-d
    array of finite values, as wide as the data. Its rows are used as
    given, so they should have norm 1; a zero row has zero MAD.

    Directions are processed in blocks of ``_projection_rows(n, p)``, so the
    working memory is two blocks of projections per worker thread, plus, for
    a ``DirectionSet``, the chunks of directions that the workers' blocks
    come from, each of at most ``_CHUNK_BYTES`` or one block of directions,
    whatever k is. ``_map_in_order`` runs the blocks on ``threads`` workers
    (``None``: FDB_THREADS, else 1) and takes the maximum of their
    per-sample outlyingness in block order; the maximum is exact, so the
    depths are bitwise equal for every count.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    if isinstance(dirs, DirectionSet):
        k, width = dirs.k, dirs.p
    else:
        dirs = as_data_matrix(dirs, "direction array")
        k, width = dirs.shape
    if width != p:
        raise DimensionError(f"directions have dimension {width}, data has dimension {p}")
    rows = min(_projection_rows(n, p), k)

    def start_worker():
        proj = np.empty((rows, n))  # one direction per row
        work = np.empty((rows, n))  # sorted or partitioned copy for the medians

        def block_max(block):
            """Each sample's largest outlyingness over ``block``, and
            whether any direction of it has a nonzero MAD."""
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
            madv[zero] = np.inf
            np.divide(dev, madv[:, None], out=dev)
            return dev.max(axis=0), not zero.all()

        return block_max

    outlyingness = np.zeros(n)
    usable = False

    def merge(result):
        nonlocal usable
        np.maximum(outlyingness, result[0], out=outlyingness)
        usable = usable or result[1]

    blocks = _direction_blocks(dirs, rows)
    _map_in_order(start_worker, merge, blocks, -(-k // rows), threads, rows * n * p)
    if not usable:
        raise DegenerateData("every projection direction has zero MAD")
    return 1.0 / (1.0 + outlyingness)


def l2_depth(data, threads: "int | None" = None) -> np.ndarray:
    """Exact sample L2 depth: 1 / (1 + mean Euclidean distance to the sample).

    Data of extreme scale are first scaled by a power of two, which is
    exact, so that squared distances neither overflow nor become subnormal.
    ``_distance_sums`` computes each pair of distinct rows once, in tiles
    of at most ``_BLOCK_BYTES``: from dimension ``_L2_GRAM_MIN_P`` on from
    the Gram form of a centred copy, below it from pairwise differences.
    Its blocks run on ``threads`` workers (``None``: FDB_THREADS, else 1),
    and their terms are added in block order, so the depths are bitwise
    equal for every count.

    The depth rounds to 1 for mean distances below 2**-53, so the
    estimators rank tiny data by the distances, ``_mean_distances``.
    """
    return 1.0 / (1.0 + _mean_distances(as_data_matrix(data), threads))


def _mean_distances(x: np.ndarray, threads: "int | None") -> np.ndarray:
    """Mean Euclidean distance from each row of the checked matrix ``x`` to
    all rows, of which ``l2_depth`` is 1 / (1 + d)."""
    exponent = math.frexp(max(x.max(), -x.min()))[1]
    if abs(exponent) <= _UNSCALED_EXPONENT:
        exponent = 0
    mean_dist = _distance_sums(x, exponent, threads)
    mean_dist /= x.shape[0]
    return np.ldexp(mean_dist, exponent, out=mean_dist) if exponent else mean_dist


def _gram_tiles(m: int) -> "tuple[int, int]":
    """(rows, width) of the L2 tiles for m distinct rows: blocks of
    ``rows`` rows, whose strips are computed in panels of ``width`` columns.

    A block has at least 64 rows where m allows, so that every matrix
    product packs its panel for that many rows of work, and at most the
    square root of the budget, so that a panel is at least as wide as a
    block and the first one covers the block's diagonal. A tile of rows x
    width stays within ``_BLOCK_BYTES``. For m <= 512 this is one panel per
    ``_block_rows(m)`` rows, which covers the whole strip.
    """
    rows = min(m, max(_block_rows(m), 64), math.isqrt(_BLOCK_BYTES // 8))
    return rows, _BLOCK_BYTES // (8 * rows)


def _distance_sums(x: np.ndarray, exponent: int, threads: "int | None") -> np.ndarray:
    """Sum of the Euclidean distances from each row of ``x * 2**-exponent``
    to all rows, each pair of distinct rows computed once. From dimension
    ``_L2_GRAM_MIN_P`` on, a tile of distances is |a|^2 + |b|^2 - 2 a'b on
    the centred scaled rows, one matrix product; below it, ``cdist`` of the
    scaled rows. Only the Gram form, scaled data and merged rows copy them.

    Bitwise-identical rows are merged first and weighted by their count, so
    they get identical sums and a distance of exactly 0 to each other, which
    the rounding of the Gram form would not give them.

    The block of rows [start, stop) takes the strip of distances to the
    rows from ``start`` on, one ``_gram_tiles`` panel at a time; the first
    panel holds the block's diagonal. The block's vector accumulates the
    strip's weighted row sums over its panels, which complete the block's
    rows, followed by the weighted column sums right of the diagonal, which
    fill in the lower triangle of every later row. ``_map_in_order`` runs
    the blocks on the workers and adds their vectors into the sums in block
    order, so every sum adds the same per-block terms in the same order for
    every thread count. The working memory is one tile of at most
    ``_BLOCK_BYTES`` and one length-m vector per worker, at most
    ``_LOOKAHEAD`` finished vectors waiting for their turn and the sums,
    besides the rows.
    """
    xd, inverse, weights = _distinct_rows(x)
    m, p = xd.shape
    gram = p >= _L2_GRAM_MIN_P
    if gram or exponent:  # a scaled copy, in place where the rows are one already
        xd = np.ldexp(xd, -exponent, out=None if xd is x else xd)
    if gram:
        xd -= xd.mean(axis=0)
        sq = np.einsum("ij,ij->i", xd, xd)
    else:
        # Imported on first use: scipy.spatial pulls in scipy.sparse, which no other path needs.
        from scipy.spatial.distance import cdist
    rows, width = _gram_tiles(m)
    total = np.zeros(m)

    def start_worker():
        buf = np.empty(rows * min(width, m))  # one tile
        return lambda start: (start, block_share(start, buf))

    def block_share(start, buf):
        """The vector of the block from ``start``, its tiles computed in ``buf``."""
        r = min(rows, m - start)
        strip, w = xd[start:], weights[start:]
        for a in range(0, m - start, width):  # the panel's columns in the strip
            b = min(a + width, m - start)
            d = buf[: r * (b - a)].reshape(r, b - a)
            if gram:
                np.matmul(strip[:r], strip[a:b].T, out=d)
                d *= -2.0
                d += sq[start : start + r, None]
                d += sq[start + a : start + b]
                np.maximum(d, 0.0, out=d)
                if a == 0:
                    np.fill_diagonal(d, 0.0)
                np.sqrt(d, out=d)
            else:
                cdist(strip[:r], strip[a:b], out=d)  # exactly 0 on the diagonal
            if a == 0:
                share = np.empty(m - start)  # after the ufunc buffers of the first tile
                np.matmul(d, w[:b], out=share[:r])
                np.matmul(w[:r], d[:, r:], out=share[r:b])
            else:
                share[:r] += d @ w[a:b]
                np.matmul(w[:r], d, out=share[a:b])
        return share

    def add(result):
        start, share = result
        total[start:] += share

    blocks = -(-m // rows)
    _map_in_order(start_worker, add, range(0, m, rows), blocks, threads, rows * (m + rows) // 2 * p)
    return total[inverse]


def _distinct_rows(x: np.ndarray):
    """Bitwise-distinct rows of ``x``: (them, in the order of their first
    occurrence; position of each row's representative among them; count of
    each distinct row, as a float weight). Where no two first entries share
    their bits, that is ``x`` itself, found without a sort of the rows."""
    n, p = x.shape
    first = np.sort(x[:, 0].view(np.int64))
    if (first[1:] != first[:-1]).all():
        return x, np.arange(n), np.ones(n)
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
    A NaN depth cannot be ranked and raises ``NonFiniteValues``; a
    non-integer h raises ``InvalidConfig``.
    """
    h = checked_integer(h, "subset size", None)
    d = np.asarray(depths, dtype=float).ravel()
    n = d.size
    if h > n or h < 1:
        raise InvalidSubsetSize(f"subset size {h} not in [1, {n}]")
    return _least_outlying(-d, h)


def _least_outlying(scores: np.ndarray, h: int) -> np.ndarray:
    """``deepest_subset`` for scores that fall as the depth rises and an h
    in [1, n]: the indices (ascending) of the h smallest scores."""
    if np.isnan(scores).any():
        raise NonFiniteValues("depth values contain NaN")
    return numeric.smallest(scores, h)
