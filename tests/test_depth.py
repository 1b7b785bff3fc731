import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.spatial.distance
from hypothesis import given, settings
from hypothesis import strategies as st

from fdb import depth, numeric
from fdb.estimators import EstimatorConfig, fdb_estimate
from fdb.evaluation import ContaminationSpec, GenerationSpec, contaminate, generate_clean
from fdb.depth import (
    DirectionSet,
    deepest_subset,
    default_direction_count,
    l2_depth,
    projection_depth,
    sample_directions,
)
from fdb.errors import (
    DegenerateData,
    DimensionError,
    InvalidConfig,
    InvalidSubsetSize,
    NonFiniteValues,
)
from oracles import l2_depth_reference, projection_depth_reference


class TestSampleDirections:
    def test_deterministic_under_seed(self):
        a = sample_directions(3, 5, seed=7)
        b = sample_directions(3, 5, seed=7)
        assert np.array_equal(a.directions, b.directions)

    def test_unit_norms(self):
        dirs = sample_directions(8, 200, seed=1)
        norms = np.linalg.norm(dirs.directions, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_sphere_uniformity_mean(self):
        dirs = sample_directions(2, 10_000, seed=1)
        assert np.linalg.norm(dirs.directions.mean(axis=0)) < 0.05

    def test_default_rule(self):
        assert default_direction_count(5) == 500
        assert default_direction_count(150) == 1500

    def test_default_rule_is_unchanged_from_p_10(self):
        # Settings B and C, cstep-mid (p = 40) and wide (p = 200) keep k.
        assert all(default_direction_count(p) == max(1000, 10 * p) for p in range(10, 501))
        counts = [default_direction_count(p) for p in range(1, 501)]
        assert counts[:9] == [100 * p for p in range(1, 10)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_invalid_count(self):
        with pytest.raises(InvalidConfig):
            sample_directions(3, 0, seed=0)
        with pytest.raises(ValueError):
            sample_directions(3, 0, seed=0)

    @pytest.mark.parametrize("k, seed", [(2.5, 0), (10, -1), (10, 1.0), (10, None)])
    def test_non_integer_count_or_bad_seed_is_invalid_config(self, k, seed):
        with pytest.raises(InvalidConfig):
            sample_directions(3, k, seed)

    @pytest.mark.parametrize(
        "p, k, seed, error",
        [
            (0, 10, 0, DimensionError),
            (2.5, 10, 0, InvalidConfig),
            ("3", 10, 0, InvalidConfig),
            (3, 2.5, 0, InvalidConfig),
            (3, 10, -1, InvalidConfig),
        ],
    )
    def test_direction_set_checks_as_sample_directions_does(self, p, k, seed, error):
        for make in (DirectionSet, sample_directions):
            with pytest.raises(error):
                make(p, k, seed)

    def test_normalized_in_place(self):
        # Same bits as dividing a copy, with one k x p array alive.
        p, k = 200, 2000
        u = np.random.default_rng(4).standard_normal((k, p))
        expected = u / np.linalg.norm(u, axis=1)[:, None]
        assert np.array_equal(sample_directions(p, k, seed=4).directions, expected)
        assert _peak_bytes(lambda: sample_directions(p, k, 4).directions) < 1.25 * 8 * k * p


def _contaminated_sample(p: int, kind: str, seed: int):
    """200 x p rows of N(0, G G') with 20% of ``kind`` outliers at r = 5 (none
    for "none"), and the outlier labels."""
    _, y, g = generate_clean(GenerationSpec(200, p, seed=seed))
    epsilon = 0.0 if kind == "none" else 0.2
    y, labels = contaminate(y, ContaminationSpec(kind, epsilon, 5.0), seed=seed + 1)
    return y @ g.T, labels


def _fdb_pro_subset(x, k: int, seed: int) -> set:
    report = fdb_estimate(x, EstimatorConfig(k=k, seed=seed, reweight=False))
    return set(report.subset.tolist())


class TestDefaultDirectionCountAtSmallP:
    """Below p = 10 the rule draws 100 p directions. Measured against a
    k = 20 000 reference at 200 x p with 20% outliers at r = 5."""

    @pytest.mark.parametrize("kind", ["none", "random", "cluster", "radial"])
    def test_p1_subset_does_not_depend_on_k(self, kind):
        # Every direction in R^1 normalizes to exactly +1 or -1, and either
        # sign gives the same outlyingness bits.
        assert set(np.abs(sample_directions(1, 1000, seed=0).directions).ravel()) == {1.0}
        x, _ = _contaminated_sample(1, kind, seed=0)
        reference = _fdb_pro_subset(x, 20_000, seed=0)
        for k in (1, 7, default_direction_count(1), 1000):
            assert _fdb_pro_subset(x, k, seed=0) == reference

    # Most rows of the h = 150 subset that the default k swaps against the
    # reference, over seeds 0-9 and the five kinds: 3 at p = 2 (k = 200),
    # 8 at p = 5 (k = 500). The old k = 1000 swapped up to 1 and 7.
    @pytest.mark.parametrize("p, most_swaps", [(2, 3), (5, 8)])
    @pytest.mark.parametrize("kind", ["none", "point", "random", "cluster", "radial"])
    def test_default_subset_stays_near_a_many_direction_reference(self, p, most_swaps, kind):
        for seed in range(3):
            x, labels = _contaminated_sample(p, kind, seed)
            outliers = set(np.flatnonzero(labels).tolist())
            reference = _fdb_pro_subset(x, 20_000, seed)
            subset = _fdb_pro_subset(x, default_direction_count(p), seed)
            assert len(subset - reference) <= most_swaps
            if kind == "radial":
                # N(0, 5 I) outliers overlap the bulk, so both subsets keep
                # some, and which ones is a coin toss at the boundary: over
                # seeds 0-9 the default kept at most 2 more than the
                # reference, as k = 1000 did.
                assert len(subset & outliers) <= len(reference & outliers) + 2
            else:
                assert not (subset - reference) & outliers


class TestProjectionDepth:
    def test_1d_median_point_has_depth_one(self):
        data = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        dirs = sample_directions(1, 16, seed=0)
        depths = projection_depth(data, dirs)
        assert depths[2] == pytest.approx(1.0)

    def test_1d_exact_formula(self):
        # x=5: |5 - med| / MAD = 2/1, depth 1/3; directions collapse to +-1
        data = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        dirs = sample_directions(1, 16, seed=0)
        depths = projection_depth(data, dirs)
        assert depths[4] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ranking_matches_dense_direction_sweep(self, rng):
        # At n=500 the adjacent-rank depth gaps are ~6e-4 while the
        # max-over-k-random-directions approximation error is ~3e-4 * (1000/k);
        # k = 10000 puts the ranking comparison safely above the noise floor.
        data = rng.standard_normal((500, 2))
        coarse = projection_depth(data, sample_directions(2, 10_000, seed=3))
        dense = projection_depth(data, sample_directions(2, 100_000, seed=4))
        order = np.argsort(-coarse, kind="stable")
        agree = sum(
            1
            for a, b in zip(order, order[1:])
            if dense[a] >= dense[b]
        )
        assert agree / (len(order) - 1) >= 0.95

    def test_degenerate_when_all_mads_zero(self):
        data = np.zeros((10, 2))
        dirs = sample_directions(2, 50, seed=0)
        with pytest.raises(DegenerateData):
            projection_depth(data, dirs)

    def test_zero_mad_directions_skipped(self):
        # Second coordinate is constant for > half the points, so axis-aligned
        # directions can have zero MAD; depth must still be defined.
        data = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 1.0]])
        dirs = np.array([[0.0, 1.0], [1.0, 0.0]])
        depths = projection_depth(data, dirs)
        assert np.all(depths > 0.0) and np.all(depths <= 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            projection_depth(rng.standard_normal((5, 3)), sample_directions(2, 10, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_array_rejected(self, rng, bad):
        directions = sample_directions(2, 50, seed=0).directions
        directions[7, 1] = bad
        with pytest.raises(NonFiniteValues, match="direction array"):
            projection_depth(rng.standard_normal((50, 2)), directions)

    @pytest.mark.parametrize(
        "directions",
        [np.ones(2), np.ones((1, 2, 2)), np.empty((0, 2)), np.empty((5, 0)), np.ones((5, 3))],
    )
    def test_direction_array_of_wrong_shape_rejected(self, rng, directions):
        with pytest.raises(DimensionError):
            projection_depth(rng.standard_normal((50, 2)), directions)

    def test_non_finite_data_rejected(self, rng):
        data = rng.standard_normal((5, 2))
        data[3, 1] = np.nan
        with pytest.raises(NonFiniteValues):
            projection_depth(data, sample_directions(2, 10, seed=0))

    def test_permutation_equivariance(self, rng):
        data = rng.standard_normal((60, 4))
        dirs = sample_directions(4, 256, seed=9)
        depths = projection_depth(data, dirs)
        perm = rng.permutation(60)
        assert np.array_equal(projection_depth(data[perm], dirs), depths[perm])

    def test_1d_affine_invariance_exact(self, rng):
        data = rng.standard_normal((41, 1))
        dirs = sample_directions(1, 32, seed=5)
        depths = projection_depth(data, dirs)
        for a, b in ((2.5, -1.0), (-0.3, 4.0), (100.0, 0.0)):
            transformed = projection_depth(a * data + b, dirs)
            assert np.max(np.abs(transformed - depths)) <= 1e-12

    def test_range(self, rng):
        data = rng.standard_normal((200, 3))
        depths = projection_depth(data, sample_directions(3, 500, seed=2))
        assert np.all(depths > 0.0) and np.all(depths <= 1.0)

    def test_center_maximality_symmetric_data(self, rng):
        center = np.array([1.0, -2.0, 0.5])
        z = rng.standard_normal((40, 3))
        data = np.vstack([center + z, center - z, center])
        depths = projection_depth(data, sample_directions(3, 400, seed=11))
        assert np.max(depths[:-1]) <= depths[-1] + 1e-12


class TestL2Depth:
    def test_two_point_instance(self):
        depths = l2_depth(np.array([[-1.0], [1.0]]))
        assert depths[0] == pytest.approx(0.5)

    def test_singleton(self):
        assert l2_depth(np.array([[0.0]]))[0] == pytest.approx(1.0)

    def test_hand_computed_pair(self):
        depths = l2_depth(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert depths[0] == pytest.approx(1.0 / 3.5, abs=1e-12)

    def test_rigid_motion_invariance(self, rng):
        data = rng.standard_normal((80, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        moved = data @ q.T + shift
        assert np.max(np.abs(l2_depth(moved) - l2_depth(data))) <= 1e-10

    def test_range(self, rng):
        depths = l2_depth(rng.standard_normal((150, 4)))
        assert np.all(depths > 0.0) and np.all(depths <= 1.0)

    def test_center_maximality_symmetric_data(self, rng):
        center = np.array([0.5, 2.0])
        z = rng.standard_normal((30, 2))
        data = np.vstack([center + z, center - z, center])
        depths = l2_depth(data)
        assert np.max(depths[:-1]) <= depths[-1] + 1e-12


class TestDeepestSubset:
    def test_basic_selection(self):
        assert np.array_equal(deepest_subset([0.9, 0.1, 0.5], 2), [0, 2])

    def test_all_equal_tie_break(self):
        assert np.array_equal(deepest_subset([0.5] * 5, 3), [0, 1, 2])

    def test_tie_exactly_at_rank_h(self):
        # depths sorted: 0.9, 0.7, 0.7 -> the tie at rank 2 goes to index 1
        assert np.array_equal(deepest_subset([0.7, 0.7, 0.9], 2), [0, 2])

    def test_size_validation(self):
        with pytest.raises(InvalidSubsetSize):
            deepest_subset([0.1, 0.2, 0.3], 4)
        with pytest.raises(InvalidSubsetSize):
            deepest_subset([0.1, 0.2, 0.3], 0)

    def test_nan_depth_is_non_finite_values(self):
        with pytest.raises(NonFiniteValues):
            deepest_subset([0.1, np.nan, 0.3], 2)

    def test_selected_multiset_permutation_invariant(self, rng):
        depths = rng.uniform(size=50)
        subset = deepest_subset(depths, 20)
        perm = rng.permutation(50)
        permuted = deepest_subset(depths[perm], 20)
        assert np.allclose(np.sort(depths[subset]), np.sort(depths[perm][permuted]))


def _peak_bytes(fn, *args) -> int:
    """tracemalloc peak of one call, above the memory in use before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _projection_bound(n: int, p: int, threads: int) -> int:
    """Memory bound of projection depth: two blocks of projections per
    worker, and chunks of drawn directions: one viewed by each worker's
    block, the one being drawn and the squares of its norms, plus 64n for
    the workers' length-n vectors. No term grows with k, and none is a copy
    of the data."""
    rows = depth._projection_rows(n, p)
    chunk = max(depth._CHUNK_BYTES, 8 * p * rows)
    return 2 * threads * 8 * n * rows + (threads + 2) * chunk + 64 * n


def _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows):
    """L2 depth of 150 samples, with m = 146 distinct rows, against the
    oracle under a block budget of ``rows`` x m values, in the
    ``_gram_tiles(146)`` of that budget. The copies of row 3 lie in other
    blocks than row 3 itself and must get its depth."""
    monkeypatch.setattr(depth, "_BLOCK_BYTES", 8 * 146 * rows)
    x = rng.standard_normal((150, p)) + offset
    x[[20, 75, 120, 149]] = x[3]
    got = l2_depth(x)
    assert np.max(np.abs(got - l2_depth_reference(x))) <= 1e-12
    assert np.unique(got[[3, 20, 75, 120, 149]]).size == 1


class TestDepthKernels:
    """The blocked kernels against the plain references in ``oracles``."""

    @pytest.mark.parametrize("n", [101, 100])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_projection_depth_bitwise_equals_reference(self, monkeypatch, rng, n, rows):
        # Integer samples and directions in steps of 1/8 make every projection
        # exact in any summation order, so the kernels must agree bit for bit
        # whatever the BLAS does. Over half the samples have x0 = 0, so e0 has
        # zero MAD: it sits inside the first block next to usable directions
        # and fills the whole second block when blocks hold 7 directions.
        # k = 50 is not a multiple of 7.
        p, k = 3, 50
        x = rng.integers(-40, 41, size=(n, p)).astype(float)
        x[: n // 2 + 1, 0] = 0.0
        directions = rng.integers(-8, 9, size=(k, p)) / 8.0
        directions[[0, 3, *range(7, 14)]] = [1.0, 0.0, 0.0]
        if rows is not None:
            monkeypatch.setattr(depth, "_BLOCK_BYTES", 8 * n * rows)
        got = projection_depth(x, directions)
        assert np.array_equal(got, projection_depth_reference(x, directions))

    # The last row length whose medians come from a sort, and the first
    # whose medians come from a selection.
    @pytest.mark.parametrize("n", [numeric._SORT_MAX_N, numeric._SORT_MAX_N + 1])
    @pytest.mark.parametrize("kind", ["gaussian", "integer"])
    def test_projection_depth_bitwise_equals_reference_either_side_of_sort(self, rng, n, kind):
        # Axis-aligned directions project onto one coordinate, which is
        # exact, so the kernels must agree bit for bit. Integers in -3..3
        # put ties in every row; the negated first two axes repeat their MADs.
        p = 4
        if kind == "gaussian":
            x = rng.standard_normal((n, p))
        else:
            x = rng.integers(-3, 4, size=(n, p)).astype(float)
        directions = np.vstack([np.eye(p), -np.eye(p)[:2]])
        got = projection_depth(x, directions)
        assert np.array_equal(got, projection_depth_reference(x, directions))

    @pytest.mark.parametrize("n,p", [(200, 5), (201, 7), (400, 40)])
    def test_projection_depth_matches_reference_on_gaussian_data(self, rng, n, p):
        # Only the order in which the BLAS sums a projection may differ.
        x = rng.standard_normal((n, p))
        dirs = sample_directions(p, 700, seed=1)
        diff = projection_depth(x, dirs) - projection_depth_reference(x, dirs.directions)
        assert np.max(np.abs(diff)) <= 1e-14

    # Either side of _L2_GRAM_MIN_P, and three more dimensions of the Gram form.
    @pytest.mark.parametrize("p", [depth._L2_GRAM_MIN_P - 1, depth._L2_GRAM_MIN_P, 15, 16, 40])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_l2_depth_matches_reference(self, monkeypatch, rng, p, offset):
        # Both tile formulas take blocks of 48 rows in panels of 48 columns,
        # so they run over several blocks and panels.
        _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows=16)

    @pytest.mark.parametrize("p", [depth._L2_GRAM_MIN_P - 1, 15, 40])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("rows", [1, 7, 146])
    def test_l2_depth_matches_reference_for_any_block_size(
        self, monkeypatch, rng, p, offset, rows
    ):
        # Tiles of 12 x 12, of 31 x 32 (neither divides m = 146) or one
        # block of all rows.
        _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_l2_depth_tiled_matches_reference(self, rng, offset):
        # At the real budget, m = 1100 distinct rows take 18 blocks of 64
        # rows (the last of 12) in panels of 512 columns, up to three per
        # strip: neither count divides m. Row 3's copies sit at positions
        # that block 0's second and third panels and later blocks cover;
        # they are merged into one weighted row and must get its depth,
        # from the Gram form at p = 20 and from differences at p = 3.
        rows, width = depth._gram_tiles(1100)
        assert (rows, width) == (64, 512)
        for p in (20, 3):
            x = rng.standard_normal((1104, p)) + offset
            copies = [100, 600, 1050, 1103]
            x[copies] = x[3]
            got = l2_depth(x)
            assert np.max(np.abs(got - l2_depth_reference(x))) <= 1e-12
            assert np.unique(got[[3, *copies]]).size == 1

    def test_gram_tile_rule(self):
        # Up to m = 512 a block has _block_rows(m) rows and its whole strip
        # is one panel, one matrix product of the same shape as a whole
        # strip. Every tile stays within the budget, and from m = 64 on
        # every block but the last has at least 64 rows.
        for m in range(1, 513):
            rows, width = depth._gram_tiles(m)
            assert rows == min(depth._block_rows(m), m) and width >= m
        for m in range(1, 20_001):
            rows, width = depth._gram_tiles(m)
            assert 8 * rows * min(width, m) <= depth._BLOCK_BYTES
            assert width >= rows >= min(m, 64)

    @pytest.mark.parametrize(
        "x, early",
        [
            ([[0.5, 1.0], [0.25, 1.0], [-1.0, 2.0]], True),
            ([[1.0, 1.0], [1.0, 2.0], [3.0, 2.0], [3.0, 1.0]], False),  # the first column ties
            ([[0.0, 1.0], [-0.0, 1.0]], True),  # the rows differ in the sign of a zero
            ([[1.0, 0.0], [1.0, -0.0]], False),
        ],
    )
    def test_distinct_rows_early_return_matches_sort(self, x, early):
        # Every row here is distinct. Where the first column has no two
        # equal bit patterns, the rows come back as x itself, without a
        # sort; the sort of whole rows must give the same answer, which a
        # leading constant column forces.
        x = np.array(x)
        n = len(x)
        got = depth._distinct_rows(x)
        padded = depth._distinct_rows(np.column_stack([np.zeros(n), x]))
        assert (got[0] is x) == early
        for rows, inverse, weights in (got, (padded[0][:, 1:], *padded[1:])):
            assert np.ascontiguousarray(rows).tobytes() == x.tobytes()
            assert np.array_equal(inverse, np.arange(n))
            assert np.array_equal(weights, np.ones(n))

    @pytest.mark.parametrize("p", [3, depth._L2_GRAM_MIN_P, 16])
    def test_l2_depth_extreme_scale(self, rng, p):
        x = rng.standard_normal((120, p))
        big = l2_depth(x * 1e160)
        assert np.all(np.isfinite(big)) and np.all(big > 0.0) and np.all(big <= 1.0)
        assert np.array_equal(
            np.argsort(big, kind="stable"), np.argsort(l2_depth(x), kind="stable")
        )

    @pytest.mark.parametrize("p", [5, 50])
    def test_memory_bounded_by_block_budget(self, rng, p):
        # L2: two blocks, one copy of the data and a few length-n vectors;
        # the unblocked-in-n kernels held several (512 x n) blocks at once.
        n = 5000
        x = rng.standard_normal((n, p))
        assert _peak_bytes(l2_depth, x) < 2 * depth._BLOCK_BYTES + 8 * n * p + 64 * n
        dirs = sample_directions(p, 1000, seed=0)
        assert _peak_bytes(projection_depth, x, dirs) < _projection_bound(n, p, 1)


class TestThreadCount:
    """The kernels split fixed-size blocks over threads; results may not
    depend on the thread count."""

    @pytest.mark.parametrize("n,p", [(201, 7), (333, 13), (1100, 5), (400, 40), (2000, 200)])
    def test_bitwise_equal_for_every_thread_count(self, workers_at_any_size, pools, n, p):
        # Over half the samples have x0 = 0, so e0 has zero MAD. It fills
        # the start of block 1, which another worker than block 0's may take.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, p))
        x[: n // 2 + 1, 0] = 0.0
        directions = sample_directions(p, 1000, seed=p).directions
        rows = depth._projection_rows(n, p)
        directions[rows : rows + 3] = np.eye(p)[0]
        proj, l2, subsets = {}, {}, {}
        for threads in (1, 2, 3):
            proj[threads] = projection_depth(x, directions, threads)
            l2[threads] = l2_depth(x, threads)
            subsets[threads] = [
                fdb_estimate(x, EstimatorConfig(depth=kind, k=1000, seed=p, threads=threads)).subset
                for kind in ("projection", "l2")
            ]
        assert sorted(set(pools)) == [2, 3]
        for threads in (2, 3):
            assert np.array_equal(proj[threads], proj[1])
            assert np.array_equal(l2[threads], l2[1])
            assert all(np.array_equal(a, b) for a, b in zip(subsets[threads], subsets[1]))

    def test_more_workers_than_cores_with_frequent_switches(self, rng, workers_at_any_size):
        # A lost or misplaced write to the shared sums, or a lost maximum,
        # would change the bits.
        x = rng.standard_normal((600, 20))
        dirs = sample_directions(20, 1000, seed=1)
        expected = projection_depth(x, dirs, 1), l2_depth(x, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = projection_depth(x, dirs, 8), l2_depth(x, 8)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_failing_block_is_raised_without_deadlock(self, threads):
        # The second tile to take its square roots raises (tiles of 24 rows
        # x 25 columns here), in block 0 or 1. Workers waiting for that
        # block's reduction must be released, and the error re-raised.
        assert _in_child(_failing_gram_tile, threads) == ["second block"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["projection", "cdist"])
    def test_failing_block_is_raised_on_every_path(
        self, rng, monkeypatch, workers_at_any_size, kernel, threads
    ):
        # The second median (block 0's MAD) or the second block's distances
        # raise. The other workers finish, and the error is re-raised.
        owner, name = {
            "projection": (depth.numeric, "row_medians"),
            "cdist": (scipy.spatial.distance, "cdist"),
        }[kernel]
        original, calls, lock = getattr(owner, name), [], threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 2:
                    raise MemoryError("second call")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, failing)
        x = rng.standard_normal((300, 5))  # 10 projection blocks, 3 L2 blocks of one tile each
        dirs = sample_directions(5, 1000, seed=0)

        def call():
            if kernel == "projection":
                projection_depth(x, dirs, threads)
            else:
                l2_depth(x, threads)

        assert _memory_errors(call, f"the {kernel} path") == ["second call"]

    def test_no_block_is_handed_out_after_a_failure(self, rng, monkeypatch, workers_at_any_size):
        # 46 projection blocks of two medians each; the second median call
        # raises. Only the blocks already in flight may finish, where all
        # 92 calls ran before.
        original, calls, lock = depth.numeric.row_medians, [], threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 2:
                    raise MemoryError("second call")
            return original(*args, **kwargs)

        monkeypatch.setattr(depth.numeric, "row_medians", failing)
        x = rng.standard_normal((300, 5))
        dirs = sample_directions(5, 5000, seed=0)
        assert -(-dirs.k // depth._projection_rows(300, 5)) == 46
        with pytest.raises(MemoryError, match="second call"):
            projection_depth(x, dirs, 2)
        assert len(calls) <= 10

    @pytest.mark.parametrize("threads", [2, 3])
    def test_memory_bounded_per_worker(self, rng, pools, workers_at_any_size, threads):
        # Each worker holds two blocks, so the single-thread bounds of
        # test_memory_bounded_by_block_budget grow by two blocks per worker.
        n, p = 5000, 50
        x = rng.standard_normal((n, p))
        bound = 2 * threads * depth._BLOCK_BYTES + 8 * n * p + 64 * n
        assert _peak_bytes(l2_depth, x, threads) < bound
        dirs = sample_directions(p, 1000, seed=0)
        assert _peak_bytes(projection_depth, x, dirs, threads) < _projection_bound(n, p, threads)
        assert pools == [threads, threads]

    def test_thread_count_from_argument_then_environment(
        self, rng, monkeypatch, pools, workers_at_any_size
    ):
        x = rng.standard_normal((2000, 20))
        dirs = sample_directions(20, 1000, seed=0)
        projection_depth(x, dirs)
        assert pools == []
        monkeypatch.setenv("FDB_THREADS", "3")
        projection_depth(x, dirs)
        projection_depth(x, dirs, 2)
        projection_depth(x, dirs, 1)
        assert pools == [3, 2]

    def test_small_inputs_run_inline(self, rng, pools):
        # Blocks of 0.15M to 1.4M multiply-adds, too few to pay for a second
        # worker: 400 x 40 has 5 L2 blocks of one Gram tile each and 13
        # projection blocks of 81 directions, 2000 x 5 has 32 L2 blocks of
        # 64 rows in 80 difference tiles.
        for n, p in [(400, 40), (200, 5), (1000, 40), (2000, 5)]:
            x = rng.standard_normal((n, p))
            projection_depth(x, sample_directions(p, 1000, seed=0), 2)
            l2_depth(x, 2)
        assert pools == []

    def test_wide_inputs_start_workers(self, rng, pools):
        # 2000 x 200: projection blocks of 50 directions (20M multiply-adds)
        # and Gram strips of 16 rows (3.2M).
        x = rng.standard_normal((2000, 200))
        projection_depth(x, sample_directions(200, 2000, seed=0), 2)
        l2_depth(x, 2)
        assert pools == [2, 2]

    @pytest.mark.parametrize("value", ["two", "0", "2.5"])
    def test_invalid_thread_count(self, rng, monkeypatch, value):
        monkeypatch.setenv("FDB_THREADS", value)
        with pytest.raises(InvalidConfig):
            l2_depth(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            l2_depth(rng.standard_normal((10, 2)))
        monkeypatch.delenv("FDB_THREADS")
        with pytest.raises(InvalidConfig):
            l2_depth(rng.standard_normal((10, 2)), 0)
        with pytest.raises(ValueError):
            l2_depth(rng.standard_normal((10, 2)), 0)
        # At 2000 x 200 both kernels would start workers.
        x = rng.standard_normal((2000, 200))
        with pytest.raises(InvalidConfig):
            projection_depth(x, sample_directions(200, 100, seed=0), 2.5)
        with pytest.raises(InvalidConfig):
            l2_depth(x, 2.5)


class _ZeroRows:
    """A Generator whose standard-normal stream of p-vectors comes out as
    zeros in the given rows, counted over every draw."""

    def __init__(self, rng, p, rows):
        self._rng, self._p, self._rows, self._drawn = rng, p, rows, 0

    def standard_normal(self, size):
        values = self._rng.standard_normal(size)
        first = self._drawn // self._p
        self._drawn += values.size
        vectors = values.reshape(-1, self._p)
        for row in self._rows:
            if first <= row < first + len(vectors):
                vectors[row - first] = 0.0
        return values


class TestDirectionStream:
    """projection_depth draws a sampled set block by block as it consumes it."""

    @pytest.mark.parametrize("n,p,k", [(201, 7, 5000), (400, 40, 1000), (2000, 200, 1237)])
    def test_streamed_equals_explicit(self, monkeypatch, workers_at_any_size, n, p, k):
        # Blocks of 163, 81 and 50 directions, chunks of 1141, 162 and 50;
        # no k is a multiple of its block or chunk.
        x = np.random.default_rng(n).standard_normal((n, p))
        drawn = sample_directions(p, k, seed=n)
        explicit = sample_directions(p, k, seed=n).directions
        for threads in (1, 2, 3):
            assert np.array_equal(
                projection_depth(x, drawn, threads), projection_depth(x, explicit, threads)
            )
        config = {t: EstimatorConfig(k=k, seed=n, threads=t) for t in (1, 2, 3)}
        streamed = {t: fdb_estimate(x, c) for t, c in config.items()}
        sample = depth.sample_directions

        def explicit_sample(p, k, seed):
            return sample(p, k, seed).directions

        monkeypatch.setattr(depth, "sample_directions", explicit_sample)
        for threads, c in config.items():
            report = fdb_estimate(x, c)
            assert np.array_equal(streamed[threads].subset, report.subset)
            assert np.array_equal(streamed[threads].estimate.sigma, report.estimate.sigma)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_direction_projected_once(self, monkeypatch, workers_at_any_size, threads):
        # A direction taken twice would leave the maximum, and so the
        # depths, unchanged; only the count of projections shows it.
        n, p, k = 400, 40, 1000
        x = np.random.default_rng(1).standard_normal((n, p))
        row_medians, lock, projected = depth.numeric.row_medians, threading.Lock(), []

        def counting(values, work=None):
            with lock:
                projected.append(values.shape[0])
            return row_medians(values, work)

        monkeypatch.setattr(depth.numeric, "row_medians", counting)
        drawn = sample_directions(p, k, 0)
        for dirs in (drawn, sample_directions(p, k, 0).directions):
            projected.clear()
            projection_depth(x, dirs, threads)
            assert sum(projected) == 2 * k  # a median and a MAD per direction

    def test_zero_norm_rows_are_skipped(self, monkeypatch, rng, workers_at_any_size):
        # Blocks of 7 directions, chunks of 14. Rows 5 and 30 come out as
        # zeros in the first and third chunk. With 40 directions in the
        # plane, each one sets the outlyingness of some samples, so a
        # direction left out, or a zero row counted, shows.
        n, p, k = 300, 2, 40
        monkeypatch.setattr(depth, "_BLOCK_BYTES", 8 * n * 7)
        monkeypatch.setattr(depth, "_CHUNK_BYTES", 8 * p * 14)
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: _ZeroRows(default_rng(seed), p, {5, 30})
        )
        x = rng.standard_normal((n, p))
        dirs = sample_directions(p, k, seed=2)
        got = {threads: projection_depth(x, dirs, threads) for threads in (1, 2, 3)}
        assert np.array_equal(got[2], got[1]) and np.array_equal(got[3], got[1])
        directions = dirs.directions
        assert not directions[[5, 30]].any()
        usable = np.delete(directions, [5, 30], axis=0)
        assert np.max(np.abs(np.linalg.norm(usable, axis=1) - 1.0)) <= 1e-12
        for threads in (1, 2, 3):
            assert np.array_equal(projection_depth(x, directions, threads), got[1])
        assert np.max(np.abs(got[1] - projection_depth_reference(x, usable))) <= 1e-14

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("k", [1000, 50_000])
    def test_memory_does_not_grow_with_k(self, rng, threads, k):
        # At k = 50 000 the set alone would take 20 MB.
        n, p = 5000, 50
        x = rng.standard_normal((n, p))
        peak = _peak_bytes(projection_depth, x, sample_directions(p, k, seed=0), threads)
        assert peak < _projection_bound(n, p, threads)

    @pytest.mark.parametrize(
        "n,p,rows",
        [(200, 5, 163), (400, 40, 81), (2000, 200, 50), (5000, 200, 26), (100_000, 1000, 1)],
    )
    def test_block_widening_is_capped(self, n, p, rows):
        # p / 4 directions would take 2 MB per block at 5000 x 200 and
        # 200 MB at 100 000 x 1000; the cap keeps 1 MiB, or one direction.
        assert depth._projection_rows(n, p) == rows
        assert rows >= depth._block_rows(n)
        assert 8 * n * rows <= max(depth._PROJECTION_BLOCK_BYTES, 8 * n)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_bounded_where_widening_is_capped(self, rng, threads):
        n, p = 5000, 200
        x = rng.standard_normal((n, p))
        # Blocks of 26 directions, each at most _PROJECTION_BLOCK_BYTES.
        peak = _peak_bytes(projection_depth, x, sample_directions(p, 200, seed=0), threads)
        bound = 2 * threads * depth._PROJECTION_BLOCK_BYTES + (threads + 2) * depth._CHUNK_BYTES
        assert peak < bound + 64 * n


class TestMapInOrder:
    """The helper that runs the blocks of every depth kernel on worker
    threads and reduces their results in block order."""

    @staticmethod
    def _map(work, reduce, blocks, threads):
        """``_map_in_order`` over ``range(blocks)`` on ``threads`` workers,
        called on a helper thread; the MemoryError it raised, if any."""
        return _memory_errors(
            lambda: depth._map_in_order(
                lambda: work, reduce, range(blocks), blocks, threads, depth._PARALLEL_WORK
            ),
            "_map_in_order",
        )

    @pytest.mark.parametrize("threads", [2, 3])
    def test_reduces_in_block_order_when_later_blocks_finish_first(self, pools, threads):
        # The first threads - 1 blocks wait until block `threads` starts,
        # which its worker takes once block threads - 1 has finished.
        # 1 + 2**-53 rounds to 1, so only the order 0, 1, 2, ... gives
        # exactly 1.
        blocks = 12
        started = [threading.Event() for _ in range(blocks)]
        order, total = [], [0.0]

        def work(block):
            started[block].set()
            if block < threads - 1:
                assert started[threads].wait(10.0)
            return block, 1.0 if block == 0 else 2.0**-53

        def add(result):
            order.append(result[0])
            total[0] += result[1]

        assert self._map(work, add, blocks, threads) == []
        assert pools == [threads]
        assert order == list(range(blocks))
        assert total[0] == 1.0

    @pytest.mark.parametrize("threads", [2, 3])
    def test_no_block_is_taken_beyond_the_lookahead(self, threads):
        # Block 0 holds its worker until block _LOOKAHEAD has started and a
        # little longer, so the other workers run as far ahead as they may.
        blocks, lead, reduced = 20, [], []
        started = [threading.Event() for _ in range(blocks)]

        def work(block):
            lead.append(block - len(reduced))
            started[block].set()
            if block == 0:
                assert started[depth._LOOKAHEAD].wait(10.0)
                time.sleep(0.05)
            return block

        assert self._map(work, reduced.append, blocks, threads) == []
        assert reduced == list(range(blocks))
        assert max(lead) == depth._LOOKAHEAD

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("where", ["block", "reduce"])
    def test_failure_is_raised_without_deadlock(self, threads, where):
        # Block 1 fails, in its work or in its reduction, once block
        # 1 + _LOOKAHEAD has started: the other workers then wait for
        # block 1's reduction and must be released. Nothing more is handed
        # out or reduced, and the error is raised once.
        raised, taken, reduced = _in_child(_failing_map, threads, where)
        assert raised == ["block 1"]
        assert max(taken) == 1 + depth._LOOKAHEAD
        assert reduced == ([0] if where == "block" else [0, 1])

    @pytest.mark.parametrize("threads", [2, 3])
    def test_error_is_the_first_failing_blocks_for_every_thread_count(self, threads):
        # Block 3 fails first in time, block 1 after it. One worker runs
        # block 1 first and raises its error; so must every count.
        assert _in_child(_failing_map_twice, threads) == ["block 1"]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_each_worker_thread_starts_its_worker_once(self, threads):
        # Every block runs on a thread that made its own worker, and no
        # thread makes a second one.
        blocks, starts, runs = 24, [], []

        def start_worker():
            owner = threading.get_ident()
            starts.append(owner)

            def work(block):
                runs.append((owner, threading.get_ident()))
                time.sleep(0.002)  # so that the pool starts all its threads
                return block

            return work

        reduced = []
        assert _memory_errors(
            lambda: depth._map_in_order(
                start_worker, reduced.append, range(blocks), blocks, threads,
                depth._PARALLEL_WORK,
            ),
            "_map_in_order",
        ) == []
        assert reduced == list(range(blocks))
        assert len(starts) == len(set(starts))
        assert 1 <= len(starts) <= threads
        assert all(owner == thread for owner, thread in runs)
        assert {thread for _, thread in runs} == set(starts)


def _memory_errors(call, name: str) -> "list[str]":
    """The message of the MemoryError that ``call()`` raised, if any. It is
    called on a helper thread and must return within 10 s."""
    outcome = []

    def run():
        try:
            call()
        except MemoryError as exc:
            outcome.append(str(exc))

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(10.0)
    assert not helper.is_alive(), f"{name} did not return within 10 s"
    return outcome


_CHILD = """\
import json, os, sys, traceback
import {module} as tests
status = 1
try:
    print(json.dumps(tests.{function}(*{args!r})))
    status = 0
except Exception:
    traceback.print_exc()
sys.stdout.flush()
sys.stderr.flush()
os._exit(status)  # without joining pool threads that a deadlock left stuck
"""


def _in_child(function, *args):
    """``function(*args)``, which returns JSON data, in a fresh interpreter.
    Stuck pool threads of a deadlocked failure path then cannot keep this
    one from exiting: the child exits without joining them, and a child
    that hangs anyway is killed after 60 s and fails the test."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(depth.__file__)))
    path = os.pathsep.join(filter(None, [tests, src, os.environ.get("PYTHONPATH")]))
    code = _CHILD.format(module=function.__module__, function=function.__name__, args=args)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60.0,
            env=dict(os.environ, PYTHONPATH=path),
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{function.__name__}{args} did not end within 60 s")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _failing_map(threads: int, where: str):
    """The failure case of ``TestMapInOrder``: (the errors raised, the
    blocks taken, the blocks reduced). Run it through ``_in_child``."""
    blocks, taken, reduced = 40, [], []
    last = 1 + depth._LOOKAHEAD
    started = threading.Event()

    def work(block):
        taken.append(block)
        if block == last:
            started.set()
        if block == 1:
            assert started.wait(10.0)
            time.sleep(0.05)
            if where == "block":
                raise MemoryError("block 1")
        return block

    def reduce(block):
        reduced.append(block)
        if block == 1:
            raise MemoryError("block 1")

    return TestMapInOrder._map(work, reduce, blocks, threads), taken, reduced


def _failing_map_twice(threads: int) -> "list[str]":
    """The errors raised by ``_map_in_order`` over 12 blocks on ``threads``
    workers, where block 3 raises at once and block 1 once block 3 has
    raised. Run it through ``_in_child``.

    The first ``threads`` blocks go to distinct workers: block 0 holds its
    worker until block ``threads - 1`` has started. Block 1 then holds its
    worker until block 3 has raised, and block 2 (of three workers) until
    block 3 has started, so block 0's worker takes block 3."""
    started = [threading.Event() for _ in range(12)]
    raised = threading.Event()

    def work(block):
        started[block].set()
        if block == 0:
            assert started[threads - 1].wait(10.0)
        elif block == 3:
            try:
                raise MemoryError("block 3")
            finally:
                raised.set()
        elif block == 1:
            assert raised.wait(10.0)
            raise MemoryError("block 1")
        elif block < threads:
            assert started[3].wait(10.0)
        return block

    return TestMapInOrder._map(work, lambda block: None, 12, threads)


def _failing_gram_tile(threads: int) -> "list[str]":
    """The errors that L2 depth of 300 x 20 raised on ``threads`` workers,
    when its second square root raises. It patches the module and numpy for
    good, so run it through ``_in_child``."""
    depth._BLOCK_BYTES = 8 * 300 * 2
    depth._PARALLEL_WORK = 0  # workers at any size
    x = np.random.default_rng(20240501).standard_normal((300, 20))
    sqrt, calls, lock = np.sqrt, [], threading.Lock()

    def failing_sqrt(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 2:
                raise MemoryError("second block")
        return sqrt(*args, **kwargs)

    np.sqrt = failing_sqrt
    return _memory_errors(lambda: l2_depth(x, threads), "l2_depth")


@st.composite
def _l2_inputs(draw):
    """Sample matrices with duplicate rows, a block budget and a thread count."""
    n = draw(st.integers(2, 300))
    p = draw(st.sampled_from([1, 3, *range(depth._L2_GRAM_MIN_P - 1, 49)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.standard_normal((n, p))
    else:
        x = rng.integers(-3, 4, size=(n, p)).astype(float)
    copies = draw(st.integers(0, n // 2))
    x[rng.integers(0, n, copies)] = x[rng.integers(0, n, copies)]
    rows = draw(st.one_of(st.integers(1, 8), st.integers(1, n)))
    return x, rows, draw(st.integers(2, 4)), rng.permutation(n)


class TestL2DepthProperties:
    @settings(max_examples=300, deadline=None)
    @given(_l2_inputs())
    def test_threads_reference_and_permutation(self, case):
        x, rows, threads, perm = case
        m = np.unique(x, axis=0).shape[0]
        with mock.patch.object(depth, "_BLOCK_BYTES", 8 * m * rows), \
                mock.patch.object(depth, "_PARALLEL_WORK", 0):
            got = l2_depth(x, 1)
            assert np.array_equal(l2_depth(x, threads), got)
            assert np.max(np.abs(got - l2_depth_reference(x))) <= 1e-12
            # A permutation moves pairs between strips, so only close.
            assert np.max(np.abs(l2_depth(x[perm], threads) - got[perm])) <= 1e-12
