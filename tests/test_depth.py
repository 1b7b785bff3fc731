import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdb import depth
from fdb.estimators import EstimatorConfig, fdb_estimate
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
        assert default_direction_count(5) == 1000
        assert default_direction_count(150) == 1500

    def test_invalid_count(self):
        with pytest.raises(InvalidConfig):
            sample_directions(3, 0, seed=0)
        with pytest.raises(ValueError):
            sample_directions(3, 0, seed=0)

    def test_normalized_in_place(self):
        # Same bits as dividing a copy, with one k x p array alive.
        p, k = 200, 2000
        u = np.random.default_rng(4).standard_normal((k, p))
        expected = u / np.linalg.norm(u, axis=1)[:, None]
        assert np.array_equal(sample_directions(p, k, seed=4).directions, expected)
        assert _peak_bytes(sample_directions, p, k, 4) < 1.25 * 8 * k * p


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
        dirs = DirectionSet(np.array([[0.0, 1.0], [1.0, 0.0]]), seed=0)
        depths = projection_depth(data, dirs)
        assert np.all(depths > 0.0) and np.all(depths <= 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            projection_depth(rng.standard_normal((5, 3)), sample_directions(2, 10, seed=0))

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


def _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows):
    """L2 depth of 150 samples in blocks of ``rows`` of their m = 146
    distinct rows, against the oracle. The copies of row 3 lie in other
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
        got = projection_depth(x, DirectionSet(directions, seed=0))
        assert np.array_equal(got, projection_depth_reference(x, directions))

    @pytest.mark.parametrize("n,p", [(200, 5), (201, 7), (400, 40)])
    def test_projection_depth_matches_reference_on_gaussian_data(self, rng, n, p):
        # Only the order in which the BLAS sums a projection may differ.
        x = rng.standard_normal((n, p))
        dirs = sample_directions(p, 700, seed=1)
        diff = projection_depth(x, dirs) - projection_depth_reference(x, dirs.directions)
        assert np.max(np.abs(diff)) <= 1e-14

    @pytest.mark.parametrize("p", [depth._L2_GRAM_MIN_P - 1, depth._L2_GRAM_MIN_P, 40])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_l2_depth_matches_reference(self, monkeypatch, rng, p, offset):
        # Blocks of 16 rows, so the Gram path runs over several blocks.
        _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows=16)

    @pytest.mark.parametrize("p", [depth._L2_GRAM_MIN_P - 1, 40])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("rows", [1, 7, 146])
    def test_l2_depth_matches_reference_for_any_block_size(
        self, monkeypatch, rng, p, offset, rows
    ):
        # Blocks of 1 row, of 7 rows (which do not divide m = 146), or of
        # all rows.
        _check_l2_depth_against_reference(monkeypatch, rng, p, offset, rows)

    @pytest.mark.parametrize("p", [3, depth._L2_GRAM_MIN_P])
    def test_l2_depth_extreme_scale(self, rng, p):
        x = rng.standard_normal((120, p))
        big = l2_depth(x * 1e160)
        assert np.all(np.isfinite(big)) and np.all(big > 0.0) and np.all(big <= 1.0)
        assert np.array_equal(
            np.argsort(big, kind="stable"), np.argsort(l2_depth(x), kind="stable")
        )

    @pytest.mark.parametrize("p", [5, 50])
    def test_memory_bounded_by_block_budget(self, rng, p):
        # Two blocks, one copy of the data and a few length-n vectors; the
        # unblocked-in-n kernels held several (512 x n) blocks at once.
        n = 5000
        x = rng.standard_normal((n, p))
        bound = 2 * depth._BLOCK_BYTES + 8 * n * p + 64 * n
        assert _peak_bytes(l2_depth, x) < bound
        dirs = sample_directions(p, 1000, seed=0)
        assert _peak_bytes(projection_depth, x, dirs) < bound


class TestThreadCount:
    """The kernels split fixed-size blocks over threads; results may not
    depend on the thread count."""

    @pytest.mark.parametrize("n,p", [(201, 7), (333, 13), (400, 40), (2000, 200)])
    def test_bitwise_equal_for_every_thread_count(self, one_block_per_worker, pools, n, p):
        # Over half the samples have x0 = 0, so e0 has zero MAD. It fills
        # the start of block 1, which belongs to worker 1 for 2 and 3
        # threads, so worker 0 sees usable directions only.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, p))
        x[: n // 2 + 1, 0] = 0.0
        directions = sample_directions(p, 1000, seed=p).directions
        rows = depth._block_rows(n)
        directions[rows : rows + 3] = np.eye(p)[0]
        dirs = DirectionSet(directions, seed=p)
        proj, l2, subsets = {}, {}, {}
        for threads in (1, 2, 3):
            proj[threads] = projection_depth(x, dirs, threads)
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

    def test_more_workers_than_cores_with_frequent_switches(self, rng, one_block_per_worker):
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
    def test_failing_block_is_raised_without_deadlock(
        self, rng, monkeypatch, one_block_per_worker, threads
    ):
        # The second block to take its square roots raises. Workers waiting
        # for that block's turn must be released, and the error re-raised.
        monkeypatch.setattr(depth, "_BLOCK_BYTES", 8 * 300 * 2)
        x = rng.standard_normal((300, 20))
        sqrt, calls, lock = np.sqrt, [], threading.Lock()

        def failing_sqrt(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 2:
                    raise MemoryError("second block")
            return sqrt(*args, **kwargs)

        monkeypatch.setattr(np, "sqrt", failing_sqrt)
        reductions = []

        class Recorded(depth._BlockOrderSum):
            def __init__(self, m):
                super().__init__(m)
                reductions.append(self)

        monkeypatch.setattr(depth, "_BlockOrderSum", Recorded)
        outcome = []

        def call():
            try:
                l2_depth(x, threads)
            except MemoryError as exc:
                outcome.append(exc)

        helper = threading.Thread(target=call, daemon=True)
        helper.start()
        helper.join(10.0)
        hung = helper.is_alive()
        for reduction in reductions if hung else ():
            # Free the stuck workers, or the pool's exit hook waits for them.
            with reduction._turn:
                reduction._failed = True
                reduction._turn.notify_all()
        assert not hung, "l2_depth did not return within 10 s"
        assert [str(exc) for exc in outcome] == ["second block"]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_memory_bounded_per_worker(self, rng, pools, threads):
        # Each worker holds two blocks, so the single-thread bound of
        # test_memory_bounded_by_block_budget grows by two blocks per worker.
        n, p = 5000, 50
        x = rng.standard_normal((n, p))
        bound = 2 * threads * depth._BLOCK_BYTES + 8 * n * p + 64 * n
        assert _peak_bytes(l2_depth, x, threads) < bound
        dirs = sample_directions(p, 1000, seed=0)
        assert _peak_bytes(projection_depth, x, dirs, threads) < bound
        assert pools == [threads, threads]

    def test_thread_count_from_argument_then_environment(self, rng, monkeypatch, pools):
        x = rng.standard_normal((2000, 20))
        dirs = sample_directions(20, 1000, seed=0)
        monkeypatch.delenv("FDB_THREADS", raising=False)
        projection_depth(x, dirs)
        assert pools == []
        monkeypatch.setenv("FDB_THREADS", "3")
        projection_depth(x, dirs)
        projection_depth(x, dirs, 2)
        projection_depth(x, dirs, 1)
        assert pools == [3, 2]

    def test_small_inputs_run_inline(self, rng, pools):
        # 400 x 40 is five L2 blocks, too few to pay for a second worker.
        l2_depth(rng.standard_normal((400, 40)), 2)
        assert pools == []

    @pytest.mark.parametrize("value", ["two", "0"])
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


class TestBlockOrderSum:
    """The reduction behind the Gram path of L2 depth."""

    def test_adds_in_block_order_whatever_the_delivery_order(self):
        # 1 + 2**-53 rounds to 1, so only the order 0, 1, 2 gives exactly 1.
        sums = depth._BlockOrderSum(1)
        for block, value in [(2, 2.0**-53), (1, 2.0**-53), (0, 1.0)]:
            assert sums.add(block, 0, np.array([value]))
        assert sums.total[0] == 1.0

    def test_fail_releases_a_worker_waiting_for_its_turn(self):
        sums = depth._BlockOrderSum(3)
        result = []
        ahead = depth._L2_LOOKAHEAD + 1
        helper = threading.Thread(
            target=lambda: result.append(sums.add(ahead, 0, np.ones(3))), daemon=True
        )
        helper.start()
        helper.join(0.2)
        assert helper.is_alive() and result == []
        sums.fail()
        helper.join(10.0)
        assert not helper.is_alive() and result == [False]
        assert not sums.add(0, 0, np.ones(3))
        assert not sums.total.any()


@st.composite
def _l2_inputs(draw):
    """Sample matrices with duplicate rows, a block budget and a thread count."""
    n = draw(st.integers(2, 300))
    p = draw(st.sampled_from([1, 3, 15, *range(16, 49)]))
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
                mock.patch.object(depth, "_L2_BLOCKS_PER_WORKER", 1):
            got = l2_depth(x, 1)
            assert np.array_equal(l2_depth(x, threads), got)
            assert np.max(np.abs(got - l2_depth_reference(x))) <= 1e-12
            # A permutation moves pairs between strips, so only close.
            assert np.max(np.abs(l2_depth(x[perm], threads) - got[perm])) <= 1e-12
