import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fdb import estimators, numeric
from fdb.depth import _BLOCK_BYTES
from fdb.errors import (
    DegenerateData,
    DimensionError,
    FdbError,
    InvalidConfig,
    InvalidSubsetSize,
    NonFiniteValues,
    OracleTooLarge,
    SingularCovariance,
    TooFewWeightedSamples,
)
from fdb.estimators import (
    EstimatorConfig,
    LocationScatter,
    c_step,
    exhaustive_mcd,
    fastmcd_baseline,
    fdb_estimate,
    iterate_c_steps,
    mahalanobis_sq,
    reweight,
    subset_mean_cov,
)
from fdb.numeric import chi_square_quantile, cholesky, log_determinant, symmetrize
from oracles import (
    fastmcd_starts_reference,
    mahalanobis_sq_inverse,
    mahalanobis_sq_solve,
    random_spd,
    two_pass_mean_cov,
)

CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def full_sample_state(x):
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = symmetrize(centered.T @ centered / (x.shape[0] - 1))
    return LocationScatter(mu, sigma)


def twelve_point_instance():
    """Ten clustered planar points plus two gross outliers; h = 10."""
    rng = np.random.default_rng(7)
    clean = rng.standard_normal((10, 2))
    outliers = np.array([[40.0, -35.0], [-55.0, 48.0]])
    return np.vstack([clean, outliers]), 10


class TestSubsetMeanCov:
    def test_symmetric_cross_denominator_h(self):
        ls = subset_mean_cov(CROSS, [0, 1, 2, 3], "h")
        assert np.allclose(ls.mu, [0.0, 0.0])
        assert np.allclose(ls.sigma, np.diag([0.5, 0.5]))

    def test_symmetric_cross_denominator_h_minus_1(self):
        ls = subset_mean_cov(CROSS, [0, 1, 2, 3], "h-1")
        assert np.allclose(ls.sigma, np.diag([2.0 / 3.0, 2.0 / 3.0]))

    def test_matches_two_pass_oracle(self, rng):
        x = rng.standard_normal((30, 4))
        subset = np.sort(rng.choice(30, size=12, replace=False))
        for denominator in ("h", "h-1"):
            ls = subset_mean_cov(x, subset, denominator)
            mu, cov = two_pass_mean_cov(x, subset, denominator)
            assert np.max(np.abs(ls.mu - mu)) <= 1e-12
            assert np.max(np.abs(ls.sigma - cov)) <= 1e-12

    def test_singular_subset_raises(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 1.0]])
        with pytest.raises(SingularCovariance):
            subset_mean_cov(x, [0, 1, 2], "h-1")

    def test_unselected_rows_are_not_read(self, rng):
        x = rng.standard_normal((10, 2))
        x[9] = np.nan
        ls = subset_mean_cov(x, np.arange(9), "h-1")
        mu, cov = two_pass_mean_cov(x, np.arange(9), "h-1")
        assert np.max(np.abs(ls.mu - mu)) <= 1e-12
        assert np.max(np.abs(ls.sigma - cov)) <= 1e-12

    def test_subset_indices_follow_numpy_indexing(self, rng):
        # A negative index counts from the end; one out of range raises.
        x = rng.standard_normal((10, 2))
        assert np.array_equal(subset_mean_cov(x, [-1, 0, 1]).sigma, subset_mean_cov(x, [9, 0, 1]).sigma)
        with pytest.raises(IndexError):
            subset_mean_cov(x, [0, 1, 10])

    def test_unknown_denominator_is_invalid_config(self):
        with pytest.raises(InvalidConfig):
            subset_mean_cov(CROSS, [0, 1, 2, 3], "n")

    def test_ridge_repairs_elemental_start(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [5.0, 1.0]])
        _, sigma = estimators._moments(x, np.array([[0, 1, 2]]), 2)
        with pytest.raises(SingularCovariance):
            subset_mean_cov(x, [0, 1, 2], "h-1")
        repaired, lower = estimators._ridged(sigma[0])
        cholesky(repaired)  # repaired covariance must be SPD
        assert np.array_equal(repaired, repaired.T)  # the diagonal bump keeps it symmetric
        assert np.array_equal(lower, cholesky(repaired))

    def test_one_h_by_p_copy(self, rng):
        # The selected rows are centred in place and freed before the
        # p x p work, so the peak is one h x p array plus O(p^2).
        n, p, h = 2000, 200, 1500
        x = rng.standard_normal((n, p))
        subset = np.sort(rng.choice(n, size=h, replace=False))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            subset_mean_cov(x, subset, "h-1")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * h * p

    @pytest.mark.parametrize("h,p", [(2, 1), (7, 3), (50, 5), (300, 40), (1500, 200)])
    def test_sigma_exactly_symmetric(self, rng, h, p):
        # The Gram product is not symmetrized; it must come out symmetric.
        x = rng.standard_normal((h + 10, p)) * rng.uniform(0.1, 10.0, size=p) + 3.0
        subset = np.sort(rng.choice(h + 10, size=h, replace=False))
        for denominator in ("h", "h-1"):
            sigma = subset_mean_cov(x, subset, denominator).sigma
            assert np.array_equal(sigma, sigma.T)


    def test_asymmetric_stacked_product_is_mirrored(self, rng, monkeypatch):
        # Where a build's stacked product is not exactly symmetric, its lower
        # triangle is mirrored into the upper one before it is factored.
        x = rng.standard_normal((30, 4))
        subset = np.sort(rng.choice(30, size=12, replace=False))
        exact = subset_mean_cov(x, subset)
        original = np.matmul

        def skewed(a, b, **kwargs):
            product = original(a, b, **kwargs)
            product[:, 0, 1] += 1.0
            return product

        monkeypatch.setattr(np, "matmul", skewed)
        got = subset_mean_cov(x, subset)
        assert np.array_equal(got.sigma, exact.sigma)
        assert np.array_equal(got.lower, exact.lower)


class TestMahalanobisSq:
    def test_identity_scatter(self):
        ls = LocationScatter(np.zeros(2), np.eye(2))
        assert mahalanobis_sq(np.array([[3.0, 4.0]]), ls)[0] == pytest.approx(25.0)

    def test_diagonal_scatter(self):
        ls = LocationScatter(np.zeros(2), np.diag([4.0, 1.0]))
        assert mahalanobis_sq(np.array([[2.0, 1.0]]), ls)[0] == pytest.approx(2.0)

    def test_matches_explicit_inverse(self, rng):
        x = rng.standard_normal((50, 6))
        ls = LocationScatter(rng.standard_normal(6), random_spd(rng, 6))
        expected = mahalanobis_sq_inverse(x, ls.mu, ls.sigma)
        assert np.max(np.abs(mahalanobis_sq(x, ls) - expected)) <= 1e-9

    def test_nonnegative(self, rng):
        x = rng.standard_normal((100, 3))
        ls = LocationScatter(rng.standard_normal(3), random_spd(rng, 3))
        assert np.all(mahalanobis_sq(x, ls) >= 0.0)

    # n is not a multiple of the block rows: 6553 at p = 5, 819 at p = 40,
    # 163 at p = 200, 655 at p = 50.
    @pytest.mark.parametrize("n,p", [(7, 1), (400, 40), (1001, 200), (5000, 50)])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_matches_triangular_solve(self, rng, n, p, scale):
        # A well-conditioned scatter (condition number in the hundreds), where
        # the two computations agree to a few ulps.
        mixing = np.linalg.cholesky(random_spd(rng, p)).T
        x = (rng.standard_normal((n, p)) @ mixing + 3.0) * scale
        ls = subset_mean_cov(x, np.arange(n))
        expected = mahalanobis_sq_solve(x, ls.mu, ls.sigma)
        assert np.max(np.abs(mahalanobis_sq(x, ls) - expected) / expected) <= 1e-13

    def test_peak_is_one_block(self, rng):
        # The rows are centred block by block into one reused buffer, so
        # the peak is one block, the factor and its inverse (with the
        # factorization's p x p temporaries) and the length-n distances.
        n, p = 20000, 50
        x = rng.standard_normal((n, p))
        ls = LocationScatter(np.zeros(p), random_spd(rng, p))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mahalanobis_sq(x, ls)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < _BLOCK_BYTES + 3 * 8 * p * p + 16 * n

    def test_one_n_by_p_temporary(self, rng):
        # The centred rows go through one buffer of at most a block and are
        # not checked for finiteness, so the peak stays below one n x p array.
        n, p = 2000, 200
        x = rng.standard_normal((n, p))
        ls = LocationScatter(np.zeros(p), np.eye(p))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mahalanobis_sq(x, ls)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * p

    def test_overflowing_difference_is_non_finite_values(self):
        ls = LocationScatter(np.array([-1e308]), np.eye(1))
        with pytest.raises(NonFiniteValues), warnings.catch_warnings():
            warnings.simplefilter("error")
            mahalanobis_sq([[1e308], [0.0]], ls)

    def test_nan_location_is_non_finite_values(self):
        ls = LocationScatter(np.array([np.nan, 0.0]), np.eye(2))
        with pytest.raises(NonFiniteValues):
            mahalanobis_sq(np.zeros((3, 2)), ls)

    def test_dimension_mismatch(self, rng):
        ls = LocationScatter(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            mahalanobis_sq(rng.standard_normal((5, 2)), ls)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Matrices passed to numeric.cholesky or, one by one, to
    numeric.cholesky_stack, in call order."""
    calls = []
    original, original_stack = numeric.cholesky, numeric.cholesky_stack

    def counting(m):
        calls.append(m)
        return original(m)

    def counting_stack(m):
        calls.extend(m)
        return original_stack(m)

    monkeypatch.setattr(numeric, "cholesky", counting)
    monkeypatch.setattr(numeric, "cholesky_stack", counting_stack)
    return calls


class TestFactorOnce:
    def test_factor_is_computed_once(self, rng, cholesky_calls):
        ls = LocationScatter(np.zeros(4), random_spd(rng, 4))
        assert ls.lower is ls.lower
        assert np.array_equal(ls.lower, cholesky(ls.sigma))
        assert ls.lower_inverse is ls.lower_inverse
        assert len(cholesky_calls) == 1

    def test_factor_is_lazy(self):
        # An estimate can hold a sigma that is not exactly symmetric; only
        # its factor is refused.
        ls = LocationScatter(np.zeros(2), np.array([[1.0, 0.1], [0.2, 1.0]]))
        with pytest.raises(ValueError):
            ls.lower

    def test_frozen(self):
        ls = LocationScatter(np.zeros(2), np.eye(2))
        with pytest.raises(FrozenInstanceError):
            ls.sigma = 2.0 * np.eye(2)

    @pytest.mark.parametrize("depth", ["projection", "l2"])
    # The raw and reweighted scatters; the c1-scaled one is never factored.
    @pytest.mark.parametrize("do_reweight, factors", [(True, 2), (False, 1)])
    def test_fdb_estimate_factors_each_scatter_once(
        self, rng, cholesky_calls, depth, do_reweight, factors
    ):
        x = rng.standard_normal((200, 5))
        fdb_estimate(x, EstimatorConfig(depth=depth, k=200, reweight=do_reweight))
        assert len(cholesky_calls) == factors

    # The raw and reweighted scatters each give one distance pass.
    @pytest.mark.parametrize("do_reweight, inversions", [(True, 2), (False, 1)])
    def test_fdb_estimate_inverts_each_factor_once(
        self, rng, monkeypatch, do_reweight, inversions
    ):
        calls = []
        original = numeric.triangular_inverse

        def counting(lower):
            calls.append(lower)
            return original(lower)

        monkeypatch.setattr(numeric, "triangular_inverse", counting)
        x = rng.standard_normal((200, 5))
        fdb_estimate(x, EstimatorConfig(k=200, reweight=do_reweight))
        assert len(calls) == inversions

    def test_iterate_c_steps_factors_each_estimate_once(self, rng, cholesky_calls):
        x = rng.standard_normal((120, 4))
        x[:20] += 6.0
        start = subset_mean_cov(x, np.arange(20, 110), "h-1")
        cholesky_calls.clear()
        _, _, iterations = iterate_c_steps(x, start, 90)
        assert iterations > 1
        assert len(cholesky_calls) == iterations


@pytest.fixture
def validations(monkeypatch):
    """Shapes passed to depth.as_data_matrix, through both module bindings."""
    from fdb import depth, estimators

    calls = []
    original = depth.as_data_matrix

    def counting(data):
        calls.append(np.shape(data))
        return original(data)

    for module in (depth, estimators):
        monkeypatch.setattr(module, "as_data_matrix", counting)
    return calls


class TestValidateOnce:
    def test_fastmcd_baseline_scans_its_input_once(self, rng, validations):
        fastmcd_baseline(rng.standard_normal((60, 3)), 45, n_starts=20, seed=1)
        assert validations == [(60, 3)]

    @pytest.mark.parametrize("depth", ["projection", "l2"])
    def test_fdb_estimate_scans_once_plus_its_depth_kernel(self, rng, validations, depth):
        fdb_estimate(rng.standard_normal((60, 3)), EstimatorConfig(depth=depth, k=100))
        assert validations == [(60, 3), (60, 3)]

    def test_c_step_primitives_do_not_scan(self, rng, validations):
        x = rng.standard_normal((60, 3))
        start = subset_mean_cov(x, np.arange(45), "h-1")
        _, state = c_step(x, start, 45)
        iterate_c_steps(x, state, 45)
        reweight(x, state)
        mahalanobis_sq(x, state)
        assert validations == []


class TestCStep:
    def test_idempotent_at_fixed_point(self):
        x, h = twelve_point_instance()
        subset, state = c_step(x, full_sample_state(x), h)
        again, state2 = c_step(x, state, h)
        assert np.array_equal(subset, again)
        assert np.allclose(state.sigma, state2.sigma)

    def test_excludes_gross_outliers_and_matches_enumeration(self):
        x, h = twelve_point_instance()
        subset, state = c_step(x, full_sample_state(x), h)
        assert 10 not in subset and 11 not in subset
        oracle_subset, _ = exhaustive_mcd(x, h)
        assert np.array_equal(subset, oracle_subset)

    def test_determinant_never_increases_from_random_subsets(self, rng):
        # Monotonicity from any subset-based (denominator h-1) state.
        for _ in range(1000):
            n = int(rng.integers(20, 201))
            p = int(rng.integers(1, 11))
            h = int(rng.integers(p + 2, n + 1))
            x = rng.standard_normal((n, p))
            start_subset = np.sort(rng.choice(n, size=h, replace=False))
            state = subset_mean_cov(x, start_subset, "h-1")
            before = log_determinant(cholesky(state.sigma))
            _, new_state = c_step(x, state, h)
            after = log_determinant(cholesky(new_state.sigma))
            assert after - before <= 1e-10

    def test_invalid_subset_size(self, rng):
        x = rng.standard_normal((10, 3))
        with pytest.raises(InvalidSubsetSize):
            c_step(x, full_sample_state(x), 3)


class TestIterateCSteps:
    def test_one_iteration_at_fixed_point(self):
        x, h = twelve_point_instance()
        subset, state = c_step(x, full_sample_state(x), h)
        _, _, iterations = iterate_c_steps(x, state, h)
        assert iterations == 1

    def test_converges_to_enumeration_optimum(self):
        x, h = twelve_point_instance()
        subset, state, _ = iterate_c_steps(x, full_sample_state(x), h)
        oracle_subset, oracle = exhaustive_mcd(x, h)
        assert np.array_equal(subset, oracle_subset)
        ld = log_determinant(cholesky(state.sigma))
        ld_oracle = log_determinant(cholesky(oracle.sigma))
        assert ld == pytest.approx(ld_oracle, abs=1e-10)

    def test_final_det_not_above_initial(self, rng):
        for _ in range(25):
            n, p = 60, 4
            h = 45
            x = rng.standard_normal((n, p))
            start_subset = np.sort(rng.choice(n, size=h, replace=False))
            state = subset_mean_cov(x, start_subset, "h-1")
            before = log_determinant(cholesky(state.sigma))
            _, final, _ = iterate_c_steps(x, state, h)
            assert log_determinant(cholesky(final.sigma)) <= before + 1e-10


    def test_no_iteration_is_invalid_config(self):
        x, h = twelve_point_instance()
        with pytest.raises(InvalidConfig):
            iterate_c_steps(x, full_sample_state(x), h, max_iter=0)


class TestReweight:
    def test_monte_carlo_trim_fraction_and_c0(self, rng):
        n, p = 10_000, 5
        x = rng.standard_normal((n, p))
        result = reweight(x, LocationScatter(np.zeros(p), np.eye(p)))
        trimmed = 1.0 - result.weights.sum() / n
        # binomial sd of the 2.5% trim rate at n=1e4 is ~0.16%
        assert abs(trimmed - 0.025) <= 0.008
        assert abs(result.c0 - 1.0) <= 0.1

    def test_gross_outlier_gets_zero_weight(self, rng):
        x = rng.standard_normal((100, 2))
        x[0] = [100.0, 100.0]
        result = reweight(x, LocationScatter(np.zeros(2), np.eye(2)))
        assert result.weights[0] == 0

    def test_all_weights_one_reduces_to_sample_moments(self):
        # All four cross points sit at squared distance 1 under the identity:
        # the median-calibrated cutoff keeps everything.
        result = reweight(CROSS, LocationScatter(np.zeros(2), np.eye(2)))
        assert np.all(result.weights == 1)
        assert np.allclose(result.estimate.mu, CROSS.mean(axis=0))
        assert np.allclose(result.estimate.sigma, np.cov(CROSS, rowvar=False))

    def test_too_few_weighted_samples(self):
        x = np.array(
            [[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [50.0, 0.0], [0.0, 50.0]]
        )
        with pytest.raises(TooFewWeightedSamples):
            reweight(x, LocationScatter(np.zeros(2), 1e-4 * np.eye(2)))


class TestFdbEstimate:
    def test_symmetric_cross_raw_mean_exact(self):
        config = EstimatorConfig(alpha=1.0, depth="l2", reweight=False)
        with pytest.warns(UserWarning):  # n = 4 <= 5p
            report = fdb_estimate(CROSS, config)
        assert np.array_equal(report.estimate.mu, np.zeros(2))
        assert report.c0 is None and report.weights is None

    def test_grid_with_outliers_matches_enumeration(self):
        # Point-symmetric grid: three inner pairs plus one far pair on the
        # x-axis. Dropping either far point gives bit-identical determinants
        # (negation symmetry), so the enumeration tie-break and the depth
        # ordering both settle on dropping the far point away from the
        # outlier mass.
        grid = np.array(
            [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5],
             [0.35, 0.35], [-0.35, -0.35], [2.0, 0.0], [-2.0, 0.0]]
        )
        outliers = np.array([[50.0, 50.0], [60.0, -60.0]])
        x = np.vstack([grid, outliers])
        with pytest.warns(UserWarning):
            report = fdb_estimate(x, EstimatorConfig(h=7, depth="l2", reweight=False))
        assert not set(report.subset) & {8, 9}
        assert np.linalg.norm(report.estimate.mu) < 0.5
        oracle_subset, _ = exhaustive_mcd(x, 7)
        assert np.array_equal(report.subset, oracle_subset)

    def test_report_fields(self, rng):
        x = rng.standard_normal((200, 5))
        report = fdb_estimate(x, EstimatorConfig(seed=3))
        assert report.subset.size == 150
        assert report.weights.sum() >= 5 + 2
        assert report.c0 > 0 and report.c1 > 0
        assert report.distances_sq.shape == (200,)
        assert report.elapsed_seconds >= report.subset_seconds >= 0.0
        assert report.method == "fdb-pro"

    def test_small_sample_warning(self, rng):
        x = rng.standard_normal((20, 5))
        with pytest.warns(UserWarning, match="n > 5p"):
            fdb_estimate(x, EstimatorConfig(alpha=0.75, seed=0))

    def test_stage_label_on_failure(self):
        x = np.array([[float(i), float(i)] for i in range(20)])  # rank 1
        with pytest.raises(SingularCovariance) as exc:
            fdb_estimate(x, EstimatorConfig(depth="l2"))
        assert exc.value.stage == "scatter"

    @pytest.mark.parametrize("depth", ["projection", "l2"])
    def test_overflowing_scatter_is_tagged(self, rng, depth):
        # The covariance of data scaled by 1e160 overflows.
        x = rng.standard_normal((200, 5)) * 1e160
        with pytest.raises(NonFiniteValues) as exc, warnings.catch_warnings():
            warnings.simplefilter("error")
            fdb_estimate(x, EstimatorConfig(depth=depth))
        assert exc.value.stage == "scatter"
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("do_reweight", [True, False])
    def test_tail_matches_direct_passes(self, rng, do_reweight):
        # The tail takes the distances under c1 * sigma0 as the raw ones
        # divided by c1; they agree with a direct pass to rounding.
        x = rng.standard_normal((300, 6))
        x[:40] += 8.0
        config = EstimatorConfig(seed=2, reweight=do_reweight)
        report = fdb_estimate(x, config)
        raw = subset_mean_cov(x, report.subset, "h")
        scaled = LocationScatter(raw.mu, report.c1 * raw.sigma)
        if do_reweight:
            direct = reweight(x, scaled)
            assert np.array_equal(report.weights, direct.weights)
            assert report.c0 == pytest.approx(direct.c0, rel=1e-13)
            assert np.array_equal(report.estimate.sigma, direct.estimate.sigma)
        else:
            assert np.array_equal(report.estimate.sigma, scaled.sigma)
        np.testing.assert_allclose(
            report.distances_sq, mahalanobis_sq(x, report.estimate), rtol=1e-12
        )

    @pytest.mark.parametrize("do_reweight", [True, False])
    def test_overflowing_scaled_distances_are_tagged(self, do_reweight):
        # 73 of 100 samples lie within 1e-150 of zero, so c1 is about 1e-298
        # and the distances of the samples at 1e5 overflow once divided by it.
        x = np.concatenate([np.linspace(-1e-150, 1e-150, 73), [-1.0, 1.0] * 5, [1e5] * 17])
        with pytest.raises(NonFiniteValues) as exc:
            fdb_estimate(x[:, None], EstimatorConfig(k=50, reweight=do_reweight))
        assert exc.value.stage == "scaling"

    def test_overflowing_final_distances_are_tagged(self):
        # The entry at 1.18e154 keeps its scaled distance finite (about
        # 1.75e308), but the reweighted scatter is tighter, so the final
        # distance pass overflows.
        x = np.random.default_rng(0).standard_normal((200, 5))
        x[0, 0] = 1.18e154
        with pytest.raises(NonFiniteValues) as exc:
            fdb_estimate(x, EstimatorConfig(depth="l2"))
        assert exc.value.stage == "distances"

    def test_rigid_motion_equivariance_l2(self, rng):
        x = rng.standard_normal((120, 3)) @ np.diag([1.0, 2.0, 0.5])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        base = fdb_estimate(x, EstimatorConfig(depth="l2", seed=1))
        moved = fdb_estimate(x @ q.T + shift, EstimatorConfig(depth="l2", seed=1))
        assert np.max(np.abs(moved.estimate.mu - (base.estimate.mu @ q.T + shift))) <= 1e-8
        assert np.max(np.abs(moved.estimate.sigma - q @ base.estimate.sigma @ q.T)) <= 1e-8

    def test_permutation_invariance_l2(self, rng):
        x = rng.standard_normal((80, 3))
        base = fdb_estimate(x, EstimatorConfig(depth="l2", seed=1))
        perm = rng.permutation(80)
        shuffled = fdb_estimate(x[perm], EstimatorConfig(depth="l2", seed=1))
        assert np.max(np.abs(shuffled.estimate.mu - base.estimate.mu)) <= 1e-10
        assert np.max(np.abs(shuffled.estimate.sigma - base.estimate.sigma)) <= 1e-10
        assert np.array_equal(np.sort(perm[shuffled.subset]), base.subset)

    def test_l2_subset_on_tiny_data(self):
        # L2 depth 1 / (1 + d) is 1.0 for every row once the mean distances
        # fall below 2**-53; the subset must still follow the data.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 5))
        x[:20] += 8.0
        config = EstimatorConfig(depth="l2")
        base = fdb_estimate(x, config).subset
        assert not np.isin(np.arange(20), base).any()
        assert np.array_equal(fdb_estimate(x * 1e-160, config).subset, base)

    def test_consistency_factors_on_clean_data(self, rng):
        # n large, moderate p: c1 corrects the depth-trimmed scatter back to
        # the truth and the reweighted eigenvalues stay close to one.
        x = rng.standard_normal((10_000, 20))
        report = fdb_estimate(x, EstimatorConfig(alpha=0.75, seed=5))
        assert 0.8 < report.c0 < 1.3
        assert 0.8 < report.c1 < 1.3
        eigenvalues = np.linalg.eigvalsh(report.estimate.sigma)
        assert np.all(np.abs(eigenvalues - 1.0) <= 0.15)


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "settings", [{"alpha": 2}, {"depth": "halfspace"}, {"threads": 0}, {"threads": 2.5}]
    )
    def test_invalid_settings_raise_invalid_config(self, settings):
        with pytest.raises(InvalidConfig) as exc:
            EstimatorConfig(**settings)
        assert isinstance(exc.value, FdbError) and isinstance(exc.value, ValueError)

    def test_alpha_bounds(self):
        EstimatorConfig(alpha=0.5)
        EstimatorConfig(alpha=1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=0.49)
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=1.01)

    def test_unknown_depth_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(depth="halfspace")

    def test_resolved_h_validated(self, rng):
        config = EstimatorConfig(alpha=0.5)
        with pytest.raises(InvalidSubsetSize):
            config.resolve_h(n=8, p=5)  # h = 4 <= p

    def test_thread_count_validated(self):
        EstimatorConfig(threads=1)
        with pytest.raises(ValueError):
            EstimatorConfig(threads=0)

    def test_auto_direction_count(self):
        config = EstimatorConfig()
        assert config.resolve_k(5) == 1000
        assert config.resolve_k(250) == 2500
        assert EstimatorConfig(k=64).resolve_k(250) == 64


class TestFastMcdBaseline:
    def test_degenerate_when_every_start_is_singular(self):
        x = np.ones((30, 3))  # zero trace: ridge repair cannot help
        with pytest.raises(DegenerateData) as exc:
            fastmcd_baseline(x, h=20, n_starts=10, seed=0)
        assert exc.value.stage == "subset"

    def test_exact_fit_is_tagged(self, rng):
        # 250 of 300 rows identical (an exact fit): the 225 rows nearest to
        # each start are copies of one row, so every start ends singular.
        x = rng.standard_normal((300, 5))
        x[:250] = x[0]
        with pytest.raises(DegenerateData) as exc:
            fastmcd_baseline(x, h=225, n_starts=20, seed=0)
        assert exc.value.stage == "subset"

    # A stack of one start, a stack of 7 that the last stack does not fill,
    # and the default, which takes all 60 starts at once.
    @pytest.mark.parametrize("stack", [1, 7, None])
    def test_every_start_matches_one_at_a_time(self, monkeypatch, stack):
        # 20 of 30 rows lie on a line, so an elemental start drawn from them
        # needs the ridge and then ends in a singular h-subset; five copies
        # of one row give ridge-repaired starts that survive.
        x = np.random.default_rng(0).standard_normal((30, 2))
        x[:20, 1] = 0.0
        x[20:25] = [3.0, 3.0]
        h, n_starts, seed = 20, 60, 3
        if stack is not None:
            monkeypatch.setattr(estimators, "_STACK_BYTES", stack * 8 * x.size)
        expected, ridged, dropped = fastmcd_starts_reference(x, h, n_starts, seed)
        assert set(ridged) - set(dropped), "no ridge-repaired start survives"
        assert set(dropped) - set(ridged), "no start ends in a singular h-subset"
        got = estimators._elemental_starts(x, h, n_starts, seed)
        assert [(logdet, s) for logdet, s, _ in got] == [(logdet, s) for logdet, s, _ in expected]
        for (_, _, subset), (_, _, reference) in zip(got, expected):
            assert np.array_equal(subset, reference)

    def test_overflowing_scatter_is_tagged(self, rng):
        # Every elemental covariance of data scaled by 1e160 overflows.
        x = rng.standard_normal((60, 3)) * 1e160
        with pytest.raises(NonFiniteValues) as exc, warnings.catch_warnings():
            warnings.simplefilter("error")
            fastmcd_baseline(x, 45, n_starts=20, seed=1)
        assert exc.value.stage == "subset"

    def test_no_start_is_invalid_config(self, rng):
        with pytest.raises(InvalidConfig):
            fastmcd_baseline(rng.standard_normal((30, 2)), h=20, n_starts=0)

    def test_matches_enumeration_on_small_instance(self):
        x, h = twelve_point_instance()
        report = fastmcd_baseline(x, h, n_starts=50, seed=11)
        oracle_subset, _ = exhaustive_mcd(x, h)
        assert np.array_equal(report.subset, oracle_subset)

    def test_deterministic_under_seed(self, rng):
        x = rng.standard_normal((60, 3))
        a = fastmcd_baseline(x, 45, n_starts=40, seed=9)
        b = fastmcd_baseline(x, 45, n_starts=40, seed=9)
        assert np.array_equal(a.subset, b.subset)
        assert np.array_equal(a.estimate.mu, b.estimate.mu)
        assert np.array_equal(a.estimate.sigma, b.estimate.sigma)
        assert np.array_equal(a.weights, b.weights)
        assert a.c0 == b.c0 and a.c1 == b.c1

    def test_peak_does_not_grow_with_start_count(self, rng):
        # Only (log-det, start, subset) is kept per start; the ten best
        # states are refitted. A kept p x p state would add 8p^2 bytes.
        n, p, h = 200, 40, 150
        x = rng.standard_normal((n, p))
        peaks = {}
        for n_starts in (20, 200):
            tracemalloc.start()
            try:
                fastmcd_baseline(x, h, n_starts=n_starts, seed=3)
                peaks[n_starts] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[200] - peaks[20]) / 180 < 8 * p * p

    def test_does_not_call_c_step(self, rng, monkeypatch):
        from fdb import estimators

        def forbidden(*args, **kwargs):
            raise AssertionError("fastmcd_baseline called c_step")

        monkeypatch.setattr(estimators, "c_step", forbidden)
        fastmcd_baseline(rng.standard_normal((60, 3)), 45, n_starts=20, seed=1)

    def test_comparable_to_fdb_on_clean_data(self, rng):
        # Both estimators are consistent on clean data; their location errors
        # should be within a factor two of each other on average.
        errs_fdb, errs_mcd = [], []
        for rep in range(10):
            x = rng.standard_normal((200, 5))
            errs_fdb.append(np.linalg.norm(fdb_estimate(x, EstimatorConfig(seed=rep)).estimate.mu))
            errs_mcd.append(np.linalg.norm(fastmcd_baseline(x, 150, n_starts=100, seed=rep).estimate.mu))
        ratio = np.mean(errs_mcd) / np.mean(errs_fdb)
        assert 0.5 <= ratio <= 2.0


class TestExhaustiveMcd:
    def test_univariate_outlier_excluded(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0], [100.0]])
        subset, _ = exhaustive_mcd(x, 4)
        assert np.array_equal(subset, [0, 1, 2, 3])

    def test_h_equals_n_returns_full_sample(self, rng):
        x = rng.standard_normal((8, 2))
        subset, ls = exhaustive_mcd(x, 8)
        assert np.array_equal(subset, np.arange(8))
        assert np.allclose(ls.mu, x.mean(axis=0))
        assert np.allclose(ls.sigma, np.cov(x, rowvar=False))

    def test_oracle_too_large(self, rng):
        x = rng.standard_normal((60, 2))
        with pytest.raises(OracleTooLarge):
            exhaustive_mcd(x, 30)


class TestBreakdown:
    def test_radial_contamination_does_not_carry_the_estimate(self):
        # Setting A sizes, 40% radial outliers, alpha = 0.5: the location
        # error stays bounded in every replicate.
        from fdb.evaluation import BenchmarkCell, run_replicate

        cell = BenchmarkCell("A", "radial", 0.4, 5.0, "fdb-pro")
        for rep in range(100):
            metrics = run_replicate(cell, rep, seed=505)
            assert metrics.e_mu < 1.0
