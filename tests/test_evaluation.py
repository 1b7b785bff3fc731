import math

import numpy as np
import pytest

from fdb import evaluation
from fdb.errors import DimensionError, InvalidConfig, InvalidContamination, SingularTransform
from fdb.estimators import LocationScatter
from fdb.evaluation import (
    SETTINGS,
    BenchmarkCell,
    ContaminationSpec,
    GenerationSpec,
    back_transform,
    build_g,
    contaminate,
    evaluate_estimate,
    export_benchmark_csv,
    generate_clean,
    kl_divergence,
    location_error,
    oracle_ellipsoid_subset,
    run_benchmark,
    scatter_cond_error,
    scatter_mse_single,
)
from fdb.numeric import chi_square_quantile
from oracles import random_spd


class TestGenerateClean:
    def test_identity_mixing(self):
        x, y, g = generate_clean(GenerationSpec(50, 3, off_diagonal=0.0, seed=1))
        assert np.array_equal(x, y)
        assert np.array_equal(g, np.eye(3))

    def test_sample_covariance_approaches_ggt(self):
        spec = GenerationSpec(100_000, 3, seed=4)
        x, _, g = generate_clean(spec)
        cov = np.cov(x, rowvar=False)
        assert np.max(np.abs(cov - g @ g.T)) <= 0.05

    def test_deterministic(self):
        a = generate_clean(GenerationSpec(20, 4, seed=9))
        b = generate_clean(GenerationSpec(20, 4, seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_off_diagonal(self):
        with pytest.raises(ValueError):
            GenerationSpec(10, 3, off_diagonal=1.0)

    @pytest.mark.parametrize("off_diagonal", [1.0, -0.5])
    def test_off_diagonal_is_invalid_config(self, off_diagonal):
        with pytest.raises(InvalidConfig):
            GenerationSpec(10, 3, off_diagonal=off_diagonal)


class TestContaminate:
    def test_epsilon_zero_is_identity(self, rng):
        y = rng.standard_normal((30, 3))
        out, labels = contaminate(y, ContaminationSpec("cluster", 0.0), seed=1)
        assert np.array_equal(out, y)
        assert not labels.any()

    def test_clean_rows_preserved(self, rng):
        y = rng.standard_normal((50, 4))
        out, labels = contaminate(y, ContaminationSpec("random", 0.2, 5.0), seed=2)
        m = int(0.2 * 50)
        assert np.array_equal(out[: 50 - m], y[: 50 - m])
        assert labels.sum() == m
        assert labels[50 - m :].all()

    def test_point_outlier_moments(self):
        # m = 5000 outliers: empirical covariance ~ 0.0001 I, mean norm ~ r sqrt(p),
        # and the point mass is orthogonal to the ones vector.
        n, p, r = 10_000, 4, 5.0
        y = np.zeros((n, p))
        out, labels = contaminate(y, ContaminationSpec("point", 0.5, r), seed=3)
        block = out[labels]
        assert block.shape[0] == 5000
        var = block.var(axis=0, ddof=1)
        assert np.max(np.abs(var - 1e-4)) <= 3e-5
        mean = block.mean(axis=0)
        assert abs(np.linalg.norm(mean) - r * math.sqrt(p)) <= 0.01
        assert abs(mean @ np.ones(p)) <= 0.01

    def test_point_contamination_needs_p_at_least_2(self):
        with pytest.raises(InvalidContamination):
            contaminate(np.zeros((10, 1)), ContaminationSpec("point", 0.5, 5.0), seed=0)

    def test_radial_variance_is_five(self):
        y = np.zeros((20_000, 3))
        out, labels = contaminate(y, ContaminationSpec("radial", 0.5), seed=5)
        block = out[labels]
        assert np.max(np.abs(block.var(axis=0, ddof=1) - 5.0)) <= 0.3
        assert np.max(np.abs(block.mean(axis=0))) <= 0.1

    def test_cluster_mean(self):
        n, p, r = 20_000, 4, 6.0
        y = np.zeros((n, p))
        out, labels = contaminate(y, ContaminationSpec("cluster", 0.5, r), seed=6)
        block = out[labels]
        expected = r * p**-0.25 * np.ones(p)
        assert np.max(np.abs(block.mean(axis=0) - expected)) <= 0.05

    def test_random_outlier_center_norms(self):
        n, p, r = 10_000, 4, 5.0
        y = np.zeros((n, p))
        out, labels = contaminate(y, ContaminationSpec("random", 0.5, r), seed=7)
        block = out[labels]
        # each outlier center has norm r p^(1/4); with unit noise the mean
        # squared norm is (r p^(1/4))^2 + p
        expected = (r * p**0.25) ** 2 + p
        assert abs(np.mean(np.einsum("ij,ij->i", block, block)) - expected) <= 1.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidContamination):
            ContaminationSpec("speckle", 0.1)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(InvalidContamination, match="r must be finite"):
            ContaminationSpec("cluster", 0.1, r)


class TestBackTransform:
    def test_identity(self, rng):
        ls = LocationScatter(rng.standard_normal(3), random_spd(rng, 3))
        out = back_transform(ls, np.eye(3))
        assert np.allclose(out.mu, ls.mu) and np.allclose(out.sigma, ls.sigma)

    def test_scaling(self, rng):
        ls = LocationScatter(np.array([2.0, -4.0]), np.diag([4.0, 8.0]))
        out = back_transform(ls, 2.0 * np.eye(2))
        assert np.allclose(out.mu, [1.0, -2.0])
        assert np.allclose(out.sigma, np.diag([1.0, 2.0]))

    def test_round_trip(self, rng):
        g = random_spd(rng, 4)
        ls = LocationScatter(rng.standard_normal(4), random_spd(rng, 4))
        forward = LocationScatter(g @ ls.mu, g @ ls.sigma @ g.T)
        back = back_transform(forward, g)
        assert np.max(np.abs(back.mu - ls.mu)) <= 1e-10
        assert np.max(np.abs(back.sigma - ls.sigma)) <= 1e-10

    def test_singular_g(self):
        ls = LocationScatter(np.zeros(2), np.eye(2))
        with pytest.raises(SingularTransform):
            back_transform(ls, np.zeros((2, 2)))


class TestOracleEllipsoidSubset:
    def test_alpha_one_selects_everything(self, rng):
        y = rng.standard_normal((12, 2))
        assert np.array_equal(oracle_ellipsoid_subset(y, 1.0), np.arange(12))

    def test_univariate_hand_case(self):
        y = np.array([[0.0], [1.0], [-2.0], [5.0]])
        assert np.array_equal(oracle_ellipsoid_subset(y, 0.5), [0, 1])

    def test_coverage_matches_chi_square_radius(self, rng):
        n, p, alpha = 100_000, 3, 0.75
        y = rng.standard_normal((n, p))
        subset = oracle_ellipsoid_subset(y, alpha)
        radius_sq = chi_square_quantile(p, alpha)
        inside = np.einsum("ij,ij->i", y, y) <= radius_sq
        # fraction inside the chi-square ellipsoid matches alpha to binomial noise
        assert abs(inside.mean() - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / n)
        assert subset.size == int(alpha * n)


class TestMetrics:
    def test_location_error(self):
        ls = LocationScatter(np.array([3.0, 4.0]), np.eye(2))
        assert location_error(ls, np.zeros(2)) == pytest.approx(5.0)
        assert location_error(ls, ls.mu) == 0.0

    def test_scatter_cond_error_trivial_cases(self, rng):
        sigma = random_spd(rng, 4)
        assert scatter_cond_error(sigma, sigma) == pytest.approx(0.0, abs=1e-10)
        assert scatter_cond_error(3.0 * sigma, sigma) == pytest.approx(0.0, abs=1e-10)
        assert scatter_cond_error(np.diag([4.0, 1.0]), np.eye(2)) == pytest.approx(
            math.log10(4.0)
        )

    def test_mse_single(self):
        assert scatter_mse_single(np.eye(3), np.eye(3)) == 0.0
        sigma_hat = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert scatter_mse_single(sigma_hat, np.eye(2)) == pytest.approx(1.0)

    def test_kl_divergence_closed_form(self):
        assert kl_divergence(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence(2.0 * np.eye(1), np.eye(1)) == pytest.approx(
            2.0 - math.log(2.0) - 1.0, abs=1e-12
        )

    def test_kl_nonnegative_zero_iff_equal(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 6))
            a, b = random_spd(rng, p), random_spd(rng, p)
            assert kl_divergence(a, b) > 0.0
            assert kl_divergence(b, b) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_evaluate_estimate_scores_against_the_identity_unwhitened(self, rng, monkeypatch, p):
        ls = back_transform(LocationScatter(rng.standard_normal(p), random_spd(rng, p)), build_g(p))
        eye = np.eye(p)
        expected = (
            location_error(ls, np.zeros(p)),
            scatter_cond_error(ls.sigma, eye),
            scatter_mse_single(ls.sigma, eye),
            kl_divergence(ls.sigma, eye),
            0.5,
        )

        def never(sigma_hat, sigma_true):
            raise AssertionError("evaluate_estimate whitened the scatter")

        monkeypatch.setattr(evaluation, "_whitened", never)
        metrics = evaluate_estimate(ls, 0.5)
        # The same bits as the four public metrics against (0, I).
        assert (metrics.e_mu, metrics.e_sigma, metrics.mse_single, metrics.kl, metrics.seconds) == expected


# A cell that runs, at the smallest setting.
GOOD_CELL = BenchmarkCell("A", "cluster", 0.1, 5.0, "fdb-l2")


class TestRunEstimator:
    @pytest.mark.parametrize("method", ["fdb-pro", "fdb-l2", "fastmcd"])
    @pytest.mark.parametrize("n_starts", [0, -3, 2.5])
    def test_bad_start_count_is_invalid_config_for_every_method(self, rng, method, n_starts):
        x = rng.standard_normal((40, 3))
        with pytest.raises(InvalidConfig, match="start count"):
            evaluation.run_estimator(x, method, n_starts=n_starts)


class TestRunBenchmark:
    def test_single_replicate_deterministic(self):
        cells = [BenchmarkCell("A", "cluster", 0.1, 5.0, "fdb-l2")]
        a = run_benchmark(cells, replicates=1, seed=12)
        b = run_benchmark(cells, replicates=1, seed=12)
        for row_a, row_b in zip(a, b):
            if row_a.metric == "seconds":
                continue
            assert row_a.mean == row_b.mean and row_a.sd == row_b.sd
            assert row_a.sd == 0.0  # single replicate

    def test_thread_count_does_not_change_results(self):
        cells = [BenchmarkCell("A", "radial", 0.1, 5.0, "fdb-l2")]
        serial = run_benchmark(cells, replicates=4, seed=3, threads=1)
        parallel = run_benchmark(cells, replicates=4, seed=3, threads=4)
        for row_s, row_p in zip(serial, parallel):
            if row_s.metric == "seconds":
                continue
            assert row_s.mean == row_p.mean and row_s.sd == row_p.sd

    @pytest.mark.parametrize("threads", [1, 2])
    def test_invalid_alpha_is_raised_not_counted(self, threads):
        cells = [BenchmarkCell("A", "cluster", 0.1, 5.0, "fdb-l2")]
        with pytest.raises(InvalidConfig):
            run_benchmark(cells, replicates=2, seed=1, alpha=2.0, threads=threads)

    @pytest.mark.parametrize("threads", [2.5, 0, -3, "2"])
    def test_invalid_thread_count_is_invalid_config(self, threads):
        cells = [BenchmarkCell("A", "cluster", 0.1, 5.0, "fdb-l2")]
        with pytest.raises(InvalidConfig, match="thread count"):
            run_benchmark(cells, replicates=2, seed=3, threads=threads)

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_bad_seed_is_invalid_config(self, seed):
        cells = [BenchmarkCell("A", "cluster", 0.1, 5.0, "fdb-l2")]
        with pytest.raises(InvalidConfig, match="seed"):
            run_benchmark(cells, replicates=2, seed=seed)

    def test_empty_grid_and_no_replicates_are_invalid_config(self):
        with pytest.raises(InvalidConfig):
            run_benchmark([], replicates=1)
        with pytest.raises(InvalidConfig):
            run_benchmark([BenchmarkCell("A", "none", 0.0, 0.0, "fdb-l2")], replicates=0)

    def test_unknown_method_is_invalid_config(self):
        # The good cell comes first: the grid is checked before it runs.
        done = []
        with pytest.raises(InvalidConfig, match="unknown method 'mcd'"):
            run_benchmark(
                [GOOD_CELL, BenchmarkCell("A", "none", 0.0, 0.0, "mcd")],
                replicates=2,
                progress=lambda cell, count, total: done.append(count),
            )
        assert done == []

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "setting,kind,epsilon,error",
        [
            ("Z", "none", 0.0, InvalidConfig),  # unknown setting
            ("A", "cluster", 0.7, InvalidContamination),  # epsilon above 0.5
            ("empty", "none", 0.0, DimensionError),  # n = 0
            ("line", "point", 0.1, InvalidContamination),  # point needs p >= 2
        ],
    )
    def test_cell_no_replicate_can_run_is_raised(self, threads, setting, kind, epsilon, error):
        # The good cell comes first: the grid is checked before it runs.
        done = []
        with pytest.raises(error):
            run_benchmark(
                [GOOD_CELL, BenchmarkCell(setting, kind, epsilon, 5.0, "fdb-l2")],
                replicates=3,
                seed=1,
                threads=threads,
                settings={**SETTINGS, "empty": (0, 3), "line": (50, 1)},
                progress=lambda cell, count, total: done.append(count),
            )
        assert done == []

    def test_epsilon_zero_normalizes_to_clean_cell(self):
        rows = run_benchmark(
            [BenchmarkCell("A", "cluster", 0.0, 5.0, "fdb-l2")], replicates=1, seed=1
        )
        assert all(row.kind == "none" and row.epsilon == 0.0 for row in rows)

    def test_degenerate_cell_is_flagged(self):
        # h = floor(0.75 * 6) = 4 <= p: every replicate fails.
        rows = run_benchmark(
            [BenchmarkCell("tiny", "none", 0.0, 0.0, "fdb-l2")],
            replicates=4,
            seed=0,
            settings={"tiny": (6, 4)},
        )
        assert all(row.replicates == 0 and row.failures == 4 for row in rows)
        assert all(row.flagged for row in rows)

    def test_csv_schema(self, tmp_path):
        rows = run_benchmark(
            [BenchmarkCell("A", "none", 0.0, 0.0, "fdb-l2")], replicates=2, seed=5
        )
        path = tmp_path / "bench.csv"
        with open(path, "w", encoding="utf-8") as fh:
            export_benchmark_csv(rows, fh)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "setting,kind,epsilon,r,method,metric,mean,sd,replicates"
        assert len(lines) == 1 + 5  # five metrics for one cell
        first = lines[1].split(",")
        assert first[0] == "A" and first[4] == "fdb-l2" and first[8] == "2"
