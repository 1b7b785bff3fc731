import numpy as np
import pytest

from fdb.applications import (
    PcaModel,
    auc_score,
    detect_outliers,
    export_diagnostics_csv,
    parse_rule,
    pca_diagnostics,
    robust_pca,
)
from fdb.errors import DimensionError, InvalidConfig, InvalidRule
from fdb.estimators import LocationScatter
from fdb.numeric import chi_square_quantile, eigen_symmetric
from oracles import random_spd


class TestRobustPca:
    def test_diagonal_scatter_single_component(self):
        ls = LocationScatter(np.zeros(2), np.diag([3.0, 1.0]))
        model = robust_pca(np.zeros((4, 2)), ls, 1)
        assert model.eigenvalues[0] == pytest.approx(3.0)
        assert np.allclose(np.abs(model.loadings[:, 0]), [1.0, 0.0])

    def test_full_rank_reconstruction(self, rng):
        sigma = random_spd(rng, 4)
        ls = LocationScatter(rng.standard_normal(4), sigma)
        model = robust_pca(rng.standard_normal((10, 4)), ls, 4)
        recon = model.loadings @ np.diag(model.eigenvalues) @ model.loadings.T
        assert np.allclose(recon, sigma, atol=1e-10)
        assert np.allclose(model.loadings.T @ model.loadings, np.eye(4), atol=1e-10)

    def test_loadings_match_eigensolver(self, rng):
        sigma = random_spd(rng, 5)
        ls = LocationScatter(np.zeros(5), sigma)
        model = robust_pca(rng.standard_normal((8, 5)), ls, 3)
        eig = eigen_symmetric(sigma)
        assert np.allclose(model.loadings, eig.vectors[:, :3])
        assert np.allclose(model.eigenvalues, eig.values[:3])

    def test_component_count_validation(self, rng):
        ls = LocationScatter(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionError):
            robust_pca(rng.standard_normal((5, 3)), ls, 4)


class TestPcaDiagnostics:
    def test_sample_in_loading_span_has_zero_od(self):
        model = PcaModel(np.zeros(3), np.eye(3)[:, :2], np.array([2.0, 1.0]))
        data = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0]])
        diag = pca_diagnostics(data, model)
        assert np.max(diag.od) <= 1e-20

    def test_sample_at_center_is_regular(self):
        model = PcaModel(np.array([1.0, -1.0]), np.eye(2)[:, :1], np.array([1.0]))
        diag = pca_diagnostics(np.array([[1.0, -1.0], [5.0, 3.0]]), model)
        assert diag.sd[0] == 0.0 and diag.od[0] == 0.0
        assert diag.category[0] == "regular"

    def test_formula_evaluation(self):
        # Identity loadings, unit eigenvalues: SD is the squared norm.
        model = PcaModel(np.zeros(2), np.eye(2), np.array([1.0, 1.0]))
        diag = pca_diagnostics(np.array([[3.0, 4.0]]), model)
        assert diag.sd[0] == pytest.approx(25.0)
        assert diag.od[0] == pytest.approx(0.0, abs=1e-20)

    def test_sd_cutoff_is_chi_square(self, rng):
        model = PcaModel(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 1.0]))
        diag = pca_diagnostics(rng.standard_normal((20, 3)), model)
        assert diag.sd_cutoff == pytest.approx(chi_square_quantile(2, 0.975))

    def test_od_invariant_to_rotation_within_span(self, rng):
        sigma = random_spd(rng, 5)
        ls = LocationScatter(rng.standard_normal(5), sigma)
        data = rng.standard_normal((40, 5))
        model = robust_pca(data, ls, 2)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = PcaModel(model.mu, model.loadings @ q, model.eigenvalues)
        base = pca_diagnostics(data, model)
        rot = pca_diagnostics(data, rotated)
        assert np.max(np.abs(base.od - rot.od)) <= 1e-10

    def test_categories_partition(self, rng):
        data = rng.standard_normal((200, 4))
        data[:10] *= 8.0
        ls = LocationScatter(np.zeros(4), np.eye(4))
        model = robust_pca(data, ls, 2)
        diag = pca_diagnostics(data, model)
        valid = {"regular", "good_leverage", "orthogonal_outlier", "bad_leverage"}
        assert set(diag.category) <= valid
        # exhaustive and exclusive: exactly one label per sample, consistent
        # with the cutoffs
        for i in range(200):
            expected = (
                ("bad_leverage" if diag.od[i] > diag.od_cutoff else "good_leverage")
                if diag.sd[i] > diag.sd_cutoff
                else ("orthogonal_outlier" if diag.od[i] > diag.od_cutoff else "regular")
            )
            assert diag.category[i] == expected


class TestParseRule:
    def test_valid_rules(self):
        assert parse_rule("chi2:0.975") == ("chi2", 0.975)
        assert parse_rule("top:50") == ("top", 50)

    def test_invalid_rules(self):
        for bad in ("chi2", "chi2:1.5", "top:-3", "best:10", "top:abc"):
            with pytest.raises(InvalidRule):
                parse_rule(bad)


class TestAuc:
    def test_perfect_separation(self):
        distances = np.array([1.0, 2.0, 3.0, 10.0, 11.0])
        labels = np.array([False, False, False, True, True])
        assert auc_score(distances, labels) == 1.0

    def test_all_equal_distances(self):
        distances = np.ones(6)
        labels = np.array([True, False, True, False, False, True])
        assert auc_score(distances, labels) == 0.5

    def test_invariant_under_increasing_transform(self, rng):
        distances = rng.uniform(0.1, 5.0, size=40)
        labels = rng.uniform(size=40) < 0.3
        if not labels.any() or labels.all():
            labels[0] = True
            labels[1] = False
        base = auc_score(distances, labels)
        assert auc_score(np.exp(distances), labels) == pytest.approx(base)
        assert auc_score(distances**3, labels) == pytest.approx(base)

    @pytest.mark.parametrize("label", [False, True])
    def test_one_class_is_invalid_config(self, label):
        with pytest.raises(InvalidConfig) as exc:
            auc_score(np.arange(4.0), np.full(4, label))
        assert isinstance(exc.value, ValueError)


class TestDetectOutliers:
    def test_chi2_rule_flags_exactly_the_gross_outlier(self):
        clean = np.array(
            [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )
        x = np.vstack([clean, [[30.0, -30.0]]])
        mu = clean.mean(axis=0)
        centered = clean - mu
        sigma = centered.T @ centered / 4
        ls = LocationScatter(mu, (sigma + sigma.T) / 2)
        result = detect_outliers(x, ls, rule="chi2:0.975")
        assert np.array_equal(result.flags, [False] * 5 + [True])

    def test_top_rule_flags_exactly_m(self, rng):
        x = rng.standard_normal((50, 3))
        ls = LocationScatter(np.zeros(3), np.eye(3))
        for m in (0, 1, 7, 50):
            result = detect_outliers(x, ls, rule=f"top:{m}")
            assert int(result.flags.sum()) == m
            if 0 < m < 50:
                assert np.array_equal(result.flags, result.distances > result.cutoff)

    def test_top_rule_tie_goes_to_lower_index(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        ls = LocationScatter(np.zeros(2), np.eye(2))
        result = detect_outliers(x, ls, rule="top:1")
        assert np.array_equal(result.flags, [True, False, False])

    def test_top_m_exceeding_n_rejected(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(InvalidRule):
            detect_outliers(x, LocationScatter(np.zeros(2), np.eye(2)), rule="top:6")

    def test_auc_attached_when_labels_given(self, rng):
        x = rng.standard_normal((60, 2))
        x[-5:] += 20.0
        labels = np.zeros(60, dtype=bool)
        labels[-5:] = True
        ls = LocationScatter(np.zeros(2), np.eye(2))
        result = detect_outliers(x, ls, rule="top:5", labels=labels)
        assert result.auc == 1.0


class TestExportDiagnostics:
    def test_csv_columns(self, rng, tmp_path):
        data = rng.standard_normal((15, 3))
        ls = LocationScatter(np.zeros(3), np.eye(3))
        model = robust_pca(data, ls, 2)
        diag = pca_diagnostics(data, model)
        det = detect_outliers(data, ls)
        path = tmp_path / "diag.csv"
        with open(path, "w", encoding="utf-8") as fh:
            export_diagnostics_csv(fh, diag, det)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,sd,od,category,distance,flag"
        assert len(lines) == 16
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[5] in ("0", "1")
