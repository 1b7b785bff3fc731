"""Downstream robust-analysis workflows: PCA diagnostics and outlier detection.

Robust PCA projects the data on the leading eigenvectors of a robust scatter
estimate. Each sample is scored with a score distance (within-subspace,
standardized by the eigenvalues) and an orthogonal distance (squared residual
norm to the subspace), and categorized against two cutoffs. Outlier detection
ranks samples by robust Mahalanobis distance under either a chi-square cutoff
or a fixed top-m rule, optionally scored with AUC against known labels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import numeric
from .depth import as_data_matrix
from .errors import DimensionError, InvalidConfig, InvalidRule, NonFiniteValues
from .estimators import LocationScatter, mahalanobis_sq

CATEGORIES = ("regular", "good_leverage", "orthogonal_outlier", "bad_leverage")

# Normal-consistency factor for the MAD and the 97.5% normal quantile used by
# the orthogonal-distance cutoff.
_MAD_SCALE = 1.4826
_Z_975 = float(ndtri(0.975))


@dataclass
class PcaModel:
    """Location, orthonormal loadings and the matching eigenvalues."""

    mu: np.ndarray
    loadings: np.ndarray  # (p, K)
    eigenvalues: np.ndarray  # (K,), descending

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]


@dataclass
class PcaDiagnostics:
    """Per-sample PCA diagnostics and the four-way categorization."""

    scores: np.ndarray  # (n, K)
    sd: np.ndarray
    od: np.ndarray
    category: np.ndarray  # strings from CATEGORIES
    sd_cutoff: float
    od_cutoff: float


@dataclass
class DetectionResult:
    """Robust distances, outlier flags and the cutoff that separates them."""

    distances: np.ndarray
    flags: np.ndarray
    cutoff: float
    auc: "float | None" = None


def robust_pca(data, ls: LocationScatter, n_components: int) -> PcaModel:
    """PCA model from a robust estimate: top eigenvectors of the scatter."""
    x = as_data_matrix(data)
    p = x.shape[1]
    if ls.p != p:
        raise DimensionError(f"estimate dimension {ls.p} does not match data dimension {p}")
    if not 1 <= n_components <= p:
        raise DimensionError(f"component count {n_components} not in [1, {p}]")
    eig = numeric.eigen_symmetric(ls.sigma)
    return PcaModel(
        mu=ls.mu.copy(),
        loadings=eig.vectors[:, :n_components].copy(),
        eigenvalues=eig.values[:n_components].copy(),
    )


def pca_diagnostics(data, model: PcaModel) -> PcaDiagnostics:
    """Score and orthogonal distances with the four-way categorization.

    SD_i = sum_k t_ik^2 / lambda_k over the K components and OD_i is the
    squared residual norm of the centered sample outside the loading span.
    The SD cutoff is chi2_{K, 0.975}; the OD cutoff uses the Wilson-Hilferty
    construction (median(OD^(2/3)) + 1.4826 MAD(OD^(2/3)) z_0.975)^(3/2).
    """
    x = as_data_matrix(data)
    if x.shape[1] != model.loadings.shape[0]:
        raise DimensionError(
            f"data dimension {x.shape[1]} does not match loadings dimension "
            f"{model.loadings.shape[0]}"
        )
    centered = x - model.mu
    scores = centered @ model.loadings
    sd = np.einsum("nk,k->n", scores**2, 1.0 / model.eigenvalues)
    residual = centered - scores @ model.loadings.T
    od = np.einsum("ij,ij->i", residual, residual)

    sd_cutoff = numeric.chi_square_quantile(model.n_components, 0.975)
    od23 = od ** (2.0 / 3.0)
    od_cutoff = (
        numeric.median(od23) + numeric.mad(od23) * _MAD_SCALE * _Z_975
    ) ** 1.5

    large_sd = sd > sd_cutoff
    large_od = od > od_cutoff
    category = np.empty(x.shape[0], dtype=object)
    category[~large_sd & ~large_od] = "regular"
    category[large_sd & ~large_od] = "good_leverage"
    category[~large_sd & large_od] = "orthogonal_outlier"
    category[large_sd & large_od] = "bad_leverage"
    return PcaDiagnostics(scores, sd, od, category, float(sd_cutoff), float(od_cutoff))


def parse_rule(rule: str):
    """Parse a detection rule string "chi2:PROB" or "top:M"."""
    parts = rule.split(":")
    if len(parts) != 2:
        raise InvalidRule(f"rule must look like 'chi2:0.975' or 'top:50', got {rule!r}")
    kind, value = parts[0].strip().lower(), parts[1].strip()
    if kind == "chi2":
        try:
            prob = float(value)
        except ValueError:
            raise InvalidRule(f"chi2 rule needs a probability, got {value!r}") from None
        if not 0.0 < prob < 1.0:
            raise InvalidRule(f"chi2 probability must lie in (0, 1), got {prob}")
        return "chi2", prob
    if kind == "top":
        try:
            m = int(value)
        except ValueError:
            raise InvalidRule(f"top rule needs an integer count, got {value!r}") from None
        if m < 0:
            raise InvalidRule(f"top count must be nonnegative, got {m}")
        return "top", m
    raise InvalidRule(f"unknown rule kind {kind!r}")


def _average_ranks(d: np.ndarray) -> np.ndarray:
    # Ranks from 1, ties sharing their mean rank: scipy.stats.rankdata's
    # "average" method, whose import alone would double fdb's import time.
    order = np.argsort(d, kind="mergesort")
    inverse = np.empty(d.size, dtype=np.intp)
    inverse[order] = np.arange(d.size)
    d = d[order]
    new = np.r_[True, d[1:] != d[:-1]]
    dense = new.cumsum()[inverse]
    count = np.r_[np.flatnonzero(new), d.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def auc_score(distances, labels) -> float:
    """Mann-Whitney AUC of the distances against boolean labels; ties count
    1/2. A NaN distance has no rank and raises ``NonFiniteValues``."""
    d = np.asarray(distances, dtype=float).ravel()
    y = np.asarray(labels, dtype=bool).ravel()
    if d.size != y.size:
        raise DimensionError(f"{d.size} distances but {y.size} labels")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InvalidConfig("AUC needs at least one positive and one negative label")
    if np.isnan(d).any():
        raise NonFiniteValues("distances contain NaN")
    ranks = _average_ranks(d)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def detect_outliers(data, ls: LocationScatter, rule: str = "chi2:0.975", labels=None) -> DetectionResult:
    """Flag outliers by robust Mahalanobis distance.

    chi2:PROB flags distances above sqrt(chi2_{p, PROB}); top:M flags the M
    largest distances, ties resolved in favour of the lower index. With
    ``labels`` given, the AUC of the distances is attached.
    """
    x = as_data_matrix(data)
    distances = np.sqrt(mahalanobis_sq(x, ls))
    n = distances.size
    kind, value = parse_rule(rule)
    if kind == "chi2":
        cutoff = float(np.sqrt(numeric.chi_square_quantile(x.shape[1], value)))
        flags = distances > cutoff
    else:
        m = value
        if m > n:
            raise InvalidRule(f"top count {m} exceeds the sample count {n}")
        flags = np.zeros(n, dtype=bool)
        flags[numeric.smallest(-distances, m)] = True
        # The largest unflagged distance; -1 when every sample is flagged.
        cutoff = float(distances[~flags].max()) if m < n else -1.0
    auc = auc_score(distances, labels) if labels is not None else None
    return DetectionResult(distances, flags, cutoff, auc)


def export_diagnostics_csv(fh, diagnostics: PcaDiagnostics, detection: DetectionResult) -> None:
    """Plot-ready CSV: index, sd, od, category, distance, flag."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["index", "sd", "od", "category", "distance", "flag"])
    for i in range(diagnostics.sd.size):
        writer.writerow(
            [
                i,
                repr(float(diagnostics.sd[i])),
                repr(float(diagnostics.od[i])),
                diagnostics.category[i],
                repr(float(detection.distances[i])),
                int(detection.flags[i]),
            ]
        )
