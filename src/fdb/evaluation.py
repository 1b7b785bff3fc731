"""Monte-Carlo benchmark machinery: data generation, contamination, metrics.

Clean samples are built as x = G y with y standard normal and G the unit
diagonal / constant off-diagonal mixing matrix; outliers are injected in
y-space before mixing. Estimates computed on x are mapped back to y-space
with G^-1 and scored against the truth (0, I) with four accuracy metrics
plus wall time.
"""

from __future__ import annotations

import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import numeric
from .depth import as_data_matrix
from .errors import (
    DimensionError,
    FdbError,
    InvalidConfig,
    InvalidContamination,
    SingularTransform,
)
from .estimators import (
    EstimatorConfig,
    LocationScatter,
    fastmcd_baseline,
    fdb_estimate,
)

# Simulation settings: name -> (n, p). Low, moderate and high dimension.
SETTINGS = {"A": (200, 5), "B": (400, 40), "C": (2000, 200)}

CONTAMINATION_KINDS = ("none", "point", "random", "cluster", "radial")
METHODS = ("fdb-pro", "fdb-l2", "fastmcd")
METRIC_NAMES = ("e_mu", "e_sigma", "mse", "kl", "seconds")

# A benchmark cell is flagged when more than this fraction of replicates fail.
FAILURE_FLAG_FRACTION = 0.01


@dataclass(frozen=True)
class GenerationSpec:
    """Clean-data generator: n samples of x = G y, y ~ N_p(0, I)."""

    n: int
    p: int
    off_diagonal: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise DimensionError(f"need n >= 1 and p >= 1, got n={self.n}, p={self.p}")
        lo = -1.0 / (self.p - 1) if self.p > 1 else -np.inf
        if not lo < self.off_diagonal < 1.0:
            raise InvalidConfig(
                f"off-diagonal {self.off_diagonal} outside ({lo}, 1); G would be singular"
            )


@dataclass(frozen=True)
class ContaminationSpec:
    """Outlier injection: kind, contamination fraction and abnormality level.

    The last m = floor(n * epsilon) rows are replaced in y-space. ``r`` is
    ignored for radial contamination.
    """

    kind: str
    epsilon: float
    r: float = 5.0

    def __post_init__(self):
        if self.kind not in CONTAMINATION_KINDS:
            raise InvalidContamination(f"unknown contamination kind {self.kind!r}")
        if not 0.0 <= self.epsilon <= 0.5:
            raise InvalidContamination(f"epsilon must lie in [0, 0.5], got {self.epsilon}")


@dataclass
class MetricsReport:
    """Accuracy metrics of one replicate, plus the estimator wall time."""

    e_mu: float
    e_sigma: float
    mse_single: float
    kl: float
    seconds: float


def build_g(p: int, off_diagonal: float = 0.75) -> np.ndarray:
    """Mixing matrix with unit diagonal and constant off-diagonal entries."""
    g = np.full((p, p), off_diagonal)
    np.fill_diagonal(g, 1.0)
    return g


def generate_clean(spec: GenerationSpec):
    """Draw Y ~ N(0, I) rowwise and return (X, Y, G) with X = Y G'."""
    rng = np.random.default_rng(spec.seed)
    y = rng.standard_normal((spec.n, spec.p))
    g = build_g(spec.p, spec.off_diagonal)
    return y @ g.T, y, g


def contaminate(y, spec: ContaminationSpec, seed=0):
    """Replace the last m rows of Y by outliers drawn per ``spec.kind``.

    Returns (Y', labels) where labels mark the replaced rows. The first
    n - m rows are passed through untouched; the caller mixes with G
    afterwards. Mechanisms, all in y-space:

    - point:   N(r * sqrt(p) * a, 0.01^2 I), a a random unit vector
               orthogonal to the all-ones vector (needs p >= 2);
    - random:  N(mu_i, I) with mu_i = r * p^(1/4) * nu/|nu|, nu ~ N(0, I)
               redrawn per outlier;
    - cluster: N(r * p^(-1/4) * ones, I);
    - radial:  N(0, 5 I), with 5 taken literally as the covariance scale.
    """
    y = as_data_matrix(y)
    n, p = y.shape
    m = int(math.floor(n * spec.epsilon))
    out = y.copy()
    labels = np.zeros(n, dtype=bool)
    if spec.kind == "none" or m == 0:
        return out, labels
    labels[n - m :] = True
    rng = np.random.default_rng(seed)
    if spec.kind == "point":
        if p < 2:
            raise InvalidContamination(
                "point contamination needs p >= 2: no direction is orthogonal to the ones vector"
            )
        ones = np.ones(p)
        while True:
            v = rng.standard_normal(p)
            v -= (v @ ones) / p * ones
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                break
        a = v / norm
        out[n - m :] = spec.r * math.sqrt(p) * a + 0.01 * rng.standard_normal((m, p))
    elif spec.kind == "random":
        nu = rng.standard_normal((m, p))
        norms = np.linalg.norm(nu, axis=1, keepdims=True)
        while np.any(norms == 0.0):
            bad = norms[:, 0] == 0.0
            nu[bad] = rng.standard_normal((int(bad.sum()), p))
            norms = np.linalg.norm(nu, axis=1, keepdims=True)
        centers = spec.r * p**0.25 * nu / norms
        out[n - m :] = centers + rng.standard_normal((m, p))
    elif spec.kind == "cluster":
        center = spec.r * p**-0.25 * np.ones(p)
        out[n - m :] = center + rng.standard_normal((m, p))
    else:  # radial
        out[n - m :] = math.sqrt(5.0) * rng.standard_normal((m, p))
    return out, labels


def back_transform(ls: LocationScatter, g) -> LocationScatter:
    """Map an x-space estimate to y-space: mu_y = G^-1 mu_x, Sigma_y = G^-1 Sigma_x G^-T."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"G must be square, got shape {g.shape}")
    try:
        mu = np.linalg.solve(g, ls.mu)
        half = np.linalg.solve(g, ls.sigma)
        sigma = np.linalg.solve(g, half.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularTransform(f"back-transformation matrix is singular: {exc}") from None
    return LocationScatter(mu, numeric.symmetrize(sigma), ls.provenance)


def oracle_ellipsoid_subset(y, alpha: float) -> np.ndarray:
    """Indices of the floor(alpha * n) samples closest to the known truth (0, I).

    For Gaussian y the selected set estimates the central ellipsoid of
    probability alpha, whose squared radius is chi2_{p, alpha}.
    """
    y = as_data_matrix(y)
    n = y.shape[0]
    h = int(math.floor(alpha * n))
    d2 = np.einsum("ij,ij->i", y, y)
    return np.sort(np.argsort(d2, kind="stable")[:h])


def location_error(ls: LocationScatter, mu0) -> float:
    """Euclidean distance between the estimated and the true location."""
    mu0 = np.asarray(mu0, dtype=float).ravel()
    if mu0.size != ls.p:
        raise DimensionError(f"true location has dimension {mu0.size}, estimate has {ls.p}")
    return float(np.linalg.norm(ls.mu - mu0))


def _whitened(sigma_hat, sigma_true) -> np.ndarray:
    # L^-1 sigma_hat L^-T with sigma_true = L L': similar to
    # sigma_hat sigma_true^-1 (same eigenvalues) but symmetric.
    lower = numeric.cholesky(sigma_true)
    inner = solve_triangular(lower, np.asarray(sigma_hat, dtype=float), lower=True)
    inner = solve_triangular(lower, inner.T, lower=True)
    return numeric.symmetrize(inner)


def scatter_cond_error(sigma_hat, sigma_true) -> float:
    """log10 condition number of sigma_hat sigma_true^-1."""
    cond = numeric.condition_number(_whitened(sigma_hat, sigma_true))
    return float(np.log10(cond))


def scatter_mse_single(sigma_hat, sigma_true) -> float:
    """Per-replicate squared-error term |sigma_hat - sigma_true|_F^2 / p^2."""
    diff = np.asarray(sigma_hat, dtype=float) - np.asarray(sigma_true, dtype=float)
    p = diff.shape[0]
    return float(np.sum(diff * diff) / (p * p))


def kl_divergence(sigma_hat, sigma_true) -> float:
    """Gaussian KL divergence trace(S T^-1) - log det(S T^-1) - p."""
    w = _whitened(sigma_hat, sigma_true)
    p = w.shape[0]
    trace = float(np.trace(w))
    logdet = numeric.log_determinant(numeric.cholesky(w))
    return trace - logdet - p


def evaluate_estimate(ls: LocationScatter, mu0, sigma_true, seconds: float) -> MetricsReport:
    """All four accuracy metrics of one estimate against the truth."""
    return MetricsReport(
        e_mu=location_error(ls, mu0),
        e_sigma=scatter_cond_error(ls.sigma, sigma_true),
        mse_single=scatter_mse_single(ls.sigma, sigma_true),
        kl=kl_divergence(ls.sigma, sigma_true),
        seconds=seconds,
    )


@dataclass(frozen=True)
class BenchmarkCell:
    """One grid point: setting x contamination x method."""

    setting: str
    kind: str
    epsilon: float
    r: float
    method: str

    def normalized(self) -> "BenchmarkCell":
        if self.kind == "none" or self.epsilon == 0.0:
            return BenchmarkCell(self.setting, "none", 0.0, 0.0, self.method)
        return self


@dataclass
class BenchmarkRow:
    """Aggregated result for one cell and one metric."""

    setting: str
    kind: str
    epsilon: float
    r: float
    method: str
    metric: str
    mean: float
    sd: float
    replicates: int
    failures: int = 0

    @property
    def flagged(self) -> bool:
        total = self.replicates + self.failures
        return total > 0 and self.failures > FAILURE_FLAG_FRACTION * total


def default_alpha(epsilon: float) -> float:
    """Core-set fraction rule used by the simulation study."""
    return 0.5 if epsilon >= 0.4 else 0.75


def _replicate_seeds(seed: int, replicate: int) -> "tuple[int, int, int, int]":
    # Independent substreams for generation, contamination, shuffling and the
    # estimator, all reproducible from (seed, replicate).
    root = np.random.SeedSequence(entropy=(seed, replicate))
    return tuple(int(s.generate_state(1)[0]) for s in root.spawn(4))


def _run_method(x, method: str, alpha: float, seed: int):
    # run_benchmark spends its threads on replicates, so every estimate runs
    # its depth kernel on one thread.
    n = x.shape[0]
    if method in ("fdb-pro", "fdb-l2"):
        depth = "projection" if method == "fdb-pro" else "l2"
        return fdb_estimate(x, EstimatorConfig(alpha=alpha, depth=depth, seed=seed, threads=1))
    if method == "fastmcd":
        return fastmcd_baseline(x, h=int(math.floor(alpha * n)), seed=seed)
    raise InvalidConfig(f"unknown method {method!r}")


def run_replicate(
    cell: BenchmarkCell,
    replicate: int,
    seed: int,
    alpha: "float | None" = None,
    settings: "dict | None" = None,
) -> MetricsReport:
    """Generate, contaminate, shuffle, estimate and score one replicate."""
    n, p = (settings or SETTINGS)[cell.setting]
    gen_seed, cont_seed, shuffle_seed, est_seed = _replicate_seeds(seed, replicate)
    _, y, g = generate_clean(GenerationSpec(n, p, seed=gen_seed))
    y2, _ = contaminate(y, ContaminationSpec(cell.kind, cell.epsilon, cell.r), seed=cont_seed)
    # Shuffle so that estimators cannot exploit the placement of the outliers.
    perm = np.random.default_rng(shuffle_seed).permutation(n)
    x = y2[perm] @ g.T
    cell_alpha = alpha if alpha is not None else default_alpha(cell.epsilon)
    report = _run_method(x, cell.method, cell_alpha, est_seed)
    ls_y = back_transform(report.estimate, g)
    return evaluate_estimate(ls_y, np.zeros(p), np.eye(p), report.elapsed_seconds)


def run_benchmark(
    cells,
    replicates: int,
    seed: int = 0,
    alpha: "float | None" = None,
    threads: int = 1,
    settings: "dict | None" = None,
    progress=None,
) -> "list[BenchmarkRow]":
    """Average the metrics of every cell over ``replicates`` replicates.

    Estimator failures are counted per cell and excluded from the averages;
    a cell with more than 1% failures is flagged. Results are identical for
    any thread count: replicate streams depend only on (seed, replicate) and
    aggregation is indexed by replicate.
    """
    cells = [cell.normalized() for cell in cells]
    if not cells:
        raise InvalidConfig("benchmark grid is empty")
    if replicates < 1:
        raise InvalidConfig(f"need at least one replicate, got {replicates}")
    rows: "list[BenchmarkRow]" = []
    for cell in cells:
        results: "list[MetricsReport | None]" = [None] * replicates

        def one(rep: int, cell=cell):
            try:
                return run_replicate(cell, rep, seed, alpha=alpha, settings=settings)
            except InvalidConfig:
                raise  # a bad setting fails every replicate alike
            except FdbError:
                return None

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for rep, metrics in enumerate(pool.map(one, range(replicates))):
                    results[rep] = metrics
                    if progress is not None:
                        progress(cell, rep + 1, replicates)
        else:
            for rep in range(replicates):
                results[rep] = one(rep)
                if progress is not None:
                    progress(cell, rep + 1, replicates)

        kept = [m for m in results if m is not None]
        failures = replicates - len(kept)
        for metric in METRIC_NAMES:
            attr = "mse_single" if metric == "mse" else metric
            values = np.array([getattr(m, attr) for m in kept], dtype=float)
            mean = float(values.mean()) if values.size else float("nan")
            sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(
                BenchmarkRow(
                    setting=cell.setting,
                    kind=cell.kind,
                    epsilon=cell.epsilon,
                    r=cell.r,
                    method=cell.method,
                    metric=metric,
                    mean=mean,
                    sd=sd,
                    replicates=len(kept),
                    failures=failures,
                )
            )
    return rows


def export_benchmark_csv(rows, fh) -> None:
    """Write benchmark rows as CSV with the fixed column schema."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["setting", "kind", "epsilon", "r", "method", "metric", "mean", "sd", "replicates"]
    )
    for row in rows:
        writer.writerow(
            [
                row.setting,
                row.kind,
                repr(float(row.epsilon)),
                repr(float(row.r)),
                row.method,
                row.metric,
                repr(float(row.mean)),
                repr(float(row.sd)),
                row.replicates,
            ]
        )


def format_benchmark_table(rows) -> str:
    """Human-readable 'mean (sd)' summary, three decimals, one line per cell."""
    cells: "dict[tuple, dict[str, BenchmarkRow]]" = {}
    for row in rows:
        key = (row.setting, row.kind, row.epsilon, row.r, row.method)
        cells.setdefault(key, {})[row.metric] = row
    lines = []
    for (setting, kind, epsilon, r, method), metrics in cells.items():
        parts = [f"{setting} {kind:7s} eps={epsilon:.2f} r={r:g} {method:8s}"]
        for name in METRIC_NAMES:
            row = metrics.get(name)
            if row is None:
                continue
            parts.append(f"{name}={row.mean:.3f} ({row.sd:.3f})")
        row0 = next(iter(metrics.values()))
        if row0.flagged:
            parts.append(f"[FLAGGED: {row0.failures} failures]")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def print_progress(cell: BenchmarkCell, done: int, total: int, stream=sys.stderr) -> None:
    """Progress reporter for long benchmark runs (stderr by default)."""
    if done == total or done % 25 == 0:
        print(
            f"[{cell.setting}/{cell.kind}/eps={cell.epsilon:g}/{cell.method}] "
            f"{done}/{total} replicates",
            file=stream,
            flush=True,
        )
