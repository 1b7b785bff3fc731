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
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from . import numeric
from .depth import as_data_matrix, checked_integer
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
        checked_integer(self.n, "sample count", None)
        checked_integer(self.p, "dimension", None)
        checked_integer(self.seed, "seed", 0)
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
        if not math.isfinite(self.r):
            raise InvalidContamination(f"r must be finite, got {self.r}")


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
    checked_integer(seed, "seed", 0)
    n, p = y.shape
    m = _outlier_count(n, p, spec)
    out = y.copy()
    labels = np.zeros(n, dtype=bool)
    if spec.kind == "none" or m == 0:
        return out, labels
    labels[n - m :] = True
    rng = np.random.default_rng(seed)
    if spec.kind == "point":
        ones = np.ones(p)
        v = rng.standard_normal(p)
        v -= (v @ ones) / p * ones
        a = v / np.linalg.norm(v)
        out[n - m :] = spec.r * math.sqrt(p) * a + 0.01 * rng.standard_normal((m, p))
    elif spec.kind == "random":
        nu = rng.standard_normal((m, p))
        centers = spec.r * p**0.25 * nu / np.linalg.norm(nu, axis=1, keepdims=True)
        out[n - m :] = centers + rng.standard_normal((m, p))
    elif spec.kind == "cluster":
        center = spec.r * p**-0.25 * np.ones(p)
        out[n - m :] = center + rng.standard_normal((m, p))
    else:  # radial
        out[n - m :] = math.sqrt(5.0) * rng.standard_normal((m, p))
    return out, labels


def _outlier_count(n: int, p: int, spec: ContaminationSpec) -> int:
    # m = floor(n * epsilon), the rows that contaminate replaces.
    m = int(math.floor(n * spec.epsilon))
    if spec.kind == "point" and m and p < 2:
        raise InvalidContamination(
            "point contamination needs p >= 2: no direction is orthogonal to the ones vector"
        )
    return m


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
    return LocationScatter(mu, numeric.symmetrize(sigma))


def oracle_ellipsoid_subset(y, alpha: float) -> np.ndarray:
    """Indices of the floor(alpha * n) samples closest to the known truth (0, I).

    For Gaussian y the selected set estimates the central ellipsoid of
    probability alpha, whose squared radius is chi2_{p, alpha}.
    """
    y = as_data_matrix(y)
    h = int(math.floor(alpha * y.shape[0]))
    return numeric.smallest(np.einsum("ij,ij->i", y, y), h)


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
    return _cond_error(_whitened(sigma_hat, sigma_true))


def _cond_error(w: np.ndarray) -> float:
    # scatter_cond_error from the whitened scatter w.
    return float(np.log10(numeric.condition_number(w)))


def scatter_mse_single(sigma_hat, sigma_true) -> float:
    """Per-replicate squared-error term |sigma_hat - sigma_true|_F^2 / p^2."""
    diff = np.asarray(sigma_hat, dtype=float) - np.asarray(sigma_true, dtype=float)
    p = diff.shape[0]
    return float(np.sum(diff * diff) / (p * p))


def kl_divergence(sigma_hat, sigma_true) -> float:
    """Gaussian KL divergence trace(S T^-1) - log det(S T^-1) - p."""
    return _kl(_whitened(sigma_hat, sigma_true))


def _kl(w: np.ndarray) -> float:
    # kl_divergence from the whitened scatter w.
    trace = float(np.trace(w))
    logdet = numeric.log_determinant(numeric.cholesky(w))
    return trace - logdet - w.shape[0]


def evaluate_estimate(ls: LocationScatter, seconds: float) -> MetricsReport:
    """All four accuracy metrics of one y-space estimate against the
    simulation's truth (0, I), and ``seconds``. Whitened by I, an exactly
    symmetric scatter, as ``back_transform`` returns, is itself bit for
    bit, so the condition number and the KL are taken from it directly."""
    return MetricsReport(
        e_mu=location_error(ls, np.zeros(ls.p)),
        e_sigma=_cond_error(ls.sigma),
        mse_single=scatter_mse_single(ls.sigma, np.eye(ls.p)),
        kl=_kl(ls.sigma),
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


def run_estimator(
    x, method: str, alpha: float = 0.75, k=None, seed: int = 0, reweight: bool = True,
    n_starts: int = 500, threads=None,
):
    """The ``EstimationReport`` of the method named ``method`` (one of
    ``METHODS``) on ``x``: ``fdb_estimate`` with projection or L2 depth, or
    ``fastmcd_baseline`` with h = floor(alpha * n) and ``n_starts`` starts.
    ``alpha`` must lie in [0.5, 1] for every method, as ``EstimatorConfig``
    requires, and so must ``n_starts`` be a positive integer, though only
    fastmcd uses it; ``k`` and ``threads`` apply to the depth methods only.
    """
    if method not in METHODS:
        raise InvalidConfig(f"unknown method {method!r}")
    checked_integer(n_starts, "start count", 1)
    depth = "l2" if method == "fdb-l2" else "projection"
    config = EstimatorConfig(
        alpha=alpha, depth=depth, k=k, seed=seed, reweight=reweight, threads=threads
    )
    if method == "fastmcd":
        h = int(math.floor(alpha * len(x)))
        return fastmcd_baseline(x, h, n_starts=n_starts, seed=seed, reweight_estimate=reweight)
    return fdb_estimate(x, config)


def _cell_specs(cell: BenchmarkCell, settings: "dict | None"):
    """The (GenerationSpec, ContaminationSpec) of ``cell``, the generation
    seed left at 0; ``InvalidConfig`` for a setting missing from
    ``settings`` (default ``SETTINGS``)."""
    try:
        n, p = (settings or SETTINGS)[cell.setting]
    except KeyError:
        raise InvalidConfig(f"unknown setting {cell.setting!r}") from None
    return GenerationSpec(n, p), ContaminationSpec(cell.kind, cell.epsilon, cell.r)


def check_grid(
    cells, replicates: int, alpha: "float | None" = None, settings: "dict | None" = None
) -> None:
    """Raise the error that would stop ``run_benchmark`` on this grid, if any:
    ``InvalidConfig`` for an empty grid, fewer than one replicate, an alpha
    outside [0.5, 1], an unknown method or a setting missing from
    ``settings`` (default ``SETTINGS``); ``InvalidContamination`` for an
    unknown kind or a contamination the setting cannot take; and
    ``DimensionError`` for an impossible size. A cell's error names the cell.
    """
    if not cells:
        raise InvalidConfig("benchmark grid is empty")
    if checked_integer(replicates, "replicate count", None) < 1:
        raise InvalidConfig(f"need at least one replicate, got {replicates}")
    if alpha is not None:
        EstimatorConfig(alpha=alpha)  # the estimators' own alpha rule
    for cell in cells:
        try:
            if cell.method not in METHODS:
                raise InvalidConfig(f"unknown method {cell.method!r}")
            # Checked before normalizing, which turns any kind at epsilon 0
            # into "none".
            if cell.kind not in CONTAMINATION_KINDS:
                raise InvalidContamination(f"unknown contamination kind {cell.kind!r}")
            generation, contamination = _cell_specs(cell.normalized(), settings)
            _outlier_count(generation.n, generation.p, contamination)
        except FdbError as exc:
            raise type(exc)(
                f"cell {cell.setting}/{cell.kind}/eps={cell.epsilon:g}/r={cell.r:g}/{cell.method}"
                f" cannot run: {exc}"
            ) from None


def run_replicate(
    cell: BenchmarkCell,
    replicate: int,
    seed: int,
    alpha: "float | None" = None,
    settings: "dict | None" = None,
) -> MetricsReport:
    """Generate, contaminate, shuffle, estimate and score one replicate."""
    generation, contamination = _cell_specs(cell, settings)
    n = generation.n
    gen_seed, cont_seed, shuffle_seed, est_seed = _replicate_seeds(seed, replicate)
    _, y, g = generate_clean(replace(generation, seed=gen_seed))
    y2, _ = contaminate(y, contamination, seed=cont_seed)
    # Shuffle so that estimators cannot exploit the placement of the outliers.
    perm = np.random.default_rng(shuffle_seed).permutation(n)
    x = y2[perm] @ g.T
    cell_alpha = alpha if alpha is not None else default_alpha(cell.epsilon)
    # run_benchmark spends its threads on replicates, so every estimate runs
    # its depth kernel on one thread.
    report = run_estimator(x, cell.method, cell_alpha, seed=est_seed, threads=1)
    ls_y = back_transform(report.estimate, g)
    return evaluate_estimate(ls_y, report.elapsed_seconds)


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
    a cell with more than 1% failures is flagged. A grid that cannot run
    raises instead: ``check_grid`` checks every cell before the first
    replicate runs. Results are identical for any thread count: replicate
    streams depend only on (seed, replicate) and aggregation is indexed by
    replicate.
    """
    threads = checked_integer(threads, "thread count", 1)
    checked_integer(seed, "seed", 0)
    cells = list(cells)
    check_grid(cells, replicates, alpha, settings)
    rows: "list[BenchmarkRow]" = []
    for cell in map(BenchmarkCell.normalized, cells):

        def one(rep: int, cell=cell):
            try:
                return run_replicate(cell, rep, seed, alpha=alpha, settings=settings)
            except (InvalidConfig, InvalidContamination):
                raise  # a bad setting fails every replicate alike
            except FdbError:
                return None

        results: "list[MetricsReport | None]" = []
        with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
            for metrics in (map if pool is None else pool.map)(one, range(replicates)):
                results.append(metrics)
                if progress is not None:
                    progress(cell, len(results), replicates)

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
