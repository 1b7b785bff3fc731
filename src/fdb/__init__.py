"""Fast depth-based robust multivariate location and scatter estimation.

The package approximates the minimum-covariance-determinant core set with the
deepest h samples under a statistical depth (projection depth via random
directions, or exact L2 depth), then applies consistency scaling and a
reweighting step. A FASTMCD-style concentration-step baseline, an exhaustive
oracle for tiny instances, a Monte-Carlo contamination benchmark and robust
PCA / outlier-detection workflows round out the toolkit.
"""

from .applications import (
    DetectionResult,
    PcaDiagnostics,
    PcaModel,
    auc_score,
    detect_outliers,
    pca_diagnostics,
    robust_pca,
)
from .depth import (
    DirectionSet,
    deepest_subset,
    default_direction_count,
    l2_depth,
    projection_depth,
    sample_directions,
)
from .estimators import (
    EstimationReport,
    EstimatorConfig,
    LocationScatter,
    ReweightResult,
    c_step,
    exhaustive_mcd,
    fastmcd_baseline,
    fdb_estimate,
    iterate_c_steps,
    mahalanobis_sq,
    reweight,
    subset_mean_cov,
)
from .evaluation import (
    BenchmarkCell,
    BenchmarkRow,
    ContaminationSpec,
    GenerationSpec,
    MetricsReport,
    back_transform,
    build_g,
    contaminate,
    generate_clean,
    kl_divergence,
    location_error,
    oracle_ellipsoid_subset,
    run_benchmark,
    scatter_cond_error,
    scatter_mse_single,
)
from .numeric import (
    EigenDecomposition,
    chi_square_quantile,
    cholesky,
    condition_number,
    eigen_symmetric,
    log_determinant,
    mad,
    median,
)

__version__ = "0.1.0"
