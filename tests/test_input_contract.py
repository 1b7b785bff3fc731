"""Every exported function that takes a sample matrix rejects NaN, inf and
1-d input with an FdbError, and every count or seed that is not an integer
with InvalidConfig.

Public entry points validate the whole matrix once. The C-step primitives
(c_step, iterate_c_steps, reweight, subset_mean_cov, mahalanobis_sq) do not
scan their input; they reject a non-finite value once it reaches their
distances or covariance, and a matrix of the wrong shape once they use it.
"""

import inspect

import numpy as np
import pytest

import fdb
from fdb.errors import DimensionError, InvalidConfig, NonFiniteValues

N, P, H = 30, 3, 20
STATE = fdb.LocationScatter(np.zeros(P), np.eye(P))
MODEL = fdb.PcaModel(np.zeros(P), np.eye(P)[:, :2], np.ones(2))

# name -> call on a sample matrix. The bad value goes in row 0, which
# subset_mean_cov selects.
CALLS = {
    "c_step": lambda x: fdb.c_step(x, STATE, H),
    "iterate_c_steps": lambda x: fdb.iterate_c_steps(x, STATE, H),
    "reweight": lambda x: fdb.reweight(x, STATE),
    "subset_mean_cov": lambda x: fdb.subset_mean_cov(x, np.arange(H)),
    "mahalanobis_sq": lambda x: fdb.mahalanobis_sq(x, STATE),
    "fdb_estimate": lambda x: fdb.fdb_estimate(x, fdb.EstimatorConfig(k=50)),
    "fastmcd_baseline": lambda x: fdb.fastmcd_baseline(x, H, n_starts=5),
    "exhaustive_mcd": lambda x: fdb.exhaustive_mcd(x, N - 1),
    "projection_depth": lambda x: fdb.projection_depth(x, fdb.sample_directions(P, 50, 0)),
    "l2_depth": lambda x: fdb.l2_depth(x),
    "robust_pca": lambda x: fdb.robust_pca(x, STATE, 2),
    "pca_diagnostics": lambda x: fdb.pca_diagnostics(x, MODEL),
    "detect_outliers": lambda x: fdb.detect_outliers(x, STATE),
    "contaminate": lambda x: fdb.contaminate(x, fdb.ContaminationSpec("cluster", 0.2)),
    "oracle_ellipsoid_subset": lambda x: fdb.oracle_ellipsoid_subset(x, 0.75),
}


def _clean():
    return np.random.default_rng(5).standard_normal((N, P))


def test_every_sample_matrix_function_is_covered():
    takes_matrix = {
        name
        for name, obj in vars(fdb).items()
        if inspect.isfunction(obj)
        and next(iter(inspect.signature(obj).parameters), None) in ("data", "y")
    }
    assert takes_matrix == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_clean_input_is_accepted(name):
    CALLS[name](_clean())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_value_is_rejected(name, bad):
    x = _clean()
    x[0, 1] = bad
    with pytest.raises(NonFiniteValues), np.errstate(all="ignore"):
        CALLS[name](x)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_dimensional_input_is_rejected(name):
    with pytest.raises(DimensionError), np.errstate(all="ignore"):
        CALLS[name](_clean()[:, 0])


# name -> call with a count or seed that is not an integer, or a negative seed.
BAD_COUNTS = {
    "deepest_subset": lambda: fdb.deepest_subset(np.arange(10.0), 2.5),
    "robust_pca": lambda: fdb.robust_pca(_clean(), STATE, 2.5),
    "iterate_c_steps h": lambda: fdb.iterate_c_steps(_clean(), STATE, 20.5),
    "iterate_c_steps max_iter": lambda: fdb.iterate_c_steps(_clean(), STATE, H, max_iter=2.5),
    "exhaustive_mcd": lambda: fdb.exhaustive_mcd(_clean()[:10], 5.5),
    "run_benchmark": lambda: fdb.run_benchmark(
        [fdb.BenchmarkCell("A", "none", 0.0, 5.0, "fdb-pro")], 2.5
    ),
    "generate_clean": lambda: fdb.generate_clean(fdb.GenerationSpec(2.5, 3)),
    "GenerationSpec seed": lambda: fdb.GenerationSpec(10, 3, seed=-1),
    "EstimatorConfig alpha": lambda: fdb.EstimatorConfig(alpha="0.7"),
    "contaminate seed": lambda: fdb.contaminate(
        _clean(), fdb.ContaminationSpec("cluster", 0.2), seed=-1
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_COUNTS))
def test_bad_count_or_seed_is_invalid_config(name):
    with pytest.raises(InvalidConfig):
        BAD_COUNTS[name]()
