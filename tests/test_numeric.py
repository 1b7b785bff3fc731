import math

import numpy as np
import pytest

from fdb.errors import (
    ConvergenceFailure,
    DimensionError,
    DomainError,
    EmptyInput,
    NonFiniteValues,
    NotPositiveDefinite,
    NotSymmetric,
)
from fdb.numeric import (
    chi_square_quantile,
    cholesky,
    cholesky_stack,
    condition_number,
    eigen_symmetric,
    log_determinant,
    mad,
    median,
    row_medians,
    smallest,
    triangular_inverse,
)
from oracles import (
    cofactor_determinant,
    frozen_chi_square_examples,
    random_spd,
)


class TestMedian:
    def test_odd_length(self):
        assert median([2, 1, 3]) == 2

    def test_even_length_midpoint(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_singleton(self):
        assert median([5]) == 5

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            median([])

    def test_permutation_invariant(self, rng):
        values = rng.standard_normal(101)
        reference = median(values)
        for _ in range(20):
            assert median(rng.permutation(values)) == reference


class TestMad:
    def test_symmetric_deviations(self):
        assert mad([1, 2, 3]) == 1

    def test_even_length(self):
        # median 3, deviations {2, 1, 1, 4}, median of those 1.5
        assert mad([1, 2, 4, 7]) == 1.5

    def test_constant_data(self):
        assert mad([4.2, 4.2, 4.2]) == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            mad([])

    def test_permutation_invariant(self, rng):
        values = rng.standard_normal(64)
        reference = mad(values)
        for _ in range(20):
            assert mad(rng.permutation(values)) == reference


def _median_rows(n, rng):
    """Rows of length n that stress a selection: draws, ties, one repeated
    value, signed zeros, and values near +-1e300."""
    return np.stack(
        [
            rng.standard_normal(n),
            np.round(2.0 * rng.standard_normal(n)),
            np.full(n, 3.25),
            rng.choice([-0.0, 0.0], size=n),
            rng.choice([-0.0, 0.0, -1.0, 1.0], size=n),
            rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.5, size=n) * 1e300,
            rng.uniform(0.5, 1.5, size=n) * 1e300,
        ]
    )


# Either side of numeric._SORT_MAX_N (256), where row_medians turns from a
# sort to a single-kth selection, and the short and long rows beyond it.
_ROW_LENGTHS = [1, 2, 3, 255, 256, 257, 400, 2000, 2001]


class TestRowMedians:
    """``row_medians`` against np.median. For NaN-free floats, == holds
    exactly when the bits agree or both values are zeros of either sign, so
    array_equal checks bit equality up to the sign of a zero median."""

    @pytest.mark.parametrize("n", _ROW_LENGTHS)
    def test_equals_np_median(self, rng, n):
        values = _median_rows(n, rng)
        before = values.copy()
        work = np.empty_like(values)
        want = np.median(values, axis=1)
        assert np.array_equal(row_medians(values, work), want)
        assert np.array_equal(row_medians(values), want)
        for row, expected in zip(values, want):
            assert np.array_equal(row_medians(row), expected)
            assert median(row) == expected
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("n", _ROW_LENGTHS)
    def test_mad_bitwise_equals_np_median(self, rng, n):
        # Absolute deviations carry no negative zero, so here the bits agree.
        values = _median_rows(n, rng)
        dev = np.abs(values - row_medians(values)[:, None])
        want = np.median(np.abs(values - np.median(values, axis=1)[:, None]), axis=1)
        got = row_medians(dev, np.empty_like(dev))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for row, expected in zip(values, want):
            assert np.float64(mad(row)).view(np.int64) == expected.view(np.int64)

    @pytest.mark.parametrize("n", _ROW_LENGTHS)
    def test_nan_ranks_above_every_number(self, rng, n):
        # With (n - 1) // 2 NaNs per row both central values stay numbers,
        # and the median is that of the row with each NaN read as +inf; with
        # n - n // 2 NaNs the upper central value is a NaN.
        values = _median_rows(n, rng)
        for count, finite in [((n - 1) // 2, True), (n - n // 2, False)]:
            with_nan = values.copy()
            for row in with_nan:
                row[rng.choice(n, size=count, replace=False)] = np.nan
            before = with_nan.copy()
            if finite:
                want = np.median(np.where(np.isnan(with_nan), np.inf, with_nan), axis=1)
            else:
                want = np.full(len(values), np.nan)
            for medians in (
                row_medians(with_nan),
                row_medians(with_nan, np.empty_like(with_nan)),
                np.array([row_medians(row) for row in with_nan]),
            ):
                assert np.array_equal(medians, want, equal_nan=True)
            assert np.array_equal(with_nan, before, equal_nan=True)


class TestSmallest:
    @pytest.mark.parametrize("h", [0, 1, 17, 40])
    def test_ties_go_to_the_lower_index(self, rng, h):
        # Five distinct values over 40 columns: every cut falls in a tie.
        d2 = rng.integers(0, 5, size=(6, 40)).astype(float)
        expected = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :h], axis=1)
        got = smallest(d2, h)
        assert got.shape == (6, h) and np.array_equal(got, expected)
        for row, want in zip(d2, expected):
            got = smallest(row, h)
            assert got.shape == (h,) and np.array_equal(got, want)

    @pytest.mark.parametrize("tied_row", [None, 2])
    @pytest.mark.parametrize("h", [1, 17, 39, 40])
    def test_tie_free_rows_beside_a_tied_one(self, rng, tied_row, h):
        # Distinct values take every row's first h at once; one row of five
        # distinct values makes the whole stack resolve its ties.
        d2 = rng.standard_normal((5, 40))
        if tied_row is not None:
            d2[tied_row] = rng.integers(0, 5, size=40)
        expected = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :h], axis=1)
        assert np.array_equal(smallest(d2, h), expected)


class TestChiSquareQuantile:
    def test_dof2_closed_form(self):
        # chi-square with 2 dof has CDF 1 - exp(-x/2)
        assert chi_square_quantile(2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert chi_square_quantile(2, 0.975) == pytest.approx(-2 * math.log(0.025), abs=1e-12)

    def test_against_quadrature_oracle(self):
        for dof, prob, expected in frozen_chi_square_examples():
            assert chi_square_quantile(dof, prob) == pytest.approx(expected, abs=1e-8)

    def test_monotone_in_prob_and_dof(self):
        probs = [0.05, 0.25, 0.5, 0.75, 0.9, 0.975, 0.99]
        for dof in (1, 2, 3, 5, 10, 50, 200):
            values = [chi_square_quantile(dof, prob) for prob in probs]
            assert all(a < b for a, b in zip(values, values[1:]))
        for prob in probs:
            values = [chi_square_quantile(dof, prob) for dof in (1, 2, 5, 20, 100, 250)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_quantile(2, 0.0)
        with pytest.raises(DomainError):
            chi_square_quantile(2, 1.0)
        with pytest.raises(DomainError):
            chi_square_quantile(0, 0.5)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        lower = cholesky([[4.0, 2.0], [2.0, 5.0]])
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_reconstruction_random_spd(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 51))
            m = random_spd(rng, p)
            lower = cholesky(m)
            err = np.linalg.norm(lower @ lower.T - m) / np.linalg.norm(m)
            assert err <= 1e-10
            assert np.all(np.diagonal(lower) > 0)

    def test_not_positive_definite_carries_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.pivot_index == 1

    def test_pivot_below_tolerance_before_lapack_failure(self):
        # LAPACK stops at the negative pivot 2; pivot 1 was already at or
        # below p * eps * max(diag).
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.diag([1.0, 1e-20, -1.0]))
        assert exc.value.pivot_index == 1

    def test_pivot_of_lapack_failure(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.diag([1.0, 1.0, -1.0]))
        assert exc.value.pivot_index == 2

    @pytest.mark.parametrize("p", [1, 5, 40, 200])
    def test_matches_numpy(self, rng, p):
        for _ in range(5):
            m = random_spd(rng, p)
            expected = np.linalg.cholesky(m)
            lower = cholesky(m)
            assert np.max(np.abs(lower - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValues):
            cholesky([[1.0, np.inf], [np.inf, 1.0]])

    def test_near_singular_rejected(self):
        # Rank-1 outer product: second pivot is zero up to roundoff.
        v = np.array([1.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.outer(v, v))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky([[1.0, 0.1], [0.2, 1.0]])

    @pytest.mark.parametrize("routine", [cholesky, eigen_symmetric])
    def test_asymmetric_is_not_symmetric(self, routine):
        with pytest.raises(NotSymmetric) as exc:
            routine([[1.0, 0.1], [0.2, 1.0]])
        assert isinstance(exc.value, ValueError)


class TestCholeskyStack:
    def test_matches_cholesky_per_matrix(self, rng):
        # Two SPD matrices, one whose pivot 1 is at or below the tolerance
        # before LAPACK stops at pivot 2, and one that LAPACK stops at 3.
        stack = np.stack([
            random_spd(rng, 4),
            np.diag([1.0, 1e-20, -1.0, 1.0]),
            random_spd(rng, 4),
            np.diag([1.0, 1.0, 1.0, -1.0]),
        ])
        lower, pivot = cholesky_stack(stack)
        for b, m in enumerate(stack):
            try:
                expected = cholesky(m)
            except NotPositiveDefinite as exc:
                assert pivot[b] == exc.pivot_index
            else:
                assert pivot[b] == -1
                assert np.array_equal(lower[b], expected)
        assert list(pivot) == [-1, 1, -1, 3]

    def test_checks_the_whole_stack(self, rng):
        stack = np.stack([random_spd(rng, 3) for _ in range(3)])
        bad = stack.copy()
        bad[2, 0, 1] = np.nan
        with pytest.raises(NonFiniteValues):
            cholesky_stack(bad)
        bad = stack.copy()
        bad[1, 0, 1] += 1e-9
        with pytest.raises(NotSymmetric):
            cholesky_stack(bad)
        with pytest.raises(DimensionError):
            cholesky_stack(stack[0])

    def test_empty_stack(self):
        lower, pivot = cholesky_stack(np.empty((0, 3, 3)))
        assert lower.shape == (0, 3, 3) and pivot.shape == (0,)


class TestTriangularInverse:
    @pytest.mark.parametrize("p", [1, 5, 40, 200])
    def test_inverts_the_factor(self, rng, p):
        lower = cholesky(random_spd(rng, p))
        inverse = triangular_inverse(lower)
        assert np.array_equal(inverse, np.tril(inverse))
        assert np.max(np.abs(inverse @ lower - np.eye(p))) <= 1e-12

    def test_factor_left_unchanged(self, rng):
        lower = cholesky(random_spd(rng, 6))
        kept = lower.copy()
        triangular_inverse(lower)
        assert np.array_equal(lower, kept)

    def test_singular_factor_carries_index(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            triangular_inverse(np.diag([1.0, 2.0, 0.0]))
        assert exc.value.pivot_index == 2


def test_non_finite_values_are_value_errors():
    with pytest.raises(NonFiniteValues) as exc:
        median([1.0, np.nan])
    assert isinstance(exc.value, ValueError)


class TestLogDeterminant:
    def test_identity(self):
        assert log_determinant(cholesky(np.eye(4))) == 0

    def test_diagonal(self):
        assert log_determinant(cholesky(np.diag([4.0, 1.0]))) == pytest.approx(math.log(4))

    def test_hand_value(self):
        # det [[4,2],[2,5]] = 20 - 4 = 16
        value = log_determinant(cholesky([[4.0, 2.0], [2.0, 5.0]]))
        assert value == pytest.approx(math.log(16), abs=1e-12)

    def test_against_cofactor_expansion(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 5))
            m = random_spd(rng, p)
            expected = math.log(cofactor_determinant(m))
            assert log_determinant(cholesky(m)) == pytest.approx(expected, abs=1e-9)


class TestEigenSymmetric:
    def test_diagonal_sorted_descending(self):
        eig = eigen_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(3)[:, [0, 2, 1]])

    def test_two_by_two(self):
        eig = eigen_symmetric([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.values, [3.0, 1.0])
        s = 1 / math.sqrt(2)
        assert np.allclose(np.abs(eig.vectors[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(eig.vectors[:, 1]), [s, s], atol=1e-12)
        assert eig.vectors[:, 0] @ eig.vectors[:, 1] == pytest.approx(0, abs=1e-12)

    def test_reconstruction_5x5(self, rng):
        a = rng.standard_normal((5, 5))
        m = (a + a.T) / 2
        eig = eigen_symmetric(m)
        assert np.allclose(eig.vectors @ np.diag(eig.values) @ eig.vectors.T, m, atol=1e-8)

    def test_invariants_on_1000_random_matrices(self, rng):
        for _ in range(1000):
            p = int(rng.integers(1, 31))
            a = rng.standard_normal((p, p))
            m = (a + a.T) / 2
            eig = eigen_symmetric(m)
            assert np.all(np.diff(eig.values) <= 0)
            gram = eig.vectors.T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(p))) <= 1e-10
            resid = m @ eig.vectors - eig.vectors * eig.values
            assert np.max(np.abs(resid)) <= 1e-8

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigen_symmetric([[1.0, 0.5], [0.4, 1.0]])

    def test_convergence_failure_type_exists(self):
        # LAPACK essentially never fails on real symmetric input; just pin
        # the advertised exception type.
        assert issubclass(ConvergenceFailure, Exception)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == 1

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_scaling_invariance(self, rng):
        m = random_spd(rng, 6)
        assert condition_number(2 * m) == pytest.approx(condition_number(m), rel=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            condition_number(np.diag([1.0, -1.0]))
