"""Exception types shared across the package.

Every error raised by the library derives from :class:`FdbError`, so callers
(notably the CLI) can separate computation failures from programming errors.
Every error raised inside ``fdb_estimate`` or ``fastmcd_baseline`` carries
the name of its pipeline stage as ``stage``; other errors leave it ``None``.
"""


class FdbError(Exception):
    """Base class for all library errors."""

    stage: "str | None" = None


class EmptyInput(FdbError):
    """An operation that needs at least one value received none."""


class DomainError(FdbError):
    """A scalar argument lies outside the mathematical domain."""


class NonFiniteValues(FdbError, ValueError):
    """An input or an intermediate result holds an infinite or NaN entry."""


class InvalidConfig(FdbError, ValueError):
    """An estimator configuration holds an out-of-range or unknown setting."""


class NotSymmetric(FdbError, ValueError):
    """A matrix required to be exactly symmetric is not."""


class DimensionError(FdbError):
    """Array shapes are inconsistent with each other or with the operation."""


class NotPositiveDefinite(FdbError):
    """A matrix required to be positive definite is not.

    ``pivot_index`` identifies the first Cholesky pivot at or below the
    scale-aware threshold, when known.
    """

    def __init__(self, message: str, pivot_index: "int | None" = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class ConvergenceFailure(FdbError):
    """An iterative numerical routine did not converge."""


class DegenerateData(FdbError):
    """The data admit no usable computation (e.g. every direction has zero MAD)."""


class InvalidSubsetSize(FdbError):
    """Requested subset size violates p < h <= n."""


class SingularCovariance(FdbError):
    """A subset covariance matrix is singular (subset does not span p dimensions)."""


class TooFewWeightedSamples(FdbError):
    """Reweighting kept too few samples to define a covariance matrix."""


class OracleTooLarge(FdbError):
    """Exhaustive enumeration was requested for an instance beyond the oracle bound."""


class InvalidContamination(FdbError):
    """The contamination specification cannot be realized."""


class SingularTransform(FdbError):
    """The back-transformation matrix is singular."""


class InvalidRule(FdbError):
    """An outlier-detection rule string or parameter is malformed."""
