"""Exception hierarchy and warning categories shared across the package."""


class MetricGapError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(MetricGapError):
    """Operands have incompatible shapes."""


class AsymmetricInput(MetricGapError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NonzeroDiagonal(MetricGapError):
    """A distance matrix has a nonzero diagonal entry."""


class NegativeDistance(MetricGapError):
    """A distance matrix has a negative entry."""


class TriangleViolation(MetricGapError):
    """d(i, j) exceeds d(i, k) + d(k, j) beyond tolerance."""

    def __init__(self, i, j, k, lhs, rhs):
        self.i = i
        self.j = j
        self.k = k
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            "triangle inequality fails: d(%d,%d) = %.17g > d(%d,%d) + d(%d,%d) = %.17g"
            % (i, j, lhs, i, k, k, j, rhs)
        )


class DisconnectedGraph(MetricGapError):
    """The graph has no path between some pair of vertices."""


class InvalidSize(MetricGapError):
    """A generator was asked for a size it cannot produce, or a distance
    power overflows the float range."""


class NotATree(MetricGapError):
    """The graph is not a tree (cycle present, or not connected)."""


class ZeroFunctional(MetricGapError):
    """The functional vector is identically zero."""


class PositiveDirectionMissing(MetricGapError):
    """The matrix admits no direction of positive quadratic form, so the
    classification machinery for the constrained maximum does not apply."""


class NotStrict(MetricGapError):
    """An operation that requires a strict verdict was called on a
    non-strict instance."""


class TooLarge(MetricGapError):
    """Exact enumeration was requested past the configured size cutoff."""


class ParseError(MetricGapError):
    """Input text is not a well-formed document."""


class SchemaError(MetricGapError):
    """Input document is well-formed but violates the expected schema."""


class OracleMismatch(MetricGapError):
    """Pipeline output disagrees with a closed form beyond tolerance."""


class DuplicatePointsWarning(UserWarning):
    """Distinct input indices at distance zero were collapsed."""
