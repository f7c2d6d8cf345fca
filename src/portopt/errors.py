"""Exception hierarchy shared across the package.

Every error the toolkit raises derives from :class:`PortfolioError` so
callers (and the CLI) can map failures to exit codes by class.
"""

from __future__ import annotations


class PortfolioError(Exception):
    """Base class for all package errors."""


# --- ingestion -------------------------------------------------------------


class IngestionError(PortfolioError):
    """A price file could not be turned into a valid price table."""


class ParseError(IngestionError):
    """Malformed header, row or number in a comma-separated price file."""


class NonPositivePrice(IngestionError):
    """A price entry is zero or negative."""

    def __init__(self, row: int, column: str, value: float):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"non-positive price {value!r} at row {row}, column {column!r}")


class InsufficientHistory(IngestionError):
    """Fewer observations than the operation requires."""


class DuplicateAssetHeader(IngestionError):
    """Two price columns share the same asset identifier."""


class LeadingGap(IngestionError):
    """A column starts with a gap, so carry-forward has no prior value."""


# --- statistics ------------------------------------------------------------


class ZeroVariance(PortfolioError):
    """Correlation requested for an asset whose returns never move."""

    def __init__(self, asset: str):
        self.asset = asset
        super().__init__(f"asset {asset!r} has zero variance")


# --- optimization ----------------------------------------------------------


class QpError(PortfolioError):
    """Base class for quadratic-program solver failures."""


class Infeasible(QpError):
    """No point satisfies the constraint system."""


class MaxIterations(QpError):
    """The solver hit its iteration cap without converging."""


class NumericalBreakdown(QpError):
    """The quadratic term is not positive definite (its Cholesky factorization fails)."""


class TargetOutOfRange(PortfolioError):
    """Requested target return lies outside the attainable [m, M] range."""

    def __init__(self, target: float, lo: float, hi: float):
        self.target = target
        self.lo = lo
        self.hi = hi
        super().__init__(
            f"target return {target!r} outside feasible range [{lo!r}, {hi!r}]"
        )


class AssetAlignmentError(PortfolioError):
    """Out-of-sample data does not carry the model's assets in order."""
