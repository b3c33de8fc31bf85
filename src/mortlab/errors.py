"""Exception types shared across the package."""


class MortlabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MortlabError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class StructureError(MortlabError):
    """Parsed data violates the expected year/age block layout."""


class DataGapError(MortlabError):
    """A required cell is missing and no imputation policy is active."""


class ExposureError(MortlabError):
    """Deaths observed against zero exposure."""


class DimensionError(MortlabError):
    """Array shapes are inconsistent with each other."""


class RankError(MortlabError):
    """A matrix is too degenerate for the requested factorization."""


class DegenerateSeriesError(MortlabError):
    """A series has no usable variation (constant, zero variance)."""


class RegressionError(MortlabError):
    """A regression design matrix is singular or otherwise unusable."""


class ScalingError(MortlabError):
    """A feature cannot be standardized (zero spread on the training rows)."""


class InsufficientHistoryError(MortlabError):
    """Not enough observations to build the requested windows or forecast."""


class TrainingError(MortlabError):
    """Optimization diverged; carries the epoch where it happened."""

    def __init__(self, message: str, epoch: int | None = None):
        if epoch is not None:
            message = f"epoch {epoch}: {message}"
        super().__init__(message)
        self.epoch = epoch


class NumericError(MortlabError):
    """Non-finite values appeared where finite ones are required."""


class DomainError(MortlabError):
    """An input value is outside the mathematical domain of an operation."""


class DegenerateRiskError(MortlabError):
    """A risk measure is undefined for the supplied sample (e.g. SCR <= 0)."""


class ConfigError(MortlabError):
    """A run configuration is invalid or incomplete."""


class StageError(MortlabError):
    """A pipeline stage is missing its upstream artifacts or they do not match."""
