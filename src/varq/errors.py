"""Exception types shared across the package.

The CLI maps OptimizationError to exit code 3 and every other VarqError
to exit code 2 (configuration / input problems).
"""


class VarqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(VarqError):
    """Invalid indices, shapes, specs, or option values."""


class EncodingError(VarqError):
    """Feature vector cannot be amplitude-encoded."""


class QramError(VarqError):
    """Bad batch for store construction or an inconsistent store."""


class DataError(VarqError):
    """Dataset ingestion or task construction failure."""


class OptimizationError(VarqError):
    """Training produced non-finite losses or gradients."""
