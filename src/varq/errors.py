"""Exception types shared across the package.

A caller acts on two outcomes, so there are two leaf types: the input
was refused (ConfigurationError, exit code 2 from the CLI) or training
diverged (OptimizationError, exit code 3).
"""


class VarqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(VarqError):
    """Refused input: a bad option, spec, shape, index, feature vector,
    batch, store, dataset file or task. The CLI exits 2."""


class OptimizationError(VarqError):
    """Training produced non-finite losses or gradients. The CLI exits 3."""
