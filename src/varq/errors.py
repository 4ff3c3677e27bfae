"""Exception types and the input rules shared across the package.

A caller acts on two outcomes, so there are two leaf types: the input
was refused (ConfigurationError, exit code 2 from the CLI) or training
diverged (OptimizationError, exit code 3).
"""

import numpy as np


class VarqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(VarqError):
    """Refused input: a bad option, spec, shape, index, feature vector,
    batch, store, dataset file or task. The CLI exits 2."""


class OptimizationError(VarqError):
    """Training produced non-finite losses or gradients. The CLI exits 3."""


def is_integer(value) -> bool:
    """The one rule for counts and seeds: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that numpy's generators would refuse, or that would
    shift a derived stream below 0: anything but an integer >= 0."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigurationError(f"{name} must be an integer >= 0, got {seed!r}")
