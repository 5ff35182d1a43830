"""Exception types shared across the package.

The CLI maps these onto process exit codes: config errors exit 2, input
data errors exit 3, numeric failures exit 4.
"""


class KernelshotError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KernelshotError):
    """Invalid or inconsistent experiment configuration."""


class DataError(KernelshotError):
    """Malformed or missing input data (feature CSVs, paths)."""


class NumericError(KernelshotError, ValueError):
    """Numerically impossible result, e.g. an inverted probability bracket or
    a kernel value that overflowed.  Also a ValueError, so that callers
    catching the ValueError of an invalid numeric argument catch it too."""
