"""Exception types shared across the package, and the one rule for a valid
numeric argument.

The CLI maps these onto process exit codes: config errors exit 2, input
data errors exit 3, numeric failures exit 4.
"""

import math
import numbers

import numpy as np

__all__ = ["KernelshotError", "ConfigError", "DataError", "NumericError"]


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


def _real_arg(
    name, value, *, above=-math.inf, below=math.inf, at_least=-math.inf, at_most=math.inf, array=False
):
    """value as a float, checked: a real number, not a bool, with
    above < value < below and at_least <= value <= at_most.  above and below
    default to -inf and +inf, so NaN and +-inf never pass.  With array=True,
    value may be an array of such numbers, each entry checked the same way,
    and comes back as a float array.  Raises ValueError naming the argument."""
    x = np.asarray(value) if array else value
    if (x.dtype.kind in "iuf") if array else (isinstance(x, numbers.Real) and not isinstance(x, bool)):
        # an array's entries all pass when its least and greatest do, and a
        # NaN entry makes both NaN
        for v in ((x.min(), x.max()) if x.size else ()) if array else (x,):
            if not (above < v < below and at_least <= v <= at_most):
                value = v
                break
        else:
            return x.astype(float, copy=False) if array else float(x)
    low = (
        ("positive" if above == 0 else f"> {above:g}") if above > -math.inf
        else ("non-negative" if at_least == 0 else f">= {at_least:g}") if at_least > -math.inf
        else None
    )
    high = f"< {below:g}" if below < math.inf else f"<= {at_most:g}" if at_most < math.inf else None
    bounds = [b for b in (low, high) if b]
    rule = " and ".join(bounds + ["finite"] * (len(bounds) < 2))
    raise ValueError(f"{name} must be {rule}, got {value}")


def _count_arg(name, value, low, high=math.inf) -> int:
    """value as an int, checked: a whole number (3.0 counts as 3), not a bool,
    with low <= value <= high.  Raises ValueError naming the argument."""
    whole = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    )
    if not (whole and low <= value <= high):
        rule = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a finite whole number {rule}, got {value}")
    return int(value)
