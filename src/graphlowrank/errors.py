"""Exception types shared across the package, and one check per shape of
parameter rule, whose ParameterError names the parameter and its value.

The CLI maps these onto exit codes: parameter misuse is a usage error,
bad input files are data errors, and everything that breaks inside the
numerics is a numerical failure.
"""

import numpy as np


class GraphLowRankError(Exception):
    """Base class for all package errors."""


class ParameterError(GraphLowRankError):
    """An argument is out of its documented range or combination."""


class DataError(GraphLowRankError):
    """Input data is malformed, non-finite, or shape-inconsistent."""


class NumericalError(GraphLowRankError):
    """An internal numerical routine failed to produce a usable result."""


def _check_choice(name, value, choices):
    if value not in choices:
        raise ParameterError(f"unknown {name} {value!r}; expected one of "
                             f"{', '.join(choices)}")


def _check_number(name, value, low=0.0, exclusive=False):
    """Finite and >= low, or > low if exclusive: NaN fails either test."""
    if not (low < value < np.inf if exclusive else low <= value < np.inf):
        bound = "" if low == -np.inf else f" and {'>' if exclusive else '>='} {low:g}"
        raise ParameterError(f"{name} must be finite{bound}, got {value}")


def _check_fraction(name, value):
    if not 0 <= value <= 1:
        raise ParameterError(f"{name} must lie in [0, 1], got {value}")


def _check_integer(name, value, low, high=None):
    """An int or numpy integer, not a bool, from low to high (None: no top)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= (value if high is None else high)):
        span = f"of at least {low}" if high is None else f"in {low}..{high}"
        raise ParameterError(f"{name} must be an integer {span}, got {value!r}")
