"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter misuse is a usage error,
bad input files are data errors, and everything that breaks inside the
numerics is a numerical failure.
"""


class GraphLowRankError(Exception):
    """Base class for all package errors."""


class ParameterError(GraphLowRankError):
    """An argument is out of its documented range or combination."""


class DataError(GraphLowRankError):
    """Input data is malformed, non-finite, or shape-inconsistent."""


class NumericalError(GraphLowRankError):
    """An internal numerical routine failed to produce a usable result."""
