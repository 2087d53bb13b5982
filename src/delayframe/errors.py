"""Shared error taxonomy and the argument rules that raise from it.

Every failure the package raises deliberately belongs to one of three
branches, and each branch carries the exit code (``exit_code``) that the
command line front end returns for it:

* :class:`ParameterError` (exit 2): a caller supplied an invalid argument
  or an inconsistent configuration.
* :class:`DataError` (exit 3): input data is malformed, non-finite,
  non-uniform, or unreadable.
* :class:`NumericalError` (exit 4): the data was admissible but the
  computation is numerically meaningless (rank collapse, non-convergence).

ParameterError and DataError subclass ValueError, NumericalError subclasses
RuntimeError, so generic callers can catch the stdlib types.

The argument rules that recur across the package are written once here,
each raising :class:`ParameterError` with one fixed message:
:func:`check_int` (an integer, optionally at least a minimum),
:func:`check_instance` (an instance of a given type) and
:func:`check_positive` (a positive finite number). They are internal
helpers, not part of the public API.
"""

import numpy as np

__all__ = [
    "DelayFrameError",
    "ParameterError",
    "DataError",
    "NumericalError",
    "DegenerateRankError",
    "DegenerateInputError",
]


class DelayFrameError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DelayFrameError, ValueError):
    """An argument or configuration value is invalid."""

    exit_code = 2


class DataError(DelayFrameError, ValueError):
    """Input data is malformed or violates a data precondition."""

    exit_code = 3


class NumericalError(DelayFrameError, RuntimeError):
    """A computation cannot produce a numerically meaningful result."""

    exit_code = 4


class DegenerateRankError(NumericalError):
    """Numerical rank of the data is below what the request requires."""


class DegenerateInputError(NumericalError):
    """Input vectors are degenerate where independence is required.

    Instances may carry a ``partial`` attribute holding whatever values
    were well defined before the degeneracy was hit.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def check_int(name, value, minimum=None):
    """Require an ``int`` or numpy integer (not a bool), at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")


def check_instance(value, cls):
    """Require ``value`` to be an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ParameterError(
            f"expected a {cls.__name__}, got {type(value).__name__}"
        )


def check_positive(name, value):
    """Require a positive, finite number."""
    if not (np.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")
