"""Exception hierarchy shared across the package.

Every error raised by idstat derives from IdstatError so callers (and the
CLI error boundary) can catch one base class; `exit_code` is the CLI's exit
status for the class.
"""

from __future__ import annotations


class IdstatError(Exception):
    """Base class for all idstat errors."""

    exit_code = 2


class InputError(IdstatError):
    """Malformed or inconsistent user input."""


class CapacityExceeded(IdstatError):
    """A documented hard cap was exceeded (orbit size, particle count,
    level count, spectrum cutoff, radicand size)."""

    exit_code = 4


class CutoffTooLarge(CapacityExceeded):
    """Spectrum cutoff above the supported level count."""


class NegativeRadicand(IdstatError):
    """Square root of a negative rational requested."""


class LengthMismatch(IdstatError):
    """Permutation order and state length disagree."""


class RequiresDistinctLevels(IdstatError):
    """Operation defined only for states with pairwise distinct levels."""


class DimensionMismatch(IdstatError):
    """Operator dimension too small for the state's level range."""


class BasisNotOrthonormal(IdstatError):
    """Decomposition target basis failed the exact orthonormality check."""


class ZeroVectorInput(IdstatError):
    """Operation undefined on the zero vector."""


class NotNormalized(IdstatError):
    """Expectation value requested for a vector with norm squared != 1."""


class NotRepresentable(IdstatError):
    """Result is not a single term q*sqrt(r), as a sum across two radicands."""


class BoseDivergence(IdstatError):
    """Bose-Einstein grand sum diverges (chemical potential at or above
    the lowest level)."""

    exit_code = 3
