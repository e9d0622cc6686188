"""Exception hierarchy shared across the package.

Every error raised by idstat derives from IdstatError so callers (and the
CLI error boundary) can catch one base class.  There is one class per CLI
exit status, named by `exit_code`; ZeroVectorInput is the one input error
callers catch by name.
"""

from __future__ import annotations


class IdstatError(Exception):
    """Base class for all idstat errors."""

    exit_code = 2


class InputError(IdstatError):
    """Malformed or inconsistent input: a bad argument, a value the exact
    ring cannot hold as one term, or a state an operation is undefined on."""


class ZeroVectorInput(InputError):
    """Operation undefined on the zero vector."""


class CapacityExceeded(IdstatError):
    """A documented hard cap was exceeded (orbit size, particle count,
    level count, spectrum cutoff, radicand size)."""

    exit_code = 4


class BoseDivergence(IdstatError):
    """Bose-Einstein grand sum diverges (chemical potential at or above
    the lowest level)."""

    exit_code = 3
