"""Exception hierarchy shared across the package.

Every error raised by idstat derives from IdstatError so callers (and the
CLI error boundary) can catch one base class.  There is one class per CLI
exit status, named by `exit_code`; ZeroVectorInput is the one input error
callers catch by name.  `shown` formats a refused argument for a message.
Public entry points read each argument by the rule for its kind: `count`,
`real`, `items`, `file_path`, `instance` or `statmech.Statistics.parse`.
"""

from __future__ import annotations

import math
import os
from operator import index


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


def shown(value, text=str) -> str:
    """text(value) for a refusal message, with every int too long for
    Python's int-to-text limit (4300 digits by default) shown by its digit
    count, so that building the message cannot itself fail."""
    try:
        return text(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        pass
    if isinstance(value, int):
        n = abs(value)
        digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120))  # log10(2); never too many
        while n >= 10**digits:
            digits += 1
        return f"<{'negative ' if value < 0 else ''}int of {digits} digits>"
    if isinstance(value, tuple):  # as repr(tuple) and str(tuple) show it
        parts = [shown(item, repr) for item in value]
        return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
    if hasattr(value, "denominator"):  # a Fraction, as str shows it
        tail = "" if value.denominator == 1 else f"/{shown(value.denominator)}"
        return shown(value.numerator) + tail
    return f"<{type(value).__name__} with an int too long to show>"


def count(value, name: str, least: int = 0) -> int:
    """A count or an index: a true int >= `least`.  A bool, a float or a
    numeric string is refused, not truncated."""
    try:
        n = math.nan if isinstance(value, bool) else index(value)
    except TypeError:
        n = math.nan
    if not n >= least:  # nan: not an int
        raise InputError(f"{name} must be an integer >= {least}, got {shown(value, repr)}")
    return n


def real(value, name: str, positive: bool = False) -> float:
    """A real parameter as a finite float, above 0 when `positive`.  A bool,
    a str, None or any value float() cannot read is refused."""
    try:
        x = math.nan if isinstance(value, (bool, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (0.0 < x < math.inf if positive else math.isfinite(x)):
        kind = "a positive finite" if positive else "a finite"
        raise InputError(f"{name} must be {kind} number, got {shown(value, repr)}")
    return x


def items(value, name: str) -> list | tuple:
    """A sequence argument: a list or a tuple as it is, any other iterable
    as a tuple.  A str, or a value that is not iterable, is refused."""
    try:
        if not isinstance(value, (str, bytes)):
            return value if type(value) in (list, tuple) else tuple(value)
    except TypeError:
        pass
    raise InputError(f"{name} must be a sequence, got {shown(value, repr)}")


def file_path(value, name: str) -> str | os.PathLike:
    """A str or an os.PathLike.  An int, which open() would take as a file
    descriptor (and close), is refused with any other value."""
    if isinstance(value, (str, os.PathLike)):
        return value
    raise InputError(f"{name} must be a path, got {shown(value, repr)}")


def instance(value, cls: type, name: str):
    """An instance of `cls`; another value is refused by its type's name."""
    if isinstance(value, cls):
        return value
    raise InputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
