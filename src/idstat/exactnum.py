"""Exact single-term radicals q*sqrt(r): a rational times the square root
of a square-free integer.

Every amplitude the package builds is a rational times one fixed root,
such as 1/sqrt(N!), 1/sqrt(|orbit|) or 1/sqrt(|pattern|^2); a state vector
keeps rational values and one such scale (see `symmetry`).

Rational coefficients are stdlib :class:`fractions.Fraction` objects
(always reduced, positive denominator), re-exported here as ``Rational``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapacityExceeded, InputError, count, shown

Rational = Fraction

#: Largest square-free radicand a value may carry.
MAX_RADICAND = 10**6

# Inputs to the square-free split may be as large as a coefficient
# numerator times denominator; factoring by trial division beyond this
# bound would stall, so refuse early.
_MAX_SPLIT_INPUT = MAX_RADICAND**2


def square_free_split(n: int) -> tuple[int, int]:
    """Split ``n >= 1`` as ``s*s * r`` with ``r`` square-free.

    Returns ``(s, r)``.  Trial division; callers keep ``n`` within
    ``_MAX_SPLIT_INPUT`` so this stays fast.
    """
    n = count(n, "square_free_split input", 1)
    if n > _MAX_SPLIT_INPUT:
        # n is not printed: past 4300 digits its text is itself refused
        raise CapacityExceeded(f"cannot reduce a radicand above {_MAX_SPLIT_INPUT}")
    square, free = 1, 1
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            square *= f ** (e // 2)
            if e % 2:
                free *= f
        f += 1 if f == 2 else 2
    free *= m  # m is now 1 or prime
    return square, free


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"expected an int or a Rational, got {shown(value, repr)}")


class RadicalRational:
    """The value q*sqrt(r), with q rational and r a square-free int in
    1..MAX_RADICAND (r = 1 for a rational, and for zero).

    Closed under * and unary -; + and - join only values that share a
    radicand, or a zero, and raise InputError otherwise.
    """

    __slots__ = ("_q", "_r")

    def __init__(self, q=0, r: int = 1):
        # Internal constructor: r must already be square-free and within the cap.
        self._q = _coerce(q)
        self._r = r if self._q else 1

    @classmethod
    def of(cls, value) -> "RadicalRational":
        """Lift an int or Rational."""
        if isinstance(value, RadicalRational):
            return value
        return cls(value)

    def items(self) -> list[tuple[int, Fraction]]:
        """The value as [(radicand, coefficient)], or [] for zero."""
        return [(self._r, self._q)] if self._q else []

    @property
    def is_zero(self) -> bool:
        return not self._q

    def __add__(self, other) -> "RadicalRational":
        other = RadicalRational.of(other)
        if not other._q:
            return self
        if not self._q:
            return other
        if self._r != other._r:
            raise InputError(
                f"cannot add {self._text(shown)} and {other._text(shown)}: "
                f"radicands {self._r} and {other._r} make no single term"
            )
        return RadicalRational(self._q + other._q, self._r)

    __radd__ = __add__

    def __neg__(self) -> "RadicalRational":
        return RadicalRational(-self._q, self._r)

    def __sub__(self, other) -> "RadicalRational":
        return self + (-RadicalRational.of(other))

    def __mul__(self, other) -> "RadicalRational":
        other = RadicalRational.of(other)
        # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) with g = gcd: both
        # radicands square-free makes the reduced product square-free again.
        g = math.gcd(self._r, other._r)
        rad = (self._r // g) * (other._r // g)
        if rad > MAX_RADICAND:
            raise CapacityExceeded(f"product radicand {rad} exceeds cap {MAX_RADICAND}")
        return RadicalRational(self._q * other._q * g, rad)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, RadicalRational):
            return self._q == other._q and self._r == other._r
        if isinstance(other, (int, Fraction)):
            return self._r == 1 and self._q == other
        return NotImplemented

    def __hash__(self):
        return hash(self._q) if self._r == 1 else hash((self._r, self._q))

    def __bool__(self) -> bool:
        return bool(self._q)

    def __float__(self) -> float:
        # + 0.0 turns a coefficient that underflows to -0.0 into 0.0
        return float(self._q) * math.sqrt(self._r) + 0.0

    def __str__(self) -> str:
        return self._text(str)

    def _text(self, text) -> str:
        """text(q), times sqrt(r) unless r is 1."""
        return text(self._q) if self._r == 1 else f"{text(self._q)}*sqrt({self._r})"

    def __repr__(self) -> str:
        return f"RadicalRational({self})"


ZERO = RadicalRational()
ONE = RadicalRational(1)


def rsqrt_of_rational(value) -> RadicalRational:
    """Exact sqrt of a nonnegative rational.

    sqrt(p/d) = (s/d) * sqrt(r) where p*d = s*s*r with r square-free.
    """
    q = _coerce(value)
    if q < 0:
        raise InputError(f"sqrt of negative rational {shown(q)}")
    if q == 0:
        return RadicalRational()
    s, r = square_free_split(q.numerator * q.denominator)
    if r > MAX_RADICAND:
        raise CapacityExceeded(f"square-free radicand {r} exceeds cap {MAX_RADICAND}")
    return RadicalRational(Fraction(s, q.denominator), r)
