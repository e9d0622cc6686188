"""Exact arithmetic over sums of rational multiples of square roots.

A value is stored as a finite map ``{r: q_r}`` meaning ``sum q_r * sqrt(r)``
with every radicand ``r`` a square-free positive integer and every
coefficient ``q_r`` a nonzero rational.  Because square roots of distinct
square-free integers are linearly independent over the rationals, this
representation is unique, so equality is plain map equality and a value is
zero exactly when the map is empty.

Rational coefficients are stdlib :class:`fractions.Fraction` objects
(always reduced, positive denominator), re-exported here as ``Rational``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapacityExceeded, NegativeRadicand, NotRepresentable

Rational = Fraction

#: Largest square-free radicand the ring will store.
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
    if n < 1:
        raise ValueError("square_free_split requires n >= 1")
    if n > _MAX_SPLIT_INPUT:
        raise CapacityExceeded(f"cannot reduce radicand {n}: exceeds {_MAX_SPLIT_INPUT}")
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
    raise TypeError(f"expected int or Rational, got {type(value).__name__}")


class RadicalRational:
    """An element of the ring Q[sqrt(2), sqrt(3), sqrt(5), ...].

    Closed under +, -, *; division is supported only by rationals and by
    single-term values (conjugate trick), which is all the package needs.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # Internal constructor: radicands must already be square-free.
        clean: dict[int, Fraction] = {}
        if terms:
            for r, q in terms.items():
                if not isinstance(r, int) or r < 1:
                    raise ValueError(f"radicand must be a positive int, got {r!r}")
                if r > MAX_RADICAND:
                    raise CapacityExceeded(f"radicand {r} exceeds cap {MAX_RADICAND}")
                q = _coerce(q)
                if q:
                    clean[r] = q
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value) -> "RadicalRational":
        """Lift an int or Rational into the ring."""
        if isinstance(value, RadicalRational):
            return value
        return cls({1: _coerce(value)})

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms as (radicand, coefficient) pairs, radicand ascending."""
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {1}

    @property
    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {1}:
            return self._terms[1]
        raise NotRepresentable(f"{self} contains irrational terms")

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "RadicalRational":
        other = RadicalRational.of(other)
        terms = dict(self._terms)
        for r, q in other._terms.items():
            s = terms.get(r, Fraction(0)) + q
            if s:
                terms[r] = s
            else:
                terms.pop(r, None)
        out = RadicalRational()
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "RadicalRational":
        out = RadicalRational()
        out._terms = {r: -q for r, q in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-RadicalRational.of(other))

    def __rsub__(self, other):
        return RadicalRational.of(other) + (-self)

    def __mul__(self, other) -> "RadicalRational":
        other = RadicalRational.of(other)
        terms: dict[int, Fraction] = {}
        for r1, q1 in self._terms.items():
            for r2, q2 in other._terms.items():
                # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) with g = gcd:
                # both radicands square-free makes the reduced product
                # square-free again, no factoring needed.
                g = math.gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                if rad > MAX_RADICAND:
                    raise CapacityExceeded(f"product radicand {rad} exceeds cap {MAX_RADICAND}")
                s = terms.get(rad, Fraction(0)) + q1 * q2 * g
                if s:
                    terms[rad] = s
                else:
                    terms.pop(rad, None)
        out = RadicalRational()
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalRational":
        other = RadicalRational.of(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero RadicalRational")
        if not other.is_single_term:
            raise NotRepresentable(
                "division only by rationals or single-term values (conjugate rule)"
            )
        ((r, q),) = other._terms.items()
        # 1/(q*sqrt(r)) = sqrt(r)/(q*r)
        return self * RadicalRational({r: Fraction(1, 1) / (q * r)})

    # -- comparisons / conversions ------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, RadicalRational):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == RadicalRational.of(other)._terms
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_rational())
        return hash(tuple(self.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __float__(self) -> float:
        return float(sum(float(q) * math.sqrt(r) for r, q in self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, (r, q) in enumerate(self.items()):
            body = str(abs(q)) if r == 1 else f"{abs(q)}*sqrt({r})"
            if i == 0:
                pieces.append(body if q > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if q > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"RadicalRational({self})"


ZERO = RadicalRational()
ONE = RadicalRational.of(1)


def rsqrt_of_rational(value) -> RadicalRational:
    """Exact sqrt of a nonnegative rational as a single-term value.

    sqrt(p/d) = (s/d) * sqrt(r) where p*d = s*s*r with r square-free.
    """
    q = _coerce(value)
    if q < 0:
        raise NegativeRadicand(f"sqrt of negative rational {q}")
    if q == 0:
        return RadicalRational()
    s, r = square_free_split(q.numerator * q.denominator)
    if r > MAX_RADICAND:
        raise CapacityExceeded(f"square-free radicand {r} exceeds cap {MAX_RADICAND}")
    return RadicalRational({r: Fraction(s, q.denominator)})


def sum_of_products(triples) -> RadicalRational:
    """Exact sum of ``a * b * w`` over ``(a, b, w)`` triples, with ``a`` and
    ``b`` ring elements and ``w`` an int or Rational weight.

    Equal to folding the products with ``+``, but nothing is reduced per
    term.  Weights are first summed as unreduced numerators per (a, b,
    weight denominator), so a vector whose amplitudes share a few objects
    costs a few products however long it is.  The products' integer
    numerators are then accumulated per (radicand, denominator), and one
    Fraction is built per key at the end.  Product radicands are capped at
    MAX_RADICAND as in ``__mul__``.
    """
    pairs: dict[tuple[int, int, int], list] = {}
    for a, b, w in triples:
        if isinstance(w, int):
            wn, wd = w, 1
        else:
            w = _coerce(w)
            wn, wd = w.numerator, w.denominator
        key = (id(a), id(b), wd)
        slot = pairs.get(key)
        if slot is None:
            pairs[key] = [a, b, wn]  # holding a and b keeps their ids unique
        else:
            slot[2] += wn
    acc: dict[tuple[int, int], int] = {}
    for (_, _, wd), (a, b, wn) in pairs.items():
        if not wn:
            continue
        for r1, q1 in a._terms.items():
            n1, d1 = q1.numerator * wn, q1.denominator * wd
            for r2, q2 in b._terms.items():
                if r1 == r2:
                    rad, g = 1, r1
                else:
                    g = math.gcd(r1, r2)
                    rad = (r1 // g) * (r2 // g)
                    if rad > MAX_RADICAND:
                        raise CapacityExceeded(f"product radicand {rad} exceeds cap {MAX_RADICAND}")
                key = (rad, d1 * q2.denominator)
                acc[key] = acc.get(key, 0) + n1 * q2.numerator * g
    terms: dict[int, Fraction] = {}
    for (rad, den), num in acc.items():
        if num:
            q = Fraction(num, den)
            terms[rad] = terms[rad] + q if rad in terms else q
    out = RadicalRational()
    out._terms = {r: q for r, q in terms.items() if q}
    return out
