"""Per-particle observables on exact state vectors.

Single-particle operators act on one slot of a product state: the
expectation of O on particle i contracts amplitudes over all state pairs
that agree on every other slot.  A vector's amplitudes are rational values
times one scale q*sqrt(r), so each sum runs over the values and is scaled
by q^2 r once.  With an exact (rational-entry) operator the result is an
exact rational; with a float-entry operator it is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .errors import InputError, ZeroVectorInput, count, instance, items, real, shown
from .exactnum import ONE, ZERO, RadicalRational
from .symmetry import StateVector


def _rational(value) -> Fraction:
    """Fraction(value), with a value it cannot read refused as input."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not a rational number: {shown(value, repr)}") from None


@dataclass(frozen=True)
class OneBodyOperator:
    """Symmetric single-particle operator on levels 0..dim-1, given by a
    rule for its entries rather than a table: `rule(i, j)` is asked only for
    i <= j, so entry(i, j) == entry(j, i) by construction.  Entries are all
    Rational (exact=True) or all float (exact=False)."""

    rule: Callable[[int, int], object]
    dim: int
    exact: bool

    def entry(self, i: int, j: int):
        return self.rule(i, j) if i <= j else self.rule(j, i)

    @classmethod
    def matrix(cls, rows: Sequence[Sequence], exact: bool) -> "OneBodyOperator":
        """A caller's square matrix, refused unless it is symmetric.  Each
        entry is read when the operator is built: as a Rational when
        `exact`, else as a finite float (a str, a bool or None is refused)."""
        read = _rational if exact else (lambda x: real(x, "operator entry"))
        rows = tuple([tuple(map(read, items(row, "matrix row"))) for row in items(rows, "matrix")])
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("operator matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i + 1, n)):
            raise InputError("operator matrix is not symmetric")
        return cls(lambda i, j: rows[i][j], n, exact)

    @classmethod
    def diagonal(cls, values: Sequence) -> "OneBodyOperator":
        """Exact diagonal operator, e.g. a single-particle Hamiltonian
        with caller-chosen rational level energies."""
        vals = tuple([_rational(v) for v in items(values, "operator values")])
        zero = Fraction(0)
        return cls(lambda i, j: vals[i] if i == j else zero, len(vals), True)


def box_position_operator(length: float, n_levels: int) -> OneBodyOperator:
    """Position operator of a 1-D hard-wall box of the given length.

    Level index i stands for quantum number n = i + 1.  Diagonal entries
    are length/2; off-diagonal entries vanish for even n - m and are
    -8*length*m*n / (pi^2 (m^2 - n^2)^2) for odd n - m, evaluated for
    m < n only: evaluating (n, m) separately can round differently.  An
    entry out of float range (a length near the float maximum, or quantum
    numbers past about 1e77) is refused when it is asked for.
    """
    n_levels, length = count(n_levels, "level count", 1), real(length, "box length", True)

    def rule(i: int, j: int) -> float:
        if i == j:
            return length / 2.0
        if (j - i) % 2 == 0:
            return 0.0
        m, n = i + 1, j + 1
        try:
            value = -8.0 * length * m * n / (math.pi**2 * (m * m - n * n) ** 2)
            if math.isfinite(value):
                return value
        except OverflowError:  # (m^2 - n^2)^2 is an int past the float range
            pass
        raise InputError(f"box-x entry ({m}, {n}) is out of float range at length {length!r}")

    return OneBodyOperator(rule, n_levels, exact=False)


def _check_particle(v: StateVector, particle: int, what: str) -> None:
    if instance(v, StateVector, "vector").is_zero:
        raise ZeroVectorInput(f"{what} undefined on the zero vector")
    if count(particle, "particle index") >= v.n_particles:
        raise InputError(f"particle index {shown(particle)} out of range")


def _sum_of_products(pairs) -> Fraction:
    """Exact sum of x * y over pairs of ints, Rationals or finite floats:
    the integer numerators of the products are added over one common
    denominator and one Fraction is built at the end.  A y of another
    kind (an operator rule's nan, say) is refused as input."""
    nums, dens = [], []
    for x, y in pairs:
        xn, xd = x.as_integer_ratio()
        try:
            yn, yd = y.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError):
            raise InputError(f"operator entry {shown(y, repr)} is not an int, a Rational or a finite float") from None
        nums.append(xn * yn)
        dens.append(xd * yd)
    den = math.lcm(*dens)
    return Fraction(sum([n * (den // d) for n, d in zip(nums, dens)]), den)


def one_body_expectation(v: StateVector, op: OneBodyOperator, particle: int):
    """<v| O acting on `particle` |v>; exact when the operator is exact.

    The diagonal part sum_k w_k O_kk, over the levels k with a nonzero
    weight w_k of `occupancy_weights`, and the cross terms, which connect
    only product states that agree on every slot except `particle`, are
    summed exactly: a float entry converts without rounding, so a float
    result is rounded once, at the end.
    """
    _check_particle(v, particle, "expectation")
    if instance(op, OneBodyOperator, "operator").dim < v.basis_size:
        raise InputError(f"operator dim {shown(op.dim)} < basis size {shown(v.basis_size)}")
    if v.norm_squared() != ONE:
        raise InputError("state vector must have norm squared exactly 1")
    weights, groups = v._one_body(particle)
    entry = op.entry
    pairs = [(w, entry(lv, lv)) for lv, w in weights.items()]
    # each unordered pair of a group once, doubled: O is symmetric
    pairs += [(2 * ai * aj, entry(li, lj)) for group in groups for (li, ai), (lj, aj) in combinations(group, 2)]
    value = RadicalRational(v._square() * _sum_of_products(pairs))
    return value if op.exact else float(value)


def occupancy_weights(v: StateVector, particle: int) -> list[RadicalRational]:
    """Per-level probability weights of one particle: w_k = sum of squared
    amplitudes over states whose slot holds level k.  For a diagonal
    operator with energies e_k the expectation is sum_k w_k e_k, so equal
    weights prove the symbolic equal-share identity for any energies."""
    _check_particle(v, particle, "weights")
    square = v._square()
    by_level = [ZERO] * v.basis_size
    for lv, w in v._one_body(particle)[0].items():
        by_level[lv] = RadicalRational(square * w)
    return by_level
