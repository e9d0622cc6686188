"""Per-particle observables on exact state vectors, plus plane-wave
bookkeeping for the free sector.

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
from typing import Callable, Sequence

from .errors import InputError, ZeroVectorInput, count, items, real, shown
from .exactnum import ONE, ZERO, RadicalRational
from .symmetry import Parity, StateVector, symmetrize


def _rational(value) -> Fraction:
    """Fraction(value), with a value it cannot read refused as input."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not a rational number: {shown(value, repr)}") from None


def _rational_rows(rows, name: str) -> list[tuple[Fraction, ...]]:
    """A sequence of sequences of rationals, such as momenta or phase
    coefficients."""
    return [tuple([_rational(c) for c in items(row, name)]) for row in items(rows, name)]


def _positive(value, name: str) -> Fraction:
    """A rational that must be positive, such as a mass or h."""
    value = _rational(value)
    if value <= 0:
        raise InputError(f"{name} must be positive")
    return value


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
        """A caller's square matrix, refused unless it is symmetric."""
        rows = tuple([tuple(items(row, "matrix row")) for row in items(rows, "matrix")])
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
    if v.is_zero:
        raise ZeroVectorInput(f"{what} undefined on the zero vector")
    if count(particle, "particle index") >= v.n_particles:
        raise InputError(f"particle index {shown(particle)} out of range")


def one_body_expectation(v: StateVector, op: OneBodyOperator, particle: int):
    """<v| O acting on `particle` |v>; exact when the operator is exact.

    The diagonal part sum_k w_k O_kk, with the level weights w_k of
    `occupancy_weights`, and the cross terms, which connect only product
    states that agree on every slot except `particle`, are summed as exact
    Fractions: a float entry converts without rounding, so a float result
    is rounded once, at the end.
    """
    _check_particle(v, particle, "expectation")
    if op.dim < v.basis_size:
        raise InputError(f"operator dim {shown(op.dim)} < basis size {shown(v.basis_size)}")
    if v.norm_squared() != ONE:
        raise InputError("state vector must have norm squared exactly 1")
    tally, groups = v._one_body(particle)
    total = sum(n * a * a * Fraction(op.entry(lv, lv)) for lv, a, n in tally)
    total += sum(
        ai * aj * Fraction(op.entry(li, lj))
        for group in groups
        for li, ai in group
        for lj, aj in group
        if li != lj
    )
    value = v._scale * v._scale * total
    return value if op.exact else float(value)


def occupancy_weights(v: StateVector, particle: int) -> list[RadicalRational]:
    """Per-level probability weights of one particle: w_k = sum of squared
    amplitudes over states whose slot holds level k.  For a diagonal
    operator with energies e_k the expectation is sum_k w_k e_k, so equal
    weights prove the symbolic equal-share identity for any energies."""
    _check_particle(v, particle, "weights")
    by_level = [0] * v.basis_size
    for lv, a, n in v._one_body(particle)[0]:
        by_level[lv] += n * a * a
    square = v._scale * v._scale
    return [square * w for w in by_level]


def energy_sum_rule(v: StateVector, op: OneBodyOperator):
    """Sum of the per-particle expectations over all slots."""
    values = [one_body_expectation(v, op, i) for i in range(v.n_particles)]
    return sum(values, ZERO) if op.exact else math.fsum(values)


def position_expectation_symmetrized(
    levels: Sequence[int], length: float, particle: int, parity: Parity
) -> float:
    """<x_i> in the (anti)symmetrized box state built from 1-based
    quantum numbers `levels`."""
    internal = tuple([count(n, "box quantum number", 1) - 1 for n in items(levels, "levels")])
    vector = symmetrize(internal, parity).vector  # zero when "A" meets a repeated level: refused below
    op = box_position_operator(length, max(internal, default=0) + 1)
    return one_body_expectation(vector, op, particle)


# -- free sector -------------------------------------------------------


@dataclass(frozen=True)
class PlaneWaveState:
    """N sharp momenta (rational components for exact identities) and a mass."""

    momenta: tuple[tuple[Fraction, ...], ...]
    mass: Fraction = Fraction(1)

    def __post_init__(self):
        momenta = tuple(_rational_rows(self.momenta, "momenta"))
        if not momenta:
            raise InputError("need at least one particle")
        d = len(momenta[0])
        if any(len(p) != d for p in momenta):
            raise InputError("momentum vectors must share one dimension")
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "mass", _positive(self.mass, "mass"))


def plane_wave_energy(pw: PlaneWaveState) -> Fraction:
    """Total kinetic energy sum |p_j|^2 / (2 m), exact."""
    return sum(sum(c * c for c in p) for p in pw.momenta) / (2 * pw.mass)


def wave_coefficients(pw: PlaneWaveState, h=1) -> tuple[tuple[Fraction, ...], ...]:
    """Linear phase coefficients a_j = p_j / h of the product plane wave."""
    h = _positive(h, "h")
    return tuple([tuple([c / h for c in p]) for p in pw.momenta])


def energy_from_wave_coefficients(coeffs, mass, h=1) -> Fraction:
    """Kinetic energy recovered from phase coefficients:
    sum h^2 |a_j|^2 / (2 m).  Exact inverse of wave_coefficients."""
    h, mass = _positive(h, "h"), _positive(mass, "mass")
    return sum(c * c for a in _rational_rows(coeffs, "coefficients") for c in a) * h * h / (2 * mass)


def laplacian_condition_residual(linear_coeffs, quadratic_coeffs=None) -> Fraction:
    """Laplacian of the phase polynomial sum_j (a_j . q_j) [+ sum_j b_j . q_j^2].

    A pure linear phase gives exactly zero; the optional per-coordinate
    quadratic coefficients exist as a negative control (each unit
    coefficient contributes 2)."""
    _rational_rows(linear_coeffs, "linear coefficients")  # validates
    if quadratic_coeffs is None:
        return Fraction(0)
    return 2 * sum(map(sum, _rational_rows(quadratic_coeffs, "quadratic coefficients")), Fraction(0))
