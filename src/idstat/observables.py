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

from .errors import InputError, ZeroVectorInput, shown
from .exactnum import ONE, ZERO, RadicalRational
from .symmetry import Parity, StateVector, symmetrize


def _rational(value) -> Fraction:
    """Fraction(value), with a value it cannot read refused as input."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"not a rational number: {shown(value, repr)}") from None


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
        rows = tuple(map(tuple, rows))
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
        vals = tuple([_rational(v) for v in values])
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
    if n_levels < 1:
        raise InputError("need at least one level")
    if not (length > 0 and math.isfinite(length)):
        raise InputError(f"box length must be positive and finite, got {length!r}")

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


def _check_state(v: StateVector, op: OneBodyOperator, particle: int) -> None:
    if v.is_zero:
        raise ZeroVectorInput("expectation undefined on the zero vector")
    if not (0 <= particle < v.n_particles):
        raise InputError(f"particle index {shown(particle)} out of range")
    if op.dim < v.basis_size:
        raise InputError(f"operator dim {shown(op.dim)} < basis size {shown(v.basis_size)}")
    if v.norm_squared() != ONE:
        raise InputError("state vector must have norm squared exactly 1")


def one_body_expectation(v: StateVector, op: OneBodyOperator, particle: int):
    """<v| O acting on `particle` |v>; exact when the operator is exact.

    The diagonal part sum_k w_k O_kk, with the level weights w_k of
    `occupancy_weights`, and the cross terms, which connect only product
    states that agree on every slot except `particle`, are summed as exact
    Fractions: a float entry converts without rounding, so a float result
    is rounded once, at the end.
    """
    _check_state(v, op, particle)
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
    if v.is_zero:
        raise ZeroVectorInput("weights undefined on the zero vector")
    if not (0 <= particle < v.n_particles):
        raise InputError(f"particle index {shown(particle)} out of range")
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
    internal = tuple([int(n) - 1 for n in levels])
    if any(i < 0 for i in internal):
        raise InputError("box quantum numbers start at 1")
    res = symmetrize(internal, parity)
    if res.is_zero:
        raise ZeroVectorInput("antisymmetrization cancelled: repeated level")
    op = box_position_operator(length, max(internal) + 1)
    return one_body_expectation(res.vector, op, particle)


# -- free sector -------------------------------------------------------


@dataclass(frozen=True)
class PlaneWaveState:
    """N sharp momenta (rational components for exact identities) and a mass."""

    momenta: tuple[tuple[Fraction, ...], ...]
    mass: Fraction = Fraction(1)

    def __post_init__(self):
        momenta = tuple([tuple([_rational(c) for c in p]) for p in self.momenta])
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
    return sum(sum(_rational(c) ** 2 for c in a) for a in coeffs) * h * h / (2 * mass)


def laplacian_condition_residual(linear_coeffs, quadratic_coeffs=None) -> Fraction:
    """Laplacian of the phase polynomial sum_j (a_j . q_j) [+ sum_j b_j . q_j^2].

    A pure linear phase gives exactly zero; the optional per-coordinate
    quadratic coefficients exist as a negative control (each unit
    coefficient contributes 2)."""
    for a in linear_coeffs:
        for c in a:
            _rational(c)  # validates
    total = Fraction(0)
    if quadratic_coeffs is not None:
        for b in quadratic_coeffs:
            for c in b:
                total += 2 * _rational(c)
    return total
