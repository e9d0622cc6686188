"""Sparse exact state vectors for N identical particles and the
permutation-adapted combinations built from them.

A vector maps product states (tuples of level indices, slot i = particle i)
to exact amplitudes.  Each amplitude is a rational value times one scale
q*sqrt(r) shared by the whole vector, so norms, inner products, projections
and residuals are rational sums with the scale applied once, and "equals
zero" means the amplitude map is empty, not "small".
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, groupby, permutations, repeat
from operator import eq, itemgetter, mul, neg
from typing import Iterable, Literal, Sequence

from .config import ORBIT_BASIS_NAMES
from .errors import CapacityExceeded, InputError, ZeroVectorInput, count, instance, items, shown
from .exactnum import ONE, ZERO, RadicalRational, rsqrt_of_rational

Parity = Literal["S", "A"]


def _check_levels(levels: Sequence[int]) -> tuple[int, ...]:
    return tuple([count(lv, "level index") for lv in items(levels, "levels")])


class StateVector:
    """Sparse map from product states to exact amplitudes: int or Rational
    values, each times the one scale of the vector (an integral value is an int).

    A vector holds its terms and its scale and nothing else: the norm and
    the one-body density of a slot are computed each time they are asked
    for.  `symmetrize` returns the subclass `_OrbitState`, which answers
    these from its levels and builds its terms only when they are read.
    """

    __slots__ = ("n_particles", "basis_size", "_amps", "_scale")

    def __init__(self, n_particles: int, amps: Mapping | None = None):
        """`amps` maps states to ints, Rationals or RadicalRationals; the
        nonzero ones must share one radicand.  None is the zero vector."""
        self.n_particles = count(n_particles, "particle count")
        clean: dict[tuple, Fraction] = {}
        radicand = None
        top = -1
        for state, amp in ({} if amps is None else instance(amps, Mapping, "amplitudes")).items():
            state = _check_levels(state)
            if len(state) != n_particles:
                raise InputError(f"state {shown(state)} has wrong particle count")
            for r, q in RadicalRational.of(amp).items():  # none for a zero amplitude
                if radicand not in (None, r):
                    raise InputError(f"radicands {radicand} and {r} share no scale")
                radicand = r
                clean[state] = q.numerator if q.denominator == 1 else q
                top = max(top, max(state, default=-1))
        self._amps = clean
        self._scale = RadicalRational(1, radicand or 1)
        self.basis_size = top + 1

    @classmethod
    def _trusted(cls, n_particles: int, amps: dict, basis_size: int,
                 scale: RadicalRational) -> "StateVector":
        """Skip __init__'s checks: every key of `amps` must already be a
        tuple of n_particles nonnegative ints below basis_size, every value
        a nonzero int or Rational, and `scale` nonzero."""
        v = cls.__new__(cls)
        v.n_particles, v._amps, v.basis_size, v._scale = n_particles, amps, basis_size, scale
        return v

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def items(self) -> list[tuple[tuple, RadicalRational]]:
        """Terms sorted lexicographically by product state; the terms that
        share a value share one amplitude object."""
        scaled = {a: self._scale * a for a in set(self._amps.values())}
        return sorted((s, scaled[a]) for s, a in self._amps.items())

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n_particles == other.n_particles and self.items() == other.items()

    # -- rational sums, one scale --------------------------------------

    def _square(self) -> Fraction:
        """q^2 r for the scale q*sqrt(r), one Fraction: a sum of value
        products times this is the sum of the amplitude products."""
        ((r, q),) = self._scale.items()
        return Fraction(q.numerator**2 * r, q.denominator**2)

    def norm_squared(self) -> RadicalRational:
        """<v|v>: the square of the scale times the sum of the squared
        values, summed when asked; an orbit state answers 1."""
        values = self._amps.values()
        return RadicalRational(self._square() * sum(map(mul, values, values)))

    def _one_body(self, slot: int) -> dict:
        """The one-body density of `slot` in value units, computed when
        asked: {(i, j): sum of a*b} over the pairs of terms that agree on
        every other slot and hold levels i <= j in `slot`, a term with itself
        on the diagonal and both orders off it, found by one grouping of the
        terms by their other slots.  An entry whose pairs cancel is kept, at
        0.  An orbit state answers from its levels."""
        groups: dict = {}
        for s, a in self._amps.items():
            groups.setdefault(s[:slot] + s[slot + 1:], []).append((s[slot], a))
        density: dict = {}
        for group in groups.values():
            for x, (i, a) in enumerate(group):
                density[i, i] = density.get((i, i), 0) + a * a
                for j, b in group[x + 1:]:
                    ij = (i, j) if i < j else (j, i)
                    density[ij] = density.get(ij, 0) + 2 * a * b
        return density

    def __repr__(self) -> str:
        body = " ".join(f"{s}:{a}" for s, a in self.items())
        return f"StateVector<{self.n_particles}>({body or '0'})"


def product_state_vector(levels: Sequence[int]) -> StateVector:
    """The bare product state |l_1 ... l_N> as a unit vector."""
    levels = _check_levels(levels)
    return StateVector(len(levels), {levels: 1})


def _dot(u: dict, v: dict):
    """Sum of value products over the states two value maps share, in one
    C-level pass over the smaller map: an int when both hold ints."""
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    return sum(map(mul, small.values(), map(big.get, small, repeat(0))))


#: Largest permutation orbit (number of distinct orderings of the levels)
#: whose terms a symmetrized state builds; the work and memory grow with it,
#: not with N!.  Its length, norm, densities and tag answer past it.
MAX_ORBIT = math.factorial(9)
#: Most particles symmetrization takes.  The scale 1/sqrt(|orbit|) has a
#: square-free radicand of primes up to N, so it meets no radicand cap; this
#: cap keeps N! and prod(m_k!) short and refuses a long label list before any
#: factorial of its length is taken.
MAX_SYMMETRIZE_N = 14
#: Most labels exchange_degeneracy_dimension takes.  Its division of N! by
#: prod(m_k!) is quadratic in CPython: 10**5 labels take 0.2 s (all distinct)
#: to 1.3 s (on 100 levels), 10**6 labels on 1000 levels took 182 s.
MAX_DEGENERACY_LABELS = 10**5


def _insertions(n: int, m: int, size: int) -> tuple:
    """Every way to insert m copies of a new level among n placed ones, as
    getters: an ordering is a `size`-tuple whose first n slots hold the
    levels placed so far and whose tail the levels still to place, smallest
    first, so the copies sit at n .. n + m - 1, and each choice of m
    positions out of n + m is one getter that moves them there and keeps
    the tail.  Only a repeated-level orbit whose terms are read builds these."""
    getters = []
    for c in combinations(range(n + m), m):
        placed = iter(range(n))
        getters.append(itemgetter(*[n if j in c else next(placed) for j in range(n + m)],
                                  *range(n + m, size)))
    return tuple(getters)


def _orderings(levels: tuple[int, ...]) -> Iterable[tuple]:
    """Each distinct ordering of `levels` once, lazily, with no Python step
    per ordering.  Distinct levels: `itertools.permutations` of the sorted
    levels, in lexicographic order.  Repeated levels, where `permutations`
    would yield duplicates: staged insertion, one distinct level at a time,
    smallest first, each stage mapping one getter of `_insertions` over the
    orderings so far; the last stage is never held in a list."""
    first = tuple(sorted(levels))
    if len(set(first)) == len(first):
        return permutations(first)
    runs = [len(list(copies)) for _, copies in groupby(first)]
    orderings, n = [first], runs[0]
    for m in runs[1:]:
        orderings = chain.from_iterable(map(map, _insertions(n, m, len(first)), repeat(list(orderings))))
        n += m
    return orderings


def _signs(levels: tuple[int, ...]) -> Iterable[int]:
    """In step with `_orderings` of distinct `levels`, the sign of the
    permutation taking `levels` to each (repeated levels have no
    antisymmetric orbit).  Block d of the lexicographic order, where the
    first slot holds the d-th smallest level, has the signs of one level
    fewer times (-1)^d; each stream is built from the last by list
    concatenation, the last is a lazy chain of its blocks, and the parity of
    the input order is applied once, to the first sign."""
    inversions = sum(x > y for i, x in enumerate(levels) for y in levels[i + 1 :])
    n = max(len(levels), 1)  # no levels have one ordering, as one level has
    signs = [-1 if inversions % 2 else 1]  # of the orderings of j levels, j = 1 .. n - 1
    for j in range(2, n):
        flipped = list(map(neg, signs))
        signs = (signs + flipped) * (j // 2) + signs * (j % 2)
    blocks = (signs, list(map(neg, signs)))
    return chain.from_iterable(blocks * (n // 2) + blocks[:1] * (n % 2))


def _orbit(levels: tuple[int, ...], signed: bool) -> dict:
    """`_orderings` as one dict, each ordering mapped to its `_signs` sign
    when `signed` and the levels are distinct, else to 1."""
    if signed and len(set(levels)) == len(levels):
        return dict(zip(_orderings(levels), _signs(levels)))
    return dict.fromkeys(_orderings(levels), 1)


class _OrbitState(StateVector):
    """A symmetrized state held as its levels in input order, |orbit| and
    scale.  Every particle has the level distribution m_k/N, so its length,
    norm (1), slot densities and tag need no terms; `_orbit` builds them
    once, when `_amps` is first read (`items`, `==`, a dot), and an orbit of
    more than MAX_ORBIT orderings is refused then."""

    __slots__ = ("_levels", "_size", "_tag", "_terms")

    def __init__(self, levels: tuple[int, ...], antisymmetric: bool, size: int, scale: RadicalRational):
        self.n_particles, self.basis_size, self._scale = len(levels), max(levels, default=-1) + 1, scale
        self._levels, self._size, self._terms = levels, size, None
        # a swap negates it under 'A' on N >= 2; N <= 1 has no swap, and its one ordering has sign 1
        self._tag = SymmetryTag.ANTISYMMETRIC if antisymmetric and len(levels) > 1 else SymmetryTag.SYMMETRIC

    @property
    def _amps(self) -> dict:
        if self._terms is None:
            if self._size > MAX_ORBIT:
                raise CapacityExceeded(
                    f"symmetrization orbit of {self._size} product states exceeds cap {MAX_ORBIT} = 9!"
                )
            self._terms = _orbit(self._levels, self._tag is SymmetryTag.ANTISYMMETRIC)
        return self._terms

    def __len__(self) -> int:
        return self._size

    def norm_squared(self) -> RadicalRational:
        return ONE

    def _one_body(self, slot: int) -> dict:
        """Level k fills the slot in |orbit| m_k / N orderings, each of value
        +-1; orderings of one multiset never differ in one slot only, so
        the density is diagonal."""
        return {(lv, lv): self._size * m // self.n_particles for lv, m in Counter(self._levels).items()}


class SymmetrizeResult:
    """Output of symmetrize: the unit vector (or the zero vector when the
    alternating sum cancels), plus the squared norm of the raw
    1/sqrt(N!)-weighted sum before renormalization."""

    __slots__ = ("vector", "raw_norm_squared")

    def __init__(self, vector: StateVector, raw_norm_squared: RadicalRational):
        self.vector, self.raw_norm_squared = vector, raw_norm_squared

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero


def symmetrize(levels: Sequence[int], parity: Parity) -> SymmetrizeResult:
    """Symmetrized (parity 'S') or antisymmetrized ('A') unit vector.

    Repeated levels under 'A' cancel to the zero vector, which is reported
    with is_zero rather than raised.  Otherwise the vector is an
    `_OrbitState` in normalized form: 1/sqrt(|orbit|) on each distinct
    ordering for 'S', with the raw norm squared prod(m_k!); +-1/sqrt(N!)
    for 'A' on distinct levels, raw norm squared 1.  It answers its norm,
    slot densities and tag from the levels in O(N), and builds its
    orderings, with their signs under 'A', by `_orbit` when its terms are
    read: cost and memory then scale with |orbit| = N!/prod(m_k!), and more
    than MAX_ORBIT orderings are refused then.  More than MAX_SYMMETRIZE_N
    particles are refused before the state is built.
    """
    levels = _check_levels(levels)
    if parity not in ("S", "A"):
        raise InputError(f"parity must be 'S' or 'A', got {shown(parity, repr)}")
    if len(levels) > MAX_SYMMETRIZE_N:  # before any factorial is taken
        raise CapacityExceeded(
            f"symmetrization of {len(levels)} particles exceeds cap {MAX_SYMMETRIZE_N}"
        )
    orbit = exchange_degeneracy_dimension(levels)
    repeats = math.factorial(len(levels)) // orbit
    if parity == "A" and repeats > 1:
        return SymmetrizeResult(StateVector(len(levels)), ZERO)
    # on distinct levels |orbit| = N!, so one scale serves both parities
    scale = rsqrt_of_rational(Fraction(1, orbit))
    return SymmetrizeResult(_OrbitState(levels, parity == "A", orbit, scale), RadicalRational.of(repeats))


# Integer numerators of the N = 3 orbit basis on the orderings o of three
# input levels l, where o is the product state (l[o0], l[o1], l[o2]).  The
# symmetric member is 1 on each ordering, the antisymmetric member the
# negated sign of o (so it is negative on the input ordering, opposite to
# symmetrize(.., "A")); the four mixed members are listed.
_MIXED_PATTERNS: dict[str, dict[tuple[int, int, int], int]] = {
    "s1": {(0, 1, 2): 2, (0, 2, 1): -1, (1, 0, 2): 2, (2, 0, 1): -1, (1, 2, 0): -1, (2, 1, 0): -1},
    "s2": {(0, 2, 1): 1, (2, 0, 1): -1, (1, 2, 0): 1, (2, 1, 0): -1},
    "s1p": {(0, 1, 2): 2, (0, 2, 1): 1, (1, 0, 2): -2, (2, 0, 1): -1, (1, 2, 0): -1, (2, 1, 0): 1},
    "s2p": {(0, 2, 1): 1, (2, 0, 1): 1, (1, 2, 0): -1, (2, 1, 0): -1},
}
_SIGNS = _orbit((0, 1, 2), True)
_END_PATTERNS = (dict.fromkeys(_SIGNS, 1), dict(zip(_SIGNS, map(neg, _SIGNS.values()))))


@cache
def _unit_scale(sum_of_squares: int) -> RadicalRational:  # 4, 6 or 12 for the basis
    return rsqrt_of_rational(Fraction(1, sum_of_squares))


def orbit_basis_n3(levels: Sequence[int]) -> tuple[StateVector, ...]:
    """Orthonormal six-vector basis of the distinct-level orbit span, in
    ORBIT_BASIS_NAMES order: each member is its pattern's numerators on the
    orderings of `levels`, scaled by 1/sqrt(sum of their squares)."""
    levels = _check_levels(levels)
    if len(levels) != 3 or len(set(levels)) != 3:
        raise InputError("defined for exactly three pairwise distinct levels")
    return tuple([
        StateVector._trusted(3, {(levels[a], levels[b], levels[c]): k for (a, b, c), k in p.items()},
                             max(levels) + 1, _unit_scale(sum(map(mul, p.values(), p.values()))))
        for p in (*_END_PATTERNS, *_MIXED_PATTERNS.values())
    ])


def decompose(
    v: StateVector, basis: Sequence[StateVector]
) -> tuple[list[RadicalRational], StateVector]:
    """Exact coefficients of v in an orthonormal basis plus the residual.

    The basis is verified orthonormal exactly first, in pair order (i, i),
    (i, i + 1), ..: a member of scale square n/d is a unit vector exactly
    when n times its value dot with itself is d, and, its scale being
    nonzero, two members are orthogonal exactly when their value dot is 0.
    A residual of zero (empty map) certifies the decomposition is complete.
    <b|v> is the value dot times the product of the scales, one
    RadicalRational.  The residual keeps v's scale: for a member b of scale
    q*sqrt(r), <b|v> b is v's scale times the weight q^2 r (value dot),
    an int ratio, times b's values.  The weights share one denominator, so
    the sum of the projections is an int sum per state, and each residual
    value is built once from it, an int where it is integral.
    """
    v = instance(v, StateVector, "vector")
    basis = [instance(b, StateVector, "basis member") for b in items(basis, "basis")]
    squares = [b._square() for b in basis]
    for i, (b, square) in enumerate(zip(basis, squares)):
        if square.numerator * _dot(b._amps, b._amps) != square.denominator:
            raise InputError(f"members {i} and {i} fail exact orthonormality")
        for j in range(i + 1, len(basis)):
            if _dot(b._amps, basis[j]._amps):
                raise InputError(f"members {i} and {j} fail exact orthonormality")
    coeffs, weights = [], []
    for b, square in zip(basis, squares):
        if b.n_particles != v.n_particles:
            raise InputError("particle counts differ")
        if not (dot := _dot(b._amps, v._amps)):
            coeffs.append(ZERO)
            continue
        ((r, q),) = (b._scale * v._scale).items()  # the radicand cap is checked here
        coeffs.append(RadicalRational(q * dot, r))  # <b|v>
        weights.append((b._amps, square.numerator * dot.numerator, square.denominator * dot.denominator))
    den = math.lcm(*[d for _, _, d in weights])
    projected: dict = {}  # state -> den times the sum of the projections
    for amps, n, d in weights:
        k = n * (den // d)
        for s, a in amps.items():
            projected[s] = projected.get(s, 0) + k * a
    residual = dict(v._amps)
    for s, t in projected.items():
        if num := residual.get(s, 0) * den - t:
            residual[s] = Fraction(num, den) if num % den else num // den
        else:
            residual.pop(s, None)
    top = max((max(s, default=-1) for s in residual), default=-1)
    return coeffs, StateVector._trusted(
        v.n_particles, residual, max(v.basis_size, top + 1), v._scale
    )


def exchange_degeneracy_dimension(levels: Sequence[int]) -> int:
    """Number of distinct product states in the permutation orbit:
    N! / prod(multiplicity!), with N! divided once.  More than
    MAX_DEGENERACY_LABELS labels are refused."""
    levels = _check_levels(levels)
    if len(levels) > MAX_DEGENERACY_LABELS:  # before any factorial is taken
        raise CapacityExceeded(
            f"exchange degeneracy of {len(levels)} labels exceeds cap {MAX_DEGENERACY_LABELS}"
        )
    return math.factorial(len(levels)) // math.prod(map(math.factorial, Counter(levels).values()))


class SymmetryTag(str, Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    MIXED = "mixed"
    NONE = "none"


class SymmetryClass:
    """A classify_symmetry result: `pair` is the s1/s2 or s1'/s2' plane of
    the level order that built the vector, `member` is set when the vector
    is collinear with a canonical member.  Equal when all three are."""

    __slots__ = ("tag", "pair", "member")

    def __init__(self, tag: SymmetryTag, pair: int | None = None, member: int | None = None):
        self.tag, self.pair, self.member = tag, pair, member

    def _key(self) -> tuple:
        return self.tag, self.pair, self.member

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetryClass):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SymmetryClass(tag={self.tag!r}, pair={self.pair!r}, member={self.member!r})"

    def to_json(self) -> dict:
        return {"tag": self.tag.value, "pair": self.pair, "member": self.member}


def _exchange_tag(amps: dict) -> SymmetryTag:
    """SYMMETRIC (ANTISYMMETRIC) when every swap of two adjacent particles
    maps the value map `amps` to itself (to its negation), else NONE: those
    swaps generate S_N, and the sign is a homomorphism.  Each swap maps the
    states by one getter.  A swap that fixes every term takes one comparison
    per term and no getter, and fails A, since v = -v has no nonzero solution.
    """
    states, values = list(amps), list(amps.values())
    negated = list(map(neg, values))
    n = len(states[0])
    symmetric = antisymmetric = True
    for i in range(n - 1):
        if all(map(eq, map(itemgetter(i), states), map(itemgetter(i + 1), states))):
            antisymmetric = False
        else:
            moved = list(map(amps.get, map(itemgetter(*range(i), i + 1, i, *range(i + 2, n)), states)))
            symmetric = symmetric and moved == values
            antisymmetric = antisymmetric and moved == negated
        if not (symmetric or antisymmetric):
            return SymmetryTag.NONE
    return SymmetryTag.SYMMETRIC if symmetric else SymmetryTag.ANTISYMMETRIC


def classify_symmetry(v: StateVector) -> SymmetryClass:
    """Tag a vector symmetric/antisymmetric under every transposition, a
    member of an N = 3 mixed-symmetry stable plane, or none of those."""
    if instance(v, StateVector, "vector").is_zero:
        raise ZeroVectorInput("cannot classify the zero vector")
    tag = v._tag if isinstance(v, _OrbitState) else _exchange_tag(v._amps)
    if tag is not SymmetryTag.NONE or v.n_particles != 3:
        return SymmetryClass(tag)
    # On three distinct levels, particle swaps and level relabellings are two
    # commuting S_3 actions on the orbit.  A vector with no S and no A part is
    # in one of the six planes of the mixed sector when relabelling the two
    # levels other than some c maps it to +v (pair 1) or -v (pair 2);
    # swapping particles 1 and 2 then picks the member.
    states, values = list(v._amps), list(v._amps.values())
    signs = {(states[0][a], states[0][b], states[0][c]): k for (a, b, c), k in _SIGNS.items()}
    on_orbit = len(signs) == 6 and signs.keys() >= v._amps.keys()
    if on_orbit and not sum(values) and not sum(map(mul, map(signs.get, states), values)):
        opposite = [-a for a in values]
        flip = [v._amps.get((b, a, c)) for a, b, c in states]  # particles 1 and 2 exchanged
        for c in states[0]:
            x, y = set(states[0]) - {c}
            relabel = {x: y, y: x, c: c}
            image = [v._amps.get(tuple([relabel[x] for x in s])) for s in states]
            for pair, same, other in ((1, values, opposite), (2, opposite, values)):
                if image == same:
                    member = 1 if flip == same else 2 if flip == other else None
                    return SymmetryClass(SymmetryTag.MIXED, pair, member)
    return SymmetryClass(SymmetryTag.NONE)


def symmetric_antisymmetric_dimensions(levels: Sequence[int]) -> tuple[int, int]:
    """Dimensions of the symmetric and antisymmetric sectors inside the
    span of the permutation orbit of `levels`: the symmetrizer maps every
    ordering onto one line, and the antisymmetrizer does too when the
    levels are distinct and cancels every ordering when a level repeats."""
    levels = _check_levels(levels)
    return (1, 1 if len(set(levels)) == len(levels) else 0)
