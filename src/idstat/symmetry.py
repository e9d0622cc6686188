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
from itertools import chain, combinations, groupby, permutations, repeat
from operator import eq, itemgetter, mul, neg
from typing import Iterable, Literal, Sequence

from .config import ORBIT_BASIS_NAMES
from .errors import CapacityExceeded, InputError, ZeroVectorInput, count, instance, items, shown
from .exactnum import ONE, ZERO, RadicalRational, rsqrt_of_rational
from .perm import Permutation

Parity = Literal["S", "A"]


def _check_levels(levels: Sequence[int]) -> tuple[int, ...]:
    return tuple([count(lv, "level index") for lv in items(levels, "levels")])


class StateVector:
    """Sparse map from product states to exact amplitudes: int or Rational
    values, each times the one scale of the vector.

    A vector is never changed after it is built, so the norm, the square of
    the scale and the one-body weights of each slot are computed once and
    kept in `_memo`.  `symmetrize` returns the subclass `_OrbitState`, which
    answers these from its levels and builds its terms only when they are
    read.
    """

    __slots__ = ("n_particles", "basis_size", "_amps", "_scale", "_memo")

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
                clean[state] = q
                top = max(top, max(state, default=-1))
        self._amps = clean
        self._scale = RadicalRational(1, radicand or 1)
        self.basis_size = top + 1
        self._memo = {}

    @classmethod
    def _trusted(cls, n_particles: int, amps: dict, basis_size: int,
                 scale: RadicalRational) -> "StateVector":
        """Skip __init__'s checks: every key of `amps` must already be a
        tuple of n_particles nonnegative ints below basis_size, every value
        a nonzero int or Rational, and `scale` nonzero."""
        v = cls.__new__(cls)
        v.n_particles, v._amps, v.basis_size, v._scale = n_particles, amps, basis_size, scale
        v._memo = {}
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
        """q^2 r for the scale q*sqrt(r): a sum of value products times this
        is the sum of the amplitude products."""
        square = self._memo.get("square")
        if square is None:
            ((r, q),) = self._scale.items()
            square = self._memo["square"] = q * q * r
        return square

    def norm_squared(self) -> RadicalRational:
        norm = self._memo.get("norm")
        if norm is None:
            values = self._amps.values()
            norm = self._memo["norm"] = RadicalRational(self._square() * sum(map(mul, values, values)))
        return norm

    def _one_body(self, slot: int) -> tuple[dict, list]:
        """What a one-body quantity of `slot` needs, computed once.

        The weights {level: sum of squared values} fold a tally of the
        terms by (level in `slot`, value).  The cross groups [[(level,
        value), ...]] hold the terms that agree on every other slot, two or
        more per group, found by one count of the spectators (the other
        slots) of each term.  An orbit state answers both from its levels.
        """
        key = ("slot", slot)
        memo = self._memo.get(key)
        if memo is None:
            amps = self._amps
            states, values = amps.keys(), amps.values()
            weights = {}
            for (lv, a), n in Counter(zip(map(itemgetter(slot), states), values)).items():
                weights[lv] = weights.get(lv, 0) + n * a * a
            groups: dict = {}
            others = [j for j in range(self.n_particles) if j != slot]
            spectator = itemgetter(*others) if others else (lambda s: ())
            seen = Counter(map(spectator, states))
            for s, a in amps.items():
                if seen[spec := spectator(s)] > 1:
                    groups.setdefault(spec, []).append((s[slot], a))
            memo = self._memo[key] = (weights, list(groups.values()))
        return memo

    def permuted(self, p: Permutation) -> "StateVector":
        """Each term's state moved as `Permutation.apply` moves it, by one
        getter of the inverse mapping (the identity on N <= 1)."""
        n = instance(p, Permutation, "permutation").n
        if len(self) and n != self.n_particles:  # as `apply` refuses each term
            raise InputError(f"state length {self.n_particles} != permutation order {n}")
        move = itemgetter(*sorted(range(n), key=p.mapping.__getitem__)) if n > 1 else tuple
        moved = dict(zip(map(move, self._amps), self._amps.values()))
        return StateVector._trusted(self.n_particles, moved, self.basis_size, self._scale)

    def __repr__(self) -> str:
        body = " ".join(f"{s}:{a}" for s, a in self.items())
        return f"StateVector<{self.n_particles}>({body or '0'})"


def product_state_vector(levels: Sequence[int]) -> StateVector:
    """The bare product state |l_1 ... l_N> as a unit vector."""
    levels = _check_levels(levels)
    return StateVector(len(levels), {levels: 1})


def _dot(u: dict, v: dict):
    """Sum of value products over the states two value maps share."""
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    return sum(a * b for s, a in small.items() if (b := big.get(s)) is not None)


#: Largest permutation orbit (number of distinct orderings of the levels)
#: that symmetrization builds; the work and memory grow with it, not with N!.
MAX_ORBIT = math.factorial(9)
#: Most particles symmetrization takes.  The scale 1/sqrt(|orbit|), |orbit|
#: <= MAX_ORBIT, meets no radicand cap; this cap keeps N! and prod(m_k!) short
#: and refuses a long label list before any factorial of its length is taken.
MAX_SYMMETRIZE_N = 14
#: Most labels exchange_degeneracy_dimension takes.  Its division of N! by
#: prod(m_k!) is quadratic in CPython: 10**5 labels take 0.2 s (all distinct)
#: to 1.3 s (on 100 levels), 10**6 labels on 1000 levels took 182 s.
MAX_DEGENERACY_LABELS = 10**5


def _insertions(n: int, m: int, size: int) -> tuple[tuple, tuple]:
    """Every way to insert m copies of a new level among n placed ones.

    An ordering is a `size`-tuple whose first n slots hold the levels placed
    so far and whose tail holds the levels still to place, smallest first,
    so the new level's copies sit at n .. n + m - 1.  Each choice c of m
    positions out of n + m is one getter that moves them there and keeps
    the tail, with the parity of the inversions it adds: the copy at c[i]
    has n - c[i] + i placed (smaller) levels after it.  Nothing is cached:
    only a repeated-level orbit state whose terms are read builds these.
    """
    getters, odd = [], []
    for c in combinations(range(n + m), m):
        placed = iter(range(n))
        getters.append(itemgetter(*[n if j in c else next(placed) for j in range(n + m)],
                                  *range(n + m, size)))
        odd.append((m * n + m * (m - 1) // 2 - sum(c)) % 2)
    return tuple(getters), tuple(odd)


def _orderings(levels: tuple[int, ...], signed: bool) -> tuple[Iterable, Iterable]:
    """Each distinct ordering of `levels` once, and in step with them the
    sign of the permutation taking `levels` to each (meaningful only for
    distinct levels; all 1 unless `signed`), as two lazy iterables: the last
    stage is never held in a list.

    Distinct levels: the orderings are `itertools.permutations` of the
    sorted levels, in lexicographic order.  Block d of that order, where the
    first slot holds the d-th smallest level, is the order of the other
    levels with d more inversions, so its signs are (-1)^d times the signs
    of one level fewer; each stream is built from the last by list
    concatenation, and the last one is a chain of its blocks.

    Repeated levels, where `permutations` would yield duplicates: staged
    insertion builds the orderings one distinct level at a time, smallest
    first, each stage mapping one getter of `_insertions` over the
    orderings so far.  A new level is larger than every level placed, so an
    ordering's sign is its parent's, negated when the insertion adds an odd
    number of inversions.

    Either way no Python step runs per ordering, and the parity of the
    input order's inversions is applied once, to the first ordering's sign.
    """
    inversions = sum(x > y for i, x in enumerate(levels) for y in levels[i + 1 :]) if signed else 0
    first = tuple(sorted(levels))
    sign = -1 if inversions % 2 else 1
    if len(set(first)) == len(first) > 1:
        if not signed:
            return permutations(first), repeat(1, math.factorial(len(first)))
        signs = [sign]  # of the orderings of j levels, j = 1 .. N - 1
        for j in range(2, len(first)):
            flipped = list(map(neg, signs))
            signs = (signs + flipped) * (j // 2) + signs * (j % 2)
        blocks = (signs, list(map(neg, signs)))
        blocks = blocks * (len(first) // 2) + blocks[:1] * (len(first) % 2)
        return permutations(first), chain.from_iterable(blocks)
    runs = [len(list(copies)) for _, copies in groupby(first)]
    keys, values = [first], [sign]
    n = runs[0] if runs else 0
    for m in runs[1:]:
        orderings, signs = list(keys), list(values)
        getters, odd = _insertions(n, m, len(first))
        keys = chain.from_iterable(map(map, getters, repeat(orderings)))
        values = chain.from_iterable(map((signs, list(map(neg, signs))).__getitem__, odd))
        n += m
    return keys, values


def _orbit(levels: tuple[int, ...], signed: bool) -> dict:
    """`_orderings` as one dict, each ordering mapped to its sign when
    `signed`, else to 1."""
    keys, values = _orderings(levels, signed)
    return dict(zip(keys, values)) if signed else dict.fromkeys(keys, 1)


class _OrbitState(StateVector):
    """A symmetrized state held as its levels in input order, |orbit| and
    scale.  Every particle has the level distribution m_k/N, so its length,
    norm, slot weights and tag need no terms; `_orbit` builds them once,
    when `_amps` is first read (`items`, `==`, a dot, `permuted`)."""

    __slots__ = ("_levels", "_size", "_tag", "_terms")

    def __init__(self, levels: tuple[int, ...], antisymmetric: bool, size: int, scale: RadicalRational):
        self.n_particles, self.basis_size, self._scale = len(levels), max(levels, default=-1) + 1, scale
        self._levels, self._size, self._terms, self._memo = levels, size, None, {"norm": ONE}
        # a swap negates it under 'A' on N >= 2; N <= 1 has no swap, and its one ordering has sign 1
        self._tag = SymmetryTag.ANTISYMMETRIC if antisymmetric and len(levels) > 1 else SymmetryTag.SYMMETRIC

    @property
    def _amps(self) -> dict:
        if self._terms is None:
            self._terms = _orbit(self._levels, self._tag is SymmetryTag.ANTISYMMETRIC)
        return self._terms

    def __len__(self) -> int:
        return self._size

    def _one_body(self, slot: int) -> tuple[dict, list]:
        """Level k fills the slot in |orbit| m_k / N orderings, each of value
        +-1; orderings of one multiset never differ in one slot only, so
        there are no cross groups."""
        return {lv: self._size * m // self.n_particles for lv, m in Counter(self._levels).items()}, []


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
    slot weights and tag from the levels in O(N), and builds its orderings
    and their signs by `_orbit` when its terms are read: cost and memory
    then scale with |orbit| = N!/prod(m_k!).  More than MAX_SYMMETRIZE_N
    particles or MAX_ORBIT orderings are refused before the state is built.
    """
    levels = _check_levels(levels)
    if parity not in ("S", "A"):
        raise InputError(f"parity must be 'S' or 'A', got {shown(parity, repr)}")
    if len(levels) > MAX_SYMMETRIZE_N:  # before any factorial is taken
        raise CapacityExceeded(
            f"symmetrization of {len(levels)} particles exceeds cap {MAX_SYMMETRIZE_N}"
        )
    orbit = exchange_degeneracy_dimension(levels)
    if orbit > MAX_ORBIT:
        raise CapacityExceeded(
            f"symmetrization orbit of {orbit} product states exceeds cap {MAX_ORBIT} = 9!"
        )
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


def orbit_basis_n3(levels: Sequence[int]) -> tuple[StateVector, ...]:
    """Orthonormal six-vector basis of the distinct-level orbit span, in
    ORBIT_BASIS_NAMES order: each member is its pattern's numerators on the
    orderings of `levels`, scaled by 1/sqrt(sum of their squares)."""
    levels = _check_levels(levels)
    if len(levels) != 3 or len(set(levels)) != 3:
        raise InputError("defined for exactly three pairwise distinct levels")
    return tuple([
        StateVector._trusted(3, {(levels[a], levels[b], levels[c]): k for (a, b, c), k in p.items()},
                             max(levels) + 1, rsqrt_of_rational(Fraction(1, sum(k * k for k in p.values()))))
        for p in (*_END_PATTERNS, *_MIXED_PATTERNS.values())
    ])


def decompose(
    v: StateVector, basis: Sequence[StateVector]
) -> tuple[list[RadicalRational], StateVector]:
    """Exact coefficients of v in an orthonormal basis plus the residual.

    The basis is verified orthonormal exactly first, from each member's
    norm and the value dots between members: a member's scale is nonzero,
    so two members are orthogonal exactly when their values are.  A
    residual of zero (empty map) certifies the decomposition is complete.
    The residual keeps v's scale: for a member b of scale q*sqrt(r),
    <b|v> b is v's scale times the weight q^2 r (sum of b's values times
    v's) times b's values.  The weights share one denominator, so the sum
    of the projections is an int sum per state, and each residual value is
    built once from it.
    """
    v = instance(v, StateVector, "vector")
    basis = [instance(b, StateVector, "basis member") for b in items(basis, "basis")]
    for i, b in enumerate(basis):
        for j in range(i, len(basis)):
            if (b.norm_squared() != ONE) if i == j else _dot(b._amps, basis[j]._amps):
                raise InputError(f"members {i} and {j} fail exact orthonormality")
    coeffs, weights = [], []
    for b in basis:
        if b.n_particles != v.n_particles:
            raise InputError("particle counts differ")
        dot = _dot(b._amps, v._amps)
        coeffs.append(b._scale * v._scale * dot if dot else ZERO)  # <b|v>
        if dot:
            weights.append((b._amps, b._square() * dot))
    den = math.lcm(*[w.denominator for _, w in weights])
    projected: dict = {}  # state -> den times the sum of the projections
    for amps, w in weights:
        k = w.numerator * (den // w.denominator)
        for s, a in amps.items():
            projected[s] = projected.get(s, 0) + k * a
    residual = dict(v._amps)
    for s, t in projected.items():
        if num := residual.get(s, 0) * den - t:
            residual[s] = Fraction(num, den)
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
