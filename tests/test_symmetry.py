"""Symmetrizer, mixed-symmetry basis, decomposition, classification."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from operator import mul

import pytest

from conftest import matrix, moved, mover, sign
from idstat.config import ORBIT_BASIS_NAMES
from idstat.errors import CapacityExceeded, InputError, ZeroVectorInput
from idstat.exactnum import _MAX_RADICAND, ONE, ZERO, RadicalRational, rsqrt_of_rational
from idstat.observables import OneBodyOperator, box_position_operator, occupancy_weights, one_body_expectation
from idstat.symmetry import (
    _MIXED_PATTERNS,
    MAX_DEGENERACY_LABELS,
    MAX_ORBIT,
    MAX_SYMMETRIZE_N,
    StateVector,
    _orbit,
    _orderings,
    _signs,
    SymmetryClass,
    SymmetryTag,
    classify_symmetry,
    decompose,
    exchange_degeneracy_dimension,
    orbit_basis_n3,
    product_state_vector,
    symmetric_antisymmetric_dimensions,
    symmetrize,
)
from idstat.verify import _check_pair_planes, _inner_product

INV_SQRT2 = rsqrt_of_rational(Fraction(1, 2))
INV_SQRT3 = rsqrt_of_rational(Fraction(1, 3))
INV_SQRT6 = rsqrt_of_rational(Fraction(1, 6))
HALF = RadicalRational.of(Fraction(1, 2))


def negated(v):
    return StateVector(v.n_particles, {s: -a for s, a in v.items()})


def test_two_particle_symmetrize():
    res = symmetrize((0, 1), "S")
    assert res.vector.items() == [((0, 1), INV_SQRT2), ((1, 0), INV_SQRT2)]
    assert res.raw_norm_squared == ONE and not res.is_zero

    res = symmetrize((0, 1), "A")
    assert dict(res.vector.items()).get((0, 1), ZERO) == INV_SQRT2
    assert dict(res.vector.items()).get((1, 0), ZERO) == -INV_SQRT2


def test_three_particle_distinct_symmetrize():
    res = symmetrize((0, 1, 2), "S")
    assert len(res.vector) == 6
    assert all(a == INV_SQRT6 for _, a in res.vector.items())
    assert res.vector.norm_squared() == ONE

    res = symmetrize((0, 1, 2), "A")
    assert len(res.vector) == 6
    assert dict(res.vector.items()).get((0, 1, 2), ZERO) == INV_SQRT6  # identity term positive
    assert {str(a) for _, a in res.vector.items()} == {"1/6*sqrt(6)", "-1/6*sqrt(6)"}
    assert res.raw_norm_squared == ONE


def test_repeated_levels_symmetric_renormalizes():
    res = symmetrize((0, 0, 1), "S")
    assert res.raw_norm_squared == 2
    assert res.vector.items() == [
        ((0, 0, 1), INV_SQRT3),
        ((0, 1, 0), INV_SQRT3),
        ((1, 0, 0), INV_SQRT3),
    ]
    assert res.vector.norm_squared() == ONE


def test_repeated_levels_antisymmetric_is_zero_flag():
    res = symmetrize((0, 0, 1), "A")
    assert res.is_zero
    assert res.vector.is_zero
    assert res.raw_norm_squared == ZERO


def test_all_equal_levels_symmetric():
    res = symmetrize((4, 4, 4), "S")
    assert res.raw_norm_squared == 6
    assert res.vector.items() == [((4, 4, 4), ONE)]


def test_mixed_basis_amplitudes():
    s1, s2, s1p, s2p = orbit_basis_n3((0, 1, 2))[2:]
    assert dict(s1.items()).get((0, 1, 2), ZERO) == INV_SQRT3
    assert dict(s1.items()).get((1, 0, 2), ZERO) == INV_SQRT3
    assert dict(s1.items()).get((0, 2, 1), ZERO) == -rsqrt_of_rational(Fraction(1, 12))
    assert len(s2) == 4
    assert {str(a) for _, a in s2.items()} == {"1/2", "-1/2"}
    assert dict(s2.items()).get((0, 2, 1), ZERO) == HALF
    assert dict(s2.items()).get((2, 0, 1), ZERO) == -HALF
    for v in (s1, s2, s1p, s2p):
        assert v.norm_squared() == ONE


def test_mixed_basis_requires_three_distinct():
    with pytest.raises(InputError):
        orbit_basis_n3((0, 0, 1))
    with pytest.raises(InputError):
        orbit_basis_n3((0, 1))


def test_orbit_basis_exactly_orthonormal():
    basis = orbit_basis_n3((0, 1, 2))
    assert len(basis) == 6
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert _inner_product(u, v) == (ONE if i == j else ZERO)


@pytest.mark.parametrize("levels", list(permutations((0, 3, 7))), ids=lambda t: "-".join(map(str, t)))
def test_orbit_basis_antisymmetric_orientation(levels):
    sym, anti = orbit_basis_n3(levels)[:2]
    assert dict(anti.items()).get(levels, ZERO) == -INV_SQRT6
    assert sym == symmetrize(levels, "S").vector
    # opposite orientation of the plain antisymmetrizer
    assert anti == negated(symmetrize(levels, "A").vector)


def test_inner_product_examples():
    sym = symmetrize((0, 1, 2), "S").vector
    anti = symmetrize((0, 1, 2), "A").vector
    assert _inner_product(sym, sym) == ONE
    assert _inner_product(sym, anti) == ZERO
    s1 = orbit_basis_n3((0, 1, 2))[2]
    assert _inner_product(s1, product_state_vector((0, 1, 2))) == INV_SQRT3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parity_sectors_exhaustive(n):
    levels = tuple(range(n))
    sym = symmetrize(levels, "S").vector
    anti = symmetrize(levels, "A").vector
    for p in permutations(range(n)):
        assert moved(sym, p) == sym
        expected = anti if sign(p) == 1 else negated(anti)
        assert moved(anti, p) == expected


def test_permutation_preserves_norm():
    s1 = orbit_basis_n3((0, 1, 2))[2]
    for p in permutations(range(3)):
        assert moved(s1, p).norm_squared() == ONE


def test_transposition_rotates_inside_mixed_pair():
    s1, s2, _, _ = orbit_basis_n3((0, 1, 2))[2:]
    coeffs, residual = decompose(moved(s1, (0, 2, 1)), [s1, s2])
    assert residual.is_zero
    assert coeffs[0] == RadicalRational.of(Fraction(-1, 2))
    assert coeffs[1] == rsqrt_of_rational(Fraction(3, 4))  # sqrt(3)/2


def test_mixed_pairs_are_stable_planes():
    s1, s2, s1p, s2p = orbit_basis_n3((0, 1, 2))[2:]
    for p in permutations(range(3)):
        for v in (s1, s2):
            coeffs, residual = decompose(moved(v, p), [s1, s2])
            assert residual.is_zero
            assert sum((c * c for c in coeffs), ZERO) == ONE
        for v in (s1p, s2p):
            coeffs, residual = decompose(moved(v, p), [s1p, s2p])
            assert residual.is_zero
            assert sum((c * c for c in coeffs), ZERO) == ONE


def test_decompose_product_state_on_orbit_basis():
    basis = orbit_basis_n3((0, 1, 2))
    coeffs, residual = decompose(product_state_vector((0, 1, 2)), basis)
    assert residual.is_zero
    assert coeffs[0] == INV_SQRT6
    assert coeffs[1] == -INV_SQRT6
    assert coeffs[2] == INV_SQRT3
    assert coeffs[3] == ZERO
    assert coeffs[4] == INV_SQRT3
    assert coeffs[5] == ZERO
    assert sum((c * c for c in coeffs), ZERO) == ONE


def test_decompose_partial_basis_residual():
    sym = symmetrize((0, 0, 1), "S").vector
    coeffs, residual = decompose(product_state_vector((0, 0, 1)), [sym])
    assert coeffs == [INV_SQRT3]
    assert residual.norm_squared() == Fraction(2, 3)


def test_decompose_rejects_bad_basis():
    v = product_state_vector((0, 1))
    with pytest.raises(InputError):
        decompose(v, [v, v])
    with pytest.raises(InputError):
        decompose(v, [StateVector(2, {(0, 1): 2})])


def _fraction_decompose(v, basis):
    """Oracle: the decomposition on Fraction products that the integer sums
    replaced, step for step: the Gram check by `norm_squared` and a dot per
    pair, each coefficient as scale times scale times dot, and the residual
    over the common denominator of Fraction weights, each value it builds a
    Fraction.  Returns the coefficients and the residual's value map."""

    def dot(u, w):
        small, big = (u, w) if len(u) <= len(w) else (w, u)
        return sum(a * b for s, a in small.items() if (b := big.get(s)) is not None)

    for i, b in enumerate(basis):
        for j in range(i, len(basis)):
            if (b.norm_squared() != ONE) if i == j else dot(b._amps, basis[j]._amps):
                raise InputError(f"members {i} and {j} fail exact orthonormality")
    coeffs, weights = [], []
    for b in basis:
        if b.n_particles != v.n_particles:
            raise InputError("particle counts differ")
        d = dot(b._amps, v._amps)
        coeffs.append(b._scale * v._scale * d if d else ZERO)
        if d:
            ((r, q),) = b._scale.items()
            weights.append((b._amps, q * q * r * d))
    den = math.lcm(*[w.denominator for _, w in weights])
    projected = {}
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
    return coeffs, residual


def _decompositions_agree(v, levels):
    """decompose and the Fraction oracle, each on a fresh basis (no memo
    shared), give equal coefficients of one type and equal residuals."""
    coeffs, residual = decompose(v, orbit_basis_n3(levels))
    want, want_residual = _fraction_decompose(v, orbit_basis_n3(levels))
    assert coeffs == want and list(map(type, coeffs)) == list(map(type, want)), (v, levels)
    assert residual._amps == want_residual and residual._scale == v._scale, (v, levels)
    assert residual.items() == StateVector._trusted(3, want_residual, residual.basis_size, v._scale).items()
    return coeffs, residual


def test_decompose_matches_the_fraction_oracle_on_every_level_order():
    rng = random.Random(34)
    roots = {2: rsqrt_of_rational(2), 3: rsqrt_of_rational(3)}
    cases = residuals = 0
    for triple in itertools.combinations(range(5), 3):
        for levels in permutations(triple):
            spare = next(lv for lv in range(5) if lv not in triple)
            vectors = [product_state_vector(o) for o in permutations(levels)]
            vectors += [product_state_vector((levels[0], levels[0], levels[1])),
                        product_state_vector((spare, levels[1], levels[2]))]
            vectors += list(orbit_basis_n3(levels)) + list(orbit_basis_n3((spare, levels[0], levels[2])))
            vectors += [symmetrize(lv, p).vector for lv in (levels, (levels[0], levels[0], levels[2]),
                                                             (levels[1], levels[2], spare)) for p in "SA"]
            for _ in range(4):
                states = list(permutations(levels)) + [(spare, levels[0], levels[1]), (levels[2],) * 3]
                root = roots[rng.choice((2, 3))]
                vectors.append(StateVector(3, {s: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * root
                                               for s in rng.sample(states, rng.randint(1, len(states)))}))
            for v in vectors:
                if not v.is_zero:
                    cases += 1
                    residuals += not _decompositions_agree(v, levels)[1].is_zero
    assert min(residuals, cases - residuals) > 600, (cases, residuals)  # partial and complete ones


def test_decompose_stores_integral_residual_values_as_ints():
    pair = StateVector(2, {(0, 1): INV_SQRT2, (1, 0): INV_SQRT2})
    _, residual = decompose(StateVector(2, {(0, 1): 3, (1, 0): 1, (1, 1): 5}), [pair])
    assert residual._amps == {(0, 1): 1, (1, 0): -1, (1, 1): 5}
    assert {type(a) for a in residual._amps.values()} == {int}
    _, residual = decompose(product_state_vector((0, 0, 1)), [symmetrize((0, 0, 1), "S").vector])
    assert residual._amps == {(0, 0, 1): Fraction(2, 3), (0, 1, 0): Fraction(-1, 3), (1, 0, 0): Fraction(-1, 3)}


def test_decompose_refuses_the_first_failing_pair_in_pair_order():
    """One member with norm 4 and one copied member: the refusal names the
    pair the Fraction oracle names first, on every placement of the two."""
    base = orbit_basis_n3((2, 0, 1))
    for bad in range(6):
        for j, k in itertools.permutations([m for m in range(6) if m != bad], 2):
            basis = list(base)
            basis[bad] = StateVector(3, {s: 2 * a for s, a in base[bad].items()})
            basis[k] = base[j]
            messages = []
            for run in (decompose, _fraction_decompose):
                with pytest.raises(InputError) as info:
                    run(product_state_vector((0, 1, 2)), basis)
                messages.append(str(info.value))
            first = min((bad, bad), tuple(sorted((j, k))))
            assert messages == [f"members {first[0]} and {first[1]} fail exact orthonormality"] * 2


def test_decompose_refuses_a_zero_member_and_a_radicand_past_the_cap():
    basis = list(orbit_basis_n3((0, 1, 2)))
    for at in (0, 3, 5):
        with pytest.raises(InputError, match=f"^members {at} and {at} fail exact orthonormality$"):
            decompose(product_state_vector((0, 1, 2)), basis[:at] + [StateVector(3)] + basis[at + 1:])
    assert 2 * 999983 > _MAX_RADICAND  # 999983 is prime
    member = StateVector(1, {(0,): INV_SQRT2, (1,): INV_SQRT2})
    for run in (decompose, _fraction_decompose):
        with pytest.raises(CapacityExceeded, match="^product radicand 1999966 exceeds cap"):
            run(StateVector(1, {(0,): rsqrt_of_rational(999983)}), [member])
        # a zero dot builds no scale product, so it meets no cap
        coeffs, _ = run(StateVector(1, {(2,): rsqrt_of_rational(999983)}), [member])
        assert coeffs == [ZERO]


def test_state_vector_stores_integral_amplitudes_as_ints():
    amps = {(0, 1): 3, (1, 0): Fraction(4, 2), (1, 1): Fraction(1, 2), (0, 0): RadicalRational.of(Fraction(-6, 3))}
    v = StateVector(2, amps)
    assert v._amps == {(0, 1): 3, (1, 0): 2, (1, 1): Fraction(1, 2), (0, 0): -2}
    assert {s: type(a) for s, a in v._amps.items()} == {(0, 1): int, (1, 0): int, (1, 1): Fraction, (0, 0): int}
    want = [((0, 0), -2), ((0, 1), 3), ((1, 0), 2), ((1, 1), Fraction(1, 2))]
    assert v.items() == [(s, RadicalRational.of(Fraction(a))) for s, a in want]
    assert all(type(a) is RadicalRational and type(a._q) is Fraction for _, a in v.items())
    assert v.norm_squared() == RadicalRational.of(Fraction(69, 4))  # 4 + 9 + 4 + 1/4
    assert v == StateVector(2, {s: Fraction(a) for s, a in want})
    root = StateVector(2, {(0, 1): 2 * rsqrt_of_rational(2), (1, 0): -rsqrt_of_rational(2)})
    assert root._amps == {(0, 1): 2, (1, 0): -1} and {type(a) for a in root._amps.values()} == {int}
    assert root.items() == [((0, 1), 2 * rsqrt_of_rational(2)), ((1, 0), -rsqrt_of_rational(2))]
    assert root.norm_squared() == 10 and root._square() == 2


@pytest.mark.parametrize(
    "levels, dim", [((0, 0, 0), 1), ((0, 0, 1), 3), ((0, 1, 2), 6)]
)
def test_exchange_degeneracy_examples(levels, dim):
    assert exchange_degeneracy_dimension(levels) == dim


def _partitions(n, cap=None):
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exchange_degeneracy_matches_orbit_count(n):
    for shape in _partitions(n):
        levels = []
        for idx, mult in enumerate(shape):
            levels.extend([idx] * mult)
        levels = tuple(levels)
        assert exchange_degeneracy_dimension(levels) == len(set(permutations(levels)))


def test_exchange_degeneracy_of_long_label_lists():
    # one count per distinct level once made the cost grow with N^2: 1.3 s at 10**4 labels
    start = time.perf_counter()
    assert exchange_degeneracy_dimension(range(10**5)) == math.factorial(10**5)
    assert time.perf_counter() - start < 2.0
    assert exchange_degeneracy_dimension([lv % 3 for lv in range(30)]) == math.factorial(30) // math.factorial(10) ** 3
    assert exchange_degeneracy_dimension([7] * 1000) == 1


def test_exchange_degeneracy_past_the_label_cap_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match=f"{MAX_DEGENERACY_LABELS + 1} labels exceeds cap"):
        exchange_degeneracy_dimension((0,) * (MAX_DEGENERACY_LABELS + 1))
    assert time.perf_counter() - start < 0.5
    assert exchange_degeneracy_dimension((0,) * MAX_DEGENERACY_LABELS) == 1


def test_symmetrize_result_zero_flag_reads_the_vector():
    for levels, parity in (((0, 0), "A"), ((0, 1), "A"), ((0, 0), "S")):
        res = symmetrize(levels, parity)
        assert res.is_zero is res.vector.is_zero is (levels == (0, 0) and parity == "A")


def test_classify_symmetric_antisymmetric():
    sym = symmetrize((0, 1, 2), "S").vector
    anti = symmetrize((0, 1, 2), "A").vector
    assert classify_symmetry(sym).tag is SymmetryTag.SYMMETRIC
    assert classify_symmetry(anti).tag is SymmetryTag.ANTISYMMETRIC
    assert classify_symmetry(symmetrize((3, 3, 5), "S").vector).tag is SymmetryTag.SYMMETRIC


def test_classify_mixed_members():
    s1, s2, s1p, s2p = orbit_basis_n3((0, 1, 2))[2:]
    assert classify_symmetry(s1) == classify_symmetry(s1).__class__(SymmetryTag.MIXED, 1, 1)
    assert classify_symmetry(s2).pair == 1 and classify_symmetry(s2).member == 2
    assert classify_symmetry(s1p).pair == 2 and classify_symmetry(s1p).member == 1
    assert classify_symmetry(s2p).pair == 2 and classify_symmetry(s2p).member == 2


def test_classify_in_plane_combination():
    # s1 + sqrt(3) s2: both amplitudes carry sqrt(3), so the sum has one scale
    s1, s2, _, _ = orbit_basis_n3((0, 1, 2))[2:]
    root3 = rsqrt_of_rational(3)
    a1, a2 = dict(s1.items()), dict(s2.items())
    combo = StateVector(3, {s: a1.get(s, ZERO) + root3 * a2.get(s, ZERO) for s in a1})
    coeffs, residual = decompose(combo, [s1, s2])
    assert coeffs == [ONE, root3] and residual.is_zero
    cls = classify_symmetry(combo)
    assert cls.tag is SymmetryTag.MIXED and cls.pair == 1 and cls.member is None


def test_classify_none_and_zero():
    assert classify_symmetry(product_state_vector((0, 1, 2))).tag is SymmetryTag.NONE
    with pytest.raises(ZeroVectorInput):
        classify_symmetry(StateVector(2))


# -- N = 3: the mixed planes of every level order ------------------------------

MIXED_MEMBERS = {"s1": (1, 1), "s2": (1, 2), "s1p": (2, 1), "s2p": (2, 2)}


@pytest.mark.parametrize("triple", [(0, 1, 2), (2, 7, 4)])
def test_classify_mixed_members_on_every_level_order(triple):
    for levels in permutations(triple):
        basis = dict(zip(ORBIT_BASIS_NAMES, orbit_basis_n3(levels)))
        for name, (pair, member) in MIXED_MEMBERS.items():
            got = classify_symmetry(basis[name])
            assert got == SymmetryClass(SymmetryTag.MIXED, pair, member), (levels, name)
    # a term off the orbit, or a level repeated, leaves no mixed plane
    s1 = dict(orbit_basis_n3(triple)[2].items())
    assert classify_symmetry(StateVector(3, {**s1, (0, 0, 3): s1[triple]})).tag is SymmetryTag.NONE
    assert classify_symmetry(StateVector(3, {(0, 0, 1): 1, (0, 1, 0): -1})).tag is SymmetryTag.NONE


@pytest.mark.parametrize("name, relabel, swap", [("s1", 1, 1), ("s2", 1, -1), ("s1p", -1, -1), ("s2p", -1, 1)])
def test_basis_patterns_carry_the_parities_classify_reads(name, relabel, swap):
    # Ordering o puts input level o[i] in slot i: relabelling the first two
    # levels exchanges the values 0 and 1 of o, and exchanging particles 1
    # and 2 exchanges o[0] and o[1].
    pattern = _MIXED_PATTERNS[name]
    assert sum(pattern.values()) == 0 == sum(sign(o) * k for o, k in pattern.items())
    relabelled = {tuple((1, 0, 2)[m] for m in o): k for o, k in pattern.items()}
    assert relabelled == {o: k * relabel for o, k in pattern.items()}
    exchanged = {(o[1], o[0], o[2]): k for o, k in pattern.items()}
    assert exchanged == {o: k * swap for o, k in pattern.items()}
    assert MIXED_MEMBERS[name] == (1 if relabel == 1 else 2, 1 if swap == relabel else 2)


def _classify_by_decomposition(v):
    """Oracle: decompose v in the orbit basis of each of the six orders of
    its levels.  Two orders that differ in their first two levels span the
    same planes, so a plane is named by its last level and pair; at most one
    plane may hold v, and every order that finds it must agree on the member."""
    found = set()
    for levels in permutations(v.items()[0][0]):
        coeffs, residual = decompose(v, orbit_basis_n3(levels))
        assert residual.is_zero
        live = [i for i, c in enumerate(coeffs) if not c.is_zero]
        if live in ([0], [1]):
            return SymmetryClass((SymmetryTag.SYMMETRIC, SymmetryTag.ANTISYMMETRIC)[live[0]])
        for pair, idxs in ((1, {2, 3}), (2, {4, 5})):
            if set(live) <= idxs:
                member = 1 + live[0] % 2 if len(live) == 1 else None
                found.add((levels[2], pair, member))
    assert len(found) <= 1, found
    if not found:
        return SymmetryClass(SymmetryTag.NONE)
    ((_, pair, member),) = found
    return SymmetryClass(SymmetryTag.MIXED, pair, member)


def _seeded_orbit_vectors(seed, count):
    """Integer combinations on the orbit of three distinct levels: the two
    members of one order's plane, a mix of the four mixed members (with an S
    or A part now and then), and random amplitudes on the six orderings."""
    rng = random.Random(seed)
    vectors = []
    while len(vectors) < count:
        levels = tuple(rng.sample(range(6), 3))
        kind = len(vectors) % 3
        if kind == 2:
            amps = {s: rng.randint(-2, 2) for s in permutations(levels)}
        else:
            if kind == 0:
                first = rng.choice((2, 4))
                weights = {first: rng.randint(-3, 3), first + 1: rng.randint(-3, 3)}
            else:
                weights = {i: rng.randint(-2, 2) for i in range(2, 6)}
                if rng.random() < 0.3:
                    weights[rng.randint(0, 1)] = rng.randint(-2, 2)
            nums = [dict(b._amps) for b in orbit_basis_n3(levels)]
            amps = {s: sum(w * nums[i].get(s, 0) for i, w in weights.items()) for s in permutations(levels)}
        v = StateVector(3, amps)
        if not v.is_zero:
            vectors.append(v)
    return vectors


def test_classify_matches_decomposition_on_every_level_order():
    vectors = _seeded_orbit_vectors(2024, 600)
    got = [classify_symmetry(v) for v in vectors]
    assert got == [_classify_by_decomposition(v) for v in vectors]
    assert {(c.tag, c.pair, c.member) for c in got} == {
        (SymmetryTag.NONE, None, None),
        *((SymmetryTag.MIXED, pair, member) for pair in (1, 2) for member in (1, 2, None))}


def _tag_by_permuted_copies(v):
    """Oracle: the symmetric or antisymmetric tag from a permuted copy (and
    a negated copy) for every transposition; None when neither holds."""
    n = v.n_particles
    swaps = [tuple(j if k == i else i if k == j else k for k in range(n))
             for i in range(n) for j in range(i + 1, n)]
    if all(moved(v, p) == v for p in swaps):
        return SymmetryTag.SYMMETRIC
    if all(moved(v, p) == negated(v) for p in swaps):
        return SymmetryTag.ANTISYMMETRIC
    return None


def _forbid_copies(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_symmetry built a vector")

    monkeypatch.setattr(StateVector, "__init__", refuse)
    monkeypatch.setattr(StateVector, "_trusted", classmethod(refuse))


def test_classify_builds_no_copies_small_vectors(monkeypatch):
    vectors = []
    for n in range(1, 6):
        for levels in itertools.product(range(3), repeat=n):
            vectors.append(product_state_vector(levels))
            vectors += [r.vector for r in (symmetrize(levels, "S"), symmetrize(levels, "A")) if not r.is_zero]
    expected = [SymmetryClass(_tag_by_permuted_copies(v) or SymmetryTag.NONE) for v in vectors]
    _forbid_copies(monkeypatch)
    assert [classify_symmetry(v) for v in vectors] == expected


def test_classify_vectors_on_several_orbits(monkeypatch):
    # The support may be several orbits: S (A) needs each one whole, with
    # its own value (times the sign); some sums drop a term or change one.
    # Other maps repeat one pair of adjacent slots in every term, so that
    # swap fixes them all: S may hold there, A never does.
    rng, vectors, fixed = random.Random(26), [], []
    for _ in range(400):
        n, amps = rng.randint(1, 5), {}
        pair = n > 1 and rng.random() < 0.2
        if pair:
            j, constant = rng.randrange(n - 1), rng.random() < 0.5
            for _ in range(rng.randint(1, 4)):
                levels = [rng.randrange(3)] * n if constant else [rng.randrange(3) for _ in range(n)]
                levels[j + 1] = levels[j]
                amps[tuple(levels)] = rng.choice((1, -1, 2))
        else:
            for _ in range(rng.randint(2, 3)):
                levels, value, parity = [rng.randrange(4) for _ in range(n)], rng.choice((1, -1, 2, 3)), rng.choice("SA")
                for p in set(permutations(range(n))):
                    state = tuple(levels[i] for i in p)
                    amps[state] = amps.get(state, 0) + value * (sign(p) if parity == "A" else 1)
        amps = {s: a for s, a in amps.items() if a}
        if amps and rng.random() < 0.3:
            state = rng.choice(sorted(amps))
            if rng.random() < 0.5:
                del amps[state]
            else:
                amps[state] += 1
        if amps:
            vectors.append(StateVector(n, amps))
            fixed.append(pair)
    expected = [_tag_by_permuted_copies(v) for v in vectors]
    assert {SymmetryTag.SYMMETRIC, SymmetryTag.ANTISYMMETRIC, None} <= set(expected)
    assert {tag for tag, pair in zip(expected, fixed) if pair} == {SymmetryTag.SYMMETRIC, None}
    assert {v.n_particles for v in vectors} == {1, 2, 3, 4, 5}
    _forbid_copies(monkeypatch)
    for v, tag in zip(vectors, expected):
        got = classify_symmetry(v).tag
        assert (got if got in (SymmetryTag.SYMMETRIC, SymmetryTag.ANTISYMMETRIC) else None) == tag, v


def test_classify_builds_no_copies_orbit_bases(monkeypatch):
    bases = {levels: orbit_basis_n3(levels) for levels in [(0, 1, 2), (2, 0, 1)]}
    _forbid_copies(monkeypatch)
    got = {levels: [tuple(classify_symmetry(b).to_json().values()) for b in basis]
           for levels, basis in bases.items()}
    ends = [("symmetric", None, None), ("antisymmetric", None, None)]
    members = [("mixed", 1, 1), ("mixed", 1, 2), ("mixed", 2, 1), ("mixed", 2, 2)]
    assert got[(0, 1, 2)] == got[(2, 0, 1)] == ends + members


def test_classify_builds_no_copies_seven_and_eight_particles(monkeypatch):
    cases = [
        (tuple(range(7)), "S", SymmetryTag.SYMMETRIC),
        (tuple(range(7)), "A", SymmetryTag.ANTISYMMETRIC),
        ((3, 0, 0, 1, 1, 2, 2, 0), "S", SymmetryTag.SYMMETRIC),
        ((7, 2, 5, 0, 4, 1, 6, 3), "A", SymmetryTag.ANTISYMMETRIC),
        (tuple(range(8)), "S", SymmetryTag.SYMMETRIC),
    ]
    vectors = [(symmetrize(levels, parity).vector, tag) for levels, parity, tag in cases]
    _forbid_copies(monkeypatch)
    for v, tag in vectors:
        assert classify_symmetry(v) == SymmetryClass(tag)


def test_classify_sees_one_wrong_amplitude():
    anti = symmetrize((0, 1, 2, 3), "A").vector
    sym = symmetrize((0, 1, 1, 2), "S").vector
    for v in (anti, sym):
        state, amp = v.items()[-1]
        amps = dict(v.items())
        amps[state] = amp + amp  # one term off by a factor of 2
        assert classify_symmetry(StateVector(4, amps)).tag is SymmetryTag.NONE
        amps = dict(v.items())
        del amps[state]  # one term missing
        assert classify_symmetry(StateVector(4, amps)).tag is SymmetryTag.NONE
    # A copy built from a fresh amplitude object per term keeps its values
    # in units of the bare root, not of the orbit's scale.
    for v, tag in ((anti, SymmetryTag.ANTISYMMETRIC), (sym, SymmetryTag.SYMMETRIC)):
        copy = StateVector(4, {s: a * 1 for s, a in v.items()})
        assert copy == v and copy._scale != v._scale
        assert classify_symmetry(copy).tag is tag


def _orbit_states():
    """Every symmetrized state on N <= 7 levels: each multiset of levels
    0..3 with N <= 6, and the distinct levels 0..N-1 with N = 5..7, in
    sorted and reversed order, under S and A; the zero vectors of A on
    repeated levels are left out."""
    multisets = [m for n in range(7) for m in combinations_with_replacement(range(4), n)]
    multisets += [tuple(range(n)) for n in range(5, 8)]
    built = [symmetrize(levels[::order], parity).vector
             for levels in multisets for parity in "SA" for order in (1, -1)]
    return [v for v in built if not v.is_zero]


def test_orbit_states_answer_as_their_term_walk():
    # What an orbit state reads off its levels is what a copy through the
    # public constructor gets by walking its terms (and the copy holds its
    # values in units of the bare root, not +-1).
    exact_op = matrix([[Fraction(i * j + 1, i + j + 2) - (i == j) for j in range(7)] for i in range(7)])
    ops = (exact_op, box_position_operator(1.7, 7))
    states, tags = _orbit_states(), set()
    assert {v.n_particles for v in states} == set(range(8)) and len(states) == 464
    for v in states:
        n = v.n_particles
        copy = StateVector(n, dict(v.items()))
        assert type(v) is not StateVector and type(copy) is StateVector
        assert v.items() == copy.items() and len(v) == len(copy) and not v.is_zero and not copy.is_zero
        assert v.norm_squared() == copy.norm_squared() == ONE
        for i in range(n):
            # one density, in probability units: diagonal on both, since
            # orderings of one multiset never differ in one slot only
            density = {ij: v._square() * w for ij, w in v._one_body(i).items()}
            assert density == {ij: copy._square() * w for ij, w in copy._one_body(i).items()}, (v, i)
            assert all(i == j for i, j in density), (v, i)
            assert occupancy_weights(v, i) == occupancy_weights(copy, i)
            for op in ops:
                got, want = one_body_expectation(v, op, i), one_body_expectation(copy, op, i)
                assert got == want and type(got) is type(want), (v, i)
        tag = classify_symmetry(v)
        assert tag == classify_symmetry(copy), v
        tags.add(tag.tag)
        if n == 3:
            levels = v.items()[0][0]
            basis = orbit_basis_n3(levels if len(set(levels)) == 3 else (0, 1, 2))
            assert decompose(v, basis) == decompose(copy, basis), v
    assert tags == {SymmetryTag.SYMMETRIC, SymmetryTag.ANTISYMMETRIC}


def test_orbit_states_build_no_terms_for_o_n_answers(monkeypatch):
    def refuse(*args):
        raise AssertionError("the orbit was built")

    monkeypatch.setattr("idstat.symmetry._orbit", refuse)
    monkeypatch.setattr("idstat.symmetry._orderings", refuse)
    energies = OneBodyOperator.diagonal(range(1, 10))
    for parity, tag in (("A", SymmetryTag.ANTISYMMETRIC), ("S", SymmetryTag.SYMMETRIC)):
        v = symmetrize((3, 1, 4, 0, 5, 2, 8, 6, 7), parity).vector  # 9! orderings
        assert len(v) == math.factorial(9) and not v.is_zero and v.norm_squared() == ONE
        for i in (0, 4, 8):
            assert occupancy_weights(v, i) == [RadicalRational.of(Fraction(1, 9))] * 9
            assert one_body_expectation(v, energies, i) == 5
            assert one_body_expectation(v, box_position_operator(2.0, 9), i) == 1.0
        assert classify_symmetry(v) == SymmetryClass(tag)


def test_permuted_states_and_basis_members_get_the_tags_of_their_copies():
    # A permuted orbit state and an orbit basis member are plain vectors:
    # each streams its orbit for both tests, in its own value units.
    cycle = lambda n: tuple(range(1, n)) + (0,)
    vectors = [moved(v, cycle(v.n_particles)) for v in _orbit_states() if 1 <= v.n_particles <= 6]
    vectors += [*orbit_basis_n3((0, 2, 3)), *orbit_basis_n3((3, 1, 0))]
    tags = set()
    for v in vectors:
        got = classify_symmetry(v)
        assert got == classify_symmetry(StateVector(v.n_particles, dict(v.items()))), v
        tags.add(got.tag)
    assert tags == {SymmetryTag.SYMMETRIC, SymmetryTag.ANTISYMMETRIC, SymmetryTag.MIXED}


@pytest.mark.parametrize("name", ["s1", "s2", "s1p", "s2p"])
def test_ledger_pair_plane_images_move_each_term_as_apply_does(name, monkeypatch):
    # the ledger moves slots by one getter per term; the six images it
    # decomposes of a member are the six that conftest.moved makes, in
    # the member's own values and scale
    images = []

    def record(v, plane):
        images.append(v)
        return decompose(v, plane)

    monkeypatch.setattr("idstat.symmetry.decompose", record)
    assert _check_pair_planes()[0]
    assert len(images) == 24  # s1, s2, s1p, s2p: six each, in that order
    v = dict(zip(ORBIT_BASIS_NAMES, orbit_basis_n3((0, 1, 2))))[name]
    k = ["s1", "s2", "s1p", "s2p"].index(name)
    got = images[6 * k:6 * k + 6]
    want = [moved(v, p) for p in permutations(range(3))]
    assert sorted(map(repr, got)) == sorted(map(repr, want))
    for image in got:
        assert image._amps == next(w._amps for w in want if w == image)
        assert (image.n_particles, image.basis_size, image._scale) == (v.n_particles, v.basis_size, v._scale)


def test_classify_long_product_states():
    # A swap that fixes every term is not built, so N - 1 swaps of an
    # N-slot product state cost O(N), not an N x N table of swapped slots.
    start = time.perf_counter()
    assert classify_symmetry(product_state_vector((4,) * 20000)).tag is SymmetryTag.SYMMETRIC
    assert classify_symmetry(product_state_vector((4,) * 19999 + (5,))).tag is SymmetryTag.NONE
    assert classify_symmetry(product_state_vector((5,) + (4,) * 19999)).tag is SymmetryTag.NONE
    assert time.perf_counter() - start < 2.0


def test_classify_builds_no_orbit_for_plain_vectors(monkeypatch):
    # Product states, public copies of orbit states and N = 3 basis members
    # are tagged by adjacent swaps and the S_3 patterns: no orbit is built,
    # not even for a two-term vector on 20000 particles.
    vectors = [product_state_vector(levels) for n in range(7) for levels in itertools.product(range(3), repeat=n)]
    vectors += [StateVector(v.n_particles, dict(v.items())) for v in _orbit_states() if v.n_particles <= 6]
    expected = [SymmetryClass(_tag_by_permuted_copies(v) or SymmetryTag.NONE) for v in vectors]
    basis = orbit_basis_n3((2, 0, 3))
    vectors += basis
    expected += [SymmetryClass(SymmetryTag(tag), pair, member) for tag, pair, member in
                 [("symmetric", None, None), ("antisymmetric", None, None),
                  ("mixed", 1, 1), ("mixed", 1, 2), ("mixed", 2, 1), ("mixed", 2, 2)]]
    n = 20000
    vectors += [StateVector(n, {(0,) * n: 1, (1,) * n: 2}), StateVector(n, {(0,) * n: 1, (0,) * (n - 1) + (1,): 1})]
    expected += [SymmetryClass(SymmetryTag.SYMMETRIC), SymmetryClass(SymmetryTag.NONE)]

    def refuse(*args):
        raise AssertionError("an orbit was built")

    monkeypatch.setattr("idstat.symmetry._orbit", refuse)
    monkeypatch.setattr("idstat.symmetry._orderings", refuse)
    for v, want in zip(vectors, expected):
        assert classify_symmetry(v) == want, v


def test_parity_sector_dimensions():
    assert symmetric_antisymmetric_dimensions((0, 1, 2)) == (1, 1)
    assert symmetric_antisymmetric_dimensions((0, 0, 1)) == (1, 0)
    assert sum(symmetric_antisymmetric_dimensions((0, 1, 2))) == 2  # of 6 orbit dims


# -- oracles: the sum over all of S_N that the closed forms replace -----------


@functools.cache
def _group(n):
    return [(p, sign(p)) for p in permutations(range(n))]


def _fold_dot(u, v):
    """<u|v> by folding amplitude products with +, independent of the value sums."""
    amps = dict(v.items())
    return sum((a * amps.get(s, ZERO) for s, a in u.items()), ZERO)


def _walk_counts(levels, parity):
    """sum_P (+-1)^P P|levels> as integer coefficients, walking all of S_N."""
    counts = {}
    for p, sign in _group(len(levels)):
        s = mover(p)(levels)
        counts[s] = counts.get(s, 0) + (1 if parity == "S" else sign)
    return {s: k for s, k in counts.items() if k}


def _walk_raw(levels, parity):
    """(1/sqrt(N!)) sum_P (+-1)^P P|levels>."""
    scale = rsqrt_of_rational(Fraction(1, math.factorial(len(levels))))
    return StateVector(len(levels), {s: scale * k for s, k in _walk_counts(levels, parity).items()})


@pytest.mark.parametrize("n", range(7))
def test_symmetrize_matches_symmetric_group_walk(n):
    for multiset in combinations_with_replacement(range(4), n):
        for levels in (multiset, multiset[::-1], multiset[1:] + multiset[:1]):
            for parity in ("S", "A"):
                raw = _walk_raw(levels, parity)
                n2 = _fold_dot(raw, raw)
                res = symmetrize(levels, parity)
                assert res.is_zero == raw.is_zero and res.raw_norm_squared == n2
                if raw.is_zero:
                    want = raw
                else:
                    ((r, n2_value),) = n2.items()
                    assert r == 1
                    inverse_norm = rsqrt_of_rational(1 / n2_value)
                    want = StateVector(len(levels), {s: a * inverse_norm for s, a in raw.items()})
                assert res.vector == want and res.vector.basis_size == want.basis_size, (levels, parity)


@pytest.mark.parametrize("n", range(8))
def test_orbit_matches_symmetric_group_walk(n, monkeypatch):
    # every distinct ordering once, each multiset in three input orders; the
    # sign of the permutation taking the input to it on distinct levels, and
    # no sign computed on repeated levels, which have no antisymmetric orbit
    for multiset in combinations_with_replacement(range(4), n):
        for levels in (multiset, multiset[::-1], multiset[1:] + multiset[:1]):
            want = {}
            for p, sign in _group(n):
                want.setdefault(mover(p)(levels), sign)
            orderings = list(_orderings(levels))
            assert len(orderings) == len(set(orderings)) == len(want) and set(orderings) == want.keys(), levels
            if len(set(levels)) == n:
                assert _orbit(levels, True) == want, levels
            else:
                with monkeypatch.context() as m:
                    m.setattr("idstat.symmetry._signs", _refuse_signs)
                    assert _orbit(levels, True) == dict.fromkeys(want, 1), levels
            assert _orbit(levels, False) == dict.fromkeys(want, 1), levels


def _refuse_signs(levels):
    raise AssertionError(f"signs computed for {levels}")


def _inversions(seq) -> int:
    return sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])


@pytest.mark.parametrize("n", range(8))
def test_distinct_orderings_are_the_permutations_with_their_signs(n):
    # the distinct-level path on up to 7 levels, in three input orders: each
    # ordering once, in lexicographic order, and in step with them the sign
    # (-1)^inversions of the permutation of positions taking the input to it
    rng = random.Random(f"orderings-{n}")
    levels = tuple(rng.sample(range(3 * n), n))
    for ordered in (tuple(sorted(levels)), tuple(sorted(levels, reverse=True)), levels):
        keys, values = list(_orderings(ordered)), list(_signs(ordered))
        assert keys == sorted(permutations(ordered)) and len(values) == len(keys), ordered
        position = {lv: i for i, lv in enumerate(ordered)}
        for o, value in zip(keys, values):
            assert value == (-1) ** _inversions([position[lv] for lv in o]), (ordered, o)


def test_density_matches_a_pairwise_walk():
    # every ordered pair of terms that agree on every other slot adds a*b to
    # the entry of its two levels, smaller first; public copies of orbit
    # states, superpositions of two of them, and a vector whose two cross
    # pairs of (0, 1) cancel, in each slot
    S = lambda *levels: symmetrize(levels, "S").vector
    half = rsqrt_of_rational(Fraction(1, 2))
    vectors = [StateVector(n, dict(symmetrize(tuple(range(n))[::order], parity).vector.items()))
               for n in range(1, 5) for parity in "SA" for order in (1, -1)]
    for u, w in ((S(0, 3), S(1, 2)), (S(0, 0, 1), S(0, 0, 2)), (S(0, 1, 2), S(0, 1, 3)),
                 (S(0, 1, 2, 3), S(0, 1, 2, 4)), (S(0, 0, 1, 2), S(0, 0, 1, 3))):
        vectors.append(StateVector(u.n_particles, {s: a * half for s, a in [*u.items(), *w.items()]}))
    h = Fraction(1, 2)
    cancelling = StateVector(2, {(0, 0): h, (1, 0): h, (0, 1): h, (1, 1): -h})
    vectors.append(cancelling)
    assert {len(v) for v in vectors} >= {1, 2, 6, 24, 48} and {v.n_particles for v in vectors} == {1, 2, 3, 4}
    for v in vectors:
        for i in range(v.n_particles):
            want = {}
            for s, a in v._amps.items():
                for t, b in v._amps.items():
                    if t[:i] + t[i + 1:] == s[:i] + s[i + 1:]:
                        ij = tuple(sorted((s[i], t[i])))
                        want[ij] = want.get(ij, 0) + a * b
            assert v._one_body(i) == want, (v, i)
    for i in range(2):
        # the cancelled entry is kept, so its operator entry is still read: a float entry makes a float
        assert cancelling._one_body(i) == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2), (0, 1): 0}
        got = one_body_expectation(cancelling, box_position_operator(1.7, 2), i)
        assert got == 0.85 and type(got) is float
        got = one_body_expectation(cancelling, OneBodyOperator(lambda p, q: Fraction(p + 1) if p == q else 0.5, 2), i)
        assert got == 1.5 and type(got) is float


def test_orbit_edge_shapes(monkeypatch):
    for signed in (True, False):
        assert _orbit((), signed) == {(): 1}
        assert _orbit((5,), signed) == {(5,): 1}
    assert list(_signs(())) == list(_signs((5,))) == [1]
    with monkeypatch.context() as m:  # fourteen copies of one level: no 13! signs
        m.setattr("idstat.symmetry._signs", _refuse_signs)
        assert _orbit((3,) * 14, True) == _orbit((3,) * 14, False) == {(3,) * 14: 1}
    levels = (3, 1, 4, 0, 5, 2, 8, 6, 7)
    signs = _orbit(levels, True)
    assert len(signs) == 362880 and sum(signs.values()) == 0
    assert signs[levels] == 1 and signs[(1, 3) + levels[2:]] == -1
    assert signs.keys() == set(permutations(levels))


def _projector_dimensions(levels):
    """Rank of the S and A projector images of every ordering in the orbit,
    each image a walk over S_N (integer coefficients, the common 1/sqrt(N!)
    dropped), by exact collinearity with the first."""
    orbit = sorted(set(permutations(levels)))
    dims = []
    for parity in ("S", "A"):
        images = [u for u in (_walk_counts(s, parity) for s in orbit) if u]
        if not images:
            dims.append(0)
            continue
        u0 = images[0]
        g00 = sum(a * a for a in u0.values())
        for u in images[1:]:
            # collinearity without division: u <u0|u0> == u0 <u0|u>
            g0u = sum(a * u.get(s, 0) for s, a in u0.items())
            assert {s: a * g00 for s, a in u.items()} == {s: a * g0u for s, a in u0.items()}
        dims.append(1)
    return tuple(dims)


@pytest.mark.parametrize("n", range(6))
def test_parity_sector_dimensions_match_projector_images(n):
    # The dimensions depend on the multiset only through its multiplicities:
    # one multiset per multiplicity pattern, in two orders.
    for shape in _partitions(n):
        levels = tuple(lv for lv, mult in enumerate(shape) for _ in range(mult))
        for ordered in (levels, levels[::-1]):
            assert symmetric_antisymmetric_dimensions(ordered) == _projector_dimensions(ordered), ordered


def test_orbit_cap_counts_orderings_not_particles():
    # Past MAX_ORBIT orderings a state still answers from its levels; only
    # reading its terms is refused.
    assert MAX_ORBIT == math.factorial(9)
    for levels, parity in (((4, 1, 0, 9, 2, 7, 3, 5, 8, 6), "S"), (tuple(range(10)), "A"),
                           ((0, 0) + tuple(range(1, 9)), "S")):
        v = symmetrize(levels, parity).vector
        orbit = exchange_degeneracy_dimension(levels)
        assert len(v) == orbit > MAX_ORBIT and not v.is_zero and v.norm_squared() == ONE
        weights = [RadicalRational.of(Fraction(levels.count(k), 10)) for k in range(max(levels) + 1)]
        assert occupancy_weights(v, 3) == weights
        assert classify_symmetry(v).tag is (SymmetryTag.SYMMETRIC if parity == "S" else SymmetryTag.ANTISYMMETRIC)
        for read in (v.items, lambda: v == v, lambda: decompose(v, [v])):
            with pytest.raises(CapacityExceeded) as info:
                read()
            assert str(info.value) == f"symmetrization orbit of {orbit} product states exceeds cap 362880 = 9!"
    assert symmetrize((0, 0) + tuple(range(1, 9)), "A").is_zero  # 10!/2 orderings, no antisymmetric one
    res = symmetrize((0,) * 11 + (1,), "S")  # N = 12, orbit 12
    assert len(res.vector) == 12 and res.raw_norm_squared == math.factorial(11)
    assert symmetrize((0,) * 11 + (1,), "A").is_zero
    with pytest.raises(CapacityExceeded):  # more than MAX_SYMMETRIZE_N particles
        symmetrize((0,) * 15, "S")


def test_particle_cap_is_checked_before_any_factorial():
    assert MAX_SYMMETRIZE_N == 14
    res = symmetrize((0,) * 14, "S")
    assert len(res.vector) == 1 and res.raw_norm_squared == math.factorial(14)
    assert symmetrize((0,) * 13 + (1,), "A").is_zero
    # from about 1700 particles N! has more than 4300 digits, past the
    # int <-> str limit: neither it nor the orbit size may reach the message
    for levels in ((0,) * 15, (0,) * 1700, tuple(range(15)), tuple(range(3000))):
        for parity in ("S", "A"):
            with pytest.raises(CapacityExceeded) as info:
                symmetrize(levels, parity)
            assert str(info.value) == f"symmetrization of {len(levels)} particles exceeds cap 14"


def test_state_vector_holds_one_radicand():
    v = StateVector(2, {(0, 1): rsqrt_of_rational(Fraction(1, 8)), (1, 0): rsqrt_of_rational(2)})
    assert v.items() == [((0, 1), rsqrt_of_rational(Fraction(1, 8))), ((1, 0), rsqrt_of_rational(2))]
    assert v.norm_squared() == Fraction(17, 8)
    for amps in ({(0, 1): INV_SQRT2, (1, 0): INV_SQRT3}, {(0, 1): 1, (1, 0): INV_SQRT2}):
        with pytest.raises(InputError):
            StateVector(2, amps)


def test_items_share_one_amplitude_per_value():
    v = symmetrize(tuple(range(6)), "A").vector
    terms = v.items()
    assert len(terms) == 720 and len({id(a) for _, a in terms}) == 2
    assert {a for _, a in terms} == {rsqrt_of_rational(Fraction(1, 720)), -rsqrt_of_rational(Fraction(1, 720))}


def test_state_vector_drops_zero_amplitudes():
    v = StateVector(2, {(0, 1): ONE, (1, 0): ZERO})
    assert [s for s, _ in v.items()] == [(0, 1)]
    assert StateVector(2, {(0, 1): ZERO, (1, 0): 0}).is_zero
