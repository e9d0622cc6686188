"""Symmetrizer, mixed-symmetry basis, decomposition, classification."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import matrix, sign
from idstat.config import ORBIT_BASIS_NAMES
from idstat.errors import CapacityExceeded, InputError, ZeroVectorInput
from idstat.exactnum import ONE, ZERO, RadicalRational, rsqrt_of_rational
from idstat.observables import box_position_operator, occupancy_weights, one_body_expectation
from idstat.perm import Permutation
from idstat.symmetry import (
    _MIXED_PATTERNS,
    MAX_DEGENERACY_LABELS,
    MAX_ORBIT,
    MAX_SYMMETRIZE_N,
    StateVector,
    _orbit,
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
from idstat.verify import _inner_product

INV_SQRT2 = rsqrt_of_rational(Fraction(1, 2))
INV_SQRT3 = rsqrt_of_rational(Fraction(1, 3))
INV_SQRT6 = rsqrt_of_rational(Fraction(1, 6))
HALF = RadicalRational.of(Fraction(1, 2))


def all_perms(n):
    return [Permutation(m) for m in permutations(range(n))]


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
    for p in all_perms(n):
        assert sym.permuted(p) == sym
        expected = anti if sign(p) == 1 else negated(anti)
        assert anti.permuted(p) == expected


def test_permutation_preserves_norm():
    s1 = orbit_basis_n3((0, 1, 2))[2]
    for p in all_perms(3):
        assert s1.permuted(p).norm_squared() == ONE


def test_transposition_rotates_inside_mixed_pair():
    s1, s2, _, _ = orbit_basis_n3((0, 1, 2))[2:]
    swap23 = Permutation((0, 2, 1))
    coeffs, residual = decompose(s1.permuted(swap23), [s1, s2])
    assert residual.is_zero
    assert coeffs[0] == RadicalRational.of(Fraction(-1, 2))
    assert coeffs[1] == rsqrt_of_rational(Fraction(3, 4))  # sqrt(3)/2


def test_mixed_pairs_are_stable_planes():
    s1, s2, s1p, s2p = orbit_basis_n3((0, 1, 2))[2:]
    for p in all_perms(3):
        for v in (s1, s2):
            coeffs, residual = decompose(v.permuted(p), [s1, s2])
            assert residual.is_zero
            assert sum((c * c for c in coeffs), ZERO) == ONE
        for v in (s1p, s2p):
            coeffs, residual = decompose(v.permuted(p), [s1p, s2p])
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
        orbit = {p.apply(levels) for p in all_perms(n)}
        assert exchange_degeneracy_dimension(levels) == len(orbit)


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
    assert sum(pattern.values()) == 0 == sum(sign(Permutation(o)) * k for o, k in pattern.items())
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
    swaps = [Permutation(tuple(j if k == i else i if k == j else k for k in range(n)))
             for i in range(n) for j in range(i + 1, n)]
    if all(v.permuted(p) == v for p in swaps):
        return SymmetryTag.SYMMETRIC
    if all(v.permuted(p) == negated(v) for p in swaps):
        return SymmetryTag.ANTISYMMETRIC
    return None


def _forbid_copies(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify_symmetry built a permuted copy")

    monkeypatch.setattr(StateVector, "permuted", refuse)


def test_classify_builds_no_copies_small_vectors(monkeypatch):
    vectors = []
    for n in range(1, 6):
        for levels in itertools.product(range(3), repeat=n):
            vectors.append(product_state_vector(levels))
            vectors += [r.vector for r in (symmetrize(levels, "S"), symmetrize(levels, "A")) if not r.is_zero]
    expected = [SymmetryClass(_tag_by_permuted_copies(v) or SymmetryTag.NONE) for v in vectors]
    _forbid_copies(monkeypatch)
    assert [classify_symmetry(v) for v in vectors] == expected


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


def _marked_vectors():
    """Every vector the builders mark: symmetrized states on N <= 6 levels,
    S and A, with and without repeats, in sorted and reversed order; the
    orbit basis on two level orders; and a permutation of each."""
    built = [symmetrize(levels[::order], parity).vector
             for n in range(1, 7)
             for levels in combinations_with_replacement(range(4), n)
             for parity in "SA"
             for order in (1, -1)]
    built += [symmetrize((5, 0, 3, 1, 4, 2), parity).vector for parity in "SA"]
    built = [v for v in built if not v.is_zero]
    built += [*orbit_basis_n3((0, 2, 3)), *orbit_basis_n3((3, 1, 0))]
    cycle = lambda n: Permutation(tuple(range(1, n)) + (0,))
    return built + [v.permuted(cycle(v.n_particles)) for v in built]


def test_builders_mark_vectors_of_one_level_multiset():
    vectors = _marked_vectors()
    assert len(vectors) > 600
    for v in vectors:
        assert v._one_multiset, v
        assert len({tuple(sorted(s)) for s in v._amps}) == 1, v


def test_public_vectors_and_residuals_are_not_marked():
    v = symmetrize((0, 1, 2), "S").vector
    copy = StateVector(3, dict(v.items()))
    assert copy == v and not copy._one_multiset
    assert not copy.permuted(Permutation((1, 2, 0)))._one_multiset
    assert not product_state_vector((0, 1, 2))._one_multiset
    basis = orbit_basis_n3((0, 1, 2))
    for members in (basis[:2], basis):
        _, residual = decompose(product_state_vector((0, 1, 2)), members)
        assert not residual._one_multiset
    assert not decompose(v, basis[2:])[1]._one_multiset  # v itself is marked


def test_marked_vectors_match_their_unmarked_copies():
    # A marked vector skips the search for cross groups; a copy through the
    # public constructor runs it (and holds its values in other units).
    exact_op = matrix([[Fraction(i * j + 1, i + j + 2) - (i == j) for j in range(6)] for i in range(6)], exact=True)
    ops = (exact_op, box_position_operator(1.7, 6))
    for v in _marked_vectors():
        copy = StateVector(v.n_particles, dict(v.items()))
        assert not copy._one_multiset and copy.norm_squared() == v.norm_squared() == 1
        for i in range(v.n_particles):
            weights, groups = v._one_body(i)
            copy_weights, copy_groups = copy._one_body(i)
            assert groups == copy_groups == []
            assert {lv: v._square() * w for lv, w in weights.items()} == {
                lv: copy._square() * w for lv, w in copy_weights.items()}
            assert occupancy_weights(copy, i) == occupancy_weights(v, i)
            for op in ops:
                got, want = one_body_expectation(v, op, i), one_body_expectation(copy, op, i)
                assert got == want and type(got) is type(want), (v, i)


def test_classify_long_product_states():
    # A swap that fixes every term is not built, so N - 1 swaps of an
    # N-slot product state cost O(N), not an N x N table of swapped slots.
    start = time.perf_counter()
    assert classify_symmetry(product_state_vector((4,) * 20000)).tag is SymmetryTag.SYMMETRIC
    assert classify_symmetry(product_state_vector((4,) * 19999 + (5,))).tag is SymmetryTag.NONE
    assert classify_symmetry(product_state_vector((5,) + (4,) * 19999)).tag is SymmetryTag.NONE
    assert time.perf_counter() - start < 2.0


def test_parity_sector_dimensions():
    assert symmetric_antisymmetric_dimensions((0, 1, 2)) == (1, 1)
    assert symmetric_antisymmetric_dimensions((0, 0, 1)) == (1, 0)
    assert sum(symmetric_antisymmetric_dimensions((0, 1, 2))) == 2  # of 6 orbit dims


# -- oracles: the sum over all of S_N that the closed forms replace -----------


@functools.cache
def _group(n):
    return [(p, sign(p)) for p in all_perms(n)]


def _fold_dot(u, v):
    """<u|v> by folding amplitude products with +, independent of the value sums."""
    amps = dict(v.items())
    return sum((a * amps.get(s, ZERO) for s, a in u.items()), ZERO)


def _walk_counts(levels, parity):
    """sum_P (+-1)^P P|levels> as integer coefficients, walking all of S_N."""
    counts = {}
    for p, sign in _group(len(levels)):
        s = p.apply(levels)
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
def test_orbit_matches_symmetric_group_walk(n):
    # every ordering once; the sign of the permutation taking the input to
    # it, on distinct levels
    for multiset in combinations_with_replacement(range(4), n):
        for levels in (multiset, multiset[::-1], multiset[1:] + multiset[:1]):
            want = {}
            for p, sign in _group(n):
                want.setdefault(p.apply(levels), sign)
            signed = _orbit(levels, True)
            assert signed.keys() == want.keys() and set(signed.values()) <= {1, -1}, levels
            if len(set(levels)) == n:
                assert signed == want, levels
            assert _orbit(levels, False) == dict.fromkeys(want, 1), levels


def test_orbit_edge_shapes():
    for signed in (True, False):
        assert _orbit((), signed) == {(): 1}
        assert _orbit((5,), signed) == {(5,): 1}
        assert _orbit((3,) * 14, signed) == {(3,) * 14: 1}
    levels = (3, 1, 4, 0, 5, 2, 8, 6, 7)
    signs = _orbit(levels, True)
    assert len(signs) == 362880 and sum(signs.values()) == 0
    assert signs[levels] == 1 and signs[(1, 3) + levels[2:]] == -1
    assert signs.keys() == set(permutations(levels))


def _projector_dimensions(levels):
    """Rank of the S and A projector images of every ordering in the orbit,
    each image a walk over S_N (integer coefficients, the common 1/sqrt(N!)
    dropped), by exact collinearity with the first."""
    orbit = sorted({p.apply(levels) for p, _ in _group(len(levels))})
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
    assert MAX_ORBIT == math.factorial(9)
    with pytest.raises(CapacityExceeded):
        symmetrize(tuple(range(10)), "S")
    with pytest.raises(CapacityExceeded):
        symmetrize((0, 0) + tuple(range(1, 9)), "A")  # 10!/2 orderings
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
