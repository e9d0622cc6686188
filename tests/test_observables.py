"""Per-particle expectations, box position matrix, and the free-sector
arithmetic of the verification ledger."""

from __future__ import annotations

import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from scipy import integrate

from conftest import matrix
from idstat.errors import CapacityExceeded, InputError, ZeroVectorInput
from idstat.exactnum import ZERO, RadicalRational, rsqrt_of_rational
from idstat.observables import (
    MAX_WEIGHT_LEVELS,
    OneBodyOperator,
    box_position_operator,
    occupancy_weights,
    one_body_expectation,
)
from idstat.symmetry import (
    StateVector,
    exchange_degeneracy_dimension,
    orbit_basis_n3,
    product_state_vector,
    symmetrize,
)
from idstat.verify import _kinetic_energy, _laplacian

H123 = OneBodyOperator.diagonal([1, 2, 3])
THIRD = Fraction(1, 3)


def test_symmetrized_states_share_energy_equally():
    for parity in ("S", "A"):
        v = symmetrize((0, 1, 2), parity).vector
        for i in range(3):
            assert occupancy_weights(v, i) == [THIRD, THIRD, THIRD]
            assert one_body_expectation(v, H123, i) == 2  # (1+2+3)/3


def test_mixed_state_weights_are_symbolic_splittings():
    s1, s2, _, _ = orbit_basis_n3((0, 1, 2))[2:]
    f = Fraction
    assert occupancy_weights(s1, 0) == [f(5, 12), f(5, 12), f(2, 12)]
    assert occupancy_weights(s1, 1) == [f(5, 12), f(5, 12), f(2, 12)]
    assert occupancy_weights(s1, 2) == [f(2, 12), f(2, 12), f(8, 12)]
    assert occupancy_weights(s2, 0) == [f(1, 4), f(1, 4), f(2, 4)]
    assert occupancy_weights(s2, 1) == [f(1, 4), f(1, 4), f(2, 4)]
    assert occupancy_weights(s2, 2) == [f(1, 2), f(1, 2), f(0)]


def test_mixed_state_expectations_instantiated():
    s1, s2, _, _ = orbit_basis_n3((0, 1, 2))[2:]
    assert one_body_expectation(s1, H123, 0) == Fraction(7, 4)  # (5+10+6)/12
    assert one_body_expectation(s1, H123, 2) == Fraction(5, 2)  # (2+4+24)/12
    assert one_body_expectation(s2, H123, 0) == Fraction(9, 4)  # (1+2+6)/4
    assert one_body_expectation(s2, H123, 2) == Fraction(3, 2)  # (1+2)/2


def test_energy_sum_rule_equals_total():
    s1, s2, s1p, s2p = orbit_basis_n3((0, 1, 2))[2:]
    vectors = [
        symmetrize((0, 1, 2), "S").vector,
        symmetrize((0, 1, 2), "A").vector,
        s1,
        s2,
        s1p,
        s2p,
    ]
    for v in vectors:
        assert sum(one_body_expectation(v, H123, i) for i in range(3)) == 6  # 1 + 2 + 3


def test_momentum_share_for_diagonal_momentum_operator():
    # sharp per-level momenta as an exact diagonal operator
    P = OneBodyOperator.diagonal([Fraction(-3, 2), Fraction(1, 2), Fraction(5, 2)])
    v = symmetrize((0, 1, 2), "A").vector
    mean = (Fraction(-3, 2) + Fraction(1, 2) + Fraction(5, 2)) / 3
    for i in range(3):
        assert one_body_expectation(v, P, i) == mean


def test_expectation_validation_errors():
    v = product_state_vector((0, 1, 2))
    with pytest.raises(InputError):
        one_body_expectation(v, OneBodyOperator.diagonal([1, 2]), 0)
    with pytest.raises(InputError):
        one_body_expectation(StateVector(3, {(0, 1, 2): 2}), H123, 0)
    with pytest.raises(ZeroVectorInput):
        one_body_expectation(StateVector(3), H123, 0)
    with pytest.raises(InputError):
        one_body_expectation(v, H123, 3)


def bucket_walk(v, op, particle):
    """Oracle: every pair of terms that agree on all slots but `particle`,
    found by slicing each term's spectator levels, folded with `+` as exact
    values; a float operator's sum is rounded once, at the end."""
    buckets = {}
    for state, amp in v.items():
        spectator = state[:particle] + state[particle + 1 :]
        buckets.setdefault(spectator, []).append((state[particle], amp))
    total = ZERO
    for g in buckets.values():
        for li, ai in g:
            for lj, aj in g:
                total = total + ai * aj * Fraction(op.entry(li, lj))
    return total if op.exact else float(total)


def _half_sum(*vectors):
    """The unit vector along the sum of orthonormal vectors that share one
    radicand."""
    total = {}
    for v in vectors:
        for s, a in v.items():
            total[s] = total.get(s, ZERO) + a
    scale = rsqrt_of_rational(Fraction(1, len(vectors)))
    return StateVector(vectors[0].n_particles, {s: a * scale for s, a in total.items()})


def _oracle_vectors(family):
    if family in ("S", "A"):
        vectors = [
            symmetrize(levels, family)
            for n in range(1, 6)
            for levels in combinations_with_replacement(range(4), n)
        ]
        return [r.vector for r in vectors if not r.is_zero]
    if family == "basis":
        return [*orbit_basis_n3((0, 2, 3)), *orbit_basis_n3((3, 1, 0))]
    if family == "product":
        return [product_state_vector(s) for s in [(2,), (0, 3), (1, 1, 2), (3, 0, 2, 1)]]
    # Members of one sum share a radicand, as every vector's amplitudes do.
    S = lambda *levels: symmetrize(levels, "S").vector
    A = lambda *levels: symmetrize(levels, "A").vector
    P = product_state_vector
    s2 = lambda *levels: orbit_basis_n3(levels)[3]  # amplitudes +-1/2, rational
    return [
        _half_sum(S(0, 0, 1), S(0, 0, 2)),  # (0, 0, 1) and (0, 0, 2) differ in one slot
        _half_sum(A(0, 1, 2), A(0, 1, 3), S(1, 2, 3), S(0, 2, 3)),  # all 1/sqrt(6)
        _half_sum(S(0, 3), S(1, 2)),  # equal level sums: no two terms differ in one slot
        _half_sum(S(0, 1), A(2, 3)),  # unequal level sums and still no such pair
        _half_sum(P((0, 1, 2)), P((0, 3, 2)), s2(0, 1, 3)),  # rational members
        _half_sum(P((1,)), P((3,))),  # no spectator slots
    ]


ORACLE_OPERATORS = [
    OneBodyOperator.diagonal([Fraction(-3, 2), 5, Fraction(7, 3), 0]),
    matrix([[Fraction(i * j + 1, i + j + 2) - (i == j) for j in range(4)] for i in range(4)], exact=True),
    box_position_operator(1.7, 4),
]


@pytest.mark.parametrize("family", ["S", "A", "basis", "product", "sums"])
def test_one_body_expectation_matches_bucket_walk(family):
    vectors = _oracle_vectors(family)
    assert vectors
    for v in vectors:
        for op in ORACLE_OPERATORS:
            for i in range(v.n_particles):
                got, want = one_body_expectation(v, op, i), bucket_walk(v, op, i)
                assert got == want and type(got) is type(want), (v, i)


def test_sums_of_symmetrized_states_have_cross_terms():
    # Guards the "sums" family above: an off-diagonal operator must see
    # pairs of terms that differ in one slot, or it would only test the tally.
    v = _oracle_vectors("sums")[0]
    op = ORACLE_OPERATORS[1]
    diagonal_only = OneBodyOperator.diagonal([op.entry(i, i) for i in range(4)])
    assert one_body_expectation(v, op, 2) != one_body_expectation(v, diagonal_only, 2)


@pytest.mark.parametrize("family", ["S", "A", "basis", "product", "sums"])
def test_weights_and_norm_match_a_fold_of_plus(family):
    for v in _oracle_vectors(family):
        norm = ZERO
        for _, a in v.items():
            norm = norm + a * a
        assert v.norm_squared() == norm
        for i in range(v.n_particles):
            weights = [ZERO] * v.basis_size
            for state, a in v.items():
                weights[state[i]] = weights[state[i]] + a * a
            assert occupancy_weights(v, i) == weights


def test_norm_is_memoised_per_vector():
    v = symmetrize((0, 1, 1, 2), "S").vector
    first = v.norm_squared()
    assert v.norm_squared() is first and first == 1
    assert one_body_expectation(v, H123, 1) == one_body_expectation(v, H123, 1)
    doubled = StateVector(4, {s: a * 2 for s, a in v.items()})
    assert doubled.norm_squared() == 4
    with pytest.raises(InputError):
        one_body_expectation(doubled, H123, 0)


def _box_quadrature(m: int, n: int, L: float) -> float:
    phi = lambda k, x: math.sqrt(2.0 / L) * math.sin(k * math.pi * x / L)
    val, _ = integrate.quad(lambda x: phi(m, x) * x * phi(n, x), 0.0, L, limit=200)
    return val


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (1, 2), (1, 3), (2, 3), (3, 4), (1, 4)])
@pytest.mark.parametrize("L", [1.0, 2.53])
def test_box_position_matrix_against_quadrature(m, n, L):
    op = box_position_operator(L, 4)
    assert abs(op.entry(m - 1, n - 1) - _box_quadrature(m, n, L)) < 1e-10


def test_box_position_closed_form_values():
    op = box_position_operator(1.0, 2)
    assert op.entry(0, 0) == 0.5
    assert math.isclose(op.entry(0, 1), -16.0 / (9.0 * math.pi**2), rel_tol=1e-15)
    assert op.entry(0, 1) == op.entry(1, 0)  # one evaluation serves both orders
    assert box_position_operator(1.0, 3).entry(0, 2) == 0.0  # even difference


@pytest.mark.parametrize("size", [2, 3, 6, 9, 12])
def test_box_position_matrix_is_exactly_symmetric(size):
    for step in range(1, 301):
        length = step / 100
        op = box_position_operator(length, size)
        assert all(op.entry(i, j) == op.entry(j, i) for i in range(size) for j in range(size))
    # At L = 0.7, (m, n) = (5, 6) and (6, 5) round to different floats when
    # each is evaluated separately; both take the m < n value.
    op = box_position_operator(0.7, 6)
    assert op.entry(5, 4) == op.entry(4, 5) == -8.0 * 0.7 * 5 * 6 / (math.pi**2 * (25 - 36) ** 2)


def test_symmetrized_eight_levels_expectation_is_fast():
    start = time.perf_counter()
    res = symmetrize(tuple(range(8)), "A")
    value = one_body_expectation(res.vector, OneBodyOperator.diagonal(range(1, 9)), 3)
    assert time.perf_counter() - start < 2.0
    assert len(res.vector) == 40320 and value == Fraction(9, 2)


@pytest.mark.parametrize("parity", ["S", "A"])
@pytest.mark.parametrize("levels", [(1, 2), (2, 5), (1, 2, 3), (1, 3, 5), (2, 3, 4)])
@pytest.mark.parametrize("L", [1.0, 2.53])
def test_position_expectation_is_box_center(parity, levels, L):
    # level index i is box quantum number i + 1
    internal = tuple(n - 1 for n in levels)
    v = symmetrize(internal, parity).vector
    op = box_position_operator(L, max(levels))
    for i in range(len(levels)):
        assert abs(one_body_expectation(v, op, i) - L / 2.0) < 1e-10


def test_position_expectation_zero_vector_flagged():
    v = symmetrize((1, 1), "A").vector
    with pytest.raises(ZeroVectorInput):
        one_body_expectation(v, box_position_operator(1.0, 2), 0)


def test_float_exchange_symmetry():
    op = box_position_operator(1.0, 3)
    v = symmetrize((0, 1, 2), "S").vector
    values = [one_body_expectation(v, op, i) for i in range(3)]
    assert max(values) - min(values) < 1e-10


def test_plane_wave_energy_identity_exact():
    momenta = ((Fraction(1), Fraction(2), Fraction(3)),
               (Fraction(-1), Fraction(0), Fraction(2)),
               (Fraction(1, 2), Fraction(1, 3), Fraction(0)))
    mass = Fraction(3, 2)
    e = _kinetic_energy(momenta, mass)
    assert e == (14 + 5 + Fraction(13, 36)) / 3  # sum |p|^2 / (2m), m = 3/2
    for h in (1, Fraction(7, 5), 2):
        coeffs = [[c / h for c in p] for p in momenta]  # the phase coefficients p / h
        assert _kinetic_energy(coeffs, mass, h) == e


def test_laplacian_of_linear_phase_is_exactly_zero():
    a = ((Fraction(1), Fraction(-2), Fraction(3)), (Fraction(1, 7), Fraction(0), Fraction(5)))
    assert _laplacian(a) == 0


def test_laplacian_quadratic_negative_control():
    a = ((Fraction(1), Fraction(1), Fraction(1)),)
    q = ((Fraction(1), Fraction(1), Fraction(1)),)
    assert _laplacian(a, q) == 6  # 2 per dimension


def _fd_laplacian(f, point, h=1e-4):
    total = 0.0
    for idx in range(len(point)):
        up = list(point)
        dn = list(point)
        up[idx] += h
        dn[idx] -= h
        total += (f(up) - 2.0 * f(point) + f(dn)) / (h * h)
    return total


def test_laplacian_finite_difference_oracle():
    a = [Fraction(7, 10), Fraction(-13, 10), Fraction(21, 10)]
    b = [Fraction(1), Fraction(0), Fraction(5, 2)]
    linear = lambda q: sum(float(c) * x for c, x in zip(a, q))
    quad = lambda q: linear(q) + sum(float(c) * x * x for c, x in zip(b, q))
    assert abs(_fd_laplacian(linear, [0.3, 0.9, -0.5]) - float(_laplacian([a]))) < 1e-6
    assert abs(_fd_laplacian(quad, [0.3, 0.9, -0.5]) - float(_laplacian([a], [b]))) < 1e-4


def test_momentum_degeneracy_counts():
    # the distinct orderings of a momentum multiset, N!/prod(n_j!), are its
    # exchange degeneracy
    for momenta, count in (((1, 2, 3), 6), ((1, 1, 3), 3), ((1, 1, 1), 1), ((1, 1, 2, 2), 6)):
        assert exchange_degeneracy_dimension(momenta) == count


def test_operator_has_no_hermitian_flag():
    fields = {f.name for f in dataclasses.fields(OneBodyOperator)}
    assert fields == {"rule", "dim", "exact"}
    assert callable(OneBodyOperator.entry)  # a method: the tracer counts its calls


def test_box_position_operator_is_a_rule_at_any_size():
    start = time.perf_counter()
    op = box_position_operator(1.0, 10**9)
    assert time.perf_counter() - start < 0.5
    assert op.dim == 10**9
    for m, n in [(1, 2), (5, 6), (1, 10**9), (999_999_998, 10**9 - 1), (10**9 - 1, 10**9)]:
        i, j = m - 1, n - 1
        assert op.entry(i, j) == op.entry(j, i)
        assert op.entry(i, j) == -8.0 * 1.0 * m * n / (math.pi**2 * (m * m - n * n) ** 2)
    assert op.entry(10**9 - 1, 10**9 - 1) == 0.5
    assert op.entry(2, 10**9 - 2) == op.entry(10**9 - 2, 2) == 0.0  # even difference


def test_box_position_entry_out_of_float_range_is_refused():
    # -8 * length overflows before the division at length 1e308, and (m^2 - n^2)^2
    # is an int past the float range at n = 1e78: each entry is refused, and so is an
    # expectation that asks for one, where it read -inf or ended in OverflowError.
    half = rsqrt_of_rational(Fraction(1, 2))
    crossed = StateVector(2, {(0, 0): half, (1, 0): half})  # slot 0 varies, slot 1 agrees
    assert crossed.norm_squared() == 1
    op = box_position_operator(1e308, 3)
    with pytest.raises(InputError, match="out of float range"):
        op.entry(0, 1)
    with pytest.raises(InputError, match="out of float range"):
        one_body_expectation(crossed, op, 0)
    assert op.entry(0, 2) == 0.0 and op.entry(1, 1) == 5e307
    with pytest.raises(InputError, match="out of float range"):
        box_position_operator(1.0, 10**80).entry(0, 10**78 + 1)
    # the finite entries just inside the range are the closed form, bit for bit
    for length in (1e306, 1e307):
        m, n = 1, 2
        expected = -8.0 * length * m * n / (math.pi**2 * (m * m - n * n) ** 2)
        assert math.isfinite(expected)
        assert box_position_operator(length, 3).entry(0, 1) == expected
        assert one_body_expectation(crossed, box_position_operator(length, 3), 0) == float(
            Fraction(length / 2.0) + Fraction(expected))


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        op = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.dim == 2000
    return peak


def test_operators_store_no_table():
    # A 2000 x 2000 table of floats or Fractions takes tens of MB.
    assert _peak_bytes(lambda: box_position_operator(1.0, 2000)) < 10_000
    assert _peak_bytes(lambda: OneBodyOperator.diagonal(range(2000))) < 1_000_000


def test_weights_refuse_a_high_level_before_building_the_list():
    # the list has an entry for every level index up to the largest: a
    # two-term state on level 10**9 once asked for about 7.6 GB
    v = symmetrize((10**9, 0), "S").vector
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapacityExceeded, match=f"of 1000000001 levels exceed cap {MAX_WEIGHT_LEVELS}"):
            occupancy_weights(v, 0)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 100_000, (elapsed, peak)
    # the largest level the cap admits still answers, one entry per level
    weights = occupancy_weights(symmetrize((MAX_WEIGHT_LEVELS - 1, 0), "S").vector, 1)
    assert len(weights) == MAX_WEIGHT_LEVELS
    assert weights[0] == weights[-1] == Fraction(1, 2) and not any(weights[1:-1])
