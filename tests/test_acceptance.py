"""Acceptance suite: the ten headline behaviors, one test and one printed
PASS line each, at their stated tolerances.  Run with `pytest -v` (or -s
to see the lines) for the per-criterion ledger."""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction

from conftest import moved
import idstat.symmetry as symmetry
from idstat import (
    ONE,
    OneBodyOperator,
    RadicalRational,
    Statistics,
    ZERO,
    box_position_operator,
    canonical_Z,
    decompose,
    exchange_degeneracy_dimension,
    extensivity_report,
    grand_ln_Xi,
    occupancy_weights,
    one_body_expectation,
    orbit_basis_n3,
    product_state_vector,
    rsqrt_of_rational,
    spectrum_from_levels,
    symmetric_antisymmetric_dimensions,
    symmetrize,
)
from idstat.cli import main
from idstat.errors import BoseDivergence
from idstat.verify import (
    _canonical_Z_recursive,
    _grand_Xi_series,
    _inner_product,
    _kinetic_energy,
    _laplacian,
    _momentum_multiset_sum,
    _z1,
    run_verification,
)


def _ok(num: int, description: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {description}")


def _basis():
    return dict(zip(symmetry.ORBIT_BASIS_NAMES, orbit_basis_n3((0, 1, 2))))


def _frac(p, q=1) -> RadicalRational:
    return RadicalRational.of(Fraction(p, q))


def test_criterion_01_mean_energy_equal_share():
    start = time.perf_counter()
    third = _frac(1, 3)
    for parity in ("S", "A"):
        vec = symmetrize((0, 1, 2), parity).vector
        for particle in range(3):
            # weights are the symbolic coefficients of (e1, e2, e3)
            assert occupancy_weights(vec, particle) == [third, third, third]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"<H_i> = (e1+e2+e3)/3 for S and A, every particle, exact ({elapsed:.3f}s)")


def test_criterion_02_mixed_splittings_and_sum_rule():
    basis = _basis()
    w = lambda name, i: occupancy_weights(basis[name], i)
    assert w("s1", 0) == w("s1", 1) == [_frac(5, 12), _frac(5, 12), _frac(2, 12)]
    assert w("s1", 2) == [_frac(2, 12), _frac(2, 12), _frac(8, 12)]
    assert w("s2", 0) == w("s2", 1) == [_frac(1, 4), _frac(1, 4), _frac(2, 4)]
    assert w("s2", 2) == [_frac(1, 2), _frac(1, 2), ZERO]
    op = OneBodyOperator.diagonal([1, 2, 3])
    for vec in basis.values():
        assert sum((one_body_expectation(vec, op, i) for i in range(3)), ZERO) == _frac(6)
    _ok(2, "mixed splittings (5,5,2)/12, (2,2,8)/12, (1,1,2)/4, (1,1,0)/2 and sum rule, exact")


def test_criterion_03_basis_structure():
    basis = _basis()
    vectors = [basis[name] for name in symmetry.ORBIT_BASIS_NAMES]
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert _inner_product(u, v) == (ONE if i == j else ZERO)
    for pair in (("s1", "s2"), ("s1p", "s2p")):
        plane = [basis[pair[0]], basis[pair[1]]]
        for name in pair:
            for mapping in itertools.permutations(range(3)):
                coeffs, residual = decompose(moved(basis[name], mapping), plane)
                assert residual.is_zero
                total = ZERO
                for c in coeffs:
                    total = total + c * c
                assert total == ONE
    assert symmetric_antisymmetric_dimensions((0, 1, 2)) == (1, 1)
    _ok(3, "six vectors exactly orthonormal; mixed pairs permutation-stable; S+A = 2 of 6 dims")


def test_criterion_04_product_decomposition():
    coeffs, residual = decompose(product_state_vector((0, 1, 2)), list(_basis().values()))
    expected = [
        rsqrt_of_rational(Fraction(1, 6)),
        -rsqrt_of_rational(Fraction(1, 6)),
        rsqrt_of_rational(Fraction(1, 3)),
        ZERO,
        rsqrt_of_rational(Fraction(1, 3)),
        ZERO,
    ]
    assert list(coeffs) == expected
    assert residual.is_zero
    total = ZERO
    for c in coeffs:
        total = total + c * c
    assert total == ONE
    noted = {r.check_id for r in run_verification() if r.status == "noted"}
    assert "decomposition_sign" in noted
    _ok(4, "coefficients (1/sqrt6, -1/sqrt6, 1/sqrt3, 0, 1/sqrt3, 0), zero residual; sign noted")


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_criterion_05_degeneracy_counts():
    assert exchange_degeneracy_dimension((0, 0, 0)) == 1
    assert exchange_degeneracy_dimension((0, 0, 1)) == 3
    assert exchange_degeneracy_dimension((0, 1, 2)) == 6
    for n in range(1, 7):
        for part in _partitions(n):
            levels = tuple(lv for lv, count in enumerate(part) for _ in range(count))
            assert exchange_degeneracy_dimension(levels) == len(
                set(itertools.permutations(levels))
            )
    _ok(5, "degeneracies 1, 3, 6 and multinomial = orbit count for all partitions N <= 6")


def test_criterion_06_position_center():
    worst = 0.0
    for length in (1.0, 2.5):
        for n in (2, 3):
            for levels in itertools.combinations(range(5), n):  # box quantum numbers 1..5
                op = box_position_operator(length, max(levels) + 1)
                for parity in ("S", "A"):
                    vector = symmetrize(levels, parity).vector
                    for particle in range(n):
                        x = one_body_expectation(vector, op, particle)
                        worst = max(worst, abs(x - length / 2.0))
    assert worst <= 1e-10
    _ok(6, f"<x_i> = L/2 for all box states, max error {worst:.2e} <= 1e-10")


def test_criterion_07_plane_wave_sector():
    assert _laplacian([(Fraction(1), Fraction(-2), Fraction(3))]) == 0
    assert _laplacian([(Fraction(0),) * 3], [(Fraction(1), Fraction(0), Fraction(2))]) != 0
    momenta = ((Fraction(1), Fraction(2), Fraction(-3)), (Fraction(1, 2), Fraction(0), Fraction(5, 6)))
    for h in (Fraction(1), Fraction(7, 5), Fraction(2)):
        coeffs = [[c / h for c in p] for p in momenta]
        assert _kinetic_energy(momenta, Fraction(3)) == _kinetic_energy(coeffs, Fraction(3), h)
    energies = [0.0, 0.4, 0.9, 1.6, 2.5]
    z1 = _z1(spectrum_from_levels(energies), 1.0)
    for n in range(1, 5):
        lhs = _momentum_multiset_sum(energies, n, 1.0)
        assert abs(lhs - z1**n) <= 1e-12 * z1**n
    _ok(7, "Laplacian residual 0 (linear), E = sum p^2/2m exact, multiset sum = z1^N @ 1e-12")


def test_criterion_08_ensemble_identities():
    spec = spectrum_from_levels([0.0, 0.5, 1.1, 1.8, 2.6, 3.5, 4.5, 5.6])
    for stat in (Statistics.BE, Statistics.FD):
        for beta in (0.3, 1.0):
            for n in range(1, 6):
                direct = canonical_Z(spec, n, beta, stat)
                rec = _canonical_Z_recursive(spec, n, beta, stat)
                assert abs(direct - rec) <= 1e-12 * direct
    spec_fd = spectrum_from_levels([0.0, 0.4, 1.1, 2.2])
    lhs = math.exp(grand_ln_Xi(spec_fd, 1.3, 0.2, Statistics.FD))
    rhs = _grand_Xi_series(spec_fd, 1.3, 0.2, Statistics.FD)
    assert abs(lhs - rhs) <= 1e-12 * lhs
    spec_be = spectrum_from_levels([0.0, 0.6, 1.5])
    lhs = math.exp(grand_ln_Xi(spec_be, 1.0, -0.8, Statistics.BE))
    rhs = _grand_Xi_series(spec_be, 1.0, -0.8, Statistics.BE)
    assert abs(lhs - rhs) <= 1e-10 * lhs
    guard = spectrum_from_levels([0.5, 1.0])
    assert math.exp(grand_ln_Xi(guard, 2.0, 0.5 - 1e-9, Statistics.BE)) > 0
    for mu in (0.5, 0.9):
        raised = False
        try:
            grand_ln_Xi(guard, 2.0, mu, Statistics.BE)
        except BoseDivergence:
            raised = True
        assert raised
    _ok(8, "canonical kernel = recursion @ 1e-12 (BE+FD, N<=5, 8 levels); fugacity FD 1e-12 / BE 1e-10; Bose guard")


def test_criterion_09_extensivity():
    start = time.perf_counter()
    report = extensivity_report(
        Statistics.MB_NN, 0.9, [(1.7 * n, n) for n in (1, 2, 10, 100, 10**4)]
    )
    for row in report["rows"]:
        bound = 1e-12 * abs(row["F"]) if row["F"] else 1e-12
        assert abs(row["extensivity_defect"]) <= bound
    fact = extensivity_report(
        Statistics.MB_FACT, 1.0, [(2.0 * n, n) for n in (2, 10, 100, 1000)]
    )
    drifts = [r["extensivity_defect"] for r in fact["rows"]]
    assert all(d != 0.0 for d in drifts)
    for r, defect in zip(fact["rows"], drifts):
        n = r["N"]
        expected = math.lgamma(n + 1) - n * math.log(n)  # ln N! - N ln N
        assert abs(defect - expected) <= 1e-9 * abs(expected)
        # per-particle drift shrinks toward -kT like (ln N! - N ln N + N)/N -> 0
        assert abs(defect / n + 1.0) < 1.0 / math.sqrt(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(9, f"MB-NN extensive @ 1e-12 up to N = 10^4; MB-FACT drift = ln N! - N ln N ({elapsed:.3f}s)")


def test_criterion_10_verify_paper_ledger(monkeypatch, capsys):
    code = main(["verify-paper", "--output", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["summary"]["failed"] == 0
    assert data["summary"]["noted"] == 2
    noted = {c["id"] for c in data["checks"] if c["status"] == "noted"}
    assert noted == {"decomposition_sign", "free_energy_sign"}
    bad = {(0, 1, 2): 2, (0, 2, 1): -1, (1, 0, 2): 2, (2, 0, 1): -1, (1, 2, 0): -1, (2, 1, 0): 1}
    with monkeypatch.context() as mp:
        mp.setitem(symmetry._MIXED_PATTERNS, "s1", bad)
        code = main(["verify-paper", "--output", "json"])
        tampered = json.loads(capsys.readouterr().out)
    assert code == 1
    assert tampered["summary"]["failed"] >= 1
    _ok(10, "verify-paper: 0 failures, exactly 2 noted, exit 0; tampered basis exits 1")
