"""One-shot verification suite.

Replays every identity the package is built around and reports one line
per check.  Statuses: "pass" / "fail" for machine-checked identities, and
"noted" for the two documented convention discrepancies (the orientation
of the antisymmetric basis member and the free-energy sign), which are
recorded rather than failed.  The ledger is one table, `_ledger`: each
row states a line's id, claim, tolerance, check and the check's
arguments, and a check with a tolerance applies and prints the row's
value.  The second routes to quantities the library computes one way
(the canonical recursion, the fugacity series, the momentum-multiset sum)
live here as private oracles, and the plane-wave arithmetic and the exact
inner product as private code.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul

from . import observables, statmech, symmetry
from .exactnum import ONE, RadicalRational, ZERO, rsqrt_of_rational
from .perm import Permutation


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    claim: str
    status: str  # pass | fail | noted
    lhs: str
    rhs: str
    tolerance: float

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
        }


def _weights_str(weights) -> str:
    return "[" + ", ".join(str(w) for w in weights) + "]"


def _check_equal_share(parity: str):
    res = symmetry.symmetrize((0, 1, 2), parity)
    expected = [RadicalRational.of(Fraction(1, 3))] * 3
    ok = True
    for i in range(3):
        ok = ok and observables.occupancy_weights(res.vector, i) == expected
    return ok, "per-particle level weights all 1/3", _weights_str(expected)


def _check_mixed_split(name: str, expected_by_particle):
    vec = dict(zip(symmetry.ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3((0, 1, 2))))[name]
    got = [observables.occupancy_weights(vec, i) for i in range(3)]
    want = [[RadicalRational.of(Fraction(*q)) for q in row] for row in expected_by_particle]
    return got == want, _weights_str([_weights_str(r) for r in got]), _weights_str(
        [_weights_str(r) for r in want]
    )


def _check_mixed_instantiated():
    op = observables.OneBodyOperator.diagonal([1, 2, 3])
    basis = dict(zip(symmetry.ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3((0, 1, 2))))
    cases = [
        ("s1", 0, Fraction(7, 4)),
        ("s1", 2, Fraction(5, 2)),
        ("s2", 0, Fraction(9, 4)),
        ("s2", 2, Fraction(3, 2)),
    ]
    got, want = [], []
    for name, particle, expected in cases:
        val = observables.one_body_expectation(basis[name], op, particle)
        got.append(str(val))
        want.append(str(RadicalRational.of(expected)))
    return got == want, ", ".join(got), ", ".join(want)


def _check_sum_rule():
    op = observables.OneBodyOperator.diagonal([1, 2, 3])
    six = RadicalRational.of(6)
    ok = True
    vals = []
    for vec in symmetry.orbit_basis_n3((0, 1, 2)):
        total = sum((observables.one_body_expectation(vec, op, i) for i in range(3)), ZERO)
        vals.append(str(total))
        ok = ok and total == six
    return ok, ", ".join(vals), "6 for each basis vector"


def _inner_product(u: symmetry.StateVector, v: symmetry.StateVector) -> RadicalRational:
    """Exact <u|v>: the value dot times both scales; amplitudes are real."""
    dot = symmetry._dot(u._amps, v._amps)
    return u._scale * v._scale * dot if dot else ZERO


def _check_orthonormal():
    basis = symmetry.orbit_basis_n3((0, 1, 2))
    ok = True
    worst = "identity"
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            g = _inner_product(u, v)
            want = ONE if i == j else ZERO
            if g != want:
                ok = False
                worst = f"<{i}|{j}> = {g}"
    return ok, worst, "6x6 Gram matrix = identity, exactly"


def _check_pair_planes():
    basis = dict(zip(symmetry.ORBIT_BASIS_NAMES, symmetry.orbit_basis_n3((0, 1, 2))))
    ok = True
    for pair in (("s1", "s2"), ("s1p", "s2p")):
        plane = [basis[pair[0]], basis[pair[1]]]
        for name in pair:
            for mapping in itertools.permutations(range(3)):
                image = basis[name].permuted(Permutation(mapping))
                coeffs, residual = symmetry.decompose(image, plane)
                ok = ok and residual.is_zero and sum(c * c for c in coeffs) == ONE
    return ok, "all 12 orbit images stay in their 2-plane", "zero residual, unit coefficient norm"


def _check_parity_dimensions():
    dims = symmetry.symmetric_antisymmetric_dimensions((0, 1, 2))
    return dims == (1, 1), f"(dim S, dim A) = {dims}", "(1, 1): 2 of 6 dimensions"


def _check_product_decomposition():
    basis = symmetry.orbit_basis_n3((0, 1, 2))
    v = symmetry.product_state_vector((0, 1, 2))
    coeffs, residual = symmetry.decompose(v, list(basis))
    want = [
        rsqrt_of_rational(Fraction(1, 6)),
        -rsqrt_of_rational(Fraction(1, 6)),
        rsqrt_of_rational(Fraction(1, 3)),
        ZERO,
        rsqrt_of_rational(Fraction(1, 3)),
        ZERO,
    ]
    ok = list(coeffs) == want and residual.is_zero and sum(c * c for c in coeffs) == ONE
    return ok, "(" + ", ".join(str(c) for c in coeffs) + ")", (
        "(1/sqrt(6), -1/sqrt(6), 1/sqrt(3), 0, 1/sqrt(3), 0), zero residual"
    )


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _check_degeneracy_small():
    got = [
        symmetry.exchange_degeneracy_dimension(lv)
        for lv in ((0, 0, 0), (0, 0, 1), (0, 1, 2))
    ]
    return got == [1, 3, 6], str(got), "[1, 3, 6]"


def _check_degeneracy_multinomial():
    ok = True
    checked = 0
    for n in range(1, 7):
        for part in _partitions(n):
            levels = tuple(
                lv for lv, count in enumerate(part) for _ in range(count)
            )
            formula = symmetry.exchange_degeneracy_dimension(levels)
            brute = len(set(itertools.permutations(levels)))
            ok = ok and formula == brute
            checked += 1
    return ok, f"{checked} partitions, formula = orbit count in each", "exhaustive agreement"


def _check_position_center(tol: float):
    worst = 0.0
    for length in (1.0, 2.5):
        for n in (2, 3):
            for levels in itertools.combinations(range(5), n):  # box quantum numbers 1..5
                op = observables.box_position_operator(length, max(levels) + 1)
                for parity in ("S", "A"):
                    vector = symmetry.symmetrize(levels, parity).vector
                    for particle in range(n):
                        x = observables.one_body_expectation(vector, op, particle)
                        worst = max(worst, abs(x - length / 2.0))
    return worst <= tol, f"max |<x_i> - L/2| = {worst:.3e}", f"<= {tol:g}"


def _laplacian(linear, quadratic=()) -> Fraction:
    """Laplacian of the phase sum_j a_j . q_j + b_j . q_j^2 from its rows a_j
    and b_j: each linear coefficient contributes 0, each quadratic one 2."""
    return 2 * sum(map(sum, quadratic), Fraction(0))


def _kinetic_energy(rows, mass: Fraction, h: Fraction = Fraction(1)) -> Fraction:
    """sum_j h^2 |a_j|^2 / 2m: the kinetic energy of the momenta p_j = h a_j."""
    return sum(c * c for a in rows for c in a) * h * h / (2 * mass)


def _check_laplacian_linear():
    cases = [[(Fraction(1), Fraction(2), Fraction(3))],
             [(Fraction(-1, 2), Fraction(0), Fraction(5, 7)), (Fraction(1, 3),) * 3]]
    ok = all(_laplacian(coeffs) == 0 for coeffs in cases)
    return ok, "residual = 0 for linear phases", "0, exactly"


def _check_laplacian_control():
    r = _laplacian([(Fraction(1), Fraction(0), Fraction(0))], [(Fraction(1), Fraction(1), Fraction(1))])
    return r != 0, f"quadratic control residual = {r}", "nonzero"


def _check_plane_wave_energy():
    momenta = ((Fraction(1), Fraction(2), Fraction(-3)), (Fraction(1, 2), Fraction(0), Fraction(5, 6)))
    direct = _kinetic_energy(momenta, Fraction(3))
    for h in (Fraction(1), Fraction(7, 5)):  # through the phase coefficients p / h
        via_wave = _kinetic_energy([[c / h for c in p] for p in momenta], Fraction(3), h)
        if direct != via_wave:
            return False, f"{direct} != {via_wave}", "exact equality"
    return True, "sum |p|^2 / 2m reproduced through the wave coefficients", "exact equality"


# -- oracles: second routes to a quantity the library computes one way --------


def _z1(spectrum: statmech.Spectrum, beta: float) -> float:
    """Single-particle partition sum."""
    return math.fsum(math.exp(-beta * e) for e in spectrum.energies)


def _momentum_multiset_sum(energies, n_particles: int, beta: float) -> float:
    """Sum over unordered momentum multisets of (distinct-ordering count)
    x Boltzmann weight; equals z1^N by the multinomial theorem.  Each
    multiset's energy is summed left to right, as built-in sum() did before
    3.12, so the result is the same on every Python."""
    total = 0.0
    for multiset in itertools.combinations_with_replacement(range(len(energies)), n_particles):
        deg = math.factorial(n_particles)
        for lv in set(multiset):
            deg //= math.factorial(multiset.count(lv))
        total += deg * math.exp(-beta * reduce(add, map(energies.__getitem__, multiset), 0.0))
    return total


def _canonical_Z_recursive(
    spectrum: statmech.Spectrum, n_particles: int, beta: float, stat: statmech.Statistics
) -> float:
    """BE/FD Z by the recursion Z_N = (1/N) sum_{k=1..N} (+-1)^{k+1}
    z1(k beta) Z_{N-k}, + for BE and - for FD.  The FD terms alternate in
    sign, so it is accurate only where they do not cancel."""
    sign = 1.0 if stat is statmech.Statistics.BE else -1.0
    z_powers = [0.0] + [_z1(spectrum, k * beta) for k in range(1, n_particles + 1)]
    Z = [1.0] + [0.0] * n_particles
    for n in range(1, n_particles + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += (sign ** (k + 1)) * z_powers[k] * Z[n - k]
        Z[n] = acc / n
    return Z[n_particles]


def _grand_Xi_series(
    spectrum: statmech.Spectrum, beta: float, mu: float, stat: statmech.Statistics
) -> float:
    """BE/FD Xi as the fugacity series sum_N exp(beta mu N) Z_N over one
    kernel table: exact for FD (Z_N = 0 beyond the level count), truncated
    at the canonical cap for BE."""
    n_max = len(spectrum) if stat is statmech.Statistics.FD else statmech.MAX_CANONICAL_N
    ln_Z = statmech._ln_Z_table(spectrum, n_max, beta, stat)
    return math.fsum(math.exp(n * beta * mu + v) for n, v in enumerate(ln_Z))


def _check_momentum_multiset(tol: float):
    energies = [0.0, 0.4, 0.9, 1.6, 2.5]
    beta = 1.0
    z1 = _z1(statmech.spectrum_from_levels(energies), beta)
    worst = 0.0
    for n in range(1, 5):
        lhs = _momentum_multiset_sum(energies, n, beta)
        worst = max(worst, abs(lhs - z1**n) / z1**n)
    return worst <= tol, f"max relative gap = {worst:.3e}", f"z1^N, within {tol:g}"


def _check_canonical_recursion(tol: float):
    spec = statmech.spectrum_from_levels([0.0, 0.5, 1.1, 1.8, 2.6, 3.5, 4.5, 5.6])
    worst = 0.0
    for stat in (statmech.Statistics.BE, statmech.Statistics.FD):
        for beta in (0.3, 1.0):
            for n in range(1, 6):
                enum = math.fsum(math.exp(-beta * math.fsum(map(mul, vec, spec.energies)))
                                 for vec in statmech.occupation_vectors(len(spec), n, stat))
                kernel = statmech.canonical_Z(spec, n, beta, stat)
                rec = _canonical_Z_recursive(spec, n, beta, stat)
                worst = max(worst, abs(kernel - enum) / enum, abs(rec - enum) / enum)
    return worst <= tol, f"max relative gap = {worst:.3e}", f"<= {tol:g}"


def _check_fugacity(stat: statmech.Statistics, levels, beta: float, mu: float, kind: str, tol: float):
    spec = statmech.spectrum_from_levels(levels)
    product = math.exp(statmech.grand_ln_Xi(spec, beta, mu, stat))
    series = _grand_Xi_series(spec, beta, mu, stat)
    rel = abs(product - series) / product
    return rel <= tol, f"relative gap = {rel:.3e}", f"<= {tol:g} ({kind})"


def _check_bose_guard():
    spec = statmech.spectrum_from_levels([0.5, 1.0])
    ok = math.exp(statmech.grand_ln_Xi(spec, 2.0, 0.5 - 1e-6, statmech.Statistics.BE)) > 0
    for mu in (0.5, 0.7):  # at and above the lowest level
        try:
            statmech.grand_ln_Xi(spec, 2.0, mu, statmech.Statistics.BE)
        except statmech.BoseDivergence:
            continue
        ok = False
    return ok, "diverges at and above the lowest level, converges below", "guard exactly at mu = min energy"


def _check_extensivity_mb_nn(tol: float):
    report = statmech.extensivity_report(
        statmech.Statistics.MB_NN, 0.9, [(1.7 * n, n) for n in (1, 2, 10, 100, 10**4)]
    )
    worst = max(
        (abs(r["extensivity_defect"]) / abs(r["F"]) if r["F"] else abs(r["extensivity_defect"]))
        for r in report["rows"]
    )
    return worst <= tol, f"max relative defect = {worst:.3e}", f"F(T,V,N) = N*F(T,V/N,1) within {tol:g}"


def _check_extensivity_mb_fact(tol: float):
    kT = 1.0
    report = statmech.extensivity_report(
        statmech.Statistics.MB_FACT, 1.0, [(2.0 * n, n) for n in (2, 10, 100, 1000)]
    )
    ok = True
    for r in report["rows"]:
        n, defect = r["N"], r["extensivity_defect"]
        expected = kT * (math.lgamma(n + 1) - n * math.log(n))
        ok = ok and defect != 0.0
        ok = ok and abs(defect - expected) <= tol * abs(expected)
        # residual after adding back kT*N is the Stirling remainder
        resid = defect + kT * n - kT * 0.5 * math.log(2.0 * math.pi * n)
        ok = ok and 0.0 < resid < kT / (12.0 * n) + tol
    return ok, "defect = kT*(ln N! - N ln N), shrinking per particle", (
        "nonzero drift matching ln(N!) - N ln N + N"
    )


def _check_float_shadow(seed: int, tol: float):
    """Products and same-radicand sums of single-term values, and vector
    norms and inner products, against the same trees evaluated in floats."""
    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    def root() -> RadicalRational:
        return rsqrt_of_rational(Fraction(rng.randint(1, 8), rng.randint(1, 8)))

    def vector() -> symmetry.StateVector:  # rational values times one scale
        scale = root()
        states = [s for s in itertools.product(range(3), repeat=2) if rng.random() < 0.6]
        return symmetry.StateVector(2, {s: scale * rational() for s in states})

    # the float sums run left to right, as built-in sum() did before 3.12
    # compensated it, so the printed gap is the same on every Python
    worst = 0.0
    for _ in range(60):
        shared = root()
        a, b, c = shared * rational(), shared * rational(), root() * rational()
        u, v = vector(), vector()
        fu, fv = ({s: float(x) for s, x in w.items()} for w in (u, v))
        for exact, shadow in [
            ((a + b) * c, (float(a) + float(b)) * float(c)),
            (_inner_product(u, v), reduce(add, (x * fv.get(s, 0.0) for s, x in fu.items()), 0.0)),
            (u.norm_squared(), reduce(add, (x * x for x in fu.values()), 0.0)),
        ]:
            worst = max(worst, abs(float(exact) - shadow) / max(1.0, abs(shadow)))
    return worst <= tol, f"max relative gap = {worst:.3e} over 60 seeded trees", f"<= {tol:g}"


def _ledger(seed: int) -> list[tuple]:
    """The ledger in print order, one row per line: (id, claim, tolerance,
    check, args).  A row's check is called as check(*args), with tol= the
    row's tolerance when that is nonzero, and returns (ok, lhs, rhs).  A
    noted row has no check, and its args are its lhs and rhs."""
    BE, FD = statmech.Statistics.BE, statmech.Statistics.FD
    return [
        ("equal_share_S", "fully symmetric 3-particle state gives each particle mean energy (e1+e2+e3)/3",
         0.0, _check_equal_share, ("S",)),
        ("equal_share_A", "fully antisymmetric 3-particle state gives each particle mean energy (e1+e2+e3)/3",
         0.0, _check_equal_share, ("A",)),
        ("mixed_split_s1", "first mixed vector splits mean energies as (5,5,2)/12 and (2,2,8)/12",
         0.0, _check_mixed_split, ("s1", [[(5, 12), (5, 12), (2, 12)]] * 2 + [[(2, 12), (2, 12), (8, 12)]])),
        ("mixed_split_s2", "second mixed vector splits mean energies as (1,1,2)/4 and (1,1,0)/2",
         0.0, _check_mixed_split, ("s2", [[(1, 4), (1, 4), (1, 2)]] * 2 + [[(1, 2), (1, 2), (0, 1)]])),
        ("mixed_instantiated", "mixed-vector mean energies at (e1,e2,e3) = (1,2,3): 7/4, 5/2, 9/4, 3/2",
         0.0, _check_mixed_instantiated, ()),
        ("sum_rule_six", "per-particle mean energies sum to the total energy for all six basis vectors",
         0.0, _check_sum_rule, ()),
        ("basis_orthonormal", "the six distinct-level 3-particle basis vectors are exactly orthonormal",
         0.0, _check_orthonormal, ()),
        ("pair_plane_stable",
         "every permutation image of a mixed pair decomposes in its own 2-plane with zero residual",
         0.0, _check_pair_planes, ()),
        ("parity_dimensions", "symmetric plus antisymmetric sectors span exactly 2 of the 6 dimensions",
         0.0, _check_parity_dimensions, ()),
        ("product_decomposition",
         "the bare product state decomposes with coefficients "
         "(1/sqrt(6), -1/sqrt(6), 1/sqrt(3), 0, 1/sqrt(3), 0) and zero residual",
         0.0, _check_product_decomposition, ()),
        ("decomposition_sign",
         "the antisymmetric basis member is oriented opposite to the commonly displayed "
         "expansion, so its projection coefficient is -1/sqrt(6) rather than +1/sqrt(6); "
         "orientation chosen to keep the six-vector basis exactly orthonormal",
         0.0, None, ("-1/sqrt(6)", "+1/sqrt(6) (displayed)")),
        ("degeneracy_small", "exchange degeneracy is 1, 3, 6 for (a,a,a), (a,a,b), (a,b,c)",
         0.0, _check_degeneracy_small, ()),
        ("degeneracy_multinomial",
         "multinomial N!/prod(n_k!) matches exhaustive orbit counting for all partitions, N <= 6",
         0.0, _check_degeneracy_multinomial, ()),
        ("position_center", "box eigenstate (anti)symmetrized combinations place every particle at L/2",
         1e-10, _check_position_center, ()),
        ("laplacian_linear", "linear-phase plane waves have exactly zero Laplacian residual",
         0.0, _check_laplacian_linear, ()),
        ("laplacian_control", "a quadratic phase control produces a nonzero Laplacian residual",
         0.0, _check_laplacian_control, ()),
        ("plane_wave_energy", "total energy equals sum |p|^2/2m through the wave-coefficient route, exactly",
         0.0, _check_plane_wave_energy, ()),
        ("momentum_multiset", "degeneracy-weighted momentum-multiset sum equals z1^N for N <= 4",
         1e-12, _check_momentum_multiset, ()),
        ("canonical_recursion",
         "the canonical kernel and the recursion oracle match enumeration for BE and FD, N <= 5, 8 levels",
         1e-12, _check_canonical_recursion, ()),
        ("fugacity_fd", "grand product equals the finite fugacity polynomial for FD",
         1e-12, _check_fugacity, (FD, [0.0, 0.4, 1.1, 2.2], 1.3, 0.2, "finite polynomial identity")),
        ("fugacity_be", "grand product matches the truncated fugacity series for BE",
         1e-10, _check_fugacity, (BE, [0.0, 0.6, 1.5], 1.0, -0.8, "truncated series")),
        ("bose_guard", "Bose grand product diverges exactly when mu reaches the lowest level",
         0.0, _check_bose_guard, ()),
        ("extensivity_mb_nn", "per-subvolume Boltzmann free energy is extensive: F(T,V,N) = N*F(T,V/N,1)",
         1e-12, _check_extensivity_mb_nn, ()),
        ("extensivity_mb_fact",
         "factorial-convention free energy drifts by kT*(ln N! - N ln N), nonzero and shrinking",
         1e-9, _check_extensivity_mb_fact, ()),
        ("free_energy_sign",
         "free energies are reported with F = -kT*ln(Z); the opposite printed sign "
         "convention is recorded here as a discrepancy, not applied",
         0.0, None, ("F = -kT*ln(Z)", "F = +kT*ln(Z) (displayed)")),
        ("float_shadow",
         "exact radical arithmetic agrees with floating-point evaluation on seeded expression trees",
         1e-12, _check_float_shadow, (seed,)),
    ]


def run_verification(seed: int = 0) -> list[CheckResult]:
    results = []
    for check_id, claim, tol, check, args in _ledger(seed):
        if check is None:
            results.append(CheckResult(check_id, claim, "noted", *args, tol))
            continue
        try:
            ok, lhs, rhs = check(*args, tol=tol) if tol else check(*args)
        except Exception as exc:  # a broken identity may surface as a raise
            ok, lhs, rhs = False, f"error: {exc!r}", "-"
        results.append(CheckResult(check_id, claim, "pass" if ok else "fail", lhs, rhs, tol))
    return results
