"""Spectra, occupation enumeration, partition functions, extensivity."""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
import time
import types

import pytest

from idstat import statmech
from idstat.errors import BoseDivergence, CapacityExceeded, InputError
from idstat.statmech import (
    MAX_CANONICAL_N,
    MAX_COUNT_DIGITS,
    MAX_CUTOFF,
    MAX_LEVELS,
    MAX_OCCUPATION_STATES,
    MAX_PARTICLES,
    QUIET,
    Spectrum,
    Statistics,
    box1d_spectrum,
    box3d_spectrum,
    canonical_Z,
    canonical_ln_Z,
    dimensionless_spectrum,
    extensivity_report,
    free_energy_from_ln_Z,
    grand_ln_Xi,
    mb_ln_Z_continuum,
    occupation_count,
    occupation_vectors,
    spectrum_from_csv,
    spectrum_from_levels,
    thermal_wavelength,
    _ln_Z_table,
)
from idstat.verify import _canonical_Z_recursive, _grand_Xi_series, _momentum_multiset_sum, _z1

BE, FD, MB_NN, MB_FACT = (
    Statistics.BE,
    Statistics.FD,
    Statistics.MB_NN,
    Statistics.MB_FACT,
)


def enumerated_Z(spec, n, beta, stat):
    """Reference Z: the Boltzmann sum over every occupation state."""
    return math.fsum(
        math.exp(-beta * math.fsum(map(operator.mul, vec, spec.energies)))
        for vec in occupation_vectors(len(spec), n, stat)
    )


def test_statistics_parse():
    assert Statistics.parse(" FD ") is FD
    assert Statistics.parse("mb-nn") is MB_NN
    with pytest.raises(InputError):
        Statistics.parse("boltzmann")


def test_spectrum_sorts_and_offsets():
    s = spectrum_from_levels([2.0, 0.5, 1.0])
    assert s.energies == (0.5, 1.0, 2.0)
    assert s.offset == 0.5


def test_dimensionless_spectrum():
    assert dimensionless_spectrum(3).energies == (1.0, 4.0, 9.0)


def test_box1d_spectrum_scale_and_ratio():
    s = box1d_spectrum(4)
    assert s.energies[0] == 1.0 / 8.0  # h^2/(8 m L^2) with unit constants
    assert s.energies[1] / s.energies[0] == 4.0
    assert box1d_spectrum(3, length=2.0).energies[0] == 1.0 / 32.0


def test_box_spectra_refuse_a_scale_out_of_float_range():
    # 8 m L^2 underflows to 0; h^2 overflows; h^2 / (8 m L^2) overflows
    for kwargs in ({"length": 1e-300}, {"h": 1e200}, {"length": 1e-5, "mass": 1e-300}):
        for builder in (box1d_spectrum, box3d_spectrum):
            with pytest.raises(InputError, match=r"h\^2/\(8 m L\^2\) is out of float range"):
                builder(3, **kwargs)
    # a scale that merely rounds to 0 is kept
    assert box1d_spectrum(3, length=1e200).energies == (0.0, 0.0, 0.0)


def test_box3d_spectrum_degeneracies():
    s = box3d_spectrum(4)
    assert [e / s.energies[0] * 3 for e in s.energies] == [3.0, 6.0, 6.0, 6.0]
    # brute-force the first 50 shell values independently
    brute = sorted(
        nx * nx + ny * ny + nz * nz
        for nx in range(1, 30)
        for ny in range(1, 30)
        for nz in range(1, 30)
    )[:50]
    got = [round(e / (1.0 / 8.0)) for e in box3d_spectrum(50).energies]
    assert got == brute


def _generator_spectrum(values) -> tuple:
    """What Spectrum held when the builders and __post_init__ made their
    tuples from generators: the floats of `values`, sorted."""
    energies = tuple(float(e) for e in values)
    return energies if list(energies) == sorted(energies) else tuple(sorted(energies))


def test_spectrum_builders_keep_the_generator_floats():
    rng = random.Random(7)
    for k in (1, 2, 9, 10, 11, 57, 1000):
        levels = [rng.choice((rng.uniform(-3, 3), rng.randint(-5, 5))) for _ in range(k)]
        scale = statmech._box_scale(1.3, 0.7, 2.0)
        built = [
            (spectrum_from_levels(levels), _generator_spectrum(tuple(float(v) for v in levels))),
            (Spectrum(levels), _generator_spectrum(levels)),
            (dimensionless_spectrum(k), _generator_spectrum(tuple(float(n * n) for n in range(1, k + 1)))),
            (box1d_spectrum(k, 1.3, 0.7, 2.0), _generator_spectrum(tuple(scale * n * n for n in range(1, k + 1)))),
            (box3d_spectrum(k, 1.3, 0.7, 2.0),
             _generator_spectrum(tuple(scale * s for s in doubling_box3d_sums(k)))),
        ]
        for spectrum, old in built:
            assert type(spectrum.energies) is tuple
            assert {type(e) for e in spectrum.energies} == {float}
            assert len(spectrum.energies) == len(old) == k
            assert all(e == o and math.copysign(1, e) == math.copysign(1, o)
                       for e, o in zip(spectrum.energies, old)), k


def test_spectrum_csv_round(tmp_path):
    p = tmp_path / "levels.csv"
    p.write_text("energy,degeneracy\n1.5,2\n0.5,1\n2.5,3\n")
    s = spectrum_from_csv(str(p))
    assert s.energies == (0.5, 1.5, 1.5, 2.5, 2.5, 2.5)
    q = tmp_path / "plain.csv"
    q.write_text("energy\n3.0\n1.0\n")
    assert spectrum_from_csv(str(q)).energies == (1.0, 3.0)


def test_spectrum_csv_refuses_undecodable_bytes(tmp_path):
    p = tmp_path / "random.csv"
    rng = random.Random(200)
    p.write_bytes(b"\xff" + bytes(rng.randrange(256) for _ in range(199)))
    with pytest.raises(InputError):
        spectrum_from_csv(str(p))


def test_spectrum_csv_refuses_a_row_longer_than_the_header(tmp_path):
    p = tmp_path / "extra.csv"
    p.write_text("energy,degeneracy\n1,2,3\n")
    with pytest.raises(InputError, match="more fields than the header"):
        spectrum_from_csv(str(p))
    p.write_text("energy\n1,2\n")
    with pytest.raises(InputError, match="more fields than the header"):
        spectrum_from_csv(str(p))


def test_spectrum_csv_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("eps\n1.0\n")
    with pytest.raises(InputError):
        spectrum_from_csv(str(p))
    p.write_text("energy\nnot-a-number\n")
    with pytest.raises(InputError):
        spectrum_from_csv(str(p))


def test_level_count_caps():
    with pytest.raises(CapacityExceeded):
        spectrum_from_levels([0.0] * (MAX_CUTOFF + 1))
    with pytest.raises(CapacityExceeded):
        dimensionless_spectrum(MAX_CUTOFF + 1)


def test_enumerate_occupations_fd():
    states = list(occupation_vectors(4, 2, FD))
    assert len(states) == math.comb(4, 2)
    for vec in states:
        assert sum(vec) == 2
        assert set(vec) == {0, 1}
    assert len(set(map(tuple, states))) == len(states)


def test_enumerate_occupations_be_allows_repeats():
    states = list(occupation_vectors(4, 2, BE))
    assert len(states) == math.comb(4 + 2 - 1, 2)
    assert any(2 in vec for vec in states)
    # MB kinds share BE support
    assert list(occupation_vectors(4, 2, MB_NN)) == states


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize("n_levels", [1, 2, 4, 6])
@pytest.mark.parametrize("n_particles", [0, 1, 2, 3, 4])
def test_occupation_count_matches_enumeration(stat, n_levels, n_particles):
    states = list(occupation_vectors(n_levels, n_particles, stat))
    assert len(states) == occupation_count(n_levels, n_particles, stat)
    assert all(len(vec) == n_levels and sum(vec) == n_particles for vec in states)


def test_occupation_count_past_the_digit_cap_is_refused_at_once():
    # C(2 * 10**6 - 1, 10**6) has 600 000 digits: math.comb took 35 s on it
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="more than 4300 digits"):
        occupation_count(10**6, 10**6, BE)
    with pytest.raises(CapacityExceeded):
        occupation_count(10**400, 10**400, MB_NN)
    assert time.perf_counter() - start < 0.1
    assert occupation_count(1, 10**400, BE) == 1  # C(n, n): one state, however large n
    assert occupation_count(10**400, 10**400, FD) == 1
    assert occupation_count(10**400, 1, FD) == 10**400
    assert occupation_count(3, 10**400, FD) == 0


@pytest.mark.parametrize("m", [1, 2, 5, 50, 500, 2000, 5000])
def test_occupation_count_digit_cap_is_exact(m):
    # the least n whose C(n, m) has more than MAX_COUNT_DIGITS digits, by bisection
    limit = 10**MAX_COUNT_DIGITS
    lo, hi = 2 * m, m * 10 ** (MAX_COUNT_DIGITS // m + 1)  # C(hi, m) >= (hi/m)^m >= limit
    assert math.comb(lo, m) < limit <= math.comb(hi, m)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.comb(mid, m) >= limit else (mid, hi)
    for n in (lo - 1, lo):  # admitted counts equal math.comb, as FD and BE
        assert occupation_count(n, m, FD) == math.comb(n, m) == occupation_count(n - m + 1, m, BE)
    for n in (hi, hi + 1):
        for call in (lambda: occupation_count(n, m, FD), lambda: occupation_count(n - m + 1, m, BE)):
            with pytest.raises(CapacityExceeded):
                call()
    # from m = 4 * MAX_COUNT_DIGITS on, even C(2m, m) is past the cap
    with pytest.raises(CapacityExceeded):
        occupation_count(2 * 4 * MAX_COUNT_DIGITS + 2, 4 * MAX_COUNT_DIGITS + 1, FD)


def test_occupation_vector_and_energy():
    assert list(occupation_vectors(3, 2, FD)) == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert list(occupation_vectors(2, 3, BE)) == [[3, 0], [2, 1], [1, 2], [0, 3]]
    assert list(occupation_vectors(2, 3, FD)) == []
    spec = spectrum_from_levels([0.0, 1.0, 2.5])
    assert [2, 0, 1] in list(occupation_vectors(3, 3, BE))
    assert math.fsum(map(operator.mul, [2, 0, 1], spec.energies)) == 2.5


def test_enumeration_caps():
    with pytest.raises(CapacityExceeded):
        list(occupation_vectors(MAX_LEVELS + 1, 2, FD))
    with pytest.raises(CapacityExceeded):
        list(occupation_vectors(4, MAX_PARTICLES + 1, BE))
    assert MAX_OCCUPATION_STATES == math.comb(20, 10)
    with pytest.raises(CapacityExceeded, match="657800 occupation states"):
        next(occupation_vectors(20, 7, BE))  # C(26, 7) states, within the N and K caps
    assert sum(next(occupation_vectors(20, 10, FD))) == 10  # FD's largest count
    assert occupation_count(20, 6, BE) == 177100 <= MAX_OCCUPATION_STATES
    assert sum(next(occupation_vectors(20, 6, BE))) == 6


def test_canonical_fd_frozen_example():
    spec = spectrum_from_levels([0.0, 1.0, 2.0])
    z = canonical_Z(spec, 2, 1.0, FD)
    expected = math.exp(-1.0) + math.exp(-2.0) + math.exp(-3.0)
    assert math.isclose(z, expected, rel_tol=1e-15)


def test_canonical_edge_cases():
    spec = spectrum_from_levels([0.0, 1.0])
    assert canonical_Z(spec, 0, 1.0, BE) == 1.0
    assert canonical_Z(spec, 3, 1.0, FD) == 0.0  # more fermions than levels
    assert canonical_Z(spectrum_from_levels([0.0]), 3, 1.0, BE) == 1.0
    with pytest.raises(InputError):
        canonical_Z(spec, 2, 0.0, BE)
    with pytest.raises(InputError):
        canonical_ln_Z(spec, 2, math.nan, FD)
    with pytest.raises(InputError):
        canonical_ln_Z(spec, -1, 1.0, MB_NN)
    with pytest.raises(CapacityExceeded):
        canonical_ln_Z(spec, MAX_CANONICAL_N + 1, 1.0, BE)


def test_canonical_mb_closed_forms():
    spec = spectrum_from_levels([0.0, 0.7, 1.9])
    beta, n = 1.3, 3
    z1 = _z1(spec, beta)
    assert math.isclose(canonical_Z(spec, n, beta, MB_NN), z1**n / n**n, rel_tol=1e-13)
    assert math.isclose(
        canonical_Z(spec, n, beta, MB_FACT), z1**n / math.factorial(n), rel_tol=1e-13
    )
    assert math.isclose(canonical_ln_Z(spec, n, beta, MB_NN), n * math.log(z1 / n), rel_tol=1e-13)


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize("beta", [0.3, 1.0, 20.0])
def test_kernel_matches_enumeration(stat, beta):
    # prefixes of a spectrum with a degenerate pair, every K <= 8 and N <= 5
    levels = [0.0, 0.37, 0.37, 1.1, 1.8, 2.6, 3.5, 4.5]
    for k in range(1, 9):
        spec = spectrum_from_levels(levels[:k])
        for n in range(0, 6):
            if stat is FD and n > k:
                assert canonical_ln_Z(spec, n, beta, stat) == -math.inf
                continue
            ref = math.log(enumerated_Z(spec, n, beta, stat))
            assert abs(canonical_ln_Z(spec, n, beta, stat) - ref) <= 1e-12, (k, n)


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize("beta", [0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_matches_enumeration(stat, beta, n):
    spec = spectrum_from_levels([0.0, 0.5, 1.3, 2.0, 3.1])
    direct = enumerated_Z(spec, n, beta, stat)
    rec = _canonical_Z_recursive(spec, n, beta, stat)
    assert math.isclose(direct, rec, rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recursion_matches_enumeration_be_cold(n):
    # BE recursion terms are all positive, so no cancellation at any beta
    spec = spectrum_from_levels([0.0, 0.5, 1.3, 2.0, 3.1])
    assert math.isclose(
        enumerated_Z(spec, n, 2.7, BE), _canonical_Z_recursive(spec, n, 2.7, BE), rel_tol=1e-12
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recursion_fd_cold_conditioning(n):
    # The alternating FD recursion cancels: terms stay O(1) while Z_N
    # shrinks like exp(-beta * E_ground), so the float64 relative error
    # floor scales with the term/result ratio.  Assert agreement within
    # that conditioning bound instead of a fixed tolerance.
    spec = spectrum_from_levels([0.0, 0.5, 1.3, 2.0, 3.1])
    beta = 2.7
    direct = enumerated_Z(spec, n, beta, FD)
    rec = _canonical_Z_recursive(spec, n, beta, FD)
    kappa = sum(
        _z1(spec, k * beta) * enumerated_Z(spec, n - k, beta, FD)
        for k in range(1, n + 1)
    ) / (n * direct)
    assert abs(direct - rec) / direct <= 1e-13 * kappa
    assert math.isclose(direct, rec, rel_tol=1e-8)


# -- the reach cut, against the untrimmed loops ----------------------------


def untrimmed_ln_Z_table(energies, n_max, beta, stat):
    """The canonical kernel with every level in every row, as it stood
    before rows were cut at their reach."""
    ln_Z = [0.0]
    if stat is BE:
        e0 = energies[0]
        x = [math.exp(-beta * (e - e0)) for e in energies]
        row = [1.0] * len(energies)
        for n in range(1, n_max + 1):
            row = list(itertools.accumulate(map(operator.mul, x, row)))
            ground = beta * n * e0 if beta * n < math.inf else n * (beta * e0)
            ln_Z.append(math.log(row[-1]) - ground)
        return ln_Z
    row = [1.0] * (len(energies) + 1)
    ground = 0.0
    for n in range(1, min(n_max, len(energies)) + 1):
        top = energies[n - 1]
        ground += top
        x = [math.exp(-beta * (e - top)) for e in energies[n - 1:]]
        row = list(itertools.accumulate(map(operator.mul, x, row)))
        ln_Z.append(math.log(row[-1]) - beta * ground)
    return ln_Z + [-math.inf] * (n_max - len(energies))


def be_grand_term(a, beta, mu, e):
    """log(1 - e^a), a = beta (mu - e) < 0: log(-a) = log beta + log(e - mu)
    for an a below the normal range (0 or subnormal), log(-expm1(a)) near
    condensation (a > -ln 2), log1p(-exp(a)) below."""
    if -a < sys.float_info.min:
        return math.log(beta) + math.log(e - mu)
    return math.log(-math.expm1(a)) if a > -math.log(2.0) else math.log1p(-math.exp(a))


def untrimmed_grand_ln_Xi(energies, beta, mu, stat):
    """The grand sum over every level."""
    if stat is BE and mu >= energies[0]:
        raise BoseDivergence(f"mu = {mu} is not below the lowest level")
    total = 0.0
    for e in energies:
        a = beta * (mu - e)
        if stat is BE:
            total -= be_grand_term(a, beta, mu, e)
        else:
            total += max(a, 0.0) + math.log1p(math.exp(-abs(a)))
    return total


def doubling_box3d_sums(cutoff):
    """The lowest `cutoff` shell values nx^2+ny^2+nz^2, from cubes of
    doubling side cut to their complete shells."""
    bound = 2
    while True:
        complete = bound * bound + 2
        sums = sorted(
            s for s in (nx * nx + ny * ny + nz * nz
                        for nx, ny, nz in itertools.product(range(1, bound + 1), repeat=3))
            if s <= complete
        )
        if len(sums) >= cutoff:
            return sums[:cutoff]
        bound *= 2


def reach_sweep(seed, cases):
    """Seeded (energies, N, beta) inputs: beta from 1e-6 to 1e3, degenerate
    levels, high or negative ground levels, N up to MAX_CANONICAL_N (also
    N >= K), and in half the cases a cold spectrum whose span is 20 to 746
    or 746 to 22380 over beta, across the quiet reach of the rows and past
    where exp underflows."""
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.choice([rng.randint(1, 3), rng.randint(4, 60), rng.randint(60, 400)])
        gaps = [0.0 if rng.random() < 0.3 else rng.expovariate(1.0) * 10 ** rng.uniform(-3, 2)
                for _ in range(k - 1)]
        beta = 10 ** rng.uniform(-6, 3)
        if rng.random() < 0.5 and sum(gaps) > 0:  # stretch past the reach
            span = rng.choice([rng.uniform(20.0, 746.0), 746.0 * rng.uniform(1.0, 30.0)])
            gaps = [g * span / (beta * sum(gaps)) for g in gaps]
        e0 = rng.choice([0.0, 0.0, rng.uniform(-50.0, 50.0), rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(3, 8)])
        energies = tuple(itertools.accumulate(gaps, initial=e0))
        n = rng.choice([rng.randint(1, 6), rng.randint(1, MAX_CANONICAL_N), min(k + 3, MAX_CANONICAL_N)])
        yield energies, n, beta


def hot_head_cold_tail(head, ground=0.0):
    """`head` levels within 1 of the ground level, whose kernel entries
    reach about 1e123 at N = 50 for head 9950, then a tail of 50 levels
    from 30 to 741 above it: at beta 1 the FD reach grows from 38 to 322
    over the rows, so each tail level is cut from the early rows and kept
    in the later ones."""
    return Spectrum([ground + i / head for i in range(head)] + [ground + 30.0 + 14.5 * j for j in range(50)])


@pytest.mark.parametrize("stat", [BE, FD])
def test_kernel_equals_the_untrimmed_kernel(stat):
    for energies, n, beta in reach_sweep(20261018, 400):
        got = _ln_Z_table(Spectrum(energies), n, beta, stat)
        assert got == untrimmed_ln_Z_table(energies, n, beta, stat), (energies[:4], len(energies), n, beta)


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize(
    "spec, beta",
    [
        (dimensionless_spectrum(MAX_CUTOFF), 1e-6),  # nothing cut
        (dimensionless_spectrum(MAX_CUTOFF), 8.9e-4),
        (box1d_spectrum(MAX_CUTOFF), 2.4e-3),
        (box1d_spectrum(9056), 4.2),
        (box3d_spectrum(MAX_CUTOFF, length=0.7), 0.05),
        (box3d_spectrum(MAX_CUTOFF), 5.0),
        (hot_head_cold_tail(9950), 1.0),
        (hot_head_cold_tail(9950, ground=-7e5), 1.0),
        (hot_head_cold_tail(400, ground=3e7), 1.0),
        (Spectrum([2.5] * 9000 + [2.5 + 40.0 * j for j in range(1, 1001)]), 1.0),  # degenerate head
    ],
)
def test_kernel_equals_the_untrimmed_kernel_at_the_level_cap(stat, spec, beta):
    n = MAX_CANONICAL_N
    assert _ln_Z_table(spec, n, beta, stat) == untrimmed_ln_Z_table(spec.energies, n, beta, stat)


def test_quiet_reach_stays_short_of_exp_underflow():
    # the largest kernel entry within the caps is C(K+N-1, N) < 1e136, so no
    # row reaches a level whose multiplier exp underflows to 0.0
    widest = QUIET + math.log(math.comb(MAX_CUTOFF + MAX_CANONICAL_N - 1, MAX_CANONICAL_N))
    assert widest < 352.0 < -math.log(5e-324)


@pytest.mark.parametrize("stat", [BE, FD])
def test_kernel_computes_only_the_levels_in_reach(stat, monkeypatch):
    spec, n, beta = dimensionless_spectrum(MAX_CUTOFF), 50, 1.0
    want = untrimmed_ln_Z_table(spec.energies, n, beta, stat)
    calls = counted_exp(monkeypatch)
    plans, reach_of = [0], statmech._reach

    def counting_reach(*args):
        plans[0] += 1
        return reach_of(*args)

    monkeypatch.setattr(statmech, "_reach", counting_reach)
    assert _ln_Z_table(spec, n, beta, stat) == want
    # FD row m keeps levels m .. sqrt(m^2 + QUIET + ln R) of the 10^4, each
    # row's R being below e^0.5; BE plans once and evaluates the multipliers
    # of its one reach, levels 1 .. sqrt(1 + QUIET), once
    reach = [math.isqrt(m * m + 39) for m in range(1, n + 1)]
    assert 0 < calls[0] <= (reach[0] if stat is BE else sum(r - m + 1 for m, r in enumerate(reach, 1)))
    assert plans[0] == (1 if stat is BE else n)


@pytest.mark.parametrize("stat", [BE, FD])
def test_grand_sum_equals_the_untrimmed_sum(stat):
    rng = random.Random(1018)
    for energies, _, beta in reach_sweep(2026, 300):
        span = energies[-1] - energies[0]
        for mu in (
            energies[0] - rng.uniform(1e-9, 1e3) / beta,   # below
            energies[0] - rng.uniform(30.0, 745.0) / beta,  # below, the first term tiny or subnormal
            math.nextafter(energies[0], -math.inf),        # just below, the first term dominant
            energies[0] + rng.random() * span,            # inside
            energies[-1] + rng.uniform(1.0, 1e3) / beta,  # above
            energies[-1] + 10 ** rng.uniform(3, 6) / beta,  # far above
        ):
            try:
                want = untrimmed_grand_ln_Xi(energies, beta, mu, stat)
            except (BoseDivergence, InputError) as exc:
                with pytest.raises(type(exc)):
                    grand_ln_Xi(Spectrum(energies), beta, mu, stat)
                continue
            assert grand_ln_Xi(Spectrum(energies), beta, mu, stat) == want, (energies[:4], beta, mu)


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize("spec", [hot_head_cold_tail(9950), box3d_spectrum(MAX_CUTOFF)])
def test_grand_sum_equals_the_untrimmed_sum_at_the_level_cap(stat, spec):
    e0 = spec.energies[0]
    for beta in (1e-3, 0.3, 5.0):
        for mu in (e0 - 1e-12, e0 - 0.5, e0 - 700.0 / beta, e0 + 3.0, spec.energies[-1] + 40.0 / beta):
            if stat is BE and mu >= e0:
                continue
            want = untrimmed_grand_ln_Xi(spec.energies, beta, mu, stat)
            assert grand_ln_Xi(spec, beta, mu, stat) == want, (beta, mu)


@pytest.mark.parametrize("length", [0.3, 1.0, 2.7])
def test_box3d_spectrum_equals_the_doubling_builder(length):
    scale = 1.0 / (8.0 * length * length)
    for cutoff in [*range(1, 301), 6627, MAX_CUTOFF]:
        want = tuple(scale * s for s in doubling_box3d_sums(cutoff))
        assert box3d_spectrum(cutoff, length=length).energies == want, cutoff


def test_box3d_first_bound_holds_every_admitted_cutoff():
    # box3d_spectrum enumerates the complete shells up to one bound, in one
    # pass: count the sums each bound holds, for every cutoff within the cap
    top = statmech._box3d_bound(MAX_CUTOFF)
    per_shell = [0] * (top + 1)
    side = math.isqrt(top) + 1
    for nx, ny, nz in itertools.product(range(1, side), repeat=3):
        if nx * nx + ny * ny + nz * nz <= top:
            per_shell[nx * nx + ny * ny + nz * nz] += 1
    held = list(itertools.accumulate(per_shell))
    short = [c for c in range(1, MAX_CUTOFF + 1) if held[statmech._box3d_bound(c)] < c]
    assert short == []


# -- degenerate spectra pay once, against the per-row and per-level loops ----


def per_row_ln_Z_table(energies, n_max, beta, stat):
    """The canonical kernel as it stood before FD rows reused multipliers:
    every row evaluates its own, from its top level to its quiet reach."""
    ln_Z = [0.0]
    if stat is BE:
        e0 = energies[0]
        x = [math.exp(-beta * (e - e0)) for e in energies[:statmech._reach(energies, beta, e0, QUIET)]]
        row = [1.0] * len(x)
        for n in range(1, n_max + 1):
            row = list(itertools.accumulate(map(operator.mul, x, row)))
            ground = beta * n * e0 if beta * n < math.inf else n * (beta * e0)
            ln_Z.append(math.log(row[-1]) - ground)
        return ln_Z
    row = [1.0]
    ground = 0.0
    for n in range(1, min(n_max, len(energies)) + 1):
        top = energies[n - 1]
        ground += top
        reach = statmech._reach(energies, beta, top, QUIET + math.log(row[-1]))
        x = [math.exp(-beta * (e - top)) for e in energies[n - 1:reach]]
        row += [row[-1]] * (len(x) - len(row))
        row = list(itertools.accumulate(map(operator.mul, x, row)))
        ln_Z.append(math.log(row[-1]) - beta * ground)
    return ln_Z + [-math.inf] * (n_max - len(energies))


def per_level_grand_ln_Xi(energies, beta, mu, stat):
    """The grand sum as it stood before it ran in C-level passes: one level
    at a time, up to its quiet reach."""
    if stat is BE and mu >= energies[0]:
        raise BoseDivergence(f"mu = {mu} is not below the lowest level {energies[0]}")
    total = 0.0
    for e in energies[:statmech._reach(energies, beta, max(mu, energies[0]), QUIET + math.log(2.0))]:
        a = beta * (mu - e)
        if stat is BE:
            total -= be_grand_term(a, beta, mu, e)
        else:
            total += max(a, 0.0) + math.log1p(math.exp(-abs(a)))
    if not math.isfinite(total):
        raise InputError(f"grand ln Xi is out of float range at beta = {beta!r}, mu = {mu!r}")
    return total


def sorted_sums_box3d(cutoff, length=1.0, mass=1.0, h=1.0):
    """box3d_spectrum as it stood before it counted shells: every sum
    scaled, after one sort of all of them."""
    cutoff = statmech._check_cutoff(cutoff)
    scale = statmech._box_scale(length, mass, h)
    bound = statmech._box3d_bound(cutoff)
    squares = [n * n for n in range(math.isqrt(bound) + 1)]
    sums = []
    for nx in range(1, math.isqrt(bound - 2) + 1):
        for ny in range(1, math.isqrt(bound - squares[nx] - 1) + 1):
            base = squares[nx] + squares[ny]
            sums.extend([base + q for q in squares[1:math.isqrt(bound - base) + 1]])
    sums.sort()
    return Spectrum([scale * s for s in sums[:cutoff]])


def outcome(call):
    """A call's float as its repr (bit for bit, nan and -0.0 included), a
    list of floats as their reprs, or its refusal's type and text."""
    try:
        value = call()
    except (BoseDivergence, CapacityExceeded, InputError) as exc:
        return type(exc), str(exc)
    return list(map(repr, value)) if isinstance(value, (list, tuple)) else repr(value)


BETAS = (1e-4, 1e-3, 0.05, 1.0, 5.0, 30.0)


def degenerate_csv_spectra(tmp_path, seed, cases):
    """Seeded CSV spectra whose rows carry degeneracies up to 100 (and
    sometimes repeat an energy over rows), up to the level cap."""
    rng = random.Random(seed)
    for i in range(cases):
        rows, e = [], rng.uniform(-5.0, 5.0)
        for _ in range(rng.randint(1, 120)):
            rows.append((e, rng.choice([1, 2, 3, rng.randint(1, 100)])))
            e += 0.0 if rng.random() < 0.1 else rng.expovariate(1.0) * 10 ** rng.uniform(-2, 1.5)
        while sum(g for _, g in rows) > MAX_CUTOFF:
            rows.pop()
        rng.shuffle(rows)
        path = tmp_path / f"degenerate-{i}.csv"
        path.write_text("energy,degeneracy\n" + "".join(f"{e!r},{g}\n" for e, g in rows))
        yield spectrum_from_csv(str(path)), 10 ** rng.uniform(-4, math.log10(30.0))


# 100 shells of 100 levels, 1000 apart: at beta 1e-3 the FD rows' reach grows
# from 39 shells to all 100 while every top is the ground level
WIDE_SHELLS = [1000.0 * (j // 100) for j in range(MAX_CUTOFF)]


@pytest.mark.parametrize("stat", [BE, FD])
@pytest.mark.parametrize("cutoff", [10, 729, MAX_CUTOFF])
def test_kernel_equals_the_per_row_kernel_on_box3d(stat, cutoff):
    for length in (0.3, 1.0, 2.7):
        energies = box3d_spectrum(cutoff, length=length).energies
        for beta in BETAS:
            got = outcome(lambda: _ln_Z_table(Spectrum(energies), MAX_CANONICAL_N, beta, stat))
            assert got == outcome(lambda: per_row_ln_Z_table(energies, MAX_CANONICAL_N, beta, stat)), (length, beta)


@pytest.mark.parametrize("stat", [BE, FD])
def test_kernel_equals_the_per_row_kernel_on_degenerate_spectra(stat, tmp_path):
    spectra = [*degenerate_csv_spectra(tmp_path, 2210, 40), (Spectrum(WIDE_SHELLS), 1e-3),
               (Spectrum([0.0] * 60), 1.0), (Spectrum([1.0, 1.0, 2.0]), 1e308)]
    for spec, beta in spectra:
        for n_max in (1, 7, MAX_CANONICAL_N):
            got = outcome(lambda: _ln_Z_table(spec, n_max, beta, stat))
            assert got == outcome(lambda: per_row_ln_Z_table(spec.energies, n_max, beta, stat)), (len(spec), beta)


def test_kernel_refusals_are_unchanged_on_degenerate_spectra():
    # ln Z out of float range, the particle cap, and more fermions than levels
    spec = Spectrum([1.0, 1.0, 2.0])
    for stat in (BE, FD):
        table = per_row_ln_Z_table(spec.energies, 3, 1e308, stat)
        assert not math.isfinite(table[-1])
        assert outcome(lambda: _ln_Z_table(spec, 3, 1e308, stat)) == list(map(repr, table))
        with pytest.raises(InputError, match="canonical ln Z is out of float range at beta = 1e"):
            canonical_ln_Z(spec, 3, 1e308, stat)
        with pytest.raises(CapacityExceeded):
            canonical_ln_Z(box3d_spectrum(MAX_CUTOFF), MAX_CANONICAL_N + 1, 1e-3, stat)
    assert canonical_ln_Z(spec, 4, 1.0, FD) == -math.inf


@pytest.mark.parametrize("stat", [BE, FD])
def test_grand_sum_equals_the_per_level_sum(stat, tmp_path):
    spectra = [(box3d_spectrum(cutoff, length=length), beta)
               for cutoff in (10, 729, MAX_CUTOFF) for length in (0.3, 2.7) for beta in BETAS]
    spectra += [*degenerate_csv_spectra(tmp_path, 1910, 30), (Spectrum(WIDE_SHELLS), 1e-3)]
    for spec, beta in spectra:
        e0, top = spec.energies[0], spec.energies[-1]
        # below, just below (the first factor rounds to 1), inside, above, and past exp overflow
        for mu in (e0 - 3.0 / beta, e0 - 1e-3, math.nextafter(e0, -math.inf), e0, (e0 + top) / 2,
                   top + 5.0 / beta, 1e300):
            got = outcome(lambda: grand_ln_Xi(spec, beta, mu, stat))
            assert got == outcome(lambda: per_level_grand_ln_Xi(spec.energies, beta, mu, stat)), (len(spec), beta, mu)


def test_grand_sum_refusals_are_unchanged():
    spec = Spectrum([0.0, 0.0, 1.0])
    for beta, mu, stat, kind, text in (
        (1.0, 0.0, BE, BoseDivergence, "mu = 0.0 is not below the lowest level 0.0"),
        (1e10, 1e300, FD, InputError, "grand ln Xi is out of float range at beta = 10000000000.0, mu = 1e+300"),
    ):
        assert outcome(lambda: grand_ln_Xi(spec, beta, mu, stat)) == (kind, text)
        assert outcome(lambda: per_level_grand_ln_Xi(spec.energies, beta, mu, stat)) == (kind, text)
    # a beta (e_0 - mu) that underflows to 0 answers: each such term is -log(beta (e - mu))
    want = -3 * math.log(1e-30) - 2 * math.log(1e-300)
    assert grand_ln_Xi(spec, 1e-30, -1e-300, BE) == per_level_grand_ln_Xi(spec.energies, 1e-30, -1e-300, BE)
    assert math.isclose(grand_ln_Xi(spec, 1e-30, -1e-300, BE), want, rel_tol=1e-15)
    # near condensation the first factor rounds to 1, and the sum still answers
    want = -2 * math.log(1e-303) - math.log(-math.expm1(-1e-3))
    assert grand_ln_Xi(spec, 1e-3, -1e-300, BE) == per_level_grand_ln_Xi(spec.energies, 1e-3, -1e-300, BE)
    assert math.isclose(grand_ln_Xi(spec, 1e-3, -1e-300, BE), want, rel_tol=1e-15)


def test_box3d_spectrum_equals_the_sorted_sums():
    for cutoff in (*range(1, 60), 10, 100, 729, 1000, 6627, MAX_CUTOFF):
        for length, mass, h in ((1.0, 1.0, 1.0), (0.3, 1.0, 1.0), (2.7, 0.5, 3.0), (1e150, 1.0, 1.0)):
            got = outcome(lambda: box3d_spectrum(cutoff, length, mass, h).energies)
            assert got == outcome(lambda: sorted_sums_box3d(cutoff, length, mass, h).energies), (cutoff, length)
    # refusals: the cutoff, the scale, and energies past the float range
    for args in ((0,), (MAX_CUTOFF + 1,), (True,), (5, 1e-300), (5, 1.0, 1.0, 1e200), (MAX_CUTOFF, 1.0, 1.0, 1e154)):
        want = outcome(lambda: sorted_sums_box3d(*args).energies)
        assert isinstance(want, tuple) and outcome(lambda: box3d_spectrum(*args).energies) == want, args


def test_every_builder_spectrum_equals_the_checked_one(tmp_path):
    csv_path = tmp_path / "levels.csv"
    csv_path.write_text("energy,degeneracy\n2.5,3\n-1,2\n0.25,1\n")
    built = [spectrum_from_csv(str(csv_path)), spectrum_from_levels([3, 1.5, -2])]
    for cutoff in (1, 2, 10, 729, MAX_CUTOFF):
        built += [dimensionless_spectrum(cutoff), box1d_spectrum(cutoff), box1d_spectrum(cutoff, 0.3, 2.0, 1.7),
                  box3d_spectrum(cutoff), box3d_spectrum(cutoff, 2.7, 0.5, 3.0), box1d_spectrum(cutoff, 1e200)]
    for spectrum in built:
        checked = Spectrum(list(spectrum.energies))
        assert spectrum == checked and type(spectrum.energies) is tuple
        assert list(map(repr, spectrum.energies)) == list(map(repr, checked.energies))
    # an energy past the float range is refused as the checked constructor refuses it
    for builder in (box1d_spectrum, box3d_spectrum):
        with pytest.raises(InputError, match="spectrum energies must be finite"):
            builder(MAX_CUTOFF, 1.0, 1.0, 1e154)


def counted_exp(monkeypatch) -> list:
    """Replace statmech's math.exp with one that counts its calls in the
    returned one-item list."""
    calls = [0]

    def counting_exp(x):
        calls[0] += 1
        return math.exp(x)

    counting_math = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    counting_math.exp = counting_exp
    monkeypatch.setattr(statmech, "math", counting_math)
    return calls


def test_fd_rows_pay_once_per_distinct_top(monkeypatch):
    # every level is in reach of every row: a row with a new top evaluates
    # its K - n + 1 multipliers, a row that repeats the last top none
    box3d, plain = box3d_spectrum(MAX_CUTOFF), dimensionless_spectrum(MAX_CUTOFF)
    want_box3d = _ln_Z_table(box3d, MAX_CANONICAL_N, 1e-3, FD)
    want_plain = _ln_Z_table(plain, MAX_CANONICAL_N, 1e-9, FD)
    calls = counted_exp(monkeypatch)
    assert _ln_Z_table(box3d, MAX_CANONICAL_N, 1e-3, FD) == want_box3d
    new_tops = [n for n in range(1, MAX_CANONICAL_N + 1) if n == 1 or box3d.energies[n - 1] != box3d.energies[n - 2]]
    assert len(new_tops) == 15
    assert calls[0] == sum(MAX_CUTOFF - n + 1 for n in new_tops) == 149_684  # 498 775 when every row paid
    calls[0] = 0
    # no level repeats: every row still pays for each level it reaches
    assert _ln_Z_table(plain, MAX_CANONICAL_N, 1e-9, FD) == want_plain
    assert calls[0] == sum(MAX_CUTOFF - n + 1 for n in range(1, MAX_CANONICAL_N + 1)) == 498_775


def test_fd_rows_on_a_repeated_top_evaluate_only_the_levels_the_reach_adds(monkeypatch):
    # every top is the ground level, and the reach grows from 39 shells to 100
    spec = Spectrum(WIDE_SHELLS)
    want = per_row_ln_Z_table(spec.energies, MAX_CANONICAL_N, 1e-3, FD)
    assert statmech._reach(spec.energies, 1e-3, 0.0, QUIET) == 3900  # the first row's
    calls = counted_exp(monkeypatch)
    assert _ln_Z_table(spec, MAX_CANONICAL_N, 1e-3, FD) == want
    assert calls[0] == MAX_CUTOFF  # each multiplier once


def test_monotonic_in_beta():
    spec = spectrum_from_levels([0.0, 0.9, 1.4])
    for stat in (BE, FD, MB_NN, MB_FACT):
        zs = [canonical_Z(spec, 2, b, stat) for b in (0.4, 0.9, 1.7, 3.0)]
        assert all(a > b for a, b in zip(zs, zs[1:]))


def test_grand_xi_frozen_single_level():
    spec = spectrum_from_levels([0.0])
    mu = -math.log(2.0)  # occupation factor exactly 1/2
    assert math.isclose(math.exp(grand_ln_Xi(spec, 1.0, mu, BE)), 2.0, rel_tol=1e-15)
    assert math.isclose(math.exp(grand_ln_Xi(spec, 1.0, mu, FD)), 1.5, rel_tol=1e-15)


def test_bose_divergence_iff_mu_reaches_ground_state():
    spec = spectrum_from_levels([0.5, 1.0])
    assert math.exp(grand_ln_Xi(spec, 2.0, 0.4999, BE)) > 0
    for mu in (0.5, 0.7):
        with pytest.raises(BoseDivergence):
            grand_ln_Xi(spec, 2.0, mu, BE)
    # FD never diverges
    assert math.exp(grand_ln_Xi(spec, 2.0, 5.0, FD)) > 0
    with pytest.raises(InputError):
        grand_ln_Xi(spec, 1.0, 0.0, MB_NN)


def test_grand_ln_xi_refuses_a_non_finite_beta():
    spec = spectrum_from_levels([0.0, 1.0, 2.0])
    for stat in (BE, FD):
        for beta in (math.inf, math.nan, 0.0):
            with pytest.raises(InputError):
                grand_ln_Xi(spec, beta, -0.5, stat)


def test_grand_ln_xi_refuses_a_sum_out_of_float_range():
    # beta (mu - e) overflows to inf on both levels, so the FD softplus is inf
    spec = spectrum_from_levels([0.0, 1.0])
    with pytest.raises(InputError, match="grand ln Xi is out of float range at beta = 10000000000.0, mu = 1e"):
        grand_ln_Xi(spec, 1e10, 1e300, FD)


def test_continuum_ln_z_refuses_a_wavelength_out_of_float_range():
    for T, V, mass in ((1e308, 1.0, 1.0), (1.0, 1.0, 1e-308), (1e-300, 1e-300, 1.0)):
        for stat in (MB_NN, MB_FACT):
            with pytest.raises(InputError):
                mb_ln_Z_continuum(T, V, 2, stat, mass=mass)


def test_fugacity_series_matches_product_fd():
    spec = spectrum_from_levels([0.0, 0.4, 1.1, 2.2])
    beta, mu = 1.3, 0.2
    assert math.isclose(
        math.exp(grand_ln_Xi(spec, beta, mu, FD)), _grand_Xi_series(spec, beta, mu, FD), rel_tol=1e-12
    )


def test_fugacity_series_matches_product_be():
    spec = spectrum_from_levels([0.0, 0.6, 1.5])
    beta, mu = 1.0, -0.8
    assert math.isclose(
        math.exp(grand_ln_Xi(spec, beta, mu, BE)), _grand_Xi_series(spec, beta, mu, BE), rel_tol=1e-10
    )


def test_thermal_wavelength_dimensionless():
    assert math.isclose(thermal_wavelength(1.0 / (2.0 * math.pi)), 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 0.69, 0.7, 2.0])
def test_grand_be_near_condensation_against_mpmath(s):
    # s = beta (e_0 - mu): log(1 - e^-s) keeps its digits as s -> 0
    import mpmath

    levels = [0.0, 0.25, 1.0, 1.0, 2.5]
    for beta in (1e-3, 1.0, 40.0):
        mu = levels[0] - s / beta
        with mpmath.workdps(50):
            terms = [mpmath.log(-mpmath.expm1(mpmath.mpf(beta) * (mpmath.mpf(mu) - e))) for e in levels]
            want = float(-mpmath.fsum(terms))
        got = grand_ln_Xi(Spectrum(levels), beta, mu, BE)
        assert abs(got - want) <= 1e-14 * abs(want), (s, beta, got, want)


@pytest.mark.parametrize("levels", [[0.0, 1.0], [0.0, 0.0, 1e-12, 1e-9, 2.5, 3e8]])
def test_grand_be_subnormal_exponent_against_mpmath(levels):
    # beta (mu - e) at or below the subnormal range: 0 for mu = -1e-300 and
    # rounded to one or a few digits for the others, on the first levels only
    import mpmath

    beta = 1e-30
    for mu in (-1e-300, -3e-294, -1e-290):
        with mpmath.workdps(50):
            terms = [mpmath.log(-mpmath.expm1(mpmath.mpf(beta) * (mpmath.mpf(mu) - e))) for e in levels]
            want = float(-mpmath.fsum(terms))
        got = grand_ln_Xi(Spectrum(levels), beta, mu, BE)
        assert abs(got - want) <= 1e-14 * abs(want), (mu, got, want)
        assert got == per_level_grand_ln_Xi(levels, beta, mu, BE)


def test_thermal_wavelength_si_against_mpmath():
    import mpmath

    from idstat.statmech import BOLTZMANN_K_SI, PLANCK_H_SI

    m_he = 6.6464731e-27
    mpmath.mp.dps = 50
    ref = mpmath.mpf(PLANCK_H_SI) / mpmath.sqrt(
        2 * mpmath.pi * mpmath.mpf(m_he) * mpmath.mpf(BOLTZMANN_K_SI) * 300
    )
    wavelength = thermal_wavelength(300.0, mass=m_he, h=PLANCK_H_SI, k=BOLTZMANN_K_SI)
    assert abs(wavelength - float(ref)) / float(ref) < 1e-12


def test_mb_free_energy_extensive_closed_form():
    v_per_n, T = 1.7, 0.9
    F_at = lambda V, N: free_energy_from_ln_Z(
        mb_ln_Z_continuum(T, V, N), T
    )
    f1 = F_at(v_per_n, 1)
    for n in (1, 2, 10, 100, 10**4):
        F = F_at(v_per_n * n, n)
        assert abs(F - n * f1) <= 1e-12 * abs(F)


def test_mb_ln_z_rejects_quantum_kinds():
    with pytest.raises(InputError):
        mb_ln_Z_continuum(1.0, 1.0, 1, BE)


def test_free_energy_sign_convention():
    assert free_energy_from_ln_Z(2.0, 1.5, k=1.0) == -3.0
    for ln_Z, T in ((2.0, 1e308), (0.0, math.inf), (-1.0, math.inf)):
        with pytest.raises(InputError):
            free_energy_from_ln_Z(ln_Z, T)


def test_momentum_multiset_sum_equals_z1_power():
    energies = [0.0, 0.5, 1.0, 1.7, 2.2]
    beta = 1.1
    z1 = math.fsum(math.exp(-beta * e) for e in energies)
    for n in (1, 2, 3, 4):
        lhs = _momentum_multiset_sum(energies, n, beta)
        assert abs(lhs - z1**n) <= 1e-12 * z1**n


def test_extensivity_report_mb_nn():
    report = extensivity_report(MB_NN, 0.9, [(1.7 * n, n) for n in (1, 2, 10, 100)])
    assert all(c["passed"] for c in report["checks"])
    f_per = [r["F_per_particle"] for r in report["rows"]]
    assert max(f_per) - min(f_per) <= 1e-12 * abs(f_per[0])
    assert "F = -kT*ln(Z)" in report["note"]


def test_extensivity_report_mb_fact_drifts():
    report = extensivity_report(MB_FACT, 1.0, [(2.0 * n, n) for n in (1, 2, 10, 50)])
    defects = [r["extensivity_defect"] for r in report["rows"]]
    assert defects[0] == 0.0  # N = 1 is its own reference
    assert all(d != 0.0 for d in defects[1:])
    # per-particle defect approaches -kT like 0.5 ln(2 pi N)/N
    kT = 1.0
    for r in report["rows"][1:]:
        n = r["N"]
        residual = r["extensivity_defect"] + kT * n - kT * 0.5 * math.log(2.0 * math.pi * n)
        assert 0.0 < residual < kT / (12.0 * n) + 1e-9


def test_extensivity_report_discrete_fd():
    builder = lambda V: box1d_spectrum(12, length=V)
    sizes = [(1.0, 2), (2.0, 4)]
    report = extensivity_report(FD, 1.0, sizes, spectrum_builder=builder)
    assert list(report) == ["statistics", "T", "note", "rows", "checks"]
    assert report["statistics"] == "fd" and report["T"] == 1.0
    rows = report["rows"]
    assert [list(row) for row in rows] == [["V", "N", "ln_Z", "F", "F_per_particle", "extensivity_defect"]] * 2
    assert rows[1]["extensivity_defect"] != 0.0
    for (V, N), row in zip(sizes, rows, strict=True):
        ln_Z = canonical_ln_Z(builder(V), N, 1.0, FD)
        F = free_energy_from_ln_Z(ln_Z, 1.0)
        F_single = free_energy_from_ln_Z(canonical_ln_Z(builder(V / N), 1, 1.0, FD), 1.0)
        assert list(row.values()) == [V, N, ln_Z, F, F / N, F - N * F_single]


def test_extensivity_report_input_errors():
    with pytest.raises(InputError):
        extensivity_report(FD, 1.0, [(1.0, 2)])  # quantum needs a spectrum_builder
    with pytest.raises(InputError):
        extensivity_report(MB_NN, 1.0, [(1.0, 0)])


def test_thermo_point_validation():
    # the continuum point (T, V, N) and its constants, read by mb_ln_Z_continuum
    with pytest.raises(InputError):
        mb_ln_Z_continuum(0.0, 1.0, 1)
    with pytest.raises(InputError):
        mb_ln_Z_continuum(1.0, -1.0, 1)
    for bad in ({"T": math.inf}, {"V": math.nan}, {"mass": math.inf}, {"h": math.nan}):
        with pytest.raises(InputError):
            mb_ln_Z_continuum(**{"T": 1.0, "V": 1.0, "N": 1, **bad})
