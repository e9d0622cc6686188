"""Spectra, occupation enumeration, canonical and grand partition sums,
and the extensivity report.

Statistics kinds: Bose-Einstein ("be"), Fermi-Dirac ("fd"), and two
Boltzmann normalizations, z1^N / N^N ("mb-nn", the per-particle-subvolume
convention that makes the continuum free energy extensive) and z1^N / N!
("mb-fact", the conventional Gibbs correction).  Thermodynamic arithmetic
runs in log space wherever overflow threatens.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from functools import reduce
from operator import add, mul, neg, sub
from typing import Callable, Iterator, Sequence

from .errors import BoseDivergence, CapacityExceeded, InputError, count, file_path, instance, items, real, shown

MAX_PARTICLES = 12      # exhaustive occupation enumeration cap
MAX_LEVELS = 20         # level count cap for enumeration
MAX_OCCUPATION_STATES = math.comb(20, 10)  # enumerated states; FD's most under MAX_LEVELS
MAX_CANONICAL_N = 50    # particle-number cap of the canonical BE/FD kernel
MAX_CUTOFF = 10**4      # spectrum length cap
MAX_COUNT_DIGITS = 4300  # digits of a state count: Python's default int-to-text limit
# A term below 2^-54 times a positive float sum is under half an ulp of it, so
# adding it leaves the sum bit for bit.  e^-QUIET is 2^-54 / e: the factor 1/e
# covers the rounding of exp and of the products.
QUIET = 54 * math.log(2.0) + 1.0

PLANCK_H_SI = 6.62607015e-34
BOLTZMANN_K_SI = 1.380649e-23

FREE_ENERGY_NOTE = (
    "free energy convention: F = -kT*ln(Z); "
    "the opposite printed sign is treated as a typo and flagged as a noted discrepancy"
)


class Statistics(str, Enum):
    BE = "be"
    FD = "fd"
    MB_NN = "mb-nn"
    MB_FACT = "mb-fact"

    @classmethod
    def parse(cls, text) -> "Statistics":
        if type(text) is cls:
            return text
        try:
            return cls(text.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: not a str
            raise InputError(
                f"unknown statistics {shown(text, repr)}; expected one of "
                + ", ".join(s.value for s in cls)
            ) from None

    @property
    def quantum(self) -> bool:
        return self in (Statistics.BE, Statistics.FD)


class Spectrum:
    """Finite ascending list of single-particle energies; degenerate
    levels appear as repeated entries.  Two spectra are equal when their
    energies are."""

    __slots__ = ("energies",)

    def __init__(self, energies: Sequence[float]):
        energies = items(energies, "spectrum energies")
        if not energies:
            raise InputError("spectrum must contain at least one level")
        if len(energies) > MAX_CUTOFF:
            raise CapacityExceeded(f"{len(energies)} levels exceed cap {MAX_CUTOFF}")
        try:
            energies = list(map(float, energies))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"spectrum energies must be real numbers ({exc})") from None
        if not all(map(math.isfinite, energies)):
            raise InputError("spectrum energies must be finite")
        energies.sort()
        self.energies: tuple[float, ...] = tuple(energies)

    @classmethod
    def _ascending(cls, energies: list[float]) -> "Spectrum":
        """Skip __init__'s checks: `energies` must be 1..MAX_CUTOFF floats
        in ascending order, none of them nan or -inf.  Only the largest one
        is checked, since an overflowing product is +inf."""
        if not math.isfinite(energies[-1]):
            raise InputError("spectrum energies must be finite")
        spectrum = cls.__new__(cls)
        spectrum.energies = tuple(energies)
        return spectrum

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.energies == other.energies

    def __hash__(self) -> int:
        return hash(self.energies)

    @property
    def offset(self) -> float:
        """Ground-state energy; energies - offset is nonnegative."""
        return self.energies[0]

    def __len__(self) -> int:
        return len(self.energies)


def _check_cutoff(cutoff: int) -> int:
    value = count(cutoff, "cutoff", 1)
    if value > MAX_CUTOFF:
        raise CapacityExceeded(f"cutoff {shown(value)} exceeds cap {MAX_CUTOFF}")
    return value


def spectrum_from_levels(values: Sequence[float]) -> Spectrum:
    return Spectrum(values)


def dimensionless_spectrum(cutoff: int) -> Spectrum:
    """e_n = n^2 for n = 1..cutoff."""
    cutoff = _check_cutoff(cutoff)
    return Spectrum._ascending([float(n * n) for n in range(1, cutoff + 1)])


def _box_scale(length: float, mass: float, h: float) -> float:
    """h^2 / (8 m L^2); a box needs a positive finite length, mass and h,
    and a scale that stays finite.  A scale that rounds to 0 is kept."""
    length, mass, h = real(length, "box length", True), real(mass, "mass", True), real(h, "h", True)
    denominator = 8.0 * mass * length * length
    scale = h * h / denominator if denominator else math.inf
    if not math.isfinite(scale):
        raise InputError(
            f"h^2/(8 m L^2) is out of float range at L = {length!r}, m = {mass!r}, h = {h!r}"
        )
    return scale


def box1d_spectrum(cutoff: int, length: float = 1.0, mass: float = 1.0, h: float = 1.0) -> Spectrum:
    """1-D hard-wall box: e_n = n^2 h^2 / (8 m L^2)."""
    cutoff = _check_cutoff(cutoff)
    scale = _box_scale(length, mass, h)
    return Spectrum._ascending([scale * n * n for n in range(1, cutoff + 1)])


def _box3d_bound(cutoff: int) -> int:
    """A shell value s whose complete shells nx^2+ny^2+nz^2 <= s hold the
    lowest `cutoff` sums.  About (pi/6) r^3 - (3 pi/8) r^2 triples have a
    sum <= r^2, so r = (6 cutoff/pi)^(1/3) + 1 is enough for every cutoff
    within the cap; a test counts the shells for each one."""
    return int(((6.0 * cutoff / math.pi) ** (1.0 / 3.0) + 1.0) ** 2)


def box3d_spectrum(cutoff: int, length: float = 1.0, mass: float = 1.0, h: float = 1.0) -> Spectrum:
    """3-D cubic box: e = (h^2 / 8 m L^2)(nx^2+ny^2+nz^2), degeneracies
    expanded, lowest `cutoff` levels kept.  The sums are counted by shell
    value, and each shell's energy is computed once."""
    cutoff = _check_cutoff(cutoff)
    scale = _box_scale(length, mass, h)
    bound = _box3d_bound(cutoff)
    squares = [n * n for n in range(math.isqrt(bound) + 1)]
    sums = []
    for nx in range(1, math.isqrt(bound - 2) + 1):
        for ny in range(1, math.isqrt(bound - squares[nx] - 1) + 1):
            base = squares[nx] + squares[ny]
            sums.extend([base + q for q in squares[1:math.isqrt(bound - base) + 1]])
    shells = Counter(sums)
    energies = []
    for s in sorted(shells):
        if len(energies) >= cutoff:
            break
        energies += [scale * s] * shells[s]
    return Spectrum._ascending(energies[:cutoff])


def spectrum_from_csv(path: str) -> Spectrum:
    """CSV with header column `energy`, optional `degeneracy` (expanded)."""
    import csv

    path, energies = file_path(path, "spectrum file"), []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "energy" not in reader.fieldnames:
                raise InputError(f"{path}: missing required CSV column 'energy'")
            for row in reader:
                if None in row:  # DictReader files the extra fields under the key None
                    raise InputError(f"{path}: line {reader.line_num} has more fields than the header")
                try:
                    e = float(row["energy"])
                    g = count(int(row.get("degeneracy") or 1), f"{path}: degeneracy", 1)
                except (TypeError, ValueError) as exc:
                    raise InputError(f"{path}: bad spectrum row {row}") from exc
                if len(energies) + g > MAX_CUTOFF:  # refused before the row is expanded
                    raise CapacityExceeded(f"{path}: {shown(len(energies) + g)} levels exceed cap {MAX_CUTOFF}")
                energies.extend([e] * g)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read spectrum file {path}: {exc}") from exc
    return spectrum_from_levels(energies)


# -- occupation enumeration ---------------------------------------------


def occupation_vectors(n_levels: int, n_particles: int, stat: Statistics) -> Iterator[list[int]]:
    """Every Fock occupation vector with the given total, as a list of
    n_levels ints: 0/1 per level for FD, unrestricted for BE (and both MB
    kinds, which share BE support)."""
    stat = Statistics.parse(stat)
    n_levels, n_particles = count(n_levels, "level count", 1), count(n_particles, "N")
    if n_particles > MAX_PARTICLES:
        raise CapacityExceeded(f"occupation enumeration capped at N = {MAX_PARTICLES}")
    if n_levels > MAX_LEVELS:
        raise CapacityExceeded(f"occupation enumeration capped at {MAX_LEVELS} levels")
    states = occupation_count(n_levels, n_particles, stat)
    if states > MAX_OCCUPATION_STATES:
        raise CapacityExceeded(f"{states} occupation states exceed the bound {MAX_OCCUPATION_STATES}")
    draws = itertools.combinations if stat is Statistics.FD else itertools.combinations_with_replacement
    zeros = [0] * n_levels
    for drawn in draws(range(n_levels), n_particles):
        vec = zeros.copy()
        for lv in drawn:
            vec[lv] += 1
        yield vec


def occupation_count(n_levels: int, n_particles: int, stat: Statistics) -> int:
    """Closed-form state count C(n, N): n = K for FD, K + N - 1 otherwise.

    A count past MAX_COUNT_DIGITS digits is refused before it is computed.
    With m = min(N, n - N), (n/m)^m <= C(n, m) <= (e n/m)^m bound its digits
    by logs of ints, and n/m >= 2 puts every m > 4 * MAX_COUNT_DIGITS past
    the cap; only bounds within a digit of the cap need the exact count."""
    n_levels, n_particles = count(n_levels, "level count", 1), count(n_particles, "N")
    n = n_levels if Statistics.parse(stat) is Statistics.FD else n_levels + n_particles - 1
    m = min(n_particles, n - n_particles)  # C(n, N) = C(n, m); 0 when m < 0
    if m > 0:
        low = m * (math.log10(n) - math.log10(m)) if m <= 4 * MAX_COUNT_DIGITS else math.inf
        if low > MAX_COUNT_DIGITS + 1 or (low + m * math.log10(math.e) > MAX_COUNT_DIGITS - 1
                                          and math.comb(n, m) >= 10**MAX_COUNT_DIGITS):
            raise CapacityExceeded(f"occupation count C({shown(n)}, {shown(n_particles)}) "
                                   f"has more than {MAX_COUNT_DIGITS} digits")
    return math.comb(n, n_particles)


# -- canonical partition functions ----------------------------------------


def _reach(energies: Sequence[float], beta: float, ref: float, limit: float) -> int:
    """The number of levels with beta (e - ref) <= limit.  This key is the
    negated exponent the sums evaluate, so it grows along the ascending
    levels and the terms past the reach are those with the smallest
    exponentials."""
    if beta * (energies[-1] - ref) <= limit:
        return len(energies)
    return bisect_right(energies, limit, key=lambda e: beta * (e - ref))


def _ln_Z_table(spectrum: Spectrum, n_max: int, beta: float, stat: Statistics) -> list[float]:
    """ln Z_0 .. ln Z_n_max for BE/FD: Z_n is the t^n coefficient of
    prod_k (1 - x_k t)^-1 (BE, h_n) or prod_k (1 + x_k t) (FD, e_n), with
    x_k = exp(-beta (e_k - e_0)).  Row n, over the first 1..K levels, is the
    prefix sums of the multipliers times row n-1: only positive terms are
    added.  BE entries lie in [1, C(K+n-1, n)].  FD row n is divided by its
    n-fermion ground weight, kept as a log, so its entries lie in [1, C(K, n)]
    and its multipliers exp(-beta (e_k - e_{n-1})) <= 1 cannot underflow on
    cold, nearly filled spectra.  More fermions than levels give -inf.

    Each row stops at its quiet reach, past which no product changes a bit
    of the prefix sums.  Every row starts at exactly 1 (its first multiplier
    is exp(-0.0)) and the multipliers do not increase along a row.
      - BE: with x_0 = 1, h_n >= h_{n-1} entry by entry (in float too, as
        rounding is monotone), so the running sum of row n is at least the
        row n-1 entry each product takes, and every row stops where
        beta (e - e_0) > QUIET.
      - FD rows lack that order.  Their running sum is at least 1 and no
        entry of row n-1 exceeds its last one, R, so row n stops where
        beta (e - e_{n-1}) > QUIET + ln R and reads row n-1 past its end as
        R repeated.
    Past the reach each prefix sum repeats the last entry, so the cut row is
    the full row's prefix bit for bit.  Within the caps R < 1e136, so no
    reach passes 352/beta, short of where exp underflows.  The work is N
    times the levels in the quiet reach.

    A row whose reference level equals the last row's keeps that row's
    multipliers from its own top on, the same expression on the same
    operands, and evaluates only the levels its reach adds.  A BE row never
    moves e_0 and never grows its reach, so it keeps row 1's plan whole; on
    a degenerate spectrum each distinct FD top pays for its exponentials
    once."""
    if n_max > MAX_CANONICAL_N:
        raise CapacityExceeded(f"N = {shown(n_max)} exceeds the canonical cap {MAX_CANONICAL_N}")
    energies = spectrum.energies
    exp, nb = math.exp, -beta  # exp(nb * d) is exp(-beta * d): unary minus binds first
    fermions = stat is Statistics.FD
    ln_Z = [0.0]
    row = [1.0]  # Z_0 of the first 0..K levels, all 1
    x = []  # the multipliers of the last row, from its top level on
    ground = 0.0
    for n in range(1, (min(n_max, len(energies)) if fermions else n_max) + 1):
        if fermions or n == 1:  # a BE row keeps row 1's e_0, reach and multipliers
            top = energies[n - 1]  # highest level of the n-fermion ground state
            ground += top
            reach = _reach(energies, beta, top, QUIET + math.log(row[-1]))
            x = x[1:reach - n + 2] if n > 1 and top == energies[n - 2] else []  # a repeated top: row n-1's
            x += [exp(nb * (e - top)) for e in energies[n - 1 + len(x):reach]]
            row += [row[-1]] * (len(x) - len(row))  # row n-1 past its reach
        row = list(itertools.accumulate(map(mul, x, row)))
        if fermions:
            ln_Z.append(math.log(row[-1]) - beta * ground)
        else:  # n beta e0; where beta n overflows, a zero or small e0 still gives the exact 0 or a finite term
            ln_Z.append(math.log(row[-1]) - (beta * n * top if beta * n < math.inf else n * (beta * top)))
    return ln_Z + [-math.inf] * (n_max + 1 - len(ln_Z))


def canonical_ln_Z(spectrum: Spectrum, n_particles: int, beta: float, stat: Statistics) -> float:
    """ln Z at integer particle number: BE/FD from the generating-function
    kernel (-inf for more fermions than levels), MB kinds in closed form
    with the single-particle sum taken relative to the ground level.  Any
    other ln Z outside the float range is refused."""
    spectrum = instance(spectrum, Spectrum, "spectrum")
    beta, n_particles, stat = real(beta, "beta", True), count(n_particles, "N"), Statistics.parse(stat)
    if n_particles == 0:
        return 0.0
    if stat.quantum:
        ln_Z = _ln_Z_table(spectrum, n_particles, beta, stat)[-1]
        if stat is Statistics.FD and n_particles > len(spectrum):
            return ln_Z
    else:
        e0 = spectrum.offset
        ln_z1 = math.log(math.fsum(math.exp(-beta * (e - e0)) for e in spectrum.energies)) - beta * e0
        try:
            if stat is Statistics.MB_NN:
                ln_Z = n_particles * ln_z1 - n_particles * math.log(n_particles)
            else:
                ln_Z = n_particles * ln_z1 - math.lgamma(n_particles + 1)
        except OverflowError:  # an N past the float range
            ln_Z = math.nan
    if not math.isfinite(ln_Z):
        raise InputError(f"canonical ln Z is out of float range at beta = {beta!r}, N = {shown(n_particles)}")
    return ln_Z


def canonical_Z(spectrum: Spectrum, n_particles: int, beta: float, stat: Statistics) -> float:
    """Canonical Z at integer particle number, exp(canonical_ln_Z): exactly
    0.0 for more fermions than levels.  A Z above the float range, or below
    its normal range, is refused."""
    ln_Z = canonical_ln_Z(spectrum, n_particles, beta, stat)
    if ln_Z == -math.inf:
        return 0.0
    try:
        Z = math.exp(ln_Z)
    except OverflowError:
        Z = math.inf
    if not sys.float_info.min <= Z < math.inf:
        raise InputError(
            f"canonical Z = exp({ln_Z!r}) is out of float range at beta = {beta!r}, N = {n_particles}"
        )
    return Z


# -- grand canonical --------------------------------------------------------


def grand_ln_Xi(spectrum: Spectrum, beta: float, mu: float, stat: Statistics) -> float:
    """ln of the grand partition product over levels.

    BE requires mu strictly below the lowest level; at or above it the
    geometric occupation series diverges.

    The sum stops at its quiet reach above ref = max(mu, e_0).  Past ref the
    terms do not increase, and a term at beta (e - ref) = s is at most
    2 e^-s times the first one: the BE term -log(1 - e^-t) = sum_j e^-jt / j
    falls at least as fast as e^-t, and the FD softplus log(1 + e^a) lies
    between e^a / 2 and e^a for a <= 0 (concavity) and is at least log 2
    for a >= 0.  The running sum is at least its first term, so past
    s > QUIET + ln 2 every term is below 2^-54 / e times it, under half an
    ulp, and adds exactly nothing."""
    spectrum = instance(spectrum, Spectrum, "spectrum")
    beta, mu, stat = real(beta, "beta", True), real(mu, "mu"), Statistics.parse(stat)
    if not stat.quantum:
        raise InputError("grand product defined here for BE/FD only")
    if stat is Statistics.BE and mu >= spectrum.offset:
        raise BoseDivergence(f"mu = {mu} is not below the lowest level {spectrum.offset}")
    energies = spectrum.energies
    levels = energies[:_reach(energies, beta, max(mu, energies[0]), QUIET + math.log(2.0))]
    a = list(map(mul, itertools.repeat(beta), map(sub, itertools.repeat(mu), levels)))  # beta (mu - e)
    # terms added left to right: sum() of floats is compensated from 3.12 on
    if stat is Statistics.BE:
        # -log(1 - e^a): an a below the normal range (0 or subnormal, with
        # few digits or none left) gives -log(-a) = -log beta - log(e - mu),
        # log(-expm1(a)) keeps its digits for a > -ln 2, near condensation,
        # and log1p(-exp(a)) below (Maechler 2012); a falls along the
        # levels, so each kind of term is one run, the tiny ones first
        tiny = bisect_left(a, sys.float_info.min, key=neg) if -a[0] < sys.float_info.min else 0
        near = bisect_left(a, math.log(2.0), tiny, key=neg)
        gaps = map(sub, levels[:tiny], itertools.repeat(mu))  # e - mu
        total = reduce(sub, itertools.chain(
            map(add, itertools.repeat(math.log(beta)), map(math.log, gaps)),
            map(math.log, map(neg, map(math.expm1, a[tiny:near]))),
            map(math.log1p, map(neg, map(math.exp, a[near:])))), 0.0)
    else:
        # softplus log(1 + e^a), stable for either sign of a
        softplus = map(add, map(max, a, itertools.repeat(0.0)),
                       map(math.log1p, map(math.exp, map(neg, map(abs, a)))))
        total = reduce(add, softplus, 0.0)
    if not math.isfinite(total):
        raise InputError(f"grand ln Xi is out of float range at beta = {beta!r}, mu = {mu!r}")
    return total


# -- Boltzmann closed forms ---------------------------------------------------


def _beta_at(T: float, k: float) -> float:
    """beta = 1 / (k T) for a positive finite T and k; a beta past the float
    range is refused under T's name."""
    beta = 1.0 / (k * T) if k * T else math.inf
    if not 0.0 < beta < math.inf:
        raise InputError(f"beta = 1/(kT) is out of float range at T = {T!r}, k = {k!r}")
    return beta


def thermal_wavelength(T: float, *, mass: float = 1.0, h: float = 1.0, k: float = 1.0) -> float:
    """Lambda = h / sqrt(2 pi m k T); the defaults h = k = m = 1 are the
    dimensionless mode."""
    T, mass, h, k = real(T, "T", True), real(mass, "mass", True), real(h, "h", True), real(k, "k", True)
    scale = 2.0 * math.pi * mass * k * T
    if not scale > 0:
        raise InputError(f"2 pi m k T underflows to zero at T = {T!r}, mass = {mass!r}")
    return h / math.sqrt(scale)


def mb_ln_Z_continuum(T: float, V: float, N: int, stat: Statistics = Statistics.MB_NN, *,
                      mass: float = 1.0, h: float = 1.0, k: float = 1.0) -> float:
    """Continuum Boltzmann ln Z: N ln(V / (N Lambda^3)) for the
    per-particle-subvolume convention, N ln(V / Lambda^3) - ln N! for the
    factorial convention."""
    V, N, stat = real(V, "V", True), count(N, "N"), Statistics.parse(stat)
    wavelength = thermal_wavelength(T, mass=mass, h=h, k=k)
    if N == 0:
        return 0.0
    if stat.quantum:
        raise InputError("continuum closed form applies to MB kinds only")
    try:
        cube = wavelength**3
        if stat is Statistics.MB_NN:
            ln_Z = N * math.log(V / (N * cube))
        else:
            ln_Z = N * math.log(V / cube) - math.lgamma(N + 1)
    except (ArithmeticError, ValueError):  # Lambda^3 or V / Lambda^3 left the float range
        ln_Z = math.nan
    if not math.isfinite(ln_Z):
        raise InputError(
            f"continuum ln Z is out of float range at T = {T!r}, V = {V!r}, mass = {mass!r}"
        )
    return ln_Z


def free_energy_from_ln_Z(ln_Z: float, T: float, k: float = 1.0) -> float:
    """F = -k T ln Z (thermodynamic standard sign); an F outside the float
    range is refused."""
    ln_Z, T, k = real(ln_Z, "ln Z"), real(T, "T", True), real(k, "k", True)
    F = -k * T * ln_Z
    if not math.isfinite(F):
        raise InputError(
            f"F = -kT*ln(Z) is out of float range at T = {T!r}, k = {k!r}: "
            "T is too large or beta too small"
        )
    return F


# -- extensivity report ------------------------------------------------------


def extensivity_report(
    stat: Statistics,
    T: float,
    sizes: Sequence[tuple[float, int]],
    *,
    mass: float = 1.0,
    h: float = 1.0,
    k: float = 1.0,
    spectrum_builder: Callable[[float], Spectrum] | None = None,
) -> dict:
    """F, F/N and the extensivity defect F(T,V,N) - N F(T,V/N,1) across
    system sizes, as a dict of statistics, T, note, rows and checks.  Without
    a spectrum_builder the MB kinds are taken in continuum closed form; with
    one, each volume gets its spectrum and canonical_ln_Z."""
    stat, T, k = Statistics.parse(stat), real(T, "T", True), real(k, "k", True)
    continuum = spectrum_builder is None

    def ln_Z_at(V: float, N: int) -> float:
        if continuum:
            return mb_ln_Z_continuum(T, V, N, stat, mass=mass, h=h, k=k)
        spec = spectrum_builder(V)
        ln_Z = canonical_ln_Z(spec, N, _beta_at(T, k), stat)
        if ln_Z == -math.inf:
            raise InputError(f"{N} fermions do not fit in {len(spec)} levels")
        return ln_Z

    rows = []
    checks = []
    for size in items(sizes, "sizes"):
        if len(size := items(size, "size")) != 2:
            raise InputError(f"a size must be a (V, N) pair, got {shown(size, repr)}")
        N, V = count(size[1], "N", 1), real(size[0], "V", True)  # N first: --n-list 0 makes V = 0 too
        ln_Z = ln_Z_at(V, N)
        F = free_energy_from_ln_Z(ln_Z, T, k)
        F_single = free_energy_from_ln_Z(ln_Z_at(V / N, 1), T, k)
        defect = F - N * F_single
        if not math.isfinite(defect):
            raise InputError(f"extensivity defect is out of float range at T = {T!r}, V = {V!r}, N = {N}")
        rows.append({"V": V, "N": N, "ln_Z": ln_Z, "F": F, "F_per_particle": F / N,
                     "extensivity_defect": defect})
        if stat is Statistics.MB_NN and continuum:
            rel = abs(defect) / abs(F) if F else abs(defect)
            checks.append(
                {
                    "name": f"extensive_V{V}_N{N}",
                    "passed": rel <= 1e-12,
                    "lhs": F,
                    "rhs": N * F_single,
                    "tolerance": 1e-12,
                }
            )
        elif N > 1:
            checks.append(
                {
                    "name": f"defect_nonzero_V{V}_N{N}",
                    "passed": defect != 0.0,
                    "lhs": defect,
                    "rhs": 0.0,
                    "tolerance": 0.0,
                }
            )
    return {"statistics": stat.value, "T": T, "note": FREE_ENERGY_NOTE, "rows": rows, "checks": checks}
