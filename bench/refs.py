"""Reference values computed by the benchmark itself.

Nothing here imports idstat.  Symmetry references are closed forms over
the multiset of levels; partition-function references evaluate the
generating function prod(1 + x t) (Fermi-Dirac) or prod(1 - x t)^-1
(Bose-Einstein) with x_k = exp(-beta (e_k - e_0)), a sum of positive
terms only, and add -beta N e_0 back in log space.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

# -- symmetry -----------------------------------------------------------------


def orbit_size(levels) -> int:
    """Distinct orderings of the level multiset: N! / prod m_k!."""
    size = math.factorial(len(levels))
    for m in Counter(levels).values():
        size //= math.factorial(m)
    return size


def distinct_orderings(levels) -> set:
    return set(itertools.permutations(levels))


def parity_sign(levels, state) -> int:
    """Sign of the permutation taking the distinct `levels` to `state`."""
    pos = {lv: i for i, lv in enumerate(levels)}
    seq = [pos[lv] for lv in state]
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def square(terms) -> Fraction | None:
    """Square of a single-term radical q*sqrt(r) given as [(r, q)], or None
    for anything with more than one term."""
    if len(terms) != 1:
        return None
    r, q = terms[0]
    return q * q * r


def radical_product(a, b) -> dict:
    """Product of two radical maps {r: q} (square-free r) as a map."""
    out: dict = {}
    for r1, q1 in a.items():
        for r2, q2 in b.items():
            g = math.gcd(r1, r2)
            r = (r1 // g) * (r2 // g)
            out[r] = out.get(r, Fraction(0)) + q1 * q2 * g
    return {r: q for r, q in out.items() if q}


def radical_sum(values) -> dict:
    out: dict = {}
    for v in values:
        for r, q in v.items():
            out[r] = out.get(r, Fraction(0)) + q
    return {r: q for r, q in out.items() if q}


def equal_share_weights(levels, basis_size: int) -> list[Fraction]:
    """Per-level weight of any one particle in a (anti)symmetrized state:
    m_k / N."""
    n = len(levels)
    counts = Counter(levels)
    return [Fraction(counts.get(k, 0), n) for k in range(basis_size)]


def equal_share_energy(levels, energies) -> Fraction:
    return sum(
        (w * Fraction(e) for w, e in zip(equal_share_weights(levels, len(energies)), energies)),
        Fraction(0),
    )


# -- spectra ------------------------------------------------------------------


def dimensionless_levels(k: int) -> list[float]:
    return [float(n * n) for n in range(1, k + 1)]


def box1d_levels(k: int, length: float) -> list[float]:
    """n^2 / (8 L^2) for n = 1..k, in units with h = m = 1."""
    scale = 1.0 / (8.0 * length * length)
    return [scale * n * n for n in range(1, k + 1)]


def box3d_levels(k: int, length: float) -> list[float]:
    """The k lowest nx^2+ny^2+nz^2 (n >= 1, degeneracies expanded)."""
    top = 3
    while True:
        bound = math.isqrt(top - 2)
        sums = sorted(
            a * a + b * b + c * c
            for a in range(1, bound + 1)
            for b in range(1, bound + 1)
            for c in range(1, bound + 1)
            if a * a + b * b + c * c <= top
        )
        if len(sums) >= k:
            break
        top *= 2
    scale = 1.0 / (8.0 * length * length)
    return [scale * s for s in sums[:k]]


# -- canonical sums -----------------------------------------------------------


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def ln_coefficients(ln_x, n_max: int, fermi: bool) -> list[float]:
    """ln e_n (fermi) or ln h_n (bose) of the values exp(ln_x) for
    n = 0..n_max, by the O(K N) generating-function recurrence in log space.
    Every step adds positive terms, so no cancellation can occur."""
    c = [0.0] + [-math.inf] * n_max
    for lx in ln_x:
        if fermi:
            for n in range(n_max, 0, -1):
                c[n] = _log_add(c[n], lx + c[n - 1])
        else:
            for n in range(1, n_max + 1):
                c[n] = _log_add(c[n], lx + c[n - 1])
    return c


def exact_coefficients(xs, n_max: int, fermi: bool) -> list[Fraction]:
    """e_n / h_n over exact rationals; the oracle for ln_coefficients."""
    c = [Fraction(1)] + [Fraction(0)] * n_max
    for x in xs:
        x = Fraction(x)
        if fermi:
            for n in range(n_max, 0, -1):
                c[n] += x * c[n - 1]
        else:
            for n in range(1, n_max + 1):
                c[n] += x * c[n - 1]
    return c


def ln_fraction(q: Fraction) -> float:
    if q <= 0:
        return -math.inf
    return math.log(q.numerator) - math.log(q.denominator)


def canonical_ln_Z_table(energies, beta: float, stat: str, n_max: int) -> list[float]:
    """ln Z_n for n = 0..n_max (BE "be" or FD "fd"); -inf where no state
    exists (FD with n above the level count)."""
    e0 = min(energies)
    ln_x = [-beta * (e - e0) for e in energies]
    fermi = stat == "fd"
    if len(energies) * n_max <= 400 and min(ln_x) > -700.0:
        coeffs = [ln_fraction(q) for q in exact_coefficients([math.exp(v) for v in ln_x], n_max, fermi)]
    else:
        coeffs = ln_coefficients(ln_x, n_max, fermi)
    return [c - beta * n * e0 if c != -math.inf else c for n, c in enumerate(coeffs)]


def canonical_ln_Z(energies, n: int, beta: float, stat: str) -> float:
    if stat in ("be", "fd"):
        return canonical_ln_Z_table(energies, beta, stat, n)[n]
    return mb_ln_Z(energies, n, beta, stat)


def ln_z1(energies, beta: float) -> float:
    e0 = min(energies)
    return math.log(math.fsum(math.exp(-beta * (e - e0)) for e in energies)) - beta * e0


def mb_ln_Z(energies, n: int, beta: float, stat: str) -> float:
    if n == 0:
        return 0.0
    base = n * ln_z1(energies, beta)
    return base - (n * math.log(n) if stat == "mb-nn" else math.lgamma(n + 1))


def mb_continuum_ln_Z(T: float, V: float, N: int, stat: str) -> float:
    """N ln(V / (N lambda^3)) or N ln(V / lambda^3) - ln N!, with
    lambda = 1 / sqrt(2 pi T) (h = m = k = 1)."""
    if N == 0:
        return 0.0
    ln_lam3 = -1.5 * math.log(2.0 * math.pi * T)
    if stat == "mb-nn":
        return N * (math.log(V) - math.log(N) - ln_lam3)
    return N * (math.log(V) - ln_lam3) - math.lgamma(N + 1)


# -- grand sums ---------------------------------------------------------------


def softplus(t: float) -> float:
    """ln(1 + e^t) without overflow."""
    return t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))


def grand_ln_Xi(energies, beta: float, mu: float, stat: str) -> float:
    """FD: sum softplus(-beta (e - mu)); BE: -sum ln(1 - e^{-beta (e - mu)}),
    defined only for mu below the lowest level."""
    if stat == "fd":
        return math.fsum(softplus(-beta * (e - mu)) for e in energies)
    if mu >= min(energies):
        raise ValueError("Bose grand sum diverges")
    return math.fsum(-math.log(-math.expm1(-beta * (e - mu))) for e in energies)


def log_sum_exp(values) -> float:
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))
