"""Single-term radicals: products, same-radicand sums, exact square roots,
float shadow."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from idstat.errors import CapacityExceeded, InputError
from idstat.exactnum import (
    _MAX_RADICAND,
    ONE,
    ZERO,
    RadicalRational,
    _square_free_split,
    rsqrt_of_rational,
)


@pytest.mark.parametrize(
    "n, expected",
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (360, (6, 10)), (999983, (1, 999983))],
)
def test_square_free_split(n, expected):
    s, r = _square_free_split(n)
    assert (s, r) == expected
    assert s * s * r == n


def test_radd_half_sqrt2_twice_is_sqrt2():
    h = rsqrt_of_rational(Fraction(1, 2))
    assert h.items() == [(2, Fraction(1, 2))]
    assert (h + h).items() == [(2, Fraction(1, 1))]


def test_radd_cancellation_gives_canonical_zero():
    x = rsqrt_of_rational(Fraction(1, 2)) + rsqrt_of_rational(18) * 7
    assert x.items() == [(2, Fraction(43, 2))]
    assert (x - x) == ZERO
    assert (x - x).is_zero
    assert (x - x).items() == []


def test_rmul_normalizer_product():
    # 1/(2*sqrt(3)) times 1/sqrt(6) = sqrt(2)/12
    a = rsqrt_of_rational(Fraction(1, 12))
    b = rsqrt_of_rational(Fraction(1, 6))
    prod = a * b
    assert prod.items() == [(2, Fraction(1, 12))]
    assert math.isclose(float(prod), 1 / (2 * math.sqrt(3)) / math.sqrt(6), rel_tol=1e-15)


def test_rmul_reduces_radicand():
    # sqrt(6)*sqrt(10) = 2*sqrt(15)
    prod = rsqrt_of_rational(6) * rsqrt_of_rational(10)
    assert prod.items() == [(15, Fraction(2))]


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(1, 6), [(6, Fraction(1, 6))]),
        (4, [(1, Fraction(2))]),
        (Fraction(1, 2), [(2, Fraction(1, 2))]),
        (Fraction(9, 4), [(1, Fraction(3, 2))]),
        (0, []),
    ],
)
def test_rsqrt_of_rational(value, expected):
    assert rsqrt_of_rational(value).items() == expected


def test_rsqrt_of_negative_raises():
    with pytest.raises(InputError):
        rsqrt_of_rational(Fraction(-1, 4))


def test_sqrt_squares_back():
    for q in [Fraction(1, 6), Fraction(3, 7), Fraction(25), Fraction(8, 9)]:
        root = rsqrt_of_rational(q)
        assert root * root == RadicalRational.of(q)


def test_unique_representation_equality():
    assert rsqrt_of_rational(2) * rsqrt_of_rational(3) == rsqrt_of_rational(3) * rsqrt_of_rational(2)
    assert rsqrt_of_rational(2) * (ONE - 1) == ZERO
    assert rsqrt_of_rational(Fraction(1, 2)) * 2 == rsqrt_of_rational(2)
    assert RadicalRational.of(Fraction(5, 12)) == Fraction(5, 12)
    assert rsqrt_of_rational(2) != 1 and rsqrt_of_rational(2) != rsqrt_of_rational(3)
    assert ONE == 1


def test_single_term_products():
    # q1 sqrt(r1) * q2 sqrt(r2) = q1 q2 g sqrt(r1 r2 / g^2), g = gcd(r1, r2)
    a, b = rsqrt_of_rational(Fraction(4, 3)), rsqrt_of_rational(Fraction(9, 10))
    assert a.items() == [(3, Fraction(2, 3))] and b.items() == [(10, Fraction(3, 10))]
    assert (a * b).items() == [(30, Fraction(1, 5))]
    assert (a * a).items() == [(1, Fraction(4, 3))]
    assert (a * -b).items() == [(30, Fraction(-1, 5))]
    assert (a * ZERO).items() == [] and (a * ZERO) == 0
    assert (a * Fraction(3, 2)).items() == (Fraction(3, 2) * a).items() == [(3, Fraction(1))]
    assert (-a).items() == [(3, Fraction(-2, 3))] and -(-a) == a


def test_sums_within_one_radicand():
    h = rsqrt_of_rational(Fraction(1, 2))
    assert (h + rsqrt_of_rational(8)).items() == [(2, Fraction(5, 2))]
    assert (h - rsqrt_of_rational(Fraction(9, 2))).items() == [(2, Fraction(-1))]
    assert (RadicalRational.of(Fraction(1, 3)) + 1).items() == (1 + RadicalRational.of(Fraction(1, 3))).items()
    assert (1 + RadicalRational.of(Fraction(1, 3))) == Fraction(4, 3)
    # zero joins any radicand
    assert h + ZERO == ZERO + h == h - 0 == h
    assert sum([h, h, h]) == rsqrt_of_rational(Fraction(9, 2))


def test_sums_across_two_radicands_are_refused():
    for a, b in [(rsqrt_of_rational(2), rsqrt_of_rational(3)), (ONE, rsqrt_of_rational(2)),
                 (rsqrt_of_rational(6), 1)]:
        with pytest.raises(InputError):
            a + b
        with pytest.raises(InputError):
            b + a
        with pytest.raises(InputError):
            a - b


def test_ring_axioms_small_pool():
    # Products of single-term values are associative and commutative; sums
    # exist within one radicand, where they are too and * distributes.
    root2, root3 = rsqrt_of_rational(2), rsqrt_of_rational(3)
    pools = [
        [ZERO, ONE, RadicalRational.of(Fraction(-2, 3)), RadicalRational.of(7)],
        [ZERO, root2, root2 * Fraction(-5, 4), rsqrt_of_rational(Fraction(9, 2))],
    ]
    factors = [ONE, root2, root3, root3 * Fraction(-1, 6), rsqrt_of_rational(Fraction(5, 6))]
    for pool in pools:
        for a in pool:
            for b in pool:
                assert a + b == b + a
                for c in pool:
                    assert (a + b) + c == a + (b + c)
                for f in factors:
                    assert f * (a + b) == f * a + f * b
    for a in factors:
        for b in factors:
            assert a * b == b * a
            for c in factors:
                assert (a * b) * c == a * (b * c)


def test_float_shadow_random_trees():
    rng = random.Random(20260819)
    leaves_exact = [
        RadicalRational.of(Fraction(n, d))
        for n in range(-3, 4)
        for d in (1, 2, 3)
    ] + [rsqrt_of_rational(q) for q in (2, 3, Fraction(1, 2), Fraction(5, 6), 7, 8, Fraction(1, 3))]
    leaves_float = [float(v) for v in leaves_exact]
    radicand = [(v.items() or [(1, 0)])[0][0] for v in leaves_exact]
    for _ in range(300):
        i, j = rng.randrange(len(leaves_exact)), rng.randrange(len(leaves_exact))
        op = rng.choice(["+", "-", "*"])
        if op != "*" and radicand[i] != radicand[j] and not (leaves_exact[i].is_zero or leaves_exact[j].is_zero):
            op = "*"  # a sum across two radicands is not a single term
        if op == "+":
            exact, shadow = leaves_exact[i] + leaves_exact[j], leaves_float[i] + leaves_float[j]
        elif op == "-":
            exact, shadow = leaves_exact[i] - leaves_exact[j], leaves_float[i] - leaves_float[j]
        else:
            exact, shadow = leaves_exact[i] * leaves_exact[j], leaves_float[i] * leaves_float[j]
        assert math.isclose(float(exact), shadow, rel_tol=1e-12, abs_tol=1e-12)


def test_capacity_radicand_cap():
    with pytest.raises(CapacityExceeded):
        rsqrt_of_rational(1000003)  # prime above the cap
    with pytest.raises(CapacityExceeded):
        rsqrt_of_rational(999983) * rsqrt_of_rational(3)
    assert _MAX_RADICAND == 10**6


def test_split_refusal_does_not_print_the_radicand():
    # 10**5000 has more digits than int -> str converts
    for value in (Fraction(1, 10**5000), 10**5000):
        with pytest.raises(CapacityExceeded, match="^cannot reduce a radicand above "):
            rsqrt_of_rational(value)


def test_human_form():
    assert str(ZERO) == "0"
    assert str(rsqrt_of_rational(Fraction(1, 2))) == "1/2*sqrt(2)"
    assert str(RadicalRational.of(Fraction(5, 12))) == "5/12"
    assert str(RadicalRational.of(Fraction(-5, 12))) == "-5/12"
    assert str(-rsqrt_of_rational(Fraction(1, 6))) == "-1/6*sqrt(6)"
    assert str(rsqrt_of_rational(Fraction(1, 6)) - rsqrt_of_rational(Fraction(2, 3))) == "-1/6*sqrt(6)"
    with pytest.raises(InputError):
        RadicalRational.of(0.5)


def test_hash_consistent_with_equality():
    a = rsqrt_of_rational(8)
    b = rsqrt_of_rational(2) * 2
    assert a == b and hash(a) == hash(b)
    assert hash(RadicalRational.of(7)) == hash(7)
    assert len({a, b}) == 1
